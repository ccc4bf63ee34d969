"""Exception types shared across the package."""

from __future__ import annotations


class InternalConsistencyError(RuntimeError):
    """A built-in cross-check failed, indicating a transcription or logic bug."""


class InfeasibleModelError(ValueError):
    """The joint-distribution construction has no solution for the given state.

    Carries the failed construction result (with the Farkas certificate and
    the CHSH report) in ``fine_result``.
    """

    def __init__(self, message: str, fine_result):
        super().__init__(message)
        self.fine_result = fine_result
