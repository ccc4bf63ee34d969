"""Deterministic linear feasibility for A x = b, x >= 0.

A phase-1 simplex with Bland's pivoting rule: minimize the sum of
artificial variables starting from the all-artificial basis.  Bland's rule
(smallest eligible index enters, ratio ties broken by smallest basic
index) guarantees termination and makes the run a pure function of the
input bits, so repeated solves of the same system are bit-identical.

Feasible systems return a vertex point; infeasible systems return a
Farkas certificate y with y @ A <= 0 componentwise and y @ b > 0, taken
from the optimal phase-1 duals.  Both are verified by direct
multiplication, to the fixed ``TOLERANCE``, before they are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InternalConsistencyError

#: Entries smaller than this never serve as pivots or entering columns.
_PIVOT_EPS = 1e-10
#: Tolerance for ratio ties in the leaving-row selection.
_RATIO_EPS = 1e-12
#: Bound on a feasible point's residual, the phase-1 objective and ``max(y @ A)``.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class LinearSystem:
    """Equality constraints ``coefficients @ x = rhs`` over x >= 0, as read-only copies."""

    coefficients: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        a = np.array(self.coefficients, dtype=float)
        b = np.array(self.rhs, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"coefficient matrix must be 2-d, got {a.ndim}-d")
        if b.ndim != 1 or b.shape[0] != a.shape[0]:
            raise ValueError(
                f"rhs shape {b.shape} does not match {a.shape[0]} constraint rows"
            )
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("system entries must be finite")
        for name, array in (("coefficients", a), ("rhs", b)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)


class FeasibilityResult(NamedTuple):
    status: str  # "feasible" | "infeasible"
    point: np.ndarray | None
    certificate: np.ndarray | None
    phase1_objective: float


def solve(system: LinearSystem) -> FeasibilityResult:
    """Decide feasibility of ``system`` and produce a point or a certificate.

    ``TOLERANCE`` bounds both the accepted residual of a feasible point and
    the phase-1 objective at or below which the system counts as feasible.
    """
    a = system.coefficients
    b = system.rhs
    m, n = a.shape
    if m == 0:
        return FeasibilityResult("feasible", np.zeros(n), None, 0.0)

    # flip rows so the artificial basis starts feasible
    signs = np.where(b < 0.0, -1.0, 1.0)
    tab = np.empty((m, n + m + 1), dtype=float)
    tab[:, :n] = a * signs[:, None]
    tab[:, n : n + m] = np.eye(m)
    tab[:, -1] = b * signs
    basis = list(range(n, n + m))

    # reduced costs for: minimize the sum of artificials
    reduced = np.concatenate([np.zeros(n), np.ones(m)]) - tab[:, :-1].sum(axis=0)

    while True:
        entering = -1
        for j in range(n + m):
            if reduced[j] < -_PIVOT_EPS:
                entering = j
                break
        if entering < 0:
            break
        leaving = -1
        best = np.inf
        for i in range(m):
            coef = tab[i, entering]
            if coef <= _PIVOT_EPS:
                continue
            ratio = tab[i, -1] / coef
            if ratio < best - _RATIO_EPS or (
                ratio <= best + _RATIO_EPS and (leaving < 0 or basis[i] < basis[leaving])
            ):
                best = ratio
                leaving = i
        if leaving < 0:
            raise InternalConsistencyError(
                "phase-1 simplex found an unbounded direction; the objective is "
                "bounded below, so this cannot happen for a well-formed tableau"
            )
        pivot = tab[leaving, entering]
        tab[leaving] /= pivot
        for i in range(m):
            if i != leaving and tab[i, entering] != 0.0:
                tab[i] -= tab[i, entering] * tab[leaving]
        reduced = reduced - reduced[entering] * tab[leaving, :-1]
        basis[leaving] = entering

    objective = float(sum(tab[i, -1] for i in range(m) if basis[i] >= n))

    if objective <= TOLERANCE:
        x = np.zeros(n)
        for i, var in enumerate(basis):
            if var < n:
                x[var] = tab[i, -1]
        _verify_point(a, b, x)
        return FeasibilityResult("feasible", x, None, objective)

    # phase-1 duals: the reduced cost of artificial i is 1 - y_i
    y = signs * (1.0 - reduced[n : n + m])
    y = y / np.max(np.abs(y))
    _verify_certificate(a, b, y)
    return FeasibilityResult("infeasible", None, y, objective)


def _verify_point(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> None:
    """Raise unless ``a @ x = b`` to ``TOLERANCE`` and x >= 0 to 1e-12."""
    residual = float(np.max(np.abs(a @ x - b)))
    lowest = float(x.min()) if len(x) else 0.0
    if not (residual <= TOLERANCE and lowest >= -1e-12):
        raise InternalConsistencyError(
            f"feasible point failed verification (residual {residual:.3e}, "
            f"min coordinate {lowest:.3e})"
        )


def _verify_certificate(a: np.ndarray, b: np.ndarray, y: np.ndarray) -> None:
    """Raise unless ``y @ a <= TOLERANCE`` componentwise and ``y @ b > 0``."""
    against = float(np.max(y @ a)) if a.shape[1] else 0.0
    value = float(y @ b)
    if not (against <= TOLERANCE and value > 0.0):
        raise InternalConsistencyError(
            f"Farkas certificate failed verification (max y@A = {against:.3e}, "
            f"y@b = {value:.3e})"
        )
