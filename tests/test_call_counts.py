"""How often each command runs the checked primitives.

Every ``expectation`` checks Hermiticity and the norm, every
``born_probability`` checks both kets' norms, and ``solve`` verifies its
point or certificate.  Counting the calls of one command, with warm
caches, pins that a refactor drops none of these checks.
"""

import collections
import contextlib
import io
import sys
from pathlib import Path

import pytest

from pmsquare import cli, feasibility, qm

HAAR = str(Path(__file__).resolve().parent / "golden" / "haar_state.json")

_COUNTED = {
    function.__code__: function.__name__
    for function in (
        qm.born_probability,
        qm.expectation,
        qm.is_hermitian,
        qm.is_normalized,
        feasibility.solve,
    )
}


def _counts(argv):
    counts = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in _COUNTED:
            counts[_COUNTED[frame.f_code]] += 1

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)  # warms the caches
        sys.setprofile(profile)
        try:
            cli.main(argv)
        finally:
            sys.setprofile(None)
    return dict(counts)


def _expected(born, expectation, hermitian, normalized, solve=0):
    counts = {
        "born_probability": born,
        "expectation": expectation,
        "is_hermitian": hermitian,
        "is_normalized": normalized,
        "solve": solve,
    }
    return {name: n for name, n in counts.items() if n}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["model", "1", "--state", "psi1"], _expected(12, 12, 12, 36)),
        (["model", "2", "--state", "psi1"], _expected(8, 44, 44, 60, 1)),
        (["model", "3", "--state", "psi1"], _expected(8, 52, 52, 68, 1)),
        (["model", "3", "--state", HAAR], _expected(8, 52, 52, 68, 1)),
        (["model", "2", "--state", "chsh-max"], _expected(0, 20, 20, 20, 1)),
        (
            ["sample", "3", "--state", "psi1", "--shots", "1000", "--seed", "1"],
            _expected(8, 36, 36, 52, 1),
        ),
    ],
    ids=[
        "model-1-psi1",
        "model-2-psi1",
        "model-3-psi1",
        "model-3-haar",
        "model-2-chsh-max",
        "sample-3-psi1",
    ],
)
def test_each_command_runs_the_checked_primitives_as_often_as_before(argv, expected):
    assert _counts(argv) == expected
