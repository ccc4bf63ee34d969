"""How often each command runs the checked primitives.

Every ``expectations`` call checks the norm once and the Hermiticity of
its whole operator stack, every ``born_probability`` checks both kets'
norms, and ``solve`` verifies its point or certificate.  Counting the
calls of one command, with warm caches, and the operators that
``is_hermitian`` receives pins that a refactor drops none of these
checks: the operators checked per command equal the ``is_hermitian``
calls of the one-operator-per-call design (12, 44, 52, 52, 20, 36, 12,
44 and 4 below).
"""

import collections
import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from pmsquare import cli, feasibility, qm

HAAR = str(Path(__file__).resolve().parent / "golden" / "haar_state.json")

_COUNTED = {
    function.__code__: function.__name__
    for function in (
        qm.born_probability,
        qm.expectations,
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
            if frame.f_code is qm.is_hermitian.__code__:
                shape = np.shape(frame.f_locals["op"])
                counts["hermitian_operators"] += shape[0] if len(shape) == 3 else 1

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)  # warms the caches
        sys.setprofile(profile)
        try:
            cli.main(argv)
        finally:
            sys.setprofile(None)
    return dict(counts)


def _expected(born, expectations, hermitian, operators, normalized, solve=0):
    counts = {
        "born_probability": born,
        "expectations": expectations,
        "is_hermitian": hermitian,
        "hermitian_operators": operators,
        "is_normalized": normalized,
        "solve": solve,
    }
    return {name: n for name, n in counts.items() if n}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["model", "1", "--state", "psi1"], _expected(12, 1, 1, 12, 25)),
        (["model", "2", "--state", "psi1"], _expected(8, 3, 3, 44, 19, 1)),
        (["model", "3", "--state", "psi1"], _expected(8, 4, 4, 52, 20, 1)),
        (["model", "3", "--state", HAAR], _expected(8, 4, 4, 52, 20, 1)),
        (["model", "2", "--state", "chsh-max"], _expected(0, 2, 2, 20, 2, 1)),
        (
            ["sample", "3", "--state", "psi1", "--shots", "1000", "--seed", "1"],
            _expected(8, 3, 3, 36, 19, 1),
        ),
        (
            ["sample", "1", "--state", "psi1", "--shots", "1000", "--seed", "1"],
            _expected(12, 1, 1, 12, 25),
        ),
        (
            ["sample", "2", "--state", "psi1", "--shots", "1000", "--seed", "1"],
            _expected(8, 3, 3, 44, 19, 1),
        ),
        (["ch", "--state", "psi1"], _expected(0, 1, 1, 4, 1)),
    ],
    ids=[
        "model-1-psi1",
        "model-2-psi1",
        "model-3-psi1",
        "model-3-haar",
        "model-2-chsh-max",
        "sample-3-psi1",
        "sample-1-psi1",
        "sample-2-psi1",
        "ch-psi1",
    ],
)
def test_each_command_runs_the_checked_primitives_as_often_as_before(argv, expected):
    assert _counts(argv) == expected
