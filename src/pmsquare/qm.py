"""Complex linear algebra on the two-qubit Hilbert space.

Kets are length-4 complex vectors over the computational basis
|00>, |01>, |10>, |11> (left qubit first).  Operators are 4x4 complex
matrices, Hermitian for everything constructed here.  All functions are
pure; nothing mutates its arguments.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Literal

import numpy as np

from .errors import InternalConsistencyError

#: Tolerance for verification-style checks (eigen relations, Hermiticity).
VERIFY_ATOL = 1e-12
#: Tolerance accepted on the norm of user-supplied kets.
NORM_ATOL = 1e-9

PauliLabel = Literal["I", "X", "Y", "Z"]

PAULI = MappingProxyType(
    {
        "I": np.array([[1, 0], [0, 1]], dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
)

IDENTITY4 = np.eye(4, dtype=complex)
for _matrix in (*PAULI.values(), IDENTITY4):
    _matrix.setflags(write=False)

_QUBIT_KETS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / np.sqrt(2.0),
    "-": np.array([1, -1], dtype=complex) / np.sqrt(2.0),
}


def ket(components: Iterable[complex], *, normalize: bool = False) -> np.ndarray:
    """Build a two-qubit ket from four complex components.

    The vector must already have unit norm to within ``NORM_ATOL`` unless
    ``normalize=True``, in which case any vector but the exact zero vector
    is rescaled.  Silent rescaling is deliberately opt-in so that malformed
    inputs surface as errors.  A rescaled ket always passes
    ``is_normalized``: when the sum of squares over- or underflows, the
    components are first divided by their largest real or imaginary part.
    """
    v = np.array(tuple(components), dtype=complex)
    if v.shape != (4,):
        raise ValueError(f"a two-qubit ket needs exactly 4 components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("ket components must be finite")
    with np.errstate(over="ignore"):  # an infinite norm is handled below
        norm = float(np.linalg.norm(v))
    if normalize:
        if not np.any(v):
            raise ValueError("cannot normalize the zero vector")
        unit = v / norm if norm else v
        if not is_normalized(unit):
            parts = v.view(float)  # real division: 1 / a subnormal part overflows
            v = (parts / np.max(np.abs(parts))).view(complex)
            unit = v / np.linalg.norm(v)
        return unit
    if abs(norm - 1.0) > NORM_ATOL:
        raise ValueError(f"ket is not normalized: |v| = {norm!r}")
    return v


def product_ket(pattern: str) -> np.ndarray:
    """Product ket from a two-character pattern over {0, 1, +, -}, e.g. "0+"."""
    if len(pattern) != 2 or any(c not in _QUBIT_KETS for c in pattern):
        raise ValueError(f"bad product-ket pattern {pattern!r}")
    return np.kron(_QUBIT_KETS[pattern[0]], _QUBIT_KETS[pattern[1]])


def pauli_tensor(left: PauliLabel, right: PauliLabel) -> np.ndarray:
    """Tensor product of two single-qubit Pauli/identity factors.

    Always Hermitian and unitary; squares to the 4x4 identity.
    """
    for label in (left, right):
        if label not in PAULI:
            raise ValueError(f"unknown Pauli label {label!r}")
    return np.kron(PAULI[left], PAULI[right])


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix commutator ``a @ b - b @ a``."""
    return a @ b - b @ a


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hermitian inner product <a|b>, conjugate-linear in the first slot."""
    return complex(np.vdot(a, b))


def is_normalized(state: np.ndarray) -> bool:
    return abs(float(np.linalg.norm(state)) - 1.0) <= NORM_ATOL


def is_hermitian(op: np.ndarray) -> bool:
    """Whether op is a Hermitian 4x4 matrix, or a (k, 4, 4) stack of them."""
    op = np.asarray(op)
    return (
        op.ndim in (2, 3)
        and op.shape[-2:] == (4, 4)
        and bool(np.max(np.abs(op - op.conj().swapaxes(-1, -2))) <= VERIFY_ATOL)
    )


def born_probability(state: np.ndarray, eigenvector: np.ndarray) -> float:
    """Outcome probability |<eigenvector|state>|^2 for unit kets."""
    for name, v in (("state", state), ("eigenvector", eigenvector)):
        if not is_normalized(v):
            raise ValueError(f"{name} is not normalized")
    p = abs(inner(eigenvector, state)) ** 2
    return min(p, 1.0)


def expectations(state: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Expectation values <state|op|state> of a (k, 4, 4) stack of Hermitian operators.

    One norm check of the state and one Hermiticity check over the whole
    stack.  Each value is ``np.vdot(state, op @ state)``, bit for bit.
    """
    ops = np.asarray(ops)
    if ops.ndim != 3 or not len(ops):
        raise ValueError(f"expected a (k, 4, 4) stack of operators, k >= 1, got shape {ops.shape}")
    if not is_hermitian(ops):
        raise ValueError("operator is not Hermitian")
    if not is_normalized(state):
        raise ValueError("state is not normalized")
    values = np.array([np.vdot(state, row) for row in ops @ state], dtype=complex)
    if not np.max(np.abs(values.imag)) <= VERIFY_ATOL:
        raise InternalConsistencyError(
            "expectation of a Hermitian operator came out complex: "
            f"{values[np.argmax(np.abs(values.imag))]!r}"
        )
    return values.real


def apply(op: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Matrix-vector product ``op @ state``; the result is not normalized."""
    return np.asarray(op) @ np.asarray(state)


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-one projector |v><v|."""
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def side_projector(axis: PauliLabel, sign: int, side: str) -> np.ndarray:
    """Eigenprojector of a one-qubit Pauli on one wing, identity on the other.

    ``side_projector("Z", +1, "left")`` is ((I + sigma_z)/2) (x) I.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if axis not in ("X", "Y", "Z"):
        raise ValueError(f"axis must be a Pauli label, got {axis!r}")
    p = (PAULI["I"] + sign * PAULI[axis]) / 2.0
    if side == "left":
        return np.kron(p, PAULI["I"])
    if side == "right":
        return np.kron(PAULI["I"], p)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")
