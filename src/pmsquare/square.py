"""The 3x3 two-qubit operator square and its admissible-value structure.

The grid of operators, ``GRID`` as (left, right) Pauli labels and
``cell_operator(cell)`` as 4x4 matrices, is

    Z(x)I   I(x)Z   Z(x)Z
    I(x)X   X(x)I   X(x)X
    Z(x)X   X(x)Z   Y(x)Y

Two entries commute exactly when they share a row or a column.  Every row
and the first two columns multiply to +identity; the third column
multiplies to -identity.  A +/-1 triple is admissible in a context (row
or column) iff its product is the context's sign, ``expected_context_sign``,
which ``context_operator_product`` checks.  The four admissible
``value_triples(context)`` are the eigenvalues of a table of common
eigenvectors, the ``EigenEntry`` records ``eigentable(context)`` returns,
transcribed below as ket patterns and built and verified against the
operators on first use, so importing this module loads no numpy.

No +/-1 assignment to the nine cells is admissible in all six contexts
at once; ``search_assignments`` establishes this by enumerating all 512
candidates, row-major 9-tuples.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import InternalConsistencyError

if TYPE_CHECKING:
    import numpy as np

Cell = tuple[int, int]


class Context(NamedTuple):
    """A row or column of the square, the unit of simultaneous measurability."""

    kind: str  # "row" or "column"
    index: int

    @property
    def name(self) -> str:
        return ("row" if self.kind == "row" else "col") + str(self.index)


ROW_CONTEXTS = tuple(Context("row", i) for i in range(3))
COLUMN_CONTEXTS = tuple(Context("column", i) for i in range(3))
CONTEXTS = ROW_CONTEXTS + COLUMN_CONTEXTS

_CONTEXT_BY_NAME = {c.name: c for c in CONTEXTS}
_CONTEXT_BY_NAME.update({f"r{c.index}": c for c in ROW_CONTEXTS})
_CONTEXT_BY_NAME.update({f"c{c.index}": c for c in COLUMN_CONTEXTS})


def context_from_name(name: str) -> Context:
    """Parse "row0".."row2"/"col0".."col2" (or the short forms r0..c2)."""
    try:
        return _CONTEXT_BY_NAME[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown context name {name!r}") from None


def context_cells(context: Context) -> tuple[Cell, Cell, Cell]:
    """Cells of a context in canonical order: left-to-right, top-to-bottom."""
    if context.kind == "row":
        return tuple((context.index, col) for col in range(3))
    return tuple((row, context.index) for row in range(3))


CELLS: tuple[Cell, ...] = tuple(itertools.product(range(3), range(3)))

#: The operator grid; ``GRID[r][c]`` holds the (left, right) Pauli labels.
GRID = (
    (("Z", "I"), ("I", "Z"), ("Z", "Z")),
    (("I", "X"), ("X", "I"), ("X", "X")),
    (("Z", "X"), ("X", "Z"), ("Y", "Y")),
)


def cell_operator(cell: Cell) -> np.ndarray:
    """The 4x4 operator of a cell of ``GRID``."""
    from .qm import pauli_tensor
    return pauli_tensor(*GRID[cell[0]][cell[1]])


# --- eigenvector tables ---------------------------------------------------

#: Each context's four table states, in the order of its value triples: a
#: label and a product pattern over {0, 1, +, -}, or (a, b, sign) for the
#: state (|a> + sign |b>) / sqrt(2).
_TABLE_KETS = {
    Context("row", 0): (("psi1", "00"), ("psi2", "01"), ("psi3", "10"), ("psi4", "11")),
    Context("row", 1): (("psiP1", "++"), ("psiP2", "-+"), ("psiP3", "+-"), ("psiP4", "--")),
    Context("row", 2): (
        ("psiPP1", ("0+", "1-", +1)), ("psiPP2", ("0+", "1-", -1)),
        ("psiPP3", ("1+", "0-", +1)), ("psiPP4", ("1+", "0-", -1)),
    ),
    Context("column", 0): (("phi1", "0+"), ("phi2", "0-"), ("phi3", "1+"), ("phi4", "1-")),
    Context("column", 1): (("phiP1", "+0"), ("phiP2", "-0"), ("phiP3", "+1"), ("phiP4", "-1")),
    Context("column", 2): (
        ("phiPP1", ("00", "11", +1)), ("phiPP2", ("00", "11", -1)),
        ("phiPP3", ("01", "10", +1)), ("phiPP4", ("01", "10", -1)),
    ),
}


@lru_cache(maxsize=None)
def _table_states() -> dict[Context, tuple[tuple[str, np.ndarray], ...]]:
    """``_TABLE_KETS`` as read-only vectors, which the eigentables and NAMED_STATES share."""
    import numpy as np
    from .qm import product_ket

    def vector(spec: str | tuple[str, str, int]) -> np.ndarray:
        if isinstance(spec, str):
            v = product_ket(spec)
        else:
            v = (product_ket(spec[0]) + spec[2] * product_ket(spec[1])) / np.sqrt(2.0)
        v.setflags(write=False)
        return v

    return {c: tuple((label, vector(s)) for label, s in kets) for c, kets in _TABLE_KETS.items()}


def __getattr__(name: str) -> object:
    """``NAMED_STATES``, every table state by label (the CLI's catalogue), built on first use."""
    if name != "NAMED_STATES":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global NAMED_STATES
    NAMED_STATES = MappingProxyType({k: v for kets in _table_states().values() for k, v in kets})
    return NAMED_STATES


class EigenEntry(NamedTuple):
    label: str
    vector: np.ndarray
    values: tuple[int, int, int]


def expected_context_sign(context: Context) -> int:
    """Sign of the product of the three context operators: -1 only for column 2."""
    return -1 if context == Context("column", 2) else +1


def verify_eigentable(context: Context, entries: tuple[EigenEntry, ...]) -> tuple[float, float]:
    """Check a context's table entries for orthonormality and the eigen relations.

    The eigen relations imply each entry's value product: the context's
    operator product is sign * I, so the values multiply to its sign.
    Returns the largest eigen and orthonormality residuals.  Raises
    InternalConsistencyError on any failure; a failure means the
    transcribed table data does not match the operators.
    """
    import numpy as np
    from .qm import VERIFY_ATOL, apply, inner
    ops = [cell_operator(cell) for cell in context_cells(context)]
    if len(entries) != 4:
        raise InternalConsistencyError(f"{context.name}: expected 4 entries")
    eigen_residual = ortho_residual = 0.0
    for i, entry in enumerate(entries):
        for j, other in enumerate(entries):
            overlap = inner(entry.vector, other.vector)
            residual = abs(overlap - (1.0 if i == j else 0.0))
            if not residual <= VERIFY_ATOL:
                raise InternalConsistencyError(
                    f"{context.name}: entries {entry.label}/{other.label} "
                    f"not orthonormal (overlap {overlap!r})"
                )
            ortho_residual = max(ortho_residual, residual)
        for op, value in zip(ops, entry.values):
            residual = float(np.max(np.abs(apply(op, entry.vector) - value * entry.vector)))
            if not residual <= VERIFY_ATOL:
                raise InternalConsistencyError(
                    f"{context.name}: {entry.label} is not a {value:+d} "
                    f"eigenvector (residual {residual:.3e})"
                )
            eigen_residual = max(eigen_residual, residual)
    return eigen_residual, ortho_residual


@lru_cache(maxsize=None)
def checked_eigentable(context: Context) -> tuple[tuple[EigenEntry, ...], tuple[float, float]]:
    """A context's four entries with the residuals ``verify_eigentable`` found for them."""
    entries = tuple(
        EigenEntry(label, vector, values)
        for values, (label, vector) in zip(value_triples(context), _table_states()[context])
    )
    return entries, verify_eigentable(context, entries)


def eigentable(context: Context) -> tuple[EigenEntry, ...]:
    """The four common-eigenbasis entries of a context, verified on first use."""
    return checked_eigentable(context)[0]


def value_triples(context: Context) -> tuple[tuple[int, int, int], ...]:
    """The four triples of product ``expected_context_sign``, in table order: the eigenvalues."""
    if context not in CONTEXTS:
        raise ValueError(f"unknown context {context!r}")
    sign = expected_context_sign(context)
    return tuple(t for t in itertools.product((1, -1), repeat=3) if t[0] * t[1] * t[2] == sign)


# --- structural checks ----------------------------------------------------


def commutation_relation() -> dict[tuple[Cell, Cell], bool]:
    """Classify all 36 unordered cell pairs as commuting or not.

    The computed classification is asserted against the same-row-or-column
    predicate; a mismatch raises InternalConsistencyError.
    """
    import numpy as np
    from .qm import VERIFY_ATOL, commutator
    result: dict[tuple[Cell, Cell], bool] = {}
    for i, c1 in enumerate(CELLS):
        for c2 in CELLS[i + 1 :]:
            comm = commutator(cell_operator(c1), cell_operator(c2))
            commutes = bool(np.max(np.abs(comm)) <= VERIFY_ATOL)
            predicted = c1[0] == c2[0] or c1[1] == c2[1]
            if commutes != predicted:
                raise InternalConsistencyError(
                    f"commutation of {c1}/{c2}: computed {commutes}, "
                    f"but same-row-or-column predicts {predicted}"
                )
            result[(c1, c2)] = commutes
    return result


def context_operator_product(context: Context) -> int:
    """Sign s such that the ordered product of the context operators is s*identity."""
    import numpy as np
    from .qm import IDENTITY4, VERIFY_ATOL
    a, b, c = (cell_operator(cell) for cell in context_cells(context))
    prod = a @ b @ c
    for sign in (+1, -1):
        if np.max(np.abs(prod - sign * IDENTITY4)) <= VERIFY_ATOL:
            if sign != expected_context_sign(context):
                raise InternalConsistencyError(
                    f"{context.name}: operator product is {sign:+d}*I, "
                    f"expected {expected_context_sign(context):+d}*I"
                )
            return sign
    raise InternalConsistencyError(f"{context.name}: operator product is not +/-identity")


# --- exhaustive assignment search ------------------------------------------


def _slots(context: Context) -> tuple[int, int, int]:
    """Row-major positions of a context's cells in a 9-tuple assignment."""
    return tuple(row * 3 + col for row, col in context_cells(context))


def search_assignments(
    active_constraints: Iterable[Context] | None = None,
) -> list[tuple[int, ...]]:
    """Enumerate all 512 assignments and keep those admissible in every active context.

    An assignment is the row-major 9-tuple of +/-1 cell values.
    ``active_constraints=None`` activates all six contexts, for which the
    result is empty: that emptiness is the no-go contradiction.  Results are
    in lexicographic order (-1 before +1).
    """
    active = CONTEXTS if active_constraints is None else tuple(active_constraints)
    for context in active:
        if not (isinstance(context, Context) and context in CONTEXTS):
            raise ValueError(f"unknown context {context!r}")
    checks = [(*_slots(context), expected_context_sign(context)) for context in active]
    return [
        v
        for v in itertools.product((-1, 1), repeat=9)
        if all(v[i] * v[j] * v[k] == sign for i, j, k, sign in checks)
    ]


def third_column_product_counts(assignments: Iterable[tuple[int, ...]]) -> dict[int, int]:
    """Tally the column-2 value products over a set of assignments.

    With the other five constraints active, every survivor's third-column
    product is +1, which is why the full six-constraint search is empty (the
    third column needs -1).
    """
    counts = {+1: 0, -1: 0}
    i, j, k = _slots(Context("column", 2))
    for values in assignments:
        counts[values[i] * values[j] * values[k]] += 1
    return counts
