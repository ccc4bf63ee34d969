"""Three ways of attaching photon-pair measurements to the operator square.

A *physical* measurement is a projective measurement on the pair: a joint
linear-polarization measurement (four outcomes, product basis), a
Bell-type measurement (four outcomes, entangled basis), or a one-wing
polarization measurement (two outcomes).  A *derived* measurement is a
+/-1-valued function of one physical measurement's outcome: keep the left
wing, keep the right wing, take the product, or read off an eigenvalue of
a grid operator from a Bell outcome.

Realization 1 uses three physical measurements (Lzz, Lxx, B) and realizes
each cell by exactly one derived measurement; rows are then trivially
simultaneous but no column is.  Realization 2 adds Lzx, Lxz and a second
Bell measurement B', making every context simultaneously measurable at
the price of realizing every cell twice (four of the doublings collapse
under the one-wing identifications, five do not).  Realization 3
splits the polarization measurements into single wings (Ll_z, Lr_z, Ll_x,
Lr_x) plus B and B', failing both uniqueness and simultaneity.

A realization is declared by its cell map alone: ``build_realization``
builds each derived measurement from its id and each physical measurement
once per parent the ids name, and identifies the readouts of one wing, so
its identifications are disjoint groups of one cell's ids.
``PAIR_WINGS`` gives the (left, right) wings each pair polarization
measurement resolves into, ``SIDE_SPEC`` each wing's Pauli axis and side,
``WING_VALUES`` the 16 one-wing value tuples, and ``MEASUREMENT_CONTEXTS``
the context whose eigenbasis each four-outcome measurement projects onto.

Simultaneity here is structural: two derived measurements are
simultaneously measurable iff they are functions of one physical
measurement or are identified.  ``check_requirements`` asks the
two questions this module exists for: (i) is every cell uniquely
realized, and (ii) does every commuting pair of cells admit simultaneous
realizers.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import InternalConsistencyError
from .square import (
    CONTEXTS, Cell, Context, context_cells, eigentable, expected_context_sign, value_triples
)

if TYPE_CHECKING:
    import numpy as np

#: Context whose eigenbasis each four-outcome measurement projects onto.
MEASUREMENT_CONTEXTS = MappingProxyType(
    {
        "Lzz": Context("row", 0),
        "Lxx": Context("row", 1),
        "B": Context("row", 2),
        "Lzx": Context("column", 0),
        "Lxz": Context("column", 1),
        "Bprime": Context("column", 2),
    }
)

#: Readout functions of each four-outcome measurement, in the slot order of
#: its context's value triples: l/r/t read the left wing, the right wing and
#: their product, f/g/h (fp/gp/hp) the eigenvalues of a Bell outcome.
_READOUTS = {
    "Lzz": ("l", "r", "t"),
    "Lxx": ("r", "l", "t"),
    "Lzx": ("l", "r", "t"),
    "Lxz": ("r", "l", "t"),
    "B": ("f", "g", "h"),
    "Bprime": ("fp", "gp", "hp"),
}

#: The one-wing measurements (left, right) a pair polarization measurement
#: resolves into.
PAIR_WINGS = MappingProxyType(
    {
        "Lzz": ("Ll_z", "Lr_z"),
        "Lxx": ("Ll_x", "Lr_x"),
        "Lzx": ("Ll_z", "Lr_x"),
        "Lxz": ("Ll_x", "Lr_z"),
    }
)

#: The one-wing measurements: wing id -> (Pauli axis, side).
SIDE_SPEC = MappingProxyType(
    {
        "Ll_z": ("Z", "left"),
        "Lr_z": ("Z", "right"),
        "Ll_x": ("X", "left"),
        "Lr_x": ("X", "right"),
    }
)

#: The one-wing measurement ids, in the slot order of a one-wing value tuple.
SIDE_IDS = tuple(SIDE_SPEC)

#: The 16 one-wing value tuples, one +/-1 per wing in ``SIDE_IDS`` order.
WING_VALUES = tuple(itertools.product((1, -1), repeat=len(SIDE_IDS)))

#: The derived measurements realizing each cell, per realization.  A derived
#: id is a one-wing id (its own readout) or ``fn(parent)``, readout fn of
#: the four-outcome measurement parent; the physical measurements are the
#: parents the ids name.
_CELL_MAPS = {
    1: {
        (0, 0): ("l(Lzz)",),
        (0, 1): ("r(Lzz)",),
        (0, 2): ("t(Lzz)",),
        (1, 0): ("r(Lxx)",),
        (1, 1): ("l(Lxx)",),
        (1, 2): ("t(Lxx)",),
        (2, 0): ("f(B)",),
        (2, 1): ("g(B)",),
        (2, 2): ("h(B)",),
    },
    2: {
        (0, 0): ("l(Lzz)", "l(Lzx)"),
        (0, 1): ("r(Lzz)", "r(Lxz)"),
        (0, 2): ("t(Lzz)", "fp(Bprime)"),
        (1, 0): ("r(Lxx)", "r(Lzx)"),
        (1, 1): ("l(Lxx)", "l(Lxz)"),
        (1, 2): ("t(Lxx)", "gp(Bprime)"),
        (2, 0): ("f(B)", "t(Lzx)"),
        (2, 1): ("g(B)", "t(Lxz)"),
        (2, 2): ("h(B)", "hp(Bprime)"),
    },
    3: {
        (0, 0): ("Ll_z",),
        (0, 1): ("Lr_z",),
        (0, 2): ("fp(Bprime)",),
        (1, 0): ("Lr_x",),
        (1, 1): ("Ll_x",),
        (1, 2): ("gp(Bprime)",),
        (2, 0): ("f(B)",),
        (2, 1): ("g(B)",),
        (2, 2): ("h(B)", "hp(Bprime)"),
    },
}


@dataclass(frozen=True)
class PhysicalMeasurement:
    """``projectors[i]`` is ``outcomes[i]``'s: one read-only (k, 4, 4) stack, built from
    the id and checked by ``_verify_resolution`` on first use."""

    id: str
    outcomes: tuple[int, ...]

    @cached_property
    def projectors(self) -> np.ndarray:  # complex[outcomes, 4, 4]
        import numpy as np
        from .qm import projector, side_projector
        if self.id in SIDE_SPEC:  # a one-wing measurement, outcomes +/-1
            axis, side = SIDE_SPEC[self.id]
            matrices = [side_projector(axis, +1, side), side_projector(axis, -1, side)]
        else:  # a context's eigenbasis measurement, outcomes 1..4
            matrices = [projector(e.vector) for e in eigentable(MEASUREMENT_CONTEXTS[self.id])]
        stack = np.array(matrices, dtype=complex)
        stack.setflags(write=False)
        _verify_resolution(self.id, stack)
        return stack


class DerivedMeasurement(NamedTuple):
    id: str
    parent: str
    outcome_map: Mapping[int, int]


@dataclass(frozen=True)
class Realization:
    index: int
    physicals: Mapping[str, PhysicalMeasurement]
    derived: Mapping[str, DerivedMeasurement]
    cell_map: Mapping[Cell, tuple[str, ...]]
    identifications: tuple[frozenset[str], ...]  # disjoint groups of one cell's ids

    @cached_property
    def scan_plan(self) -> ScanPlan:
        """The read-only witness-scan plan of this instance, built on first use."""
        return _scan_plan(self)


@dataclass(frozen=True, eq=False)
class ScanPlan:
    """The structural part of the witness scan, fixed by the realization alone.

    Tables are indexed by ``outcome + 128``, so every int8 value has a slot
    of its own: ``valid`` marks the outcomes of each physical measurement
    and ``lookups`` gives each class member's value (0 off its parent's
    outcomes).  Member row k is the first member of class k; the other
    members follow class by class.  The class choices (one class per cell
    of a context) run context by context in ``CONTEXTS`` order, and a
    choice's triple is admissible iff its product is the choice's
    ``choice_signs`` entry, its context's ``expected_context_sign``.
    """

    parents: tuple[str, ...]  # physical measurement ids
    valid: np.ndarray  # bool[parents, 256]
    classes: tuple[tuple[str, ...], ...]  # identification classes
    member_parents: np.ndarray  # intp[members]: row in ``parents``
    member_classes: np.ndarray  # intp[members]: row in ``classes``
    lookups: np.ndarray  # int8[members, 256]
    choices: np.ndarray  # intp[choices, 3]: rows in ``classes``, in context_cells order
    choice_contexts: np.ndarray  # intp[choices]: row in CONTEXTS
    simultaneous: np.ndarray  # bool[choices]
    choice_signs: np.ndarray  # int8[choices]: the product an admissible triple has
    cell_pairs: tuple[tuple[Cell, int, int], ...]  # (cell, class a, class b)

    def __post_init__(self) -> None:
        import numpy as np
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


class RequirementReport(NamedTuple):
    unique_realization_ok: bool
    multiply_realized_cells: tuple[tuple[Cell, tuple[str, ...]], ...]
    simultaneity_ok: bool
    broken_contexts: tuple[tuple[Context, tuple[str, str]], ...]


def _verify_resolution(measurement_id: str, p: np.ndarray) -> None:
    # the (k, 4, 4) projectors must be mutually orthogonal and sum to the identity
    import numpy as np
    from .qm import IDENTITY4, VERIFY_ATOL
    overlaps = np.max(np.abs(p[:, np.newaxis] @ p), axis=(2, 3))  # [k, k]: |p_i p_j|
    if not np.all(overlaps[~np.eye(len(p), dtype=bool)] <= VERIFY_ATOL):
        raise InternalConsistencyError(f"{measurement_id}: outcome projectors are not orthogonal")
    if not np.max(np.abs(p.sum(axis=0) - IDENTITY4)) <= VERIFY_ATOL:
        raise InternalConsistencyError(f"{measurement_id}: projectors do not sum to identity")


def _derived(derived_id: str) -> DerivedMeasurement:
    """A one-wing id, or ``fn(parent)`` read through the value triples of the parent's context."""
    if derived_id in SIDE_SPEC:
        # a one-wing measurement is its own +/-1 readout
        return DerivedMeasurement(derived_id, derived_id, MappingProxyType({1: 1, -1: -1}))
    function, parent = derived_id.removesuffix(")").split("(")
    pos = _READOUTS[parent].index(function)
    triples = value_triples(MEASUREMENT_CONTEXTS[parent])
    outcome_map = {o: triples[o - 1][pos] for o in (1, 2, 3, 4)}
    return DerivedMeasurement(derived_id, parent, MappingProxyType(outcome_map))


@lru_cache(maxsize=None)
def build_realization(index: int) -> Realization:
    """Measurement tables for realization 1, 2 or 3, built from its cell map."""
    if index not in _CELL_MAPS:
        raise ValueError(f"realization index must be 1, 2 or 3, got {index!r}")
    cell_map = _CELL_MAPS[index]
    derived = {did: _derived(did) for ids in cell_map.values() for did in ids}
    # each parent once, in cell-map order; its projectors are built on first use
    physicals = {
        mid: PhysicalMeasurement(mid, (1, -1) if mid in SIDE_SPEC else (1, 2, 3, 4))
        for mid in dict.fromkeys(d.parent for d in derived.values())
    }
    # l(P) and r(P) read the wings PAIR_WINGS[P]; readouts of one wing by different
    # pair measurements do the same thing there, so they count as the same measurement
    wings: dict[str, list[str]] = {}
    for did in derived:
        function, _, parent = did.removesuffix(")").partition("(")
        if function in ("l", "r"):
            wings.setdefault(PAIR_WINGS[parent]["lr".index(function)], []).append(did)
    return Realization(
        index,
        MappingProxyType(physicals),
        MappingProxyType(derived),
        MappingProxyType(cell_map),
        tuple(frozenset(ids) for ids in wings.values() if len(ids) > 1),
    )


# --- simultaneity structure -------------------------------------------------


def cell_classes(realization: Realization, cell: Cell) -> tuple[tuple[str, ...], ...]:
    """Identification classes realizing a cell, keeping cell_map order.

    An id's class is its identification group, or the id alone if it has
    none.  Each class is returned as a tuple ordered by cell_map
    appearance; its first element serves as the class representative.
    """
    ids = realization.cell_map[cell]
    out: list[tuple[str, ...]] = []
    for did in ids:
        group = next((g for g in realization.identifications if did in g), {did})
        members = tuple(d for d in ids if d in group)
        if members not in out:
            out.append(members)
    return tuple(out)


def classes_compatible(
    realization: Realization, class_a: tuple[str, ...], class_b: tuple[str, ...]
) -> bool:
    """Whether two identification classes are simultaneously measurable.

    True iff they are the same class or some pair of members shares a
    parent physical measurement.
    """
    if set(class_a) == set(class_b):
        return True
    parents_a = {realization.derived[d].parent for d in class_a}
    parents_b = {realization.derived[d].parent for d in class_b}
    return bool(parents_a & parents_b)


def _scan_plan(realization: Realization) -> ScanPlan:
    import numpy as np
    parents = tuple(realization.physicals)
    cells = {cell: cell_classes(realization, cell) for cell in realization.cell_map}
    classes = list(dict.fromkeys(itertools.chain.from_iterable(cells.values())))
    members = [(k, cls[0]) for k, cls in enumerate(classes)]
    members += [(k, did) for k, cls in enumerate(classes) for did in cls[1:]]
    valid = np.zeros((len(parents), 256), dtype=bool)
    for row, mid in enumerate(parents):
        valid[row, np.add(realization.physicals[mid].outcomes, 128)] = True
    lookups = np.zeros((len(members), 256), dtype=np.int8)
    for row, (_, did) in enumerate(members):
        outcome_map = realization.derived[did].outcome_map
        if not set(outcome_map.values()) <= {1, -1}:
            raise InternalConsistencyError(f"{did} is not +/-1-valued")
        lookups[row, np.add(list(outcome_map), 128)] = list(outcome_map.values())

    choices: list[tuple[tuple[str, ...], ...]] = []
    choice_contexts: list[int] = []
    for row, context in enumerate(CONTEXTS):
        options = list(itertools.product(*(cells[cell] for cell in context_cells(context))))
        choices += options
        choice_contexts += [row] * len(options)
    simultaneous = [
        all(classes_compatible(realization, a, b) for a, b in itertools.combinations(choice, 2))
        for choice in choices
    ]
    return ScanPlan(
        parents,
        valid,
        tuple(classes),
        np.array([parents.index(realization.derived[did].parent) for _, did in members]),
        np.array([k for k, _ in members]),
        lookups,
        np.array([[classes.index(cls) for cls in choice] for choice in choices]),
        np.array(choice_contexts),
        np.array(simultaneous),
        np.array([expected_context_sign(CONTEXTS[row]) for row in choice_contexts], dtype=np.int8),
        tuple(
            (cell, classes.index(a), classes.index(b))
            for cell in sorted(cells)
            for a, b in itertools.combinations(cells[cell], 2)
        ),
    )


def check_requirements(realization: Realization) -> RequirementReport:
    """Evaluate uniqueness (i) and simultaneity (ii) for a realization.

    A cell breaks (i) if it is still multiply realized after identified
    measurements are merged.  A context breaks (ii) if two of its cells
    admit no simultaneously measurable pair of realizers; every realizer
    pair across such a cell pair is reported.
    """
    multiply: list[tuple[Cell, tuple[str, ...]]] = []
    for cell in sorted(realization.cell_map):
        if len(cell_classes(realization, cell)) > 1:
            multiply.append((cell, realization.cell_map[cell]))

    broken: list[tuple[Context, tuple[str, str]]] = []
    for context in CONTEXTS:
        for c1, c2 in itertools.combinations(context_cells(context), 2):
            classes1 = cell_classes(realization, c1)
            classes2 = cell_classes(realization, c2)
            if any(
                classes_compatible(realization, a, b) for a in classes1 for b in classes2
            ):
                continue
            for d1 in realization.cell_map[c1]:
                for d2 in realization.cell_map[c2]:
                    broken.append((context, (d1, d2)))

    return RequirementReport(
        unique_realization_ok=not multiply,
        multiply_realized_cells=tuple(multiply),
        simultaneity_ok=not broken,
        broken_contexts=tuple(broken),
    )


# --- outcome translation between realizations 2 and 3 ----------------------


def _is_integer(value: object) -> bool:
    """Whether value is an int or a NumPy integer; bools and floats are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@lru_cache(maxsize=None)
def _wing_values(pair_id: str, outcome: int) -> tuple[int, int]:
    """The (left, right) wing values a pair polarization outcome 1..4 implies."""
    values = value_triples(MEASUREMENT_CONTEXTS[pair_id])[outcome - 1]
    readouts = _READOUTS[pair_id]
    return values[readouts.index("l")], values[readouts.index("r")]


def translate_outcomes(pair_outcomes: Mapping[str, int]) -> dict[str, int]:
    """Convert the four pair-measurement outcome indices to one-wing values.

    The input must assign an integer outcome 1..4 (not a bool or a float) to
    each of Lzz, Lxx, Lzx, Lxz and must be consistent: both measurements
    touching a wing have to imply the same +/-1 value there.  Inconsistent
    tuples raise ValueError naming the clashing measurements.
    """
    if set(pair_outcomes) != set(PAIR_WINGS):
        raise ValueError(f"expected outcomes for exactly {tuple(PAIR_WINGS)}")
    implied: dict[str, dict[str, int]] = {sid: {} for sid in SIDE_IDS}
    for pid, wing_ids in PAIR_WINGS.items():
        outcome = pair_outcomes[pid]
        if not _is_integer(outcome) or outcome not in (1, 2, 3, 4):
            raise ValueError(f"{pid}: outcome must be an integer 1..4, got {outcome!r}")
        for sid, value in zip(wing_ids, _wing_values(pid, outcome)):
            implied[sid][pid] = value
    out: dict[str, int] = {}
    for sid in SIDE_IDS:
        sources = implied[sid]
        if len(set(sources.values())) > 1:
            a, b = sorted(sources)
            raise ValueError(
                f"inconsistent outcomes for {sid}: {a}={pair_outcomes[a]} implies "
                f"{sources[a]:+d} but {b}={pair_outcomes[b]} implies {sources[b]:+d}"
            )
        out[sid] = next(iter(sources.values()))
    return out


def translate_outcomes_inverse(side_outcomes: Mapping[str, int]) -> dict[str, int]:
    """Convert four one-wing +/-1 values back to pair-measurement outcome indices."""
    if set(side_outcomes) != set(SIDE_IDS):
        raise ValueError(f"expected outcomes for exactly {SIDE_IDS}")
    for sid, value in side_outcomes.items():
        if not _is_integer(value) or value not in (1, -1):
            raise ValueError(f"{sid}: outcome must be the integer +1 or -1, got {value!r}")
    out: dict[str, int] = {}
    for pid, (left, right) in PAIR_WINGS.items():
        wings = (side_outcomes[left], side_outcomes[right])
        matches = [o for o in (1, 2, 3, 4) if _wing_values(pid, o) == wings]
        if len(matches) != 1:
            raise InternalConsistencyError(f"{pid}: wing values do not index a unique outcome")
        out[pid] = matches[0]
    return out
