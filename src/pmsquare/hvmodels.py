"""Deterministic noncontextual hidden-variable models for the realizations.

Each hidden state fixes one outcome for every *physical* measurement of a
realization; derived measurements respond through their outcome maps, so
a response can only depend on the hidden state and the parent measurement,
never on what else is measured alongside.  The hidden-state distribution
is fixed by the quantum state alone.

Model 1 (realization 1) uses 4^3 = 64 hidden states, one per outcome
triple of (Lzz, Lxx, B), weighted by the product of the three Born
probabilities.  Models 2 and 3 share a single construction over the six
measurements of realization 3: 2^4 * 4^2 = 256 hidden states weighted by
p(i,j,k,l) * Born(B=m) * Born(B'=n), where p is a joint distribution over
the four one-wing polarization values that reproduces the four measurable
pairwise joints.  Such a joint exists exactly when the fixed-setting CHSH
bound |S| <= 2 holds (Fine's theorem); it is found or refuted with a
Farkas certificate by linear feasibility over one constant marginalization
matrix.  Its keys are the one-wing value tuples ``WING_VALUES``, and the
wings each CHSH setting reads are those of the pair measurement on its
axes, from ``PAIR_WINGS`` and ``SIDE_SPEC``.  Realization 2 gets the same
states through the outcome translation.

``violation_witnesses`` exhibits how the models escape the square's no-go
argument: hidden states whose value triple in a *non-simultaneous*
context does not multiply to the context's operator-product sign, and
hidden states where two different realizers of one cell disagree.  Inside
every simultaneously measurable context the induced triples always have
that product, which the same scan asserts.  What the scan needs of the
realization (identification classes, outcome lookups, class choices and
each choice's required sign) is a read-only ``Realization.scan_plan``,
built once per realization, so each scan is array gathers and products.
Its ``WitnessReport`` keeps each step's flagged hidden states as a
``WitnessBlock`` of read-only row indices and values over the model
table, plus exact counts.  Marginals, pair joints and sampled shot counts
are all totalled by one slot pass over the outcome table; every outcome
table, these and the scan plan's, puts outcome o in slot ``o + 128``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import feasibility
from .errors import InfeasibleModelError, InternalConsistencyError
from .qm import (
    VERIFY_ATOL,
    apply,
    born_probability,
    expectations,
    ket,
    pauli_tensor,
    side_projector,
)
from .square import CONTEXTS, Context, eigentable
from .realizations import (
    MEASUREMENT_CONTEXTS,
    PAIR_WINGS,
    SIDE_IDS,
    SIDE_SPEC,
    WING_VALUES,
    Realization,
    build_realization,
    translate_outcomes_inverse,
)

#: Hidden states with probability at or below this threshold are ignored
#: by the witness scans.
POSITIVE_PROBABILITY = 1e-12

_SIGNS = (1, -1)

#: Axis pairs (left, right) of the measurable polarization joints.
PAIR_AXES = (("z", "z"), ("z", "x"), ("x", "z"), ("x", "x"))

#: The (left, right) wing ids each ``PAIR_AXES`` setting reads: the pair measurement's on its axes.
_SETTING_WINGS = {
    tuple(SIDE_SPEC[wing][0].lower() for wing in wings): wings for wings in PAIR_WINGS.values()
}

#: The outcome pairs (a, b) of each setting, in the order of the Fine system's rows.
_PAIR_OUTCOMES = tuple(itertools.product(_SIGNS, repeat=2))


def _pair_projector(pair: tuple[str, str], a: int, b: int) -> np.ndarray:
    """The product of the left projector on outcome a and the right one on b."""
    (left_axis, left), (right_axis, right) = (SIDE_SPEC[wing] for wing in _SETTING_WINGS[pair])
    return side_projector(left_axis, a, left) @ side_projector(right_axis, b, right)


@lru_cache(maxsize=None)
def _pair_projectors() -> np.ndarray:
    """The pair projectors of the Fine system's rows after the first, as one read-only stack.

    Built on first use: its matrix products start the BLAS library, which
    costs ~0.3 MB of memory in a process that never needs the Fine layer.
    """
    stack = np.array([_pair_projector(pair, a, b) for pair in PAIR_AXES for a, b in _PAIR_OUTCOMES])
    stack.setflags(write=False)
    return stack


#: Coefficients of the Fine system: a normalization row, then for each pair
#: of ``PAIR_AXES`` and outcome pair (a, b) the indicator of the wing-value tuples
#: whose two wing slots read (a, b).
_MARGINALIZATION = np.array(
    [[1.0] * len(WING_VALUES)]
    + [
        [float((key[slot_a], key[slot_b]) == ab) for key in WING_VALUES]
        for slot_a, slot_b in (map(SIDE_IDS.index, _SETTING_WINGS[axes]) for axes in PAIR_AXES)
        for ab in _PAIR_OUTCOMES
    ]
)
_MARGINALIZATION.setflags(write=False)

#: The correlator operators sigma_s (x) sigma_t of ``PAIR_AXES``, as one read-only stack.
_CORRELATORS = np.array([pauli_tensor(s.upper(), t.upper()) for s, t in PAIR_AXES])
_CORRELATORS.setflags(write=False)

#: Number G of guide-table buckets for sampling.  A power of two, so
#: bucket k holds exactly the draws in [k/G, (k+1)/G): those whose 64-bit
#: Philox word w has k in its top log2(G) = 12 bits, ``w >> 52``.
_GUIDE_BUCKETS = 4096

#: Philox words drawn and tallied per step of ``sample_model``: 16,384 words
#: (128 KB).  The time per shot is flat from 2**14 to 2**16 words, and the
#: working set of a chunk (words, bucket indices, straddle mask) is a
#: quarter of 2**16's, so a call peaks at about 0.4 MB for any shot count.
_SAMPLE_CHUNK = 1 << 14


class CHReport(NamedTuple):
    """Fixed-setting CHSH evaluation for the z/x polarization correlators.

    ``chsh_values`` holds the four sign placements in the order: minus on
    the (x,x), (x,z), (z,x), (z,z) correlator respectively.
    """

    correlators: dict[tuple[str, str], float]
    chsh_values: tuple[float, float, float, float]
    max_abs: float
    violated: bool


class FineResult(NamedTuple):
    status: str  # "feasible" | "infeasible"
    joint: Mapping[tuple[int, int, int, int], float] | None
    certificate: np.ndarray | None
    ch: CHReport
    system: feasibility.LinearSystem
    mixing: float  # weight of the uniform joint in the solved system


class HiddenState(NamedTuple):
    """One row of an ``HVModel`` table, as ``HVModel.states`` presents it."""

    outcomes: Mapping[str, int]
    probability: float


class _GuideTable(NamedTuple):
    """A CDF and its guide table as read-only arrays: what ``_tally`` reads."""

    cumulative: np.ndarray  # float64[states]
    straddles: np.ndarray  # bool[G]: the buckets whose two edges differ in state
    run_starts: np.ndarray  # intp: the first bucket of each run with one lower-edge state
    run_states: np.ndarray  # intp: that state, increasing


@dataclass(frozen=True, eq=False)
class HVModel:
    """A hidden-variable model as a read-only outcome table and weight vector.

    Hidden state s assigns ``outcomes[s, m]`` to ``measurement_ids[m]`` and
    has weight ``probabilities[s]``; models 2/3 keep their joint-distribution
    solve in ``fine``.  The tables that tallies and sampling read (slot index,
    CDF, guide table) are built from these on first use and kept read-only.
    """

    realization_index: int
    measurement_ids: tuple[str, ...]
    outcomes: np.ndarray  # int8[states, measurements]
    probabilities: np.ndarray  # float64[states]
    fine: FineResult | None = None

    def __post_init__(self) -> None:
        table = np.asarray(self.outcomes)
        with np.errstate(invalid="ignore"):  # a NaN or infinite outcome fails the check below
            outcomes = table if table.dtype == object else table.astype(np.int8)
        if outcomes.dtype != np.int8 or not np.array_equal(outcomes, table):
            raise ValueError("every outcome must be an integer that fits in int8")
        probabilities = np.array(self.probabilities, dtype=np.float64)
        if not np.isfinite(probabilities).all():
            raise ValueError("every weight must be finite")
        for name, array in (("outcomes", outcomes), ("probabilities", probabilities)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        if self.outcomes.shape != (len(self.probabilities), len(self.measurement_ids)):
            raise ValueError("the outcome table needs one row per weight, one column per id")

    @cached_property
    def states(self) -> tuple[HiddenState, ...]:
        """The rows of the table as ``HiddenState`` objects, built on first use."""
        return tuple(
            HiddenState(MappingProxyType(dict(zip(self.measurement_ids, row))), probability)
            for row, probability in zip(self.outcomes.tolist(), self.probabilities.tolist())
        )

    def column(self, measurement_id: str) -> np.ndarray:
        """Every hidden state's outcome of one physical measurement."""
        return self.outcomes[:, self.measurement_ids.index(measurement_id)]

    @cached_property
    def _slots(self) -> np.ndarray:
        """The read-only ``_slot_index`` of the outcome table, built on first use."""
        slots = _slot_index(self.outcomes)
        slots.setflags(write=False)
        return slots

    @cached_property
    def _guide(self) -> _GuideTable:
        """The normalized CDF of the weights and its guide table, built on the first sample.

        Raises ValueError if no weight is positive, or if a state a draw may
        land on holds an outcome its measurement does not have, as no count
        would show that state's shots.  ``cached_property`` keeps no
        exception, so every sample of such a model raises.
        """
        probabilities = np.maximum(self.probabilities, 0.0)
        total = probabilities.sum()
        if not total > 0.0:
            raise ValueError("the model has no positive weight to sample from")
        cumulative = np.cumsum(probabilities / total)
        # the states with a positive CDF step, and the last one for draws past the end
        landed = np.diff(cumulative, prepend=0.0) > 0.0
        landed[-1] |= cumulative[-1] < 1.0
        plan = build_realization(self.realization_index).scan_plan
        known = plan.valid[[plan.parents.index(mid) for mid in self.measurement_ids]]
        foreign = landed[:, None] & ~known.ravel()[self._slots]
        if foreign.any():
            state, m = np.argwhere(foreign)[0]
            raise ValueError(
                f"hidden state {state}: {self.outcomes[state, m]} is not an outcome "
                f"of {self.measurement_ids[m]}"
            )
        return _guide_table(cumulative)


def _slot_index(outcomes: np.ndarray) -> np.ndarray:
    """The slot ``outcomes[s, m] + 128 + 256 * m`` of every entry, for ``_slot_totals``."""
    return outcomes.astype(np.intp) + 128 + 256 * np.arange(outcomes.shape[1])


def _slot_totals(slots: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Slot [m, o + 128] sums ``weights[s]`` over the rows s with outcome o in column m.

    ``slots`` is the ``_slot_index`` of the outcome table.  One
    ``np.add.at`` pass in state order, so every slot adds its weights as a
    loop over the states does; int64 counts stay exact.
    """
    columns = slots.shape[1]
    totals = np.zeros(columns * 256, dtype=weights.dtype)
    np.add.at(totals, slots.ravel(), np.repeat(weights, columns))
    return totals.reshape(columns, 256)


def chsh_max_state() -> np.ndarray:
    """The unit eigenvector of zz + zx + xz - xx with eigenvalue 2*sqrt(2).

    That operator squares to 4*I + 4*(Y(x)Y), so 2*sqrt(2) is its largest
    eigenvalue; the closed-form vector is checked against the operator
    before it is returned.
    """
    s = math.sqrt(2.0)
    v = np.array([1.0, s - 1.0, s - 1.0, -1.0], dtype=complex)
    v = v / np.linalg.norm(v)
    witness_op = (
        pauli_tensor("Z", "Z")
        + pauli_tensor("Z", "X")
        + pauli_tensor("X", "Z")
        - pauli_tensor("X", "X")
    )
    residual = float(np.max(np.abs(apply(witness_op, v) - 2.0 * s * v)))
    if not residual <= VERIFY_ATOL:
        raise InternalConsistencyError(
            f"CHSH witness state failed the eigenvector check (residual {residual:.3e})"
        )
    return v


def ch_report(state: np.ndarray) -> CHReport:
    """Correlators E(s,t) = <sigma_s (x) sigma_t> for s,t in {z,x} and the CHSH values.

    The correlators are one checked ``expectations`` call over ``_CORRELATORS``.
    """
    correlators = dict(zip(PAIR_AXES, expectations(state, _CORRELATORS).tolist()))
    e1, e2, e3, e4 = (correlators[pair] for pair in PAIR_AXES)
    chsh_values = (
        e1 + e2 + e3 - e4,
        e1 + e2 - e3 + e4,
        e1 - e2 + e3 + e4,
        -e1 + e2 + e3 + e4,
    )
    max_abs = max(abs(v) for v in chsh_values)
    return CHReport(correlators, chsh_values, max_abs, violated=max_abs > 2.0 + 1e-9)


def quantum_pair_joints(
    state: np.ndarray,
) -> dict[tuple[str, str], dict[tuple[int, int], float]]:
    """Born joints of the four measurable one-wing polarization pairs.

    The 16 joints are one checked ``expectations`` call over ``_pair_projectors()``.
    """
    values = iter(expectations(state, _pair_projectors()).tolist())
    # zip stops at the end of a pair's outcomes before it takes another value
    return {pair: dict(zip(_PAIR_OUTCOMES, values)) for pair in PAIR_AXES}


def fine_system(state: np.ndarray) -> feasibility.LinearSystem:
    """The 16-variable feasibility system for a joint one-wing distribution.

    One normalization row plus, for each measurable pair and outcome
    combination, the requirement that the joint's pairwise marginal equal
    the Born joint.
    """
    joints = expectations(state, _pair_projectors())
    return feasibility.LinearSystem(_MARGINALIZATION, [1.0, *joints])


def fine_joint(state: np.ndarray) -> FineResult:
    """Find a joint one-wing distribution matching the measurable pairs.

    Returns a 16-entry joint, or a certificate iff ``ch.violated`` (else
    InternalConsistencyError).  For 2 < |S| <= 2 + 1e-9 the Born joints are
    mixed with the uniform joint at weight ``mixing`` = 1 - 2/|S|, which
    puts |S| at 2 and moves each joint entry by at most 0.75 * mixing.
    """
    state = ket(state)
    report = ch_report(state)
    system = fine_system(state)
    mixing = 0.0
    if report.max_abs > 2.0 and not report.violated:
        mixing = 1.0 - 2.0 / report.max_abs
        rhs = (1.0 - mixing) * system.rhs + mixing * np.array([1.0] + [0.25] * 16)
        system = feasibility.LinearSystem(_MARGINALIZATION, rhs)
    result = feasibility.solve(system)
    if (result.status == "infeasible") != report.violated:
        raise InternalConsistencyError(
            f"the joint-distribution solve is {result.status} at |S| = {report.max_abs!r}"
        )
    if result.status == "feasible":
        joint = {key: float(p) for key, p in zip(WING_VALUES, result.point)}
        return FineResult("feasible", MappingProxyType(joint), None, report, system, mixing)
    # a refusal must be the violated CHSH inequality: y.b = 0.625 (|S| - 2)
    # and every entry of y.A is 0 or -2.5; written so that NaN fails
    value = float(result.certificate @ system.rhs)
    against = result.certificate @ _MARGINALIZATION
    if not (
        abs(value - 0.625 * (report.max_abs - 2.0)) <= 1e-12
        and np.all(np.minimum(np.abs(against), np.abs(against + 2.5)) <= 1e-12)
    ):
        raise InternalConsistencyError(
            f"the Farkas certificate does not decode as the CHSH inequality "
            f"(y@b = {value!r} at |S| = {report.max_abs!r})"
        )
    result.certificate.setflags(write=False)
    return FineResult("infeasible", None, result.certificate, report, system, mixing)


def _born_weights(state: np.ndarray, measurement_id: str) -> np.ndarray:
    """Born probabilities of the outcomes 1..4 of a four-outcome measurement."""
    entries = eigentable(MEASUREMENT_CONTEXTS[measurement_id])
    return np.array([born_probability(state, e.vector) for e in entries])


@lru_cache(maxsize=None)
def _outcome_table(realization_index: int) -> np.ndarray:
    """The read-only outcome table of the model of a realization; no state enters it.

    Model 1 has one row per (Lzz, Lxx, B) outcome triple.  Models 2/3 have
    one row per ``WING_VALUES`` tuple (model 2's translated to pair
    outcomes), in order, each repeated for the 16 (B, B') outcome pairs.
    """
    if realization_index == 1:
        table = np.array(list(itertools.product((1, 2, 3, 4), repeat=3)), dtype=np.int8)
    else:
        wings = WING_VALUES
        if realization_index == 2:
            pairs = (translate_outcomes_inverse(dict(zip(SIDE_IDS, v))) for v in WING_VALUES)
            wings = [[pair[pid] for pid in PAIR_WINGS] for pair in pairs]
        bell = list(itertools.product((1, 2, 3, 4), repeat=2))
        table = np.hstack([np.repeat(wings, 16, axis=0), np.tile(bell, (16, 1))]).astype(np.int8)
    table.setflags(write=False)
    return table


def build_model1(state: np.ndarray) -> HVModel:
    """Product model over the outcomes of Lzz, Lxx and B (64 hidden states)."""
    state = ket(state)
    ids = ("Lzz", "Lxx", "B")
    lzz, lxx, bell = (_born_weights(state, mid) for mid in ids)
    probabilities = np.multiply.outer(np.multiply.outer(lzz, lxx), bell).ravel()
    return HVModel(1, ids, _outcome_table(1), probabilities)


def build_model23(state: np.ndarray, realization_index: int) -> HVModel:
    """Joint-distribution model over six measurements (256 hidden states).

    Built for realization 3 or 2; realization 2 reads the same hidden
    states through the pair-measurement outcomes instead.  Raises
    InfeasibleModelError (carrying the CHSH report and certificate) when
    no joint one-wing distribution exists for the state.
    """
    if realization_index not in (2, 3):
        raise ValueError(f"realization index must be 2 or 3, got {realization_index!r}")
    state = ket(state)
    fine = fine_joint(state)
    if fine.status != "feasible":
        raise InfeasibleModelError(
            "no joint one-wing distribution exists for this state "
            f"(CHSH max |S| = {fine.ch.max_abs:.6f} > 2); the construction is unavailable",
            fine_result=fine,
        )
    joint = np.array([fine.joint[key] for key in WING_VALUES])
    probabilities = np.multiply.outer(
        np.multiply.outer(joint, _born_weights(state, "B")), _born_weights(state, "Bprime")
    ).ravel()
    wing_ids = tuple(PAIR_WINGS) if realization_index == 2 else SIDE_IDS
    outcomes = _outcome_table(realization_index)
    return HVModel(realization_index, wing_ids + ("B", "Bprime"), outcomes, probabilities, fine)


# --- model verification -----------------------------------------------------


@lru_cache(maxsize=None)
def _projector_stack(realization_index: int, measurement_ids: tuple[str, ...]) -> np.ndarray:
    """The projectors of the measurements, in order, as one read-only stack."""
    physicals = build_realization(realization_index).physicals
    stack = np.concatenate([physicals[mid].projectors for mid in measurement_ids])
    stack.setflags(write=False)
    return stack


def _born_distributions(model: HVModel, state: np.ndarray) -> dict[str, dict[int, float]]:
    """Born distribution of each of the model's measurements, from one checked kernel call.

    The projector expectations are independent of the eigenvector overlaps
    ``build_model1``/``build_model23`` weight the hidden states by.
    """
    ids = tuple(model.measurement_ids)
    physicals = build_realization(model.realization_index).physicals
    values = iter(expectations(state, _projector_stack(model.realization_index, ids)).tolist())
    # zip stops at the end of a measurement's outcomes before it takes another value
    return {mid: dict(zip(physicals[mid].outcomes, values)) for mid in ids}


class StatisticsReport(NamedTuple):
    """Model marginals against Born distributions, one deviation per check."""

    measurement_deviations: dict[str, float]
    pair_joint_deviations: dict[str, float]
    max_abs_deviation: float
    probability_sum: float
    tolerance: float
    passed: bool


def reproduce_statistics(model: HVModel, state: np.ndarray) -> StatisticsReport:
    """Compare every physical measurement's model marginal with the Born rule.

    For realization 3 the four measurable one-wing pair joints are checked
    as well (for realization 2 those joints are the pair measurements'
    own distributions).  The tolerance is 1e-12 for model 1, whose
    marginals are exact products, and 1e-9 for models 2/3, whose joints
    come out of the feasibility solver.
    """
    state = ket(state)
    tolerance = 1e-12 if model.realization_index == 1 else 1e-9
    totals = _slot_totals(model._slots, model.probabilities).tolist()
    deviations: dict[str, float] = {}
    for row, (mid, born) in zip(totals, _born_distributions(model, state).items()):
        deviations[mid] = max(abs(row[outcome + 128] - p) for outcome, p in born.items())
    pair_deviations: dict[str, float] = {}
    if model.realization_index == 3:
        # key 2a + b tells the four (a, b) of +/-1 wings apart; the mass of any
        # other wing value already shows as that wing's one-wing deviation
        settings = [_SETTING_WINGS[pair] for pair in PAIR_AXES]
        keys = np.stack([2 * model.column(a) + model.column(b) for a, b in settings], axis=1)
        joints = _slot_totals(_slot_index(keys), model.probabilities).tolist()
        born_joints = quantum_pair_joints(state).values()
        for (id_a, id_b), row, born in zip(settings, joints, born_joints):
            pair_deviations[f"{id_a},{id_b}"] = max(
                abs(row[2 * a + b + 128] - p) for (a, b), p in born.items()
            )
    # a sequential sum, as np.sum's pairwise order would change the last bits
    probability_sum = float(np.cumsum(model.probabilities)[-1])
    worst = max(
        [*deviations.values(), *pair_deviations.values(), abs(probability_sum - 1.0)]
    )
    return StatisticsReport(
        measurement_deviations=deviations,
        pair_joint_deviations=pair_deviations,
        max_abs_deviation=worst,
        probability_sum=probability_sum,
        tolerance=tolerance,
        passed=worst <= tolerance,
    )


def audit_noncontextuality(model: HVModel, realization: Realization) -> bool:
    """Verify the model's layout cannot express context dependence.

    Every hidden state must assign exactly one in-range outcome to each
    physical measurement of the realization, with nonnegative weight;
    derived responses are then outcome-map lookups keyed by the parent
    alone.  Returns False if the layout is corrupted.
    """
    if sorted(model.measurement_ids) != sorted(realization.physicals):
        return False
    if np.any(model.probabilities < -POSITIVE_PROBABILITY):
        return False
    plan = realization.scan_plan
    codes = model.outcomes[:, [model.measurement_ids.index(mid) for mid in plan.parents]]
    if not plan.valid[np.arange(len(plan.parents)), codes.astype(np.intp) + 128].all():
        return False
    for derived in realization.derived.values():
        parent = realization.physicals.get(derived.parent)
        if parent is None or set(derived.outcome_map) != set(parent.outcomes):
            return False
    return True


@dataclass(frozen=True, eq=False)
class WitnessBlock:
    """The hidden states one scan step flags, as read-only row indices and values.

    ``group`` is the context or cell, ``measurement_ids`` the realizer
    representatives, and ``values`` the triple (context) or the two
    disagreeing realizer values (cell) of each state in ``states``.
    """

    group: Context | tuple[int, int]
    measurement_ids: tuple[str, ...]
    states: np.ndarray  # int64 rows of the model table
    values: np.ndarray  # int8[states, 3] or int8[states, 2]

    def __post_init__(self) -> None:
        for array in (self.states, self.values):
            array.setflags(write=False)


class WitnessReport(NamedTuple):
    """The witness scan's findings, stored as index blocks over the model table.

    Each block lists the flagged rows of one scan step in scan order; the
    counts are exact sums over the blocks.
    """

    context_blocks: tuple[WitnessBlock, ...]
    cell_blocks: tuple[WitnessBlock, ...]
    simultaneous_blocks: tuple[WitnessBlock, ...]
    simultaneous_choices_checked: int

    @property
    def context_count(self) -> int:
        return sum(len(block.states) for block in self.context_blocks)

    @property
    def cell_count(self) -> int:
        return sum(len(block.states) for block in self.cell_blocks)

    @property
    def simultaneous_violation_count(self) -> int:
        return sum(len(block.states) for block in self.simultaneous_blocks)


def violation_witnesses(model: HVModel, realization: Realization) -> WitnessReport:
    """Scan positive-probability hidden states for constraint escapes.

    For every context and every choice of one realizer class per cell:
    if the choice is simultaneously measurable its induced triples must
    multiply to the context's sign (violations are collected separately
    and signal a bug); otherwise triples of the other product are reported
    as witnesses.  Cells with several realizer classes are additionally
    scanned for states where the classes disagree.
    """
    if model.realization_index != realization.index:
        raise ValueError("model and realization indices do not match")
    plan = realization.scan_plan
    positive = np.flatnonzero(model.probabilities > POSITIVE_PROBABILITY)
    columns = [model.measurement_ids.index(mid) for mid in plan.parents]
    rows = model.outcomes[positive][:, columns]
    codes = rows.astype(np.intp) + 128  # [states, parents]
    valid = plan.valid[np.arange(len(columns)), codes]
    if not valid.all():
        state, parent = np.argwhere(~valid)[0]
        raise ValueError(
            f"hidden state {positive[state]}: {rows[state, parent]} is not an outcome "
            f"of {plan.parents[parent]}"
        )
    members = plan.lookups[np.arange(len(plan.member_parents)), codes[:, plan.member_parents]]
    responses = members[:, : len(plan.classes)]  # [states, classes]
    disagree = (members != responses[:, plan.member_classes]).any(axis=0)
    if disagree.any():
        cls = plan.classes[plan.member_classes[np.argmax(disagree)]]
        raise InternalConsistencyError(f"identified measurements {cls} disagree in a hidden state")

    triples = responses[:, plan.choices]  # [states, choices, 3]
    inadmissible = triples[..., 0] * triples[..., 1] * triples[..., 2] != plan.choice_signs
    context_blocks: list[WitnessBlock] = []
    simultaneous_blocks: list[WitnessBlock] = []
    for choice in np.flatnonzero(inadmissible.any(axis=0)):
        hit = inadmissible[:, choice]
        blocks = simultaneous_blocks if plan.simultaneous[choice] else context_blocks
        context = CONTEXTS[plan.choice_contexts[choice]]
        names = tuple(plan.classes[cls][0] for cls in plan.choices[choice])
        blocks.append(WitnessBlock(context, names, positive[hit], triples[hit, choice]))

    cell_blocks: list[WitnessBlock] = []
    for cell, cls_a, cls_b in plan.cell_pairs:
        values = responses[:, [cls_a, cls_b]]
        disagree = values[:, 0] != values[:, 1]
        if disagree.any():
            names = (plan.classes[cls_a][0], plan.classes[cls_b][0])
            cell_blocks.append(WitnessBlock(cell, names, positive[disagree], values[disagree]))

    return WitnessReport(
        tuple(context_blocks),
        tuple(cell_blocks),
        tuple(simultaneous_blocks),
        int(np.count_nonzero(plan.simultaneous)),
    )


# --- seeded sampling ---------------------------------------------------------


@dataclass(frozen=True)
class MeasurementSample:
    counts: dict[int, int]
    frequencies: dict[int, float]
    born: dict[int, float]
    tv_distance: float


@dataclass(frozen=True)
class SampleReport:
    shots: int
    seed: int
    measurements: dict[str, MeasurementSample]
    tv_bound: float
    passed: bool


def _guide_bounds(cumulative: np.ndarray) -> np.ndarray:
    """The state index of each bucket edge k/G, k = 0..G, in O(states + G).

    They equal ``np.minimum(np.searchsorted(cumulative, k / G,
    side="right"), n - 1)``: the number of CDF entries c with c <= k/G, that
    is with ``ceil(c * G) <= k`` (c * G is exact), so they are running
    counts of ``ceil(cumulative * G)``.
    """
    # fmin sends a NaN entry past every edge, where searchsorted sorts it
    ceilings = np.fmin(np.ceil(cumulative * _GUIDE_BUCKETS), _GUIDE_BUCKETS + 1).astype(np.intp)
    at_or_below = np.cumsum(np.bincount(ceilings, minlength=_GUIDE_BUCKETS + 2))[:-1]
    return np.minimum(at_or_below, len(cumulative) - 1)


def _guide_table(cumulative: np.ndarray) -> _GuideTable:
    """A read-only copy of the CDF ``cumulative`` with its guide table.

    Bucket k straddles a CDF edge iff the states of its two edges
    (``_guide_bounds``) differ; otherwise all its variates belong to the
    state of its lower edge.  That state never decreases with k, so the
    buckets are kept as runs of one lower-edge state.
    """
    bounds = _guide_bounds(cumulative)
    lo = bounds[:-1]
    starts = np.flatnonzero(np.diff(lo, prepend=-1))
    table = _GuideTable(np.array(cumulative), lo != bounds[1:], starts, lo[starts])
    for array in table:
        array.setflags(write=False)
    return table


def _tally(guide: _GuideTable, chunks: Iterable[np.ndarray]) -> np.ndarray:
    """Count Philox words per state of the CDF ``guide.cumulative``.

    Each uint64 word w stands for the variate ``u = (w >> 11) * 2**-53``,
    the double ``Generator.random`` makes of it.  The counts equal
    ``np.bincount(np.minimum(np.searchsorted(cumulative, u, side="right"),
    n - 1), minlength=n)`` over all words of all chunks.  They are found
    through a guide table (Chen & Asau 1974; Devroye 1986, section
    III.2.4): the top 12 bits ``w >> 52`` are the bucket ``floor(u * G)``,
    every state index of a variate in that bucket lies between the indices
    of the bucket's two edges, so only words in buckets that straddle a CDF
    edge are turned into variates and searched, and the rest are tallied
    per bucket and summed per run of buckets with one lower-edge state
    (``_guide_table``, made once per CDF).  The straddling
    variates are sorted before the search, which then walks the CDF in
    order; counts do not depend on the order.  Each chunk's words, bucket
    indices and straddle mask are dropped before the next chunk is drawn,
    so a call holds one chunk's working set at a time.
    """
    cumulative, straddles, run_starts, run_states = guide
    n = len(cumulative)
    bucket_counts = np.zeros(_GUIDE_BUCKETS, dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    for words in chunks:
        buckets = (words >> 52).view(np.int64)
        bucket_counts += np.bincount(buckets, minlength=_GUIDE_BUCKETS)
        draws = (np.compress(straddles[buckets], words) >> 11) * 2.0**-53
        del words, buckets
        draws.sort()
        searched = np.searchsorted(cumulative, draws, side="right")
        counts += np.bincount(np.minimum(searched, n - 1), minlength=n)
    bucket_counts[straddles] = 0  # their words were searched
    counts[run_states] += np.add.reduceat(bucket_counts, run_starts)
    return counts


def sample_model(model: HVModel, state: np.ndarray, shots: int, seed: int) -> SampleReport:
    """Draw hidden states i.i.d. and tally every physical measurement.

    Randomness comes from NumPy's Philox counter-based generator keyed by
    ``seed``; the s-th 64-bit word of that stream decides shot s through
    the variate ``(w >> 11) * 2**-53``, the s-th ``Generator.random``
    double, so runs are reproducible across platforms and shardable by
    counter offset: as ``advance(1)`` skips 4 words, shard offsets k are
    multiples of 4 and a shard starts from ``Philox(key=seed).advance(k //
    4)``.  The words are streamed in chunks of ``_SAMPLE_CHUNK`` and mapped
    to hidden states by an exact guide-table lookup on the cumulative
    weights: the top 12 bits choose the bucket, the buckets' state bounds
    come from counts of ``ceil(cumulative * 4096)``, and only words in
    buckets that straddle a CDF edge become variates, sorted before they
    are searched.  The model builds its CDF, guide table and slot index on
    its first sample and keeps them read-only; the projector stack of its
    measurements is cached per realization and ids.  ``_tally`` holds one
    chunk's words, bucket indices and straddle mask at a time, so once the
    tables are built a call peaks at about 0.34 MB for any ``shots``.  The
    Born distributions of all measurements come from one checked
    ``expectations`` call.  The pass flag checks every total-variation
    distance against 5/sqrt(shots).  ``shots`` must be a positive int and
    ``seed`` an int in [0, 2**64); a bool is neither.  A model with no
    positive weight, or with a state a draw may land on that holds an
    outcome its measurement does not have, raises ValueError.
    """
    if type(shots) is not int or shots <= 0:
        raise ValueError(f"shots must be a positive int, got {shots!r}")
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an int in [0, 2**64), got {seed!r}")
    state = ket(state)
    guide = model._guide  # raises before any word is drawn
    bit_generator = np.random.Philox(key=np.uint64(seed))
    chunk = _SAMPLE_CHUNK
    state_counts = _tally(
        guide,
        (bit_generator.random_raw(min(chunk, shots - start)) for start in range(0, shots, chunk)),
    )
    totals = _slot_totals(model._slots, state_counts)

    tv_bound = 5.0 / math.sqrt(shots)
    measurements: dict[str, MeasurementSample] = {}
    borns = _born_distributions(model, state)
    for mid, row in zip(model.measurement_ids, totals.tolist()):
        born = borns[mid]
        counts = {outcome: row[outcome + 128] for outcome in born}
        frequencies = {outcome: count / shots for outcome, count in counts.items()}
        tv = 0.5 * sum(abs(frequencies[o] - born[o]) for o in born)
        measurements[mid] = MeasurementSample(counts, frequencies, born, tv)

    passed = all(sample.tv_distance < tv_bound for sample in measurements.values())
    return SampleReport(shots, seed, measurements, tv_bound, passed)
