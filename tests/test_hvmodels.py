import dataclasses
import functools
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmsquare import cli, feasibility, hvmodels
from pmsquare.errors import InfeasibleModelError, InternalConsistencyError
from pmsquare.hvmodels import (
    _CORRELATORS,
    _GUIDE_BUCKETS,
    _MARGINALIZATION,
    _SAMPLE_CHUNK,
    _guide_bounds,
    _guide_table,
    _outcome_table,
    _pair_projector,
    _pair_projectors,
    _projector_stack,
    _slot_index,
    _slot_totals,
    _tally,
    PAIR_AXES,
    audit_noncontextuality,
    build_model1,
    build_model23,
    ch_report,
    chsh_max_state,
    fine_joint,
    fine_system,
    quantum_pair_joints,
    reproduce_statistics,
    sample_model,
    violation_witnesses,
    HVModel,
)
from pmsquare.qm import apply, expectations, pauli_tensor
from pmsquare.realizations import (
    PAIR_WINGS,
    SIDE_IDS,
    WING_VALUES,
    build_realization,
    cell_classes,
    translate_outcomes_inverse,
)
from pmsquare.square import CONTEXTS, NAMED_STATES, Context, context_cells

from conftest import (
    boundary_crossing,
    boundary_point,
    boundary_slope,
    random_states,
    table_triples,
    witness_rows,
)

PSI1 = NAMED_STATES["psi1"]
SINGLET = NAMED_STATES["phiPP4"]
HAAR = np.array(
    [
        complex(re, im)
        for re, im in json.loads(
            (Path(__file__).parent / "golden" / "haar_state.json").read_text(encoding="utf-8")
        )["amplitudes"]
    ]
)


# --- CHSH reporting -----------------------------------------------------------


def test_chsh_max_state_is_top_eigenvector():
    state = chsh_max_state()
    witness_op = (
        pauli_tensor("Z", "Z")
        + pauli_tensor("Z", "X")
        + pauli_tensor("X", "Z")
        - pauli_tensor("X", "X")
    )
    assert np.max(np.abs(apply(witness_op, state) - 2 * math.sqrt(2) * state)) <= 1e-12
    # numpy's eigensolver as the independent oracle
    eigenvalues, eigenvectors = np.linalg.eigh(witness_op)
    top = eigenvectors[:, np.argmax(eigenvalues)]
    assert abs(np.vdot(top, state)) == pytest.approx(1.0, abs=1e-12)
    assert max(eigenvalues) == pytest.approx(2 * math.sqrt(2), abs=1e-12)


def test_chsh_max_state_refuses_a_vector_off_the_eigenvalue(monkeypatch):
    # a residual of 1e-6 on the eigenvector check is far above VERIFY_ATOL
    exact = hvmodels.apply
    monkeypatch.setattr(hvmodels, "apply", lambda op, v: exact(op, v) + 1e-6)
    with pytest.raises(InternalConsistencyError, match="eigenvector check"):
        chsh_max_state()


def test_chsh_max_state_refuses_a_nan_residual(monkeypatch):
    monkeypatch.setattr(hvmodels, "apply", lambda op, v: np.full(4, np.nan))
    with pytest.raises(InternalConsistencyError, match="eigenvector check"):
        chsh_max_state()


def test_ch_report_product_state():
    report = ch_report(PSI1)
    assert report.correlators[("z", "z")] == pytest.approx(1.0, abs=1e-12)
    for pair in (("z", "x"), ("x", "z"), ("x", "x")):
        assert report.correlators[pair] == pytest.approx(0.0, abs=1e-12)
    assert report.max_abs == pytest.approx(1.0, abs=1e-12)
    assert not report.violated


def test_ch_report_singlet_sits_on_the_boundary():
    report = ch_report(SINGLET)
    assert report.correlators[("z", "z")] == pytest.approx(-1.0, abs=1e-12)
    assert report.correlators[("x", "x")] == pytest.approx(-1.0, abs=1e-12)
    assert report.correlators[("z", "x")] == pytest.approx(0.0, abs=1e-12)
    assert report.correlators[("x", "z")] == pytest.approx(0.0, abs=1e-12)
    assert report.max_abs == pytest.approx(2.0, abs=1e-12)
    assert not report.violated


def test_ch_report_witness_state_violates():
    report = ch_report(chsh_max_state())
    assert report.max_abs == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    assert report.violated


def test_correlators_match_joint_probability_oracle():
    for state in random_states(25, seed=31):
        report = ch_report(state)
        joints = quantum_pair_joints(state)
        for pair in PAIR_AXES:
            from_joint = sum(a * b * p for (a, b), p in joints[pair].items())
            assert report.correlators[pair] == pytest.approx(from_joint, abs=1e-12)
        e1, e2, e3, e4 = (report.correlators[p] for p in PAIR_AXES)
        assert report.chsh_values[0] == pytest.approx(e1 + e2 + e3 - e4, abs=1e-15)
        assert report.max_abs == max(abs(v) for v in report.chsh_values)


def test_quantum_pair_joints_are_distributions():
    for state in random_states(10, seed=5):
        joints = quantum_pair_joints(state)
        for pair, dist in joints.items():
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(p >= -1e-12 for p in dist.values())


# Fresh Pauli factors and np.kron products, built apart from pmsquare.qm.
_AXIS_MATRICES = {
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
}


def _fresh_correlators():
    return [np.kron(_AXIS_MATRICES[s], _AXIS_MATRICES[t]) for s, t in PAIR_AXES]


def _fresh_pair_projectors():
    one = np.eye(2, dtype=complex)
    return [
        np.kron((one + a * _AXIS_MATRICES[s]) / 2.0, (one + b * _AXIS_MATRICES[t]) / 2.0)
        for s, t in PAIR_AXES
        for a in (1, -1)
        for b in (1, -1)
    ]


def _per_operator(state, ops):
    return [np.vdot(state, op @ state).real for op in ops]


@functools.cache
def _crossings():
    return tuple(boundary_crossing(*bracket) for bracket in ((1.0, 1.02), (2.65, 2.67)))


_ORACLE_STATES = st.one_of(
    # deferred, so a fault in chsh_max_state fails the tests that draw, not the collection
    st.deferred(lambda: st.sampled_from([*NAMED_STATES.values(), chsh_max_state()])),
    st.integers(0, 2**32 - 1).map(lambda seed: random_states(1, seed)[0]),
    st.tuples(st.sampled_from((0, 1)), st.floats(-1e-6, 1e-6)).map(
        lambda point: boundary_point(_crossings()[point[0]] + point[1])
    ),
)


@given(_ORACLE_STATES)
@settings(max_examples=300, deadline=None)
def test_property_stacked_fine_layer_equals_a_per_operator_loop(state):
    correlators = _per_operator(state, _fresh_correlators())
    joints = _per_operator(state, _fresh_pair_projectors())
    assert list(ch_report(state).correlators.values()) == correlators
    assert [p for dist in quantum_pair_joints(state).values() for p in dist.values()] == joints
    assert fine_system(state).rhs.tolist() == [1.0, *joints]


def test_fine_layer_stacks_are_read_only_and_in_row_order():
    assert _pair_projectors() is _pair_projectors()
    for stack in (_CORRELATORS, _pair_projectors()):
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 0.0
    assert np.array_equal(_CORRELATORS, np.array(_fresh_correlators()))
    assert np.array_equal(_pair_projectors(), np.array(_fresh_pair_projectors()))
    keys = [(pair, a, b) for pair in PAIR_AXES for a, b in itertools.product((1, -1), repeat=2)]
    assert len(_pair_projectors()) == len(keys)
    for row, key in zip(_pair_projectors(), keys):
        assert row.tobytes() == _pair_projector(*key).tobytes()


# --- Fine construction -----------------------------------------------------------


def test_fine_joint_psi1_confines_mass_to_plus_plus_block():
    result = fine_joint(PSI1)
    assert result.status == "feasible"
    block = sum(p for key, p in result.joint.items() if key[0] == 1 and key[1] == 1)
    assert block == pytest.approx(1.0, abs=1e-9)
    off_block = sum(abs(p) for key, p in result.joint.items() if key[0] != 1 or key[1] != 1)
    assert off_block <= 1e-9


def test_fine_joint_psi1_reproduces_all_pair_joints():
    result = fine_joint(PSI1)
    joints = quantum_pair_joints(PSI1)
    slots = {("z", "z"): (0, 1), ("z", "x"): (0, 3), ("x", "z"): (2, 1), ("x", "x"): (2, 3)}
    for pair, dist in joints.items():
        sa, sb = slots[pair]
        for (a, b), q in dist.items():
            marg = sum(p for key, p in result.joint.items() if key[sa] == a and key[sb] == b)
            assert marg == pytest.approx(q, abs=1e-9)


def test_pair_joints_are_the_born_joints_of_the_pair_measurements():
    # an oracle for the one-wing wiring: the joint of an axis pair is the
    # distribution of the (l, r) readouts of the pair measurement on those axes
    realization = build_realization(2)
    for state in [PSI1, chsh_max_state(), *random_states(5, seed=11)]:
        joints = quantum_pair_joints(state)
        for pid in ("Lzz", "Lzx", "Lxz", "Lxx"):
            left, right = (realization.derived[f"{fn}({pid})"].outcome_map for fn in "lr")
            born, m = {}, realization.physicals[pid]
            for outcome, p in zip(m.outcomes, expectations(state, m.projectors)):
                key = (left[outcome], right[outcome])
                born[key] = born.get(key, 0.0) + p
            assert joints[(pid[1], pid[2])] == pytest.approx(born, abs=1e-12)


def _row_by_row_fine_system(state):
    """The Fine system as it was built before the constant matrix: one row at a time."""
    joints = quantum_pair_joints(state)
    slots = {("z", "z"): (0, 1), ("z", "x"): (0, 3), ("x", "z"): (2, 1), ("x", "x"): (2, 3)}
    rows = [([1.0] * len(WING_VALUES), 1.0)]
    for pair in PAIR_AXES:
        slot_a, slot_b = slots[pair]
        for a, b in itertools.product((1, -1), repeat=2):
            coeffs = [
                1.0 if key[slot_a] == a and key[slot_b] == b else 0.0 for key in WING_VALUES
            ]
            rows.append((coeffs, joints[pair][(a, b)]))
    return np.array([c for c, _ in rows], dtype=float), np.array([v for _, v in rows], dtype=float)


def test_fine_system_matches_the_row_by_row_builder_bit_for_bit():
    states = [*NAMED_STATES.values(), chsh_max_state(), *random_states(200, seed=2024)]
    for state in states:
        system = fine_system(state)
        coefficients, rhs = _row_by_row_fine_system(state)
        assert system.coefficients.tobytes() == coefficients.tobytes()
        assert system.rhs.tobytes() == rhs.tobytes()


def test_quarter_uniform_point_satisfies_the_psi1_system():
    system = fine_system(PSI1)
    quarter = np.array(
        [0.25 if key[0] == 1 and key[1] == 1 else 0.0 for key in WING_VALUES]
    )
    residual = np.max(np.abs(system.coefficients @ quarter - system.rhs))
    assert residual <= 1e-12


def test_fine_joint_phi1_confines_mass_to_deterministic_wings():
    # |0+>: left-z pinned to +1, right-x pinned to +1
    result = fine_joint(NAMED_STATES["phi1"])
    assert result.status == "feasible"
    block = sum(p for key, p in result.joint.items() if key[0] == 1 and key[3] == 1)
    assert block == pytest.approx(1.0, abs=1e-9)


def test_fine_joint_witness_state_is_infeasible_with_certificate():
    result = fine_joint(chsh_max_state())
    assert result.status == "infeasible"
    assert result.ch.violated
    y = result.certificate
    assert float(np.max(y @ result.system.coefficients)) <= 1e-9
    assert float(y @ result.system.rhs) > 0.0


def test_fine_feasibility_matches_chsh_bound():
    # Fine's equivalence on a seeded corpus, away from the |S| = 2 boundary
    checked = 0
    for state in random_states(300, seed=8888):
        report = ch_report(state)
        if abs(report.max_abs - 2.0) <= 1e-7:
            continue
        result = fine_joint(state)
        assert (result.status == "feasible") == (report.max_abs <= 2.0)
        checked += 1
    assert checked >= 250


def test_fine_feasibility_matches_chsh_bound_at_the_boundary():
    # Fine's equivalence in the |S| = 2 band the corpus test skips: 600
    # points at |S| - 2 = +-1e-12 .. +-9e-4 around both crossings of the
    # path.  The LP refuses exactly the states the CHSH report flags, also
    # in the report's 1e-9 slack above 2, where the solved joints are mixed
    # toward the uniform joint and the model still passes its statistics.
    offsets = np.geomspace(1e-12, 9e-4, 150)
    offsets = np.concatenate([-offsets, offsets])
    statuses, mixed = [], 0
    for bracket in ((1.0, 1.02), (2.65, 2.67)):
        crossing = boundary_crossing(*bracket)
        slope = boundary_slope(crossing)
        for offset in offsets:
            state = boundary_point(crossing + offset / slope)
            report = ch_report(state)
            assert abs(report.max_abs - 2.0) <= 1e-3
            result = fine_joint(state)
            assert (result.status == "infeasible") == report.violated
            in_slack = 2.0 < report.max_abs and not report.violated
            assert (result.mixing > 0.0) == in_slack
            if in_slack:
                assert result.mixing == 1.0 - 2.0 / report.max_abs <= 5e-10
                for index in (2, 3):
                    assert reproduce_statistics(build_model23(state, index), state).passed
                mixed += 1
            statuses.append(result.status)
    # per crossing: 150 offsets below 2, 50 in (2, 2 + 1e-9] and 100 above
    assert statuses.count("feasible") == 400 and statuses.count("infeasible") == 200
    assert mixed == 100


def test_fine_verdict_that_contradicts_the_chsh_report_is_an_internal_error(monkeypatch):
    report = ch_report(PSI1)
    monkeypatch.setattr(
        hvmodels, "ch_report", lambda state: report._replace(violated=True)
    )
    with pytest.raises(InternalConsistencyError, match="feasible"):
        fine_joint(PSI1)


@pytest.mark.parametrize(
    "certificate",
    [lambda y: 0.5 * y, lambda y: np.full_like(y, np.nan), lambda y: y + 1e-9 * np.eye(len(y))[0]],
    ids=["scaled", "nan", "nudged"],
)
def test_a_certificate_that_is_not_the_chsh_inequality_is_an_internal_error(
    monkeypatch, certificate
):
    # a half-scaled certificate still proves infeasibility but decodes to
    # y.b = 0.3125 (|S| - 2) and y.A in {0, -1.25}; NaN must not pass either, nor
    # a nudge of 1e-9 along the normalization row, which moves y.b and all of y.A
    solve = feasibility.solve

    def tampered(system):
        result = solve(system)
        return result._replace(certificate=certificate(result.certificate))

    monkeypatch.setattr(feasibility, "solve", tampered)
    with pytest.raises(InternalConsistencyError, match="does not decode"):
        fine_joint(chsh_max_state())


def test_fine_results_are_read_only():
    feasible = fine_joint(PSI1)
    with pytest.raises(TypeError):
        feasible.joint[WING_VALUES[0]] = 1.0
    infeasible = fine_joint(chsh_max_state())
    with pytest.raises(ValueError):
        infeasible.certificate[0] = 0.0
    # the coefficient matrix is shared by every system
    with pytest.raises(ValueError):
        _MARGINALIZATION[0, 0] = 0.0
    for result in (feasible, infeasible):
        with pytest.raises(ValueError):
            result.system.coefficients[1, 1] = 0.5
        with pytest.raises(ValueError):
            result.system.rhs[0] = 0.5


# --- model 1 -----------------------------------------------------------------


def _loop_tally(model, *ids, weights=None, key=lambda outcomes: outcomes):
    """The per-state reference tally, in state order.

    Each state's weight is added under ``key`` of its outcome tuple of
    ``ids``; ``weights`` replaces the model's probabilities.
    """
    if weights is None:
        weights = [state.probability for state in model.states]
    dist = {}
    for state, weight in zip(model.states, weights):
        k = key(tuple(state.outcomes[mid] for mid in ids))
        dist[k] = dist.get(k, 0) + weight
    return dist


def _loop_marginal(model, mid, weights=None):
    return _loop_tally(model, mid, weights=weights, key=lambda outcomes: outcomes[0])


def test_model1_psi1_probabilities():
    model = build_model1(PSI1)
    assert len(model.states) == 64
    for state in model.states:
        if state.outcomes["Lzz"] == 1:
            assert state.probability == pytest.approx(1 / 16, abs=1e-12)
        else:
            assert state.probability == pytest.approx(0.0, abs=1e-12)
    assert sum(s.probability for s in model.states) == pytest.approx(1.0, abs=1e-12)


def test_model1_bell_eigenstate_pins_b_outcome():
    model = build_model1(NAMED_STATES["psiPP1"])
    marginal = _loop_marginal(model, "B")
    assert marginal[1] == pytest.approx(1.0, abs=1e-12)
    for outcome in (2, 3, 4):
        assert marginal[outcome] == pytest.approx(0.0, abs=1e-12)


def test_model1_probabilities_sum_to_one_on_random_states():
    for state in random_states(30, seed=11):
        model = build_model1(state)
        assert sum(s.probability for s in model.states) == pytest.approx(1.0, abs=1e-12)
        assert all(s.probability >= 0.0 for s in model.states)


def test_model1_rejects_unnormalized_state():
    with pytest.raises(ValueError):
        build_model1(np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))


def test_model1_reproduces_born_statistics():
    for state in [PSI1, SINGLET, *random_states(30, seed=13)]:
        model = build_model1(state)
        stats = reproduce_statistics(model, state)
        assert stats.passed
        assert stats.max_abs_deviation <= 1e-12


def test_models_with_permuted_weights_fail_the_statistics_check():
    state = next(s for s in random_states(10, seed=29) if not ch_report(s).violated)
    rng = np.random.default_rng(29)
    for model in (build_model1(state), build_model23(state, 3)):
        permuted = HVModel(
            model.realization_index,
            model.measurement_ids,
            model.outcomes,
            rng.permutation(model.probabilities),
        )
        stats = reproduce_statistics(permuted, state)
        assert stats.probability_sum == pytest.approx(1.0, abs=1e-12)
        assert stats.max_abs_deviation > 1e-3
        assert not stats.passed, model.realization_index


# --- models 2/3 ------------------------------------------------------------------


def test_model23_psi1_structure():
    model = build_model23(PSI1, 3)
    assert len(model.states) == 256
    assert sum(s.probability for s in model.states) == pytest.approx(1.0, abs=1e-9)
    for state in model.states:
        if state.probability > 1e-12:
            assert state.outcomes["Ll_z"] == 1
            assert state.outcomes["Lr_z"] == 1
    b_marginal = _loop_marginal(model, "B")
    for outcome in (1, 2, 3, 4):
        assert b_marginal[outcome] == pytest.approx(0.25, abs=1e-9)


def test_model23_bprime_eigenstate_pins_outcome():
    model = build_model23(NAMED_STATES["phiPP1"], 3)
    marginal = _loop_marginal(model, "Bprime")
    assert marginal[1] == pytest.approx(1.0, abs=1e-9)


def test_model23_realization2_outcomes_translate_consistently():
    model = build_model23(PSI1, 2)
    assert set(model.measurement_ids) == {"Lzz", "Lxx", "Lzx", "Lxz", "B", "Bprime"}
    # the paper-facing check: Lzz and Lzx agree on the left-z wing in every state
    r2 = build_realization(2)
    for state in model.states:
        left_from_lzz = r2.derived["l(Lzz)"].outcome_map[state.outcomes["Lzz"]]
        left_from_lzx = r2.derived["l(Lzx)"].outcome_map[state.outcomes["Lzx"]]
        assert left_from_lzz == left_from_lzx


def test_model23_statistics_within_tolerance():
    states = [s for s in random_states(40, seed=17) if not ch_report(s).violated][:20]
    assert len(states) >= 10
    for state in states:
        for index in (2, 3):
            model = build_model23(state, index)
            stats = reproduce_statistics(model, state)
            assert stats.passed, (index, stats.max_abs_deviation)
    # realization 3 reports the four wing-pair joints as well
    model = build_model23(states[0], 3)
    stats = reproduce_statistics(model, states[0])
    assert len(stats.pair_joint_deviations) == 4


def test_model3_with_right_marginals_but_product_pair_joints_fails():
    # the wing joint replaced by the product of its four one-wing marginals
    # keeps every single-measurement marginal but not the pair joints
    model = build_model23(HAAR, 3)
    weights = model.probabilities.reshape(len(WING_VALUES), 16)
    joint, bell = weights.sum(axis=1), weights.sum(axis=0)
    keys = np.array(WING_VALUES)
    product = np.ones(len(WING_VALUES))
    for slot in range(len(SIDE_IDS)):
        product *= [joint[keys[:, slot] == v].sum() for v in keys[:, slot]]
    weights = np.multiply.outer(product, bell).ravel()
    broken = HVModel(3, model.measurement_ids, model.outcomes, weights)
    stats = reproduce_statistics(broken, HAAR)
    assert max(stats.measurement_deviations.values()) <= 1e-12
    assert all(deviation > 1e-9 for deviation in stats.pair_joint_deviations.values())
    assert len(stats.pair_joint_deviations) == 4
    assert not stats.passed


def test_model3_wing_value_off_plus_minus_one_shows_as_a_one_wing_deviation():
    # the pair keys 2a + b only tell +/-1 wings apart; a row whose wing reads
    # 3 keeps its weight out of both outcomes of that wing's own marginal
    model = build_model23(HAAR, 3)
    heaviest = int(np.argmax(model.probabilities))
    table = model.outcomes.copy()
    table[heaviest, model.measurement_ids.index("Ll_z")] = 3
    broken = HVModel(3, model.measurement_ids, table, model.probabilities, model.fine)
    stats = reproduce_statistics(broken, HAAR)
    weight = model.probabilities[heaviest]
    assert weight > 0.05
    assert stats.measurement_deviations["Ll_z"] == pytest.approx(weight, abs=1e-12)
    assert not stats.passed


def test_model23_refuses_violating_state_with_diagnostics():
    with pytest.raises(InfeasibleModelError) as excinfo:
        build_model23(chsh_max_state(), 3)
    fine = excinfo.value.fine_result
    assert fine.status == "infeasible"
    assert fine.ch.violated
    assert fine.certificate is not None


def test_model23_rejects_bad_realization_index():
    with pytest.raises(ValueError):
        build_model23(PSI1, 1)


# --- audits and witnesses ----------------------------------------------------------


def test_audit_noncontextuality_passes_for_all_models():
    assert audit_noncontextuality(build_model1(PSI1), build_realization(1))
    assert audit_noncontextuality(build_model23(PSI1, 2), build_realization(2))
    assert audit_noncontextuality(build_model23(PSI1, 3), build_realization(3))


def test_audit_rejects_corrupted_layouts():
    realization = build_realization(1)
    model = build_model1(PSI1)
    assert not audit_noncontextuality(model, build_realization(2))
    missing = HVModel(1, ("Lzz", "Lxx"), model.outcomes[:, :2], model.probabilities)
    assert not audit_noncontextuality(missing, realization)
    bad_outcome = HVModel(1, model.measurement_ids, [[9, 1, 1]], [1.0])
    assert not audit_noncontextuality(bad_outcome, realization)
    negative = HVModel(1, model.measurement_ids, [[1, 1, 1]], [-0.5])
    assert not audit_noncontextuality(negative, realization)


def test_audit_rejects_an_outcome_map_missing_a_parent_outcome():
    realization = build_realization(1)
    derived = dict(realization.derived)
    shortened = {o: v for o, v in derived["f(B)"].outcome_map.items() if o != 4}
    derived["f(B)"] = derived["f(B)"]._replace(outcome_map=shortened)
    broken = dataclasses.replace(realization, derived=derived)
    assert audit_noncontextuality(build_model1(PSI1), realization)
    assert not audit_noncontextuality(build_model1(PSI1), broken)


def test_model_table_is_read_only_and_shape_checked():
    model = build_model1(PSI1)
    with pytest.raises(ValueError):
        model.outcomes[0, 0] = 2
    with pytest.raises(ValueError):
        model.probabilities[0] = 0.5
    with pytest.raises(TypeError):
        model.states[0].outcomes["B"] = 99
    assert model.states[0].outcomes["B"] == 1
    with pytest.raises(ValueError):
        HVModel(1, model.measurement_ids, model.outcomes, model.probabilities[:-1])


def test_outcome_tables_are_read_only_constants_of_the_realization():
    bell = list(itertools.product((1, 2, 3, 4), repeat=2))
    pairs = [translate_outcomes_inverse(dict(zip(SIDE_IDS, v))) for v in WING_VALUES]
    pair_wings = [[pair[pid] for pid in PAIR_WINGS] for pair in pairs]
    expected = {
        1: np.array(list(itertools.product((1, 2, 3, 4), repeat=3))),
        2: np.hstack([np.repeat(pair_wings, 16, axis=0), np.tile(bell, (16, 1))]),
        3: np.hstack([np.repeat(WING_VALUES, 16, axis=0), np.tile(bell, (16, 1))]),
    }
    for index, table in expected.items():
        assert _outcome_table(index) is _outcome_table(index)
        assert np.array_equal(_outcome_table(index), table)
        with pytest.raises(ValueError):
            _outcome_table(index)[0, 0] = 2
    models = [build_model1(PSI1), build_model23(PSI1, 2), build_model23(PSI1, 3)]
    for model in models:
        assert np.array_equal(model.outcomes, expected[model.realization_index])
    assert models[1].measurement_ids == (*PAIR_WINGS, "B", "Bprime")
    assert models[2].measurement_ids == (*SIDE_IDS, "B", "Bprime")


@pytest.mark.parametrize(
    "outcomes, weights",
    [
        (np.array([[257, 1, 1]]), [1.0]),  # int8 would wrap it to 1
        ([[1.7, 1, 1]], [1.0]),  # int8 would truncate it to 1
        ([[257, 1, 1]], [1.0]),  # numpy raises OverflowError for a Python int
        ([[1, 1, 1]], [float("nan")]),
    ],
)
def test_model_table_refuses_values_it_cannot_hold(outcomes, weights):
    with pytest.raises(ValueError):
        HVModel(1, ("Lzz", "Lxx", "B"), outcomes, weights)


def _models_for(state):
    models = [build_model1(state)]
    if not ch_report(state).violated:
        models += [build_model23(state, 2), build_model23(state, 3)]
    return models


def _slot_list(tally, zero=0.0):
    """A tally keyed by outcome as the 256 slots of ``_slot_totals``, absent keys ``zero``."""
    return [tally.get(outcome, zero) for outcome in range(-128, 128)]


def test_states_view_and_marginals_match_a_per_state_loop():
    # the loop the array code replaced is the reference; both add the
    # weights in state order, so the sums agree exactly
    for state in [PSI1, *random_states(5, seed=43)]:
        for model in _models_for(state):
            assert [list(s.outcomes.values()) for s in model.states] == model.outcomes.tolist()
            assert [s.probability for s in model.states] == model.probabilities.tolist()
            ids = model.measurement_ids
            totals = _slot_totals(model._slots, model.probabilities).tolist()
            for mid, row in zip(ids, totals):
                assert row == _slot_list(_loop_marginal(model, mid))
            # one combined pair key, as reproduce_statistics forms model 3's pair joints
            keys = (2 * model.column(ids[0]) + model.column(ids[-1]))[:, None]
            pair = _loop_tally(model, ids[0], ids[-1], key=lambda ab: 2 * ab[0] + ab[1])
            pair_totals = _slot_totals(_slot_index(keys), model.probabilities).tolist()
            assert pair_totals == [_slot_list(pair)]
            stats = reproduce_statistics(model, state)
            assert stats.probability_sum == sum(s.probability for s in model.states)


_OUTCOME = st.one_of(st.integers(-128, 127), st.sampled_from([-128, -1, 0, 1, 2, 127]))
_WEIGHT = st.one_of(
    st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308])
)


@given(
    st.integers(1, 4).flatmap(
        lambda width: st.lists(
            st.tuples(st.lists(_OUTCOME, min_size=width, max_size=width), _WEIGHT),
            min_size=1,
            max_size=12,
        )
    )
)
@example([([-128, 127], 0.0), ([127, -128], 5e-324), ([-128, 127], 1e-310), ([0, 0], 0.5)])
@settings(max_examples=200)
def test_property_code_tally_matches_the_per_state_loop(rows):
    # every one of the 256 slots, absent keys read as 0; repr tells apart
    # every bit of a float and an int from a numpy integer.  The int64 counts
    # reach 2**58, past the integers a float64 sum holds exactly.
    ids = tuple(f"m{j}" for j in range(len(rows[0][0])))
    model = HVModel(1, ids, [outcomes for outcomes, _ in rows], [w for _, w in rows])
    counts = np.array([int(w * 2**58) for _, w in rows], dtype=np.int64)
    wrapped = lambda ab: (2 * ab[0] + ab[1] + 128) % 256 - 128  # noqa: E731
    for weights, zero in ((model.probabilities, 0.0), (counts, 0)):
        loop_weights = weights.tolist()
        totals = _slot_totals(model._slots, weights).tolist()
        for mid, row in zip(ids, totals):
            assert repr(row) == repr(_slot_list(_loop_marginal(model, mid, loop_weights), zero))
        # combined pair keys, whose int8 arithmetic wraps outside -128..127
        for id_a, id_b in itertools.product(ids, repeat=2):
            keys = (2 * model.column(id_a) + model.column(id_b))[:, None]
            loop = _loop_tally(model, id_a, id_b, weights=loop_weights, key=wrapped)
            [row] = _slot_totals(_slot_index(keys), weights).tolist()
            assert repr(row) == repr(_slot_list(loop, zero))


@pytest.mark.parametrize(
    "index, column, outcome",
    [(1, 0, -2), (1, 0, 5), (1, 2, -128), (1, 1, 127), (3, 0, 0), (3, 4, -1), (2, 5, 127)],
)
def test_witness_scan_rejects_outcomes_a_measurement_does_not_have(index, column, outcome):
    model = build_model1(PSI1) if index == 1 else build_model23(PSI1, index)
    outcomes = model.outcomes.copy()
    row = int(np.flatnonzero(model.probabilities > 1e-12)[-1])
    outcomes[row, column] = outcome
    broken = HVModel(index, model.measurement_ids, outcomes, model.probabilities)
    mid = model.measurement_ids[column]
    message = rf"^hidden state {row}: {outcome} is not an outcome of {mid}$"
    with pytest.raises(ValueError, match=message):
        violation_witnesses(broken, build_realization(index))
    assert not audit_noncontextuality(broken, build_realization(index))


def test_witness_scan_matches_a_per_state_loop():
    for state in [PSI1, *random_states(3, seed=47)]:
        for model in _models_for(state):
            realization = build_realization(model.realization_index)
            report = violation_witnesses(model, realization)
            positive = [(i, s) for i, s in enumerate(model.states) if s.probability > 1e-12]

            def respond(cls, outcomes):
                derived = realization.derived[cls[0]]
                return derived.outcome_map[outcomes[derived.parent]]

            expected_context = []
            for context in CONTEXTS:
                options = [cell_classes(realization, cell) for cell in context_cells(context)]
                for choice in itertools.product(*options):
                    for i, s in positive:
                        triple = tuple(respond(cls, s.outcomes) for cls in choice)
                        if triple not in table_triples(context):
                            names = tuple(cls[0] for cls in choice)
                            expected_context.append((context, names, i, triple, s.probability))
            found = witness_rows(model, report.context_blocks + report.simultaneous_blocks)
            assert sorted(
                (w.group, w.measurement_ids, w.state_index, w.values, w.probability)
                for w in found
            ) == sorted(expected_context)
            assert all(w.outcomes == model.states[w.state_index].outcomes for w in found)

            expected_cell = []
            for cell in sorted(realization.cell_map):
                for a, b in itertools.combinations(cell_classes(realization, cell), 2):
                    for i, s in positive:
                        values = (respond(a, s.outcomes), respond(b, s.outcomes))
                        if values[0] != values[1]:
                            expected_cell.append((cell, (a[0], b[0]), i, values, s.probability))
            assert [
                (w.group, w.measurement_ids, w.state_index, w.values, w.probability)
                for w in witness_rows(model, report.cell_blocks)
            ] == expected_cell


def _first_per_group(witnesses, cap):
    kept = {}
    out = []
    for witness in witnesses:
        kept[witness.group] = kept.get(witness.group, 0) + 1
        if kept[witness.group] <= cap:
            out.append(witness)
    return out


def _witness_doc(witness):
    if isinstance(witness.group, Context):
        doc = {"context": witness.group.name, "triple": list(witness.values)}
    else:
        doc = {"cell": list(witness.group), "values": list(witness.values)}
    doc.update(
        measurements=list(witness.measurement_ids),
        state_index=witness.state_index,
        outcomes=witness.outcomes,
        probability=witness.probability,
    )
    return doc


def test_witness_counts_and_capped_lists_read_the_full_tuples():
    for state in (PSI1, HAAR):
        for model in _models_for(state):
            report = violation_witnesses(model, build_realization(model.realization_index))
            context_rows = witness_rows(model, report.context_blocks)
            cell_rows = witness_rows(model, report.cell_blocks)
            assert report.context_count == len(context_rows) > 0
            assert report.cell_count == len(cell_rows)
            simultaneous_rows = witness_rows(model, report.simultaneous_blocks)
            assert report.simultaneous_violation_count == len(simultaneous_rows)
            for cap in (0, 1, 12, 10_000):
                for blocks, rows in (
                    (report.context_blocks, context_rows),
                    (report.cell_blocks, cell_rows),
                ):
                    expected = [_witness_doc(w) for w in _first_per_group(rows, cap)]
                    assert cli._witness_docs(model, blocks, cap) == expected
            all_docs = [_witness_doc(w) for w in context_rows]
            assert cli._witness_docs(model, report.context_blocks, 10_000) == all_docs


def test_witness_report_is_read_only():
    model = build_model23(HAAR, 2)
    report = violation_witnesses(model, build_realization(2))
    assert report.context_blocks and report.cell_blocks
    names = [
        "context_blocks", "cell_blocks", "simultaneous_blocks", "simultaneous_choices_checked",
        "context_count", "cell_count", "simultaneous_violation_count", "new_attribute",
    ]
    for name in names:
        with pytest.raises(AttributeError):
            setattr(report, name, ())
    block = report.cell_blocks[0]
    with pytest.raises(AttributeError):
        block.states = block.states[:1]
    for array in (block.states, block.values):
        with pytest.raises(ValueError):
            array[0] = 0
    # negating f(B) makes every row-2 triple inadmissible, a simultaneous violation
    cached = build_realization(1)
    derived = dict(cached.derived)
    flipped = {o: -v for o, v in derived["f(B)"].outcome_map.items()}
    derived["f(B)"] = derived["f(B)"]._replace(outcome_map=flipped)
    broken = dataclasses.replace(cached, derived=derived)
    violations = violation_witnesses(build_model1(PSI1), broken).simultaneous_blocks
    assert violations
    for block in violations:
        for array in (block.states, block.values):
            with pytest.raises(ValueError):
                array[0] = 0


def test_model2_is_model3_with_translated_wings():
    state = random_states(1, seed=12345)[0]
    model2, model3 = build_model23(state, 2), build_model23(state, 3)
    wing_ids = ("Ll_z", "Lr_z", "Ll_x", "Lr_x")
    pair_ids = ("Lzz", "Lxx", "Lzx", "Lxz")
    assert model3.measurement_ids == wing_ids + ("B", "Bprime")
    assert model2.measurement_ids == pair_ids + ("B", "Bprime")
    assert model2.probabilities.tobytes() == model3.probabilities.tobytes()
    assert model2.fine.joint == model3.fine.joint
    for row2, row3 in zip(model2.outcomes.tolist(), model3.outcomes.tolist()):
        pairs = translate_outcomes_inverse(dict(zip(wing_ids, row3[:4])))
        assert row2[:4] == [pairs[pid] for pid in pair_ids]
        assert row2[4:] == row3[4:]


def test_witnesses_model1_psi1():
    model = build_model1(PSI1)
    report = violation_witnesses(model, build_realization(1))
    assert report.simultaneous_violation_count == 0
    # rows are realized inside single physical measurements: never witnessed
    assert all(block.group.kind == "column" for block in report.context_blocks)
    lam111 = [
        w
        for w in witness_rows(model, report.context_blocks)
        if w.group.name == "col2" and w.outcomes == {"Lzz": 1, "Lxx": 1, "B": 1}
    ]
    assert len(lam111) == 1
    assert lam111[0].values == (1, 1, 1)
    assert lam111[0].probability == pytest.approx(1 / 16, abs=1e-12)
    assert report.cell_blocks == ()


def test_witnesses_model23_cell_disagreements():
    # lambda^{+1+1klm4}: t(Lzz) = +1 while f'(B') = -1 with nonzero probability
    state = random_states(1, seed=12345)[0]
    assert not ch_report(state).violated
    model = build_model23(state, 2)
    report = violation_witnesses(model, build_realization(2))
    assert report.simultaneous_violation_count == 0
    hits = [
        w
        for w in witness_rows(model, report.cell_blocks)
        if w.group == (0, 2)
        and w.measurement_ids == ("t(Lzz)", "fp(Bprime)")
        and w.outcomes["Lzz"] == 1
        and w.outcomes["Bprime"] == 4
        and w.values == (1, -1)
        and w.probability > 1e-6
    ]
    assert hits


def test_witnesses_simultaneous_contexts_are_clean_across_states():
    for state in [PSI1, SINGLET, *random_states(10, seed=23)]:
        model1 = build_model1(state)
        report1 = violation_witnesses(model1, build_realization(1))
        assert report1.simultaneous_violation_count == 0
        if ch_report(state).violated:
            continue
        for index in (2, 3):
            model = build_model23(state, index)
            report = violation_witnesses(model, build_realization(index))
            assert report.simultaneous_violation_count == 0
            assert report.simultaneous_choices_checked > 0


def test_witnesses_reject_disagreeing_identified_readouts():
    # Lzz = 1 reads the left-z wing as +1, Lzx = 3 reads it as -1
    model = HVModel(2, ("Lzz", "Lxx", "Lzx", "Lxz", "B", "Bprime"), [[1, 1, 3, 1, 1, 1]], [1.0])
    realization = build_realization(2)
    assert realization.derived["l(Lzz)"].outcome_map[1] == 1
    assert realization.derived["l(Lzx)"].outcome_map[3] == -1
    with pytest.raises(InternalConsistencyError, match="disagree"):
        violation_witnesses(model, realization)


def test_witnesses_require_matching_indices():
    with pytest.raises(ValueError):
        violation_witnesses(build_model1(PSI1), build_realization(2))


# --- sampling -----------------------------------------------------------------------


def test_sampling_is_deterministic_and_close_to_born():
    model = build_model1(PSI1)
    first = sample_model(model, PSI1, 200_000, seed=42)
    second = sample_model(model, PSI1, 200_000, seed=42)
    assert first == second
    assert first.passed
    for ms in first.measurements.values():
        assert ms.tv_distance < first.tv_bound
        assert sum(ms.counts.values()) == 200_000


def test_sampling_fails_a_model_a_few_bounds_off():
    # psi1 pins Lzz to outcome 1; weight 0.3 spread uniformly moves its
    # marginal to 0.775, a TV distance of 0.225: 4.5 bounds at 1e4 shots
    model = build_model1(PSI1)
    uniform = np.full(len(model.probabilities), 1.0 / len(model.probabilities))
    weights = 0.7 * model.probabilities + 0.3 * uniform
    mixed = HVModel(1, model.measurement_ids, model.outcomes, weights)
    report = sample_model(mixed, PSI1, 10_000, seed=5)
    worst = max(ms.tv_distance for ms in report.measurements.values())
    assert report.tv_bound < worst < 10 * report.tv_bound
    assert not report.passed


def test_sampling_fails_a_model_one_and_a_half_bounds_off():
    # weight 0.1 spread uniformly moves 0.075 of Lzz's mass off outcome 1:
    # 1.5 bounds at 1e4 shots, inside twice the bound
    model = build_model1(PSI1)
    uniform = np.full(len(model.probabilities), 1.0 / len(model.probabilities))
    weights = 0.9 * model.probabilities + 0.1 * uniform
    mixed = HVModel(1, model.measurement_ids, model.outcomes, weights)
    report = sample_model(mixed, PSI1, 10_000, seed=5)
    worst = max(ms.tv_distance for ms in report.measurements.values())
    assert report.tv_bound < worst < 2 * report.tv_bound
    assert not report.passed


@pytest.mark.parametrize("weights", [np.zeros(64), np.full(64, -1.0 / 64)])
def test_sampling_refuses_a_model_with_no_positive_weight(weights):
    model = build_model1(PSI1)
    empty = HVModel(1, model.measurement_ids, model.outcomes, weights)
    for _ in range(2):  # nothing is cached, so the second call raises too
        with pytest.raises(ValueError, match="no positive weight"):
            sample_model(empty, PSI1, 100, seed=0)


def test_sampling_refuses_an_outcome_its_measurement_does_not_have():
    # psi1's model 1 with Lxx outcome 1 read as 5 used to return Lxx counts
    # summing to 7521 of 10000 shots: the shots of those states had no slot
    model = build_model1(PSI1)
    outcomes = model.outcomes.copy()
    outcomes[outcomes[:, 1] == 1, 1] = 5
    broken = HVModel(1, model.measurement_ids, outcomes, model.probabilities)
    message = r"^hidden state 0: 5 is not an outcome of Lxx$"
    with pytest.raises(ValueError, match=message):
        violation_witnesses(broken, build_realization(1))
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            sample_model(broken, PSI1, 10_000, 1)


def test_sampling_checks_the_outcomes_of_the_states_a_draw_may_land_on():
    # a zero-weight state inside the CDF is never drawn; the last state is
    # drawn by any variate at or past the CDF's end, here 1 - 2**-53
    model = build_model1(PSI1)
    row = int(np.flatnonzero(model.probabilities == 0.0)[0])
    outcomes = model.outcomes.copy()
    outcomes[row, 2] = 5
    unused = HVModel(1, model.measurement_ids, outcomes, model.probabilities)
    assert sample_model(unused, PSI1, 10_000, 1) == sample_model(model, PSI1, 10_000, 1)
    pinned = build_model1(NAMED_STATES["psiPP1"])
    weights = pinned.probabilities.copy()
    weights[-1] = 0.0
    outcomes = pinned.outcomes.copy()
    outcomes[-1, 2] = 5
    last = HVModel(1, pinned.measurement_ids, outcomes, weights)
    assert np.cumsum(weights / weights.sum())[-1] < 1.0
    with pytest.raises(ValueError, match=r"^hidden state 63: 5 is not an outcome of B$"):
        sample_model(last, NAMED_STATES["psiPP1"], 10, 1)


def test_a_model_builds_its_sampling_tables_once(monkeypatch):
    calls = []

    def count(name):
        original = getattr(hvmodels, name)
        monkeypatch.setattr(hvmodels, name, lambda array: calls.append(name) or original(array))

    count("_guide_bounds")
    count("_slot_index")
    model = build_model1(PSI1)
    first = sample_model(model, PSI1, 1_000, seed=3)
    assert sorted(calls) == ["_guide_bounds", "_slot_index"]
    stacks = _projector_stack.cache_info().misses
    assert sample_model(model, PSI1, 1_000, seed=3) == first
    assert sorted(calls) == ["_guide_bounds", "_slot_index"]
    assert _projector_stack.cache_info().misses == stacks
    # a copy is a new model with its own tables
    assert sample_model(dataclasses.replace(model), PSI1, 1_000, seed=3) == first
    assert sorted(calls) == 2 * ["_guide_bounds"] + 2 * ["_slot_index"]


def test_sampling_tables_and_the_born_stack_are_read_only():
    state = random_states(1, seed=79)[0]
    for model in _models_for(state):
        sample_model(model, state, 100, seed=1)
        ids = model.measurement_ids
        stack = _projector_stack(model.realization_index, ids)
        physicals = build_realization(model.realization_index).physicals
        expected = np.concatenate([physicals[mid].projectors for mid in ids])
        assert (stack.dtype, stack.shape) == (expected.dtype, expected.shape)
        assert stack.tobytes() == expected.tobytes()
        assert _projector_stack(model.realization_index, ids) is stack
        for array in (*model._guide, model._slots, stack):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0


def test_sampling_point_mass():
    model = build_model1(NAMED_STATES["psiPP1"])
    report = sample_model(model, NAMED_STATES["psiPP1"], 1_000, seed=7)
    assert report.measurements["B"].frequencies[1] == 1.0


def test_sampling_left_wing_pinned_on_psi1():
    model = build_model23(PSI1, 3)
    report = sample_model(model, PSI1, 100_000, seed=1)
    assert report.measurements["Ll_z"].frequencies[1] == 1.0


def _reference_tally(cumulative, draws):
    n = len(cumulative)
    return np.bincount(
        np.minimum(np.searchsorted(cumulative, draws, side="right"), n - 1), minlength=n
    )


def _variates(words):
    return (words >> 11) * 2.0**-53


_BUCKET_EDGES = st.integers(0, _GUIDE_BUCKETS).map(lambda k: k / _GUIDE_BUCKETS)
#: Values on and one ulp either side of the guide-table bucket edges k/G.
_NEAR_EDGES = st.one_of(
    _BUCKET_EDGES,
    st.tuples(_BUCKET_EDGES, st.sampled_from((-1.0, 2.0))).map(lambda p: float(np.nextafter(*p))),
)
_LOW_BITS = st.integers(0, 2**11 - 1)
_TOP_BITS = 2**53 - 1


def _words_near(tops):
    """Words whose top 53 bits are on or one step either side of ``tops``, any low 11 bits."""
    top = st.tuples(tops, st.sampled_from((-1, 0, 1))).map(
        lambda p: min(max(p[0] + p[1], 0), _TOP_BITS)
    )
    return st.builds(lambda t, low: t << 11 | low, top, _LOW_BITS)


#: Words on and one step either side of the bucket edges k * 2**52.
_NEAR_EDGE_WORDS = _words_near(st.integers(0, _GUIDE_BUCKETS).map(lambda k: k << 41))


@st.composite
def _cdf_and_words(draw):
    edges = draw(st.lists(st.one_of(st.floats(0.0, 1.0), _NEAR_EDGES), min_size=1, max_size=40))
    # repeated edges are runs of zero-weight states
    runs = draw(st.lists(st.integers(1, 4), min_size=len(edges), max_size=len(edges)))
    top = draw(st.sampled_from((1.0, float(np.nextafter(1.0, 0.0)), 1.0 - 1e-12, 0.75)))
    cumulative = np.append(np.sort(np.clip(np.repeat(edges, runs), 0.0, top)), top)
    # words whose variate is on or one step either side of a CDF edge
    on_cdf = _words_near(st.sampled_from([int(c * 2**53) for c in cumulative]))
    words = draw(
        st.lists(
            st.one_of(st.integers(0, 2**64 - 1), _NEAR_EDGE_WORDS, on_cdf),
            min_size=0,
            max_size=200,
        )
    )
    return cumulative, np.array(words, dtype=np.uint64)


@given(_cdf_and_words(), st.integers(1, 50))
@example(
    # cumulative[-1] below 1 inside a bucket that straddles another edge:
    # draws above it belong to the last state
    case=(
        np.array([0.5, 1.0 - 2.0**-20, 1.0 - 2.0**-30]),
        np.array(
            [2**52 << 11, (2**52 - 1) << 11 | 2047, (2**53 - 2**28) << 11 | 1,
             (2**53 - 2**22) << 11 | 1024, _TOP_BITS << 11 | 2047],
            dtype=np.uint64,
        ),
    ),
    chunk=2,
)
@settings(max_examples=200, deadline=None)
def test_property_guide_tally_matches_searchsorted(case, chunk):
    cumulative, words = case
    chunks = [words[i : i + chunk] for i in range(0, len(words), chunk)]
    assert np.array_equal(
        _tally(_guide_table(cumulative), chunks), _reference_tally(cumulative, _variates(words))
    )


_ONE_ULP = st.sampled_from(
    (float(np.nextafter(1.0, 0.0)), 1.0, float(np.nextafter(1.0, 2.0)))
)


@st.composite
def _guide_cdfs(draw):
    """Sorted CDFs with entries on and one ulp either side of k/G, zero-weight runs
    and a last entry at 1 - ulp, 1 or 1 + ulp; n = 1 included."""
    top = draw(_ONE_ULP)
    edges = draw(st.lists(st.one_of(st.floats(0.0, 1.0), _NEAR_EDGES), max_size=40))
    runs = draw(st.lists(st.integers(1, 4), min_size=len(edges), max_size=len(edges)))
    return np.append(np.sort(np.clip(np.repeat(edges, runs), 0.0, top)), top)


@given(_guide_cdfs())
@example(np.array([1.0]))
@example(np.array([0.0, 0.0, 0.5, 0.5, float(np.nextafter(0.5, 1.0)), 1.0]))
@example(np.array([float(np.nextafter(2.0**-12, 0.0)), 2.0**-12, float(np.nextafter(1.0, 2.0))]))
@example(np.array([0.5, float(np.nextafter(1.0, 2.0)), float(np.nextafter(1.0, 2.0))]))
@example(np.full(3, np.nan))  # the CDF of a model without positive weight
@settings(max_examples=300, deadline=None)
def test_property_guide_bounds_match_searchsorted(cumulative):
    n = len(cumulative)
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    expected = np.minimum(np.searchsorted(cumulative, edges, side="right"), n - 1)
    assert np.array_equal(_guide_bounds(cumulative), expected)


@pytest.mark.parametrize("key", [0, 5, 2**64 - 1])
def test_philox_words_are_the_generator_variates(key):
    bit_generator = np.random.Philox(key=np.uint64(key))
    words = np.concatenate([bit_generator.random_raw(n) for n in (1, 3, 97, 1_001)])
    variates = np.random.Generator(np.random.Philox(key=np.uint64(key))).random(len(words))
    assert np.array_equal(_variates(words), variates)
    assert np.array_equal(words >> 52, np.floor(variates * _GUIDE_BUCKETS).astype(np.uint64))


def test_guide_tally_matches_searchsorted_on_model_weights():
    for state in random_states(6, seed=31):
        for model in _models_for(state):
            probabilities = np.maximum(model.probabilities, 0.0)
            cumulative = np.cumsum(probabilities / probabilities.sum())
            words = np.random.Philox(key=np.uint64(5)).random_raw(20_000)
            draws = np.random.Generator(np.random.Philox(key=np.uint64(5))).random(20_000)
            assert np.array_equal(
                _tally(_guide_table(cumulative), [words]), _reference_tally(cumulative, draws)
            )


@pytest.mark.parametrize("chunk", [1, 97, 10_000])
def test_sampling_counts_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    # shot s uses variate s of the Philox stream whatever the chunking, so
    # the counts equal a one-shot searchsorted over all the draws
    monkeypatch.setattr(hvmodels, "_SAMPLE_CHUNK", chunk)
    shots, seed = 1_000, 11
    state = random_states(1, seed=77)[0]
    for model in _models_for(state):
        report = sample_model(model, state, shots, seed)
        probabilities = np.maximum(model.probabilities, 0.0)
        cumulative = np.cumsum(probabilities / probabilities.sum())
        draws = np.random.Generator(np.random.Philox(key=np.uint64(seed))).random(shots)
        state_counts = _reference_tally(cumulative, draws)
        for mid, sample in report.measurements.items():
            column = model.column(mid)
            assert sample.counts == {
                outcome: int(state_counts[column == outcome].sum()) for outcome in sample.counts
            }


def test_sampling_shards_at_a_multiple_of_four_add_up_to_one_run():
    # Philox.advance(1) skips 4 variates, so a shard at offset k (a multiple
    # of 4) starts from advance(k // 4); offsets 1..3 past it are unreachable.
    # The offset falls inside the second chunk, so each shard spans two chunks.
    shots, seed, offset = 2 * _SAMPLE_CHUNK + 100, 23, _SAMPLE_CHUNK + 4 * 12
    assert offset % 4 == 0 and offset % _SAMPLE_CHUNK != 0
    assert min(offset, shots - offset) > _SAMPLE_CHUNK

    def stream(step):
        return np.random.Philox(key=np.uint64(seed)).advance(step)

    assert np.array_equal(stream(1).random_raw(8), stream(0).random_raw(12)[4:])
    state = random_states(1, seed=79)[0]
    models = _models_for(state)
    assert [model.realization_index for model in models] == [1, 2, 3]
    for model in models:
        probabilities = np.maximum(model.probabilities, 0.0)
        cumulative = np.cumsum(probabilities / probabilities.sum())
        guide = _guide_table(cumulative)
        first = _tally(guide, [stream(0).random_raw(offset)])
        second = _tally(guide, [stream(offset // 4).random_raw(shots - offset)])
        report = sample_model(model, state, shots, seed)
        for mid, sample in report.measurements.items():
            column = model.column(mid)
            assert sample.counts == {
                outcome: int(first[column == outcome].sum() + second[column == outcome].sum())
                for outcome in sample.counts
            }


def _sampling_peak_bytes(model, state, shots):
    tracemalloc.start()
    try:
        sample_model(model, state, shots, seed=3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampling_memory_does_not_grow_with_the_shots():
    # the words are drawn and tallied one chunk at a time, so two million
    # shots need no more memory than a call whose largest chunk is as long
    state = random_states(1, seed=79)[0]
    two_chunks = 2 * _SAMPLE_CHUNK + 1
    for model in _models_for(state):
        _sampling_peak_bytes(model, state, two_chunks)  # warm up the cached realization and numpy
        small = _sampling_peak_bytes(model, state, two_chunks)
        assert _sampling_peak_bytes(model, state, 2_000_000) <= small + 64 * 1024


def test_sampling_holds_one_chunk_of_words_at_a_time():
    # the working set is one chunk's words, bucket indices and straddle
    # mask: once the model's tables are built a call peaks at about 0.34 MB,
    # while keeping one more chunk's words and buckets alive takes it past
    # 0.43 MB
    state = random_states(1, seed=79)[0]
    models = _models_for(state)
    assert len(models) == 3
    for model in models:
        _sampling_peak_bytes(model, state, 2 * _SAMPLE_CHUNK + 1)  # warm up
        assert _sampling_peak_bytes(model, state, 2_000_000) <= 384 * 1024


def test_sampling_reports_do_not_depend_on_the_chunk_size(monkeypatch):
    # 200,003 shots span several chunks of either size, and the last is partial
    state = random_states(1, seed=80)[0]
    models = _models_for(state)
    assert len(models) == 3
    for model in models:
        reports = []
        for chunk in (1 << 14, 1 << 16):
            monkeypatch.setattr(hvmodels, "_SAMPLE_CHUNK", chunk)
            reports.append(sample_model(model, state, 200_003, seed=29))
        assert reports[0] == reports[1]


def test_sampling_rejects_bad_shots():
    model = build_model1(PSI1)
    with pytest.raises(ValueError):
        sample_model(model, PSI1, 0, seed=1)


@pytest.mark.parametrize(
    "shots, seed",
    [(10, 1.5), (10, True), (10, "3"), (10, -1), (10, 2**64), (True, 1), (2.0, 1), ("10", 1)],
    ids=["seed-float", "seed-bool", "seed-str", "seed-negative", "seed-2**64",
         "shots-bool", "shots-float", "shots-str"],
)
def test_sampling_refuses_a_seed_or_shot_count_that_is_not_an_int_in_range(shots, seed):
    # a float, bool or string seed used to sample as another seed (1.5 and
    # True as 1, "3" as 3) and echo itself; -1 and 2**64 overflowed
    with pytest.raises(ValueError, match="shots must|seed must"):
        sample_model(build_model1(PSI1), PSI1, shots, seed)
