import dataclasses
import itertools

import numpy as np
import pytest

from pmsquare import realizations
from pmsquare.errors import InternalConsistencyError
from pmsquare.qm import expectations, product_ket, projector
from pmsquare.realizations import (
    MEASUREMENT_CONTEXTS,
    PAIR_WINGS,
    SIDE_IDS,
    SIDE_SPEC,
    WING_VALUES,
    _verify_resolution,
    _wing_values,
    build_realization,
    cell_classes,
    check_requirements,
    classes_compatible,
    translate_outcomes,
    translate_outcomes_inverse,
)
from pmsquare.square import CONTEXTS, cell_operator, context_cells

from conftest import random_states, table_triples


#: The 16 consistent pair-outcome tuples, one per one-wing value tuple, in order.
_PAIR_TUPLES = [translate_outcomes_inverse(dict(zip(SIDE_IDS, v))) for v in WING_VALUES]


def _cells_realized_by(realization, derived_id):
    return [cell for cell, ids in realization.cell_map.items() if derived_id in ids]


# --- construction ---------------------------------------------------------


def test_realization1_cell_map():
    r = build_realization(1)
    assert r.cell_map[(0, 2)] == ("t(Lzz)",)
    assert r.cell_map[(2, 0)] == ("f(B)",)
    assert set(r.physicals) == {"Lzz", "Lxx", "B"}
    assert r.identifications == ()


@pytest.mark.parametrize("field", ["physicals", "derived", "cell_map"])
def test_realization_mappings_are_read_only(field):
    mapping = getattr(build_realization(2), field)
    key = next(iter(mapping))
    with pytest.raises(TypeError):
        mapping[key] = None


def test_derived_outcome_maps_are_read_only():
    derived = build_realization(2).derived["l(Lzz)"]
    with pytest.raises(TypeError):
        derived.outcome_map[1] = -1
    assert derived.outcome_map[1] == 1


def test_physical_projectors_are_read_only():
    for index in (1, 2, 3):
        for measurement in build_realization(index).physicals.values():
            stack = measurement.projectors
            assert stack.shape == (len(measurement.outcomes), 4, 4)
            with pytest.raises(ValueError):
                stack[0] = 0.0
            for p in stack:
                with pytest.raises(ValueError):
                    p[0, 0] = 0.0


def test_realization2_cell_map_and_identifications():
    r = build_realization(2)
    assert r.cell_map[(0, 2)] == ("t(Lzz)", "fp(Bprime)")
    assert r.cell_map[(2, 0)] == ("f(B)", "t(Lzx)")
    assert set(r.physicals) == {"Lzz", "Lxx", "Lzx", "Lxz", "B", "Bprime"}
    # the readouts of one wing, grouped in order of first appearance
    assert r.identifications == (
        frozenset({"l(Lzz)", "l(Lzx)"}),
        frozenset({"r(Lzz)", "r(Lxz)"}),
        frozenset({"r(Lxx)", "r(Lzx)"}),
        frozenset({"l(Lxx)", "l(Lxz)"}),
    )
    assert build_realization(3).identifications == ()


def test_realization3_cell_map():
    r = build_realization(3)
    assert r.cell_map[(2, 2)] == ("h(B)", "hp(Bprime)")
    assert r.cell_map[(0, 0)] == ("Ll_z",)
    assert set(r.physicals) == {"Ll_z", "Lr_z", "Ll_x", "Lr_x", "B", "Bprime"}


@pytest.mark.parametrize("index", [1, 2, 3])
def test_realization_declaration_cross_references(index):
    r = build_realization(index)
    # the derived measurements are exactly the cell-map ids, under their own ids
    assert set(r.derived) == {did for ids in r.cell_map.values() for did in ids}
    assert all(d.id == did for did, d in r.derived.items())
    # every physical measurement is the parent of some derived one
    assert set(r.physicals) == {d.parent for d in r.derived.values()}
    assert all(m.id == mid for mid, m in r.physicals.items())
    # the identifications are disjoint groups, each of derived ids of a single cell
    assert sum(map(len, r.identifications)) == len(frozenset().union(*r.identifications))
    for group in r.identifications:
        assert group <= set(r.derived)
        assert len({cell for did in group for cell in _cells_realized_by(r, did)}) == 1


def test_pair_wings_are_the_cells_of_the_pair_readouts():
    r2, r3 = build_realization(2), build_realization(3)
    assert tuple(PAIR_WINGS) == ("Lzz", "Lxx", "Lzx", "Lxz")
    assert SIDE_IDS == ("Ll_z", "Lr_z", "Ll_x", "Lr_x")
    for pid, wings in PAIR_WINGS.items():
        for function, wing in zip(("l", "r"), wings):
            cells = _cells_realized_by(r2, f"{function}({pid})")
            assert len(cells) == 1 and cells == _cells_realized_by(r3, wing)
    for table in (PAIR_WINGS, MEASUREMENT_CONTEXTS, SIDE_SPEC):
        with pytest.raises(TypeError):
            table["Lzz"] = None
    assert SIDE_IDS == tuple(SIDE_SPEC)
    assert WING_VALUES == tuple(itertools.product((1, -1), repeat=4))


def test_build_realization_rejects_bad_index():
    with pytest.raises(ValueError):
        build_realization(4)


def test_physical_projectors_resolve_identity():
    for index in (1, 2, 3):
        for measurement in build_realization(index).physicals.values():
            total = sum(measurement.projectors)
            assert np.max(np.abs(total - np.eye(4))) <= 1e-12
            for p, q in itertools.combinations(measurement.projectors, 2):
                assert np.max(np.abs(p @ q)) <= 1e-12
            for p in measurement.projectors:
                assert np.max(np.abs(p @ p - p)) <= 1e-12


def test_verify_resolution_rejects_a_non_orthogonal_pair():
    # |10> and |1+> overlap; the orthogonality check must name it, not the sum
    kets = [product_ket(p) for p in ("00", "01", "10", "1+")]
    with pytest.raises(InternalConsistencyError, match="not orthogonal"):
        _verify_resolution("bad", np.array([projector(k) for k in kets]))


def test_verify_resolution_rejects_an_incomplete_set():
    kets = [product_ket(p) for p in ("00", "01", "10")]
    with pytest.raises(InternalConsistencyError, match="do not sum to identity"):
        _verify_resolution("bad", np.array([projector(k) for k in kets]))


@pytest.mark.parametrize(
    "count, message", [(4, "not orthogonal"), (1, "do not sum to identity")]
)
def test_verify_resolution_refuses_nan_projectors(count, message):
    # one projector has no pair to overlap, so only the sum check sees its NaN
    projectors = np.full((count, 4, 4), np.nan, complex)
    with pytest.raises(InternalConsistencyError, match=message):
        _verify_resolution("nan", projectors)


# --- derived outcomes --------------------------------------------------------


def test_derived_outcome_bell_first_outcome_is_positive():
    r = build_realization(1)
    f = r.derived["f(B)"]
    assert f.outcome_map[1] == 1
    g = r.derived["g(B)"]
    h = r.derived["h(B)"]
    assert g.outcome_map[1] == 1 and h.outcome_map[1] == 1


def test_derived_outcome_t_lzz_second_outcome():
    r = build_realization(1)
    assert r.derived["t(Lzz)"].outcome_map[2] == -1


def test_derived_outcome_hp_bprime_first_outcome():
    r = build_realization(3)
    assert r.derived["hp(Bprime)"].outcome_map[1] == -1


# --- requirement checks --------------------------------------------------------


def test_requirements_realization1():
    report = check_requirements(build_realization(1))
    assert report.unique_realization_ok
    assert report.multiply_realized_cells == ()
    assert not report.simultaneity_ok
    broken = {context.name for context, _ in report.broken_contexts}
    assert broken == {"col0", "col1", "col2"}


def test_requirements_realization2():
    report = check_requirements(build_realization(2))
    assert not report.unique_realization_ok
    cells = [cell for cell, _ in report.multiply_realized_cells]
    assert cells == [(0, 2), (1, 2), (2, 0), (2, 1), (2, 2)]
    pairs = {ids for _, ids in report.multiply_realized_cells}
    assert pairs == {
        ("t(Lzz)", "fp(Bprime)"),
        ("t(Lxx)", "gp(Bprime)"),
        ("f(B)", "t(Lzx)"),
        ("g(B)", "t(Lxz)"),
        ("h(B)", "hp(Bprime)"),
    }
    assert report.simultaneity_ok
    assert report.broken_contexts == ()


def test_requirements_realization3():
    report = check_requirements(build_realization(3))
    assert not report.unique_realization_ok
    assert [cell for cell, _ in report.multiply_realized_cells] == [(2, 2)]
    assert not report.simultaneity_ok
    pairs = {pair for _, pair in report.broken_contexts}
    assert ("Lr_z", "fp(Bprime)") in pairs
    broken = {context.name for context, _ in report.broken_contexts}
    assert broken == {"row0", "row1", "col0", "col1"}


def test_realization1_simultaneity_is_three_parent_cliques():
    r = build_realization(1)
    by_parent: dict[str, set[str]] = {}
    for d in r.derived.values():
        by_parent.setdefault(d.parent, set()).add(d.id)
    assert sorted(len(group) for group in by_parent.values()) == [3, 3, 3]
    for cell, ids in r.cell_map.items():
        assert cell_classes(r, cell) == (ids,) and len(ids) == 1


def test_cell_classes_merge_identified_measurements():
    r = build_realization(2)
    assert cell_classes(r, (0, 0)) == (("l(Lzz)", "l(Lzx)"),)
    assert cell_classes(r, (0, 2)) == (("t(Lzz)",), ("fp(Bprime)",))


def test_cell_of_derived_is_unique():
    for index in (1, 2, 3):
        r = build_realization(index)
        for cell, ids in r.cell_map.items():
            for did in ids:
                assert _cells_realized_by(r, did) == [cell]


# --- statistical faithfulness ------------------------------------------------


def test_derived_measurements_are_statistically_faithful():
    # every derived measurement must reproduce the Born distribution of the
    # grid operator it realizes, eigenprojectors (I +/- O)/2 as the oracle
    states = random_states(100, seed=20260810)
    for index in (1, 2, 3):
        r = build_realization(index)
        for cell, ids in r.cell_map.items():
            op = cell_operator(cell)
            plus = (np.eye(4) + op) / 2.0
            for did in ids:
                derived = r.derived[did]
                parent = r.physicals[derived.parent]
                for state in states:
                    dist = {1: 0.0, -1: 0.0}
                    born = expectations(state, parent.projectors)
                    for outcome, probability in zip(parent.outcomes, born):
                        dist[derived.outcome_map[outcome]] += probability
                    assert dist[1] == pytest.approx(expectations(state, [plus])[0], abs=1e-12)
                    assert dist[1] + dist[-1] == pytest.approx(1.0, abs=1e-12)


def test_identified_pairs_agree_on_every_consistent_tuple():
    r = build_realization(2)
    for pair_outcomes in _PAIR_TUPLES:
        for group in r.identifications:
            values = {
                r.derived[did].outcome_map[pair_outcomes[r.derived[did].parent]]
                for did in group
            }
            assert len(values) == 1


# --- outcome translation --------------------------------------------------------


def test_translate_worked_example():
    sides = translate_outcomes({"Lzz": 1, "Lxx": 4, "Lzx": 2, "Lxz": 2})
    assert sides == {"Ll_z": 1, "Lr_z": 1, "Ll_x": -1, "Lr_x": -1}


def test_translate_all_first_outcomes():
    assert translate_outcomes({"Lzz": 1, "Lxx": 1, "Lzx": 1, "Lxz": 1}) == {
        "Ll_z": 1,
        "Lr_z": 1,
        "Ll_x": 1,
        "Lr_x": 1,
    }


def test_translate_all_fourth_outcomes():
    assert translate_outcomes({"Lzz": 4, "Lxx": 4, "Lzx": 4, "Lxz": 4}) == {
        "Ll_z": -1,
        "Lr_z": -1,
        "Ll_x": -1,
        "Lr_x": -1,
    }


def test_translate_round_trips_on_all_consistent_tuples():
    assert len(_PAIR_TUPLES) == 16
    for pair_outcomes in _PAIR_TUPLES:
        sides = translate_outcomes(pair_outcomes)
        assert translate_outcomes_inverse(sides) == pair_outcomes
    for values in itertools.product((1, -1), repeat=4):
        sides = dict(zip(("Ll_z", "Lr_z", "Ll_x", "Lr_x"), values))
        assert translate_outcomes(translate_outcomes_inverse(sides)) == sides


def test_translate_rejects_inconsistent_tuple_naming_the_pair():
    # Lzz=1 puts the left-z wing at +1, Lzx=3 puts it at -1
    with pytest.raises(ValueError, match="Lzx"):
        translate_outcomes({"Lzz": 1, "Lxx": 1, "Lzx": 3, "Lxz": 1})


def test_translate_validates_inputs():
    with pytest.raises(ValueError):
        translate_outcomes({"Lzz": 1, "Lxx": 1, "Lzx": 1})
    with pytest.raises(ValueError):
        translate_outcomes({"Lzz": 0, "Lxx": 1, "Lzx": 1, "Lxz": 1})
    with pytest.raises(ValueError):
        translate_outcomes_inverse({"Ll_z": 2, "Lr_z": 1, "Ll_x": 1, "Lr_x": 1})


@pytest.mark.parametrize("outcome", [1.0, True, np.float64(1.0), np.bool_(True)])
@pytest.mark.parametrize("warm", [False, True])
def test_translate_accepts_integer_outcomes_only(outcome, warm):
    # 1.0 and True hash like 1, so a warm cache must not let them through
    _wing_values.cache_clear()
    if warm:
        translate_outcomes({"Lzz": 1, "Lxx": 1, "Lzx": 1, "Lxz": 1})
        translate_outcomes_inverse({"Ll_z": 1, "Lr_z": 1, "Ll_x": 1, "Lr_x": 1})
    with pytest.raises(ValueError, match="Lzz: outcome must be an integer"):
        translate_outcomes({"Lzz": outcome, "Lxx": 1, "Lzx": 1, "Lxz": 1})
    with pytest.raises(ValueError, match="Ll_z: outcome must be the integer"):
        translate_outcomes_inverse({"Ll_z": outcome, "Lr_z": 1, "Ll_x": 1, "Lr_x": 1})
    sides = translate_outcomes({"Lzz": np.int64(1), "Lxx": np.int8(1), "Lzx": 1, "Lxz": 1})
    assert sides == {"Ll_z": 1, "Lr_z": 1, "Ll_x": 1, "Lr_x": 1}
    assert translate_outcomes_inverse({**sides, "Ll_z": np.int16(1)}) == {
        "Lzz": 1,
        "Lxx": 1,
        "Lzx": 1,
        "Lxz": 1,
    }


def test_inverse_translation_refuses_wing_values_of_several_outcomes(monkeypatch):
    # every outcome of every pair claims the wings (1, 1), so none is unique
    monkeypatch.setattr(realizations, "_wing_values", lambda pair_id, outcome: (1, 1))
    with pytest.raises(InternalConsistencyError, match="unique outcome"):
        translate_outcomes_inverse({"Ll_z": 1, "Lr_z": 1, "Ll_x": 1, "Lr_x": 1})


def test_exactly_sixteen_consistent_tuples_exist():
    consistent = 0
    for outcomes in itertools.product((1, 2, 3, 4), repeat=4):
        candidate = dict(zip(("Lzz", "Lxx", "Lzx", "Lxz"), outcomes))
        try:
            translate_outcomes(candidate)
        except ValueError:
            continue
        consistent += 1
    assert consistent == 16


# --- witness-scan plans -------------------------------------------------------


_PLAN_ARRAYS = (
    "valid", "member_parents", "member_classes", "lookups",
    "choices", "choice_contexts", "simultaneous", "choice_signs",
)


@pytest.mark.parametrize("index", [1, 2, 3])
def test_scan_plan_is_read_only(index):
    realization = build_realization(index)
    plan = realization.scan_plan
    for name in _PLAN_ARRAYS:
        with pytest.raises(ValueError):
            getattr(plan, name)[...] = 0
    for field in dataclasses.fields(plan):
        with pytest.raises(AttributeError):
            setattr(plan, field.name, None)
    for container in (plan.parents, plan.classes, plan.classes[0], plan.cell_pairs):
        with pytest.raises(TypeError):
            container[0] = None
    with pytest.raises(AttributeError):
        realization.scan_plan = plan
    with pytest.raises(AttributeError):
        del realization.scan_plan


@pytest.mark.parametrize("index", [1, 2, 3])
def test_scan_plan_follows_the_class_structure(index):
    r = build_realization(index)
    plan = r.scan_plan
    assert plan is build_realization(index).scan_plan  # built once per cached realization
    classes = {cls: None for cell in r.cell_map for cls in cell_classes(r, cell)}
    assert plan.classes == tuple(classes)
    expected = [
        (row, choice)
        for row, context in enumerate(CONTEXTS)
        for choice in itertools.product(*(cell_classes(r, c) for c in context_cells(context)))
    ]
    assert plan.choice_contexts.tolist() == [row for row, _ in expected]
    for (_, choice), rows, simultaneous in zip(expected, plan.choices, plan.simultaneous):
        assert tuple(plan.classes[k] for k in rows) == choice
        assert simultaneous == all(
            classes_compatible(r, a, b) for a, b in itertools.combinations(choice, 2)
        )
    assert plan.choice_signs.dtype == np.int8
    for sign, row in zip(plan.choice_signs, plan.choice_contexts):
        for triple in itertools.product((1, -1), repeat=3):
            admissible = triple in table_triples(CONTEXTS[row])
            assert (triple[0] * triple[1] * triple[2] == sign) == admissible
    members = [cls[0] for cls in plan.classes] + [d for cls in plan.classes for d in cls[1:]]
    assert len(plan.lookups) == len(members)
    for row, did in enumerate(members):
        derived = r.derived[did]
        parent = r.physicals[derived.parent]
        assert plan.parents[plan.member_parents[row]] == derived.parent
        assert did in plan.classes[plan.member_classes[row]]
        for slot in range(256):
            outcome = slot - 128
            assert plan.valid[plan.member_parents[row], slot] == (outcome in parent.outcomes)
            assert plan.lookups[row, slot] == derived.outcome_map.get(outcome, 0)
    assert plan.cell_pairs == tuple(
        (cell, plan.classes.index(a), plan.classes.index(b))
        for cell in sorted(r.cell_map)
        for a, b in itertools.combinations(cell_classes(r, cell), 2)
    )


def test_a_replaced_realization_gets_its_own_plan():
    cached = build_realization(2)
    unidentified = dataclasses.replace(cached, identifications=())
    assert unidentified.scan_plan is not cached.scan_plan
    assert unidentified.scan_plan is unidentified.scan_plan
    assert len(cached.scan_plan.classes) == len(cached.derived) - 4
    assert len(unidentified.scan_plan.classes) == len(cached.derived)
    assert len(cached.scan_plan.cell_pairs) == 5
    assert len(unidentified.scan_plan.cell_pairs) == 9
    assert build_realization(2).scan_plan is cached.scan_plan


def test_scan_plan_refuses_a_derived_value_other_than_plus_minus_one():
    cached = build_realization(1)
    derived = dict(cached.derived)
    derived["f(B)"] = derived["f(B)"]._replace(outcome_map={1: 2, 2: 1, 3: -1, 4: -1})
    broken = dataclasses.replace(cached, derived=derived)
    with pytest.raises(InternalConsistencyError, match=r"f\(B\) is not \+/-1-valued"):
        broken.scan_plan
