"""Acceptance suite: every criterion prints one PASS/FAIL line (run with -s)."""

import math
import time

import numpy as np
import pytest

from pmsquare.cli import build_parser, cmd_sample
from pmsquare.hvmodels import (
    build_model1,
    build_model23,
    ch_report,
    chsh_max_state,
    fine_joint,
    reproduce_statistics,
    violation_witnesses,
)
from pmsquare.realizations import (
    SIDE_IDS,
    WING_VALUES,
    build_realization,
    check_requirements,
    translate_outcomes,
    translate_outcomes_inverse,
)
from pmsquare.reports import render_json
from pmsquare.square import (
    CONTEXTS,
    NAMED_STATES,
    Context,
    cell_operator,
    commutation_relation,
    context_cells,
    context_operator_product,
    eigentable,
    search_assignments,
)

from conftest import random_product_states, random_states, witness_rows

ROWS = tuple(Context("row", i) for i in range(3))
COLS = tuple(Context("column", i) for i in range(3))


def announce(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


@pytest.fixture(scope="module")
def nonviolating_states():
    """200 seeded random states whose CHSH report does not violate the bound."""
    kept = []
    seed = 0
    while len(kept) < 200:
        batch = random_states(50, seed=910_000 + seed)
        seed += 1
        for state in batch:
            if not ch_report(state).violated and len(kept) < 200:
                kept.append(state)
    return kept


def test_criterion_01_structure():
    relation = commutation_relation()  # raises on any classification mismatch
    ok = len(relation) == 36
    for (c1, c2), commutes in relation.items():
        ok = ok and commutes == (c1[0] == c2[0] or c1[1] == c2[1])
    entries_checked = 0
    for context in CONTEXTS:
        ops = [cell_operator(cell) for cell in context_cells(context)]
        for entry in eigentable(context):
            for op, value in zip(ops, entry.values):
                residual = float(np.max(np.abs(op @ entry.vector - value * entry.vector)))
                ok = ok and residual <= 1e-12
            entries_checked += 1
        sign = context_operator_product(context)
        expected = -1 if context == Context("column", 2) else 1
        ok = ok and sign == expected
    ok = ok and entries_checked == 24
    announce(1, "commutation, eigentables, context products", ok)


def test_criterion_02_contradiction():
    start = time.perf_counter()
    full = search_assignments(CONTEXTS)
    elapsed = time.perf_counter() - start
    ok = full == [] and elapsed < 1.0

    partial = search_assignments(ROWS + COLS[:2])
    ok = ok and len(partial) == 16
    for assignment in partial:
        v = [assignment[r * 3 + c] for r, c in context_cells(Context("column", 2))]
        ok = ok and v[0] * v[1] * v[2] == 1

    for skipped in CONTEXTS:
        remaining = [c for c in CONTEXTS if c != skipped]
        ok = ok and len(search_assignments(remaining)) > 0
    announce(2, "exhaustive 512-assignment search", ok)


def test_criterion_03_requirements():
    r1 = check_requirements(build_realization(1))
    ok = r1.unique_realization_ok and not r1.simultaneity_ok
    ok = ok and {c.name for c, _ in r1.broken_contexts} == {"col0", "col1", "col2"}

    r2 = check_requirements(build_realization(2))
    ok = ok and not r2.unique_realization_ok and r2.simultaneity_ok
    ok = ok and len(r2.multiply_realized_cells) == 5

    r3 = check_requirements(build_realization(3))
    ok = ok and not r3.unique_realization_ok and not r3.simultaneity_ok
    ok = ok and ("Lr_z", "fp(Bprime)") in {pair for _, pair in r3.broken_contexts}
    announce(3, "requirement verdicts for the three realizations", ok)


def test_criterion_04_model1_statistics():
    states = list(NAMED_STATES.values()) + random_states(100, seed=777)
    ok = len(NAMED_STATES) == 24
    for state in states:
        model = build_model1(state)
        stats = reproduce_statistics(model, state)
        ok = ok and stats.passed and stats.tolerance == 1e-12
        total = sum(s.probability for s in model.states)
        ok = ok and abs(total - 1.0) <= 1e-12
    announce(4, "model-1 statistics on 124 states", ok)


def test_criterion_05_fine_construction():
    psi1 = NAMED_STATES["psi1"]
    result = fine_joint(psi1)
    system = result.system
    point = np.array([result.joint[key] for key in WING_VALUES])
    ok = result.status == "feasible"
    ok = ok and float(np.max(np.abs(system.coefficients @ point - system.rhs))) <= 1e-9
    block = sum(p for key, p in result.joint.items() if key[0] == 1 and key[1] == 1)
    ok = ok and abs(block - 1.0) <= 1e-9
    quarter = np.array([0.25 if key[0] == 1 and key[1] == 1 else 0.0 for key in WING_VALUES])
    ok = ok and float(np.max(np.abs(system.coefficients @ quarter - system.rhs))) <= 1e-12

    for state in random_product_states(200, seed=31337):
        product_result = fine_joint(state)
        ok = ok and product_result.status == "feasible"
        p = np.array([product_result.joint[key] for key in WING_VALUES])
        s = product_result.system
        ok = ok and float(np.max(np.abs(s.coefficients @ p - s.rhs))) <= 1e-9

    witness_state = chsh_max_state()
    infeasible = fine_joint(witness_state)
    ok = ok and infeasible.status == "infeasible"
    y = infeasible.certificate
    ok = ok and float(np.max(y @ infeasible.system.coefficients)) <= 1e-9
    ok = ok and float(y @ infeasible.system.rhs) > 0.0
    ok = ok and abs(infeasible.ch.max_abs - 2.0 * math.sqrt(2.0)) <= 1e-9
    announce(5, "joint-distribution construction and refutation", ok)


def test_criterion_06_model23_statistics(nonviolating_states):
    ok = len(nonviolating_states) == 200
    for state in nonviolating_states:
        for index in (2, 3):
            model = build_model23(state, index)
            stats = reproduce_statistics(model, state)
            ok = ok and stats.passed and stats.tolerance == 1e-9
            ok = ok and len(model.states) == 256
            ok = ok and abs(sum(s.probability for s in model.states) - 1.0) <= 1e-9
    announce(6, "model-2/3 statistics on 200 states", ok)


def test_criterion_07_witnesses(nonviolating_states):
    psi1 = NAMED_STATES["psi1"]
    model1 = build_model1(psi1)
    report = violation_witnesses(model1, build_realization(1))
    hits = [
        w
        for w in witness_rows(model1, report.context_blocks)
        if w.group.name == "col2"
        and w.outcomes == {"Lzz": 1, "Lxx": 1, "B": 1}
        and w.values == (1, 1, 1)
    ]
    ok = bool(hits) and report.simultaneous_violation_count == 0

    # seeded search for a state giving the mismatched double realization of
    # the upper-right cell: pair outcome (+1,+1) vs fourth Bell' outcome
    found = False
    for state in nonviolating_states[:25]:
        model = build_model23(state, 2)
        witness_report = violation_witnesses(model, build_realization(2))
        ok = ok and witness_report.simultaneous_violation_count == 0
        for w in witness_rows(model, witness_report.cell_blocks):
            if (
                w.group == (0, 2)
                and w.measurement_ids == ("t(Lzz)", "fp(Bprime)")
                and w.outcomes["Lzz"] == 1
                and w.outcomes["Bprime"] == 4
                and w.values == (1, -1)
                and w.probability > 1e-6
            ):
                found = True
    ok = ok and found

    # shared-parent contexts must stay clean for every tested model and state
    for state in list(NAMED_STATES.values()):
        r = violation_witnesses(build_model1(state), build_realization(1))
        ok = ok and r.simultaneous_violation_count == 0
    for state in nonviolating_states[:25]:
        for index in (2, 3):
            r = violation_witnesses(build_model23(state, index), build_realization(index))
            ok = ok and r.simultaneous_violation_count == 0
    announce(7, "contradiction-avoidance witnesses", ok)


def test_criterion_08_fine_equivalence():
    states = random_states(1000, seed=424242)
    checked = 0
    ok = True
    for state in states:
        report = ch_report(state)
        if abs(report.max_abs - 2.0) <= 1e-7:
            continue
        checked += 1
        result = fine_joint(state)
        ok = ok and (result.status == "feasible") == (report.max_abs <= 2.0)
    ok = ok and checked >= 900
    announce(8, f"feasibility equals CHSH bound on {checked} states", ok)


def test_criterion_09_sampling():
    args = build_parser().parse_args(
        ["sample", "1", "--state", "psi1", "--shots", "1000000", "--seed", "42"]
    )
    report1 = cmd_sample(args)
    report2 = cmd_sample(args)
    first = render_json(report1).encode("utf-8")
    second = render_json(report2).encode("utf-8")
    ok = report1.passed and report2.passed and first == second
    measurements = report1.results["measurements"]
    ok = ok and set(measurements) == {"Lzz", "Lxx", "B"}
    for doc in measurements.values():
        ok = ok and doc["tv_distance"] < 0.005
    announce(9, "seeded million-shot sampling", ok)


def test_criterion_10_translation():
    tuples = [translate_outcomes_inverse(dict(zip(SIDE_IDS, v))) for v in WING_VALUES]
    ok = len(tuples) == 16
    for pair_outcomes in tuples:
        sides = translate_outcomes(pair_outcomes)
        ok = ok and translate_outcomes_inverse(sides) == pair_outcomes
    worked = translate_outcomes({"Lzz": 1, "Lxx": 4, "Lzx": 2, "Lxz": 2})
    ok = ok and worked == {"Ll_z": 1, "Lr_z": 1, "Ll_x": -1, "Lr_x": -1}
    announce(10, "outcome translation round-trips", ok)
