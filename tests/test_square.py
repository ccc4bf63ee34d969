import itertools

import numpy as np
import pytest

from pmsquare import square
from pmsquare.errors import InternalConsistencyError
from pmsquare.square import (
    CELLS,
    CONTEXTS,
    NAMED_STATES,
    Assignment,
    Context,
    EigenTable,
    PMSquare,
    admissible_triples,
    build_square,
    commutation_relation,
    context_cells,
    context_from_name,
    context_operator_product,
    eigentable,
    expected_context_sign,
    search_assignments,
    third_column_product_counts,
    verify_eigentable,
)

from conftest import matmul_oracle

ROWS = tuple(Context("row", i) for i in range(3))
COLS = tuple(Context("column", i) for i in range(3))


# --- layout and commutation -------------------------------------------------


def test_layout_matches_published_grid():
    sq = build_square()
    assert sq.labels((0, 0)) == ("Z", "I")
    assert sq.labels((2, 2)) == ("Y", "Y")
    assert sq.labels((1, 0)) == ("I", "X")
    assert sq.grid == (
        (("Z", "I"), ("I", "Z"), ("Z", "Z")),
        (("I", "X"), ("X", "I"), ("X", "X")),
        (("Z", "X"), ("X", "Z"), ("Y", "Y")),
    )


def test_commutation_equals_same_row_or_column():
    relation = commutation_relation(build_square())
    assert len(relation) == 36
    for (c1, c2), commutes in relation.items():
        assert commutes == (c1[0] == c2[0] or c1[1] == c2[1])
    assert sum(relation.values()) == 18  # 6 contexts x 3 pairs


def test_commutation_against_manual_matrix_oracle():
    sq = build_square()
    for c1, c2 in itertools.combinations(CELLS, 2):
        a, b = sq.operator(c1), sq.operator(c2)
        comm = matmul_oracle(a, b) - matmul_oracle(b, a)
        assert (np.max(np.abs(comm)) <= 1e-12) == (c1[0] == c2[0] or c1[1] == c2[1])


def test_commutation_flags_tampered_square():
    grid = [list(row) for row in build_square().grid]
    grid[0][0] = ("Y", "Y")  # breaks commutation inside row 0
    bad = PMSquare(tuple(tuple(row) for row in grid))
    with pytest.raises(InternalConsistencyError):
        commutation_relation(bad)


# --- eigentables --------------------------------------------------------------


def test_eigentable_row0_psi2():
    table = eigentable(Context("row", 0))
    entry = table.entries[1]
    assert entry.label == "psi2"
    assert np.array_equal(entry.vector, np.array([0, 1, 0, 0], dtype=complex))
    assert entry.values == (1, -1, -1)


def test_eigentable_col2_phiPP1():
    table = eigentable(Context("column", 2))
    entry = table.entries[0]
    assert entry.label == "phiPP1"
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 1 / np.sqrt(2)
    assert np.max(np.abs(entry.vector - expected)) <= 1e-15
    assert entry.values == (1, 1, -1)


def test_eigentable_row2_psiPP4():
    table = eigentable(Context("row", 2))
    assert table.entries[3].label == "psiPP4"
    assert table.entries[3].values == (-1, -1, 1)


def test_eigentable_invariants_all_contexts():
    sq = build_square()
    for context in CONTEXTS:
        table = eigentable(context)
        ops = [sq.operator(cell) for cell in context_cells(context)]
        vectors = [e.vector for e in table.entries]
        gram = np.array([[np.vdot(u, v) for v in vectors] for u in vectors])
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-12
        for entry in table.entries:
            for op, value in zip(ops, entry.values):
                assert np.max(np.abs(op @ entry.vector - value * entry.vector)) <= 1e-12
            product = entry.values[0] * entry.values[1] * entry.values[2]
            assert product == expected_context_sign(context)


def test_admissible_triples_are_exactly_the_sign_patterns():
    for context in CONTEXTS:
        sign = expected_context_sign(context)
        by_product = {
            t for t in itertools.product((-1, 1), repeat=3) if t[0] * t[1] * t[2] == sign
        }
        assert admissible_triples(context) == by_product
        assert len(admissible_triples(context)) == 4


def test_verify_eigentable_rejects_corrupt_values():
    from pmsquare.square import EigenEntry

    table = eigentable(Context("row", 0))
    # corrupt one eigenvalue triple: psi2 really has (1, -1, -1)
    corrupt = EigenTable(
        table.context,
        (
            table.entries[0],
            EigenEntry("psi2", table.entries[1].vector, (1, 1, -1)),
            table.entries[2],
            table.entries[3],
        ),
    )
    with pytest.raises(InternalConsistencyError):
        verify_eigentable(corrupt)


@pytest.mark.parametrize("context", CONTEXTS, ids=lambda c: c.name)
def test_verify_eigentable_rejects_any_one_flipped_value_by_its_eigen_relation(context):
    from pmsquare.square import EigenEntry

    table = eigentable(context)
    for row, entry in enumerate(table.entries):
        for slot in range(3):
            values = list(entry.values)
            values[slot] = -values[slot]
            flipped = list(table.entries)
            flipped[row] = EigenEntry(entry.label, entry.vector, tuple(values))
            # the flipped triple no longer multiplies to the context sign
            assert int(np.prod(values)) != expected_context_sign(context)
            with pytest.raises(InternalConsistencyError, match=f"{entry.label} is not a"):
                verify_eigentable(EigenTable(context, tuple(flipped)))


def test_verify_eigentable_rejects_swapped_triples():
    from pmsquare.square import EigenEntry

    table = eigentable(Context("row", 1))
    first, second, *rest = table.entries
    # both triples still multiply to +1, so only the eigen relations can tell
    swapped = EigenTable(
        table.context,
        (
            EigenEntry(first.label, first.vector, second.values),
            EigenEntry(second.label, second.vector, first.values),
            *rest,
        ),
    )
    assert all(int(np.prod(entry.values)) == 1 for entry in swapped.entries)
    with pytest.raises(InternalConsistencyError, match="eigenvector"):
        verify_eigentable(swapped)


def test_eigentable_vectors_are_read_only():
    entry = eigentable(Context("row", 2)).entries[0]
    with pytest.raises(ValueError):
        entry.vector[0] = 0.0


def test_named_state_vectors_are_read_only():
    with pytest.raises(ValueError):
        NAMED_STATES["psi1"][1] = 1.0


# --- context operator products -------------------------------------------------


def test_context_products_match_signs():
    sq = build_square()
    for context in CONTEXTS:
        sign = context_operator_product(sq, context)
        assert sign == (-1 if context == Context("column", 2) else 1)


def test_context_product_of_the_wrong_sign_is_an_internal_error(monkeypatch):
    expected = expected_context_sign
    monkeypatch.setattr(square, "expected_context_sign", lambda context: -expected(context))
    with pytest.raises(InternalConsistencyError, match="expected"):
        context_operator_product(build_square(), CONTEXTS[0])


def test_context_products_against_manual_oracle():
    sq = build_square()
    for context in CONTEXTS:
        a, b, c = (sq.operator(cell) for cell in context_cells(context))
        product = matmul_oracle(matmul_oracle(a, b), c)
        sign = expected_context_sign(context)
        assert np.max(np.abs(product - sign * np.eye(4))) <= 1e-12


# --- assignment search -----------------------------------------------------------


def _oracle_masks():
    """Survivor sets per context from the product-sign characterization."""
    masks = {}
    assignments = list(itertools.product((-1, 1), repeat=9))
    for context in CONTEXTS:
        sign = expected_context_sign(context)
        positions = [cell[0] * 3 + cell[1] for cell in context_cells(context)]
        masks[context] = {
            i
            for i, values in enumerate(assignments)
            if values[positions[0]] * values[positions[1]] * values[positions[2]] == sign
        }
    return assignments, masks


def test_search_counts():
    assert len(search_assignments()) == 0
    assert len(search_assignments(ROWS)) == 64
    survivors = search_assignments(ROWS + COLS[:2])
    assert len(survivors) == 16
    assert third_column_product_counts(survivors) == {1: 16, -1: 0}


def test_search_matches_enumeration_oracle_for_every_subset():
    assignments, masks = _oracle_masks()
    for size in range(len(CONTEXTS) + 1):
        for subset in itertools.combinations(CONTEXTS, size):
            expected_indices = set(range(512))
            for context in subset:
                expected_indices &= masks[context]
            expected = sorted(assignments[i] for i in expected_indices)
            got = [a.values for a in search_assignments(subset)]
            assert got == expected


def test_search_results_are_lexicographically_sorted():
    values = [a.values for a in search_assignments(ROWS)]
    assert values == sorted(values)


def test_dropping_any_single_constraint_reopens_the_search():
    assert search_assignments(CONTEXTS) == []
    for skipped in CONTEXTS:
        remaining = [c for c in CONTEXTS if c != skipped]
        assert len(search_assignments(remaining)) > 0


def test_five_constraints_force_third_column_product_positive():
    remaining = [c for c in CONTEXTS if c != Context("column", 2)]
    survivors = search_assignments(remaining)
    assert len(survivors) == 16
    assert third_column_product_counts(survivors) == {1: 16, -1: 0}


def test_assignment_accessors():
    a = Assignment(tuple([1, -1, -1, 1, 1, 1, 1, 1, 1]))
    assert a.value((0, 1)) == -1
    assert a.context_values(Context("row", 0)) == (1, -1, -1)
    assert a.context_values(Context("column", 0)) == (1, 1, 1)


def test_context_from_name_accepts_both_spellings():
    assert context_from_name("row0") == Context("row", 0)
    assert context_from_name("c2") == Context("column", 2)
    assert context_from_name("COL1") == Context("column", 1)
    with pytest.raises(ValueError):
        context_from_name("diag0")


def test_search_rejects_unknown_context():
    with pytest.raises(ValueError):
        search_assignments([Context("diagonal", 0)])
