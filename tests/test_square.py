import itertools

import numpy as np
import pytest

from pmsquare import square
from pmsquare.errors import InternalConsistencyError
from pmsquare.square import (
    CELLS,
    CONTEXTS,
    GRID,
    NAMED_STATES,
    Context,
    EigenEntry,
    cell_operator,
    commutation_relation,
    context_cells,
    context_from_name,
    context_operator_product,
    eigentable,
    expected_context_sign,
    search_assignments,
    third_column_product_counts,
    value_triples,
    verify_eigentable,
)

from conftest import matmul_oracle, table_triples

ROWS = tuple(Context("row", i) for i in range(3))
COLS = tuple(Context("column", i) for i in range(3))


# --- layout and commutation -------------------------------------------------


def test_layout_matches_published_grid():
    assert GRID[0][0] == ("Z", "I")
    assert GRID[2][2] == ("Y", "Y")
    assert GRID[1][0] == ("I", "X")
    assert GRID == (
        (("Z", "I"), ("I", "Z"), ("Z", "Z")),
        (("I", "X"), ("X", "I"), ("X", "X")),
        (("Z", "X"), ("X", "Z"), ("Y", "Y")),
    )


def test_commutation_equals_same_row_or_column():
    relation = commutation_relation()
    assert len(relation) == 36
    for (c1, c2), commutes in relation.items():
        assert commutes == (c1[0] == c2[0] or c1[1] == c2[1])
    assert sum(relation.values()) == 18  # 6 contexts x 3 pairs


def test_commutation_against_manual_matrix_oracle():
    for c1, c2 in itertools.combinations(CELLS, 2):
        a, b = cell_operator(c1), cell_operator(c2)
        comm = matmul_oracle(a, b) - matmul_oracle(b, a)
        assert (np.max(np.abs(comm)) <= 1e-12) == (c1[0] == c2[0] or c1[1] == c2[1])


def test_commutation_flags_tampered_square(monkeypatch):
    grid = [list(row) for row in GRID]
    grid[0][0] = ("Y", "Y")  # breaks commutation inside row 0
    monkeypatch.setattr(square, "GRID", tuple(tuple(row) for row in grid))
    with pytest.raises(InternalConsistencyError):
        commutation_relation()


# --- eigentables --------------------------------------------------------------


def test_eigentable_row0_psi2():
    entries = eigentable(Context("row", 0))
    entry = entries[1]
    assert entry.label == "psi2"
    assert np.array_equal(entry.vector, np.array([0, 1, 0, 0], dtype=complex))
    assert entry.values == (1, -1, -1)


def test_eigentable_col2_phiPP1():
    entries = eigentable(Context("column", 2))
    entry = entries[0]
    assert entry.label == "phiPP1"
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 1 / np.sqrt(2)
    assert np.max(np.abs(entry.vector - expected)) <= 1e-15
    assert entry.values == (1, 1, -1)


def test_eigentable_row2_psiPP4():
    entries = eigentable(Context("row", 2))
    assert entries[3].label == "psiPP4"
    assert entries[3].values == (-1, -1, 1)


def test_eigentable_invariants_all_contexts():
    for context in CONTEXTS:
        entries = eigentable(context)
        ops = [cell_operator(cell) for cell in context_cells(context)]
        vectors = [e.vector for e in entries]
        gram = np.array([[np.vdot(u, v) for v in vectors] for u in vectors])
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-12
        for entry in entries:
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
        assert set(value_triples(context)) == by_product
        assert len(value_triples(context)) == 4


@pytest.mark.parametrize("context", CONTEXTS, ids=lambda c: c.name)
def test_the_value_triples_are_the_eigenvalues_of_the_table_states(context):
    # contradiction and realization read the value triples and never the
    # vectors, so the triples must be the eigenvalues the table states carry
    assert value_triples(context) == table_triples(context)


def test_verify_eigentable_rejects_corrupt_values():
    context = Context("row", 0)
    entries = eigentable(context)
    # corrupt one eigenvalue triple: psi2 really has (1, -1, -1)
    corrupt = (
        entries[0],
        EigenEntry("psi2", entries[1].vector, (1, 1, -1)),
        entries[2],
        entries[3],
    )
    with pytest.raises(InternalConsistencyError):
        verify_eigentable(context, corrupt)


@pytest.mark.parametrize("context", CONTEXTS, ids=lambda c: c.name)
def test_verify_eigentable_rejects_any_one_flipped_value_by_its_eigen_relation(context):
    entries = eigentable(context)
    for row, entry in enumerate(entries):
        for slot in range(3):
            values = list(entry.values)
            values[slot] = -values[slot]
            flipped = list(entries)
            flipped[row] = EigenEntry(entry.label, entry.vector, tuple(values))
            # the flipped triple no longer multiplies to the context sign
            assert int(np.prod(values)) != expected_context_sign(context)
            with pytest.raises(InternalConsistencyError, match=f"{entry.label} is not a"):
                verify_eigentable(context, tuple(flipped))


def test_verify_eigentable_rejects_swapped_triples():
    context = Context("row", 1)
    first, second, *rest = eigentable(context)
    # both triples still multiply to +1, so only the eigen relations can tell
    swapped = (
        EigenEntry(first.label, first.vector, second.values),
        EigenEntry(second.label, second.vector, first.values),
        *rest,
    )
    assert all(int(np.prod(entry.values)) == 1 for entry in swapped)
    with pytest.raises(InternalConsistencyError, match="eigenvector"):
        verify_eigentable(context, swapped)


def test_eigentable_vectors_are_read_only():
    entry = eigentable(Context("row", 2))[0]
    with pytest.raises(ValueError):
        entry.vector[0] = 0.0


def test_named_state_vectors_are_read_only():
    with pytest.raises(ValueError):
        NAMED_STATES["psi1"][1] = 1.0


def test_named_state_catalogue_is_read_only():
    with pytest.raises(TypeError):
        NAMED_STATES["psi1"] = np.array([1, 0, 0, 0], dtype=complex)
    with pytest.raises(TypeError):
        del NAMED_STATES["psi1"]


# --- context operator products -------------------------------------------------


def test_context_products_match_signs():
    for context in CONTEXTS:
        sign = context_operator_product(context)
        assert sign == (-1 if context == Context("column", 2) else 1)


def test_context_product_of_the_wrong_sign_is_an_internal_error(monkeypatch):
    expected = expected_context_sign
    monkeypatch.setattr(square, "expected_context_sign", lambda context: -expected(context))
    with pytest.raises(InternalConsistencyError, match="expected"):
        context_operator_product(CONTEXTS[0])


def test_context_products_against_manual_oracle():
    for context in CONTEXTS:
        a, b, c = (cell_operator(cell) for cell in context_cells(context))
        product = matmul_oracle(matmul_oracle(a, b), c)
        sign = expected_context_sign(context)
        assert np.max(np.abs(product - sign * np.eye(4))) <= 1e-12


# --- assignment search -----------------------------------------------------------


def _oracle_masks():
    """Survivor sets per context from the triples its table states carry."""
    masks = {}
    assignments = list(itertools.product((-1, 1), repeat=9))
    for context in CONTEXTS:
        allowed = set(table_triples(context))
        positions = [cell[0] * 3 + cell[1] for cell in context_cells(context)]
        masks[context] = {
            i
            for i, values in enumerate(assignments)
            if tuple(values[p] for p in positions) in allowed
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
            got = search_assignments(subset)
            assert got == expected


def test_search_results_are_lexicographically_sorted():
    values = search_assignments(ROWS)
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


def test_assignments_are_row_major_nine_tuples():
    # cell (0, 1) is slot 1 and (0, 2) is slot 2: row 0 reads (1, -1, -1),
    # and column 2 reads slots 2, 5 and 8, whose product is -1
    assert third_column_product_counts([(1, -1, -1, 1, 1, 1, 1, 1, 1)]) == {1: 0, -1: 1}
    # with column 0 alone active, the survivors are exactly the tuples whose
    # slots 0, 3 and 6 multiply to +1
    survivors = search_assignments([Context("column", 0)])
    assert len(survivors) == 256
    assert all(a[0] * a[3] * a[6] == 1 for a in survivors)
    assert (1, -1, -1, 1, 1, 1, 1, 1, 1) in survivors
    assert (-1, 1, 1, 1, 1, 1, 1, 1, 1) not in survivors


def test_context_from_name_accepts_both_spellings():
    assert context_from_name("row0") == Context("row", 0)
    assert context_from_name("c2") == Context("column", 2)
    assert context_from_name("COL1") == Context("column", 1)
    with pytest.raises(ValueError):
        context_from_name("diag0")


def test_search_rejects_unknown_context():
    # a plain tuple or list naming a real context is not a Context either
    for context in (("row", 0), ["row", 0], Context("diagonal", 0)):
        with pytest.raises(ValueError, match="unknown context"):
            search_assignments([context])


def test_verify_eigentable_requires_four_entries():
    context = Context("row", 0)
    with pytest.raises(InternalConsistencyError, match="expected 4 entries"):
        verify_eigentable(context, eigentable(context)[:3])


def test_verify_eigentable_refuses_a_nan_vector():
    context = Context("row", 0)
    first, *rest = eigentable(context)
    nan = EigenEntry(first.label, np.full(4, np.nan, dtype=complex), first.values)
    with pytest.raises(InternalConsistencyError, match="not orthonormal"):
        verify_eigentable(context, (nan, *rest))
