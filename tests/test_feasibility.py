import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from pmsquare import feasibility
from pmsquare.errors import InternalConsistencyError
from pmsquare.feasibility import (
    TOLERANCE,
    FeasibilityResult,
    LinearSystem,
    _verify_certificate,
    _verify_point,
    solve,
)


def _scipy_feasible(system: LinearSystem) -> bool:
    result = linprog(
        c=np.zeros(system.coefficients.shape[1]),
        A_eq=system.coefficients,
        b_eq=system.rhs,
        bounds=(0, None),
        method="highs",
    )
    return result.status == 0


def _verify(system: LinearSystem, result: FeasibilityResult) -> None:
    if result.status == "feasible":
        x = result.point
        assert float(np.max(np.abs(system.coefficients @ x - system.rhs))) <= 1e-9
        assert float(x.min()) >= -1e-12
    else:
        y = result.certificate
        assert float(np.max(y @ system.coefficients)) <= 1e-9
        assert float(y @ system.rhs) > 0.0


def test_single_variable_feasible():
    system = LinearSystem(np.array([[1.0]]), np.array([1.0]))
    result = solve(system)
    assert result.status == "feasible"
    assert np.array_equal(result.point, np.array([1.0]))


def test_a_small_pivot_above_the_pivot_tolerance_is_taken():
    # a ratio-test pivot of 1e-8 is a real coefficient, not round-off
    result = solve(LinearSystem([[1e-8]], [1e-8]))
    assert result.status == "feasible"
    assert np.array_equal(result.point, np.array([1.0]))


def test_single_variable_infeasible_with_unit_certificate():
    system = LinearSystem(np.array([[1.0]]), np.array([-1.0]))
    result = solve(system)
    assert result.status == "infeasible"
    assert np.array_equal(result.certificate, np.array([-1.0]))
    _verify(system, result)


def test_contradictory_rows_are_infeasible():
    system = LinearSystem(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 2.0]))
    result = solve(system)
    assert result.status == "infeasible"
    _verify(system, result)


def test_redundant_rows_are_fine():
    system = LinearSystem(np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([1.0, 2.0]))
    result = solve(system)
    assert result.status == "feasible"
    _verify(system, result)


def test_empty_system_is_feasible():
    system = LinearSystem(np.zeros((0, 3)), np.zeros(0))
    result = solve(system)
    assert result.status == "feasible"
    assert np.array_equal(result.point, np.zeros(3))


def test_zero_row_with_nonzero_rhs_is_infeasible():
    system = LinearSystem(np.array([[0.0, 0.0]]), np.array([1.0]))
    result = solve(system)
    assert result.status == "infeasible"
    _verify(system, result)


def test_malformed_rows_raise():
    with pytest.raises(ValueError):
        LinearSystem(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        LinearSystem(np.array([[np.inf, 0.0]]), np.array([1.0]))


# x = (0.5, 0.5) solves x0 + x1 = 1, x0 - x1 = 0
_A = np.array([[1.0, 1.0], [1.0, -1.0]])
_B = np.array([1.0, 0.0])


def test_point_verification_refuses_a_residual_or_a_negative_coordinate():
    _verify_point(_A, _B, np.array([0.5, 0.5]))
    with pytest.raises(InternalConsistencyError, match="residual 1.000e-06"):
        _verify_point(_A, _B, np.array([0.5, 0.5 + 1e-6]))
    # a negative coordinate on a point that meets every equation
    a, b = np.array([[1.0, 1.0]]), np.array([1.0])
    with pytest.raises(InternalConsistencyError, match="min coordinate -1.000e-06"):
        _verify_point(a, b, np.array([1.0 + 1e-6, -1e-6]))


def test_certificate_verification_refuses_a_nonpositive_bound_or_a_positive_column():
    # y = -1 certifies that x = -1 has no solution x >= 0
    a = np.array([[1.0]])
    _verify_certificate(a, np.array([-1.0]), np.array([-1.0]))
    with pytest.raises(InternalConsistencyError, match=r"y@b = 0\.000e\+00"):
        _verify_certificate(a, np.array([0.0]), np.array([-1.0]))
    # a column with y @ A just above the tolerance, while y @ b > 0
    a = np.array([[-1.0, 2 * TOLERANCE]])
    _verify_certificate(np.array([[-1.0, TOLERANCE]]), np.array([1.0]), np.array([1.0]))
    with pytest.raises(InternalConsistencyError, match="max y@A = 2.000e-09"):
        _verify_certificate(a, np.array([1.0]), np.array([1.0]))


def test_point_verification_refuses_a_nan_point():
    with pytest.raises(InternalConsistencyError, match="residual nan"):
        _verify_point(np.eye(2), np.ones(2), np.array([np.nan, np.nan]))


def test_certificate_verification_refuses_a_nan_certificate():
    with pytest.raises(InternalConsistencyError, match="y@b = nan"):
        _verify_certificate(np.eye(2), np.ones(2), np.array([np.nan, np.nan]))


def test_solve_verifies_every_point_and_certificate_it_returns(monkeypatch):
    checked = []
    for name in ("_verify_point", "_verify_certificate"):

        def spy(a, b, vector, name=name, check=getattr(feasibility, name)):
            checked.append((name, vector))
            check(a, b, vector)

        monkeypatch.setattr(feasibility, name, spy)
    feasible = solve(LinearSystem(_A, _B))
    infeasible = solve(LinearSystem(np.array([[1.0]]), np.array([-1.0])))
    assert [name for name, _ in checked] == ["_verify_point", "_verify_certificate"]
    assert checked[0][1] is feasible.point and checked[1][1] is infeasible.certificate


def test_system_arrays_are_read_only_copies():
    a = np.array([[1.0, 2.0]])
    b = np.array([3.0])
    system = LinearSystem(a, b)
    a[0, 0] = b[0] = 7.0
    assert system.coefficients.tolist() == [[1.0, 2.0]] and system.rhs.tolist() == [3.0]
    with pytest.raises(ValueError):
        system.coefficients[0, 0] = 0.0
    with pytest.raises(ValueError):
        system.rhs[0] = 0.0
    shared = LinearSystem(system.coefficients, system.rhs)
    assert not np.shares_memory(shared.coefficients, system.coefficients)


def test_constructed_feasible_systems():
    rng = np.random.default_rng(99)
    for _ in range(40):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(m, n))
        x0 = rng.uniform(0.0, 2.0, size=n)
        system = LinearSystem(a, a @ x0)
        result = solve(system)
        assert result.status == "feasible"
        _verify(system, result)


def test_random_systems_agree_with_scipy():
    rng = np.random.default_rng(4242)
    statuses = {"feasible": 0, "infeasible": 0}
    for _ in range(60):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(m, n)).round(3)
        b = rng.normal(size=m).round(3)
        system = LinearSystem(a, b)
        result = solve(system)
        statuses[result.status] += 1
        _verify(system, result)
        assert (result.status == "feasible") == _scipy_feasible(system)
    # the corpus must exercise both branches
    assert statuses["feasible"] > 0 and statuses["infeasible"] > 0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_property_verdict_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    n = int(rng.integers(1, 6))
    a = rng.integers(-3, 4, size=(m, n)).astype(float)
    b = rng.integers(-3, 4, size=m).astype(float)
    system = LinearSystem(a, b)
    result = solve(system)
    _verify(system, result)
    assert (result.status == "feasible") == _scipy_feasible(system)


def test_determinism_bitwise():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 8))
    x0 = rng.uniform(size=8)
    feasible = LinearSystem(a, a @ x0)
    infeasible = LinearSystem(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 2.0]))
    first = solve(feasible)
    second = solve(feasible)
    assert first.point.tobytes() == second.point.tobytes()
    assert first.phase1_objective == second.phase1_objective
    first_inf = solve(infeasible)
    second_inf = solve(infeasible)
    assert first_inf.certificate.tobytes() == second_inf.certificate.tobytes()
