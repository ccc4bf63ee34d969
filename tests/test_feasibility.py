import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from pmsquare.feasibility import FeasibilityResult, LinearSystem, solve


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
