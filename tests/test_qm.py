import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmsquare import qm
from pmsquare.errors import InternalConsistencyError
from pmsquare.qm import (
    PAULI,
    apply,
    born_probability,
    commutator,
    expectations,
    inner,
    is_hermitian,
    is_normalized,
    ket,
    pauli_tensor,
    product_ket,
    projector,
    side_projector,
)

from pmsquare.hvmodels import PAIR_AXES, _pair_projector, chsh_max_state
from pmsquare.realizations import build_realization
from pmsquare.square import NAMED_STATES

from conftest import kron_oracle, random_states

LABELS = ("I", "X", "Y", "Z")


def test_pauli_tensor_z_i_is_diagonal():
    assert np.allclose(pauli_tensor("Z", "I"), np.diag([1, 1, -1, -1]), atol=0)


def test_pauli_tensor_identity_pair():
    assert np.array_equal(pauli_tensor("I", "I"), np.eye(4))


def test_pauli_tensor_y_y_entries():
    # only anti-diagonal entries survive: (0,3) = (3,0) = -1, (1,2) = (2,1) = +1
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = expected[3, 0] = -1
    expected[1, 2] = expected[2, 1] = 1
    assert np.array_equal(pauli_tensor("Y", "Y"), expected)
    assert np.array_equal(pauli_tensor("Y", "Y"), kron_oracle(PAULI["Y"], PAULI["Y"]))


@pytest.mark.parametrize("left", LABELS)
@pytest.mark.parametrize("right", LABELS)
def test_pauli_tensor_matches_kron_oracle(left, right):
    assert np.array_equal(pauli_tensor(left, right), kron_oracle(PAULI[left], PAULI[right]))


@given(st.sampled_from(LABELS), st.sampled_from(LABELS))
def test_pauli_tensor_hermitian_unitary_square_identity(left, right):
    op = pauli_tensor(left, right)
    assert np.max(np.abs(op - op.conj().T)) <= 1e-12
    assert np.max(np.abs(op @ op.conj().T - np.eye(4))) <= 1e-12
    assert np.max(np.abs(op @ op - np.eye(4))) <= 1e-12


@pytest.mark.parametrize("label", LABELS)
def test_pauli_matrices_and_their_table_are_read_only(label):
    with pytest.raises(ValueError):
        PAULI[label][1, 1] = 1
    with pytest.raises(TypeError):
        PAULI[label] = np.eye(2, dtype=complex)


def test_identity4_is_read_only():
    with pytest.raises(ValueError):
        qm.IDENTITY4[0, 0] = 0


def test_pauli_tensor_rejects_unknown_label():
    with pytest.raises(ValueError):
        pauli_tensor("Q", "I")


def test_commutator_xx_yy_vanishes():
    assert np.max(np.abs(commutator(pauli_tensor("X", "X"), pauli_tensor("Y", "Y")))) <= 1e-12


def test_commutator_disjoint_factors_vanishes():
    assert np.max(np.abs(commutator(pauli_tensor("Z", "I"), pauli_tensor("I", "X")))) <= 1e-12


def test_commutator_same_side_z_x():
    # [sigma_z, sigma_x] = 2i sigma_y on the left factor
    got = commutator(pauli_tensor("Z", "I"), pauli_tensor("X", "I"))
    expected = 2j * kron_oracle(PAULI["Y"], PAULI["I"])
    assert np.max(np.abs(got - expected)) <= 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_commutator_antisymmetry_exact(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(commutator(a, b), -commutator(b, a))


def test_born_probability_identical_states():
    assert born_probability(product_ket("00"), product_ket("00")) == pytest.approx(1.0, abs=1e-12)


def test_born_probability_bell_overlap():
    # |<psiPP1|00>|^2 = |(1/sqrt2)(<0+| + <1-|)|00>|^2 = (1/2 * 1/sqrt2 ... ) = 1/4
    bell = (product_ket("0+") + product_ket("1-")) / np.sqrt(2)
    assert born_probability(product_ket("00"), bell) == pytest.approx(0.25, abs=1e-12)


def test_born_probability_plus_plus_overlap():
    # <++|00> = 1/2
    assert born_probability(product_ket("00"), product_ket("++")) == pytest.approx(0.25, abs=1e-12)


def test_born_probability_rejects_unnormalized():
    bad = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(ValueError):
        born_probability(bad, product_ket("00"))
    with pytest.raises(ValueError):
        born_probability(product_ket("00"), bad)


def test_born_probability_is_at_most_one_where_the_raw_overlap_exceeds_it():
    # rounding puts |<v|v>|^2 just above 1 on about a fifth of these kets
    over = [v for v in random_states(20_000, seed=0) if abs(inner(v, v)) ** 2 > 1.0]
    assert len(over) == 4480
    assert all(born_probability(v, v) <= 1.0 for v in over)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_born_probability_sums_to_one_over_bases(seed):
    state = random_states(1, seed)[0]
    bases = [
        [product_ket(p) for p in ("00", "01", "10", "11")],
        [product_ket(p) for p in ("++", "-+", "+-", "--")],
    ]
    for basis in bases:
        total = sum(born_probability(state, v) for v in basis)
        assert total == pytest.approx(1.0, abs=1e-12)


def _expectation(state, op):
    """The expectation of one operator: ``expectations`` on a stack of one."""
    return float(expectations(state, np.asarray(op)[np.newaxis])[0])


def test_expectation_zz_eigenstates():
    zz = pauli_tensor("Z", "Z")
    assert _expectation(product_ket("00"), zz) == pytest.approx(1.0, abs=1e-12)
    singlet = (product_ket("01") - product_ket("10")) / np.sqrt(2)
    assert _expectation(singlet, zz) == pytest.approx(-1.0, abs=1e-12)


def test_expectation_zx_vanishes_on_00():
    # oracle: (Z(x)X)|00> = |01>, orthogonal to |00>
    op = kron_oracle(PAULI["Z"], PAULI["X"])
    assert np.array_equal(op @ product_ket("00"), product_ket("01"))
    assert _expectation(product_ket("00"), pauli_tensor("Z", "X")) == pytest.approx(0.0, abs=1e-12)


def test_expectation_rejects_non_hermitian():
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(ValueError):
        _expectation(product_ket("00"), skew)


def test_expectation_stays_within_spectrum():
    ops = [pauli_tensor(l, r) for l in LABELS for r in LABELS]
    for state in random_states(20, seed=7):
        for op in ops:
            assert -1.0 - 1e-12 <= _expectation(state, op) <= 1.0 + 1e-12


def _kernel_ops():
    """Every operator the package takes expectations of: each physical measurement's
    projector stack, the pair projectors of the Fine layer and the Pauli tensors.

    ``st.deferred`` builds them on the first draw, so a fault in the tables
    fails the test that draws and does not stop the module's collection.
    """
    return list(
        itertools.chain(
            *(
                m.projectors
                for index in (1, 2, 3)
                for m in build_realization(index).physicals.values()
            ),
            (_pair_projector(pair, a, b) for pair in PAIR_AXES for a in (1, -1) for b in (1, -1)),
            (pauli_tensor(l, r) for l in LABELS for r in LABELS),
        )
    )


_KERNEL_OPS = st.deferred(lambda: st.sampled_from(_kernel_ops()))
_KERNEL_STATES = st.one_of(
    st.deferred(lambda: st.sampled_from([*NAMED_STATES.values(), chsh_max_state()])),
    st.integers(0, 2**32 - 1).map(lambda seed: random_states(1, seed)[0]),
)


@given(_KERNEL_STATES, st.lists(_KERNEL_OPS, min_size=1, max_size=30))
@settings(max_examples=200)
def test_property_expectations_equal_vdot_bit_for_bit(state, ops):
    got = expectations(state, np.array(ops))
    expected = np.array([np.vdot(state, op @ state).real for op in ops])
    assert got.tobytes() == expected.tobytes()
    assert [_expectation(state, op) for op in ops] == expected.tolist()


def test_expectations_checks_every_operator_of_the_stack():
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1.0
    stack = np.array([pauli_tensor(l, r) for l in LABELS for r in LABELS] + [skew])
    assert is_hermitian(stack[:-1]) and not is_hermitian(stack)
    # Hermitian, but not a two-qubit operator
    assert not is_hermitian(np.eye(3))
    with pytest.raises(ValueError, match="not Hermitian"):
        expectations(product_ket("00"), stack)


def test_expectations_refuses_a_complex_value(monkeypatch):
    # 1j * I passes a Hermiticity check that always says yes; <1j * I> = 1j
    monkeypatch.setattr(qm, "is_hermitian", lambda op: True)
    stack = np.array([pauli_tensor("Z", "Z"), 1j * np.eye(4)])
    with pytest.raises(InternalConsistencyError, match="came out complex"):
        expectations(product_ket("00"), stack)


def test_expectations_refuses_a_nan_imaginary_part():
    # Hermitian and applied to a unit ket, but its value overflows to inf + nan*1j
    ops = np.full((1, 4, 4), 1e308, complex)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InternalConsistencyError, match="came out complex"):
            expectations(ket([0.5] * 4), ops)


def test_expectations_refuses_a_ket_off_by_a_millionth():
    state = np.array([1.0 + 1e-6, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="state is not normalized"):
        expectations(state, np.array([pauli_tensor("Z", "Z")]))


@pytest.mark.parametrize(
    "ops",
    [pauli_tensor("Z", "Z"), np.zeros((2, 3, 3)), np.zeros((0, 4, 4)), np.zeros((1, 1, 4, 4))],
    ids=["4x4", "kx3x3", "empty", "4-d"],
)
def test_expectations_refuses_anything_but_a_stack_of_4x4_matrices(ops):
    with pytest.raises(ValueError):
        expectations(product_ket("00"), ops)


def test_apply_identity():
    assert np.array_equal(apply(np.eye(4), product_ket("01")), product_ket("01"))


def test_apply_zz_flips_sign_of_01():
    assert np.array_equal(apply(pauli_tensor("Z", "Z"), product_ket("01")), -product_ket("01"))


def test_apply_yy_on_00():
    # oracle: entry (3,0) of Y(x)Y is -1, all other column-0 entries vanish
    assert np.array_equal(apply(pauli_tensor("Y", "Y"), product_ket("00")), -product_ket("11"))


def test_ket_validates_shape_and_norm():
    with pytest.raises(ValueError):
        ket([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        ket([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        ket([np.nan, 0.0, 0.0, 0.0])
    v = ket([2.0, 0.0, 0.0, 0.0], normalize=True)
    assert np.array_equal(v, product_ket("00"))
    for zero in ([0.0, 0.0, 0.0, 0.0], [-0.0, 0.0, -0.0j, 0.0]):
        with pytest.raises(ValueError, match="zero vector"):
            ket(zero, normalize=True)


def test_ket_refuses_a_norm_off_by_a_millionth():
    for norm in (1.0 + 1e-6, 1.0 - 1e-6):
        with pytest.raises(ValueError, match="not normalized"):
            ket([norm, 0.0, 0.0, 0.0])
        assert not is_normalized(np.array([norm, 0.0, 0.0, 0.0], dtype=complex))
    assert np.array_equal(ket([1.0 + 1e-10, 0.0, 0.0, 0.0]), [1.0 + 1e-10, 0, 0, 0])


_PART = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e308, -1.7e308, 1e-160, 5e-324, 0.0]),
)


@given(st.lists(st.tuples(_PART, _PART), min_size=4, max_size=4))
@example([(1e308, 0.0), (1e308, 0.0), (0.0, 0.0), (0.0, 0.0)])
@example([(1.7e308, 1.7e308), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)])
@example([(1e-160, 0.0), (0.0, 1e-160), (0.0, 0.0), (0.0, 0.0)])
@settings(max_examples=200)
def test_normalize_returns_a_unit_ket_or_raises(parts):
    v = np.array([complex(re, im) for re, im in parts])
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    try:
        unit = ket(v, normalize=True)
    except ValueError:
        assert norm < 1e-300 and not np.any(v)
        return
    assert is_normalized(unit)
    if np.isfinite(norm) and norm > 0 and is_normalized(v / norm):
        assert unit.tobytes() == (v / norm).tobytes()


@pytest.mark.parametrize(
    "components, expected",
    [
        ([1e-301, 0, 0, 0], [1, 0, 0, 0]),
        ([5e-324, 0, 0, 0], [1, 0, 0, 0]),
        ([-0.0, 0, 0, 5e-324j], [0, 0, 0, 1j]),
        ([1e-300, 0, 1e-300, 0], [2**-0.5, 0, 2**-0.5, 0]),
    ],
)
def test_normalize_rescales_any_nonzero_vector(components, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or division warning either
        unit = ket(components, normalize=True)
    assert is_normalized(unit)
    assert np.allclose(unit, np.array(expected, dtype=complex), rtol=0, atol=1e-15)


def test_inner_is_conjugate_linear_in_first_argument():
    a = np.array([1j, 0, 0, 0])
    b = np.array([1.0, 0, 0, 0])
    assert inner(a, b) == pytest.approx(-1j)


def test_projector_and_side_projector_are_projectors():
    p = projector(product_ket("0+"))
    assert np.max(np.abs(p @ p - p)) <= 1e-12
    for axis in ("X", "Z"):
        for sign in (1, -1):
            for side in ("left", "right"):
                q = side_projector(axis, sign, side)
                assert np.max(np.abs(q @ q - q)) <= 1e-12
                assert np.max(np.abs(q - q.conj().T)) <= 1e-12


def test_side_projector_resolves_identity():
    total = side_projector("Z", 1, "left") + side_projector("Z", -1, "left")
    assert np.max(np.abs(total - np.eye(4))) <= 1e-12


def test_side_projector_rejects_bad_arguments():
    with pytest.raises(ValueError):
        side_projector("Z", 2, "left")
    with pytest.raises(ValueError):
        side_projector("Z", 1, "middle")
    with pytest.raises(ValueError):
        side_projector("I", 1, "left")
