from functools import reduce

import dense_oracle
import numpy as np
import pytest
from helpers import (
    maximally_mixed,
    purity_identity_check,
    random_density_matrix,
    random_pure_state,
    validate,
)

from nibp_lab.pauli import (
    MAX_QUBITS,
    DensityMatrix,
    DimensionMismatchError,
    InvalidStateError,
    SizeError,
    _density_from_paulis,
    _mask_tables,
    _pauli_matrix,
    _paulis_from_density,
    build_nice_basis,
    check_pauli,
    from_coherence,
    hamming_weight,
    pauli_strings_by_weight,
    to_coherence,
)


def test_single_qubit_basis_is_normalized_paulis():
    basis = build_nice_basis(1)
    s = np.sqrt(2.0)
    assert pauli_strings_by_weight(1) == ("I", "X", "Y", "Z")
    np.testing.assert_allclose(basis[0], np.eye(2) / s)
    np.testing.assert_allclose(
        basis[3], np.diag([1.0, -1.0]) / s
    )


def test_two_qubit_basis_weight_ordering():
    basis = build_nice_basis(2)
    assert basis.shape == (16, 4, 4)
    weights = [hamming_weight(s) for s in pauli_strings_by_weight(2)]
    assert weights[0] == 0
    assert all(w == 1 for w in weights[1:7])
    assert all(w == 2 for w in weights[7:])


def test_basis_orthonormality_and_tracelessness():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        basis = build_nice_basis(n)
        for _ in range(100):
            j, k = rng.integers(0, len(basis), size=2)
            ip = np.trace(basis[j].conj().T @ basis[k])
            assert abs(ip - (1.0 if j == k else 0.0)) < 1e-12
        for j in range(1, len(basis)):
            assert abs(np.trace(basis[j])) < 1e-12


def test_basis_size_guard():
    with pytest.raises(SizeError):
        build_nice_basis(0)
    with pytest.raises(SizeError):
        build_nice_basis(10)


@pytest.mark.parametrize("n", range(1, 6))
def test_basis_build_leaves_the_pauli_matrix_cache_alone(n):
    # the build once kept every string's matrix in the cache: 4,096 matrices
    # of 64 x 64 beside the 256 MiB stack at n = 6
    _pauli_matrix.cache_clear()
    stack = build_nice_basis.__wrapped__(n)
    assert _pauli_matrix.cache_info().currsize == 0
    # word for word the stack of each string's left-to-right kron, scaled
    want = np.stack([reduce(np.kron, map(_pauli_matrix, letters))
                     for letters in pauli_strings_by_weight(n)]) / np.sqrt(2**n)
    assert np.array_equal(stack.view(np.uint64), want.view(np.uint64))


def test_pauli_string_properties():
    assert check_pauli("XIZ", 3) == "XIZ"
    assert hamming_weight("XIZ") == 2
    m = _pauli_matrix("XIZ")
    np.testing.assert_allclose(m, m.conj().T)
    np.testing.assert_allclose(m @ m, np.eye(8))
    for bad in ("XQ", "", "xi", None):
        with pytest.raises(ValueError, match="invalid Pauli letters"):
            check_pauli(bad, 2)
    with pytest.raises(DimensionMismatchError, match="'XIZ'"):
        check_pauli("XIZ", 2)


def test_string_enumeration_counts():
    assert len(pauli_strings_by_weight(2)) == 16
    assert len(pauli_strings_by_weight(3)) == 64
    # both are built once per n and cannot be edited in place
    assert pauli_strings_by_weight(3) is pauli_strings_by_weight(3)
    assert isinstance(pauli_strings_by_weight(3), tuple)
    assert build_nice_basis(3) is build_nice_basis(3)
    assert not build_nice_basis(3).flags.writeable


def test_maximally_mixed_has_zero_vector():
    v = to_coherence(maximally_mixed(2))
    np.testing.assert_allclose(v, 0.0, atol=1e-15)


def test_ground_state_vector_single_qubit():
    v = to_coherence(DensityMatrix.ground_state(1))
    np.testing.assert_allclose(v, [0.0, 0.0, 1.0 / np.sqrt(2)], atol=1e-15)


def test_pure_state_vector_norm():
    rng = np.random.default_rng(1)
    for _ in range(10):
        v = to_coherence(random_pure_state(2, rng))
        assert abs(np.linalg.norm(v) - np.sqrt(1.0 - 0.25)) < 1e-10


def test_round_trip_random_states():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        for _ in range(100):
            rho = random_density_matrix(n, rng)
            back = from_coherence(to_coherence(rho))
            assert np.abs(back.data - rho.data).max() < 1e-12


def _basis_coherence(rho):
    """v_j = Tr(F_j rho) summed over the dense basis, as ``to_coherence``
    once computed it."""
    return np.real(np.einsum("jab,ba->j", build_nice_basis(rho.n)[1:], rho.data))


@pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
def test_coherence_maps_run_at_every_width(n):
    # both maps once built the (4^n, 2^n, 2^n) basis: 4.3 GB at n = 7
    rho = random_density_matrix(n, np.random.default_rng(n))
    d = 2**n
    v = to_coherence(rho)
    assert v.shape == (4**n - 1,)
    assert abs(v @ v - (rho.purity() - 1.0 / d)) < 1e-12
    back = from_coherence(v).data
    np.testing.assert_allclose(back, rho.data, rtol=0, atol=1e-12)
    if n <= 5:
        np.testing.assert_allclose(v, _basis_coherence(rho), rtol=0, atol=1e-12)
        want = np.eye(d) / d + np.tensordot(v, build_nice_basis(n)[1:], axes=1)
        np.testing.assert_allclose(back, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
def test_paulis_from_density_inverts_density_from_paulis(n):
    # evolve turns Pauli components into density matrices and back around
    # every gate that has no map on the strings: a stack of two states
    # and their components each come back within 1e-15
    rng = np.random.default_rng(n)
    rho = np.stack([random_density_matrix(n, rng).data for _ in range(2)])
    x = _paulis_from_density(rho, np.empty((2, 4**n)))
    np.testing.assert_allclose(x[:, 0], 1.0, rtol=0, atol=1e-15)  # Tr(rho)
    back = _density_from_paulis(x, np.empty(4 * x.size))
    np.testing.assert_allclose(back, rho, rtol=0, atol=1e-15)
    again = _paulis_from_density(back, np.empty((2, 4**n)))
    np.testing.assert_allclose(again, x, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
def test_density_from_paulis_equals_the_two_part_form_word_for_word(n):
    # 1/d folded into the Hadamard matrix (a power of two, so exact) and
    # one gather of both phase parts give the bits of scaling and
    # gathering each part on its own, on a random stack and through
    # from_coherence
    rng = np.random.default_rng(n)
    x = rng.uniform(-1, 1, size=(3 if n < MAX_QUBITS else 1, 4**n))
    got = _density_from_paulis(x, np.empty(4 * x.size))
    assert np.array_equal(got.view(np.uint64), dense_oracle.density_from_paulis(x).view(np.uint64))
    v = to_coherence(random_density_matrix(n, rng))
    natural = np.empty((1, 4**n))
    natural[0, _mask_tables(n).hamming] = np.concatenate(([1.0], np.sqrt(2**n) * v))
    want = dense_oracle.density_from_paulis(natural)[0]
    assert np.array_equal(from_coherence(v).data.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_ground_state_coherence_vector_keeps_its_bits(n):
    # contractivity_profile starts every bound report from this vector
    got = to_coherence(DensityMatrix.ground_state(n))
    want = _basis_coherence(DensityMatrix.ground_state(n))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_from_coherence_plus_state():
    v = np.array([1.0 / np.sqrt(2), 0.0, 0.0])
    rho = from_coherence(v)
    np.testing.assert_allclose(rho.data, np.full((2, 2), 0.5), atol=1e-14)


def test_from_coherence_rejects_nonpositive():
    # norm sqrt(3)/2 along one weight-2 axis respects the norm cap for n=2
    # yet fails positivity
    vec = np.zeros(15)
    vec[-1] = np.sqrt(3.0) / 2.0
    with pytest.raises(InvalidStateError) as err:
        from_coherence(vec)
    assert err.value.min_eigenvalue < 0


def test_from_coherence_rejects_a_wrong_length_vector():
    for vec in (np.zeros(16), np.zeros((15, 1))):
        with pytest.raises(DimensionMismatchError):
            from_coherence(vec)


def test_purity_identity():
    rng = np.random.default_rng(3)
    purity, vnorm, residual = purity_identity_check(
        maximally_mixed(2)
    )
    assert abs(purity - 0.25) < 1e-12 and vnorm < 1e-12
    for _ in range(20):
        _, _, residual = purity_identity_check(random_density_matrix(3, rng))
        assert residual <= 1e-10


def test_validate_rejects_bad_states():
    bad = DensityMatrix(np.array([[1.2, 0.0], [0.0, -0.2]]))
    with pytest.raises(InvalidStateError):
        validate(bad)
