import numpy as np
import pytest

from nibp_lab.pauli import (
    DensityMatrix,
    DimensionMismatchError,
    InvalidStateError,
    PauliString,
    SizeError,
    build_nice_basis,
    from_coherence,
    pauli_strings_by_weight,
    purity_identity_check,
    random_density_matrix,
    random_pure_state,
    to_coherence,
)


def test_single_qubit_basis_is_normalized_paulis():
    basis = build_nice_basis(1)
    s = np.sqrt(2.0)
    assert basis.strings == ("I", "X", "Y", "Z")
    np.testing.assert_allclose(basis.element(0), np.eye(2) / s)
    np.testing.assert_allclose(
        basis.element(3), np.diag([1.0, -1.0]) / s
    )


def test_two_qubit_basis_weight_ordering():
    basis = build_nice_basis(2)
    assert basis.size == 16
    weights = [basis.hamming_weight(j) for j in range(16)]
    assert weights[0] == 0
    assert all(w == 1 for w in weights[1:7])
    assert all(w == 2 for w in weights[7:])


def test_basis_orthonormality_and_tracelessness():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        basis = build_nice_basis(n)
        for _ in range(100):
            j, k = rng.integers(0, basis.size, size=2)
            ip = np.trace(basis.element(j).conj().T @ basis.element(k))
            assert abs(ip - (1.0 if j == k else 0.0)) < 1e-12
        for j in range(1, basis.size):
            assert abs(np.trace(basis.element(j))) < 1e-12


def test_basis_size_guard():
    with pytest.raises(SizeError):
        build_nice_basis(0)
    with pytest.raises(SizeError):
        build_nice_basis(10)


def test_pauli_string_properties():
    p = PauliString("XIZ")
    assert p.n == 3
    assert p.hamming_weight == 2
    m = p.matrix()
    np.testing.assert_allclose(m, m.conj().T)
    np.testing.assert_allclose(m @ m, np.eye(8))
    with pytest.raises(ValueError):
        PauliString("XQ")


def test_string_enumeration_counts():
    assert len(pauli_strings_by_weight(2)) == 16
    assert len(pauli_strings_by_weight(3)) == 64


def test_maximally_mixed_has_zero_vector():
    basis = build_nice_basis(2)
    v = to_coherence(DensityMatrix.maximally_mixed(2), basis)
    np.testing.assert_allclose(v, 0.0, atol=1e-15)


def test_ground_state_vector_single_qubit():
    basis = build_nice_basis(1)
    v = to_coherence(DensityMatrix.ground_state(1), basis)
    np.testing.assert_allclose(v, [0.0, 0.0, 1.0 / np.sqrt(2)], atol=1e-15)


def test_pure_state_vector_norm():
    rng = np.random.default_rng(1)
    basis = build_nice_basis(2)
    for _ in range(10):
        v = to_coherence(random_pure_state(2, rng), basis)
        assert abs(np.linalg.norm(v) - np.sqrt(1.0 - 0.25)) < 1e-10


def test_round_trip_random_states():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        basis = build_nice_basis(n)
        for _ in range(100):
            rho = random_density_matrix(n, rng)
            back = from_coherence(to_coherence(rho, basis), basis)
            assert np.abs(back.data - rho.data).max() < 1e-12


def test_from_coherence_plus_state():
    basis = build_nice_basis(1)
    v = np.array([1.0 / np.sqrt(2), 0.0, 0.0])
    rho = from_coherence(v, basis)
    np.testing.assert_allclose(rho.data, np.full((2, 2), 0.5), atol=1e-14)


def test_from_coherence_rejects_nonpositive():
    # norm sqrt(3)/2 along one weight-2 axis respects the norm cap for n=2
    # yet fails positivity
    basis = build_nice_basis(2)
    vec = np.zeros(15)
    vec[-1] = np.sqrt(3.0) / 2.0
    with pytest.raises(InvalidStateError) as err:
        from_coherence(vec, basis)
    assert err.value.min_eigenvalue < 0


def test_from_coherence_rejects_a_wrong_length_vector():
    basis = build_nice_basis(2)
    for vec in (np.zeros(3), np.zeros(16), np.zeros((15, 1))):
        with pytest.raises(DimensionMismatchError):
            from_coherence(vec, basis)


def test_purity_identity():
    rng = np.random.default_rng(3)
    purity, vnorm, residual = purity_identity_check(
        DensityMatrix.maximally_mixed(2)
    )
    assert abs(purity - 0.25) < 1e-12 and vnorm < 1e-12
    for _ in range(20):
        _, _, residual = purity_identity_check(random_density_matrix(3, rng))
        assert residual <= 1e-10


def test_validate_rejects_bad_states():
    bad = DensityMatrix(n=1, data=np.array([[1.2, 0.0], [0.0, -0.2]]))
    with pytest.raises(InvalidStateError):
        bad.validate()
