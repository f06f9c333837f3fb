import numpy as np
import pytest
from helpers import maximally_mixed, purity_identity_check, random_pure_state, validate

from nibp_lab.pauli import (
    DensityMatrix,
    DimensionMismatchError,
    InvalidStateError,
    SizeError,
    _pauli_matrix,
    build_nice_basis,
    check_pauli,
    from_coherence,
    hamming_weight,
    pauli_strings_by_weight,
    random_density_matrix,
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
