import numpy as np
import pytest

from nibp_lab.hamiltonians import (
    Hamiltonian,
    cost,
    cost_from_coherence,
    h_norm,
    h_norm_bound,
    h_vector,
    random_two_local,
    two_local_strings,
)
from nibp_lab.pauli import (
    DensityMatrix,
    DimensionMismatchError,
    random_density_matrix,
)


def test_single_z_coordinates():
    H = Hamiltonian(n=1, terms=(("Z", 1.0),))
    h0, h = h_vector(H)
    assert h0 == 0.0
    np.testing.assert_allclose(h, [0.0, 0.0, np.sqrt(2.0)], atol=1e-14)
    assert abs(h_norm(H) - np.sqrt(2.0)) < 1e-14
    assert abs(H.hs_norm() - np.sqrt(2.0)) < 1e-14


def test_hamiltonian_refuses_a_string_listed_twice():
    # X twice read as coefficient 3 in matrix(), as 2 in h_vector
    # (||h|| = 2 sqrt(2)) and as sqrt(10) by h_norm; the summed term has
    # ||h|| = 3 sqrt(2)
    with pytest.raises(ValueError, match="'X' is listed twice"):
        Hamiltonian(n=1, terms=(("X", 1.0), ("X", 2.0)))


def test_identity_component_carries_trace():
    H = Hamiltonian(n=2, terms=(), h0=2.0)
    assert abs(H.trace() - 4.0) < 1e-14
    np.testing.assert_allclose(H.matrix(), np.eye(4), atol=1e-14)
    with pytest.raises(ValueError):
        Hamiltonian(n=2, terms=(("II", 1.0),))


def test_terms_are_checked_pauli_strings():
    with pytest.raises(ValueError, match="'Q'"):
        Hamiltonian(n=1, terms=(("Q", 1.0),))
    with pytest.raises(DimensionMismatchError, match="'XZ'"):
        Hamiltonian(n=3, terms=(("XZ", 1.0),))


def test_parseval_split_of_hs_norm():
    rng = np.random.default_rng(30)
    for n in (2, 3):
        H = random_two_local(n, rng)
        h0, h = h_vector(H)
        # matrix-level Frobenius norm agrees with the coordinate split
        frob = np.linalg.norm(H.matrix())
        assert abs(frob - np.sqrt(h0**2 + h @ h)) < 1e-12
        assert abs(frob - H.hs_norm()) < 1e-12
        assert abs(h_norm(H) - np.linalg.norm(h)) < 1e-12


def test_two_local_string_enumeration():
    assert two_local_strings(2) == ["XI", "ZI", "IX", "IZ", "XX", "XZ", "ZX", "ZZ"]
    strings = two_local_strings(3)
    assert len(strings) == 2 * 3 + 4 * 3  # weight-1 and weight-2 over {X, Z}
    assert len(set(strings)) == len(strings)
    assert all(set(s) <= {"I", "X", "Z"} for s in strings)


def test_random_two_local_invariants():
    for n in (2, 3, 4, 5, 6):
        H = random_two_local(n, seed=7)
        assert H.locality == 2
        assert abs(H.hs_norm() - 1.0) < 1e-10
        assert abs(H.ground_energy()) < 1e-10
        assert all("Y" not in s for s, _ in H.terms)


def test_random_two_local_determinism():
    a = random_two_local(3, seed=11)
    b = random_two_local(3, seed=11)
    assert a.terms == b.terms and a.h0 == b.h0


def test_h_norm_bound_values():
    assert abs(h_norm_bound(4, 1, 1.0) - 2.0) < 1e-14
    assert abs(h_norm_bound(4, 2, 1.0) - 4.0) < 1e-14
    assert abs(h_norm_bound(9, 2, 0.5) - 4.5) < 1e-14
    with pytest.raises(ValueError):
        h_norm_bound(3, 2, 1.0)  # K > n/2 outside the bound's regime
    with pytest.raises(ValueError):
        h_norm_bound(4, 0, 1.0)


def test_h_norm_bound_holds_for_generated_instances():
    # coefficients land in [0, 1), so h_max = 1 before normalization; after
    # unit normalization the bound applies with h_max = max |coeff| sqrt(d)
    for n in (4, 5, 6):
        H = random_two_local(n, seed=n)
        h_max = max(abs(c) for _, c in H.terms) * np.sqrt(2**H.n)
        assert h_norm(H) <= h_norm_bound(n, 2, h_max) + 1e-12


def test_cost_paths_agree():
    rng = np.random.default_rng(31)
    for n in (2, 3):
        H = random_two_local(n, rng)
        rho = random_density_matrix(n, rng)
        assert abs(cost(H, rho) - cost_from_coherence(H, rho)) < 1e-12


def test_cost_special_states():
    H = Hamiltonian(n=1, terms=(("Z", 1.0),))
    assert abs(cost(H, DensityMatrix.ground_state(1)) - 1.0) < 1e-14
    assert abs(cost(H, DensityMatrix.maximally_mixed(1))) < 1e-14
    H2 = random_two_local(3, seed=5)
    mixed = cost(H2, DensityMatrix.maximally_mixed(3))
    assert abs(mixed - H2.trace() / 8) < 1e-12


def test_matrix_built_once_and_read_only():
    H = random_two_local(3, seed=11)
    mat = H.matrix()
    assert H.matrix() is mat
    assert not mat.flags.writeable
    # the cache is no field: equality and hashing see the terms only
    twin = Hamiltonian(n=H.n, terms=H.terms, h0=H.h0)
    assert twin == H and hash(twin) == hash(H)
    np.testing.assert_array_equal(twin.matrix(), mat)
