import numpy as np
import pytest
import dense_oracle
from helpers import cost_from_coherence, maximally_mixed, random_density_matrix

from nibp_lab.hamiltonians import (
    Hamiltonian,
    cost,
    h_norm,
    h_norm_bound,
    h_vector,
    random_two_local,
    two_local_strings,
)
from nibp_lab.pauli import (
    ENGINE_MIN_QUBITS,
    DensityMatrix,
    DimensionMismatchError,
    _pauli_matrix,
    pauli_rows,
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


def test_hamiltonian_refuses_a_coefficient_that_is_not_finite():
    # a NaN coefficient was accepted, and h_norm and every cost came out NaN
    with pytest.raises(ValueError, match="coefficient of 'XI' is nan, not finite"):
        Hamiltonian(n=2, terms=(("XI", float("nan")),))
    with pytest.raises(ValueError, match="coefficient of 'ZZ' is -inf"):
        Hamiltonian(n=2, terms=(("XI", 1.0), ("ZZ", -np.inf)))
    with pytest.raises(ValueError, match="h0 is inf"):
        Hamiltonian(n=2, terms=(("XI", 1.0),), h0=np.inf)
    # a bad string is named before a bad coefficient
    with pytest.raises(ValueError, match="'XQ'"):
        Hamiltonian(n=2, terms=(("XI", np.nan), ("XQ", 1.0)))


def test_each_refusal_names_the_first_bad_string_in_term_order():
    # the strings are checked together; a fault is named as the
    # string-by-string check names it, the first bad string first
    with pytest.raises(ValueError, match="'ZZ' is listed twice"):
        Hamiltonian(n=2, terms=(("ZZ", 1.0), ("XI", 1.0), ("ZZ", 1.0), ("II", 1.0)))
    with pytest.raises(ValueError, match="identity component"):
        Hamiltonian(n=2, terms=(("XI", 1.0), ("II", 1.0), ("XI", 1.0)))
    with pytest.raises(DimensionMismatchError, match="'XZZ'"):
        Hamiltonian(n=2, terms=(("XI", 1.0), ("XZZ", 1.0), ("Q", 1.0)))
    with pytest.raises(ValueError, match="invalid Pauli letters: 'xI'"):
        Hamiltonian(n=2, terms=(("XI", 1.0), ("xI", 1.0)))
    for bad in ("", None, "XÏ"):
        with pytest.raises(ValueError, match="invalid Pauli letters"):
            Hamiltonian(n=2, terms=(("XI", 1.0), (bad, 1.0)))
    with pytest.raises(ValueError, match="invalid Pauli letters: ''"):
        Hamiltonian(n=0, terms=(("", 1.0),))


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
    for n in range(2, 10):
        H = random_two_local(n, seed=7)
        assert H.locality == 2
        assert abs(H.hs_norm() - 1.0) < 1e-13
        assert abs(H.ground_energy()) < 1e-13
        assert all("Y" not in s for s, _ in H.terms)


def test_random_two_local_equals_the_three_hamiltonian_form_word_for_word():
    # below ENGINE_MIN_QUBITS the draw solves the complex matrix, as the
    # three-Hamiltonian form does, so every value stays bit for bit; from
    # it on it solves the real matrix, which moves only the last bits
    for n in range(2, 9):
        for seed in (n, 100 + n):
            got, want = random_two_local(n, seed), dense_oracle.random_two_local(n, seed)
            assert [s for s, _ in got.terms] == [s for s, _ in want.terms]
            coeffs = np.array([c for _, c in got.terms])
            want_coeffs = np.array([c for _, c in want.terms])
            if n < ENGINE_MIN_QUBITS:
                assert coeffs.tobytes() == want_coeffs.tobytes()
                assert np.float64(got.h0).tobytes() == np.float64(want.h0).tobytes()
                assert got.matrix().tobytes() == want.matrix().tobytes()
                assert got.ground_energy() == want.ground_energy()
                assert got.hs_norm() == want.hs_norm()
            else:
                assert np.abs(coeffs - want_coeffs).max() <= 1e-15
                assert abs(got.h0 - want.h0) <= 1e-14
                assert got.matrix().tobytes() == _add_at_scatter(got).tobytes()
                assert abs(got.ground_energy()) <= 1e-14


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_a_draw_builds_one_hamiltonian_and_one_matrix_to_solve(monkeypatch, n):
    built, solved = [], []
    post_init, eigvalsh = Hamiltonian.__post_init__, np.linalg.eigvalsh
    monkeypatch.setattr(Hamiltonian, "__post_init__",
                        lambda self: (built.append(self), post_init(self))[1])
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: (solved.append(a), eigvalsh(a))[1])
    H = random_two_local(n, seed=n)
    assert len(built) == 1 and built[0] is H
    # X and Z letters make the drawn matrix real; the real solve starts
    # where the depth sweeps' complex rounding is no longer pinned
    [drawn] = solved
    assert drawn.shape == (2**n, 2**n)
    assert drawn.dtype == (np.float64 if n >= ENGINE_MIN_QUBITS else np.complex128)
    assert "_matrix" not in vars(H)
    cost(H, maximally_mixed(n))
    assert "_matrix" in vars(H) and len(solved) == 1


def test_cost_refuses_one_hamiltonian_for_a_stack():
    H = random_two_local(2, 0)
    states = np.stack([np.eye(4, dtype=complex) / 4] * 2)
    with pytest.raises(TypeError, match="takes a list of 2 Hamiltonians"):
        cost(H, states)
    np.testing.assert_array_equal(cost([H, H], states), [cost(H, DensityMatrix(s)) for s in states])


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


def test_batched_cost_is_each_rows_trace_bit_for_bit():
    # whether the rows share one Hamiltonian or each has its own, each row
    # gets the bits of its row alone; below ENGINE_MIN_QUBITS those are the
    # bits of the single-state trace of H rho, from it on the entry sum
    # agrees with that trace within 1e-15
    rng = np.random.default_rng(32)
    for n in range(2, 8):
        rhos = np.stack([random_density_matrix(n, rng).data for _ in range(5)])
        hs = [random_two_local(n, rng) for _ in range(5)]
        for rows in (hs, [hs[0]] * 5):
            single = np.array([float(np.trace(h.matrix() @ r).real) for h, r in zip(rows, rhos)])
            got = cost(rows, rhos)
            assert got.shape == (5,)
            again = np.array([cost(h, DensityMatrix(r)) for h, r in zip(rows, rhos)])
            np.testing.assert_array_equal(again.view(np.uint64), got.view(np.uint64))
            if n < ENGINE_MIN_QUBITS:
                np.testing.assert_array_equal(got.view(np.uint64), single.view(np.uint64))
            else:
                np.testing.assert_allclose(got, single, rtol=0, atol=1e-15)


def test_cost_refuses_a_list_for_one_state():
    H = random_two_local(3, 0)
    with pytest.raises(TypeError, match="one state takes one Hamiltonian, not a list of 1"):
        cost([H], DensityMatrix.ground_state(3))


@pytest.mark.parametrize("n", [3, ENGINE_MIN_QUBITS])
def test_cost_refuses_an_empty_stack(n):
    d = 2**n
    with pytest.raises(ValueError, match=rf"expected at least one state, got shape \(0, {d}, {d}\)"):
        cost([], np.zeros((0, d, d)))


def test_batched_cost_refusals():
    rng = np.random.default_rng(33)
    rhos = np.stack([random_density_matrix(3, rng).data for _ in range(3)])
    hs = [random_two_local(3, rng) for _ in range(3)]
    with pytest.raises(ValueError, match="2 Hamiltonians for 3 states"):
        cost(hs[:2], rhos)
    with pytest.raises(DimensionMismatchError, match="H has n=2, state n=3"):
        cost([hs[0], random_two_local(2, rng), hs[2]], rhos)
    with pytest.raises(DimensionMismatchError, match=r"\(8, 8\) are not a \(B, d, d\) stack"):
        cost(hs[0], rhos[0])
    # every row's imaginary residual is checked, past a NaN row too
    bad = rhos.copy()
    bad[0, 0, 0] = np.nan
    bad[2] += 0.5j * np.eye(8)
    with pytest.raises(ValueError, match="imaginary residual"):
        cost(hs, bad)


def test_cost_special_states():
    H = Hamiltonian(n=1, terms=(("Z", 1.0),))
    assert abs(cost(H, DensityMatrix.ground_state(1)) - 1.0) < 1e-14
    assert abs(cost(H, maximally_mixed(1))) < 1e-14
    H2 = random_two_local(3, seed=5)
    mixed = cost(H2, maximally_mixed(3))
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


def _dense_sum(H):
    """h0 / sqrt(d) I plus coeff * P for each term in turn, P the dense
    string matrix: the sum ``Hamiltonian.matrix`` scatters."""
    d = 2**H.n
    mat = (H.h0 / np.sqrt(d)) * np.eye(d, dtype=complex)
    for letters, coeff in H.terms:
        mat = mat + coeff * _pauli_matrix(letters)
    return mat


def _add_at_scatter(H):
    """h0 / sqrt(d) I, then each term's one nonzero per row added in term
    order by ``np.add.at``: the scatter ``Hamiltonian.matrix`` runs as one
    ``np.bincount``."""
    d = 2**H.n
    mat = (H.h0 / np.sqrt(d)) * np.eye(d, dtype=complex)
    strings, coeffs = zip(*H.terms)
    flips, phases = pauli_rows(strings)
    rows = np.arange(d)
    np.add.at(mat, (rows, rows ^ flips[:, None]), np.array(coeffs)[:, None] * phases)
    return mat


def test_pauli_rows_are_the_one_nonzero_of_each_row(monkeypatch):
    # NumPy 1.x has no bitwise_count; the row signs must not need it
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    rng = np.random.default_rng(17)
    for n in range(1, 7):
        strings = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(12)]
        flips, phases = pauli_rows(strings)
        rows = np.arange(2**n)
        for letters, flip, phase in zip(strings, flips, phases):
            mat = np.zeros((2**n, 2**n), dtype=complex)
            mat[rows, rows ^ flip] = phase
            assert np.array_equal(mat, _pauli_matrix(letters)), letters


def test_pauli_rows_equal_the_string_by_string_parse_word_for_word():
    # every letter at every qubit, Y included, and each Y count mod 4
    rng = np.random.default_rng(73)
    for n in range(1, 9):
        strings = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(40)]
        strings += ["Y" * k + "I" * (n - k) for k in range(1, n + 1)]
        got, want = pauli_rows(strings), dense_oracle.pauli_rows(strings)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), n


def test_matrix_scatter_equals_the_dense_sum():
    # random_two_local (X and Z letters, positive coefficients and h0):
    # word for word, so every cost and ground energy is unchanged
    rng = np.random.default_rng(29)
    for k in range(30):
        H = random_two_local(2 + k % 6, rng)
        assert np.array_equal(H.matrix().view(np.uint64), _dense_sum(H).view(np.uint64))
        assert H.matrix().tobytes() == _add_at_scatter(H).tobytes()
    # mixed signs and Y letters: equal values; only the sign of a zero may
    # differ, since the dense sum also adds each string's zero entries
    for k in range(30):
        n = 1 + k % 6
        strings = sorted({"".join(rng.choice(list("IXYZ"), n)) for _ in range(8)} - {"I" * n})
        H = Hamiltonian(n=n, terms=tuple((s, float(rng.normal())) for s in strings),
                        h0=float(rng.normal()))
        assert np.array_equal(H.matrix(), _dense_sum(H))
    # the strings of a Hamiltonian no longer fill the dense string cache
    _pauli_matrix.cache_clear()
    random_two_local(5, rng).matrix()
    assert _pauli_matrix.cache_info().currsize == 0
