import re

import numpy as np
import pytest
from dense_oracle import every_qubit_kernel
from helpers import (
    random_channel,
    random_density_matrix,
    random_nonunital_channel,
    random_unital_channel,
    random_unitary_matrix,
)

from nibp_lab.channels import (
    AffineRep,
    KrausChannel,
    affine_rep,
    amplitude_damping,
    bit_flip,
    classify,
    compose,
    depolarizing,
    flip_then_damp,
    identity_channel,
    named_channel,
    phase_flip,
    polar_decompose,
    tensor_channel,
    unitary_channel,
    validate_kraus,
)
from nibp_lab.circuits import RandomUnitaryNoise, random_unitary_channel
from nibp_lab.hamiltonians import Hamiltonian, cost
from nibp_lab.pauli import (
    MAX_QUBITS,
    DensityMatrix,
    DimensionMismatchError,
    coherence_qubit_count,
    from_coherence,
    qubit_count,
    to_coherence,
)


def test_validate_kraus_reports():
    rep = validate_kraus(amplitude_damping(0.3))
    assert rep.trace_preserving and not rep.unital
    rep = validate_kraus(depolarizing(0.3))
    assert rep.trace_preserving and rep.unital
    lossy = KrausChannel((0.9 * np.eye(2, dtype=complex),))
    rep = validate_kraus(lossy)
    assert not rep.trace_preserving
    assert abs(rep.tp_residual - 0.19) < 1e-12


def _affine_matches_kraus(ch, rho):
    rep = affine_rep(ch)
    v = to_coherence(rho)
    direct = to_coherence(DensityMatrix(ch.apply(rho.data)))
    return np.abs(rep.apply(v) - direct).max()


def test_affine_rep_matches_kraus_action():
    rng = np.random.default_rng(10)
    for n in (1, 2):
        for _ in range(25):
            ch = random_channel(n, rng, kraus_count=int(rng.integers(2, 4)))
            rho = random_density_matrix(n, rng)
            assert _affine_matches_kraus(ch, rho) < 1e-12


def test_amplitude_damping_affine_values():
    p = 0.3
    rep = affine_rep(amplitude_damping(p))
    s = np.sqrt(1.0 - p)
    np.testing.assert_allclose(rep.M, np.diag([s, s, 1.0 - p]), atol=1e-14)
    np.testing.assert_allclose(rep.c_bloch, [0.0, 0.0, p], atol=1e-14)


def test_depolarizing_affine_values():
    rep = affine_rep(depolarizing(0.3))
    np.testing.assert_allclose(rep.M, 0.6 * np.eye(3), atol=1e-14)
    assert np.linalg.norm(rep.c) < 1e-14


def test_bit_flip_affine_values():
    # bit flip applied with probability 1-p leaves x alone, scales y,z by 2p-1
    rep = affine_rep(bit_flip(0.7))
    np.testing.assert_allclose(rep.M, np.diag([1.0, 0.4, 0.4]), atol=1e-14)


def test_polar_decomposition():
    rng = np.random.default_rng(11)
    rep = affine_rep(unitary_channel(random_unitary_matrix(2, rng)))
    o, s, sv = polar_decompose(rep)
    np.testing.assert_allclose(s, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(o @ s, rep.M, atol=1e-10)

    _, _, sv = polar_decompose(affine_rep(amplitude_damping(0.36)))
    np.testing.assert_allclose(sv, [0.8, 0.8, 0.64], atol=1e-12)

    _, _, sv = polar_decompose(affine_rep(flip_then_damp(0.5)))
    np.testing.assert_allclose(sv, [np.sqrt(0.5), 0.0, 0.0], atol=1e-12)


def test_classification():
    assert classify(affine_rep(unitary_channel(np.eye(2)))) == "unitary"
    rep = affine_rep(depolarizing(0.3))
    assert classify(rep) == "unital_nonunitary"
    assert abs(rep.operator_norm() - 0.6) < 1e-12
    rep = affine_rep(amplitude_damping(0.3))
    assert classify(rep) == "hs_contractive_nonunital"
    assert abs(rep.operator_norm() - np.sqrt(0.7)) < 1e-12


def test_compose_matches_sequential_action():
    rng = np.random.default_rng(12)
    first, second = amplitude_damping(0.2), depolarizing(0.4)
    combined = compose(second, first)
    rho = random_density_matrix(1, rng).data
    np.testing.assert_allclose(
        combined.apply(rho), second.apply(first.apply(rho)), atol=1e-13
    )
    # composing affine reps multiplies the M factors
    rep = affine_rep(compose(depolarizing(0.3), depolarizing(0.5)))
    np.testing.assert_allclose(rep.M, 0.6 * (1 - 2 / 3) * np.eye(3), atol=1e-13)


def test_flip_then_damp_is_the_advertised_composite():
    p = 0.4
    direct = affine_rep(flip_then_damp(p))
    via_compose = affine_rep(compose(amplitude_damping(p), bit_flip(0.5)))
    np.testing.assert_allclose(direct.M, via_compose.M, atol=1e-13)
    np.testing.assert_allclose(
        direct.M, np.diag([np.sqrt(1.0 - p), 0.0, 0.0]), atol=1e-13
    )


def test_tensor_channel_action():
    p = 0.25
    ch = tensor_channel([amplitude_damping(p), amplitude_damping(p)])
    one = np.zeros((4, 4), dtype=complex)
    one[3, 3] = 1.0  # |11><11|
    out = ch.apply(one)
    assert abs(out[0, 0] - p * p) < 1e-13
    assert abs(out[3, 3] - (1 - p) ** 2) < 1e-13

    rep = affine_rep(tensor_channel([depolarizing(0.3), depolarizing(0.3)]))
    sv = np.linalg.svd(rep.M, compute_uv=False)
    assert abs(sv.max() - 0.6) < 1e-12
    assert abs(sv.min() - 0.36) < 1e-12


def test_affine_rep_carries_its_singular_values():
    rng = np.random.default_rng(21)
    for ch in (amplitude_damping(0.3), depolarizing(0.2), random_channel(2, rng)):
        rep = affine_rep(ch)
        sv = rep.singular_values
        assert rep.singular_values is sv  # computed once per rep
        np.testing.assert_array_equal(sv, np.linalg.svd(rep.M, compute_uv=False))
        # the same SVD that norm(M, 2) takes the max of
        assert sv[0] == rep.operator_norm() == float(np.linalg.norm(rep.M, 2))
        with pytest.raises(ValueError):
            sv[0] = 0.0


def test_a_channel_carries_one_read_only_affine_map():
    ch = amplitude_damping(0.3)
    rep = affine_rep(ch)
    assert affine_rep(ch) is rep
    assert rep.operator_norm() is rep.operator_norm()  # one float, kept
    for arr in (rep.M, rep.c):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_equal_channels_built_apart_get_their_own_maps():
    # channels compare by identity, so an equal channel is a new cache key
    first, second = depolarizing(0.3), depolarizing(0.3)
    a, b = affine_rep(first), affine_rep(second)
    assert a is not b
    assert np.array_equal(a.M, b.M) and np.array_equal(a.c, b.c)


def test_unital_channels_do_not_increase_purity():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(1, 3))
        ch = random_unital_channel(n, rng)
        rho = random_density_matrix(n, rng)
        out = DensityMatrix(ch.apply(rho.data))
        assert out.purity() <= rho.purity() + 1e-10


def test_unital_contraction_of_coherence_vectors():
    rng = np.random.default_rng(14)
    for _ in range(50):
        ch = random_unital_channel(1, rng)
        rep = affine_rep(ch)
        assert np.linalg.norm(rep.c) < 1e-9
        v = to_coherence(random_density_matrix(1, rng))
        assert np.linalg.norm(rep.M @ v) <= np.linalg.norm(v) + 1e-10


def test_nonunital_channels_strictly_contract():
    rng = np.random.default_rng(15)
    for _ in range(100):
        ch = random_nonunital_channel(1, rng)
        rep = affine_rep(ch)
        assert rep.operator_norm() < 1.0


def test_fixed_point_of_amplitude_damping():
    # the unique fixed point is |0><0|; iterating any state converges to it
    ch = amplitude_damping(0.5)
    rho = np.array([[0.2, 0.1], [0.1, 0.8]], dtype=complex)
    for _ in range(60):
        rho = ch.apply(rho)
    np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-9)


def test_named_channel_registry():
    for name in (
        "identity",
        "depolarizing",
        "amplitude_damping",
        "bit_flip",
        "phase_flip",
        "flip_then_damp",
    ):
        ch = named_channel(name, 0.3)
        assert validate_kraus(ch).trace_preserving
    with pytest.raises(KeyError):
        named_channel("unknown", 0.1)


def test_identity_and_phase_flip():
    rep = affine_rep(identity_channel())
    np.testing.assert_allclose(rep.M, np.eye(3), atol=1e-14)
    rep = affine_rep(phase_flip(0.8))
    np.testing.assert_allclose(rep.M, np.diag([0.6, 0.6, 1.0]), atol=1e-13)


def test_affine_rep_round_trip_state_evolution():
    # evolving via (M, c) then reconstructing the matrix matches Kraus action
    rng = np.random.default_rng(16)
    ch = random_channel(2, rng, kraus_count=3)
    rep = affine_rep(ch)
    rho = random_density_matrix(2, rng)
    v = rep.apply(to_coherence(rho))
    rebuilt = from_coherence(v)
    np.testing.assert_allclose(rebuilt.data, ch.apply(rho.data), atol=1e-12)


def test_kraus_channel_keeps_read_only_copies():
    ch = amplitude_damping(0.3)
    with pytest.raises(ValueError):
        ch.kraus_ops[0][1, 1] = 0.0
    # a caller's later edit of its own arrays does not reach the channel
    ops = [np.array(k) for k in ch.kraus_ops]
    mine = KrausChannel(tuple(ops))
    rho = np.diag([0.5, 0.5]).astype(complex)
    before = mine.apply_to_every_qubit(rho)
    ops[1][0, 1] = 0.0
    ops[0][1, 1] = 1.0
    np.testing.assert_array_equal(mine.apply(rho), before)
    np.testing.assert_array_equal(mine.apply_to_every_qubit(rho), before)
    np.testing.assert_allclose(np.diag(before).real, [0.65, 0.35], atol=1e-15)


def _flipped_qubits(a: np.ndarray) -> int:
    """The number of qubits ``apply_to_every_qubit`` puts a one-qubit
    channel on, for a state of a's shape: the channel flips its qubit, so
    entry (0, 0) of the result is the state's entry at the row and column
    with every such bit set."""
    state = np.arange(a.size, dtype=complex).reshape(a.shape)
    out = bit_flip(0.0).apply_to_every_qubit(state)
    return bin(int(out[0, 0].real) // len(a)).count("1")


def _cost_width(a: np.ndarray) -> int:
    """The k of the k-qubit Hamiltonian whose batched ``cost`` takes the
    one-state stack of a; raises what it raises for the last k tried."""
    for k in range(1, MAX_QUBITS + 2):
        try:
            cost([Hamiltonian(n=k, terms=(("Z" * k, 1.0),))], a[None])
            return k
        except DimensionMismatchError as exc:
            refused = exc
    raise refused


# each reader of a qubit count off a 2^n x 2^n array, as the n it reads
MATRIX_READERS = {
    "qubit_count": lambda a: qubit_count(a.shape),
    "DensityMatrix": lambda a: DensityMatrix(a).n,
    "KrausChannel": lambda a: KrausChannel((a,)).n,
    "apply_to_every_qubit": _flipped_qubits,
    "cost": _cost_width,
}
# each reader of a qubit count off a (4^n - 1,) coherence vector
VECTOR_READERS = {
    "coherence_qubit_count": lambda v: coherence_qubit_count(v.shape),
    "AffineRep": lambda v: AffineRep(np.broadcast_to(0.0, v.shape * 2), v).n,
    "from_coherence": lambda v: from_coherence(v).n,
}
# from_coherence builds the (4^n, 2^n, 2^n) basis: 268 MB at n = 6
FROM_COHERENCE_MAX_QUBITS = 4


@pytest.mark.parametrize(
    "shape, n",
    [((2**n, 2**n), n) for n in range(1, MAX_QUBITS + 1)]
    + [((4**n - 1,), n) for n in range(1, MAX_QUBITS + 1)]
    + [(shape, None) for shape in [(1, 1), (3, 3), (2, 4), (6, 6), (0,), (4,), (16,)]],
    ids=str,
)
def test_qubit_count_is_read_off_the_shape(shape, n):
    matrix = len(shape) == 2
    data = np.zeros(shape, dtype=complex if matrix else float)
    for name, read in (MATRIX_READERS if matrix else VECTOR_READERS).items():
        if n is None:
            with pytest.raises(DimensionMismatchError, match=re.escape(str(shape))):
                read(data)
        elif name != "from_coherence" or n <= FROM_COHERENCE_MAX_QUBITS:
            assert read(data) == n, name
    if matrix and n is not None:
        spec = RandomUnitaryNoise(probs=(1.0,), generators=("Y" * n,), intended=0)
        assert random_unitary_channel(spec, 0.3).n == n


def test_derived_qubit_counts_cannot_be_set():
    rep = affine_rep(amplitude_damping(0.3))
    for obj in (DensityMatrix.ground_state(2), amplitude_damping(0.3), rep):
        with pytest.raises(AttributeError):
            obj.n = 5
    with pytest.raises(TypeError):
        DensityMatrix(n=1, data=np.eye(2) / 2)
    with pytest.raises(DimensionMismatchError, match="shape"):
        KrausChannel((np.eye(2), np.eye(4)))
    with pytest.raises(DimensionMismatchError, match="M of shape"):
        AffineRep(np.zeros((3, 15)), np.zeros(3))


def test_layer_noise_call_reads_the_register_off_the_state():
    # an 8 x 8 state is 3 qubits, whatever the caller thinks it is: the
    # kernel once read a 3-qubit state as four 2-qubit blocks (trace 0.684)
    rho = random_density_matrix(3, np.random.default_rng(36)).data
    ch = depolarizing(0.3)
    out = ch.apply_to_every_qubit(rho)
    assert np.array_equal(out, every_qubit_kernel(ch, rho))
    assert abs(np.trace(out) - 1.0) < 1e-12
    with pytest.raises(DimensionMismatchError, match="not square"):
        ch.apply_to_every_qubit(np.zeros((2, 8, 4)))
    # a 1-D array once ended in a bare IndexError from the square check
    with pytest.raises(DimensionMismatchError, match=re.escape("(4,)")):
        ch.apply_to_every_qubit(np.zeros(4))


@pytest.mark.parametrize("n", range(1, 8))
def test_layer_noise_call_reads_a_real_state_as_complex(n):
    # a float64 state once met a bare TypeError from the flat tables' gather
    # (n <= 6) and a UFuncTypeError from the broadcast multiply (n = 7)
    rho = random_density_matrix(n, np.random.default_rng(n)).data.real
    for ch in (depolarizing(0.3), amplitude_damping(0.3)):
        for state in (rho, rho[None].repeat(2, axis=0), np.eye(2**n) / 2**n):
            got = ch.apply_to_every_qubit(state)
            assert got.dtype == complex
            want = ch.apply_to_every_qubit(state.astype(complex))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
