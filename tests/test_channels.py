import numpy as np
import pytest

from nibp_lab.channels import (
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
    random_channel,
    random_nonunital_channel,
    random_unital_channel,
    random_unitary_matrix,
    tensor_channel,
    unitary_channel,
    validate_kraus,
)
from nibp_lab.pauli import (
    DensityMatrix,
    from_coherence,
    random_density_matrix,
    to_coherence,
)


def test_validate_kraus_reports():
    rep = validate_kraus(amplitude_damping(0.3))
    assert rep.trace_preserving and not rep.unital
    rep = validate_kraus(depolarizing(0.3))
    assert rep.trace_preserving and rep.unital
    lossy = KrausChannel(n=1, kraus_ops=(0.9 * np.eye(2, dtype=complex),))
    rep = validate_kraus(lossy)
    assert not rep.trace_preserving
    assert abs(rep.tp_residual - 0.19) < 1e-12


def _affine_matches_kraus(ch, rho):
    rep = affine_rep(ch)
    v = to_coherence(rho)
    direct = to_coherence(ch.apply_state(rho))
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


def test_unital_channels_do_not_increase_purity():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(1, 3))
        ch = random_unital_channel(n, rng)
        rho = random_density_matrix(n, rng)
        out = ch.apply_state(rho)
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
    rebuilt = from_coherence(v, 2)
    np.testing.assert_allclose(rebuilt.data, ch.apply(rho.data), atol=1e-12)


def test_kraus_channel_keeps_read_only_copies():
    ch = amplitude_damping(0.3)
    with pytest.raises(ValueError):
        ch.kraus_ops[0][1, 1] = 0.0
    # a caller's later edit of its own arrays does not reach the channel
    ops = [np.array(k) for k in ch.kraus_ops]
    mine = KrausChannel(n=1, kraus_ops=tuple(ops))
    rho = np.diag([0.5, 0.5]).astype(complex)
    before = mine.apply_to_qubit(rho, 0, 1)
    ops[1][0, 1] = 0.0
    ops[0][1, 1] = 1.0
    np.testing.assert_array_equal(mine.apply(rho), before)
    np.testing.assert_array_equal(mine.apply_to_qubit(rho, 0, 1), before)
    np.testing.assert_allclose(np.diag(before).real, [0.65, 0.35], atol=1e-15)
