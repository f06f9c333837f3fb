import gc
import re
import weakref
from collections import Counter

import numpy as np
import pytest
from helpers import single_ry_circuit

from nibp_lab import bounds, channels, circuits, pauli
from nibp_lab.bounds import (
    contractivity_profile,
    l0_threshold,
    layer_affine_maps,
    nibp_bound,
    nils_interval,
    shift_accumulator,
    theorem3_report,
)
from nibp_lab.channels import (
    affine_rep,
    amplitude_damping,
    depolarizing,
    flip_then_damp,
    tensor_channel,
    unitary_channel,
)
from nibp_lab.circuits import (
    Circuit,
    NoiseSpec,
    build_two_local,
    layer_channel_as_kraus,
    layer_gate_maps,
    layer_unitary,
    ry_gate,
)
from nibp_lab.hamiltonians import Hamiltonian, cost, h_norm, random_two_local
from nibp_lab.pauli import SizeError
from nibp_lab.circuits import evolve


def test_profile_single_qubit_depolarizing():
    circ = single_ry_circuit()
    profile = contractivity_profile(
        circ, NoiseSpec.uniform(depolarizing(0.3)), np.array([0.8])
    )
    np.testing.assert_allclose(profile.q, [0.6], atol=1e-12)
    np.testing.assert_allclose(profile.opnorm, [0.6], atol=1e-12)
    assert abs(profile.r - 0.6) < 1e-12


def test_profile_amplitude_damping_range():
    circ = single_ry_circuit()
    p = 0.4
    profile = contractivity_profile(
        circ, NoiseSpec.uniform(amplitude_damping(p)), np.array([1.1])
    )
    assert 1 - p - 1e-12 <= profile.q[0] <= np.sqrt(1 - p) + 1e-12
    assert abs(profile.r - np.sqrt(1 - p)) < 1e-12


def test_profile_noiseless_is_isometric():
    rng = np.random.default_rng(50)
    circ = build_two_local(2, 4)
    theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
    profile = contractivity_profile(circ, NoiseSpec.none(), theta)
    np.testing.assert_allclose(profile.q, 1.0, atol=1e-10)
    assert abs(profile.r - 1.0) < 1e-10


def test_nibp_bound_arithmetic():
    assert abs(nibp_bound(1.0, 0.6, 20) - 0.6**20) < 1e-18
    assert abs(nibp_bound(2.5, 0.5, 0) - 2.5) < 1e-14
    with pytest.raises(ValueError):
        nibp_bound(1.0, 1.0, 5)


def test_l0_threshold_values():
    r = float(np.exp(-1.0))
    assert abs(l0_threshold(1.0, 2.0, 2, r) - 1.0) < 1e-12
    assert abs(l0_threshold(1.0, 2.0, 4, r) - 4.0) < 1e-12
    assert l0_threshold(1.0, 1.0, 1, r) is True or l0_threshold(1.0, 1.0, 1, r) == True
    assert not l0_threshold(1.0, 1.0, 2, r)
    with pytest.raises(ValueError):
        l0_threshold(1.0, 0.5, 2, r)
    with pytest.raises(ValueError):
        l0_threshold(1.0, 2.0, 2, 1.0)
    with pytest.raises(ValueError):
        l0_threshold(0.0, 2.0, 2, r)


def test_shift_accumulator_unital_is_zero():
    rng = np.random.default_rng(51)
    circ = build_two_local(2, 5)
    theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
    H = random_two_local(2, rng)
    d, d_dot_h, lam = shift_accumulator(
        circ, NoiseSpec.uniform(depolarizing(0.3)), theta, 5, H
    )
    assert np.linalg.norm(d) < 1e-12
    assert abs(d_dot_h) < 1e-12
    assert lam > 0


def test_shift_accumulator_single_nonunital_layer():
    # only the final layer is noisy, so d equals that layer's shift vector
    rng = np.random.default_rng(52)
    circ = build_two_local(2, 3)
    theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
    noise = NoiseSpec(layer_channels=(None, None, amplitude_damping(0.5)))
    d, _, _ = shift_accumulator(circ, noise, theta, 3, random_two_local(2, rng))
    maps = layer_affine_maps(circ, theta, noise)
    np.testing.assert_allclose(d, maps[2][1], atol=1e-12)


def test_shift_overlap_respects_width_bound():
    rng = np.random.default_rng(53)
    circ = build_two_local(2, 8)
    H = random_two_local(2, rng)
    noise = NoiseSpec.uniform(amplitude_damping(0.45))
    for _ in range(10):
        theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
        _, d_dot_h, lam = shift_accumulator(circ, noise, theta, 8, H)
        assert abs(d_dot_h) <= lam + 1e-10


def test_cost_concentration_around_shift():
    # |C - Tr(H)/d - d.h| <= ||h|| * prod(opnorm) * ||v0||
    rng = np.random.default_rng(54)
    circ = build_two_local(2, 6)
    H = random_two_local(2, rng)
    noise = NoiseSpec.uniform(amplitude_damping(0.5))
    for _ in range(5):
        theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
        d, d_dot_h, _ = shift_accumulator(circ, noise, theta, 6, H)
        c_val = cost(H, evolve(circ, theta, noise))
        center = H.trace() / 4
        envelope = h_norm(H) * np.sqrt(1 - 0.5) ** 6 * np.sqrt(1 - 0.25)
        assert abs(c_val - center - d_dot_h) <= envelope + 1e-10


def _ry_layers(L: int) -> Circuit:
    """One qubit, one RY per layer: the one-qubit circuit of L layers."""
    return Circuit(n=1, layers=((ry_gate(0, 1),),) * L)


def test_nils_interval_unital_degenerates():
    H = random_two_local(2, seed=3)
    circ = build_two_local(2, 10)
    interval = nils_interval(H, depolarizing(0.3), 10, circ, np.zeros(circ.num_parameters))
    assert interval.unital
    assert interval.lambda_L == 0.0 and interval.lambda_inf == 0.0
    assert abs(interval.center - H.trace() / 4) < 1e-14


def test_nils_interval_hand_value():
    # ||h|| = 1/sqrt(2), ||M|| = 1/2, d = 2: lambda_inf = 2
    H = Hamiltonian(n=1, terms=(("Z", 0.5),))
    interval = nils_interval(H, amplitude_damping(0.75), 4, _ry_layers(4), np.zeros(4))
    assert not interval.unital
    assert abs(interval.lambda_inf - 2.0) < 1e-12
    expected_l = (1 - 0.5**4) / (1 - 0.5) * (1 / np.sqrt(2)) / np.sqrt(0.5)
    assert abs(interval.lambda_L - expected_l) < 1e-12
    assert interval.lambda_L < interval.lambda_inf


def test_nils_interval_realized_shift():
    rng = np.random.default_rng(55)
    circ = build_two_local(2, 6)
    theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
    H = random_two_local(2, rng)
    interval = nils_interval(H, amplitude_damping(0.4), 6, circ=circ, theta=theta)
    assert interval.d_L is not None
    assert abs(interval.d_L_dot_h) <= interval.lambda_L + 1e-10


def test_nils_interval_identity_degenerates():
    # the identity map is unital, so no finite interval is claimed
    H = random_two_local(2, seed=4)
    from nibp_lab.channels import identity_channel

    circ = build_two_local(2, 3)
    interval = nils_interval(H, identity_channel(), 3, circ, np.zeros(circ.num_parameters))
    assert interval.unital and interval.lambda_inf == 0.0


def test_nils_interval_refuses_an_L_that_is_not_the_depth(monkeypatch):
    # L is the circuit's depth under both noise kinds, and a sequence has L
    # channels; each refusal comes before any map is built.  Before, the
    # unital call returned a collapsed interval, and the sequence call
    # named an "upto" the caller never passed
    circ = build_two_local(2, 3)
    theta = np.zeros(circ.num_parameters)
    H = random_two_local(2, seed=5)
    damp = amplitude_damping(0.3)
    builds = _count_calls(monkeypatch, channels, "transfer_matrix")
    with pytest.raises(ValueError, match="L=99 is not the circuit's depth 3"):
        nils_interval(H, depolarizing(0.2), 99, circ, theta)
    with pytest.raises(ValueError, match="L=5 is not the circuit's depth 3"):
        nils_interval(H, [damp] * 3, 5, circ, theta)
    with pytest.raises(ValueError, match="4 channels for L=3 layers"):
        nils_interval(H, [damp] * 4, 3, circ, theta)
    assert not builds


def test_bounds_refuse_a_layer_without_a_channel(monkeypatch):
    # a None entry is refused, naming its layer, before any map is built;
    # before, both calls ended in an AttributeError inside affine_rep
    circ = build_two_local(2, 3)
    theta = np.linspace(0.1, 1.0, circ.num_parameters)
    H = random_two_local(2, seed=5)
    damp = amplitude_damping(0.3)
    maps = _count_calls(monkeypatch, bounds, "affine_rep")
    with pytest.raises(ValueError, match="the channel after layer 0 is None"):
        nils_interval(H, [None, damp, damp], 3, circ, theta)
    with pytest.raises(ValueError, match="the channel after layer 3 is None"):
        theorem3_report([damp, damp, damp, None, damp], 3)
    assert not maps


def test_bounds_refuse_channels_of_neither_form(monkeypatch):
    # nils_interval takes one channel or a sequence of them; theorem3_report
    # takes no L, so one bare channel cannot stand for every layer there.
    # Each refusal names the argument before any map is built; before,
    # both calls ended in a TypeError from len()
    circ = build_two_local(2, 3)
    theta = np.linspace(0.1, 1.0, circ.num_parameters)
    H = random_two_local(2, seed=5)
    maps = _count_calls(monkeypatch, bounds, "affine_rep")
    with pytest.raises(ValueError, match="channels=None is neither a KrausChannel nor a sequence"):
        nils_interval(H, None, 3, circ, theta)
    with pytest.raises(ValueError, match=re.escape(
            "channels=KrausChannel(n=1) is not a sequence of one channel per layer")):
        theorem3_report(amplitude_damping(0.3), 3)
    assert not maps


def test_theorem3_names_the_layer_of_an_entry_that_is_not_a_channel(monkeypatch):
    # the sequence is read through NoiseSpec's check, as nils_interval reads
    # it; before, both calls ended in an AttributeError inside affine_rep
    damp = amplitude_damping(0.3)
    maps = _count_calls(monkeypatch, bounds, "affine_rep")
    with pytest.raises(TypeError, match="layer channel 'x' after layer 0 is not None or a KrausChannel"):
        theorem3_report(["x", "y", "z"], 3)
    with pytest.raises(TypeError, match="layer channel 0.3 after layer 0 is not None"):
        theorem3_report([0.3] * 3, 3)
    with pytest.raises(TypeError, match="layer channel 'z' after layer 2 "):
        theorem3_report([damp, damp, "z"], 3)
    assert not maps


def test_contractivity_profile_refuses_a_wide_register_before_building_the_basis():
    # the register size is refused before the ground state's coherence
    # vector, which needs build_nice_basis(n): 16 MiB at n = 5, and at
    # n = 7 (4.3 GB) the process was killed before the refusal came
    circ = build_two_local(5, 2)
    theta = np.zeros(circ.num_parameters)
    before = pauli.build_nice_basis.cache_info()
    with pytest.raises(SizeError, match="n <= 3"):
        contractivity_profile(circ, NoiseSpec.uniform(amplitude_damping(0.3)), theta)
    assert pauli.build_nice_basis.cache_info() == before


def test_theorem3_escape_for_strong_damping():
    channels = [amplitude_damping(0.8)] * 12
    report = theorem3_report(channels, 10)
    assert report.applicable
    assert report.escapes_nibp
    assert report.sigma_max_prefix < report.mu_star
    assert report.suffix_length == 2
    assert report.lower_bound > 0.0
    assert abs(report.p_geometric - np.sqrt(0.2)) < 1e-12


def test_theorem3_blocked_by_singular_suffix():
    # the composite channel has a zero singular value in every layer
    channels = [flip_then_damp(0.8)] * 12
    report = theorem3_report(channels, 10)
    assert report.applicable
    assert not report.escapes_nibp
    assert min(report.sigma_min_suffix) < 1e-12


def test_theorem3_blocked_by_long_suffix():
    channels = [amplitude_damping(0.8)] * 12
    report = theorem3_report(channels, 5)
    assert not report.escapes_nibp
    assert report.suffix_length == 7


def test_theorem3_unital_not_applicable():
    report = theorem3_report([depolarizing(0.3)] * 8, 5)
    assert not report.applicable
    assert not report.escapes_nibp


def test_theorem3_guards():
    with pytest.raises(ValueError):
        theorem3_report([amplitude_damping(0.5)] * 6, 2)
    with pytest.raises(ValueError):
        theorem3_report([amplitude_damping(0.5)] * 4, 5)


def test_theorem3_weak_noise_does_not_escape():
    # weak damping keeps sigma_max above the threshold mu <= 1/2
    report = theorem3_report([amplitude_damping(0.2)] * 12, 10)
    assert report.applicable
    assert report.sigma_max_prefix > 0.5
    assert not report.escapes_nibp


def test_theorem3_threshold_solves_the_shift_ratio():
    # weaker damping at layer l-1 gives the shift ratio
    # ||c_{l-1}|| / max_prefix ||c|| = 0.2 / 0.6 = 1/3, below the prefix
    # weight at 1/2, so the bisection moves both ends toward mu*
    def profile(L, l):
        channels = [amplitude_damping(0.6)] * L
        channels[l - 2] = amplitude_damping(0.2)
        return channels

    # at l = 3 the weight (lam - lam^2) / (1 - lam) is lam itself
    assert abs(theorem3_report(profile(3, 3), 3).mu_star - 1 / 3) < 1e-9
    mu = theorem3_report(profile(6, 5), 5).mu_star
    assert 0.0 < mu < 0.5
    assert abs(bounds._prefix_sum_factor(mu, 5) - 1 / 3) < 1e-9


def _noise_setups(n):
    """Depth-4 noise setups on n qubits, each with its number of distinct
    layer-channel entries other than None.  Different channels per qubit are
    one product entry."""
    dep, damp = depolarizing(0.2), amplitude_damping(0.35)
    per_qubit = tensor_channel([dep, damp, dep][:n])
    full = tensor_channel([damp, dep, damp][:n])
    return {
        "uniform": (NoiseSpec.uniform(dep), 1),
        "per_layer": (NoiseSpec(layer_channels=(dep, damp, None, dep)), 2),
        "per_qubit": (NoiseSpec(layer_channels=per_qubit), 1),
        "per_layer_per_qubit": (
            NoiseSpec(layer_channels=(per_qubit, damp, None, per_qubit)), 2
        ),
        "full_register": (NoiseSpec.uniform(full), 1),
        "per_layer_full_register": (
            NoiseSpec(layer_channels=(full, None, dep, full)), 2
        ),
    }


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", sorted(_noise_setups(2)))
def test_layer_affine_maps_equal_per_layer_reference(n, kind):
    # the shared noise maps change no bit of c and ||M||; Omega, built
    # from local transfer matrices, matches the dense route within 1e-12
    noise, _ = _noise_setups(n)[kind]
    circ = build_two_local(n, 4)
    theta = np.random.default_rng(60 + n).uniform(0, 2 * np.pi, circ.num_parameters)
    maps = layer_affine_maps(circ, theta, noise)
    assert len(maps) == circ.depth
    registers = layer_channel_as_kraus(noise, circ)
    for layer, ((omega, c, opnorm), register) in enumerate(zip(maps, registers)):
        gate = affine_rep(unitary_channel(layer_unitary(circ, theta, layer)))
        rep = affine_rep(register)
        np.testing.assert_allclose(
            omega, rep.M @ gate.M, rtol=0, atol=1e-12, err_msg=f"{kind} {layer}"
        )
        assert np.array_equal(c, rep.c), (kind, layer)
        assert opnorm == float(np.linalg.norm(rep.M, 2)), (kind, layer)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("kind", sorted(_noise_setups(2)))
def test_layer_affine_maps_builds_each_noise_map_once(monkeypatch, kind):
    noise, distinct = _noise_setups(2)[kind]
    circ = build_two_local(2, 4)
    theta = np.zeros(circ.num_parameters)
    # noiseless layers share one identity register channel in every call;
    # its map and norm are built first, so the counts below do not depend on
    # what ran before
    affine_rep(circuits.layer_channel_as_kraus(NoiseSpec(), circ)[0]).operator_norm()
    builds = _count_calls(monkeypatch, channels, "transfer_matrix")
    svds = _count_calls(monkeypatch, np.linalg, "svd")
    first = layer_affine_maps(circ, theta, noise)
    # one noise map and one SVD per distinct entry; the gate maps need neither
    assert len(builds) == len(svds) == distinct
    builds.clear()
    svds.clear()
    # a second call on the same noise reads the maps its channels carry
    second = layer_affine_maps(circ, theta, noise)
    assert not builds and not svds
    for (_, c, opnorm), (_, c_again, opnorm_again) in zip(first, second):
        assert c_again is c and opnorm_again is opnorm


def test_layer_affine_maps_refuse_four_qubits(monkeypatch):
    # the register is refused before its register channel, or any 255 x 255
    # map, is built
    circ = build_two_local(4, 1)
    tensors = _count_calls(monkeypatch, channels, "tensor_channel")
    for noise in (NoiseSpec(), NoiseSpec.uniform(depolarizing(0.1))):
        with pytest.raises(SizeError, match="n <= 3"):
            layer_affine_maps(circ, np.zeros(circ.num_parameters), noise)
    assert not tensors


def test_bound_reports_keep_no_channel_alive():
    # a one-qubit channel carries its register channels, so nothing outside
    # it keeps them; before, a process-global cache of register channels
    # kept its per-qubit channels alive
    circ = build_two_local(3, 4)
    theta = np.random.default_rng(61).uniform(0, 2 * np.pi, circ.num_parameters)
    H = random_two_local(3, np.random.default_rng(62))
    damp = amplitude_damping(0.35)
    layer_affine_maps(circ, theta, NoiseSpec.uniform(damp))
    nils = nils_interval(H, damp, circ.depth, circ, theta)
    assert not nils.unital
    ref = weakref.ref(damp)
    del damp
    gc.collect()
    assert ref() is None


def test_nils_and_theorem3_build_each_channel_once(monkeypatch):
    dep, damp = depolarizing(0.2), amplitude_damping(0.35)
    chans = [damp, dep, damp, damp, dep]
    L = len(chans)
    norms = [np.linalg.norm(channels.transfer_matrix(ch)[1:, 1:], 2) for ch in chans]
    builds = _count_calls(monkeypatch, channels, "transfer_matrix")
    svds = _count_calls(monkeypatch, np.linalg, "svd")
    H = Hamiltonian(n=1, terms=(("Z", 0.5),))
    nils = nils_interval(H, chans, L, _ry_layers(L), np.zeros(L))
    # the interval and the realized shift's layer maps read one map per
    # distinct channel
    assert Counter(args[0] for args in builds) == {dep: 1, damp: 1}
    assert len(svds) == 2
    assert nils.lambda_L == bounds._lambda_width(h_norm(H), float(max(norms)), 2, L)
    builds.clear()
    svds.clear()
    # later reports on the same channels build nothing
    t3 = theorem3_report(chans, 3)
    again = nils_interval(H, chans, L, _ry_layers(L), np.zeros(L))
    assert not builds and not svds
    assert again.lambda_L == nils.lambda_L and np.array_equal(again.d_L, nils.d_L)
    assert t3.p_geometric == float(np.prod(norms) ** (1.0 / L))


def test_an_affine_map_computes_its_c_norm_once(monkeypatch):
    # is_unital and theorem3_report read one ||c|| per map; before, every
    # is_unital call took np.linalg.norm of c again
    dep, damp = depolarizing(0.7), amplitude_damping(0.9)
    chans = [damp, dep, damp, damp, dep]
    reps = [affine_rep(ch) for ch in (dep, damp)]
    fresh = [float(np.linalg.norm(rep.c)) for rep in reps]
    norms = _count_calls(monkeypatch, np.linalg, "norm")
    first = [theorem3_report(chans, l) for l in (3, 4, 5)]
    unital = [affine_rep(ch).is_unital() for ch in chans]
    assert sorted(id(args[0]) for args in norms) == sorted(id(rep.c) for rep in reps)
    norms.clear()
    assert [theorem3_report(chans, l) for l in (3, 4, 5)] == first
    assert [affine_rep(ch).is_unital() for ch in chans] == unital
    assert not norms
    # the same float, bit for bit, as the norm taken on every call
    for rep, c_norm in zip(reps, fresh):
        assert rep.c_norm is rep.c_norm and rep.c_norm == c_norm
        assert rep.is_unital() == (c_norm <= channels.UNITAL_TOL)
    assert unital == [False, True, False, False, True]
    c = [fresh[ch is damp] for ch in chans]
    t4 = first[1]
    assert t4.d_l == max(c[2] - max(c[:3]) * bounds._prefix_sum_factor(t4.sigma_max_prefix, 4), 0.0)
    assert t4.d_l > 0.0


def test_the_affine_path_refuses_angles_of_the_wrong_shape():
    # before, every bound took 11 angles on this 6-parameter circuit without
    # a word, and layer_unitary took 5 angles or a (2, 6) stack
    circ = build_two_local(3, 2)
    noise = NoiseSpec.uniform(amplitude_damping(0.3))
    P = circ.num_parameters
    calls = (
        lambda theta: list(layer_gate_maps(circ, theta, [0])),
        lambda theta: layer_unitary(circ, theta, 0),
        lambda theta: layer_affine_maps(circ, theta, noise),
        lambda theta: contractivity_profile(circ, noise, theta),
    )
    for bad in (np.zeros(P + 5), np.zeros(P - 1), np.zeros((2, P))):
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"got shape {bad.shape}")):
                call(bad)


def test_shift_accumulator_refuses_a_layer_count_outside_the_circuit():
    # before, on this depth-4 circuit upto=-1 gave a negative width, upto=9
    # a 9-layer width next to a 4-layer shift, and upto=0 a matmul error
    rng = np.random.default_rng(22)
    circ = build_two_local(2, 4)
    noise = NoiseSpec.uniform(amplitude_damping(0.3))
    theta = rng.uniform(0, 2 * np.pi, circ.num_parameters)
    H = random_two_local(2, rng)
    for upto in (-1, 0, 5, 9):
        with pytest.raises(ValueError, match=re.escape(f"upto={upto} is not a layer count in 1..4")):
            shift_accumulator(circ, noise, theta, upto, H)
    for upto in (1, 4):
        assert shift_accumulator(circ, noise, theta, upto, H)[2] > 0.0
