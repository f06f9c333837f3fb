import numpy as np
import pytest

from nibp_lab.bounds import layer_affine_maps
from nibp_lab.channels import (
    amplitude_damping,
    depolarizing,
    identity_channel,
    validate_kraus,
)
from nibp_lab.circuits import (
    Circuit,
    Gate,
    NoiseSpec,
    RandomUnitaryNoise,
    build_two_local,
    cnot_gate,
    embed_unitary,
    evolve,
    layer_channel_as_kraus,
    layer_unitary,
    perturbed_gate,
    random_unitary_channel,
    ry_gate,
    single_ry_circuit,
)
from nibp_lab.pauli import (
    DensityMatrix,
    DimensionMismatchError,
    random_density_matrix,
)


def _ry(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def _statevector(circ, theta):
    """Independent pure-state simulator for the noiseless ansatz."""
    psi = np.zeros(2**circ.n, dtype=complex)
    psi[0] = 1.0
    for layer in circ.layers:
        for gate in layer:
            if gate.is_parameterized:
                idx = circ.parameter_index[gate.location]
                u = embed_unitary(
                    _ry(theta[idx]), gate.target_qubits, circ.n
                )
            else:
                u = embed_unitary(CNOT, gate.target_qubits, circ.n)
            psi = u @ psi
    return psi


def test_two_local_structure():
    circ = build_two_local(3, 5)
    assert circ.depth == 5
    assert circ.num_parameters == 15
    fixed = [
        g for layer in circ.layers for g in layer if not g.is_parameterized
    ]
    assert len(fixed) == 10  # (n-1) CNOTs per layer
    assert circ.parameter_index[(2, 1)] == 2 * 3 + 1
    with pytest.raises(ValueError):
        build_two_local(1, 2)


def test_embed_unitary_ordering():
    # CNOT on (control=0, target=1) of 3 qubits maps |100> -> |110>
    u = embed_unitary(CNOT, (0, 1), 3)
    src = np.zeros(8)
    src[4] = 1.0  # |100> with qubit 0 most significant
    out = u @ src
    assert abs(out[6] - 1.0) < 1e-14


def test_noiseless_evolution_matches_statevector():
    rng = np.random.default_rng(20)
    for n in (2, 3):
        circ = build_two_local(n, 3)
        theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
        rho = evolve(circ, theta)
        psi = _statevector(circ, theta)
        np.testing.assert_allclose(
            rho.data, np.outer(psi, psi.conj()), atol=1e-12
        )
        assert abs(rho.purity() - 1.0) < 1e-12


def test_single_qubit_depolarizing_hand_value():
    circ = single_ry_circuit()
    theta = np.array([0.9])
    p = 0.3
    rho = evolve(circ, theta, NoiseSpec.uniform(depolarizing(p)))
    z_exp = float(np.real(rho.data[0, 0] - rho.data[1, 1]))
    assert abs(z_exp - (1 - 4 * p / 3) * np.cos(0.9)) < 1e-12


def test_amplitude_damping_population_transfer():
    circ = single_ry_circuit()
    rho = evolve(
        circ, np.array([np.pi]), NoiseSpec.uniform(amplitude_damping(0.25))
    )
    np.testing.assert_allclose(rho.data, np.diag([0.25, 0.75]), atol=1e-12)


def test_evolution_preserves_state_validity():
    rng = np.random.default_rng(21)
    circ = build_two_local(3, 4)
    for channel in (depolarizing(0.4), amplitude_damping(0.6)):
        theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
        rho = evolve(circ, theta, NoiseSpec.uniform(channel))
        rho.validate()
        assert abs(np.trace(rho.data) - 1.0) < 1e-12


def test_per_layer_channel_assignment():
    # noise only after the first of two layers; second layer stays unitary
    circ = build_two_local(2, 2)
    rng = np.random.default_rng(22)
    theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
    noise = NoiseSpec(layer_channels=(amplitude_damping(0.5), None))
    rho = evolve(circ, theta, noise)
    # same evolution written out with layer primitives
    ref = DensityMatrix.ground_state(2).data
    u0 = layer_unitary(circ, theta, 0, noise)
    ref = layer_channel_as_kraus(noise, 0, 2).apply(u0 @ ref @ u0.conj().T)
    u1 = layer_unitary(circ, theta, 1, noise)
    ref = u1 @ ref @ u1.conj().T
    np.testing.assert_allclose(rho.data, ref, atol=1e-12)


def test_layer_channel_broadcast_equivalence():
    circ = build_two_local(2, 3)
    rng = np.random.default_rng(23)
    theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
    ch = depolarizing(0.2)
    a = evolve(circ, theta, NoiseSpec.uniform(ch))
    b = evolve(circ, theta, NoiseSpec(layer_channels=(ch, ch, ch)))
    np.testing.assert_allclose(a.data, b.data, atol=1e-13)


def test_custom_initial_state():
    rng = np.random.default_rng(24)
    circ = single_ry_circuit()
    rho0 = random_density_matrix(1, rng)
    rho = evolve(circ, np.zeros(1), rho0=rho0)
    np.testing.assert_allclose(rho.data, rho0.data, atol=1e-12)


def test_perturbed_gate_overrotation():
    # a_jk proportional to the gate's own generator scales the angle
    g = ry_gate(0, 1, (0, 0))
    a = 0.15
    tilted = perturbed_gate(g, {"Y": a})
    theta = 0.7
    np.testing.assert_allclose(
        tilted.unitary(theta), _ry(theta * (1 + a)), atol=1e-12
    )


def test_perturbed_gate_off_axis_analytic():
    # generator Y + aX squares to (1+a^2) I, giving a closed-form exponential
    g = ry_gate(0, 1, (0, 0))
    a = 0.12
    tilted = perturbed_gate(g, {"X": a})
    theta = 1.3
    norm = np.sqrt(1 + a * a)
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    pauli_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    direction = (pauli_y + a * pauli_x) / norm
    expected = (
        np.cos(theta * norm / 2) * np.eye(2)
        - 1j * np.sin(theta * norm / 2) * direction
    )
    np.testing.assert_allclose(tilted.unitary(theta), expected, atol=1e-12)


def test_perturbed_gate_norm_cap():
    g = ry_gate(0, 1, (0, 0))
    with pytest.raises(ValueError):
        perturbed_gate(g, {"X": 0.3})


def test_random_unitary_mixture_validation():
    with pytest.raises(ValueError):
        RandomUnitaryNoise(probs=(0.6, 0.3), generators=("Y", "X"), intended=0)
    with pytest.raises(ValueError):
        RandomUnitaryNoise(probs=(0.3, 0.7), generators=("Y", "X"), intended=0)
    spec = RandomUnitaryNoise(probs=(0.9, 0.1), generators=("Y", "X"), intended=0)
    ch = random_unitary_channel(spec, 0.8, 1)
    assert validate_kraus(ch).trace_preserving


def test_random_unitary_mixture_hand_value():
    # intended RY with probability 0.9, Z branch with 0.1: the Z branch
    # leaves |0> alone so <Z> = 0.9 cos(theta) + 0.1
    circ = single_ry_circuit()
    spec = RandomUnitaryNoise(probs=(0.9, 0.1), generators=("Y", "Z"), intended=0)
    noise = NoiseSpec(random_unitary={(0, 0): spec})
    theta = 1.1
    rho = evolve(circ, np.array([theta]), noise)
    z_exp = float(np.real(rho.data[0, 0] - rho.data[1, 1]))
    assert abs(z_exp - (0.9 * np.cos(theta) + 0.1)) < 1e-12


def test_degenerate_mixture_is_ideal_gate():
    circ = build_two_local(2, 2)
    rng = np.random.default_rng(25)
    theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
    gen = circ.gate_at((1, 0)).generator.letters
    spec = RandomUnitaryNoise(probs=(1.0,), generators=(gen,), intended=0)
    a = evolve(circ, theta, NoiseSpec(random_unitary={(1, 0): spec}))
    b = evolve(circ, theta)
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


def test_control_noise_spec_changes_state():
    circ = build_two_local(2, 2)
    rng = np.random.default_rng(26)
    theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
    noise = NoiseSpec(control_noise={(0, 0): {"XI": 0.1}})
    a = evolve(circ, theta, noise)
    b = evolve(circ, theta)
    a.validate()
    assert abs(a.purity() - 1.0) < 1e-12  # coherent noise keeps purity
    assert np.abs(a.data - b.data).max() > 1e-4


def test_layer_unitary_rejects_mixture_layers():
    circ = build_two_local(2, 1)
    spec = RandomUnitaryNoise(probs=(0.9, 0.1), generators=("YI", "XI"), intended=0)
    noise = NoiseSpec(random_unitary={(0, 0): spec})
    with pytest.raises(ValueError):
        layer_unitary(circ, np.zeros(2), 0, noise)


@pytest.mark.parametrize("layers", [1, 3])
def test_per_layer_noise_length_must_match_depth(layers):
    circ = build_two_local(2, 2)
    noise = NoiseSpec(layer_channels=(depolarizing(0.1),) * layers)
    with pytest.raises(DimensionMismatchError, match=f"{layers} entries.*2 layers"):
        evolve(circ, np.zeros(circ.num_parameters), noise)
    with pytest.raises(DimensionMismatchError, match=f"{layers} entries.*2 layers"):
        layer_affine_maps(circ, np.zeros(circ.num_parameters), noise)


def test_named_noise_none_is_the_only_noiseless_spec():
    circ = build_two_local(2, 2)
    theta = np.random.default_rng(27).uniform(0, 2 * np.pi, circ.num_parameters)
    clean = evolve(circ, theta).data
    assert NoiseSpec.named("none", 0.7) == NoiseSpec.none()
    # all-zero Kraus operators are skipped: the p = 0 identity-like channels
    # reproduce the noiseless state bit for bit
    for name in ("depolarizing", "amplitude_damping"):
        assert np.array_equal(evolve(circ, theta, NoiseSpec.named(name, 0.0)).data, clean)
    # phase_flip(0) is a certain Z flip, so it changes the state
    flipped = evolve(circ, theta, NoiseSpec.named("phase_flip", 0.0)).data
    assert np.abs(flipped - clean).max() > 1e-3


@pytest.mark.parametrize(
    "entry, match",
    [(identity_channel(2), "acts on 2 qubits, register has 3"),
     ([depolarizing(0.1)] * 2, "length 2, register has 3")],
)
def test_layer_channel_must_fit_the_register(entry, match):
    # the dense and the affine path read the entry the same way, so both
    # reject a channel that does not fit the register
    circ = build_two_local(3, 1)
    noise = NoiseSpec(layer_channels=entry)
    with pytest.raises(DimensionMismatchError, match=match):
        evolve(circ, np.zeros(circ.num_parameters), noise)
    with pytest.raises(DimensionMismatchError, match=match):
        layer_channel_as_kraus(noise, 0, 3)


def test_with_gate_replaces_one_gate():
    circ = build_two_local(2, 2)
    fixed = Gate(kind="fixed", location=(1, 0), target_qubits=(0,),
                 matrix=embed_unitary(_ry(0.3), (0,), 2))
    swapped = circ.with_gate(fixed)
    assert swapped.gate_at((1, 0)) is fixed
    assert circ.gate_at((1, 0)).is_parameterized
    others = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)]
    assert all(swapped.gate_at(loc) is circ.gate_at(loc) for loc in others)
    # the fixed gate ignores its angle: the state equals the circuit with
    # that angle set to 0.3
    theta = np.random.default_rng(28).uniform(0, 2 * np.pi, circ.num_parameters)
    pinned = theta.copy()
    pinned[circ.parameter_index[(1, 0)]] = 0.3
    np.testing.assert_allclose(
        evolve(swapped, theta).data, evolve(circ, pinned).data, atol=1e-14)
