import itertools

import numpy as np
import pytest
from dense_oracle import CNOT, embed_unitary

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
    _cnot_rows,
    build_two_local,
    evolve,
    layer_channel_as_kraus,
    layer_gate_map,
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


def _statevector(circ, theta):
    """Independent pure-state simulator for the noiseless ansatz."""
    psi = np.zeros(2**circ.n, dtype=complex)
    psi[0] = 1.0
    for layer, gates in enumerate(circ.layers):
        for slot, gate in enumerate(gates):
            if gate.is_parameterized:
                idx = circ.parameter_index[(layer, slot)]
                u = embed_unitary(
                    _ry(theta[idx]), (gate.generator.index("Y"),), circ.n
                )
            else:
                u = embed_unitary(CNOT, gate.cnot, circ.n)
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


def test_cnot_rows_equal_the_dense_product():
    # every chain of up to 3 CNOTs on n <= 3 qubits: the rows from bit
    # arithmetic are the row permutation of the product of embedded CNOTs
    for n in (2, 3):
        pairs = list(itertools.permutations(range(n), 2))
        for length in (1, 2, 3):
            for chain in itertools.product(pairs, repeat=length):
                dense = np.eye(2**n, dtype=complex)
                for pair in chain:
                    dense = embed_unitary(CNOT, pair, n) @ dense
                assert np.array_equal(np.eye(2**n)[_cnot_rows(chain, n)], dense)


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
    g = ry_gate(0, 1)
    a = 0.15
    tilted = perturbed_gate(g, {"Y": a})
    theta = 0.7
    np.testing.assert_allclose(
        tilted.unitary(theta), _ry(theta * (1 + a)), atol=1e-12
    )


def test_perturbed_gate_off_axis_analytic():
    # generator Y + aX squares to (1+a^2) I, giving a closed-form exponential
    g = ry_gate(0, 1)
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
    g = ry_gate(0, 1)
    with pytest.raises(ValueError):
        perturbed_gate(g, {"X": 0.3})


def test_gate_strings_are_checked_where_they_enter():
    g = ry_gate(0, 2)
    with pytest.raises(ValueError, match="'XQ'"):
        Gate(generator="XQ")
    with pytest.raises(ValueError, match="'XQ'"):
        perturbed_gate(g, {"XQ": 0.01})
    with pytest.raises(DimensionMismatchError, match="'XII'"):
        perturbed_gate(g, {"XII": 0.01})
    with pytest.raises(ValueError, match="'QI'"):
        RandomUnitaryNoise(probs=(0.9, 0.1), generators=("YI", "QI"), intended=0)
    with pytest.raises(DimensionMismatchError, match="'X'"):
        RandomUnitaryNoise(probs=(0.9, 0.1), generators=("YI", "X"), intended=0)


def test_mixture_of_the_wrong_width_is_refused_before_evolution(monkeypatch):
    from nibp_lab import circuits

    applied = []
    kraus = circuits._apply_kraus
    monkeypatch.setattr(circuits, "_apply_kraus", lambda *a: applied.append(1) or kraus(*a))
    circ = build_two_local(2, 2)
    spec = RandomUnitaryNoise(probs=(0.9, 0.1), generators=("YII", "XII"), intended=0)
    noise = NoiseSpec(random_unitary={(1, 0): spec})
    with pytest.raises(DimensionMismatchError, match="'YII'.*2 qubits"):
        evolve(circ, np.zeros(circ.num_parameters), noise)
    assert applied == []
    evolve(circ, np.zeros(circ.num_parameters))
    assert applied


def test_a_gate_is_exactly_one_of_its_three_forms():
    u = np.eye(2, dtype=complex)
    for forms in ({}, {"generator": "Y", "cnot": (0, 1)}, {"cnot": (0, 1), "matrix": u},
                  {"generator": "Y", "matrix": u}):
        with pytest.raises(ValueError, match="exactly one"):
            Gate(**forms)
    with pytest.raises(ValueError, match="control noise"):
        Gate(cnot=(0, 1), perturbation=(("XI", 0.1),))


def test_a_gate_that_does_not_fit_the_register_is_refused_where_it_enters():
    # before, "ZZZ" on n=2 was accepted and evolve ended in a numpy
    # matmul ValueError
    circ = build_two_local(2, 2)
    with pytest.raises(DimensionMismatchError, match="'ZZZ'"):
        circ.with_gate((0, 0), Gate(generator="ZZZ"))
    with pytest.raises(DimensionMismatchError, match="shape"):
        circ.with_gate((0, 2), Gate(matrix=np.eye(8, dtype=complex)))
    with pytest.raises(ValueError, match=r"\(0, 2\) has no parameter index"):
        circ.with_gate((0, 2), Gate(generator="ZZ"))
    wide = build_two_local(3, 1)
    for pair in ((0, 5), (1, 1)):
        with pytest.raises(DimensionMismatchError, match="CNOT pair"):
            wide.with_gate((0, 3), Gate(cnot=pair))
    # a fitting gate of each form is taken
    circ.with_gate((0, 0), Gate(generator="ZZ"))
    circ.with_gate((0, 2), Gate(cnot=(1, 0)))
    circ.with_gate((0, 2), Gate(matrix=np.eye(4, dtype=complex)))


def test_gate_noise_at_a_location_without_a_rotation_is_refused(monkeypatch):
    # before, both specs were ignored and the state was the noiseless one
    from nibp_lab import circuits

    applied = []
    kraus = circuits._apply_kraus
    monkeypatch.setattr(circuits, "_apply_kraus", lambda *a: applied.append(1) or kraus(*a))
    circ = build_two_local(2, 2)
    spec = RandomUnitaryNoise(probs=(0.9, 0.1), generators=("YI", "XI"), intended=0)
    theta = np.zeros(circ.num_parameters)
    for noise, loc in ((NoiseSpec(control_noise={(7, 0): {"XI": 0.05}}), r"\(7, 0\)"),
                       (NoiseSpec(random_unitary={(0, 9): spec}), r"\(0, 9\)")):
        with pytest.raises(ValueError, match=loc):
            evolve(circ, theta, noise)
        with pytest.raises(ValueError, match=loc):
            layer_affine_maps(circ, theta, noise)
    assert applied == []


def test_layer_maps_refuse_gate_noise_at_a_location_without_a_rotation():
    # before, both layer views ignored these specs and gave the noiseless map
    circ = build_two_local(2, 2)
    spec = RandomUnitaryNoise(probs=(0.9, 0.1), generators=("YI", "XI"), intended=0)
    theta = np.zeros(circ.num_parameters)
    for noise, loc in ((NoiseSpec(control_noise={(7, 0): {"XI": 0.05}}), r"\(7, 0\)"),
                       (NoiseSpec(random_unitary={(0, 9): spec}), r"\(0, 9\)")):
        for layer in range(circ.depth):
            with pytest.raises(ValueError, match=loc):
                layer_gate_map(circ, theta, layer, noise)
            with pytest.raises(ValueError, match=loc):
                layer_unitary(circ, theta, layer, noise)


def test_random_unitary_mixture_validation():
    with pytest.raises(ValueError):
        RandomUnitaryNoise(probs=(0.6, 0.3), generators=("Y", "X"), intended=0)
    with pytest.raises(ValueError):
        RandomUnitaryNoise(probs=(0.3, 0.7), generators=("Y", "X"), intended=0)
    spec = RandomUnitaryNoise(probs=(0.9, 0.1), generators=("Y", "X"), intended=0)
    ch = random_unitary_channel(spec, 0.8)
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
    gen = circ.gate_at((1, 0)).generator
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
    fixed = Gate(matrix=embed_unitary(_ry(0.3), (0,), 2))
    swapped = circ.with_gate((1, 0), fixed)
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


def test_a_placed_perturbed_gate_is_simulated_with_its_perturbation():
    # with_gate(perturbed_gate(g, a)) is the circuit that the spec
    # control_noise={loc: a} describes, on both layer views
    circ = build_two_local(2, 2)
    theta = np.random.default_rng(26).uniform(0, 2 * np.pi, circ.num_parameters)
    loc, a = (1, 0), {"XI": 0.1}
    placed = circ.with_gate(loc, perturbed_gate(circ.gate_at(loc), a))
    spec = NoiseSpec(control_noise={loc: a})
    state = evolve(placed, theta).data
    assert np.array_equal(state, evolve(circ, theta, spec).data)
    assert np.abs(state - evolve(circ, theta).data).max() > 1e-4
    assert np.array_equal(layer_gate_map(placed, theta, 1),
                          layer_gate_map(circ, theta, 1, spec))
    # a spec entry replaces the gate's own perturbation
    other = NoiseSpec(control_noise={loc: {"ZI": 0.05}})
    assert np.array_equal(evolve(placed, theta, other).data,
                          evolve(circ, theta, other).data)


def test_an_equal_copy_of_a_cnot_simulates_as_the_cnot():
    # only a CNOT pair takes the CNOT run; a fixed gate with the CNOT's
    # matrix takes the plain-gate route, exact on the dense view
    circ = build_two_local(3, 2)
    theta = np.random.default_rng(27).uniform(0, 2 * np.pi, circ.num_parameters)
    cnot = circ.gate_at((1, 3))
    copy = circ.with_gate((1, 3), Gate(matrix=embed_unitary(CNOT, cnot.cnot, 3)))
    noise = NoiseSpec.uniform(amplitude_damping(0.2))
    assert np.array_equal(evolve(copy, theta, noise).data, evolve(circ, theta, noise).data)
    np.testing.assert_allclose(layer_gate_map(copy, theta, 1), layer_gate_map(circ, theta, 1),
                               rtol=0, atol=1e-12)
