import itertools
import re

import numpy as np
import pytest
from dense_oracle import CNOT, embed_unitary
from helpers import single_ry_circuit, validate

from nibp_lab import circuits
from nibp_lab.bounds import layer_affine_maps
from nibp_lab.channels import (
    affine_rep,
    amplitude_damping,
    depolarizing,
    identity_channel,
    unitary_channel,
    validate_kraus,
)
from nibp_lab.circuits import (
    Circuit,
    Column,
    Gate,
    NoiseSpec,
    RandomUnitaryNoise,
    _cnot_perm,
    _ground_state,
    build_two_local,
    evolve,
    layer_channel_as_kraus,
    layer_gate_map,
    layer_unitary,
    perturbed_gate,
    random_unitary_channel,
    ry_gate,
)
from nibp_lab.gradients import _shift_parameter
from nibp_lab.pauli import (
    DensityMatrix,
    DimensionMismatchError,
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
    # the rotations in (layer, slot) order: the RY on qubit q of layer l is l * n + q
    assert dict(circ.parameter_index) == {(l, q): l * 3 + q for l in range(5) for q in range(3)}
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
    # every chain of up to 3 CNOTs on n <= 3 qubits, and a seeded sample of
    # chains of up to 5 on n = 4..6: on the basis states the rows from the
    # two-digit table are the row permutation of the product of embedded
    # CNOTs, every sign +1
    rng = np.random.default_rng(29)
    chains = [(n, chain) for n in (2, 3) for length in (1, 2, 3)
              for chain in itertools.product(itertools.permutations(range(n), 2), repeat=length)]
    for n in (4, 5, 6):
        pairs = list(itertools.permutations(range(n), 2))
        chains += [(n, tuple(pairs[i] for i in rng.integers(len(pairs), size=rng.integers(1, 6))))
                   for _ in range(20)]
    for n, chain in chains:
        dense = np.eye(2**n, dtype=complex)
        for pair in chain:
            dense = embed_unitary(CNOT, pair, n) @ dense
        rows, sign = _cnot_perm(chain, n, 2)
        assert np.array_equal(np.eye(2**n)[rows], dense)
        assert np.array_equal(sign, np.ones(2**n))


def test_noiseless_evolution_matches_statevector():
    rng = np.random.default_rng(20)
    for n in (2, 3):
        circ = build_two_local(n, 3)
        theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
        rho = evolve(circ, theta, NoiseSpec())
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
        validate(rho)
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
    u0 = layer_unitary(circ, theta, 0)
    ref = layer_channel_as_kraus(noise, circ)[0].apply(u0 @ ref @ u0.conj().T)
    u1 = layer_unitary(circ, theta, 1)
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


def test_mixture_of_the_wrong_width_is_refused_before_evolution():
    # a mixture gate's generators are checked against the register where
    # the gate enters its circuit
    circ = build_two_local(2, 2)
    spec = RandomUnitaryNoise(probs=(0.9, 0.1), generators=("YII", "XII"), intended=0)
    with pytest.raises(DimensionMismatchError, match="'YII'.*2 qubits"):
        circ.with_gate((1, 0), Gate(mixture=spec))


def test_a_gate_is_exactly_one_of_its_three_forms():
    u = np.eye(2, dtype=complex)
    for forms in ({}, {"generator": "Y", "cnot": (0, 1)}, {"cnot": (0, 1), "matrix": u},
                  {"generator": "Y", "matrix": u}):
        with pytest.raises(ValueError, match="exactly one"):
            Gate(**forms)
    with pytest.raises(ValueError, match="control noise"):
        Gate(cnot=(0, 1), perturbation=(("XI", 0.1),))


def test_a_mixture_gate_is_a_parameterized_fourth_form():
    spec = RandomUnitaryNoise(probs=(0.9, 0.1), generators=("YI", "XI"), intended=0)
    mixture = Gate(mixture=spec)
    for other in ({"generator": "YI"}, {"cnot": (0, 1)}, {"matrix": np.eye(4)}):
        with pytest.raises(ValueError, match="exactly one"):
            Gate(mixture=spec, **other)
    with pytest.raises(ValueError, match="control noise"):
        Gate(mixture=spec, perturbation=(("XI", 0.1),))
    with pytest.raises(ValueError, match="control noise"):
        perturbed_gate(mixture, {"XI": 0.1})
    with pytest.raises(ValueError, match="rotation"):
        mixture.unitary(0.3)
    # it takes the parameter of the rotation it replaces
    circ = build_two_local(2, 2)
    mixed = circ.with_gate((1, 0), mixture)
    assert mixture.is_parameterized and mixed.gate_at((1, 0)) == mixture
    assert mixed.parameter_index == circ.parameter_index
    assert mixed != circ and mixed == circ.with_gate((1, 0), Gate(mixture=spec))


def test_a_gate_that_does_not_fit_the_register_is_refused_where_it_enters():
    # before, "ZZZ" on n=2 was accepted and evolve ended in a numpy
    # matmul ValueError
    circ = build_two_local(2, 2)
    with pytest.raises(DimensionMismatchError, match="'ZZZ'"):
        circ.with_gate((0, 0), Gate(generator="ZZZ"))
    with pytest.raises(DimensionMismatchError, match="shape"):
        circ.with_gate((0, 2), Gate(matrix=np.eye(8, dtype=complex)))
    wide = build_two_local(3, 1)
    for pair in ((0, 5), (1, 1)):
        with pytest.raises(DimensionMismatchError, match="CNOT pair"):
            wide.with_gate((0, 3), Gate(cnot=pair))
    # a fitting gate of each form is taken
    circ.with_gate((0, 0), Gate(generator="ZZ"))
    circ.with_gate((0, 2), Gate(cnot=(1, 0)))
    circ.with_gate((0, 2), Gate(matrix=np.eye(4, dtype=complex)))


def test_a_rotation_placed_at_a_cnot_slot_takes_the_next_parameter():
    # before, a rotation at a CNOT's slot was refused for want of an index
    circ = build_two_local(2, 2)
    zz = Gate(generator="ZZ")
    placed = circ.with_gate((0, 2), zz)
    assert dict(placed.parameter_index) == {
        (0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 3, (1, 1): 4}
    # angle 2 drives the placed rotation, and the later angles keep their gates
    theta = np.random.default_rng(29).uniform(0, 2 * np.pi, circ.num_parameters)
    fixed = circ.with_gate((0, 2), Gate(matrix=zz.unitary(0.4)))
    np.testing.assert_allclose(
        evolve(placed, np.insert(theta, 2, 0.4), NoiseSpec()).data,
        evolve(fixed, theta, NoiseSpec()).data, rtol=0, atol=1e-14)


@pytest.mark.parametrize("gate", [Gate(cnot=(0, 1)), Gate(matrix=np.eye(4, dtype=complex))],
                         ids=["cnot", "fixed"])
def test_a_gate_placed_over_a_rotation_removes_its_parameter(gate):
    # before, (0, 0) kept its parameter: the circuit reported 4 of them and
    # evolved gate noise placed at (0, 0) as the noiseless state
    circ = build_two_local(2, 2).with_gate((0, 0), gate)
    assert circ.num_parameters == 3
    assert circ.parameterized_locations() == [(0, 1), (1, 0), (1, 1)]


def test_the_parameter_index_is_read_only():
    circ = build_two_local(2, 1)
    with pytest.raises(TypeError):
        circ.parameter_index[(0, 2)] = 2
    with pytest.raises(TypeError):
        Circuit(n=1, layers=((Gate(generator="Y"),),), parameter_index={(0, 0): 0})


def test_random_unitary_mixture_validation():
    with pytest.raises(ValueError):
        RandomUnitaryNoise(probs=(0.6, 0.3), generators=("Y", "X"), intended=0)
    with pytest.raises(ValueError):
        RandomUnitaryNoise(probs=(0.3, 0.7), generators=("Y", "X"), intended=0)
    spec = RandomUnitaryNoise(probs=(0.9, 0.1), generators=("Y", "X"), intended=0)
    ch = random_unitary_channel(spec, 0.8)
    assert validate_kraus(ch).trace_preserving
    # before, intended=2 ended in a bare IndexError, and intended=-1 was
    # read as the last rotation: random_noise_gradient then failed to skip
    # the intended branch (bound 0.412 against 0.0647 for intended=1)
    for intended in (2, -1, True, 1.0):
        with pytest.raises(ValueError, match="intended"):
            RandomUnitaryNoise(probs=(0.2, 0.8), generators=("ZI", "YI"), intended=intended)


def test_random_unitary_mixture_hand_value():
    # intended RY with probability 0.9, Z branch with 0.1: the Z branch
    # leaves |0> alone so <Z> = 0.9 cos(theta) + 0.1
    spec = RandomUnitaryNoise(probs=(0.9, 0.1), generators=("Y", "Z"), intended=0)
    circ = single_ry_circuit().with_gate((0, 0), Gate(mixture=spec))
    theta = 1.1
    rho = evolve(circ, np.array([theta]), NoiseSpec())
    z_exp = float(np.real(rho.data[0, 0] - rho.data[1, 1]))
    assert abs(z_exp - (0.9 * np.cos(theta) + 0.1)) < 1e-12


def test_degenerate_mixture_is_ideal_gate():
    circ = build_two_local(2, 2)
    rng = np.random.default_rng(25)
    theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
    gen = circ.gate_at((1, 0)).generator
    spec = RandomUnitaryNoise(probs=(1.0,), generators=(gen,), intended=0)
    a = evolve(circ.with_gate((1, 0), Gate(mixture=spec)), theta, NoiseSpec())
    b = evolve(circ, theta, NoiseSpec())
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


def test_control_noise_spec_changes_state():
    circ = build_two_local(2, 2)
    rng = np.random.default_rng(26)
    theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
    noisy = circ.with_gate((0, 0), perturbed_gate(circ.gate_at((0, 0)), {"XI": 0.1}))
    a = evolve(noisy, theta, NoiseSpec())
    b = evolve(circ, theta, NoiseSpec())
    validate(a)
    assert abs(a.purity() - 1.0) < 1e-12  # coherent noise keeps purity
    assert np.abs(a.data - b.data).max() > 1e-4


def test_layer_unitary_rejects_mixture_layers():
    spec = RandomUnitaryNoise(probs=(0.9, 0.1), generators=("YI", "XI"), intended=0)
    circ = build_two_local(2, 1).with_gate((0, 0), Gate(mixture=spec))
    with pytest.raises(ValueError, match="mixture"):
        layer_unitary(circ, np.zeros(2), 0)


@pytest.mark.parametrize("layers", [1, 3])
def test_per_layer_noise_length_must_match_depth(layers):
    circ = build_two_local(2, 2)
    noise = NoiseSpec(layer_channels=(depolarizing(0.1),) * layers)
    with pytest.raises(DimensionMismatchError, match=f"{layers} entries.*2 layers"):
        evolve(circ, np.zeros(circ.num_parameters), noise)
    with pytest.raises(DimensionMismatchError, match=f"{layers} entries.*2 layers"):
        layer_affine_maps(circ, np.zeros(circ.num_parameters), noise)


def test_noise_meets_its_circuit_in_one_call():
    # per_layer gives one entry per layer, as given: a uniform entry
    # repeated, a tuple as it is
    circ = build_two_local(2, 3)
    dep, damp = depolarizing(0.1), amplitude_damping(0.2)
    assert NoiseSpec.uniform(dep).per_layer(circ) == (dep, dep, dep)
    assert NoiseSpec().per_layer(circ) == (None, None, None)
    assert NoiseSpec((dep, None, damp)).per_layer(circ) == (dep, None, damp)


def test_evolve_refuses_a_late_entry_before_layer_0_runs(monkeypatch):
    # the 2-qubit entry after the last layer of a 3-qubit circuit is refused
    # before any gate or channel is applied; before, evolve ran layers 0
    # and 1 first
    circ = build_two_local(3, 3)
    dep = depolarizing(0.1)
    noise = NoiseSpec((dep, dep, identity_channel(2)))
    applied = []
    monkeypatch.setattr(circuits, "_apply_kraus",
                        lambda rho, ops: applied.append(len(ops)) or rho)
    with pytest.raises(DimensionMismatchError, match="acts on 2 qubits, register has 3"):
        evolve(circ, np.zeros(circ.num_parameters), noise)
    assert applied == []


@pytest.mark.parametrize("view", [layer_gate_map, layer_unitary])
def test_layer_views_refuse_a_layer_the_circuit_lacks(view):
    # before, layer -1 read layer 2 without a word, and layer 3 ended in a
    # bare IndexError
    circ = build_two_local(2, 3)
    theta = np.random.default_rng(28).uniform(0, 2 * np.pi, circ.num_parameters)
    for layer in (-1, 3, -4, 99):
        with pytest.raises(ValueError, match=f"circuit has no layer {layer};"):
            view(circ, theta, layer)
        with pytest.raises(ValueError, match=f"circuit has no layer {layer};"):
            circ.layer_runs(layer)
    for layer in range(3):
        assert circ.layer_runs(layer) is circ.runs[layer]
        view(circ, theta, np.int64(layer))


def test_named_noise_none_is_the_only_noiseless_spec():
    circ = build_two_local(2, 2)
    theta = np.random.default_rng(27).uniform(0, 2 * np.pi, circ.num_parameters)
    clean = evolve(circ, theta, NoiseSpec()).data
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
    [(identity_channel(2), "acts on 2 qubits, register has 3")],
)
def test_layer_channel_must_fit_the_register(entry, match):
    # the dense and the affine path read the entry the same way, so both
    # reject a channel that does not fit the register
    circ = build_two_local(3, 1)
    noise = NoiseSpec(layer_channels=entry)
    with pytest.raises(DimensionMismatchError, match=match):
        evolve(circ, np.zeros(circ.num_parameters), noise)
    with pytest.raises(DimensionMismatchError, match=match):
        layer_channel_as_kraus(noise, circ)


@pytest.mark.parametrize(
    "layer_channels, match",
    [("abc", "'abc' for every layer"),
     (3, "3 for every layer"),
     ([depolarizing(0.1)] * 3, r"\[KrausChannel\(n=1\), .*\] for every layer"),
     ((None, depolarizing(0.1), [amplitude_damping(0.2)]),
      r"\[KrausChannel\(n=1\)\] after layer 2")],
    ids=["string", "int", "list", "list_in_a_layer"],
)
def test_noise_spec_refuses_an_entry_that_is_not_a_channel(layer_channels, match):
    # an entry is None or one channel, checked where it enters; before, the
    # string ended in an AttributeError and the int in a TypeError inside
    # evolve, and a list was read as one channel per qubit
    with pytest.raises(TypeError, match=match + " is not None or a KrausChannel"):
        NoiseSpec(layer_channels=layer_channels)


def test_with_gate_replaces_one_gate():
    circ = build_two_local(2, 2)
    fixed = Gate(matrix=embed_unitary(_ry(0.3), (0,), 2))
    swapped = circ.with_gate((1, 0), fixed)
    assert swapped.gate_at((1, 0)) is fixed
    assert circ.gate_at((1, 0)).is_parameterized
    others = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)]
    assert all(swapped.gate_at(loc) is circ.gate_at(loc) for loc in others)
    # the fixed gate takes its rotation's parameter away: the state at the
    # other angles equals the circuit with that angle set to 0.3
    index = circ.parameter_index[(1, 0)]
    assert swapped.num_parameters == circ.num_parameters - 1
    theta = np.random.default_rng(28).uniform(0, 2 * np.pi, circ.num_parameters)
    pinned = theta.copy()
    pinned[index] = 0.3
    np.testing.assert_allclose(evolve(swapped, np.delete(theta, index), NoiseSpec()).data,
                               evolve(circ, pinned, NoiseSpec()).data, atol=1e-14)


def test_a_placed_perturbed_gate_is_simulated_with_its_perturbation():
    # both layer views simulate a perturbed rotation as the fixed unitary
    # of its perturbed generator at its angle
    circ = build_two_local(2, 2)
    theta = np.random.default_rng(26).uniform(0, 2 * np.pi, circ.num_parameters)
    loc, a = (1, 0), {"XI": 0.1}
    tilted = perturbed_gate(circ.gate_at(loc), a)
    placed = circ.with_gate(loc, tilted)
    index = circ.parameter_index[loc]
    fixed = circ.with_gate(loc, Gate(matrix=tilted.unitary(theta[index])))
    state = evolve(placed, theta, NoiseSpec()).data
    np.testing.assert_allclose(state, evolve(fixed, np.delete(theta, index), NoiseSpec()).data,
                               rtol=0, atol=1e-14)
    assert np.abs(state - evolve(circ, theta, NoiseSpec()).data).max() > 1e-4
    np.testing.assert_allclose(layer_gate_map(placed, theta, 1),
                               layer_gate_map(fixed, np.delete(theta, index), 1),
                               rtol=0, atol=1e-14)


def test_an_equal_copy_of_a_cnot_simulates_as_the_cnot():
    # only a CNOT pair takes the CNOT run; a fixed gate with the CNOT's
    # matrix takes the plain-gate route, exact on the dense view
    circ = build_two_local(3, 2)
    theta = np.random.default_rng(27).uniform(0, 2 * np.pi, circ.num_parameters)
    cnot = circ.gate_at((1, 3))
    copy = circ.with_gate((1, 3), Gate(matrix=embed_unitary(CNOT, cnot.cnot, 3)))
    noise = NoiseSpec.uniform(amplitude_damping(0.2))
    assert np.array_equal(evolve(copy, theta, noise).data, evolve(circ, theta, noise).data)
    np.testing.assert_allclose(layer_gate_map(copy, theta, 1),
                               layer_gate_map(circ, theta, 1), rtol=0, atol=1e-12)


def test_the_stored_runs_are_read_only():
    circ = build_two_local(3, 2)
    assert [kind for kind, _ in circ.runs[0]] == ["column"]
    (_, column), = circ.runs[0]
    assert column == Column(qubits=(0, 1, 2), letters="YYY", params=(0, 1, 2),
                            chain=((0, 1), (1, 2)))
    with pytest.raises(AttributeError):
        circ.runs = ()
    with pytest.raises(TypeError):
        circ.runs[0][0] = ("cnots", ())
    with pytest.raises(AttributeError):
        column.qubits = (0,)
    with pytest.raises(TypeError):
        column.chain[0] = (1, 0)
    # evolve starts from a read-only |0...0> and returns a state of its own
    empty = Circuit(n=2, layers=((),))
    rho = evolve(empty, np.zeros(0), NoiseSpec()).data
    rho[0, 0] = 0.5
    assert not _ground_state(2).flags.writeable
    assert _ground_state(2)[0, 0] == 1.0


def test_with_gate_regroups_the_stored_runs():
    circ = build_two_local(3, 2)
    swapped = circ.with_gate((1, 1), Gate(generator="IXZ"))
    assert swapped.runs[0] == circ.runs[0]
    assert [kind for kind, _ in swapped.runs[1]] == ["column", "gate", "column", "cnots"]
    assert swapped.runs[1][0][1] == Column((0,), "Y", (3,), ())
    assert swapped.runs[1][1][1] == (4, swapped.gate_at((1, 1)))
    assert swapped.runs[1][2][1] == Column((2,), "Y", (5,), ())
    # a CNOT over a rotation joins the CNOT run, which the layer's first
    # column carries, and takes the parameter away
    cnot = circ.with_gate((1, 2), Gate(cnot=(2, 0)))
    assert cnot.runs[1] == (("column", Column((0, 1), "YY", (3, 4), ((2, 0), (0, 1), (1, 2)))),)
    # a perturbed rotation and a mixture each split the column, in place
    tilted = perturbed_gate(circ.gate_at((1, 1)), {"IXI": 0.05})
    spec = RandomUnitaryNoise(probs=(0.9, 0.1), generators=("IYI", "ZZZ"), intended=0)
    for gate, run in ((tilted, ("gate", (4, tilted))),
                      (Gate(mixture=spec), ("mixture", (4, spec)))):
        noisy = circ.with_gate((1, 1), gate)
        assert noisy.runs[0] == circ.runs[0]
        assert noisy.runs[1] == (
            ("column", Column((0,), "Y", (3,), ())), run,
            ("column", Column((2,), "Y", (5,), ())), ("cnots", ((0, 1), (1, 2))))


def test_only_a_layer_s_first_column_carries_the_cnot_run_after_it():
    # the circuit decides the fold once, when it is built: the layer's
    # first run, when it is a column, carries the CNOTs after it as its
    # chain; a later column keeps a separate "cnots" run; a rotation after
    # a chained column starts a new column, even on a qubit the chained
    # column leaves free.  Folding later columns too gives equal values but
    # not equal bits: on 300 seeded random circuits (n = 1..4, L = 1..3) it
    # changed 15 of 4,331 arrays from evolve, layer_unitary, layer_gate_map
    # and layer_affine_maps, each only in the sign of a zero
    circ = Circuit(n=3, layers=(
        (Gate(generator="YII"), Gate(generator="IXI"), Gate(cnot=(0, 1)), Gate(cnot=(1, 2)),
         Gate(generator="IIZ"), Gate(generator="YII"), Gate(cnot=(2, 0))),
        (Gate(generator="XYI"), Gate(generator="IIY"), Gate(cnot=(0, 2))),
    ))
    assert circ.runs[0] == (
        ("column", Column((0, 1), "YX", (0, 1), ((0, 1), (1, 2)))),
        ("column", Column((2, 0), "ZY", (2, 3), ())),
        ("cnots", ((2, 0),)))
    assert circ.runs[1] == (
        ("gate", (4, circ.gate_at((1, 0)))),
        ("column", Column((2,), "Y", (5,), ())),
        ("cnots", ((0, 2),)))
    # both layer views compose the folded layer as the gate-by-gate product
    theta = np.random.default_rng(30).uniform(0, 2 * np.pi, circ.num_parameters)
    for layer in range(circ.depth):
        u = np.eye(8, dtype=complex)
        for slot, gate in enumerate(circ.layers[layer]):
            if gate.cnot is None:
                u = gate.unitary(theta[circ.parameter((layer, slot))]) @ u
            else:
                u = embed_unitary(CNOT, gate.cnot, 3) @ u
        np.testing.assert_allclose(layer_unitary(circ, theta, layer), u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(layer_gate_map(circ, theta, layer),
                                   affine_rep(unitary_channel(u)).M, rtol=0, atol=1e-12)


def test_the_column_plan_is_fixed_at_build_and_read_for_any_layers():
    # the letters, parameter indexes and per-layer slices of every column
    # are fixed when the circuit is built, and a view of some layers, in
    # any order, reads each layer's columns off the plan
    circ = Circuit(n=3, layers=(
        (Gate(generator="YII"), Gate(generator="IXI"), Gate(cnot=(0, 1)),
         Gate(generator="IIZ"), Gate(generator="YII")),
        (Gate(generator="XYI"), Gate(generator="IIY"), Gate(cnot=(0, 2))),
        (Gate(generator="IZI"), Gate(cnot=(1, 2))),
    ))
    letters, params, spans = circ.columns
    assert letters == "YXZYYZ" and params.tolist() == [0, 1, 2, 3, 5, 6]
    assert spans == ((slice(0, 2), slice(2, 4)), (slice(4, 5),), (slice(5, 6),))
    assert not params.flags.writeable
    theta = np.random.default_rng(31).uniform(0, 2 * np.pi, circ.num_parameters)
    each = [layer_gate_map(circ, theta, layer) for layer in range(circ.depth)]
    for order in ([0, 1, 2], [2, 0], [1, 2], [2, 1, 0], [2]):
        maps = list(circuits.layer_gate_maps(circ, theta, order))
        assert all(np.array_equal(m, each[layer]) for m, layer in zip(maps, order)), order


def test_the_shift_rule_check_reads_control_noise_off_the_gate():
    circ = build_two_local(2, 2)
    loc, a = (1, 0), {"XI": 0.15}
    circ = circ.with_gate(loc, perturbed_gate(circ.gate_at(loc), a))
    with pytest.raises(ValueError, match="control_noise_gradient"):
        _shift_parameter(circ, loc)
    for other in [(0, 0), (0, 1), (1, 1)]:
        _shift_parameter(circ, other)
    with pytest.raises(ValueError, match="no parameter"):
        _shift_parameter(circ, (0, 2))


def test_circuits_with_fixed_gates_compare_by_their_matrices():
    # equal matrices held in distinct arrays made == raise ValueError
    u = np.eye(4)
    circ = build_two_local(2, 1)
    a = circ.with_gate((0, 2), Gate(matrix=u))
    assert a == circ.with_gate((0, 2), Gate(matrix=u.copy()))
    assert hash(a) == hash(circ.with_gate((0, 2), Gate(matrix=u.copy())))
    assert a != circ.with_gate((0, 2), Gate(matrix=u[[1, 0, 2, 3]]))
    assert a != circ and Gate(matrix=u) != Gate(cnot=(0, 1))
    assert Gate(matrix=u) != Gate(matrix=np.eye(2))
    assert Gate(matrix=u) != "gate"


def test_a_circuit_refuses_a_location_it_lacks():
    # before, with_gate((-1, 0), ...) returned a 4-layer circuit with 8
    # parameters, and gate_at read a negative index from the end
    circ = build_two_local(2, 2)
    for loc in ((-1, 0), (2, 0), (0, -1), (0, 3)):
        for read in (circ.gate_at, circ.parameter,
                     lambda at: circ.with_gate(at, Gate(generator="XI"))):
            with pytest.raises(ValueError, match=re.escape(f"circuit has no gate at {loc}")):
                read(loc)
    with pytest.raises(ValueError, match=re.escape("gate at (0, 2) carries no parameter")):
        circ.parameter((0, 2))
    locations = circ.parameterized_locations()
    assert [circ.parameter(loc) for loc in locations] == list(range(len(locations)))
