"""Property tests of the batched evolution engine.

The qubit-local channel kernel is checked against a dense einsum
contraction and, word for word, against the term-by-term kernel it
replaced (``dense_oracle.qubit_kernel``), the run-based layer builder of
``evolve`` against the gate-by-gate ``u @ acc`` chain, batched evolution
against one evolution per angle row and against the per-layer affine maps
of the bounds, the gate maps built from local Pauli transfer matrices
against the dense superoperator route, the CNOT signed permutations
against their transfer matrices, and the batched gradient sweep against
one shift-rule call per sample.

Every test runs a fixed set of examples (``derandomize=True``), so a run
passes or fails the same way each time.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from dense_oracle import gate_matrix, qubit_kernel
from hypothesis import given, settings
from hypothesis import strategies as st

from nibp_lab import channels, circuits, gradients
from nibp_lab.bounds import layer_affine_maps
from nibp_lab.channels import (
    KrausChannel,
    _apply_kraus,
    affine_rep,
    named_channel,
    random_channel,
    random_unitary_matrix,
    unitary_channel,
)
from nibp_lab.circuits import (
    Gate,
    NoiseSpec,
    RandomUnitaryNoise,
    build_two_local,
    evolve,
    single_ry_circuit,
)
from nibp_lab.gradients import SweepSpec, gradient_stats, psr_gradient
from nibp_lab.hamiltonians import random_two_local
from nibp_lab.pauli import (
    MAX_QUBITS,
    DensityMatrix,
    _pauli_matrix,
    random_density_matrix,
    to_coherence,
)

NAMED = ("identity", "depolarizing", "amplitude_damping", "bit_flip",
         "phase_flip", "flip_then_damp")

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _einsum_oracle(rho, kraus_ops, qubit, n):
    """sum_k (k on ``qubit``) rho (k on ``qubit``)^dag as one dense einsum."""
    a, b = 2**qubit, 2 ** (n - qubit - 1)
    t = rho.reshape(a, 2, b, a, 2, b)
    out = np.zeros_like(t)
    for k in kraus_ops:
        out += np.einsum("ip,apbcqd,jq->aibcjd", k, t, k.conj())
    return out.reshape(rho.shape)


def _states(n, batch, seed):
    rng = np.random.default_rng(seed)
    rows = [random_density_matrix(n, rng).data for _ in range(batch or 1)]
    return np.stack(rows) if batch else rows[0]


def _oracle_rows(rho, kraus_ops, qubit, n):
    if rho.ndim == 2:
        return _einsum_oracle(rho, kraus_ops, qubit, n)
    return np.stack([_einsum_oracle(r, kraus_ops, qubit, n) for r in rho])


@SETTINGS
@given(
    name=st.sampled_from(NAMED),
    p=st.floats(0.0, 1.0),
    n=st.integers(1, 6),
    batch=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_qubit_kernel_matches_einsum_bit_for_bit(name, p, n, batch, seed):
    ch = named_channel(name, p)
    rho = _states(n, batch, seed)
    for q in range(n):
        got = ch.apply_to_qubit(rho, q)
        assert got.shape == rho.shape
        assert np.array_equal(got, _oracle_rows(rho, ch.kraus_ops, q, n))


@SETTINGS
@given(
    n=st.integers(1, 6),
    kraus_count=st.integers(1, 4),
    batch=st.sampled_from([None, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_qubit_kernel_on_dense_kraus_operators(n, kraus_count, batch, seed):
    # Haar-sliced Kraus operators have no zero entries
    ch = random_channel(1, np.random.default_rng(seed), kraus_count=kraus_count)
    rho = _states(n, batch, seed + 1)
    for q in range(n):
        np.testing.assert_allclose(
            ch.apply_to_qubit(rho, q), _oracle_rows(rho, ch.kraus_ops, q, n),
            rtol=0, atol=1e-12,
        )


def _bits(a):
    """The float64 words of a complex array: equal words are equal bits,
    so +0.0 and -0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


@SETTINGS
@given(
    p=st.floats(0.0, 1.0),
    n=st.integers(1, 6),
    batch=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_qubit_kernel_matches_term_by_term_oracle_bit_for_bit(p, n, batch, seed):
    # p = 0 and p = 1 make some Kraus operators, or parts of them, vanish
    rho = _states(n, batch, seed)
    for name, prob in itertools.product(NAMED, (0.0, 1.0, p)):
        ch = named_channel(name, prob)
        for q in range(n):
            assert np.array_equal(_bits(ch.apply_to_qubit(rho, q)),
                                  _bits(qubit_kernel(ch, rho, q, n)))


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("name", ["depolarizing", "amplitude_damping"])
def test_evolve_matches_evolve_on_term_by_term_oracle_bit_for_bit(name, n):
    circ = build_two_local(n, 3)
    noise = NoiseSpec.named(name, 0.3)
    thetas = np.random.default_rng(n).uniform(0, 2 * np.pi, size=(2, circ.num_parameters))
    got = [evolve(circ, thetas, noise), evolve(circ, thetas[0], noise).data]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(KrausChannel, "apply_to_qubit",
                   lambda ch, rho, q: qubit_kernel(ch, rho, q, n))
        want = [evolve(circ, thetas, noise), evolve(circ, thetas[0], noise).data]
    for a, b in zip(got, want):
        assert np.array_equal(_bits(a), _bits(b))


def test_qubit_kernel_tables_are_built_once_per_channel_qubit_and_width():
    n = 3
    circ = build_two_local(n, 4)
    theta = np.linspace(0.1, 2.0, circ.num_parameters)
    depol, damp = named_channel("depolarizing", 0.3), named_channel("amplitude_damping", 0.3)
    channels._flat_index.cache_clear()
    evolve(circ, theta, NoiseSpec.uniform(depol))
    evolve(circ, theta, NoiseSpec.uniform(damp))
    first = {id(ch): dict(ch._tables) for ch in (depol, damp)}
    for _ in range(3):
        evolve(circ, theta[None].repeat(2, axis=0), NoiseSpec.uniform(depol))
        evolve(circ, theta, NoiseSpec.uniform(damp))
    for ch in (depol, damp):
        # one table set per qubit, each the very object built first
        assert sorted(ch._tables) == [(q, 2**n) for q in range(n)]
        assert all(ch._tables[key] is first[id(ch)][key] for key in ch._tables)
    # one shared index per register width, across channels and qubits
    assert channels._flat_index.cache_info().misses == 1
    flats = {id(tables[0]) for ch in (depol, damp) for tables in ch._tables.values()}
    assert len(flats) == 1
    # at the largest register one channel's tables are the shared index
    # (4^n positions, 2 MiB) plus T masks and T x d coefficients per qubit
    big = named_channel("depolarizing", 0.3)
    tables = [big._qubit_tables(q, 2**MAX_QUBITS) for q in range(MAX_QUBITS)]
    total = tables[0][0].nbytes + sum(a.nbytes for t in tables for a in t[1:])
    assert total < 40 * 2**20


def _noise(kind, n, depth, p):
    """A noise spec of the given kind for an n-qubit, ``depth``-layer ansatz."""
    one = named_channel("amplitude_damping", p)
    if kind == "uniform":
        return NoiseSpec.uniform(named_channel("depolarizing", p))
    if kind == "per_layer":
        return NoiseSpec(layer_channels=tuple(
            None if layer % 2 else one for layer in range(depth)))
    if kind == "per_qubit":
        return NoiseSpec(layer_channels=[one, named_channel("phase_flip", p)] * (n // 2)
                         + [one] * (n % 2))
    if kind == "full_register":
        return NoiseSpec.uniform(random_channel(n, np.random.default_rng(7)))
    if kind == "control":
        return NoiseSpec(layer_channels=one,
                         control_noise={(0, 0): {"X" * n: 0.05}})
    if kind == "mixture":
        letters = "Y" + "I" * (n - 1)
        spec = RandomUnitaryNoise(probs=(0.8, 0.2), generators=(letters, "Z" * n),
                                  intended=0)
        return NoiseSpec(layer_channels=one, random_unitary={(depth - 1, 0): spec})
    return None


@SETTINGS
@given(
    n=st.integers(1, 4),
    depth=st.integers(1, 3),
    batch=st.integers(1, 4),
    kind=st.sampled_from(["none", "uniform", "per_layer", "per_qubit",
                          "full_register", "control", "mixture"]),
    swap=st.sampled_from(["none", "fixed", "param"]),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_evolve_rows_equal_single_evolves(n, depth, batch, kind, swap, p, seed):
    circ = single_ry_circuit() if n == 1 else build_two_local(n, depth)
    depth = circ.depth
    noise = _noise(kind, n, depth, p)
    loc = (depth - 1, 0)
    if swap == "fixed":
        circ = circ.with_gate(loc, Gate(
            matrix=circuits._rotation(_pauli_matrix("X" * n), 0.4)))
    elif swap == "param":
        circ = circ.with_gate(loc, Gate(generator="Z" * n))
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0, 2 * np.pi, size=(batch, circ.num_parameters))
    stack = evolve(circ, thetas, noise)
    assert stack.shape == (batch, 2**n, 2**n)
    for row, theta in zip(stack, thetas):
        assert np.array_equal(row, evolve(circ, theta, noise).data)


@SETTINGS
@given(
    n=st.integers(2, 3),
    depth=st.integers(1, 4),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolve_follows_layer_affine_maps(n, depth, p, seed):
    # the dense evolution and the affine view the bounds use build each
    # layer the same way: after every prefix of l layers, the coherence
    # vector of the evolved state is the recursion v <- Omega_l v + c_l
    theta = np.random.default_rng(seed).uniform(0, 2 * np.pi, size=n * depth)
    for kind in ("uniform", "per_layer", "per_qubit", "full_register", "control"):
        maps = layer_affine_maps(
            build_two_local(n, depth), theta, _noise(kind, n, depth, p))
        v = to_coherence(DensityMatrix.ground_state(n))
        for layers, (omega, c, _) in enumerate(maps, start=1):
            v = omega @ v + c
            rho = evolve(build_two_local(n, layers), theta[: n * layers],
                         _noise(kind, n, layers, p))
            np.testing.assert_allclose(
                to_coherence(rho), v, rtol=0, atol=1e-12, err_msg=kind)


@st.composite
def _gate_layers(draw, max_qubits=3, mixtures=False):
    """One layer of n <= ``max_qubits`` qubits, with the angles and gate
    noise: weight-1 X/Y/Z rotations (on any qubits, so columns repeat
    qubits or leave some out), weight-2 rotations, CNOTs in any order,
    rotations under control noise, fixed gates put in with ``with_gate``
    and, with ``mixtures``, rotations replaced by random-unitary mixtures."""
    n = draw(st.integers(1, max_qubits))
    kinds = ["rotation", "rotation", "control", "fixed"] + ["mixture"] * mixtures
    if n > 1:
        kinds += ["weight2", "cnot", "cnot"]
    gates, index, control, mixed, fixed = [], {}, {}, {}, {}
    for slot in range(draw(st.integers(1, 7))):
        loc = (0, slot)
        kind = draw(st.sampled_from(kinds))
        if kind == "cnot":
            c, t = draw(st.permutations(range(n)))[:2]
            gates.append(Gate(cnot=(c, t)))
            continue
        qubits = draw(st.permutations(range(n)))[: 2 if kind == "weight2" else 1]
        letters = ["I"] * n
        for q in qubits:
            letters[q] = draw(st.sampled_from("XYZ"))
        gates.append(Gate(generator="".join(letters)))
        index[loc] = len(index)
        if kind == "control":
            pert = "".join(draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)))
            control[loc] = {pert: draw(st.floats(0.01, 0.09))}
        elif kind == "mixture":
            other = "".join(draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)))
            mixed[loc] = RandomUnitaryNoise(
                probs=(0.8, 0.2), generators=("".join(letters), other), intended=0)
        elif kind == "fixed":
            fixed[loc] = Gate(matrix=random_unitary_matrix(
                2**n, np.random.default_rng(draw(st.integers(0, 2**16)))))
    circ = circuits.Circuit(n=n, layers=(tuple(gates),), parameter_index=index)
    for loc, gate in fixed.items():
        circ = circ.with_gate(loc, gate)
    theta = np.array(draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=len(index),
                                   max_size=len(index))))
    return circ, theta, NoiseSpec(control_noise=control, random_unitary=mixed or None)


@settings(SETTINGS, max_examples=60)
@given(_gate_layers())
def test_layer_gate_map_equals_dense_oracle(layer):
    # local PTMs (closed-form rotations, CNOT sign permutations, transfer
    # matrices of the other gates) against the d^4 superoperator route
    circ, theta, noise = layer
    omega = circuits.layer_gate_map(circ, theta, 0, noise)
    dense = affine_rep(unitary_channel(circuits.layer_unitary(circ, theta, 0, noise))).M
    np.testing.assert_allclose(omega, dense, rtol=0, atol=1e-12)
    np.testing.assert_allclose(omega @ omega.T, np.eye(len(omega)), rtol=0, atol=1e-12)


def test_cnot_chain_ptm_is_an_exact_signed_permutation():
    # every chain of up to 3 CNOTs on n <= 3 qubits: the signs from the
    # letter map are exactly +-1, the sources a permutation, and the signed
    # permutation is the transfer matrix of the chain's row permutation
    for n in (2, 3):
        pairs = list(itertools.permutations(range(n), 2))
        for length in (1, 2, 3):
            for chain in itertools.product(pairs, repeat=length):
                src, sign = circuits._cnot_chain_ptm(chain, n)
                assert set(sign.tolist()) <= {-1.0, 1.0}
                assert np.array_equal(np.sort(src), np.arange(4**n - 1))
                u = np.eye(2**n)[circuits._cnot_rows(chain, n)]
                np.testing.assert_allclose(
                    sign[:, None] * np.eye(len(src))[src],
                    affine_rep(unitary_channel(u)).M, rtol=0, atol=1e-12)


def _chain_ops(circ, thetas, layer, noise):
    """The reference layer builder: each gate's full-register unitary
    (``Gate.unitary``, control noise included) multiplied in one by one as
    ``u @ acc``, and each random-unitary mixture as its own Kraus set."""
    control = noise.control_noise or {}
    mixtures = noise.random_unitary or {}
    ops, acc = [], None
    for slot, gate in enumerate(circ.layers[layer]):
        loc = (layer, slot)
        if gate.is_parameterized:
            angle = thetas[..., circ.parameter_index[loc]]
            if loc in mixtures:
                if acc is not None:
                    ops.append([acc])
                    acc = None
                ops.append(circuits._mixture_ops(mixtures[loc], angle))
                continue
            if loc in control:
                gate = circuits.perturbed_gate(gate, control[loc])
            u = gate.unitary(angle)
        else:
            u = gate_matrix(gate, circ.n)
        acc = u if acc is None else u @ acc
    if acc is not None:
        ops.append([acc])
    return ops


def _chain_evolve(circ, thetas, noise):
    """``evolve`` of a (B, P) angle stack with every layer built by
    ``_chain_ops``."""
    n = circ.n
    rho = np.repeat(DensityMatrix.ground_state(n).data[None], len(thetas), axis=0)
    for layer in range(circ.depth):
        for ops in _chain_ops(circ, thetas, layer, noise):
            rho = _apply_kraus(rho, ops)
        rho = circuits._apply_layer_channel(rho, noise.layer_channel(layer, n))
    return rho


@SETTINGS
@given(
    n=st.integers(2, 6),
    depth=st.integers(1, 3),
    batch=st.sampled_from([1, 3]),
    name=st.sampled_from(["none", "depolarizing", "amplitude_damping"]),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolve_equals_gate_chain_exactly(n, depth, batch, name, p, seed):
    # an RY column and a CNOT chain: the gathered column and the row
    # permutation round exactly as the gate-by-gate products do
    circ = build_two_local(n, depth)
    noise = NoiseSpec.named(name, p)
    thetas = np.random.default_rng(seed).uniform(
        0, 2 * np.pi, size=(batch, circ.num_parameters))
    assert np.array_equal(evolve(circ, thetas, noise), _chain_evolve(circ, thetas, noise))


@settings(SETTINGS, max_examples=60)
@given(_gate_layers(max_qubits=4, mixtures=True))
def test_evolve_and_layer_unitary_follow_gate_chain(layer):
    circ, theta, noise = layer
    np.testing.assert_allclose(
        evolve(circ, theta, noise).data, _chain_evolve(circ, theta[None], noise)[0],
        rtol=0, atol=1e-12)
    if noise.random_unitary:
        return
    (chain,), = _chain_ops(circ, theta, 0, noise)
    np.testing.assert_allclose(
        circuits.layer_unitary(circ, theta, 0, noise), chain, rtol=0, atol=1e-12)


def test_layer_gate_map_refuses_mixture_layers():
    spec = RandomUnitaryNoise(probs=(0.8, 0.2), generators=("YI", "ZZ"), intended=0)
    noise = NoiseSpec(random_unitary={(1, 0): spec})
    circ = build_two_local(2, 2)
    circuits.layer_gate_map(circ, np.zeros(4), 0, noise)
    with pytest.raises(ValueError, match="mixture"):
        circuits.layer_gate_map(circ, np.zeros(4), 1, noise)


def test_evolve_rejects_bad_angle_shapes():
    circ = build_two_local(2, 2)
    for shape in [(3,), (2, 3), (1, 2, 4)]:
        with pytest.raises(ValueError, match="parameters per row"):
            evolve(circ, np.zeros(shape))


def test_batched_psr_gradient_locations():
    circ = build_two_local(3, 4)
    noise = NoiseSpec.uniform(named_channel("amplitude_damping", 0.2))
    H = random_two_local(3, 8)
    thetas = np.random.default_rng(9).uniform(0, 2 * np.pi, (3, circ.num_parameters))
    locs = [(0, 0), (2, 1), (3, 2)]
    grads = psr_gradient(circ, thetas, noise, H, locs)
    assert grads.shape == (3,)
    for g, theta, loc in zip(grads, thetas, locs):
        assert g == psr_gradient(circ, theta, noise, H, loc)
    same = psr_gradient(circ, thetas, noise, H, (2, 1))
    assert same[1] == grads[1]
    with pytest.raises(ValueError, match="2 locations for 3"):
        psr_gradient(circ, thetas, noise, H, locs[:2])
    with pytest.raises(ValueError, match="no parameter"):
        psr_gradient(circ, thetas, noise, H, (0, 3))


def _looped_stats(spec):
    """The sweep as one shift-rule call per (Hamiltonian, angle, location)."""
    circ = spec.circuit
    values = {loc: [] for loc in spec.locations}
    for i in range(spec.num_hamiltonians):
        rng = np.random.default_rng([spec.seed, i])
        H = random_two_local(circ.n, rng)
        for _ in range(spec.thetas_per_hamiltonian):
            theta = rng.uniform(0.0, 2.0 * np.pi, size=circ.num_parameters)
            for loc in spec.locations:
                values[loc].append(abs(psr_gradient(circ, theta, spec.noise, H, loc)))
    out = {}
    for loc, vals in values.items():
        mean = math.fsum(vals) / len(vals)
        var = math.fsum((x - mean) ** 2 for x in vals) / len(vals)
        out[loc] = (mean, var, min(vals), max(vals), len(vals))
    return out


@settings(SETTINGS, max_examples=15)
@given(
    n=st.integers(2, 4),
    depth=st.integers(1, 4),
    name=st.sampled_from(["depolarizing", "amplitude_damping"]),
    p=st.floats(0.0, 1.0),
    hamiltonians=st.integers(1, 2),
    thetas=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_gradient_stats_equals_per_sample_loop(n, depth, name, p, hamiltonians,
                                               thetas, seed):
    circ = build_two_local(n, depth)
    mid = depth // 2
    spec = SweepSpec(
        circuit=circ, noise=NoiseSpec.uniform(named_channel(name, p)),
        locations=((0, 0), (mid, n - 1), (depth - 1, 0)),
        num_hamiltonians=hamiltonians, thetas_per_hamiltonian=thetas, seed=seed,
    )
    stats = gradient_stats(spec)
    expected = _looped_stats(spec)
    assert set(stats) == set(expected)
    for loc, s in stats.items():
        got = (s.mean_abs, s.variance, s.min, s.max, s.samples)
        assert got == expected[loc]
        assert all(type(v) is float for v in got[:4])


def test_gradient_stats_blocks_bound_the_stack(monkeypatch):
    # at n=6 a block holds _BLOCK_BYTES // (16 * 64 * 64) rows, so 4 * step
    # draws at one location need 4 blocks per shifted stack
    circ = build_two_local(6, 1)
    step = gradients._BLOCK_BYTES // (16 * 4**6)
    assert step >= 1
    rows_seen = []
    real_evolve = gradients.evolve

    def recording_evolve(circ, theta, *args, **kwargs):
        rows_seen.append(len(theta))
        return real_evolve(circ, theta, *args, **kwargs)

    monkeypatch.setattr(gradients, "evolve", recording_evolve)

    def sweep(thetas):
        spec = SweepSpec(
            circuit=circ, noise=NoiseSpec.uniform(named_channel("depolarizing", 0.1)),
            locations=((0, 0),), num_hamiltonians=1, thetas_per_hamiltonian=thetas,
            seed=4,
        )
        rows_seen.clear()
        tracemalloc.start()
        stats = gradient_stats(spec)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return spec, stats, peak

    sweep(step)  # fills the module caches, which would dominate the peak
    _, _, peak_one_block = sweep(step)
    assert rows_seen == [step, step]
    spec, stats, peak_many = sweep(4 * step)
    assert rows_seen == [step] * 8
    assert peak_many < 1.2 * peak_one_block
    s = stats[(0, 0)]
    assert (s.mean_abs, s.variance, s.min, s.max, s.samples) == _looped_stats(spec)[(0, 0)]
