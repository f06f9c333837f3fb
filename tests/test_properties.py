"""Property tests of the batched evolution engine.

The qubit-local channel kernel, which puts a layer's noise on every qubit
in one call, is checked against a dense einsum contraction and, word for
word, against the term-by-term kernel it replaced
(``dense_oracle.qubit_kernel``), each run on qubit 0 first, then the next;
the run-based layer builder of
``evolve`` against the gate-by-gate ``u @ acc`` chain and, bit for bit,
against the per-layer assembly it replaced (``dense_oracle.layer_ops``),
batched evolution against one evolution per angle row and against the
per-layer affine maps of the bounds, the affine maps the noise channels
carry against a fresh transfer-matrix build, the gate maps built from
local Pauli transfer matrices against the dense superoperator route, the
CNOT signed permutations against their transfer matrices, the column
kernel word for word against the gather-per-qubit kernel it replaced
(``dense_oracle.column``), the batched gradient sweep against one
shift-rule call per sample, the plan of a circuit that passes one
layer object several times against the plan of per-layer copies, and the
Pauli-component path of ``evolve`` (from ``ENGINE_MIN_QUBITS`` qubits on)
against the dense oracle within 1e-12, with each call off that path bit
for bit the dense path, and its kernel that puts 4 x 4 maps on two qubits
at a time against one qubit at a time (``dense_oracle.qubit_maps``)
within 1e-13.

Every test runs a fixed set of examples (``derandomize=True``), so a run
passes or fails the same way each time.
"""

import itertools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import dense_oracle
from dense_oracle import every_qubit_kernel, gate_matrix
from helpers import random_channel, random_density_matrix, random_unitary_matrix, single_ry_circuit
from hypothesis import given, settings
from hypothesis import strategies as st

from nibp_lab import channels, circuits, gradients
from nibp_lab.bounds import layer_affine_maps
from nibp_lab.channels import (
    KrausChannel,
    _apply_kraus,
    affine_rep,
    named_channel,
    unitary_channel,
)
from nibp_lab.circuits import (
    Gate,
    NoiseSpec,
    RandomUnitaryNoise,
    build_two_local,
    evolve,
)
from nibp_lab.gradients import SweepSpec, gradient_stats, psr_gradient
from nibp_lab.hamiltonians import cost, h_norm, random_two_local
from nibp_lab.pauli import (
    MAX_QUBITS,
    DensityMatrix,
    DimensionMismatchError,
    _pauli_matrix,
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


def _every_qubit_oracle(rho, kraus_ops, n):
    """``_einsum_oracle`` on each qubit of each row of rho in turn, qubit 0
    first."""
    rows = rho if rho.ndim == 3 else rho[None]
    out = []
    for row in rows:
        for q in range(n):
            row = _einsum_oracle(row, kraus_ops, q, n)
        out.append(row)
    return np.stack(out) if rho.ndim == 3 else out[0]


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
    got = ch.apply_to_every_qubit(rho)
    assert got.shape == rho.shape
    assert np.array_equal(got, _every_qubit_oracle(rho, ch.kraus_ops, n))


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
    np.testing.assert_allclose(
        ch.apply_to_every_qubit(rho), _every_qubit_oracle(rho, ch.kraus_ops, n),
        rtol=0, atol=1e-12,
    )


def _bits(a):
    """The float64 words of a complex array: equal words are equal bits,
    so +0.0 and -0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


@SETTINGS
@given(
    p=st.floats(0.0, 1.0),
    n=st.integers(1, 7),
    batch=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_layer_noise_call_matches_per_qubit_oracle_word_for_word(p, n, batch, seed):
    # n = 1..7 spans both layouts of the kernel's tables (flat up to
    # FLAT_MAX_DIM, broadcast beyond it); p = 0 and p = 1 make some Kraus
    # operators, or parts of them, vanish
    assert 2**1 <= channels.FLAT_MAX_DIM < 2**7
    rho = _states(n, batch, seed)
    for name, prob in itertools.product(NAMED, (0.0, 1.0, p)):
        ch = named_channel(name, prob)
        got = ch.apply_to_every_qubit(rho)
        assert got.shape == rho.shape
        assert np.array_equal(_bits(got), _bits(every_qubit_kernel(ch, rho)))


@SETTINGS
@given(
    p=st.floats(0.0, 1.0),
    widths=st.lists(st.integers(1, 7), min_size=2, max_size=4),
    batch=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_qubit_kernel_matches_term_by_term_oracle_bit_for_bit(p, widths, batch, seed):
    # one channel object serves every width in turn, revisits included, so
    # the tables it keeps for one d (either layout) must not reach another
    for name, prob in itertools.product(NAMED, (0.0, 1.0, p)):
        ch = named_channel(name, prob)
        for i, n in enumerate(widths):
            rho = _states(n, batch, seed + i)
            assert np.array_equal(_bits(ch.apply_to_every_qubit(rho)),
                                  _bits(every_qubit_kernel(ch, rho)))
        assert sorted(ch._tables) == sorted({2**n for n in widths})


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("name", ["depolarizing", "amplitude_damping"])
def test_evolve_matches_evolve_on_term_by_term_oracle_bit_for_bit(name, n):
    # the dense path, called directly, keeps its word-for-word check at
    # every width; from ENGINE_MIN_QUBITS on, evolve runs on Pauli
    # components and agrees with it within 1e-12
    circ = build_two_local(n, 3)
    noise = NoiseSpec.named(name, 0.3)
    layer_channels = noise.per_layer(circ)
    thetas = np.random.default_rng(n).uniform(0, 2 * np.pi, size=(2, circ.num_parameters))

    def dense():
        return [circuits._dense_evolve(circ, rows, layer_channels) for rows in (thetas, thetas[:1])]

    got = dense()
    with pytest.MonkeyPatch.context() as mp:
        # the dense path calls the kernel with the output, term stack and tables it holds
        mp.setattr(KrausChannel, "_every_qubit",
                   lambda ch, state, out, stack, tables: every_qubit_kernel(ch, state))
        want = dense()
    for a, b in zip(got, want):
        assert np.array_equal(_bits(a), _bits(b))
    for a, b in zip([evolve(circ, thetas, noise), evolve(circ, thetas[0], noise).data], want):
        if n < circuits.ENGINE_MIN_QUBITS:
            assert np.array_equal(_bits(a), _bits(b.reshape(a.shape)))
        else:
            np.testing.assert_allclose(a, b.reshape(a.shape), rtol=0, atol=1e-12)


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
        # one table set per qubit under the width, the very object built first
        assert list(ch._tables) == [2**n] and len(ch._tables[2**n]) == n
        assert ch._tables[2**n] is first[id(ch)][2**n]
    # one shared flat index per register width, across channels
    assert channels._flat_index.cache_info().misses == 1
    # at the largest register each named channel's tables are the shared
    # index (4^n positions, 2 MiB) plus T masks and T x d coefficients per
    # qubit; at the widest flat layout, 40 T d^2 bytes per qubit
    d = 2**MAX_QUBITS
    for name in NAMED:
        tables = named_channel(name, 0.3)._width_tables(d)
        assert len(tables) == MAX_QUBITS
        total = channels._flat_index(MAX_QUBITS).nbytes + sum(a.nbytes for t in tables for a in t)
        assert total < 40 * 2**20, name
        flat = named_channel(name, 0.3)._width_tables(channels.FLAT_MAX_DIM)
        assert all(a.shape[-1] == channels.FLAT_MAX_DIM**2 for t in flat for a in t)
        assert sum(a.nbytes for t in flat for a in t) < 40 * 2**20, name


def _noise(kind, n, depth, p):
    """The layer channels of the given kind for an n-qubit, ``depth``-layer
    ansatz; ``per_qubit`` is one product of different one-qubit channels,
    and the gate-noise kinds ``control`` and ``mixture`` put damping after
    every layer (``_gate_noise`` places their gates)."""
    one = named_channel("amplitude_damping", p)
    if kind == "uniform":
        return NoiseSpec.uniform(named_channel("depolarizing", p))
    if kind == "per_layer":
        return NoiseSpec(layer_channels=tuple(
            None if layer % 2 else one for layer in range(depth)))
    if kind == "per_qubit":
        return NoiseSpec.uniform(channels.tensor_channel(
            [one, named_channel("phase_flip", p)] * (n // 2) + [one] * (n % 2)))
    if kind == "full_register":
        return NoiseSpec.uniform(random_channel(n, np.random.default_rng(7)))
    if kind in ("damping", "control", "mixture"):
        return NoiseSpec.uniform(one)
    return NoiseSpec()


def _gate_noise(kind, circ):
    """``circ`` with the gate noise of the given kind: control noise on the
    rotation at (0, 0), or a mixture in place of the rotation at
    (depth - 1, 0)."""
    n = circ.n
    if kind == "control":
        tilted = circuits.perturbed_gate(circ.gate_at((0, 0)), {"X" * n: 0.05})
        return circ.with_gate((0, 0), tilted)
    if kind == "mixture":
        spec = RandomUnitaryNoise(probs=(0.8, 0.2), generators=("Y" + "I" * (n - 1), "Z" * n),
                                  intended=0)
        return circ.with_gate((circ.depth - 1, 0), Gate(mixture=spec))
    return circ


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
    circ = _gate_noise(kind, circ)
    loc = (depth - 1, n - 1)  # the last rotation; at n = 1 the gate with the gate noise
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
            _gate_noise(kind, build_two_local(n, depth)), theta, _noise(kind, n, depth, p))
        v = to_coherence(DensityMatrix.ground_state(n))
        for layers, (omega, c, _) in enumerate(maps, start=1):
            v = omega @ v + c
            rho = evolve(_gate_noise(kind, build_two_local(n, layers)), theta[: n * layers],
                         _noise(kind, n, layers, p))
            np.testing.assert_allclose(
                to_coherence(rho), v, rtol=0, atol=1e-12, err_msg=kind)


def _fresh_register_ops(entry, n):
    """The Kraus operators of a layer entry's register channel, built anew."""
    if entry is None:
        return channels.identity_channel(n).kraus_ops
    if entry.n == n:
        return entry.kraus_ops
    return channels.tensor_channel([entry] * n).kraus_ops


@SETTINGS
@given(
    n=st.integers(1, 3),
    depth=st.integers(1, 3),
    kind=st.sampled_from(["uniform", "per_layer", "per_qubit", "full_register"]),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_cached_affine_maps_equal_a_fresh_build_bit_for_bit(n, depth, kind, p, seed):
    # the maps the register channels carry, read back by a second call,
    # equal a transfer-matrix build on a new channel with the same
    # operators, word for word
    circ = single_ry_circuit() if n == 1 else build_two_local(n, depth)
    noise = _noise(kind, n, circ.depth, p)
    theta = np.random.default_rng(seed).uniform(0, 2 * np.pi, size=circ.num_parameters)
    layer_affine_maps(circ, theta, noise)
    maps = layer_affine_maps(circ, theta, noise)
    entries = zip(circuits.layer_channel_as_kraus(noise, circ), noise.per_layer(circ))
    for layer, ((omega, c, opnorm), (register, entry)) in enumerate(zip(maps, entries)):
        rep = affine_rep(register)
        fresh = KrausChannel(_fresh_register_ops(entry, n))
        t = channels.transfer_matrix(fresh)
        m, shift = t[1:, 1:], t[1:, 0] / np.sqrt(2**n)
        norm = float(np.linalg.svd(m, compute_uv=False)[0])
        assert np.array_equal(_bits(rep.M), _bits(m))
        assert np.array_equal(_bits(rep.c), _bits(shift))
        assert np.array_equal(_bits(c), _bits(shift))
        assert np.array_equal(_bits([rep.operator_norm(), opnorm]), _bits([norm, norm]))
        (gate_map,) = circuits.layer_gate_maps(circ, theta, [layer])
        assert np.array_equal(_bits(omega), _bits(m @ gate_map))


@st.composite
def _gate_layers(draw, max_qubits=3, mixtures=False, max_depth=1):
    """A circuit of n <= ``max_qubits`` qubits and up to ``max_depth``
    layers, with its angles: weight-1 X/Y/Z rotations (on any qubits, so
    columns repeat qubits or leave some out, and differ from layer to
    layer), weight-2 rotations, CNOTs in any order, rotations under control
    noise, fixed gates and, with ``mixtures``, random-unitary mixture
    gates."""
    n = draw(st.integers(1, max_qubits))
    depth = draw(st.integers(1, max_depth)) if max_depth > 1 else 1
    kinds = ["rotation", "rotation", "control", "fixed"] + ["mixture"] * mixtures
    if n > 1:
        kinds += ["weight2", "cnot", "cnot"]
    layers = []
    for layer in range(depth):
        gates = []
        for slot in range(draw(st.integers(1, 7))):
            kind = draw(st.sampled_from(kinds))
            if kind == "cnot":
                c, t = draw(st.permutations(range(n)))[:2]
                gates.append(Gate(cnot=(c, t)))
                continue
            if kind == "fixed":
                gates.append(Gate(matrix=random_unitary_matrix(
                    2**n, np.random.default_rng(draw(st.integers(0, 2**16))))))
                continue
            qubits = draw(st.permutations(range(n)))[: 2 if kind == "weight2" else 1]
            letters = ["I"] * n
            for q in qubits:
                letters[q] = draw(st.sampled_from("XYZ"))
            gate = Gate(generator="".join(letters))
            if kind == "control":
                pert = "".join(draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)))
                gate = circuits.perturbed_gate(gate, {pert: draw(st.floats(0.01, 0.09))})
            elif kind == "mixture":
                other = "".join(draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)))
                gate = Gate(mixture=RandomUnitaryNoise(
                    probs=(0.8, 0.2), generators=(gate.generator, other), intended=0))
            gates.append(gate)
        layers.append(tuple(gates))
    circ = circuits.Circuit(n=n, layers=tuple(layers))
    size = circ.num_parameters
    theta = np.array(draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=size, max_size=size)))
    return circ, theta


@settings(SETTINGS, max_examples=60)
@given(_gate_layers())
def test_layer_gate_map_equals_dense_oracle(layer):
    # local PTMs (closed-form rotations, CNOT sign permutations, transfer
    # matrices of the other gates) against the d^4 superoperator route
    circ, theta = layer
    (omega,) = circuits.layer_gate_maps(circ, theta, [0])
    dense = affine_rep(unitary_channel(circuits.layer_unitary(circ, theta, 0))).M
    np.testing.assert_allclose(omega, dense, rtol=0, atol=1e-12)
    np.testing.assert_allclose(omega @ omega.T, np.eye(len(omega)), rtol=0, atol=1e-12)


def test_cnot_chain_ptm_is_an_exact_signed_permutation():
    # every chain of up to 3 CNOTs on n <= 3 qubits: on the Pauli strings
    # the signs from the two-digit table are exactly +-1, the rows a
    # permutation, and the signed permutation is the transfer matrix of the
    # product of embedded CNOTs
    for n in (2, 3):
        pairs = list(itertools.permutations(range(n), 2))
        for length in (1, 2, 3):
            for chain in itertools.product(pairs, repeat=length):
                rows, sign = circuits._cnot_perm(chain, n, 4)
                assert set(sign.tolist()) <= {-1.0, 1.0}
                assert np.array_equal(np.sort(rows), np.arange(4**n - 1))
                u = np.eye(2**n, dtype=complex)
                for pair in chain:
                    u = gate_matrix(circuits.Gate(cnot=pair), n) @ u
                np.testing.assert_allclose(
                    sign[:, None] * np.eye(len(rows))[rows],
                    affine_rep(unitary_channel(u)).M, rtol=0, atol=1e-12)


@st.composite
def _columns(draw):
    """A rotation column, its factors and the CNOT run after it: n = 1..6
    for 2 x 2 rotations (base 2) or 1..3 for 4 x 4 transfer matrices (base
    4), qubits in any gate order with some left out, letters X/Y/Z (so the
    operators are complex), no, 1 or 3 angle rows, and a chain of 0..3
    CNOTs."""
    base = draw(st.sampled_from((2, 4)))
    n = draw(st.integers(1, 6 if base == 2 else 3))
    qubits = tuple(draw(st.permutations(range(n)))[:draw(st.integers(1, n))])
    k = len(qubits)
    letters = "".join(draw(st.lists(st.sampled_from("XYZ"), min_size=k, max_size=k)))
    rows = draw(st.sampled_from((None, 1, 3)))
    shape = (k,) if rows is None else (rows, k)
    angles = draw(st.lists(st.floats(-2 * np.pi, 2 * np.pi), min_size=k * (rows or 1),
                           max_size=k * (rows or 1)))
    angles = np.array(angles).reshape(shape)
    pairs = list(itertools.permutations(range(n), 2))
    chain = tuple(draw(st.lists(st.sampled_from(pairs), max_size=3))) if pairs else ()
    if base == 2:
        factors = circuits._rotation(circuits._paulis_1q(letters), angles)
    else:
        factors = circuits._rotation_ptm(letters, angles)
    return qubits, factors, n, chain


@settings(SETTINGS, max_examples=150)
@given(_columns())
def test_column_kernel_equals_the_gather_per_qubit_oracle_word_for_word(case):
    # the outer-product chain and its one gather (which carries the CNOT
    # run) against one gather per qubit followed by the run's row
    # permutation, or its signed permutation of Pauli strings, each built
    # by the oracle's own bit or letter arithmetic
    qubits, factors, n, chain = case
    want = dense_oracle.column(qubits, factors, n)
    if chain and factors.shape[-1] == 2:
        want = want[..., dense_oracle.cnot_rows(chain, n), :]
    elif chain:
        src, sign = dense_oracle.cnot_chain_ptm(chain, n)
        want = sign[:, None] * want[..., src, :]
    index, scale = circuits._column_index(n, factors.shape[-1], qubits, chain)
    got = circuits._column(factors, index, scale, None)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # into a given array (evolve's scratch), whatever it held before
    out = np.full(want.shape, np.nan, dtype=want.dtype)
    assert circuits._column(factors, index, scale, out) is out
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


# the layer kinds of ``_stretch_circuits``: a rotation column on every
# qubit with the CNOT chain after it (one stretch however its letters
# differ), and the layers that break a stretch or ride in it
STRETCH_LAYERS = ("chain", "chain", "chain", "mixture", "fixed_first", "cnot_first",
                  "other_qubits", "reversed", "unchained")


@st.composite
def _stretch_circuits(draw):
    """An n = 2 or 3 qubit circuit of 2..8 layers, most of them a column
    of X/Y/Z rotations on every qubit followed by the open CNOT chain, so
    consecutive ones make a stretch, and its noise.  A stretch is broken by
    a layer that starts with a fixed gate or a CNOT, by a column on other
    qubits or in another order, or by one without its chain; a layer that
    ends in a mixture stays in it (and layer_gate_maps skips it).  The
    noise is none, one channel on every qubit, a full-register channel,
    or a per-layer tuple with gaps that mixes both."""
    n = draw(st.integers(2, 3))
    kinds = draw(st.lists(st.sampled_from(STRETCH_LAYERS), min_size=2, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    layers = []
    for kind in kinds:
        qubits = list(range(n))
        if kind == "other_qubits":
            qubits = qubits[1:]
        elif kind == "reversed":
            qubits = qubits[::-1]
        column = [Gate(generator="".join(draw(st.sampled_from("XYZ")) if q == r else "I"
                                         for q in range(n))) for r in qubits]
        chain = [] if kind == "unchained" else [Gate(cnot=(q, q + 1)) for q in range(n - 1)]
        layer = column + chain
        if kind == "mixture":
            layer.append(Gate(mixture=RandomUnitaryNoise(
                probs=(0.8, 0.2), generators=("Y" + "I" * (n - 1), "Z" * n), intended=0)))
        elif kind == "fixed_first":
            layer.insert(0, Gate(matrix=random_unitary_matrix(2**n, rng)))
        elif kind == "cnot_first":
            layer.insert(0, Gate(cnot=(n - 1, 0)))
        layers.append(tuple(layer))
    circ = circuits.Circuit(n=n, layers=tuple(layers))
    one, full = named_channel("amplitude_damping", 0.3), random_channel(n, rng)
    noise = draw(st.sampled_from((
        NoiseSpec(), NoiseSpec.uniform(named_channel("depolarizing", 0.2)),
        NoiseSpec.uniform(full),
        NoiseSpec(tuple((None, one, full)[layer % 3] for layer in range(circ.depth))))))
    return circ, noise


@settings(SETTINGS, max_examples=60)
@given(case=_stretch_circuits(), seed=st.integers(0, 2**32 - 1))
def test_stretches_split_at_any_depth_give_the_bits_of_the_unsplit_render(case, seed):
    # the budget patched so every stretch renders k layers at a time (k =
    # 1, 2, 3) or all at once: evolve of one and of three rows and the gate
    # maps of the mixture-free layers keep every bit, and the unsplit
    # evolve matches the layer-by-layer oracle
    circ, noise = case
    n, d = circ.n, 2**circ.n
    thetas = np.random.default_rng(seed).uniform(0, 2 * np.pi, (3, circ.num_parameters))
    unitary = [layer for layer in range(circ.depth)
               if not any(gate.mixture for gate in circ.layers[layer])]
    # evolve counts its spare and the term stack of its widest one-qubit
    # entry against the budget too
    terms = max((ch._term_count for ch in noise.per_layer(circ) if ch is not None and ch.n < n),
                default=0)
    views = (  # bytes of a layer's outer product, bytes held beside them, layers, the view
        (16 * d * d, 16 * (1 + terms) * d * d, range(circ.depth),
         lambda: evolve(circ, thetas[0], noise).data),
        (48 * d * d, 48 * (1 + terms) * d * d, range(circ.depth),
         lambda: evolve(circ, thetas, noise)),
        (8 * 16**n, 0, unitary,
         lambda: np.array(list(circuits.layer_gate_maps(circ, thetas[0], unitary)))),
    )
    kernel = circuits._column

    def longest(layers):
        """The most of ``layers`` in a row that follow each other in one stretch."""
        best = run = 0
        for i, layer in enumerate(layers):
            stretch = circ.stretches[layer]
            follows = i > 0 and layers[i - 1] == layer - 1 and circ.stretches[layer - 1] is stretch
            run = 0 if stretch is None else run + 1 if follows else 1
            best = max(best, run)
        return best

    def render(k):
        out = []
        for layer, held, layers, view in views:
            depths = []

            def column(factors, index, scale, into):
                # a stretch's render has a leading layer axis before the
                # angle rows: (k, B, m, 2, 2) in evolve, (k, m, 4, 4) for maps
                if factors.ndim == (5 if factors.shape[-1] == 2 else 4):
                    depths.append(len(factors))
                return kernel(factors, index, scale, into)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(circuits, "STRETCH_BYTES", held + k * layer)
                mp.setattr(circuits, "_column", column)
                out.append(view())
            assert max(depths, default=0) == min(k, longest(list(layers))), (k, depths)
        return out

    want = render(circ.depth)
    assert want[1].tobytes() == dense_oracle.evolve(circ, thetas, noise).tobytes()
    for k in (1, 2, 3):
        for got, expected in zip(render(k), want):
            assert got.tobytes() == expected.tobytes(), k


def test_a_circuit_groups_its_layers_into_stretches_when_it_is_built():
    # consecutive layers whose first run is a column on the same qubits
    # with the same chain share one stretch, whatever their letters; a
    # fixed gate or CNOT first, other qubits, another order, or no chain
    # starts a new one or none
    n = 3
    chain = tuple(Gate(cnot=(q, q + 1)) for q in range(n - 1))

    def column(letters, qubits=range(n)):
        return tuple(Gate(generator="".join(ch if q == r else "I" for q in range(n)))
                     for r, ch in zip(qubits, letters))
    circ = circuits.Circuit(n=n, layers=(
        column("YYY") + chain, column("XZY") + chain,
        (Gate(cnot=(2, 0)),) + column("YYY") + chain,
        column("YYY") + chain, column("YY", (2, 1)) + chain,
        column("YYY"), column("ZZZ") + chain,
    ))
    firsts = [None if s is None else s[0] for s in circ.stretches]
    assert firsts == [0, 0, None, 3, 4, 5, 6]
    assert circ.stretches[0] is circ.stretches[1]
    assert circ.stretches[0][1].tolist() == [[0, 1, 2], [3, 4, 5]]
    assert circ.stretches[4][1].tolist() == [[12, 13]]
    assert not circ.stretches[0][1].flags.writeable


REPEAT_LAYERS = ("chain", "chain", "mixture", "fixed", "perturbed", "cnot_first", "bad")


def _bad_gates(n):
    """Gates a Circuit of n qubits refuses, each with its own message."""
    return (Gate(cnot=(0, 0)), Gate(cnot=(0, n)), Gate(matrix=np.eye(2**n + 1)),
            Gate(generator="Y" * (n + 1)),
            Gate(mixture=RandomUnitaryNoise((1.0,), ("X" * (n + 1),), 0)))


@st.composite
def _repeated_layers(draw):
    """(n, distinct, order): up to three distinct layer objects of an n = 2
    or 3 qubit circuit, and the order (1..8 layers, with repeats) in which
    a circuit passes them.  A layer is a column of X/Y/Z rotations on every
    qubit with the open CNOT chain after it, changed by a mixture, a fixed
    gate or a rotation under control noise at any slot, a CNOT first, or a
    gate the circuit refuses."""
    n = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    distinct = []
    for kind in draw(st.lists(st.sampled_from(REPEAT_LAYERS), min_size=1, max_size=3)):
        layer = [Gate(generator="".join(draw(st.sampled_from("XYZ")) if q == r else "I"
                                        for q in range(n))) for r in range(n)]
        layer += [Gate(cnot=(q, q + 1)) for q in range(n - 1)]
        if kind == "cnot_first":
            layer.insert(0, Gate(cnot=(n - 1, 0)))
        elif kind != "chain":
            if kind == "mixture":
                gate = Gate(mixture=RandomUnitaryNoise(
                    probs=(0.8, 0.2), generators=("Y" + "I" * (n - 1), "Z" * n), intended=0))
            elif kind == "fixed":
                gate = Gate(matrix=random_unitary_matrix(2**n, rng))
            elif kind == "perturbed":
                gate = circuits.perturbed_gate(Gate(generator="I" * (n - 1) + "X"),
                                               {"Z" * n: 0.05})
            else:
                gate = draw(st.sampled_from(_bad_gates(n)))
            layer.insert(draw(st.integers(0, len(layer))), gate)
        distinct.append(tuple(layer))
    order = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8))
    return n, distinct, order


def _circuit_or_refusal(n, layers):
    try:
        return circuits.Circuit(n=n, layers=layers)
    except ValueError as exc:
        return exc


def _assert_same_plan(a, b):
    """Two circuits whose parameter numbers, runs, column plan and
    stretches are equal."""
    assert dict(a.parameter_index) == dict(b.parameter_index)
    assert a.runs == b.runs
    (chars_a, params_a, spans_a), (chars_b, params_b, spans_b) = a.columns, b.columns
    assert chars_a == chars_b and spans_a == spans_b
    assert params_a.dtype == params_b.dtype and params_a.tobytes() == params_b.tobytes()
    assert not params_a.flags.writeable
    assert len(a.stretches) == len(b.stretches)
    for x, y in zip(a.stretches, b.stretches):
        assert (x is None) == (y is None)
        if x is not None:
            assert x[0] == y[0] and x[1].dtype == y[1].dtype
            assert x[1].shape == y[1].shape and x[1].tobytes() == y[1].tobytes()
            assert not x[1].flags.writeable


@settings(SETTINGS, max_examples=80)
@given(_repeated_layers())
def test_a_repeated_layer_object_is_grouped_as_its_copies_are(case):
    # the circuit groups each distinct layer object once; a repeat must
    # get the plan that a copy of it, grouped afresh, gets
    n, distinct, order = case
    shared = tuple(distinct[i] for i in order)
    copies = tuple(tuple(replace(g) for g in distinct[i]) for i in order)
    a, b = _circuit_or_refusal(n, shared), _circuit_or_refusal(n, copies)
    if isinstance(b, Exception):
        assert type(a) is type(b) and str(a) == str(b)
        return
    _assert_same_plan(a, b)
    thetas = np.random.default_rng(len(order)).uniform(0, 2 * np.pi, (2, a.num_parameters))
    for noise in (NoiseSpec(), NoiseSpec.uniform(named_channel("amplitude_damping", 0.2))):
        assert evolve(a, thetas, noise).tobytes() == evolve(b, thetas, noise).tobytes()


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("depth", [1, 2, 6, 24])
def test_build_two_local_plans_as_per_layer_copies_do(n, depth):
    circ = build_two_local(n, depth)
    assert len({id(layer) for layer in circ.layers}) == 1
    copies = tuple(tuple(replace(g) for g in layer) for layer in circ.layers)
    _assert_same_plan(circ, circuits.Circuit(n=n, layers=copies))
    assert [circ.parameter((layer, q)) for layer in range(depth) for q in range(n)] == list(
        range(n * depth))


def test_column_indexes_are_built_once_per_key_and_stay_small():
    n, chain = 3, ((0, 1), (1, 2))
    circ = build_two_local(n, 4)
    theta = np.linspace(0.1, 2.0, circ.num_parameters)
    noise = NoiseSpec.uniform(named_channel("amplitude_damping", 0.3))
    circuits._column_index.cache_clear()
    evolve(circ, theta, noise)
    layer_affine_maps(circ, theta, noise)
    first = {base: circuits._column_index(n, base, tuple(range(n)), chain) for base in (2, 4)}
    for _ in range(3):
        evolve(circ, theta[None].repeat(2, axis=0), noise)
        layer_affine_maps(circ, theta, noise)
    # one entry per (n, base, qubits, chain): the two-local layer's dense
    # and affine views, each the very object built first, and read-only
    assert circuits._column_index.cache_info().misses == 2
    for base, entry in first.items():
        assert circuits._column_index(n, base, tuple(range(n)), chain) is entry
        for arr in entry:
            if arr is not None:
                assert not arr.flags.writeable
    # at the largest register a full column with the two-local chain is one
    # 2 MiB index; a column that leaves a qubit out adds a 256 KiB mask
    two_local = tuple((q, q + 1) for q in range(MAX_QUBITS - 1))
    full = circuits._column_index(MAX_QUBITS, 2, tuple(range(MAX_QUBITS)), two_local)
    assert full[1] is None and full[0].nbytes <= 2 * 2**20
    index, mask = circuits._column_index(MAX_QUBITS, 2, tuple(range(1, MAX_QUBITS)), ())
    worst = index.nbytes + mask.nbytes
    assert worst <= 2.25 * 2**20
    # the cache bound keeps its worst case within the one (MAX_QUBITS, D, D)
    # int64 digit table the per-qubit gather kept for that register
    maxsize = circuits._column_index.cache_parameters()["maxsize"]
    assert maxsize * worst <= MAX_QUBITS * 4**MAX_QUBITS * 8
    circuits._column_index.cache_clear()


def _chain_ops(circ, thetas, layer):
    """The reference layer builder: each gate's full-register unitary
    (``Gate.unitary``, control noise included) multiplied in one by one as
    ``u @ acc``, and each random-unitary mixture as its own Kraus set."""
    ops, acc = [], None
    for slot, gate in enumerate(circ.layers[layer]):
        if gate.is_parameterized:
            angle = thetas[..., circ.parameter_index[(layer, slot)]]
            if gate.mixture is not None:
                if acc is not None:
                    ops.append([acc])
                    acc = None
                ops.append(circuits._mixture_ops(gate.mixture, angle))
                continue
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
    for layer, channel in enumerate(noise.per_layer(circ)):
        for ops in _chain_ops(circ, thetas, layer):
            rho = _apply_kraus(rho, ops)
        rho = dense_oracle.layer_channel(rho, channel)
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
    # permutation round exactly as the gate-by-gate products do, on the
    # dense path at every width; from ENGINE_MIN_QUBITS on, evolve runs on
    # Pauli components and agrees within 1e-12
    circ = build_two_local(n, depth)
    noise = NoiseSpec.named(name, p)
    thetas = np.random.default_rng(seed).uniform(
        0, 2 * np.pi, size=(batch, circ.num_parameters))
    chain = _chain_evolve(circ, thetas, noise)
    assert np.array_equal(circuits._dense_evolve(circ, thetas, noise.per_layer(circ)), chain)
    if n < circuits.ENGINE_MIN_QUBITS:
        assert np.array_equal(evolve(circ, thetas, noise), chain)
    else:
        np.testing.assert_allclose(evolve(circ, thetas, noise), chain, rtol=0, atol=1e-12)


PAULI_PATH_NOISE = ("amplitude_damping", "depolarizing", "flip_then_damp")


@st.composite
def _pauli_path_circuits(draw):
    """A circuit of n = 5..7 qubits and 1..3 layers that ``evolve`` runs on
    Pauli components, with its noise: each layer up to three runs, each a
    column of X, Y and Z rotations on qubits in any order (some left out),
    with or without CNOTs after it (its chain, when it starts the layer),
    or CNOTs alone.  The noise is none, one channel after every layer, or a
    per-layer tuple with gaps."""
    n = draw(st.integers(5, 7))
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        gates = []
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                qubits = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
                for q in qubits:
                    letter = draw(st.sampled_from("XYZ"))
                    gates.append(Gate(generator="".join(letter if k == q else "I"
                                                        for k in range(n))))
            for _ in range(draw(st.integers(0, 3))):
                c, t = draw(st.permutations(range(n)))[:2]
                gates.append(Gate(cnot=(c, t)))
        layers.append(tuple(gates))
    circ = circuits.Circuit(n=n, layers=tuple(layers))
    p = draw(st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(["per_layer", "uniform", "none"]))
    if kind == "uniform":
        noise = NoiseSpec.uniform(named_channel(draw(st.sampled_from(PAULI_PATH_NOISE)), p))
    elif kind == "per_layer":
        names = draw(st.lists(st.sampled_from((None,) + PAULI_PATH_NOISE),
                              min_size=circ.depth, max_size=circ.depth))
        noise = NoiseSpec(tuple(None if name is None else named_channel(name, p)
                                for name in names))
    else:
        noise = NoiseSpec()
    return circ, noise


@settings(SETTINGS, max_examples=40)
@given(case=_pauli_path_circuits(), batch=st.sampled_from([1, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_pauli_path_matches_the_dense_oracle(case, batch, seed):
    circ, noise = case
    assert circuits._pauli_path(circ, noise.per_layer(circ))
    thetas = np.random.default_rng(seed).uniform(
        0, 2 * np.pi, size=(batch, circ.num_parameters))
    np.testing.assert_allclose(evolve(circ, thetas, noise),
                               dense_oracle.evolve(circ, thetas, noise), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("name", ["none", "amplitude_damping", "depolarizing"])
def test_pauli_path_row_b_is_the_row_evolved_alone_bit_for_bit(n, name):
    circ = build_two_local(n, 3)
    noise = NoiseSpec.named(name, 0.3)
    thetas = np.random.default_rng(n).uniform(0, 2 * np.pi, size=(3, circ.num_parameters))
    stack = evolve(circ, thetas, noise)
    for b, theta in enumerate(thetas):
        assert np.array_equal(_bits(stack[b]), _bits(evolve(circ, theta, noise).data))


def _orthogonal(rng, shape):
    q, _ = np.linalg.qr(rng.normal(size=shape + (4, 4)))
    return q


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
@pytest.mark.parametrize("batch", [1, 3])
def test_qubit_maps_in_pairs_match_the_per_qubit_oracle(n, batch):
    # every qubit's map is None, one shared 4 x 4 map or a (B, 4, 4) stack:
    # all alike, and in both cycles of the three kinds at each shift, which
    # puts every ordered mix of two kinds on some pair and each kind alone
    # on qubit 0 at odd n; row b's bits are those of the row put on alone
    rng = np.random.default_rng([n, batch])
    patterns = [[kind] * n for kind in ("none", "shared", "rows")]
    patterns += [[cycle[(q + shift) % 3] for q in range(n)]
                 for cycle in (("none", "shared", "rows"), ("none", "rows", "shared"))
                 for shift in range(3)]
    x = rng.uniform(-1, 1, size=(batch, 4**n))
    for kinds in patterns:
        maps = [None if kind == "none" else _orthogonal(rng, () if kind == "shared" else (batch,))
                for kind in kinds]
        got, _ = circuits._qubit_maps(x.copy(), np.empty_like(x), maps)
        np.testing.assert_allclose(got, dense_oracle.qubit_maps(x, maps), rtol=0, atol=1e-13)
        for b in range(batch):
            row = [m if m is None or m.ndim == 2 else m[b:b + 1] for m in maps]
            alone, _ = circuits._qubit_maps(x[b:b + 1].copy(), np.empty_like(x[:1]), row)
            assert np.array_equal(_bits(got[b]), _bits(alone[0]))


@pytest.mark.parametrize("case", ["mixture", "fixed", "perturbed", "weight2", "full_register"])
def test_a_call_off_the_pauli_path_is_the_dense_path_bit_for_bit(case):
    n = 5
    circ = build_two_local(n, 2)
    damping = named_channel("amplitude_damping", 0.3)
    noise = NoiseSpec.uniform(damping)
    if case in ("mixture", "perturbed"):
        circ = _gate_noise("mixture" if case == "mixture" else "control", circ)
    elif case == "fixed":
        fixed = Gate(matrix=random_unitary_matrix(2**n, np.random.default_rng(3)))
        circ = circ.with_gate((0, n), fixed)
    elif case == "weight2":
        circ = circ.with_gate((1, 2), Gate(generator="IXZII"))
    else:
        noise = NoiseSpec.uniform(channels.tensor_channel([damping] * n))
    layer_channels = noise.per_layer(circ)
    assert not circuits._pauli_path(circ, layer_channels)
    thetas = np.random.default_rng(4).uniform(0, 2 * np.pi, size=(3, circ.num_parameters))
    for rows in (thetas[:1], thetas):
        assert np.array_equal(_bits(evolve(circ, rows, noise)),
                              _bits(circuits._dense_evolve(circ, rows, layer_channels)))


@settings(SETTINGS, max_examples=60)
@given(_gate_layers(max_qubits=4, mixtures=True))
def test_evolve_and_layer_unitary_follow_gate_chain(layer):
    circ, theta = layer
    noise = NoiseSpec()
    np.testing.assert_allclose(
        evolve(circ, theta, noise).data, _chain_evolve(circ, theta[None], noise)[0],
        rtol=0, atol=1e-12)
    if any(gate.mixture for gate in circ.layers[0]):
        return
    (chain,), = _chain_ops(circ, theta, 0)
    np.testing.assert_allclose(
        circuits.layer_unitary(circ, theta, 0), chain, rtol=0, atol=1e-12)


@settings(SETTINGS, max_examples=80)
@given(
    layers=_gate_layers(max_qubits=4, mixtures=True, max_depth=3),
    kind=st.sampled_from(["none", "uniform", "per_layer", "per_qubit", "full_register"]),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolve_equals_per_layer_assembly_bit_for_bit(layers, kind, p, seed):
    # every column of the circuit rendered before layer 0 rounds exactly as
    # each layer's columns rendered when the layer is reached
    circ, theta = layers
    noise = _noise(kind, circ.n, circ.depth, p)
    thetas = np.random.default_rng(seed).uniform(0, 2 * np.pi, (3, circ.num_parameters))
    assert np.array_equal(_bits(evolve(circ, thetas, noise)),
                          _bits(dense_oracle.evolve(circ, thetas, noise)))
    assert np.array_equal(_bits(evolve(circ, theta, noise).data),
                          _bits(dense_oracle.evolve(circ, theta[None], noise)[0]))
    for layer in range(circ.depth):
        if not any(gate.mixture for gate in circ.layers[layer]):
            ops = dense_oracle.layer_ops(circ, theta, layer)
            want = ops[0][0] if ops else np.eye(2**circ.n, dtype=complex)
            assert np.array_equal(
                _bits(circuits.layer_unitary(circ, theta, layer)), _bits(want))


def test_evolve_equals_per_layer_assembly_on_every_run_kind():
    # one circuit with each run kind the property test draws: columns on
    # different qubits per layer, a column split by a repeated qubit, a
    # weight-2 rotation, a fixed gate, CNOTs, control noise and a mixture,
    # under a per-layer noise tuple and a per-qubit product channel
    n = 3
    fixed = Gate(matrix=random_unitary_matrix(8, np.random.default_rng(5)))
    circ = circuits.Circuit(n=n, layers=(
        (Gate(generator="YII"), Gate(generator="IXI"), Gate(generator="ZII"),
         Gate(cnot=(0, 2)), Gate(generator="XYI"), fixed),
        (Gate(generator="IIY"), Gate(generator="IZI"), Gate(cnot=(2, 1)),
         Gate(generator="IIX"), Gate(generator="YII")),
        (Gate(cnot=(1, 0)), Gate(generator="IYI"), Gate(generator="IIZ")),
    ))
    assert [kind for kind, _ in circ.runs[0]] == ["column", "column", "cnots", "gate", "gate"]
    assert [run.qubits for kind, run in circ.runs[1] if kind == "column"] == [(2, 1), (2, 0)]
    spec = RandomUnitaryNoise(probs=(0.9, 0.1), generators=("IIX", "ZZZ"), intended=0)
    circ = circ.with_gate((2, 1), circuits.perturbed_gate(circ.gate_at((2, 1)), {"XIZ": 0.05}))
    circ = circ.with_gate((1, 3), Gate(mixture=spec))
    thetas = np.random.default_rng(6).uniform(0, 2 * np.pi, (3, circ.num_parameters))
    for kind in ("per_layer", "per_qubit"):
        noise = _noise(kind, n, circ.depth, 0.3)
        for rows in (thetas[:1], thetas):
            assert np.array_equal(_bits(evolve(circ, rows, noise)),
                                  _bits(dense_oracle.evolve(circ, rows, noise)))


def test_layer_gate_map_refuses_mixture_layers():
    spec = RandomUnitaryNoise(probs=(0.8, 0.2), generators=("YI", "ZZ"), intended=0)
    circ = build_two_local(2, 2).with_gate((1, 0), Gate(mixture=spec))
    list(circuits.layer_gate_maps(circ, np.zeros(4), [0]))
    with pytest.raises(ValueError, match="mixture"):
        list(circuits.layer_gate_maps(circ, np.zeros(4), [1]))


def test_evolve_rejects_bad_angle_shapes():
    circ = build_two_local(2, 2)
    for shape in [(3,), (2, 3), (1, 2, 4)]:
        with pytest.raises(ValueError, match="parameters per row"):
            evolve(circ, np.zeros(shape), NoiseSpec())


def test_an_empty_angle_stack_is_refused_and_named():
    # before, a (0, P) stack met a bare "cannot reshape array of size 0"
    # in the noise kernel, from evolve and from psr_gradient alike
    circ = build_two_local(2, 2)
    noise = NoiseSpec.named("amplitude_damping", 0.3)
    H = random_two_local(2, 1)
    for call in (lambda t: evolve(circ, t, noise),
                 lambda t: psr_gradient(circ, t, noise, H, (0, 0)),
                 lambda t: psr_gradient(circ, t, noise, [], (0, 0))):
        with pytest.raises(ValueError, match=re.escape("at least one row of angles, got shape (0, 4)")):
            call(np.zeros((0, circ.num_parameters)))


def test_psr_gradient_refuses_a_hamiltonian_list_before_it_evolves(monkeypatch):
    # before, cost refused the list only after both shifted stacks were evolved
    circ = build_two_local(3, 2)
    noise = NoiseSpec.uniform(named_channel("depolarizing", 0.1))
    thetas = np.zeros((3, circ.num_parameters))
    evolved = []
    monkeypatch.setattr(gradients, "evolve", lambda *args: evolved.append(args))
    for hs in ([random_two_local(3, 0)] * 2, [random_two_local(3, 0)] * 4):
        with pytest.raises(ValueError, match=f"{len(hs)} Hamiltonians for 3 angle rows"):
            psr_gradient(circ, thetas, noise, hs, (0, 0))
    assert evolved == []


def test_psr_gradient_refuses_a_hamiltonian_of_another_width_before_it_evolves(monkeypatch):
    # before, cost refused it only after both shifted stacks were evolved
    circ = build_two_local(3, 2)
    noise = NoiseSpec.uniform(named_channel("depolarizing", 0.1))
    thetas = np.zeros((3, circ.num_parameters))
    evolved = []
    monkeypatch.setattr(gradients, "evolve", lambda *args: evolved.append(args))
    wide, narrow = random_two_local(3, 0), random_two_local(2, 0)
    for H in (narrow, [wide, narrow, wide]):
        with pytest.raises(DimensionMismatchError, match="H has n=2, state n=3"):
            psr_gradient(circ, thetas, noise, H, (0, 0))
    assert evolved == []


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


@SETTINGS
@given(
    n=st.integers(2, 4),
    depth=st.integers(1, 3),
    kind=st.sampled_from(["uniform", "damping", "per_qubit", "full_register", "mixture"]),
    p=st.floats(0.0, 1.0),
    batch=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_psr_gradient_per_row_hamiltonians_equal_single_rows(n, depth, kind, p, batch, seed):
    # rows of mixed Hamiltonians and locations, in one call, give the
    # bits of one call per row
    circ = _gate_noise(kind, build_two_local(n, depth))
    noise = _noise(kind, n, depth, p)
    rng = np.random.default_rng(seed)
    pool = [random_two_local(n, rng) for _ in range(3)]
    params = list(circ.parameter_index)
    hs = [pool[i] for i in rng.integers(0, len(pool), batch)]
    locs = [params[i] for i in rng.integers(0, len(params), batch)]
    thetas = rng.uniform(0, 2 * np.pi, (batch, circ.num_parameters))
    grads = psr_gradient(circ, thetas, noise, hs, locs)
    single = np.array([psr_gradient(circ, t, noise, h, loc)
                       for t, h, loc in zip(thetas, hs, locs)])
    np.testing.assert_array_equal(grads.view(np.uint64), single.view(np.uint64))


def test_psr_gradient_refuses_per_row_hamiltonians_that_do_not_fit():
    circ = build_two_local(3, 2)
    noise = NoiseSpec.uniform(named_channel("depolarizing", 0.1))
    thetas = np.zeros((3, circ.num_parameters))
    hs = [random_two_local(3, k) for k in range(3)]
    with pytest.raises(ValueError, match="2 Hamiltonians for 3 angle rows"):
        psr_gradient(circ, thetas, noise, hs[:2], (0, 0))
    # a Hamiltonian of the wrong width is refused as cost refuses it
    narrow = random_two_local(2, 0)
    with pytest.raises(DimensionMismatchError, match="H has n=2, state n=3") as batched:
        psr_gradient(circ, thetas, noise, [hs[0], narrow, hs[2]], (0, 0))
    with pytest.raises(DimensionMismatchError) as single:
        cost(narrow, evolve(circ, thetas[0], noise))
    assert str(batched.value) == str(single.value)


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


def test_gradient_stats_blocks_straddle_hamiltonians(monkeypatch):
    # at n=6 a block holds 4 rows, and each Hamiltonian has 3 angle draws at
    # the 3 default locations of L=2, (1, 0) twice: 9 rows, so blocks mix
    # the rows of two Hamiltonians
    circ = build_two_local(6, 2)
    assert gradients._BLOCK_BYTES // (16 * 4**6) == 4
    calls = []
    real_psr = gradients.psr_gradient

    def recording_psr(circ, thetas, noise, H, locations):
        calls.append(len({id(h) for h in H}))
        return real_psr(circ, thetas, noise, H, locations)

    monkeypatch.setattr(gradients, "psr_gradient", recording_psr)
    spec = SweepSpec(
        circuit=circ, noise=NoiseSpec.uniform(named_channel("amplitude_damping", 0.3)),
        locations=gradients.default_locations(circ), num_hamiltonians=2,
        thetas_per_hamiltonian=3, seed=5,
    )
    assert spec.locations == ((0, 0), (1, 0), (1, 0))
    stats = gradient_stats(spec)
    monkeypatch.undo()
    assert calls == [1, 1, 2, 1, 1]
    expected = _looped_stats(spec)
    assert set(stats) == {(0, 0), (1, 0)}
    for loc, s in stats.items():
        assert (s.mean_abs, s.variance, s.min, s.max, s.samples) == expected[loc]
    drawn = tuple(h_norm(random_two_local(6, np.random.default_rng([5, i]))) for i in range(2))
    assert stats[(0, 0)].h_norms == drawn


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
