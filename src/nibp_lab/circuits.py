"""Layered parameterized circuits with per-layer CPTP noise.

A circuit is a list of layers; each layer is a sequence of gates: Pauli
rotations exp(-i theta P / 2), CNOTs, fixed unitaries, or random-unitary
mixtures.  A gate's place is its (layer, slot).  Noise enters in three
ways: as a layer channel (a CPTP map after each layer, given by a
``NoiseSpec``), as a perturbed rotation (control noise on its generator,
``perturbed_gate``), or as a mixture gate (rotations sharing one angle,
``Gate(mixture=...)``).

A circuit groups each layer's gates into runs once, when it is built
(``Circuit.runs``): a column of weight-1 rotations on distinct qubits, a
run of CNOTs, a mixture, and single other gates.  Every layer view reads
those runs.  One kernel (``_column``) renders a column from
its one-qubit factors: 2 x 2 rotations for the dense path (``evolve``,
which computes the factors of every column in the circuit in one call
before layer 0, then builds each layer just before applying it), 4 x 4
Pauli transfer matrices for the affine path (``layer_gate_map``).  A CNOT
is its (control, target) pair: a CNOT run is one cached row permutation of
the basis states on the dense path, and one cached signed permutation of
the Pauli strings on the affine path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Collection, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .channels import (
    KrausChannel,
    _apply_kraus,
    check_affine_size,
    identity_channel,
    named_channel,
    transfer_matrix,
    unitary_channel,
)
from .pauli import (
    MAX_QUBITS,
    DensityMatrix,
    DimensionMismatchError,
    _pauli_matrix,
    check_pauli,
    hamming_weight,
    pauli_strings_by_weight,
    qubit_count,
)

CONTROL_NOISE_NORM_CAP = 0.2

Location = tuple[int, int]


@dataclass(frozen=True)
class Gate:
    """One gate, in exactly one of four forms: a rotation about the Pauli
    string ``generator`` (with an optional control-noise ``perturbation``),
    a CNOT on the (control, target) pair ``cnot``, a fixed full-register
    unitary ``matrix``, or a random-unitary ``mixture`` of rotations."""

    generator: str | None = None  # Pauli letters, full register length
    cnot: tuple[int, int] | None = None
    matrix: np.ndarray | None = field(default=None, repr=False, hash=False)
    perturbation: tuple[tuple[str, float], ...] | None = None
    mixture: RandomUnitaryNoise | None = None

    def __eq__(self, other: object) -> bool:
        """Equal when every field is; fixed gates compare their matrices by
        value."""
        if not isinstance(other, Gate):
            return NotImplemented
        return (self.generator, self.cnot, self.perturbation, self.mixture) == (
            other.generator, other.cnot, other.perturbation, other.mixture
        ) and np.array_equal(self.matrix, other.matrix)

    def __post_init__(self):
        forms = (self.generator, self.cnot, self.matrix, self.mixture)
        if sum(form is not None for form in forms) != 1:
            raise ValueError(
                "a gate is exactly one of a generator, a CNOT pair, a matrix or a mixture")
        if self.generator is not None:
            # a rotation's generator sets the register width it acts on
            check_pauli(self.generator, len(self.generator))
        elif self.perturbation:
            raise ValueError("only rotation gates can carry control noise")

    @property
    def is_parameterized(self) -> bool:
        """A rotation or a mixture: a gate that takes an angle."""
        return self.generator is not None or self.mixture is not None

    def unitary(self, theta: float | np.ndarray) -> np.ndarray:
        """The rotation exp(-i theta G / 2) on the full register, G the
        generator plus its perturbation; a (B,) array of angles gives a
        (B, d, d) stack."""
        if self.generator is None:
            raise ValueError("only a rotation gate has an angle-dependent unitary")
        g = _pauli_matrix(self.generator)
        if not self.perturbation:
            return _rotation(g, theta)
        for letters, coeff in self.perturbation:
            g = g + coeff * _pauli_matrix(letters)
        w, vec = np.linalg.eigh(g)
        angle = np.asarray(theta)[..., None, None]
        return (vec * np.exp(-0.5j * angle * w)) @ vec.conj().T


def _rotation(p: np.ndarray, theta: float | np.ndarray) -> np.ndarray:
    """cos(theta/2) I - i sin(theta/2) P, stacked over an array of angles;
    a (k, m, m) stack of generators takes angles of shape (..., k)."""
    half = np.asarray(theta)[..., None, None] / 2
    eye = np.eye(p.shape[-1], dtype=complex)
    return np.cos(half) * eye - 1j * np.sin(half) * p


def ry_gate(qubit: int, n: int) -> Gate:
    return Gate(generator="".join("Y" if q == qubit else "I" for q in range(n)))


def perturbed_gate(g: Gate, a: Mapping[str, float]) -> Gate:
    """Replace the rotation generator P by P + sum_k a_k P_k.

    The gate stays exactly unitary; the perturbation operator norm is capped
    to keep the coherent error small.
    """
    if g.generator is None:
        raise ValueError("only rotation gates can carry control noise")
    n = len(g.generator)
    items = tuple((check_pauli(letters, n), float(coeff)) for letters, coeff in a.items())
    if items:
        pert = sum(coeff * _pauli_matrix(letters) for letters, coeff in items)
        norm = float(np.linalg.norm(pert, 2))
        if norm >= CONTROL_NOISE_NORM_CAP:
            raise ValueError(
                f"perturbation norm {norm:.3f} exceeds cap {CONTROL_NOISE_NORM_CAP}"
            )
    return replace(g, perturbation=items or None)


@dataclass(frozen=True)
class RandomUnitaryNoise:
    """Mixture {p_k, exp(-i theta P_k / 2)} sharing the gate's angle."""

    probs: tuple[float, ...]
    generators: tuple[str, ...]  # Pauli letter strings, full register length
    intended: int  # index of the intended rotation axis

    def __post_init__(self):
        if len(self.probs) != len(self.generators):
            raise ValueError("probs and generators length mismatch")
        if type(self.intended) is not int or not 0 <= self.intended < len(self.probs):
            raise ValueError(
                f"intended={self.intended!r} is not an index of the {len(self.probs)} rotations")
        for letters in self.generators:
            check_pauli(letters, len(self.generators[0]))
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {sum(self.probs)!r}, not 1")
        if any(p < 0 for p in self.probs):
            raise ValueError("negative probability")
        if self.probs[self.intended] < max(self.probs):
            raise ValueError("intended rotation must carry the dominant weight")


def _mixture_ops(spec: RandomUnitaryNoise, theta: float | np.ndarray) -> list:
    """sqrt(p_k) exp(-i theta P_k / 2), stacked over an array of angles."""
    return [
        np.sqrt(p) * _rotation(_pauli_matrix(letters), theta)
        for p, letters in zip(spec.probs, spec.generators)
    ]


def random_unitary_channel(spec: RandomUnitaryNoise, theta: float) -> KrausChannel:
    """Kraus form {sqrt(p_k) exp(-i theta P_k / 2)} of the mixture."""
    return KrausChannel(tuple(_mixture_ops(spec, theta)))


@dataclass(frozen=True)
class NoiseSpec:
    """The layer channels: the noise after each layer.  Gate noise is part
    of its gate (``perturbed_gate``, ``Gate(mixture=...)``).

    ``layer_channels`` is one entry for every layer, or a tuple of one entry
    per layer.  An entry is None or one channel: a single-qubit channel
    applied to every qubit, or a full-register channel (a product of
    different single-qubit channels is one ``tensor_channel`` entry).
    """

    layer_channels: KrausChannel | tuple[KrausChannel | None, ...] | None = None

    def __post_init__(self):
        lc = self.layer_channels
        for layer, entry in enumerate(lc if isinstance(lc, tuple) else (lc,)):
            if entry is not None and not isinstance(entry, KrausChannel):
                where = f"after layer {layer}" if isinstance(lc, tuple) else "for every layer"
                raise TypeError(f"layer channel {entry!r} {where} is not None or a KrausChannel")

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls()

    @classmethod
    def uniform(cls, channel: KrausChannel) -> "NoiseSpec":
        return cls(layer_channels=channel)

    @classmethod
    def named(cls, noise_type: str, p: float) -> "NoiseSpec":
        """A named channel on every qubit after every layer; only
        ``noise_type == "none"`` is noiseless, whatever ``p``."""
        if noise_type == "none":
            return cls.none()
        return cls.uniform(named_channel(noise_type, p))

    def check(self, circ: Circuit) -> None:
        """Reject a per-layer tuple that does not cover exactly the circuit's
        layers."""
        lc = self.layer_channels
        if isinstance(lc, tuple) and len(lc) != circ.depth:
            raise DimensionMismatchError(
                f"per-layer noise has {len(lc)} entries, circuit has {circ.depth} layers"
            )

    def layer_channel(self, layer: int, n: int) -> KrausChannel | None:
        """The noise after ``layer`` on an n-qubit register: None, a
        single-qubit channel for every qubit, or a full-register channel."""
        lc = self.layer_channels
        entry = lc[layer] if isinstance(lc, tuple) else lc
        if entry is not None and entry.n not in (1, n):
            raise DimensionMismatchError(
                f"layer channel acts on {entry.n} qubits, register has {n}")
        return entry


@dataclass(frozen=True)
class Circuit:
    """Layered ansatz.  Its parameters are its rotations and mixtures:
    ``parameter_index`` numbers them 0, 1, ... in (layer, slot) order.
    ``runs`` holds each layer's gates grouped into runs (see
    ``_group_runs``)."""

    n: int
    layers: tuple[tuple[Gate, ...], ...]
    parameter_index: Mapping[Location, int] = field(init=False, repr=False, compare=False)
    runs: tuple[tuple[Run, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        index: dict[Location, int] = {}
        runs = []
        for layer, gates in enumerate(self.layers):
            for slot, g in enumerate(gates):
                if g.is_parameterized:
                    for letters in g.mixture.generators if g.mixture else (g.generator,):
                        check_pauli(letters, n)
                    index[(layer, slot)] = len(index)
                elif g.cnot is not None:
                    c, t = g.cnot
                    if c == t or not {c, t} <= set(range(n)):
                        raise DimensionMismatchError(
                            f"CNOT pair {g.cnot} is not two distinct qubits of {n}")
                elif g.matrix.shape != (2**n, 2**n):
                    raise DimensionMismatchError(
                        f"fixed gate of shape {g.matrix.shape} on {n} qubits")
            runs.append(_group_runs(gates, layer, index))
        object.__setattr__(self, "parameter_index", MappingProxyType(index))
        object.__setattr__(self, "runs", tuple(runs))

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def num_parameters(self) -> int:
        return len(self.parameter_index)

    def gate_at(self, location: Location) -> Gate:
        """The gate at (layer, slot); a location it lacks (a negative one too) is refused."""
        layer, slot = location
        if not (0 <= layer < self.depth and 0 <= slot < len(self.layers[layer])):
            raise ValueError(f"circuit has no gate at {location}")
        return self.layers[layer][slot]

    def parameter(self, location: Location) -> int:
        """The parameter index of the gate at ``location``; a gate without one is refused."""
        if not self.gate_at(location).is_parameterized:
            raise ValueError(f"gate at {location} carries no parameter")
        return self.parameter_index[tuple(location)]

    def angle_rows(self, theta: np.ndarray) -> np.ndarray:
        """``theta`` as a (B, P) float stack, a (P,) vector as one row; other shapes are refused."""
        theta = np.asarray(theta, dtype=float)
        rows = theta[None] if theta.ndim == 1 else theta
        if rows.ndim != 2 or rows.shape[1] != self.num_parameters:
            raise ValueError(
                f"expected {self.num_parameters} parameters per row, got {theta.shape}")
        return rows

    def angle_row(self, theta: np.ndarray) -> np.ndarray:
        """``theta`` as one (P,) float vector; any other shape, a stack too, is refused."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.num_parameters,):
            raise ValueError(
                f"expected one row of {self.num_parameters} angles, got shape {theta.shape}")
        return theta

    def parameterized_locations(self) -> list[Location]:
        return list(self.parameter_index)

    def with_gate(self, location: Location, gate: Gate) -> "Circuit":
        """A copy with the gate at ``location`` (which it must have)
        replaced by ``gate``, its rotations numbered afresh."""
        self.gate_at(location)
        layer, slot = location
        gates = list(self.layers[layer])
        gates[slot] = gate
        layers = self.layers[:layer] + (tuple(gates),) + self.layers[layer + 1:]
        return replace(self, layers=layers)


def build_two_local(n: int, depth: int) -> Circuit:
    """RY column followed by an open-boundary CNOT chain, repeated ``depth``
    times; the RY on qubit q of layer l has parameter index l * n + q."""
    if n < 2:
        raise ValueError(f"two-local ansatz needs n >= 2, got {n}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    layer = tuple(ry_gate(q, n) for q in range(n)) + tuple(
        Gate(cnot=(q, q + 1)) for q in range(n - 1))
    return Circuit(n=n, layers=(layer,) * depth)


# ---------------------------------------------------------------------------
# State evolution
# ---------------------------------------------------------------------------


class Column(NamedTuple):
    """Weight-1 rotations without perturbation on distinct qubits, in gate
    order: rotation k turns qubit ``qubits[k]`` about ``letters[k]`` by
    parameter ``params[k]``."""

    qubits: tuple[int, ...]
    letters: str
    params: tuple[int, ...]


Run = tuple[str, object]


def _group_runs(
    gates: Sequence[Gate], layer: int, parameter_index: Mapping[Location, int]
) -> tuple[Run, ...]:
    """Group one layer's gates into read-only runs, in gate order.

    ``("column", Column)``: weight-1 rotations without perturbation, on
    distinct qubits, in gate order;
    ``("cnots", ((control, target), ...))``: consecutive CNOTs;
    ``("mixture", (parameter index, RandomUnitaryNoise))``: a mixture gate;
    ``("gate", (parameter index, gate))``: any other rotation, its
    perturbation included, or (None, gate) for a fixed gate.
    """
    runs: list[Run] = []
    for slot, gate in enumerate(gates):
        loc, last = (layer, slot), runs[-1][0] if runs else None
        if gate.cnot is not None:
            pairs = runs.pop()[1] if last == "cnots" else ()
            runs.append(("cnots", pairs + (gate.cnot,)))
            continue
        if not gate.is_parameterized:
            runs.append(("gate", (None, gate)))
            continue
        index = parameter_index[loc]
        if gate.mixture is not None:
            runs.append(("mixture", (index, gate.mixture)))
            continue
        if not gate.perturbation and hamming_weight(gate.generator) == 1:
            letters = gate.generator
            q = len(letters) - len(letters.lstrip("I"))
            extend = last == "column" and q not in runs[-1][1].qubits
            qubits, chars, params = runs.pop()[1] if extend else ((), "", ())
            runs.append(("column", Column(qubits + (q,), chars + letters[q], params + (index,))))
        else:
            runs.append(("gate", (index, gate)))
    return tuple(runs)


def _column(column: Collection[int], factors: np.ndarray, n: int) -> np.ndarray:
    """The product of one-qubit factors on the distinct qubits ``column``
    (in gate order), ``factors[..., k, :, :]`` the base x base factor on
    its k-th qubit: 2 x 2 operators or 4 x 4 Pauli transfer matrices.

    Entry (i, j) is the product, in gate order, of each factor's entry at
    the digits of i and j on its qubit, and zero where i and j differ on a
    qubit outside the column.  For 2 x 2 rotations, each product of the
    gate-by-gate chain ``u @ acc`` over the column has exactly one nonzero
    term per entry, so a column of real rotations (RY) that starts a layer
    rounds bit for bit as that chain does.
    """
    base = factors.shape[-1]
    factors = factors.reshape(factors.shape[:-2] + (base * base,))
    index = _digit_index(n, base)
    # every index is in range: "clip" only skips the bounds check
    qubits = list(column)
    out = factors[..., 0, :].take(index[qubits[0]], axis=-1, mode="clip")
    for k, q in enumerate(qubits[1:], start=1):
        out *= factors[..., k, :].take(index[q], axis=-1, mode="clip")
    if len(column) < n:
        # base * i_q + j_q is a multiple of base + 1 where i_q == j_q
        missing = [q for q in range(n) if q not in column]
        out *= (index[missing] % (base + 1) == 0).all(axis=0)
    return out


@lru_cache(maxsize=32)
def _digit_index(n: int, base: int) -> np.ndarray:
    """(n, D, D) array: entry [q, i, j] = base * i_q + j_q, the flat
    position in a base x base factor on qubit q of its entry at row i,
    column j.  Base 2: the 2^n basis states, i_q the bit of qubit q (qubit
    0 the most significant).  Base 4: the 4^n - 1 traceless Hamming-ordered
    Pauli strings, i_q the letter (I, X, Y, Z = 0..3) of string i on q."""
    if base == 2:
        digits = np.arange(2**n) // 2 ** np.arange(n - 1, -1, -1)[:, None] % 2
    else:
        strings = pauli_strings_by_weight(n)[1:]
        digits = np.array([["IXYZ".index(ch) for ch in s] for s in strings]).T
    index = base * digits[:, :, None] + digits[:, None, :]
    index.setflags(write=False)
    return index


@lru_cache(maxsize=256)
def _paulis_1q(letters: str) -> np.ndarray:
    """The (k, 2, 2) stack of the one-qubit Paulis named by ``letters``."""
    stack = np.stack([_pauli_matrix(letter) for letter in letters])
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=256)
def _cnot_rows(chain: tuple[tuple[int, int], ...], n: int) -> np.ndarray:
    """The CNOTs ``chain`` ((control, target) in gate order) as a row
    permutation: their product applied to A is ``A[..., rows, :]``.  One
    CNOT flips the target bit of the basis states whose control bit is set
    (qubit 0 the most significant)."""
    states = np.arange(2**n)
    rows = states
    for c, t in chain:
        rows = rows[states ^ (((states >> (n - 1 - c)) & 1) << (n - 1 - t))]
    rows.setflags(write=False)
    return rows


def _gate_unitary(run: tuple[int | None, Gate], thetas: np.ndarray) -> np.ndarray:
    """A "gate" run's full-register unitary, its perturbation included."""
    index, gate = run
    return gate.matrix if index is None else gate.unitary(thetas[..., index])


def _apply_layer_channel(rho: np.ndarray, channel: KrausChannel | None) -> np.ndarray:
    """A layer entry on a state or stack; a 1-qubit entry goes on each qubit in turn."""
    if channel is None:
        return rho
    n = qubit_count(rho.shape[-2:])
    if channel.n == n:
        return channel.apply(rho)
    for q in range(n):
        rho = channel.apply_to_qubit(rho, q)
    return rho


def _layer_kraus(
    circ: Circuit, thetas: np.ndarray, layer_runs: Sequence[tuple[Run, ...]]
) -> Iterator[list[list[np.ndarray]]]:
    """Each layer of ``layer_runs`` in turn as ``_build_layer`` gives it,
    built when the consumer asks for it.  One ``_rotation`` call renders
    the 2 x 2 factors of every rotation column in ``layer_runs`` before the
    first layer."""
    columns = [run for runs in layer_runs for kind, run in runs if kind == "column"]
    factors: Iterator[np.ndarray] = iter(())
    if columns:
        params = [index for c in columns for index in c.params]
        stack = _rotation(_paulis_1q("".join(c.letters for c in columns)), thetas[..., params])
        ends = accumulate(len(c.qubits) for c in columns)
        factors = (stack[..., end - len(c.qubits):end, :, :] for c, end in zip(columns, ends))
    for runs in layer_runs:
        yield _build_layer(runs, thetas, factors, circ.n)


def _build_layer(
    runs: tuple[Run, ...], thetas: np.ndarray, factors: Iterator[np.ndarray], n: int
) -> list[list[np.ndarray]]:
    """One layer's runs as an ordered list of Kraus sets.

    Each stretch of unitary runs is one product ``acc``: a column enters as
    the ``_column`` unitary of the next entry of ``factors``, a CNOT run as
    a row permutation of ``acc``, any other gate as ``u @ acc``.  Each
    random-unitary mixture is its own set.  ``thetas`` of shape (P,) gives
    d x d operators, (B, P) gives (B, d, d) stacks for the angle-dependent
    ones.
    """
    ops: list[list[np.ndarray]] = []
    acc: np.ndarray | None = None
    for kind, run in runs:
        if kind == "mixture":
            if acc is not None:
                ops.append([acc])
                acc = None
            index, spec = run
            ops.append(_mixture_ops(spec, thetas[..., index]))
        elif kind == "cnots":
            rows = _cnot_rows(run, n)
            acc = np.eye(2**n, dtype=complex)[rows] if acc is None else acc[..., rows, :]
        else:
            if kind == "column":
                u = _column(run.qubits, next(factors), n)
            else:
                u = _gate_unitary(run, thetas)
            acc = u if acc is None else u @ acc
    if acc is not None:
        ops.append([acc])
    return ops


@lru_cache(maxsize=MAX_QUBITS)
def _ground_state(n: int) -> np.ndarray:
    """The read-only density matrix of |0...0> on n qubits."""
    rho = DensityMatrix.ground_state(n).data
    rho.setflags(write=False)
    return rho


def evolve(circ: Circuit, theta: np.ndarray, noise: NoiseSpec) -> DensityMatrix | np.ndarray:
    """Run the noisy circuit from |0...0>: per layer, all gates then the
    layer channel (``NoiseSpec()`` is no noise).

    ``theta`` of shape (P,) gives the final DensityMatrix; shape (B, P)
    evolves B copies of |0...0>, one per row, and gives the (B, d, d)
    stack of final states.  Row b of the stack is bit for bit the state
    evolved from ``theta[b]`` alone.  Each layer's operators are built
    (``_layer_kraus``) just before they are applied.
    """
    thetas = circ.angle_rows(theta)
    noise.check(circ)
    rho = np.repeat(_ground_state(circ.n)[None], len(thetas), axis=0)
    for layer, layer_ops in enumerate(_layer_kraus(circ, thetas, circ.runs)):
        for ops in layer_ops:
            rho = _apply_kraus(rho, ops)
        rho = _apply_layer_channel(rho, noise.layer_channel(layer, circ.n))
    return DensityMatrix(rho[0]) if np.ndim(theta) == 1 else rho


# ---------------------------------------------------------------------------
# Affine (coherence-vector) view of one layer, for bound evaluation
# ---------------------------------------------------------------------------


def _unitary_runs(circ: Circuit, layer: int) -> tuple[Run, ...]:
    """The layer's stored runs; a layer that holds a mixture is refused."""
    runs = circ.runs[layer]
    if any(kind == "mixture" for kind, _ in runs):
        raise ValueError(f"layer {layer} holds a unitary mixture, so it is not unitary")
    return runs


def layer_unitary(circ: Circuit, theta: np.ndarray, layer: int) -> np.ndarray:
    """Product of all gate unitaries in a layer (control noise included)."""
    theta = circ.angle_row(theta)
    ops, = _layer_kraus(circ, theta, [_unitary_runs(circ, layer)])
    return ops[0][0] if ops else np.eye(2**circ.n, dtype=complex)


def layer_gate_map(circ: Circuit, theta: np.ndarray, layer: int) -> np.ndarray:
    """The layer's gates as the real orthogonal (d^2-1) x (d^2-1) matrix
    acting on Hamming-ordered coherence vectors (control noise included).

    It equals the M of ``affine_rep(unitary_channel(layer_unitary(...)))``
    up to rounding.  Of the layer's runs, a rotation column is the
    ``_column`` product of its 4 x 4 Pauli transfer matrices; a CNOT run
    is a cached signed permutation of Pauli strings, applied as a row
    gather; any other gate uses its own full-register transfer matrix.
    Runs compose by matrix products.
    """
    theta = circ.angle_row(theta)
    n = circ.n
    omega = None  # None is the identity
    for kind, run in _unitary_runs(circ, layer):
        if kind == "cnots":
            src, sign = _cnot_chain_ptm(run, n)
            base = np.eye(len(src)) if omega is None else omega
            omega = sign[:, None] * base[src]
            continue
        if kind == "column":
            t = _column(run.qubits, _rotation_ptm(run.letters, theta[list(run.params)]), n)
        else:
            t = _unitary_ptm(_gate_unitary(run, theta))
        omega = t if omega is None else t @ omega
    return np.eye(4**n - 1) if omega is None else omega


@lru_cache(maxsize=256)
def _ptm_parts(letters: str) -> np.ndarray:
    """(3, k, 4, 4) array of 0 and +-1 entries: the Pauli transfer matrix
    (order I, X, Y, Z) of exp(-i theta P / 2), P the k-th letter, is
    ``parts[0, k] + cos(theta) parts[1, k] + sin(theta) parts[2, k]``.
    I and P stay; the two letters that anticommute with P turn by theta in
    their plane, e.g. for P = Y: X -> cos(theta) X - sin(theta) Z."""
    parts = np.zeros((3, len(letters), 4, 4))
    for k, letter in enumerate(letters):
        p = "XYZ".index(letter) + 1
        a, b = p % 3 + 1, (p + 1) % 3 + 1  # P, a, b cyclic in X -> Y -> Z
        parts[0, k, 0, 0] = parts[0, k, p, p] = 1
        parts[1, k, a, a] = parts[1, k, b, b] = 1
        parts[2, k, b, a], parts[2, k, a, b] = 1, -1
    parts.setflags(write=False)
    return parts


def _rotation_ptm(letters: str, theta: np.ndarray) -> np.ndarray:
    """The (k, 4, 4) Pauli transfer matrices of the rotations about the
    one-qubit ``letters`` by the (k,) angles ``theta``; every entry is
    exactly cos, +-sin, 0 or 1."""
    fixed, cos_part, sin_part = _ptm_parts(letters)
    angle = np.asarray(theta)[..., None, None]
    return fixed + np.cos(angle) * cos_part + np.sin(angle) * sin_part


def _unitary_ptm(u: np.ndarray) -> np.ndarray:
    """Traceless Hamming-ordered block of the transfer matrix of u."""
    return transfer_matrix(unitary_channel(u))[1:, 1:]


@lru_cache(maxsize=1)
def _cnot_letters() -> dict[str, tuple[str, float]]:
    """CNOT (a b) CNOT = sign (a' b') for each two-letter Pauli string ab
    (control letter first), as {ab: (a'b', sign)}: the signed permutation
    read once off the transfer matrix of the 4 x 4 CNOT."""
    t = transfer_matrix(unitary_channel(np.eye(4, dtype=complex)[[0, 1, 3, 2]]))
    strings = pauli_strings_by_weight(2)
    src = np.abs(t).argmax(axis=1)
    return {s: (strings[j], float(np.rint(t[i, j]))) for i, (s, j) in enumerate(zip(strings, src))}


@lru_cache(maxsize=256)
def _cnot_chain_ptm(
    chain: tuple[tuple[int, int], ...], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The CNOTs ``chain`` ((control, target) in gate order) as a signed
    permutation of the traceless Hamming-ordered Pauli strings.

    Returns (src, sign) with row i of the transfer matrix equal to sign[i]
    times unit row src[i], so it acts on a matrix A as
    ``sign[:, None] * A[src]``.  String src[i] is sign[i] times string i
    conjugated by each CNOT of the chain, last gate first, letter pair by
    letter pair.
    """
    strings = pauli_strings_by_weight(n)[1:]
    position = {s: i for i, s in enumerate(strings)}
    table = _cnot_letters()
    src, sign = np.empty(len(strings), dtype=np.intp), np.ones(len(strings))
    for i, s in enumerate(strings):
        letters = list(s)
        for c, t in reversed(chain):
            (letters[c], letters[t]), flip = table[letters[c] + letters[t]]
            sign[i] *= flip
        src[i] = position["".join(letters)]
    for arr in (src, sign):
        arr.setflags(write=False)
    return src, sign


_NO_NOISE = identity_channel(1)  # a layer without noise, at every register width


def layer_channel_as_kraus(noise: NoiseSpec, layer: int, n: int) -> KrausChannel:
    """The layer's noise map as one full-register channel (identity if
    absent), for the affine path: a register beyond ``AFFINE_MAX_QUBITS``
    is refused before any channel is built.  A single-qubit entry, or no
    noise, gives the register channel it carries (``KrausChannel.register``)."""
    check_affine_size(n)
    entry = noise.layer_channel(layer, n)
    return (_NO_NOISE if entry is None else entry).register(n)
