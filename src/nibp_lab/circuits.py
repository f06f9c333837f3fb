"""Layered parameterized circuits with per-layer CPTP noise.

A circuit is a list of layers; each layer is a sequence of gates, either
Pauli-rotation gates exp(-i theta P / 2) or fixed unitaries (CNOTs).  Noise
enters in three ways: a CPTP channel applied after each layer, a coherent
perturbation of a rotation's generator (control noise), and a probabilistic
mixture of rotations sharing the intended angle (random-unitary noise).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .channels import (
    KrausChannel,
    _apply_kraus,
    identity_channel,
    named_channel,
    tensor_channel,
)
from .pauli import (
    DensityMatrix,
    DimensionMismatchError,
    PauliString,
    _pauli_matrix,
)

CONTROL_NOISE_NORM_CAP = 0.2

Location = tuple[int, int]


def embed_unitary(u: np.ndarray, targets: Sequence[int], n: int) -> np.ndarray:
    """Lift a k-qubit operator to the full 2^n space on the given qubits."""
    k = len(targets)
    if u.shape != (2**k, 2**k):
        raise DimensionMismatchError(f"operator shape {u.shape} for {k} targets")
    others = [q for q in range(n) if q not in targets]
    perm = list(targets) + others
    inv = np.argsort(perm)
    full = np.kron(u, np.eye(2 ** (n - k), dtype=complex))
    t = full.reshape((2,) * (2 * n))
    t = t.transpose(list(inv) + [n + i for i in inv])
    return np.ascontiguousarray(t.reshape(2**n, 2**n))


@lru_cache(maxsize=256)
def _cnot_full(control: int, target: int, n: int) -> np.ndarray:
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    mat = embed_unitary(cnot, (control, target), n)
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class Gate:
    """One gate: a Pauli rotation (kind "param") or a fixed unitary."""

    kind: str  # "param" | "fixed"
    location: Location
    target_qubits: tuple[int, ...]
    generator: PauliString | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)  # full-space, fixed
    perturbation: tuple[tuple[str, float], ...] | None = None

    @property
    def is_parameterized(self) -> bool:
        return self.kind == "param"

    def generator_matrix(self) -> np.ndarray:
        """Hermitian generator, including any control-noise perturbation."""
        g = np.array(self.generator.matrix())
        if self.perturbation:
            for letters, coeff in self.perturbation:
                g = g + coeff * _pauli_matrix(letters)
        return g

    def unitary(self, theta: float | np.ndarray) -> np.ndarray:
        """exp(-i theta G / 2) on the full register; a (B,) array of angles
        gives a (B, d, d) stack."""
        if self.kind == "fixed":
            return self.matrix
        if not self.perturbation:
            return _rotation(self.generator.matrix(), theta)
        g = self.generator_matrix()
        w, vec = np.linalg.eigh(g)
        angle = np.asarray(theta)[..., None, None]
        return (vec * np.exp(-0.5j * angle * w)) @ vec.conj().T


def _rotation(p: np.ndarray, theta: float | np.ndarray) -> np.ndarray:
    """cos(theta/2) I - i sin(theta/2) P, stacked over an array of angles."""
    half = np.asarray(theta)[..., None, None] / 2
    eye = np.eye(p.shape[0], dtype=complex)
    return np.cos(half) * eye - 1j * np.sin(half) * p


def ry_gate(qubit: int, n: int, location: Location) -> Gate:
    letters = "".join("Y" if q == qubit else "I" for q in range(n))
    return Gate(
        kind="param",
        location=location,
        target_qubits=(qubit,),
        generator=PauliString(letters),
    )


def cnot_gate(control: int, target: int, n: int, location: Location) -> Gate:
    return Gate(
        kind="fixed",
        location=location,
        target_qubits=(control, target),
        matrix=_cnot_full(control, target, n),
    )


def perturbed_gate(g: Gate, a: Mapping[str, float]) -> Gate:
    """Replace the rotation generator P by P + sum_k a_k P_k.

    The gate stays exactly unitary; the perturbation operator norm is capped
    to keep the coherent error small.
    """
    if not g.is_parameterized:
        raise ValueError("only rotation gates can carry control noise")
    n = g.generator.n
    items = tuple((letters, float(coeff)) for letters, coeff in a.items())
    for letters, _ in items:
        if len(letters) != n:
            raise DimensionMismatchError(
                f"perturbation string {letters!r} has wrong length for n={n}"
            )
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


def random_unitary_channel(
    spec: RandomUnitaryNoise, theta: float, n: int
) -> KrausChannel:
    """Kraus form {sqrt(p_k) exp(-i theta P_k / 2)} of the mixture."""
    return KrausChannel(n=n, kraus_ops=tuple(_mixture_ops(spec, theta)))


LayerChannel = KrausChannel | Sequence[KrausChannel] | None


@dataclass(frozen=True)
class NoiseSpec:
    """Noise placement: per-layer channels plus optional gate-level noise.

    ``layer_channels`` is one entry broadcast to all layers or a per-layer
    sequence; each entry is None, a single-qubit channel applied to every
    qubit, a full-register channel, or a per-qubit sequence of single-qubit
    channels.
    """

    layer_channels: LayerChannel | tuple[LayerChannel, ...] = None
    control_noise: Mapping[Location, Mapping[str, float]] | None = None
    random_unitary: Mapping[Location, RandomUnitaryNoise] | None = None

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

    def check_depth(self, depth: int) -> None:
        """Reject a per-layer tuple that does not cover exactly ``depth`` layers."""
        lc = self.layer_channels
        if isinstance(lc, tuple) and len(lc) != depth:
            raise DimensionMismatchError(
                f"per-layer noise has {len(lc)} entries, circuit has {depth} layers"
            )

    def layer_channel(self, layer: int, n: int) -> LayerChannel:
        """The noise after ``layer`` on an n-qubit register: None, one
        full-register channel, or a tuple of n single-qubit channels."""
        lc = self.layer_channels
        entry = lc[layer] if isinstance(lc, tuple) else lc
        if entry is None or isinstance(entry, KrausChannel) and entry.n == n:
            return entry
        if isinstance(entry, KrausChannel):
            if entry.n != 1:
                raise DimensionMismatchError(
                    f"layer channel acts on {entry.n} qubits, register has {n}"
                )
            return (entry,) * n
        if len(entry) != n:
            raise DimensionMismatchError(
                f"per-qubit channel list has length {len(entry)}, register has {n}"
            )
        return tuple(entry)


@dataclass(frozen=True)
class Circuit:
    """Layered ansatz; every rotation gate owns one flat parameter index."""

    n: int
    layers: tuple[tuple[Gate, ...], ...]
    parameter_index: Mapping[Location, int]

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def num_parameters(self) -> int:
        return len(self.parameter_index)

    def gate_at(self, location: Location) -> Gate:
        layer, slot = location
        return self.layers[layer][slot]

    def parameterized_locations(self) -> list[Location]:
        return sorted(self.parameter_index, key=lambda loc: self.parameter_index[loc])

    def with_gate(self, gate: Gate) -> "Circuit":
        """A copy with the gate at ``gate.location`` replaced by ``gate``."""
        layer, slot = gate.location
        gates = list(self.layers[layer])
        gates[slot] = gate
        layers = self.layers[:layer] + (tuple(gates),) + self.layers[layer + 1:]
        return replace(self, layers=layers)


def build_two_local(n: int, depth: int) -> Circuit:
    """RY column followed by an open-boundary CNOT chain, repeated ``depth`` times."""
    if n < 2:
        raise ValueError(f"two-local ansatz needs n >= 2, got {n}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    layers = []
    index: dict[Location, int] = {}
    for layer in range(depth):
        gates = []
        for q in range(n):
            loc = (layer, q)
            gates.append(ry_gate(q, n, loc))
            index[loc] = layer * n + q
        for q in range(n - 1):
            gates.append(cnot_gate(q, q + 1, n, (layer, n + q)))
        layers.append(tuple(gates))
    return Circuit(n=n, layers=tuple(layers), parameter_index=index)


def single_ry_circuit() -> Circuit:
    """One qubit, one RY gate: the minimal analytic test case."""
    loc = (0, 0)
    return Circuit(
        n=1, layers=((ry_gate(0, 1, loc),),), parameter_index={loc: 0}
    )


# ---------------------------------------------------------------------------
# State evolution
# ---------------------------------------------------------------------------


def _layer_ops(
    circ: Circuit, thetas: np.ndarray, layer: int, noise: NoiseSpec
) -> list[list[np.ndarray]]:
    """The layer's gates as an ordered list of Kraus sets.

    Each run of unitary gates is one product, accumulated gate by gate as
    ``u @ acc``; each random-unitary mixture is its own set.  ``thetas`` of
    shape (P,) gives d x d operators, (B, P) gives (B, d, d) stacks for the
    angle-dependent ones.  Fixed gates carry no control noise or mixture.
    """
    control = noise.control_noise or {}
    mixtures = noise.random_unitary or {}
    ops: list[list[np.ndarray]] = []
    acc: np.ndarray | None = None
    for gate in circ.layers[layer]:
        loc = gate.location
        if gate.is_parameterized:
            angle = thetas[..., circ.parameter_index[loc]]
            if loc in mixtures:
                if acc is not None:
                    ops.append([acc])
                    acc = None
                ops.append(_mixture_ops(mixtures[loc], angle))
                continue
            if loc in control:
                gate = perturbed_gate(gate, control[loc])
            u = gate.unitary(angle)
        else:
            u = gate.matrix
        acc = u if acc is None else u @ acc
    if acc is not None:
        ops.append([acc])
    return ops


def _apply_layer_channel(rho: np.ndarray, channel: LayerChannel, n: int) -> np.ndarray:
    if isinstance(channel, KrausChannel):
        return channel.apply(rho)
    for q, ch in enumerate(channel or ()):
        rho = ch.apply_to_qubit(rho, q, n)
    return rho


def evolve(
    circ: Circuit,
    theta: np.ndarray,
    noise: NoiseSpec | None = None,
    rho0: DensityMatrix | None = None,
) -> DensityMatrix | np.ndarray:
    """Run the noisy circuit: per layer, all gates then the layer channel.

    ``theta`` of shape (P,) gives the final DensityMatrix; shape (B, P)
    evolves B copies of ``rho0``, one per row, and gives the (B, d, d)
    stack of final states.  Row b of the stack is bit for bit the state
    evolved from ``theta[b]`` alone.
    """
    noise = noise or NoiseSpec.none()
    theta = np.asarray(theta, dtype=float)
    thetas = theta[None] if theta.ndim == 1 else theta
    if thetas.ndim != 2 or thetas.shape[1] != circ.num_parameters:
        raise ValueError(
            f"expected {circ.num_parameters} parameters per row, got {theta.shape}"
        )
    noise.check_depth(circ.depth)
    rho0 = rho0 or DensityMatrix.ground_state(circ.n)
    if rho0.n != circ.n:
        raise DimensionMismatchError(f"state n={rho0.n}, circuit n={circ.n}")
    n = circ.n
    rho = np.repeat(rho0.data[None], len(thetas), axis=0)
    for layer in range(circ.depth):
        for ops in _layer_ops(circ, thetas, layer, noise):
            rho = _apply_kraus(rho, ops)
        rho = _apply_layer_channel(rho, noise.layer_channel(layer, n), n)
    return DensityMatrix(n=n, data=rho[0]) if theta.ndim == 1 else rho


# ---------------------------------------------------------------------------
# Affine (coherence-vector) view of one layer, for bound evaluation
# ---------------------------------------------------------------------------


def layer_unitary(
    circ: Circuit,
    theta: np.ndarray,
    layer: int,
    noise: NoiseSpec | None = None,
) -> np.ndarray:
    """Product of all gate unitaries in a layer (control noise included)."""
    noise = noise or NoiseSpec.none()
    if any(loc[0] == layer for loc in noise.random_unitary or ()):
        raise ValueError("layer containing a unitary mixture is not unitary")
    ops = _layer_ops(circ, np.asarray(theta, dtype=float), layer, noise)
    return ops[0][0] if ops else np.eye(2**circ.n, dtype=complex)


def layer_channel_as_kraus(noise: NoiseSpec, layer: int, n: int) -> KrausChannel:
    """The layer's noise map as one full-register channel (identity if absent)."""
    channel = noise.layer_channel(layer, n)
    if channel is None:
        return identity_channel(n)
    return channel if isinstance(channel, KrausChannel) else tensor_channel(channel)
