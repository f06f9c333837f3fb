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
run of CNOTs, a mixture, and single other gates.  The layer's first run,
when it is a column, takes the CNOTs right after it as its
``Column.chain``.  A layer object the circuit passes more than once is
grouped once; its repeats take those runs with their parameters numbered
on.  Every layer view reads those runs (one layer's through
``Circuit.layer_runs``, which refuses a layer the circuit lacks).

One walker (``_layer_ops``) composes a layer's runs for both views: in
base 2 as d x d operators (``evolve``, ``layer_unitary``), in base 4 as
Pauli transfer matrices on coherence vectors (``layer_gate_maps``, read
by ``bounds.layer_affine_maps``).  It renders the
one-qubit factors of every column of the circuit in one call, as the
circuit planned them when it was built (``Circuit.columns``), then builds
each layer when it is asked for it.  One kernel (``_column``) renders a
column: an outer product of its factors in gate order, then one gather,
which also carries the column's chain.  Consecutive layers whose first
columns share their qubits and chain form a stretch
(``Circuit.stretches``), whose first columns the kernel renders together,
up to a byte budget (``STRETCH_BYTES``).  A CNOT is its (control, target)
pair; a CNOT run is one cached signed permutation (``_cnot_perm``) of the
basis states or the Pauli strings, composed from one two-digit table
(``_cnot_table``) read off the 4 x 4 CNOT.

From ``ENGINE_MIN_QUBITS`` qubits on, ``evolve`` runs every circuit on the
real vector of Pauli components instead (``_pauli_evolve``): a column is
put on two qubits at a time, as the 16 x 16 map of its two rotations with
the one-qubit noise before them, every column's pair maps rendered
straight from the angles in one pass before the first layer
(``_column_steps``, as the circuit plans them once, ``Circuit.pair_plan``),
and a CNOT run is one signed permutation of the 4^n strings
(``_pauli_cnot_perm``).  Any other gate, a mixture and a full-register
channel go on as their Kraus sum on density matrices, each run of them one
conversion there and one back (``pauli._density_from_paulis``,
``pauli._paulis_from_density``), and so do the final components.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import groupby
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    ENGINE_MIN_QUBITS,
    MAX_QUBITS,
    DensityMatrix,
    DimensionMismatchError,
    _density_from_paulis,
    _mask_tables,
    _paulis_from_density,
    _pauli_matrix,
    check_pauli,
    hamming_weight,
    pauli_strings_by_weight,
)

CONTROL_NOISE_NORM_CAP = 0.2
# the most bytes a stretch render's outer products (or evolve's block,
# with them) take: below glibc's 128 KiB mmap threshold, over which the
# allocator maps and unmaps an array on many calls and its pages fault
# back in (a 184 KiB block cost ~300 minor faults a grad_depth round)
STRETCH_BYTES = 120 * 1024

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
        if not self.perturbation:
            return _rotation(_pauli_matrix(self.generator), theta)
        w, vec = self._eigh
        angle = np.asarray(theta)[..., None, None]
        return (vec * np.exp(-0.5j * angle * w)) @ vec.conj().T

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only eigendecomposition (w, vec) of a perturbed
        rotation's generator, which no angle changes: computed on first
        use and kept with the gate (not a field, so equality ignores it)."""
        g = _pauli_matrix(self.generator)
        for letters, coeff in self.perturbation:
            g = g + coeff * _pauli_matrix(letters)
        w, vec = np.linalg.eigh(g)
        for arr in (w, vec):
            arr.setflags(write=False)
        return w, vec


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

    def per_layer(self, circ: Circuit) -> tuple[KrausChannel | None, ...]:
        """The noise after each of the circuit's ``circ.depth`` layers.  A
        tuple of another length, or an entry that does not fit the
        register, is refused."""
        lc = self.layer_channels
        if isinstance(lc, tuple) and len(lc) != circ.depth:
            raise DimensionMismatchError(
                f"per-layer noise has {len(lc)} entries, circuit has {circ.depth} layers")
        for entry in lc if isinstance(lc, tuple) else (lc,):
            if entry is not None and entry.n not in (1, circ.n):
                raise DimensionMismatchError(
                    f"layer channel acts on {entry.n} qubits, register has {circ.n}")
        return lc if isinstance(lc, tuple) else (lc,) * circ.depth


@dataclass(frozen=True)
class Circuit:
    """Layered ansatz.  Its parameters are its rotations and mixtures:
    ``parameter_index`` numbers them 0, 1, ... in (layer, slot) order.
    ``runs`` holds each layer's gates grouped into runs (see
    ``_group_runs``); ``layer_runs`` reads one layer's.  ``columns`` plans
    the render of the rotation columns' one-qubit factors as (letters,
    params, spans): the letters and the read-only parameter indexes of
    every column's rotations in (layer, slot) order, and per layer each
    column's slice of them.  ``stretches`` groups the consecutive layers
    whose first run is a column with the same qubits and chain (the same
    ``_column_index`` key): per layer, (first, positions) of its stretch,
    ``first`` the stretch's first layer and ``positions`` the read-only
    (k, m) positions of its k layers' first-column factors in ``columns``
    (one tuple shared by the stretch's layers), or None for a layer whose
    first run is not a column.  ``pair_plan``, built on first use, plans
    the Pauli-component engine's render of the columns' pair maps."""

    n: int
    layers: tuple[tuple[Gate, ...], ...]
    parameter_index: Mapping[Location, int] = field(init=False, repr=False, compare=False)
    runs: tuple[tuple[Run, ...], ...] = field(init=False, repr=False, compare=False)
    columns: tuple[str, np.ndarray, tuple[tuple[slice, ...], ...]] = field(
        init=False, repr=False, compare=False)
    stretches: tuple[tuple[int, np.ndarray] | None, ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        index: dict[Location, int] = {}
        runs, chars, params, spans = [], "", [], []
        # each distinct layer object is checked and grouped once (for this
        # call only); a repeat of it (build_two_local passes one layer tuple
        # L times) takes the first copy's runs, its parameters numbered on
        # from the parameters before it
        grouped: dict[int, tuple[list[int], int, tuple[Run, ...]]] = {}
        for layer, gates in enumerate(self.layers):
            if id(gates) in grouped:
                slots, start, first = grouped[id(gates)]
                shift = len(index) - start
                for slot in slots:
                    index[(layer, slot)] = len(index)
                runs.append(_shift_runs(first, shift))
            else:
                start, slots = len(index), []
                for slot, g in enumerate(gates):
                    if g.is_parameterized:
                        for letters in g.mixture.generators if g.mixture else (g.generator,):
                            check_pauli(letters, n)
                        index[(layer, slot)] = len(index)
                        slots.append(slot)
                    elif g.cnot is not None:
                        c, t = g.cnot
                        if c == t or not {c, t} <= set(range(n)):
                            raise DimensionMismatchError(
                                f"CNOT pair {g.cnot} is not two distinct qubits of {n}")
                    elif g.matrix.shape != (2**n, 2**n):
                        raise DimensionMismatchError(
                            f"fixed gate of shape {g.matrix.shape} on {n} qubits")
                runs.append(_group_runs(gates, layer, index))
                grouped[id(gates)] = (slots, start, runs[-1])
            layer_spans = []
            for kind, run in runs[-1]:
                if kind == "column":
                    layer_spans.append(slice(len(chars), len(chars) + len(run.letters)))
                    chars += run.letters
                    params += run.params
            spans.append(tuple(layer_spans))
        params = np.array(params, dtype=np.intp)
        params.setflags(write=False)
        stretches = []
        for key, group in groupby(range(len(runs)), lambda layer: _head_key(runs[layer])):
            group = list(group)
            if key is None:
                stretches += [None] * len(group)
                continue
            # the layers of a stretch share their first column's qubits
            starts = np.array([spans[layer][0].start for layer in group], dtype=np.intp)
            positions = starts[:, None] + np.arange(len(key[0]), dtype=np.intp)
            positions.setflags(write=False)
            stretches += [(group[0], positions)] * len(group)
        object.__setattr__(self, "parameter_index", MappingProxyType(index))
        object.__setattr__(self, "runs", tuple(runs))
        object.__setattr__(self, "columns", (chars, params, tuple(spans)))
        object.__setattr__(self, "stretches", tuple(stretches))

    @cached_property
    def pair_plan(self) -> PairPlan:
        """What the Pauli-component engine renders each column's maps by
        (``_pair_plan``), built on first use, so only for a circuit that
        runs on it (``ENGINE_MIN_QUBITS``)."""
        return _pair_plan(self)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def num_parameters(self) -> int:
        return len(self.parameter_index)

    def _has_layer(self, layer: int) -> bool:
        return 0 <= layer < self.depth

    def layer_runs(self, layer: int) -> tuple[Run, ...]:
        """The stored runs of ``layer``; a layer it lacks (a negative one too) is refused."""
        if not self._has_layer(layer):
            raise ValueError(f"circuit has no layer {layer}; its layers are 0..{self.depth - 1}")
        return self.runs[layer]

    def gate_at(self, location: Location) -> Gate:
        """The gate at (layer, slot); a location it lacks (a negative one too) is refused."""
        layer, slot = location
        if not (self._has_layer(layer) and 0 <= slot < len(self.layers[layer])):
            raise ValueError(f"circuit has no gate at {location}")
        return self.layers[layer][slot]

    def parameter(self, location: Location) -> int:
        """The parameter index of the gate at ``location``; a gate without one is refused."""
        if not self.gate_at(location).is_parameterized:
            raise ValueError(f"gate at {location} carries no parameter")
        return self.parameter_index[tuple(location)]

    def angle_rows(self, theta: np.ndarray) -> np.ndarray:
        """``theta`` as a (B, P) float stack, B >= 1, a (P,) vector as one
        row; other shapes, an empty stack too, are refused."""
        theta = np.asarray(theta, dtype=float)
        rows = theta[None] if theta.ndim == 1 else theta
        if rows.ndim != 2 or rows.shape[1] != self.num_parameters:
            raise ValueError(
                f"expected {self.num_parameters} parameters per row, got {theta.shape}")
        if not len(rows):
            raise ValueError(f"expected at least one row of angles, got shape {theta.shape}")
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
    parameter ``params[k]``.  ``chain`` is the CNOT run right after the
    column ((control, target) pairs in gate order) when the column starts
    its layer, and () for every other column."""

    qubits: tuple[int, ...]
    letters: str
    params: tuple[int, ...]
    chain: tuple[tuple[int, int], ...]


Run = tuple[str, object]


def _group_runs(
    gates: Sequence[Gate], layer: int, parameter_index: Mapping[Location, int]
) -> tuple[Run, ...]:
    """Group one layer's gates into read-only runs, in gate order.

    ``("column", Column)``: weight-1 rotations without perturbation, on
    distinct qubits, in gate order; the layer's first run, when it is a
    column, also takes the CNOTs right after it as its ``chain``, and a
    rotation after a chained column starts a new column;
    ``("cnots", ((control, target), ...))``: any other consecutive CNOTs;
    ``("mixture", (parameter index, RandomUnitaryNoise))``: a mixture gate;
    ``("gate", (parameter index, gate))``: any other rotation, its
    perturbation included, or (None, gate) for a fixed gate.
    """
    runs: list[Run] = []
    for slot, gate in enumerate(gates):
        loc, last = (layer, slot), runs[-1][0] if runs else None
        if gate.cnot is not None:
            if last == "column" and len(runs) == 1:
                first = runs.pop()[1]
                runs.append(("column", first._replace(chain=first.chain + (gate.cnot,))))
            else:
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
            extend = last == "column" and not runs[-1][1].chain and q not in runs[-1][1].qubits
            qubits, chars, params, _ = runs.pop()[1] if extend else ((), "", (), ())
            runs.append(("column", Column(qubits + (q,), chars + letters[q], params + (index,), ())))
        else:
            runs.append(("gate", (index, gate)))
    return tuple(runs)


def _shift_runs(runs: tuple[Run, ...], shift: int) -> tuple[Run, ...]:
    """``runs`` with every parameter index moved on by ``shift``."""
    out: list[Run] = []
    for kind, run in runs:
        if kind == "column":
            run = Column(run.qubits, run.letters, tuple(p + shift for p in run.params), run.chain)
        elif kind != "cnots" and run[0] is not None:
            run = (run[0] + shift, run[1])
        out.append((kind, run))
    return tuple(out)


def _head_key(runs: tuple[Run, ...]) -> tuple | None:
    """The ``_column_index`` key (qubits, chain) of a layer's first run
    when it is a column, else None."""
    if not runs or runs[0][0] != "column":
        return None
    return runs[0][1].qubits, runs[0][1].chain


def _column(
    factors: np.ndarray, index: np.ndarray, scale: np.ndarray | None, out: np.ndarray | None
) -> np.ndarray:
    """The product of one-qubit factors on a column's distinct qubits (in
    gate order), ``factors[..., k, :, :]`` the base x base factor on its
    k-th qubit (2 x 2 operators or 4 x 4 Pauli transfer matrices),
    followed by the column's CNOT chain; (index, scale) is the column's
    ``_column_index`` entry.  The gather writes into ``out``, an array of
    the result's shape, or into a new array when ``out`` is None.

    Entry (i, j) is the product, in gate order, of each factor's entry at
    the digits of i and j on its qubit, and zero where i and j differ on a
    qubit outside the column.  The flattened factors are multiplied into
    one outer product, each new factor the more significant digit pair;
    one gather then reads every entry, its rows in the chain's order
    (``_column_index``).  Each multiply takes the product first and the
    next factor second, as the gate-by-gate chain does: complex ``a * b``
    and ``b * a`` can differ in the last bit.
    """
    base = factors.shape[-1]
    flat = factors.reshape(factors.shape[:-2] + (base * base,))
    product = flat[..., 0, :]
    for k in range(1, flat.shape[-2]):
        outer = np.multiply(product[..., None, :], flat[..., k, :, None])
        product = outer.reshape(product.shape[:-1] + (-1,))
    # every index is in range: "clip" only skips the bounds check
    out = product.take(index, axis=-1, out=out, mode="clip")
    if scale is not None:
        out *= scale
    return out


@lru_cache(maxsize=8)
def _column_index(
    n: int, base: int, qubits: tuple[int, ...], chain: tuple[tuple[int, int], ...]
) -> tuple[np.ndarray, np.ndarray | None]:
    """Read-only (index, scale) of ``_column``: entry (i, j) is
    ``product[index[i, j]] * scale[i, j]`` (no multiply if scale is None).

    ``index[i, j]`` sums (base * i_q + j_q) * base^(2k) over the column's
    k-th qubit q.  ``scale`` is the 0/1 mask of the entries that agree on
    every qubit outside the column, times the chain's signs on the
    Pauli-string path.  A chain permutes the rows of both (``_cnot_perm``).
    At ``MAX_QUBITS`` an entry is a 2 MiB index and a 256 KiB mask, so the
    8 cached stay below 19 MiB.
    """
    digits = _digits(n, base)
    index = sum((base * digits[q][:, None] + digits[q]) * (base * base) ** k
                for k, q in enumerate(qubits))
    missing = [q for q in range(n) if q not in qubits]
    # a qubit outside the column keeps its digit: zero where i_q != j_q
    scale = (digits[missing, :, None] == digits[missing, None, :]).all(axis=0) if missing else None
    if chain:
        rows, sign = _cnot_perm(chain, n, base)
        index = index[rows]
        scale = None if scale is None else scale[rows]
        if base == 4:
            scale = sign[:, None] if scale is None else scale * sign[:, None]
    for arr in (index, scale):
        if arr is not None:
            arr.setflags(write=False)
    return index, scale


def _digits(n: int, base: int) -> np.ndarray:
    """(n, D) array: entry [q, i] is digit i_q of basis element i.  Base 2:
    the 2^n basis states, i_q the bit of qubit q (qubit 0 the most
    significant).  Base 4: the 4^n - 1 traceless Hamming-ordered Pauli
    strings, i_q the letter (I, X, Y, Z = 0..3) of string i on q."""
    if base == 2:
        return np.arange(2**n) // 2 ** np.arange(n - 1, -1, -1)[:, None] % 2
    strings = pauli_strings_by_weight(n)[1:]
    return np.array([["IXYZ".index(ch) for ch in s] for s in strings]).T


@lru_cache(maxsize=256)
def _paulis_1q(letters: str) -> np.ndarray:
    """The (k, 2, 2) stack of the one-qubit Paulis named by ``letters``."""
    stack = np.stack([_pauli_matrix(letter) for letter in letters])
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=2)
def _cnot_table(base: int) -> tuple[np.ndarray, np.ndarray]:
    """The CNOT on two digits as a signed permutation (pair, sign): on the
    base * base elements base * c + t (control digit c, target digit t),
    it takes a vector's entry i to sign[i] times its entry pair[i].  Base
    2 reads it off the 4 x 4 CNOT itself (every sign +1); base 4 off that
    CNOT's Pauli transfer matrix, in natural letter order (I, X, Y, Z =
    0..3), where CNOT (a b) CNOT = sign (a' b')."""
    u = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    if base == 2:
        m = u.real
    else:
        strings = pauli_strings_by_weight(2)
        order = [strings.index(a + b) for a in "IXYZ" for b in "IXYZ"]
        m = transfer_matrix(unitary_channel(u))[np.ix_(order, order)]
    pair = np.abs(m).argmax(axis=1)
    sign = np.rint(m[np.arange(len(m)), pair])
    for arr in (pair, sign):
        arr.setflags(write=False)
    return pair, sign


@lru_cache(maxsize=256)
def _cnot_perm(
    chain: tuple[tuple[int, int], ...], n: int, base: int
) -> tuple[np.ndarray, np.ndarray]:
    """The CNOTs ``chain`` ((control, target) in gate order) as a signed
    permutation of ``_digits(n, base)`` (``_signed_perm``)."""
    return _signed_perm(chain, _digits(n, base), base)


@lru_cache(maxsize=8)
def _pauli_cnot_perm(chain: tuple[tuple[int, int], ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The CNOTs ``chain`` as a signed permutation of the 4^n Pauli strings
    in natural order (``_signed_perm``), for the Pauli-component path of
    ``evolve``.  At ``MAX_QUBITS`` an entry takes 4 MiB, so the 8 cached
    stay below 33 MiB.  The digits of the strings take a byte each: as
    int64 they would be 19 MiB at ``MAX_QUBITS``."""
    digits = np.empty((n, 4**n), dtype=np.int8)
    for q in range(n):
        digits[q] = np.arange(4**n) // 4 ** (n - 1 - q) % 4
    return _signed_perm(chain, digits, 4)


def _signed_perm(
    chain: tuple[tuple[int, int], ...], digits: np.ndarray, base: int
) -> tuple[np.ndarray, np.ndarray]:
    """The CNOTs ``chain`` as a read-only signed permutation (rows, sign)
    of the elements whose digits are the columns of ``digits``: their
    product applied to A is ``sign[:, None] * A[..., rows, :]``.  Element
    rows[i] is element i with the digit pair of each CNOT mapped by
    ``_cnot_table``, last gate first, and sign[i] the product of the signs
    met on the way."""
    n = len(digits)
    pair, flip = _cnot_table(base)
    moved, sign = digits.copy(), np.ones(digits.shape[1])
    for c, t in reversed(chain):
        two = base * moved[c] + moved[t]
        sign *= flip[two]
        moved[c], moved[t] = np.divmod(pair[two], base)
    shape = (base,) * n
    position = np.zeros(base**n, dtype=np.intp)
    position[np.ravel_multi_index(tuple(digits), shape)] = np.arange(digits.shape[1])
    rows = position[np.ravel_multi_index(tuple(moved), shape)]
    for arr in (rows, sign):
        arr.setflags(write=False)
    return rows, sign


def _gate_unitary(run: tuple[int | None, Gate], thetas: np.ndarray) -> np.ndarray:
    """A "gate" run's full-register unitary, its perturbation included, as
    a new array (a fixed gate's matrix is copied, its layout kept)."""
    index, gate = run
    return gate.matrix.copy(order="K") if index is None else gate.unitary(thetas[..., index])


def _apply_ops(rho: np.ndarray, ops: list[np.ndarray], spare: np.ndarray) -> np.ndarray:
    """One Kraus set of a layer on the state stack ``rho``.  A single
    operator K goes on as K rho into ``spare``, then (K rho) K^dag back
    into ``rho``, its conjugate taken in place on K (``_layer_ops`` yields
    only arrays it built, and its scratch); a mixture's Kraus sum is a new
    array."""
    if len(ops) > 1:
        return _apply_kraus(rho, ops)
    k, = ops
    np.matmul(k, rho, out=spare)
    return np.matmul(spare, np.conjugate(k, out=k).swapaxes(-1, -2), out=rho)


def _stretch_depth(circ: Circuit, rows: int, base: int, held: int) -> int:
    """k, the most layers of a stretch ``_layer_ops`` renders together for
    ``rows`` angle rows: as many as fit ``STRETCH_BYTES`` beside the
    ``held`` bytes the caller keeps with them, at least 1 and at most the
    circuit's depth.  A layer's outer product holds rows x base^(2n)
    entries, complex in base 2 (as many as its d x d operators) and float
    in base 4 (more than its (d^2-1)^2 map)."""
    layer = rows * base ** (2 * circ.n) * (16 if base == 2 else 8)
    return max(1, min(circ.depth, (STRETCH_BYTES - held) // layer))


def _layer_ops(
    circ: Circuit, thetas: np.ndarray, layers: Iterable[int], base: int,
    scratch: np.ndarray | None,
) -> Iterator[list[list[np.ndarray]]]:
    """Each of ``layers`` in turn as an ordered list of Kraus sets, built
    when the consumer asks for it: base 2 gives d x d operators (the dense
    view), base 4 the (d^2-1) x (d^2-1) Pauli transfer matrices on
    Hamming-ordered coherence vectors (the affine view, of mixture-free
    layers only).  ``thetas`` of shape (P,) gives single operators, (B, P)
    gives stacks of B for the angle-dependent ones.

    One call (``_rotation`` or ``_rotation_ptm``) renders, before the first
    layer, the one-qubit factors of every rotation column of the circuit
    (for a one-layer view too), as ``Circuit.columns`` plans them.  A
    layer's first column is rendered with its stretch
    (``Circuit.stretches``): it and the requested layers right after it in
    its stretch, up to k of them, are one ``_column`` call on a leading
    layer axis, so one outer-product chain and one gather serve all k.  k
    is the length of ``scratch``, a (k, B, d, d) array, or
    ``_stretch_depth`` when that is None.  Every other column is a
    ``_column`` call of its own.  Each stretch of unitary runs is one
    product ``acc``: a column enters as its ``_column`` product (its chain
    included), a CNOT run as a signed row permutation of ``acc``
    (``_cnot_perm``), any other gate as ``u @ acc`` (u its transfer matrix
    in base 4).  Each random-unitary mixture is its own set.

    Every operator it yields is an array it built, or its layer's own row
    of one, so the consumer may overwrite it.  First columns gather into
    ``scratch`` (unless that is None): the consumer must be done with a
    layer before it asks for the next, whose stretch may overwrite it.
    """
    n = circ.n
    letters, params, spans = circ.columns
    layers = list(layers)
    layer_runs = [circ.layer_runs(layer) for layer in layers]
    if letters:
        angles = thetas[..., params]
        stack = _rotation(_paulis_1q(letters), angles) if base == 2 else _rotation_ptm(letters, angles)
    if scratch is None:
        depth = _stretch_depth(circ, len(thetas) if thetas.ndim == 2 else 1, base, 0)
    else:
        depth = len(scratch)
    rendered, row = (), 0
    for i, (layer, runs) in enumerate(zip(layers, layer_runs)):
        columns = iter(spans[layer])
        ops: list[list[np.ndarray]] = []
        acc: np.ndarray | None = None
        if circ.stretches[layer]:
            if row == len(rendered):
                first, positions = circ.stretches[layer]
                # this layer and the requested layers right after it in its
                # stretch, at most depth of them
                stop = min(first + len(positions), layer + depth)
                count = 1
                while (layer + count < stop and i + count < len(layers)
                       and layers[i + count] == layer + count):
                    count += 1
                head = runs[0][1]
                factors = stack[..., positions[layer - first:layer - first + count], :, :]
                rendered = _column(factors.swapaxes(0, -4),
                                   *_column_index(n, base, head.qubits, head.chain),
                                   None if scratch is None else scratch[:count])
                row = 0
            acc, row = rendered[row], row + 1
            next(columns)
            runs = runs[1:]
        for kind, run in runs:
            if kind == "mixture":
                if acc is not None:
                    ops.append([acc])
                    acc = None
                index, spec = run
                ops.append(_mixture_ops(spec, thetas[..., index]))
            elif kind == "cnots":
                rows, sign = _cnot_perm(run, n, base)
                if acc is None:
                    acc = np.eye(len(rows), dtype=complex if base == 2 else float)
                acc = acc[..., rows, :]
                # the basis states' signs are all +1, and a complex multiply
                # by +1 can flip the sign of a zero
                if base == 4:
                    acc = sign[:, None] * acc
            else:
                if kind == "column":
                    u = _column(stack[..., next(columns), :, :],
                                *_column_index(n, base, run.qubits, run.chain), None)
                else:
                    u = _gate_unitary(run, thetas)
                    u = u if base == 2 else _unitary_ptm(u)
                acc = u if acc is None else u @ acc
        if acc is not None:
            ops.append([acc])
        yield ops


@lru_cache(maxsize=MAX_QUBITS)
def _ground_state(n: int) -> np.ndarray:
    """The read-only density matrix of |0...0> on n qubits."""
    rho = DensityMatrix.ground_state(n).data
    rho.setflags(write=False)
    return rho


def evolve(circ: Circuit, theta: np.ndarray, noise: NoiseSpec) -> DensityMatrix | np.ndarray:
    """Run the noisy circuit from |0...0>: per layer, all gates then the
    layer channel (``NoiseSpec()`` is no noise), every entry checked
    against the circuit (``NoiseSpec.per_layer``) before layer 0 runs.

    ``theta`` of shape (P,) gives the final DensityMatrix; shape (B, P)
    evolves B copies of |0...0>, one per row, and gives the (B, d, d)
    stack of final states.  Row b of the stack is bit for bit the state
    evolved from ``theta[b]`` alone.

    The width alone picks the engine: from ``ENGINE_MIN_QUBITS`` qubits on
    the circuit runs on Pauli components (``_pauli_evolve``), below it on
    density matrices (``_dense_evolve``).
    """
    thetas = circ.angle_rows(theta)
    channels = noise.per_layer(circ)
    engine = _pauli_evolve if circ.n >= ENGINE_MIN_QUBITS else _dense_evolve
    rho = engine(circ, thetas, channels)
    return DensityMatrix(rho[0]) if np.ndim(theta) == 1 else rho


def _dense_evolve(
    circ: Circuit, thetas: np.ndarray, channels: tuple[KrausChannel | None, ...]
) -> np.ndarray:
    """``evolve`` of a (B, P) angle stack on density matrices, under the
    layer entries ``channels`` (``NoiseSpec.per_layer``): its (B, d, d)
    final states.  Each layer's operators are built (``_layer_ops``) just
    before they are applied.

    A call sets up once, for all its layers, what depends only on the
    circuit and its noise: the stretch depth k (``_stretch_depth``, which
    counts the rest of the block against the budget), and which kernel
    each layer entry takes (a full-register entry its Kraus sum), with its
    tables and term stack.  It allocates its working memory once too: the
    state stack it returns, and one block that holds a spare of the same
    shape, a (k, B, d, d) scratch and the noise kernel's term stack, sized
    for the layer channel with the most terms.  Each stretch of first
    columns renders into the scratch, each operator goes on through the
    spare (``_apply_ops``), and the noise writes back into the state.
    Only a mixture's Kraus sum or a full-register channel makes a new
    state stack, which then takes the place of the first.  The block is
    freed in one piece, so the allocator can hand the same memory to the
    next call instead of returning it to the system and faulting it back
    in.
    """
    rho = np.repeat(_ground_state(circ.n)[None], len(thetas), axis=0)
    (batch, d, _), size = rho.shape, rho.size
    # a one-qubit entry goes on every qubit through the channel's kernel
    # (KrausChannel._every_qubit), with its tables and a (B, T, d^2) term stack
    counts = {ch: ch._term_count for ch in dict.fromkeys(channels)
              if ch is not None and ch.n < circ.n}
    count = max(counts.values(), default=0)
    depth = _stretch_depth(circ, batch, 2, 16 * (1 + count) * size)
    block = np.empty((1 + depth + count) * size, dtype=complex)
    spare = block[:size].reshape(rho.shape)
    scratch = block[size:(1 + depth) * size].reshape((depth,) + rho.shape)
    terms = block[(1 + depth) * size:]
    kernels = {ch: (ch, terms[:t * size].reshape(batch, t, d * d), ch._width_tables(d))
               for ch, t in counts.items()}
    steps = [kernels.get(ch, (ch, None, None)) for ch in channels]
    for layer_ops, (channel, stack, tables) in zip(
            _layer_ops(circ, thetas, range(circ.depth), 2, scratch), steps):
        for ops in layer_ops:
            rho = _apply_ops(rho, ops, spare)
        if tables is not None:
            rho = channel._every_qubit(rho, rho, stack, tables)
        elif channel is not None:
            rho = channel.apply(rho)
    return rho


def _pauli_evolve(
    circ: Circuit, thetas: np.ndarray, channels: tuple[KrausChannel | None, ...]
) -> np.ndarray:
    """``evolve`` of a (B, P) angle stack on the real (B, 4^n) stack of
    Pauli components x_s = Tr(P_s rho), strings in natural order
    (``pauli._density_from_paulis``), from |0...0>, whose components are
    (1, 0, 0, 1) on every qubit: its (B, d, d) final states.

    A layer's one-qubit noise is its channel's 4 x 4 transfer matrix T on
    every qubit, put on with the next layer's first run: inside each
    qubit's map when that run is a column (R T, so the noise comes
    first), alone otherwise (``_noise_steps``).  Before the first layer
    one pass renders the 16 x 16 pair maps of every rotation column
    straight from the angles (``_column_steps``).  The layers then only
    multiply: a column is its pair products (``_put_maps``), a CNOT run
    or a column's chain one signed permutation of the strings
    (``_pauli_cnot_perm``).  Any other gate, a mixture and a
    full-register channel have no map on the strings: each run of
    consecutive such steps goes to density matrices once, takes each
    Kraus sum in turn and comes back once, when the next step has a map.
    The last layer's noise goes on after it, and the state is turned
    back into density matrices at the end, unless a run of Kraus sums
    ended it.

    One block holds the state, its spare, the pair maps and the
    conversion's scratch, freed in one piece (see ``_dense_evolve``).
    """
    n, batch = circ.n, len(thetas)
    size = batch * 4**n
    maps_end = 2 * size + batch * circ.pair_plan.floats
    block = np.empty(maps_end + 4 * size)
    x, spare = block[:size].reshape(batch, -1), block[size:2 * size].reshape(batch, -1)
    work = block[maps_end:]
    columns = iter(_column_steps(circ, thetas, channels, block[2 * size:maps_end]))
    x[:] = 0.0
    # the strings of X-mask 0 (I and Z letters only) have component 1
    x[:, _mask_tables(n).strings[0]] = 1.0
    steps = (step for step in _pauli_steps(circ, thetas, channels, columns) if len(step[1]))
    rho = None  # the state as density matrices after a run of Kraus sums
    for kraus, group in groupby(steps, lambda step: step[0] == "kraus"):
        if kraus:
            rho = _density_from_paulis(x, work)
            for _, ops in group:
                rho = _apply_kraus(rho, ops)
            continue
        if rho is not None:
            _paulis_from_density(rho, x)
            rho = None
        for kind, step in group:
            if kind == "maps":
                x, spare = _put_maps(x, spare, step)
                continue
            rows, sign = step
            # every index is in range: "clip" only skips the bounds check
            x.take(rows, axis=1, out=spare, mode="clip")
            np.multiply(spare, sign, out=spare)
            x, spare = spare, x
    return _density_from_paulis(x, work) if rho is None else rho


def _pauli_steps(
    circ: Circuit, thetas: np.ndarray, channels: tuple[KrausChannel | None, ...],
    columns: Iterator[tuple[tuple[int, np.ndarray], ...]],
) -> Iterator[tuple[str, object]]:
    """The steps of ``_pauli_evolve`` in order, each built when it is
    asked for: ("maps", ``_put_maps`` steps), ("perm", (rows, sign)) of a
    CNOT run or a column's chain, or ("kraus", a Kraus set) of a run with
    no map on the strings.  ``columns`` gives each column's steps in turn
    (``_column_steps``), its pending noise inside them; any other run has
    that noise put on alone before it."""
    n = circ.n
    noise = None  # the one-qubit channel after the layer before
    for layer, channel in enumerate(channels):
        for kind, run in circ.layer_runs(layer):
            yield "maps", next(columns) if kind == "column" else _noise_steps(noise, n)
            noise = None
            if kind == "mixture":
                yield "kraus", _mixture_ops(run[1], thetas[:, run[0]])
            elif kind == "gate":
                yield "kraus", [_gate_unitary(run, thetas)]
            elif chain := run.chain if kind == "column" else run:
                yield "perm", _pauli_cnot_perm(chain, n)
        # noise still pending here is that of the layer before an empty layer
        yield "maps", _noise_steps(noise, n)
        noise = channel
        if channel is not None and channel.n > 1:
            yield "kraus", channel.kraus_ops
            noise = None
    yield "maps", _noise_steps(noise, n)


class PairPlan(NamedTuple):
    """What ``_column_steps`` reads off a circuit, built once on first use
    (``Circuit.pair_plan``).  A slot is a place a column puts a map on:
    the pair (q, q + 1) of qubits, the last pair first, or qubit 0 alone
    at odd n.  ``slots[0]`` lists the pair slots and ``slots[1]`` the
    qubit-0 slots of every column that turns at least one of its qubits,
    each as (column, letters, angles): the letters on its qubits (I where
    the column leaves one alone) and the parameter index of each (P, one
    past the last, where it leaves one alone).  ``places`` holds per
    column its places (q, w, s) in step order: w = 2 for a pair, 1 for
    qubit 0, s the slot, or -1 where the column turns none of the place's
    qubits.  ``floats`` is the size of one row of every slot's map.
    ``layouts`` keeps ``_layout`` per pattern of pending noise."""

    # each column's layer when it starts it (and so takes the noise
    # after the layer before), else None
    heads: tuple[int | None, ...]
    slots: tuple[list[tuple[int, str, tuple[int, ...]]], ...]
    places: tuple[tuple[tuple[int, int, int], ...], ...]
    floats: int
    layouts: dict


def _pair_plan(circ: Circuit) -> PairPlan:
    """The circuit's ``PairPlan``: one pass over its column runs."""
    n, blank = circ.n, circ.num_parameters
    heads, places, slots = [], [], ([], [])
    for layer, runs in enumerate(circ.runs):
        for i, (kind, run) in enumerate(runs):
            if kind != "column":
                continue
            letters, angles = ["I"] * n, [blank] * n
            for q, letter, param in zip(run.qubits, run.letters, run.params):
                letters[q], angles[q] = letter, param
            place = []
            for q, w in [(q, 2) for q in range(n - 2, -1, -2)] + [(0, 1)] * (n % 2):
                name, s = "".join(letters[q:q + w]), -1
                if name != "I" * w:
                    s = len(slots[2 - w])
                    slots[2 - w].append((len(heads), name, tuple(angles[q:q + w])))
                place.append((q, w, s))
            heads.append(layer if i == 0 else None)
            places.append(tuple(place))
    return PairPlan(heads=tuple(heads), slots=slots, places=tuple(places),
                    floats=sum(len(entries) * 16**w for w, entries in zip((2, 1), slots)),
                    layouts={})


def _layout(plan: PairPlan, pending: tuple[int, ...]) -> tuple:
    """How ``_column_steps`` renders ``plan`` when the noise after each
    layer is ``pending[layer]``: 0 for none, k for the k-th distinct
    one-qubit channel.  Per width w with slots, ``(w, angles, groups)``:
    the (S, w) parameter indexes of its slots sorted by (letters, noise),
    and each group of equal (letters, noise) as (lo, hi, letters, noise),
    its slots' rows lo:hi of that order.  Then per column its steps as (q,
    w, row, noise): the map of width w at that row, or for row -1 the
    noise alone.  A pattern names no channel, so the plan keeps none
    alive."""
    taken = [0 if layer is None else pending[layer] for layer in plan.heads]
    widths, rows = [], {}
    for w, entries in zip((2, 1), plan.slots):
        if not entries:
            continue
        key = [(name, taken[column]) for column, name, _ in entries]
        order = sorted(range(len(entries)), key=key.__getitem__)
        rows[w] = {s: row for row, s in enumerate(order)}
        angles = np.array([entries[s][2] for s in order], dtype=np.intp)
        groups, lo = [], 0
        for (name, noise), members in groupby(order, key.__getitem__):
            hi = lo + len(list(members))
            groups.append((lo, hi, name, noise))
            lo = hi
        widths.append((w, angles, groups))
    steps = [tuple((q, w, rows[w][s] if s >= 0 else -1, noise) for q, w, s in place
                   if s >= 0 or noise)
             for place, noise in zip(plan.places, taken)]
    return widths, steps


def _column_steps(
    circ: Circuit, thetas: np.ndarray, channels: tuple[KrausChannel | None, ...],
    out: np.ndarray,
) -> list[tuple[tuple[int, np.ndarray], ...]]:
    """Each rotation column's ``_put_maps`` steps for the (B, P) angles
    ``thetas`` under the layer entries ``channels``, as the circuit plans
    them (``Circuit.pair_plan``); the maps are written into ``out``, B
    ``floats`` of the plan.

    A column that starts its layer takes T, the transfer matrix of the
    one-qubit channel after the layer before.  A rotation's transfer
    matrix is A_0 + cos(theta) A_1 + sin(theta) A_2 (``_ptm_parts``; A_0 =
    I, A_1 = A_2 = 0 on a qubit the column leaves alone), so a pair's map
    (R T) (x) (R' T) is sum_uv f_u(theta) f_v(theta') (A_u (x) A'_v)(T (x)
    T), f = (1, cos, sin): its 9 coefficients, one outer product, times a
    (9, 256) table that depends only on its letters and T
    (``_rotation_table``); qubit 0 alone takes its 3 coefficients times a
    (3, 16) table.  Each group of slots with equal letters and noise
    (``_layout``) is one ``matmul`` into ``out``.  A place the column
    leaves alone takes T (x) T (or T) where noise is pending, and no step
    otherwise.  Every step's map is a (B, 16, 16) or (B, 4, 4) view, or
    the channel's own shared map; row b is bit for bit that row rendered
    alone."""
    plan, (batch, count) = circ.pair_plan, thetas.shape
    # a layer's first run takes the one-qubit noise of the layer before
    code: dict[KrausChannel | None, int] = {None: 0}
    pending = (0,) + tuple(code.setdefault(ch, len(code)) if ch is not None and ch.n == 1 else 0
                           for ch in channels[:-1])
    noises = list(code)
    if pending not in plan.layouts:
        plan.layouts[pending] = _layout(plan, pending)
    widths, steps = plan.layouts[pending]
    trig = np.empty((batch, count + 1, 3))
    trig[..., 0] = 1.0
    np.cos(thetas, out=trig[:, :count, 1])
    np.sin(thetas, out=trig[:, :count, 2])
    trig[:, count, 1:] = 0.0
    views, start = {}, 0
    for w, angles, groups in widths:
        f = trig[:, angles]
        coef = f[:, :, 0] if w == 1 else (f[:, :, 0, :, None] * f[:, :, 1, None, :]).reshape(
            batch, len(angles), 9)
        slab = out[start:start + batch * len(angles) * 16**w].reshape(
            batch, len(angles), 4**w, 4**w)
        start += slab.size
        flat = slab.reshape(batch, len(angles), 16**w)
        for lo, hi, name, noise in groups:
            np.matmul(coef[:, lo:hi], _rotation_table(name, noises[noise]), out=flat[:, lo:hi])
        views[w] = list(slab.swapaxes(0, 1))
    return [tuple((q, views[w][row] if row >= 0 else
                   (noises[noise]._transfer_pair if w == 2 else noises[noise]._transfer))
                  for q, w, row, noise in column)
            for column in steps]


def _rotation_table(letters: str, channel: KrausChannel | None) -> np.ndarray:
    """The read-only (3^w, 16^w) table of the w = 1 or 2 one-qubit
    ``letters`` (I for a qubit left alone) under the noise ``channel``
    (None for none): row (u, v) is (A_u (x) A'_v)(T (x) T) laid out flat,
    A and A' the letters' ``_ptm_parts`` and T the channel's transfer
    matrix (one letter: row u is A_u T).  A channel keeps its tables;
    every entry is a product of entries of T, signed."""
    parts = _rotation_parts(letters)
    if channel is None:
        return parts
    tables = channel._rotation_tables
    if letters not in tables:
        t = channel._transfer if len(letters) == 1 else channel._transfer_pair
        table = (parts.reshape(len(parts), len(t), len(t)) @ t).reshape(parts.shape)
        table.setflags(write=False)
        tables[letters] = table
    return tables[letters]


@lru_cache(maxsize=64)
def _rotation_parts(letters: str) -> np.ndarray:
    """The read-only (3^w, 16^w) table of ``_rotation_table`` without
    noise: the letters' ``_ptm_parts``, row (u, v) the Kronecker product
    A_u (x) A'_v laid out flat, every entry 0 or +-1."""
    a = _ptm_parts(letters)[:, 0]
    if len(letters) == 2:
        b = _ptm_parts(letters)[:, 1]
        a = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
    table = a.reshape(3 ** len(letters), -1)
    table.setflags(write=False)
    return table


def _noise_steps(channel: KrausChannel | None, n: int) -> tuple[tuple[int, np.ndarray], ...]:
    """The ``_put_maps`` steps of a one-qubit channel on each of n qubits,
    none for None: the map every row shares on each pair, T (x) T of its
    transfer matrix T (``KrausChannel._transfer_pair``), and T alone on
    qubit 0 at odd n."""
    if channel is None:
        return ()
    pairs = tuple((q, channel._transfer_pair) for q in range(n - 2, -1, -2))
    return pairs + ((0, channel._transfer),) * (n % 2)


def _put_maps(
    x: np.ndarray, spare: np.ndarray, steps: Sequence[tuple[int, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Each step (q, m) in turn on the (B, 4^n) Pauli components ``x``: m
    is a 16 x 16 map of qubits (q, q + 1) or a 4 x 4 map of qubit q, one
    map or a (B, ., .) stack of one per row, put on as one ``matmul``
    batched over rows (and over the qubits before q); a map on the last
    qubits is a right multiply, since it has no axis after it.  Each
    product is written into the other of x and ``spare``; returns the pair
    (result, the other)."""
    batch, size = x.shape
    for q, m in steps:
        width = m.shape[-1]
        inner = size // (4**q * width)
        if inner > 1:
            np.matmul(m[..., None, :, :], x.reshape(batch, -1, width, inner),
                      out=spare.reshape(batch, -1, width, inner))
        else:
            # the last pair has no axis after it: a right multiply by m^T
            np.matmul(x.reshape(batch, -1, width), m.swapaxes(-1, -2),
                      out=spare.reshape(batch, -1, width))
        x, spare = spare, x
    return x, spare


# ---------------------------------------------------------------------------
# Affine (coherence-vector) view of one layer, for bound evaluation
# ---------------------------------------------------------------------------


def _unitary_layer(circ: Circuit, layer: int) -> int:
    """``layer``, refused if the circuit lacks it (``Circuit.layer_runs``)
    or it holds a mixture."""
    if any(kind == "mixture" for kind, _ in circ.layer_runs(layer)):
        raise ValueError(f"layer {layer} holds a unitary mixture, so it is not unitary")
    return layer


def layer_unitary(circ: Circuit, theta: np.ndarray, layer: int) -> np.ndarray:
    """Product of all gate unitaries in a layer (control noise included)."""
    theta = circ.angle_row(theta)
    ops, = _layer_ops(circ, theta, [_unitary_layer(circ, layer)], 2, None)
    return ops[0][0] if ops else np.eye(2**circ.n, dtype=complex)


def layer_gate_maps(
    circ: Circuit, theta: np.ndarray, layers: Sequence[int]
) -> Iterator[np.ndarray]:
    """The gates of each of ``layers`` in turn, as the real orthogonal
    (d^2-1) x (d^2-1) matrix acting on Hamming-ordered coherence vectors
    (control noise included).  Each equals the M of
    ``affine_rep(unitary_channel(layer_unitary(...)))`` up to rounding.

    The angles and every layer are checked when it is called.  Each map is
    built when the consumer asks for it by the walker the dense view uses
    (``_layer_ops`` in base 4): the angles are read once, and one
    ``_rotation_ptm`` call renders the 4 x 4 Pauli transfer matrices of
    every rotation column of the circuit before the first map.
    """
    theta = circ.angle_row(theta)
    layers = [_unitary_layer(circ, layer) for layer in layers]
    return (ops[0][0] if ops else np.eye(4**circ.n - 1)
            for ops in _layer_ops(circ, theta, layers, 4, None))


@lru_cache(maxsize=256)
def _ptm_parts(letters: str) -> np.ndarray:
    """(3, k, 4, 4) array of 0 and +-1 entries: the Pauli transfer matrix
    (order I, X, Y, Z) of exp(-i theta P / 2), P the k-th letter, is
    ``parts[0, k] + cos(theta) parts[1, k] + sin(theta) parts[2, k]``.
    I and P stay; the two letters that anticommute with P turn by theta in
    their plane, e.g. for P = Y: X -> cos(theta) X - sin(theta) Z.  The
    letter I (no rotation) has parts (I, 0, 0)."""
    parts = np.zeros((3, len(letters), 4, 4))
    for k, letter in enumerate(letters):
        if letter == "I":
            parts[0, k] = np.eye(4)
            continue
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


_NO_NOISE = identity_channel(1)  # a layer without noise, at every register width


def layer_channel_as_kraus(noise: NoiseSpec, circ: Circuit) -> tuple[KrausChannel, ...]:
    """Each layer's noise map as one full-register channel (identity if
    absent), for the affine path: a register beyond ``AFFINE_MAX_QUBITS``
    is refused before any channel is built.  A single-qubit entry, or no
    noise, gives the register channel it carries (``KrausChannel.register``)."""
    check_affine_size(circ.n)
    return tuple((_NO_NOISE if entry is None else entry).register(circ.n)
                 for entry in noise.per_layer(circ))
