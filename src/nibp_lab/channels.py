"""CPTP channels in Kraus form and their affine coherence-vector representation.

A channel rho -> sum_a K_a rho K_a^dag acts on coherence vectors as the
affine map v -> M v + c.  M and c are computed from the transfer matrix
T_ij = Tr(F_i N(F_j)) over the normalized Pauli basis; c follows from the
identity column.  A channel carries its affine map: ``affine_rep`` builds
it on first use and returns that same map, with read-only M and c, on
every later call.  The shift is reported in two conventions: "nice" (the
normalized basis used internally) and "bloch" (rescaled by sqrt(d), matching
the textbook single-qubit Bloch parametrization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .pauli import (
    MAX_QUBITS,
    DimensionMismatchError,
    SizeError,
    _pauli_matrix,
    build_nice_basis,
    coherence_qubit_count,
    qubit_count,
)

AFFINE_MAX_QUBITS = 3  # (d^2-1)^2 storage makes explicit M infeasible beyond this

UNITAL_TOL = 1e-9
CONTRACTIVE_MARGIN = 1e-9

CLASS_UNITARY = "unitary"
CLASS_UNITAL_NONUNITARY = "unital_nonunitary"
CLASS_HS_CONTRACTIVE_NONUNITAL = "hs_contractive_nonunital"
CLASS_NONUNITAL_NONCONTRACTIVE = "nonunital_noncontractive"


class InvalidChannelError(ValueError):
    """The Kraus set does not describe a trace-preserving channel."""


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A completely positive map given by its 2^n x 2^n Kraus operators.

    The channel keeps read-only copies of the operators it is given, so
    later edits of the caller's arrays cannot reach it (or its cached
    per-qubit terms, tables, register channels, transfer matrix, its pair
    map and affine map).  Channels compare and hash by identity.
    """

    kraus_ops: tuple[np.ndarray, ...] = field(repr=False)
    n: int = field(init=False)
    # the qubit-local kernel's tables, keyed by d of the state (``_width_tables``)
    _tables: dict = field(default_factory=dict, init=False, repr=False)
    # a 1-qubit channel's register channels, keyed by width (``register``)
    _registers: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        ops = tuple(np.array(k) for k in self.kraus_ops)
        if not ops:
            raise InvalidChannelError("empty Kraus list")
        if len({k.shape for k in ops}) > 1:
            raise DimensionMismatchError(f"Kraus operators of shapes {[k.shape for k in ops]}")
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "kraus_ops", ops)
        object.__setattr__(self, "n", qubit_count(ops[0].shape))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """sum_a K_a rho K_a^dag on a d x d matrix or a (B, d, d) stack."""
        return _apply_kraus(rho, self.kraus_ops)

    @cached_property
    def _qubit_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This 1-qubit channel as a sum of terms d_a X^a rho X^b d_b^dag.

        A Kraus operator is d_0 + d_1 X, with d_0 = diag(k00, k11) and
        d_1 = diag(k01, k10).  Its terms are the pairs (a, b) of its
        nonzero parts: the single pair (a, a) where each row has at most
        one nonzero entry, as for every named channel.  Returns the (T, 2)
        flips (a, b), the (T, 2) row coefficients d_a and the (T, 2)
        column coefficients conj(d_b), in Kraus order.
        """
        if self.n != 1:
            raise DimensionMismatchError(
                f"qubit-local application needs a 1-qubit channel, got n={self.n}"
            )
        terms = []
        for k in self.kraus_ops:
            parts = [(a, v) for a, v in enumerate((k.diagonal(), k[:, ::-1].diagonal()))
                     if np.any(v)]
            terms += [(a, b, row, col.conj()) for a, row in parts for b, col in parts]
        flips = np.array([t[:2] for t in terms], dtype=np.intp).reshape(-1, 2)
        rows = np.array([t[2] for t in terms], dtype=complex).reshape(-1, 2)
        cols = np.array([t[3] for t in terms], dtype=complex).reshape(-1, 2)
        return flips, rows, cols

    def _width_tables(self, d: int) -> tuple[tuple[np.ndarray, ...], ...]:
        """The tables kept under d, or else check d = 2^n, then build and
        keep under d one table set per qubit q of a d x d state.  Each term
        reads the state at its flat position XOR a mask (bit q of the row
        when a = 1, of the column when b = 1) and scales it by its row
        coefficient at bit q of the row, then its column coefficient at bit
        q of the column.  A set is the (T, d^2) gather index, XOR already
        taken, and the (1, T, d^2) row and column coefficients laid out
        flat: 40 T d^2 bytes a qubit.  ``circuits.evolve`` reads them below
        ``ENGINE_MIN_QUBITS`` only, d <= 16.
        """
        if d in self._tables:
            return self._tables[d]
        n = qubit_count((d, d))
        flips, rows, cols = self._qubit_terms
        flat, tables = np.arange(d * d, dtype=np.intp), []
        for qubit in range(n):
            bit = 2 ** (n - qubit - 1)
            mask = flips @ np.array([[bit * d], [bit]], dtype=np.intp)
            digit = np.arange(d) // bit % 2
            # the coefficients take the term stack's shape for one state,
            # (1, T, d^2): a multiply of equal shapes skips numpy's
            # broadcast set-up
            tables.append((np.bitwise_xor(flat, mask),
                           np.repeat(rows[:, digit], d, axis=1)[None],
                           np.tile(cols[:, digit], d)[None]))
        self._tables[d] = tables = tuple(tables)
        return tables

    @property
    def _term_count(self) -> int:
        """T, the number of terms d_a X^a rho X^b d_b^dag (``_qubit_terms``)."""
        return len(self._qubit_terms[0])

    def _every_qubit(
        self, state: np.ndarray, out: np.ndarray, stack: np.ndarray, tables: tuple
    ) -> np.ndarray:
        """This 1-qubit channel on every qubit of the complex d x d state or
        (B, d, d) stack ``state``, qubit 0 first: the noise after a layer.
        The result goes into ``out``, a contiguous array of its shape,
        which may be ``state`` itself: each qubit reads the whole state
        into the term stack before it writes.  ``stack`` is the (B, T, d^2)
        complex term stack (B = 1 for one state) and ``tables`` this
        channel's ``_width_tables(d)``; the caller sets both up.  Returns
        ``out``.

        Per qubit, one gather reads the state at each term's flipped rows
        and columns; two in-place multiplies scale it by the row
        coefficients, then by the column coefficients; one sum over the
        terms adds them in Kraus order.  For operators with at most one
        nonzero entry per row, every output entry is conj(k') (k x) for
        each Kraus operator, summed in Kraus order: the products and sums
        a dense contraction forms.
        """
        d = state.shape[-1]
        rows, sums = state.reshape(-1, d * d), out.reshape(-1, d * d)
        for index, row, col in tables:
            # every index is in range: "clip" only skips the bounds check
            rows.take(index, axis=-1, out=stack, mode="clip")
            np.multiply(row, stack, out=stack)
            np.multiply(col, stack, out=stack)
            rows = np.add.reduce(stack, axis=1, out=sums)
        return out

    def register(self, n: int) -> KrausChannel:
        """This channel on an n-qubit register (a 1-qubit channel on every
        qubit), built once per n and carried like its affine map."""
        if n == self.n:
            return self
        if n not in self._registers:
            self._registers[n] = tensor_channel([self] * n)
        return self._registers[n]

    @cached_property
    def _transfer(self) -> np.ndarray:
        """This channel's ``transfer_matrix``, read-only, built on first use:
        the affine map's source, and a 1-qubit channel's 4 x 4 map (order
        I, X, Y, Z) on the Pauli components of each qubit."""
        t = transfer_matrix(self)
        t.setflags(write=False)
        return t

    @cached_property
    def _transfer_pair(self) -> np.ndarray:
        """A 1-qubit channel's transfer matrix T on two qubits, T (x) T
        (entry [4i + k, 4j + l] is T[i, j] T[k, l]), read-only, built on
        first use: its map on each pair of qubits of Pauli components."""
        t = self._transfer
        pair = (t[:, None, :, None] * t[None, :, None, :]).reshape(16, 16)
        pair.setflags(write=False)
        return pair

    @cached_property
    def _affine(self) -> AffineRep:
        """The map ``affine_rep`` returns, built on first use."""
        check_affine_size(self.n)
        report = validate_kraus(self)
        if not report.trace_preserving:
            raise InvalidChannelError(
                f"not trace preserving (residual {report.tp_residual:.2e})"
            )
        t = self._transfer
        m = t[1:, 1:]
        c = t[1:, 0] / np.sqrt(2**self.n)
        c.setflags(write=False)
        return AffineRep(m, c)


def _apply_kraus(rho: np.ndarray, ops) -> np.ndarray:
    """sum_k K rho K^dag in Kraus order; K and rho are d x d or (B, d, d)."""
    first, *rest = ops
    out = first @ rho @ first.conj().swapaxes(-1, -2)
    for k in rest:
        out += k @ rho @ k.conj().swapaxes(-1, -2)
    return out


@dataclass(frozen=True)
class ValidationReport:
    trace_preserving: bool
    unital: bool
    tp_residual: float
    unital_residual: float


@dataclass(frozen=True, eq=False)
class AffineRep:
    """Affine map v -> M v + c on (4^n - 1,) nice-basis coherence vectors, n read off c."""

    M: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    n: int = field(init=False)

    def __post_init__(self):
        n = coherence_qubit_count(self.c.shape)
        if self.M.shape != (4**n - 1,) * 2:
            raise DimensionMismatchError(f"M of shape {self.M.shape} for c of shape {self.c.shape}")
        object.__setattr__(self, "n", n)

    @property
    def c_bloch(self) -> np.ndarray:
        """Shift in the Bloch convention (coherence vector scaled by sqrt(d))."""
        return self.c * np.sqrt(2.0**self.n)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.M @ v + self.c

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of M, descending (read-only)."""
        s = np.linalg.svd(self.M, compute_uv=False)
        s.setflags(write=False)
        return s

    @cached_property
    def _operator_norm(self) -> float:
        return float(self.singular_values[0])

    def operator_norm(self) -> float:
        """||M||, the largest singular value (what norm(M, 2) returns).  It
        is one float, computed once, so that results which keep many norms
        of one map (a bound report keeps one per layer) hold one object."""
        return self._operator_norm

    @cached_property
    def c_norm(self) -> float:
        """||c||, one float computed once (``is_unital`` and the bounds read it)."""
        return float(np.linalg.norm(self.c))

    def is_unital(self) -> bool:
        return self.c_norm <= UNITAL_TOL


def validate_kraus(ch: KrausChannel) -> ValidationReport:
    """Report trace-preservation and unitality residuals (inf-norm)."""
    eye = np.eye(2**ch.n)
    tp = sum(k.conj().T @ k for k in ch.kraus_ops)
    un = sum(k @ k.conj().T for k in ch.kraus_ops)
    tp_res = float(np.linalg.norm(tp - eye, 2))
    un_res = float(np.linalg.norm(un - eye, 2))
    return ValidationReport(
        trace_preserving=tp_res <= UNITAL_TOL,
        unital=un_res <= UNITAL_TOL,
        tp_residual=tp_res,
        unital_residual=un_res,
    )


def _superoperator(ch: KrausChannel) -> np.ndarray:
    """Row-major-vec superoperator: vec(N(X)) = S vec(X)."""
    return sum(np.kron(k, k.conj()) for k in ch.kraus_ops)


def transfer_matrix(ch: KrausChannel) -> np.ndarray:
    """T_ij = Tr(F_i N(F_j)) over the full basis including the identity row."""
    s = _superoperator(ch)
    d = 2**ch.n
    b = build_nice_basis(ch.n).reshape(d * d, d * d)
    t = b.conj() @ s @ b.T
    imag = float(np.abs(t.imag).max())
    if imag > 1e-12:
        raise InvalidChannelError(f"transfer matrix not real (residual {imag:.2e})")
    return t.real


def check_affine_size(n: int) -> None:
    """Refuse a register beyond ``AFFINE_MAX_QUBITS``."""
    if n > AFFINE_MAX_QUBITS:
        raise SizeError(
            f"explicit affine representation limited to n <= {AFFINE_MAX_QUBITS}"
        )


def affine_rep(ch: KrausChannel) -> AffineRep:
    """Explicit (M, c) of a trace-preserving channel on at most
    ``AFFINE_MAX_QUBITS`` qubits.  The channel carries it: the first call
    builds it, and every later call returns that same map (M and c are
    read-only, since every caller shares them)."""
    return ch._affine


def polar_decompose(rep: AffineRep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M = O S with O orthogonal, S symmetric PSD; singular values descending."""
    if not np.all(np.isfinite(rep.M)):
        raise ValueError("non-finite entries in M")
    u, s, vt = np.linalg.svd(rep.M)
    o = u @ vt
    dilation = vt.T @ np.diag(s) @ vt
    return o, dilation, s


def classify(rep: AffineRep) -> str:
    """Sort a channel's affine map into the unitary / unital /
    HS-contractive taxonomy."""
    if rep.is_unital():
        if float(np.abs(rep.singular_values - 1.0).max()) <= UNITAL_TOL:
            return CLASS_UNITARY
        return CLASS_UNITAL_NONUNITARY
    if rep.operator_norm() < 1.0 - CONTRACTIVE_MARGIN:
        return CLASS_HS_CONTRACTIVE_NONUNITAL
    return CLASS_NONUNITAL_NONCONTRACTIVE


def compose(second: KrausChannel, first: KrausChannel) -> KrausChannel:
    """Channel applying `first` then `second`; Kraus set is all products."""
    if second.n != first.n:
        raise DimensionMismatchError(f"n mismatch: {second.n} vs {first.n}")
    ops = tuple(
        k2 @ k1 for k2 in second.kraus_ops for k1 in first.kraus_ops
    )
    return KrausChannel(ops)


def tensor_channel(per_qubit: list[KrausChannel]) -> KrausChannel:
    """Tensor product of single-qubit channels acting on a register."""
    if any(ch.n != 1 for ch in per_qubit):
        raise DimensionMismatchError("every factor must be a single-qubit channel")
    n = len(per_qubit)
    if n > MAX_QUBITS:
        raise SizeError(f"register size {n} exceeds cap of {MAX_QUBITS}")
    ops = [np.eye(1, dtype=complex)]
    for ch in per_qubit:
        ops = [np.kron(a, k) for a in ops for k in ch.kraus_ops]
    return KrausChannel(tuple(ops))


# ---------------------------------------------------------------------------
# Channel zoo
# ---------------------------------------------------------------------------


def identity_channel(n: int = 1) -> KrausChannel:
    return KrausChannel((np.eye(2**n, dtype=complex),))


def unitary_channel(u: np.ndarray) -> KrausChannel:
    return KrausChannel((np.asarray(u, dtype=complex),))


def depolarizing(p: float) -> KrausChannel:
    """Single-qubit depolarizing map with error probability p."""
    ops = (np.sqrt(1.0 - p) * np.eye(2, dtype=complex),) + tuple(
        np.sqrt(p / 3.0) * _pauli_matrix(s) for s in "XYZ"
    )
    return KrausChannel(ops)


def amplitude_damping(p: float) -> KrausChannel:
    """Relaxation toward |0> with excited-state decay probability p."""
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((k0, k1))


def bit_flip(p: float) -> KrausChannel:
    """Kraus set {sqrt(p) I, sqrt(1-p) X}: the bit flips with probability 1-p."""
    return KrausChannel((
        np.sqrt(p) * np.eye(2, dtype=complex),
        np.sqrt(1.0 - p) * _pauli_matrix("X"),
    ))


def phase_flip(p: float) -> KrausChannel:
    return KrausChannel((
        np.sqrt(p) * np.eye(2, dtype=complex),
        np.sqrt(1.0 - p) * _pauli_matrix("Z"),
    ))


def flip_then_damp(p: float) -> KrausChannel:
    """Bit flip at the symmetric point followed by amplitude damping.

    Its dilation matrix is diag(sqrt(1-p), 0, 0): a non-unital channel with a
    vanishing smallest singular value.
    """
    return compose(amplitude_damping(p), bit_flip(0.5))


_NAMED_CHANNELS = {
    "identity": lambda p: identity_channel(1),
    "depolarizing": depolarizing,
    "amplitude_damping": amplitude_damping,
    "bit_flip": bit_flip,
    "phase_flip": phase_flip,
    "flip_then_damp": flip_then_damp,
}


def named_channel(name: str, p: float) -> KrausChannel:
    try:
        factory = _NAMED_CHANNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown channel {name!r}; choices: {sorted(_NAMED_CHANNELS)}"
        ) from None
    return factory(p)
