"""CPTP channels in Kraus form and their affine coherence-vector representation.

A channel rho -> sum_a K_a rho K_a^dag acts on coherence vectors as the
affine map v -> M v + c.  M and c are computed from the transfer matrix
T_ij = Tr(F_i N(F_j)) over the normalized Pauli basis; c follows from the
identity column.  The shift is reported in two conventions: "nice" (the
normalized basis used internally) and "bloch" (rescaled by sqrt(d), matching
the textbook single-qubit Bloch parametrization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .pauli import (
    MAX_QUBITS,
    DensityMatrix,
    DimensionMismatchError,
    SizeError,
    _pauli_matrix,
    build_nice_basis,
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
    """A completely positive map given by its Kraus operators.

    The channel keeps read-only copies of the operators it is given, so
    later edits of the caller's arrays cannot reach it (or its cached
    per-qubit terms).  Channels compare and hash by identity.
    """

    n: int
    kraus_ops: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        ops = tuple(np.array(k) for k in self.kraus_ops)
        if not ops:
            raise InvalidChannelError("empty Kraus list")
        d = 2**self.n
        for k in ops:
            if k.shape != (d, d):
                raise DimensionMismatchError(
                    f"Kraus operator shape {k.shape} != {(d, d)}"
                )
            k.setflags(write=False)
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def dim(self) -> int:
        return 2**self.n

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """sum_a K_a rho K_a^dag on a d x d matrix or a (B, d, d) stack."""
        return _apply_kraus(rho, self.kraus_ops)

    @cached_property
    def _qubit_terms(self) -> tuple:
        """Each 2x2 Kraus operator as diag(k00, k11) + diag(k01, k10) X.

        Per operator: (diagonal, anti-diagonal), each a pair of (2, 1)
        columns (k, conj(k)) or None where that part is all zero.  All-zero
        operators are dropped.
        """
        if self.n != 1:
            raise DimensionMismatchError(
                f"qubit-local application needs a 1-qubit channel, got n={self.n}"
            )
        terms = []
        for k in self.kraus_ops:
            parts = tuple(
                (v[:, None], v.conj()[:, None]) if np.any(v) else None
                for v in (np.array([k[0, 0], k[1, 1]]), np.array([k[0, 1], k[1, 0]]))
            )
            if parts != (None, None):
                terms.append(parts)
        return tuple(terms)

    def apply_to_qubit(self, rho: np.ndarray, qubit: int, n: int) -> np.ndarray:
        """Apply this 1-qubit channel to ``qubit`` of an n-qubit state.

        ``rho`` is d x d or a (B, d, d) stack.  K rho K^dag is formed as K on
        the row axis, then conj(K) on the column axis, one broadcast multiply
        per nonzero (anti-)diagonal part; the X of an anti-diagonal part is
        a reversed view.  Kraus terms are summed in Kraus order.  For
        operators with one nonzero entry per row, every output entry is the
        same single product a dense contraction would form.
        """
        b = 2 ** (n - qubit - 1)
        rows = rho.reshape(-1, 2, b * 2**n)
        out = np.zeros_like(rho)
        for diag, anti in self._qubit_terms:
            left = _side(rows, diag, anti, 0)
            out += _side(left.reshape(-1, 2, b), diag, anti, 1).reshape(rho.shape)
        return out

    def apply_state(self, rho: DensityMatrix) -> DensityMatrix:
        if rho.n != self.n:
            raise DimensionMismatchError(f"state n={rho.n}, channel n={self.n}")
        return DensityMatrix(n=self.n, data=self.apply(rho.data))


def _apply_kraus(rho: np.ndarray, ops) -> np.ndarray:
    """sum_k K rho K^dag in Kraus order; K and rho are d x d or (B, d, d)."""
    first, *rest = ops
    out = first @ rho @ first.conj().swapaxes(-1, -2)
    for k in rest:
        out += k @ rho @ k.conj().swapaxes(-1, -2)
    return out


def _side(x: np.ndarray, diag, anti, which: int) -> np.ndarray:
    """k x along axis 1 of x (which=0), or conj(k) x (which=1)."""
    if anti is None:
        return diag[which] * x
    swapped = anti[which] * x[:, ::-1]
    return swapped if diag is None else diag[which] * x + swapped


@dataclass(frozen=True)
class ValidationReport:
    trace_preserving: bool
    unital: bool
    tp_residual: float
    unital_residual: float


@dataclass(frozen=True, eq=False)
class AffineRep:
    """Affine action v -> M v + c on coherence vectors (nice-basis convention)."""

    n: int
    M: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)

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

    def operator_norm(self) -> float:
        """||M||, the largest singular value (what norm(M, 2) returns)."""
        return float(self.singular_values[0])

    def is_unital(self) -> bool:
        return float(np.linalg.norm(self.c)) <= UNITAL_TOL


def validate_kraus(ch: KrausChannel) -> ValidationReport:
    """Report trace-preservation and unitality residuals (inf-norm)."""
    d = ch.dim
    eye = np.eye(d)
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
    d = ch.dim
    b = build_nice_basis(ch.n).reshape(d * d, d * d)
    t = b.conj() @ s @ b.T
    imag = float(np.abs(t.imag).max())
    if imag > 1e-12:
        raise InvalidChannelError(f"transfer matrix not real (residual {imag:.2e})")
    return t.real


def affine_rep(ch: KrausChannel) -> AffineRep:
    """Explicit (M, c) of a channel; guarded to small qubit counts."""
    if ch.n > AFFINE_MAX_QUBITS:
        raise SizeError(
            f"explicit affine representation limited to n <= {AFFINE_MAX_QUBITS}"
        )
    report = validate_kraus(ch)
    if not report.trace_preserving:
        raise InvalidChannelError(
            f"not trace preserving (residual {report.tp_residual:.2e})"
        )
    t = transfer_matrix(ch)
    m = t[1:, 1:]
    c = t[1:, 0] / np.sqrt(ch.dim)
    return AffineRep(n=ch.n, M=m, c=c)


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
    return KrausChannel(n=second.n, kraus_ops=ops)


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
    return KrausChannel(n=n, kraus_ops=tuple(ops))


# ---------------------------------------------------------------------------
# Channel zoo
# ---------------------------------------------------------------------------


def identity_channel(n: int = 1) -> KrausChannel:
    return KrausChannel(n=n, kraus_ops=(np.eye(2**n, dtype=complex),))


def unitary_channel(u: np.ndarray) -> KrausChannel:
    n = int(round(np.log2(u.shape[0])))
    return KrausChannel(n=n, kraus_ops=(np.asarray(u, dtype=complex),))


def depolarizing(p: float) -> KrausChannel:
    """Single-qubit depolarizing map with error probability p."""
    ops = (np.sqrt(1.0 - p) * np.eye(2, dtype=complex),) + tuple(
        np.sqrt(p / 3.0) * _pauli_matrix(s) for s in "XYZ"
    )
    return KrausChannel(n=1, kraus_ops=ops)


def amplitude_damping(p: float) -> KrausChannel:
    """Relaxation toward |0> with excited-state decay probability p."""
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return KrausChannel(n=1, kraus_ops=(k0, k1))


def bit_flip(p: float) -> KrausChannel:
    """Kraus set {sqrt(p) I, sqrt(1-p) X}: the bit flips with probability 1-p."""
    return KrausChannel(
        n=1,
        kraus_ops=(
            np.sqrt(p) * np.eye(2, dtype=complex),
            np.sqrt(1.0 - p) * _pauli_matrix("X"),
        ),
    )


def phase_flip(p: float) -> KrausChannel:
    return KrausChannel(
        n=1,
        kraus_ops=(
            np.sqrt(p) * np.eye(2, dtype=complex),
            np.sqrt(1.0 - p) * _pauli_matrix("Z"),
        ),
    )


def flip_then_damp(p: float) -> KrausChannel:
    """Bit flip at the symmetric point followed by amplitude damping.

    Its dilation matrix is diag(sqrt(1-p), 0, 0): a non-unital channel with a
    vanishing smallest singular value.
    """
    return compose(amplitude_damping(p), bit_flip(0.5))


def random_unitary_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_channel(
    n: int, rng: np.random.Generator, kraus_count: int = 2
) -> KrausChannel:
    """Random CPTP channel: slice a Haar-random isometry into Kraus blocks."""
    d = 2**n
    z = rng.standard_normal((d * kraus_count, d)) + 1j * rng.standard_normal(
        (d * kraus_count, d)
    )
    q, _ = np.linalg.qr(z)
    ops = tuple(q[i * d : (i + 1) * d, :] for i in range(kraus_count))
    return KrausChannel(n=n, kraus_ops=ops)


def random_nonunital_channel(n: int, rng: np.random.Generator) -> KrausChannel:
    """Random two-Kraus channel rejected until clearly non-unital, in at
    most 100 draws."""
    for _ in range(100):
        ch = random_channel(n, rng)
        if validate_kraus(ch).unital_residual >= 1e-6:
            return ch
    raise RuntimeError("failed to draw a non-unital channel")


def random_unital_channel(n: int, rng: np.random.Generator) -> KrausChannel:
    """Random mixture of 3 Haar-random unitaries (unital by construction)."""
    d = 2**n
    probs = rng.dirichlet(np.ones(3))
    ops = tuple(
        np.sqrt(p) * random_unitary_matrix(d, rng) for p in probs
    )
    return KrausChannel(n=n, kraus_ops=ops)


_NAMED_CHANNELS = {
    "identity": lambda p=0.0: identity_channel(1),
    "depolarizing": depolarizing,
    "amplitude_damping": amplitude_damping,
    "bit_flip": bit_flip,
    "phase_flip": phase_flip,
    "flip_then_damp": flip_then_damp,
}


def named_channel(name: str, p: float = 0.0) -> KrausChannel:
    try:
        factory = _NAMED_CHANNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown channel {name!r}; choices: {sorted(_NAMED_CHANNELS)}"
        ) from None
    return factory(p)
