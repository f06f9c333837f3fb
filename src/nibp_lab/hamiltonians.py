"""Problem Hamiltonians: random two-local generation, nice-basis expansion,
locality norm bound, and cost evaluation.

Term coefficients are stored in the raw Pauli-string basis (H = sum c_P P);
the nice-basis coordinates h_j = Tr(F_j H) = sqrt(d) c_P follow from
P = sqrt(d) F.  The identity component h0 is kept in the nice convention,
so H = h0 F_0 + sum_j h_j F_j and ||H||_HS^2 = h0^2 + ||h||^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial
from typing import Sequence

import numpy as np

from .pauli import (
    ENGINE_MIN_QUBITS,
    MAX_QUBITS,
    DensityMatrix,
    DimensionMismatchError,
    SizeError,
    check_pauli,
    hamming_weight,
    pauli_rows,
    pauli_strings_by_weight,
    qubit_count,
    strings_of_weight,
)

_LETTERS = frozenset("IXYZ")


@dataclass(frozen=True)
class Hamiltonian:
    """Observable with real Pauli-string coefficients, hence Hermitian."""

    n: int
    terms: tuple[tuple[str, float], ...]  # (letters, coefficient in the P basis)
    h0: float = 0.0  # identity coordinate in the nice basis

    def __post_init__(self):
        """Refuse a string that is no n-qubit Pauli string (``check_pauli``),
        the identity, a string listed twice, and a coefficient or ``h0``
        that is not finite.  The strings are checked together in one pass
        (``_well_formed``); only when that pass finds a fault are they read
        again one by one, to name the first."""
        strings = [letters for letters, _ in self.terms]
        if not _well_formed(strings, self.n):
            seen = set()
            for letters in strings:
                if set(check_pauli(letters, self.n)) == {"I"}:
                    raise ValueError("identity component belongs in h0, not terms")
                if letters in seen:
                    raise ValueError(f"Pauli string {letters!r} is listed twice")
                seen.add(letters)
        values = [self.h0] + [c for _, c in self.terms]
        finite = np.isfinite(values)
        if not finite.all():
            at = int(finite.argmin())
            where = f"the coefficient of {strings[at - 1]!r}" if at else "h0"
            raise ValueError(f"{where} is {values[at]!r}, not finite")

    @property
    def locality(self) -> int:
        return max((hamming_weight(s) for s, c in self.terms if c != 0.0), default=0)

    def matrix(self) -> np.ndarray:
        """The dense d x d matrix, built once per instance (read-only)."""
        return self._matrix

    @cached_property
    def _matrix(self) -> np.ndarray:
        """h0 / sqrt(d) I plus each term's coefficient times its string, as
        one scatter (``_scatter_sum``), so no dense string matrix is built."""
        strings = tuple(letters for letters, _ in self.terms)
        coeffs = np.array([c for _, c in self.terms])
        mat = _scatter_sum(self.n, strings, coeffs, self.h0 / np.sqrt(2**self.n))
        mat.setflags(write=False)
        return mat

    def trace(self) -> float:
        # only the identity component carries trace
        return float(self.h0 * np.sqrt(2**self.n))

    def hs_norm(self) -> float:
        return _hs_norm(self.n, self.h0, [c for _, c in self.terms])

    def ground_energy(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix())[0])


def _well_formed(strings: Sequence[str], n: int) -> bool:
    """Whether ``strings`` are distinct n-qubit Pauli strings, none the
    identity: their joined letters (the string ``pauli_rows`` reads) are
    read once, as one set, which at these sizes is faster than reading
    them as an array of byte codes through lookup tables."""
    try:
        letters = set("".join(strings))
    except TypeError:
        return False
    distinct = set(strings)
    return (letters <= _LETTERS and len(distinct) == len(strings)
            and "I" * n not in distinct and set(map(len, strings)) <= {n})


@lru_cache(maxsize=MAX_QUBITS)
def _scatter(n: int, strings: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the n-qubit ``strings`` put their one nonzero per row
    (``pauli_rows``), read-only and kept per strings tuple: the positions
    of the diagonal's real parts, then of each string's real and imaginary
    parts, in the float64 view of the d x d matrix; each string's
    positions in the matrix itself; and the (strings, d) phases."""
    d = 2**n
    rows = np.arange(d)
    flips, phases = pauli_rows(strings) if strings else (np.empty(0, int), np.empty((0, d)))
    flat = (rows * d + (rows ^ flips[:, None])).ravel()
    parts = np.stack((2 * flat, 2 * flat + 1), axis=-1).ravel()
    positions = np.concatenate((2 * (d + 1) * rows, parts))
    for arr in (positions, flat, phases):
        arr.setflags(write=False)
    return positions, flat, phases


def _scatter_sum(n: int, strings: tuple[str, ...], coeffs: np.ndarray,
                 diagonal: float) -> np.ndarray:
    """``diagonal`` I plus sum_t coeffs[t] strings[t], as one ``np.bincount``
    on the float64 view of a complex d x d matrix (complex addition adds
    the real and imaginary parts apart): the diagonal first, then each
    string's nonzeros in term order, the order of a dense sum of the terms."""
    d = 2**n
    positions, _, phases = _scatter(n, strings)
    values = (coeffs[:, None] * phases).astype(complex, copy=False).view(float).ravel()
    weights = np.concatenate((np.full(d, diagonal), values))
    return np.bincount(positions, weights, minlength=2 * d * d).view(complex).reshape(d, d)


def _hs_norm(n: int, h0: float, coeffs: Sequence[float]) -> float:
    """sqrt(h0^2 + d sum_P c_P^2), the coefficients summed in term order."""
    return float(np.sqrt(h0**2 + 2**n * sum(c**2 for c in coeffs)))


def h_vector(H: Hamiltonian) -> tuple[float, np.ndarray]:
    """Coordinates (h0, h) of H in the nice basis: h_j = Tr(F_j H)."""
    sqrt_d = np.sqrt(2**H.n)
    coeffs = dict(H.terms)
    h = np.array([sqrt_d * coeffs.get(s, 0.0) for s in pauli_strings_by_weight(H.n)[1:]])
    return H.h0, h


def h_norm(H: Hamiltonian) -> float:
    """||h||, the nice-basis norm of the traceless part."""
    d = 2**H.n
    return float(np.sqrt(d * sum(c**2 for _, c in H.terms)))


def h_norm_bound(n: int, K: int, h_max: float) -> float:
    """Crude locality bound h_max * n^(K/2) / sqrt((K-1)!) on ||h||.

    Valid only in the dilute regime K <= n/2 that the bound's counting
    argument assumes.
    """
    if not 1 <= K <= n / 2:
        raise ValueError(f"locality K={K} outside [1, n/2] for n={n}")
    return h_max * n ** (K / 2) / np.sqrt(factorial(K - 1))


def cost(
    H: Hamiltonian | Sequence[Hamiltonian], rho: DensityMatrix | np.ndarray
) -> float | np.ndarray:
    """Expectation value Tr(H rho).

    ``rho`` may be a (B, d, d) stack of states, with ``H`` a list of one
    Hamiltonian per row; one state takes one Hamiltonian and is the stack
    of one row.  Below ``ENGINE_MIN_QUBITS`` qubits one batched product
    and trace give the (B,) values; from it on, each row is one sum
    sum_ij conj(H_ij) rho_ij, which is Tr(H rho) as H is Hermitian, O(d^2)
    where the product is O(d^3).  Either way each value is bit for bit
    the value of its row on its own.
    """
    if isinstance(rho, DensityMatrix):
        if not isinstance(H, Hamiltonian):
            raise TypeError(f"one state takes one Hamiltonian, not a list of {len(H)}")
        return float(cost([H], rho.data[None])[0])
    if rho.ndim != 3:
        raise DimensionMismatchError(f"states of shape {rho.shape} are not a (B, d, d) stack")
    if not len(rho):
        raise ValueError(f"expected at least one state, got shape {rho.shape}")
    if isinstance(H, Hamiltonian):
        raise TypeError(f"a stack of {len(rho)} states takes a list of {len(rho)} "
                        "Hamiltonians, one per state, not one Hamiltonian")
    if len(H) != len(rho):
        raise ValueError(f"{len(H)} Hamiltonians for {len(rho)} states")
    n = qubit_count(rho.shape[1:])
    check_widths(H, n)
    if n >= ENGINE_MIN_QUBITS:
        vals = np.array([np.vdot(h.matrix(), r) for h, r in zip(H, rho)])
    else:
        vals = (np.array([h.matrix() for h in H]) @ rho).diagonal(axis1=1, axis2=2).sum(-1)
    for residual in vals.imag.tolist():
        if abs(residual) > 1e-10:
            raise ValueError(f"expectation has imaginary residual {residual:.2e}")
    return vals.real


def check_widths(H: Sequence[Hamiltonian], n: int) -> None:
    """Refuse the first of ``H`` that is not an n-qubit Hamiltonian."""
    for h in H:
        if h.n != n:
            raise DimensionMismatchError(f"H has n={h.n}, state n={n}")


def two_local_strings(n: int) -> list[str]:
    """All weight-1 and weight-2 strings over the letters X and Z."""
    return strings_of_weight(n, 1, "XZ") + strings_of_weight(n, 2, "XZ")


@lru_cache(maxsize=MAX_QUBITS)
def _two_local(n: int) -> tuple[str, ...]:
    """``two_local_strings(n)``, built once per width."""
    return tuple(two_local_strings(n))


def random_two_local(n: int, seed: int | np.random.Generator) -> Hamiltonian:
    """Random two-local Hamiltonian with X/Z letters, ground energy zero,
    and unit Hilbert-Schmidt norm.

    Every weight-1 and weight-2 string over {X, Z} gets an independent
    uniform [0, 1) magnitude; the spectrum is then shifted so the minimum
    eigenvalue is zero and the whole operator rescaled to unit norm.  The
    drawn terms are scattered (``_scatter``) into a matrix only for its
    smallest eigenvalue, and X and Z letters make that matrix real: from
    ``ENGINE_MIN_QUBITS`` on it is solved as float64, below as complex,
    whose rounding the depth sweeps pin.  Only the rescaled Hamiltonian is
    built.
    """
    if not 2 <= n <= MAX_QUBITS:
        raise SizeError(f"qubit count must be in [2, {MAX_QUBITS}], got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    strings = _two_local(n)
    coeffs = rng.uniform(0.0, 1.0, size=len(strings))
    if n >= ENGINE_MIN_QUBITS:
        _, flat, phases = _scatter(n, strings)
        weights = (coeffs[:, None] * phases.real).ravel()
        drawn = np.bincount(flat, weights, minlength=4**n).reshape(2**n, 2**n)
    else:
        drawn = _scatter_sum(n, strings, coeffs, 0.0)
    # shift the ground energy into the identity coordinate, then renormalize
    h0 = -float(np.linalg.eigvalsh(drawn)[0]) * np.sqrt(2**n)
    scale = _hs_norm(n, h0, coeffs)
    return Hamiltonian(n=n, terms=tuple(zip(strings, coeffs / scale)), h0=h0 / scale)
