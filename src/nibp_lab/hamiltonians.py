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
        """h0 / sqrt(d) I plus each term's coefficient times its string:
        one scatter adds, in term order, each string's one nonzero per row
        (``pauli_rows``), so every entry sums what a dense sum of the
        terms would, in the same order.  It runs on the float64 view, each
        entry's real and imaginary parts side by side: complex addition
        adds them apart, and numpy's float scatter-add is the faster one."""
        d = 2**self.n
        mat = (self.h0 / np.sqrt(d)) * np.eye(d, dtype=complex)
        if self.terms:
            strings, coeffs = zip(*self.terms)
            positions, phases = _scatter(strings)
            values = (np.array(coeffs)[:, None] * phases).astype(complex)
            np.add.at(mat.reshape(-1).view(float), positions, values.view(float).ravel())
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
def _scatter(strings: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Where ``Hamiltonian._matrix`` adds each string's one nonzero per row
    (``pauli_rows``): the read-only positions of their real and imaginary
    parts in the float64 view of the d x d matrix, and the (strings, d)
    read-only phases.  Kept per strings tuple, so the draws of
    ``random_two_local`` at one width read their strings once."""
    d = 2 ** len(strings[0])
    flips, phases = pauli_rows(strings)
    rows = np.arange(d)
    real = 2 * (rows * d + (rows ^ flips[:, None]))
    positions = np.stack((real, real + 1), axis=-1).ravel()
    for arr in (positions, phases):
        arr.setflags(write=False)
    return positions, phases


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
    Hamiltonian per row: one batched product and trace give the (B,)
    values, each bit for bit the value of its row on its own.  One state
    is the stack of one row.
    """
    if isinstance(rho, DensityMatrix):
        return float(cost([H], rho.data[None])[0])
    if rho.ndim != 3:
        raise DimensionMismatchError(f"states of shape {rho.shape} are not a (B, d, d) stack")
    if isinstance(H, Hamiltonian):
        raise TypeError(f"a stack of {len(rho)} states takes a list of {len(rho)} "
                        "Hamiltonians, one per state, not one Hamiltonian")
    if len(H) != len(rho):
        raise ValueError(f"{len(H)} Hamiltonians for {len(rho)} states")
    check_widths(H, qubit_count(rho.shape[1:]))
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
    strings, and where their matrices scatter (``_scatter``), are read
    once per width.
    """
    if not 2 <= n <= MAX_QUBITS:
        raise SizeError(f"qubit count must be in [2, {MAX_QUBITS}], got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    strings = _two_local(n)
    coeffs = rng.uniform(0.0, 1.0, size=len(strings))
    h = Hamiltonian(n=n, terms=tuple(zip(strings, coeffs)), h0=0.0)
    # shift the ground energy into the identity coordinate, then renormalize
    h0 = -h.ground_energy() * np.sqrt(2**n)
    scale = _hs_norm(n, h0, coeffs)
    return Hamiltonian(n=n, terms=tuple((s, c / scale) for s, c in h.terms), h0=h0 / scale)
