"""Problem Hamiltonians: random two-local generation, nice-basis expansion,
locality norm bound, and cost evaluation.

Term coefficients are stored in the raw Pauli-string basis (H = sum c_P P);
the nice-basis coordinates h_j = Tr(F_j H) = sqrt(d) c_P follow from
P = sqrt(d) F.  The identity component h0 is kept in the nice convention,
so H = h0 F_0 + sum_j h_j F_j and ||H||_HS^2 = h0^2 + ||h||^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True)
class Hamiltonian:
    """Observable with real Pauli-string coefficients, hence Hermitian."""

    n: int
    terms: tuple[tuple[str, float], ...]  # (letters, coefficient in the P basis)
    h0: float = 0.0  # identity coordinate in the nice basis

    def __post_init__(self):
        seen = set()
        for letters, _ in self.terms:
            if set(check_pauli(letters, self.n)) == {"I"}:
                raise ValueError("identity component belongs in h0, not terms")
            if letters in seen:
                raise ValueError(f"Pauli string {letters!r} is listed twice")
            seen.add(letters)

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
        terms would, in the same order."""
        d = 2**self.n
        mat = (self.h0 / np.sqrt(d)) * np.eye(d, dtype=complex)
        if self.terms:
            strings, coeffs = zip(*self.terms)
            flips, phases = pauli_rows(strings)
            rows = np.arange(d)
            np.add.at(mat.reshape(-1), rows * d + (rows ^ flips[:, None]),
                      np.array(coeffs)[:, None] * phases)
        mat.setflags(write=False)
        return mat

    def trace(self) -> float:
        # only the identity component carries trace
        return float(self.h0 * np.sqrt(2**self.n))

    def hs_norm(self) -> float:
        d = 2**self.n
        return float(np.sqrt(self.h0**2 + d * sum(c**2 for _, c in self.terms)))

    def ground_energy(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix())[0])


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
    if len(H) != len(rho):
        raise ValueError(f"{len(H)} Hamiltonians for {len(rho)} states")
    n = qubit_count(rho.shape[1:])
    for h in H:
        if h.n != n:
            raise DimensionMismatchError(f"H has n={h.n}, state n={n}")
    vals = (np.array([h.matrix() for h in H]) @ rho).diagonal(axis1=1, axis2=2).sum(-1)
    for residual in vals.imag.tolist():
        if abs(residual) > 1e-10:
            raise ValueError(f"expectation has imaginary residual {residual:.2e}")
    return vals.real


def two_local_strings(n: int) -> list[str]:
    """All weight-1 and weight-2 strings over the letters X and Z."""
    return strings_of_weight(n, 1, "XZ") + strings_of_weight(n, 2, "XZ")


def random_two_local(n: int, seed: int | np.random.Generator) -> Hamiltonian:
    """Random two-local Hamiltonian with X/Z letters, ground energy zero,
    and unit Hilbert-Schmidt norm.

    Every weight-1 and weight-2 string over {X, Z} gets an independent
    uniform [0, 1) magnitude; the spectrum is then shifted so the minimum
    eigenvalue is zero and the whole operator rescaled to unit norm.
    """
    if not 2 <= n <= MAX_QUBITS:
        raise SizeError(f"qubit count must be in [2, {MAX_QUBITS}], got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    strings = two_local_strings(n)
    coeffs = rng.uniform(0.0, 1.0, size=len(strings))
    h = Hamiltonian(n=n, terms=tuple(zip(strings, coeffs)), h0=0.0)
    # shift the ground energy into the identity coordinate, then renormalize
    sqrt_d = np.sqrt(2**n)
    h0 = -h.ground_energy() * sqrt_d
    shifted = Hamiltonian(n=n, terms=h.terms, h0=h0)
    scale = shifted.hs_norm()
    return Hamiltonian(
        n=n,
        terms=tuple((s, c / scale) for s, c in shifted.terms),
        h0=shifted.h0 / scale,
    )
