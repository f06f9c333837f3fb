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
from itertools import combinations, product
from math import factorial

import numpy as np

from .pauli import (
    DensityMatrix,
    DimensionMismatchError,
    NiceBasis,
    SizeError,
    _pauli_matrix,
    build_nice_basis,
    to_coherence,
)


@dataclass(frozen=True)
class Hamiltonian:
    """Observable with real Pauli-string coefficients, hence Hermitian."""

    n: int
    terms: tuple[tuple[str, float], ...]  # (letters, coefficient in the P basis)
    h0: float = 0.0  # identity coordinate in the nice basis

    def __post_init__(self):
        for letters, _ in self.terms:
            if len(letters) != self.n:
                raise DimensionMismatchError(
                    f"term {letters!r} has length {len(letters)}, n={self.n}"
                )
            if set(letters) == {"I"}:
                raise ValueError("identity component belongs in h0, not terms")

    @property
    def locality(self) -> int:
        weights = [sum(ch != "I" for ch in s) for s, c in self.terms if c != 0.0]
        return max(weights, default=0)

    def matrix(self) -> np.ndarray:
        """The dense d x d matrix, built once per instance (read-only)."""
        return self._matrix

    @cached_property
    def _matrix(self) -> np.ndarray:
        d = 2**self.n
        mat = (self.h0 / np.sqrt(d)) * np.eye(d, dtype=complex)
        for letters, coeff in self.terms:
            mat = mat + coeff * _pauli_matrix(letters)
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


def h_vector(H: Hamiltonian, basis: NiceBasis) -> tuple[float, np.ndarray]:
    """Coordinates (h0, h) of H in the nice basis: h_j = Tr(F_j H)."""
    if H.n != basis.n:
        raise DimensionMismatchError(f"H has n={H.n}, basis n={basis.n}")
    sqrt_d = np.sqrt(basis.dim)
    coeffs = dict(H.terms)
    h = np.array([sqrt_d * coeffs.get(s, 0.0) for s in basis.strings[1:]])
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


def cost(H: Hamiltonian, rho: DensityMatrix) -> float:
    """Expectation value Tr(H rho)."""
    if H.n != rho.n:
        raise DimensionMismatchError(f"H has n={H.n}, state n={rho.n}")
    val = np.trace(H.matrix() @ rho.data)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary residual {val.imag:.2e}")
    return float(val.real)


def cost_from_coherence(H: Hamiltonian, rho: DensityMatrix) -> float:
    """Same expectation via the split Tr(H)/d + v . h."""
    basis = build_nice_basis(H.n)
    _, h = h_vector(H, basis)
    v = to_coherence(rho, basis).v
    return float(H.trace() / basis.dim + v @ h)


def two_local_strings(n: int, letters: str = "XZ") -> list[str]:
    """All weight-1 and weight-2 strings over the given letter set."""
    out = []
    for weight in (1, 2):
        for positions in combinations(range(n), weight):
            for choice in product(letters, repeat=weight):
                chars = ["I"] * n
                for pos, letter in zip(positions, choice):
                    chars[pos] = letter
                out.append("".join(chars))
    return out


def random_two_local(n: int, seed: int | np.random.Generator) -> Hamiltonian:
    """Random two-local Hamiltonian with X/Z letters, ground energy zero,
    and unit Hilbert-Schmidt norm.

    Every weight-1 and weight-2 string over {X, Z} gets an independent
    uniform [0, 1) magnitude; the spectrum is then shifted so the minimum
    eigenvalue is zero and the whole operator rescaled to unit norm.
    """
    if not 2 <= n <= 9:
        raise SizeError(f"qubit count must be in [2, 9], got {n}")
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
