"""Pauli strings, the normalized Hermitian operator basis, and coherence vectors.

A Pauli string is its letters, e.g. "XIZ", checked by ``check_pauli`` where
it enters.  States are carried in two equivalent forms: a dense density
matrix and a real coherence vector holding the components of the traceless
part of the state in the normalized Pauli basis {P_j / sqrt(d)}.  The qubit
count alone fixes that basis, so no function takes one.  Basis elements are
ordered by Hamming weight (number of non-identity letters); within a weight
class the order is lexicographic in (qubit positions, letter) with
X < Y < Z.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product

import numpy as np

MAX_QUBITS = 9
POSITIVITY_TOL = 1e-9  # most negative eigenvalue a state may have

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


class SizeError(ValueError):
    """Qubit count outside the supported range."""


class DimensionMismatchError(ValueError):
    """Operands act on different numbers of qubits."""


class InvalidStateError(ValueError):
    """A reconstructed or supplied matrix is not a valid density matrix."""

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


@lru_cache(maxsize=4096)
def _pauli_matrix(letters: str) -> np.ndarray:
    mat = _PAULI_1Q[letters[0]]
    for ch in letters[1:]:
        mat = np.kron(mat, _PAULI_1Q[ch])
    mat.setflags(write=False)
    return mat


def check_pauli(letters: str, n: int) -> str:
    """``letters`` if it names an n-qubit Pauli string.  A string of the
    wrong length raises DimensionMismatchError; any other fault raises
    ValueError naming the string."""
    if not isinstance(letters, str) or not letters or not set(letters) <= set("IXYZ"):
        raise ValueError(f"invalid Pauli letters: {letters!r}")
    if len(letters) != n:
        raise DimensionMismatchError(
            f"Pauli string {letters!r} has length {len(letters)}, register has {n} qubits"
        )
    return letters


def hamming_weight(letters: str) -> int:
    """The number of non-identity letters."""
    return len(letters) - letters.count("I")


def strings_of_weight(n: int, weight: int, letters: str) -> list[str]:
    """The length-n strings with ``weight`` letters from ``letters``, the
    rest I, ordered by (qubit positions, letter)."""
    out = []
    for positions in combinations(range(n), weight):
        for choice in product(letters, repeat=weight):
            chars = ["I"] * n
            for pos, letter in zip(positions, choice):
                chars[pos] = letter
            out.append("".join(chars))
    return out


@lru_cache(maxsize=MAX_QUBITS)
def pauli_strings_by_weight(n: int) -> tuple[str, ...]:
    """All length-n Pauli letter strings ordered by Hamming weight."""
    return tuple(s for weight in range(n + 1) for s in strings_of_weight(n, weight, "XYZ"))


@lru_cache(maxsize=MAX_QUBITS)
def build_nice_basis(n: int) -> np.ndarray:
    """The normalized Pauli basis {P_j / sqrt(d)} for n qubits: a read-only
    (4^n, 2^n, 2^n) stack in the order of ``pauli_strings_by_weight(n)``,
    so entry 0 is the scaled identity."""
    if not 1 <= n <= MAX_QUBITS:
        raise SizeError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    stack = np.stack([_pauli_matrix(s) for s in pauli_strings_by_weight(n)]) / np.sqrt(2**n)
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True)
class DensityMatrix:
    """An n-qubit state as a dense d x d complex matrix."""

    n: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = 2**self.n
        if self.data.shape != (d, d):
            raise DimensionMismatchError(
                f"expected shape {(d, d)}, got {self.data.shape}"
            )

    def validate(self) -> "DensityMatrix":
        """Check Hermiticity, unit trace, and positivity within tolerances."""
        herm = np.linalg.norm(self.data - self.data.conj().T, np.inf)
        if herm > 1e-10:
            raise InvalidStateError(f"not Hermitian (residual {herm:.2e})")
        tr = abs(self.data.trace() - 1.0)
        if tr > 1e-10:
            raise InvalidStateError(f"trace deviates from 1 by {tr:.2e}")
        min_eig = float(np.linalg.eigvalsh(self.data)[0])
        if min_eig < -POSITIVITY_TOL:
            raise InvalidStateError(
                f"negative eigenvalue {min_eig:.3e}", min_eigenvalue=min_eig
            )
        return self

    def purity(self) -> float:
        return float(np.real(np.trace(self.data @ self.data)))

    @classmethod
    def from_statevector(cls, psi: np.ndarray) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex).ravel()
        n = int(round(np.log2(psi.size)))
        psi = psi / np.linalg.norm(psi)
        return cls(n=n, data=np.outer(psi, psi.conj()))

    @classmethod
    def ground_state(cls, n: int) -> "DensityMatrix":
        psi = np.zeros(2**n, dtype=complex)
        psi[0] = 1.0
        return cls.from_statevector(psi)

    @classmethod
    def maximally_mixed(cls, n: int) -> "DensityMatrix":
        d = 2**n
        return cls(n=n, data=np.eye(d, dtype=complex) / d)


def to_coherence(rho: DensityMatrix) -> np.ndarray:
    """Project a state onto the traceless basis elements: the real (d^2 - 1,)
    coherence vector v_j = Tr(F_j rho)."""
    return np.real(np.einsum("jab,ba->j", build_nice_basis(rho.n)[1:], rho.data))


def from_coherence(v: np.ndarray, n: int) -> DensityMatrix:
    """Reconstruct the n-qubit rho = I/d + sum_j v_j F_j; rejects
    non-positive results.

    A norm bound on v is necessary but not sufficient for positivity when
    d > 2, so the reconstructed matrix is always eigenvalue-checked.
    """
    stack = build_nice_basis(n)
    if v.shape != (len(stack) - 1,):
        raise DimensionMismatchError(
            f"expected length {len(stack) - 1}, got {v.shape}"
        )
    d = 2**n
    data = np.eye(d, dtype=complex) / d + np.tensordot(v, stack[1:], axes=1)
    rho = DensityMatrix(n=n, data=data)
    min_eig = float(np.linalg.eigvalsh(data)[0])
    if min_eig < -POSITIVITY_TOL:
        raise InvalidStateError(
            f"coherence vector does not describe a state (min eigenvalue "
            f"{min_eig:.3e})",
            min_eigenvalue=min_eig,
        )
    return rho


def purity_identity_check(rho: DensityMatrix) -> tuple[float, float, float]:
    """Return (purity, ||v||, residual) for ||v|| = sqrt(Tr rho^2 - 1/d)."""
    purity = rho.purity()
    vnorm = float(np.linalg.norm(to_coherence(rho)))
    residual = abs(vnorm - np.sqrt(max(purity - 1.0 / 2**rho.n, 0.0)))
    return purity, vnorm, residual


def random_density_matrix(n: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank mixed state from a Wishart-style construction."""
    d = 2**n
    w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    data = w @ w.conj().T
    data /= data.trace()
    return DensityMatrix(n=n, data=data)


def random_pure_state(n: int, rng: np.random.Generator) -> DensityMatrix:
    d = 2**n
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return DensityMatrix.from_statevector(psi)
