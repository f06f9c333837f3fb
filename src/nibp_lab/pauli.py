"""Pauli strings, the normalized Hermitian operator basis, and coherence vectors.

A Pauli string is its letters, e.g. "XIZ", checked by ``check_pauli`` where
it enters.  States are carried in two equivalent forms: a dense density
matrix and a real coherence vector holding the components of the traceless
part of the state in the normalized Pauli basis {P_j / sqrt(d)}.  The qubit
count alone fixes that basis, so no function takes one, and an array's shape
fixes the qubit count, so no function takes n beside an array.  Basis
elements are ordered by Hamming weight (number of non-identity letters);
within a weight class the order is lexicographic in (qubit positions,
letter) with X < Y < Z.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from typing import Sequence

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


def _pauli_product(letters: str) -> np.ndarray:
    """The dense matrix of ``letters``: their one-qubit matrices kron'd left
    to right."""
    mat = _PAULI_1Q[letters[0]]
    for ch in letters[1:]:
        mat = np.kron(mat, _PAULI_1Q[ch])
    return mat


@lru_cache(maxsize=4096)
def _pauli_matrix(letters: str) -> np.ndarray:
    """``_pauli_product``, read-only and kept: the generators of gates and
    named channels."""
    mat = _pauli_product(letters)
    mat.setflags(write=False)
    return mat


_FLIPS = str.maketrans("IXYZ", "0110")  # the letters that flip their qubit's bit
_SIGNS = str.maketrans("IXYZ", "0011")  # the letters that negate a set bit's row


def pauli_rows(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The one nonzero per row of each of ``strings`` (n letters each), as
    (flips, phases): row i of string t's matrix holds phases[t, i] at
    column i ^ flips[t] (qubit 0 the most significant bit).  X and Y flip
    their qubit's bit; Y and Z negate the rows whose bit on their qubit is
    set; each Y adds a factor -i."""
    flips = np.array([int(s.translate(_FLIPS), 2) for s in strings])
    signed = np.array([int(s.translate(_SIGNS), 2) for s in strings])
    n = len(strings[0])
    set_bits = np.arange(2**n) & signed[:, None]
    # bit 0 of the XOR of every shift is the parity of the set bits
    parity = np.zeros_like(set_bits)
    for k in range(n):
        parity ^= set_bits >> k
    ys = np.array([(1, -1j, -1, 1j)[s.count("Y") % 4] for s in strings])
    return flips, np.where(parity & 1, -1.0, 1.0) * ys[:, None]


def qubit_count(shape: tuple[int, ...]) -> int:
    """The n of a 2^n x 2^n shape, n >= 1; any other shape raises DimensionMismatchError."""
    d = shape[0] if len(shape) == 2 and shape[0] == shape[1] else 0
    if d < 2 or d & (d - 1):
        raise DimensionMismatchError(f"shape {shape} is not 2^n x 2^n for any n >= 1")
    return d.bit_length() - 1


def coherence_qubit_count(shape: tuple[int, ...]) -> int:
    """The n of a coherence vector's (4^n - 1,) shape, n >= 1; else DimensionMismatchError."""
    n = (shape[0] + 1).bit_length() // 2 if len(shape) == 1 else 0
    if n < 1 or shape != (4**n - 1,):
        raise DimensionMismatchError(f"shape {shape} is not (4^n - 1,) for any n >= 1")
    return n


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
    # filled string by string and scaled in place, so the build holds one
    # stack and keeps no string's matrix in ``_pauli_matrix``'s cache
    stack = np.empty((4**n, 2**n, 2**n), dtype=complex)
    for i, letters in enumerate(pauli_strings_by_weight(n)):
        stack[i] = _pauli_product(letters)
    stack /= np.sqrt(2**n)
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True)
class DensityMatrix:
    """An n-qubit state as a dense 2^n x 2^n complex matrix, n read off it."""

    data: np.ndarray = field(repr=False)
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", qubit_count(self.data.shape))

    def purity(self) -> float:
        return float(np.real(np.trace(self.data @ self.data)))

    @classmethod
    def from_statevector(cls, psi: np.ndarray) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex).ravel()
        psi = psi / np.linalg.norm(psi)
        return cls(np.outer(psi, psi.conj()))

    @classmethod
    def ground_state(cls, n: int) -> "DensityMatrix":
        psi = np.zeros(2**n, dtype=complex)
        psi[0] = 1.0
        return cls.from_statevector(psi)


def to_coherence(rho: DensityMatrix) -> np.ndarray:
    """Project a state onto the traceless basis elements: the real (d^2 - 1,)
    coherence vector v_j = Tr(F_j rho)."""
    return np.real(np.einsum("jab,ba->j", build_nice_basis(rho.n)[1:], rho.data))


def from_coherence(v: np.ndarray) -> DensityMatrix:
    """Reconstruct rho = I/d + sum_j v_j F_j, n read off len(v) = 4^n - 1;
    rejects non-positive results.

    A norm bound on v is necessary but not sufficient for positivity when
    d > 2, so the reconstructed matrix is always eigenvalue-checked.
    """
    n = coherence_qubit_count(v.shape)
    d = 2**n
    data = np.eye(d, dtype=complex) / d + np.tensordot(v, build_nice_basis(n)[1:], axes=1)
    rho = DensityMatrix(data)
    min_eig = float(np.linalg.eigvalsh(data)[0])
    if min_eig < -POSITIVITY_TOL:
        raise InvalidStateError(
            f"coherence vector does not describe a state (min eigenvalue "
            f"{min_eig:.3e})",
            min_eigenvalue=min_eig,
        )
    return rho

