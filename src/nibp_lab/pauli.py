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

The maps between a state and its Pauli components read every string by its
X-mask x and Z-mask z (a bit per qubit, qubit 0 the most significant): X is
(1, 0), Y (1, 1), Z (0, 1), and P = i^|x&z| X^x Z^z, so P[j^x, j] =
i^|x&z| (-1)^(z.j).  One product with the +-1 Hadamard matrix per X-mask
then turns the d entries rho[j, j^x] into the d components of that X-mask,
or back (Aaronson & Gottesman, arXiv:quant-ph/0406196); ``_mask_tables``
holds the indexes and phases per n.  The strings are then in natural order:
letters I, X, Y, Z = 0..3, string s = sum_q letter_q 4^(n-1-q).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple, Sequence

import numpy as np

MAX_QUBITS = 9
# the width from which ``circuits.evolve`` runs every circuit on Pauli
# components and ``hamiltonians.cost`` sums Tr(H rho) entry by entry: below
# it every output is pinned bit for bit to the density-matrix path and the
# batched product
ENGINE_MIN_QUBITS = 5
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


def _letter_table(letters: str) -> np.ndarray:
    """1 at the ASCII code of each of ``letters``, 0 at every other byte."""
    table = np.zeros(256, dtype=np.int64)
    table[[ord(ch) for ch in letters]] = 1
    return table


_FLIPS = _letter_table("XY")  # the letters that flip their qubit's bit
_SIGNS = _letter_table("YZ")  # the letters that negate a set bit's row
_YS = _letter_table("Y")  # the letters that add a factor -i
_Y_PHASES = np.array([1, -1j, -1, 1j])  # (-i)^k, k the Y count mod 4


def pauli_rows(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The one nonzero per row of each of ``strings`` (n letters each), as
    (flips, phases): row i of string t's matrix holds phases[t, i] at
    column i ^ flips[t] (qubit 0 the most significant bit).  X and Y flip
    their qubit's bit; Y and Z negate the rows whose bit on their qubit is
    set; each Y adds a factor -i.  The letters are read once, as one
    (strings, n) array of their byte codes, and each of the three tables
    is read off it."""
    n = len(strings[0])
    codes = np.frombuffer("".join(strings).encode("ascii"), dtype=np.uint8).reshape(-1, n)
    weights = 2 ** np.arange(n - 1, -1, -1)
    flips, signed = _FLIPS[codes] @ weights, _SIGNS[codes] @ weights
    set_bits = np.arange(2**n) & signed[:, None]
    # bit 0 of the XOR of every shift is the parity of the set bits
    parity = np.zeros_like(set_bits)
    for k in range(n):
        parity ^= set_bits >> k
    ys = _Y_PHASES[_YS[codes].sum(axis=1) % 4]
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


class _MaskTables(NamedTuple):
    """The read-only X/Z-mask tables of the 4^n strings of n qubits (see
    the module docstring), d = 2^n."""

    strings: np.ndarray  # [x, z]: the natural index of the string of X-mask x, Z-mask z
    # [p, x, z]: the real (p = 0) and the imaginary (p = 1) part of its
    # phase i^|x&z|, 0 or +-1
    phases: np.ndarray
    hadamard: np.ndarray  # [j, z]: (-1)^(j.z), a symmetric matrix
    scaled: np.ndarray  # [j, z]: (-1)^(j.z) / d, the Hadamard matrix over d
    # [a, b, p]: p d^2 + (a^b) d + b, where part p of rho[a, b] sits in a
    # flat (p, x, j) table
    density: np.ndarray
    coherence: np.ndarray  # [x, j]: j d + (j^x), the flat place of rho[j, j^x]
    hamming: np.ndarray  # [k]: the natural index of the k-th string of pauli_strings_by_weight(n)


@lru_cache(maxsize=MAX_QUBITS)
def _mask_tables(n: int) -> _MaskTables:
    """The X/Z-mask tables of n qubits, built once per n: 2^(2n) entries
    each, twice that for ``phases`` and ``density`` (18 MiB in all at
    ``MAX_QUBITS``).

    The Hamming order sorts by weight, then by the qubits that carry a
    letter, then by those letters.  Among strings of one weight, the first
    qubit where two sets of lettered qubits differ is in the set that
    comes first, so that set's mask x|z (qubit 0 the most significant bit)
    is the larger; on one set the natural index orders the letters."""
    d = 2**n
    masks = np.arange(d)
    bits = (masks[:, None] >> np.arange(n - 1, -1, -1) & 1).astype(np.int8)  # [mask, qubit]
    # a qubit's letter (I, X, Y, Z = 0..3) from its (x, z) bits
    letters = np.array([[0, 3], [1, 2]], dtype=np.int8)[bits[:, None], bits[None, :]]
    strings = np.ravel_multi_index(tuple(np.moveaxis(letters, -1, 0)), (4,) * n)
    overlap = (bits[:, None] & bits[None, :]).sum(axis=-1, dtype=np.intp)
    lettered = masks[:, None] | masks
    weight = (bits[:, None] | bits[None, :]).sum(axis=-1, dtype=np.intp)
    order = ((weight * d + d - 1 - lettered) * d * d + strings).ravel().argsort()
    real, imag = np.array([1.0, 0.0, -1.0, 0.0]), np.array([0.0, 1.0, 0.0, -1.0])
    hadamard = 1.0 - 2.0 * (overlap % 2)
    density = (masks[:, None] ^ masks) * d + masks
    tables = _MaskTables(
        strings=strings,
        phases=np.stack((real[overlap % 4], imag[overlap % 4])),
        hadamard=hadamard,
        # 1/d is a power of two: the scaling is exact
        scaled=hadamard / d,
        density=np.stack((density, density + d * d), axis=-1),
        coherence=masks * d + (masks[:, None] ^ masks),
        hamming=strings.ravel()[order],
    )
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _density_from_paulis(x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The (B, d, d) stack sum_s x_s P_s / d of a real (B, 4^n) stack of
    natural-order Pauli components x_s = Tr(P_s rho); ``work`` is a float
    scratch of 4 B 4^n entries, which the caller holds.

    One gather lays each row out by (X-mask, Z-mask) and one multiply by
    the phase tables splits it into the parts that the real and the
    imaginary phases carry; one product with the Hadamard matrix over d
    per row and part gives each X-mask's values at j, and one gather puts
    both parts at rho[j^x, j], the real and imaginary parts of the complex
    stack.  The products are batched over rows, so row b is bit for bit
    that row converted alone."""
    batch, size = x.shape
    n = (size.bit_length() - 1) // 2
    d = 2**n
    tables = _mask_tables(n)
    parts, values = work.reshape(2, batch, 2, d, d)
    # the rows laid out by mask sit in the values' scratch until the product
    laid = values.reshape(2, batch, d, d)[0]
    # every index is in range: "clip" only skips the bounds check
    x.take(tables.strings, axis=1, out=laid, mode="clip")
    np.multiply(laid[:, None], tables.phases, out=parts)
    np.matmul(parts, tables.scaled, out=values)
    rho = np.empty((batch, d, d), dtype=complex)
    values.reshape(batch, 2 * d * d).take(
        tables.density, axis=1, out=rho.view(float).reshape(batch, d, d, 2), mode="clip")
    return rho


def _paulis_from_density(rho: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The real natural-order Pauli components x_s = Tr(P_s rho) of a
    complex d x d state, or of each state of a (B, d, d) stack, written
    into ``out`` ((4^n,) or (B, 4^n)) and returned: the inverse of
    ``_density_from_paulis``.

    One gather reads R[x, j] = rho[j, j^x]; the product with the Hadamard
    matrix gives sum_j (-1)^(z.j) R[x, j] at [x, z], whose phase i^|x&z|
    makes it Tr(P rho) for the string of masks (x, z), and one scatter
    puts it at that string's natural index.  The products are batched
    over rows, so row b is bit for bit that row converted alone."""
    d = rho.shape[-1]
    tables = _mask_tables(d.bit_length() - 1)
    r = rho.reshape(rho.shape[:-2] + (d * d,)).take(tables.coherence, axis=-1)
    real, imag = tables.phases
    traces = real * (r.real @ tables.hadamard) - imag * (r.imag @ tables.hadamard)
    # a phase -1 times a zero gives -0.0; adding +0.0 makes every zero +0.0,
    # as the sum over the dense basis did (the ground state's vector keeps its bits)
    traces += 0.0
    out[..., tables.strings] = traces
    return out


def to_coherence(rho: DensityMatrix) -> np.ndarray:
    """Project a state onto the traceless basis elements: the real (d^2 - 1,)
    coherence vector v_j = Tr(F_j rho), in Hamming order, read off its
    Pauli components (``_paulis_from_density``)."""
    d = 2**rho.n
    x = _paulis_from_density(np.asarray(rho.data, dtype=complex), np.empty(d * d))
    return x[_mask_tables(rho.n).hamming[1:]] / np.sqrt(d)


def from_coherence(v: np.ndarray) -> DensityMatrix:
    """Reconstruct rho = I/d + sum_j v_j F_j, n read off len(v) = 4^n - 1;
    rejects non-positive results.

    A norm bound on v is necessary but not sufficient for positivity when
    d > 2, so the reconstructed matrix is always eigenvalue-checked.
    """
    n = coherence_qubit_count(v.shape)
    d = 2**n
    natural = np.empty((1, d * d))
    natural[0, _mask_tables(n).hamming] = np.concatenate(([1.0], np.sqrt(d) * v))
    data = _density_from_paulis(natural, np.empty(4 * natural.size))[0]
    rho = DensityMatrix(data)
    min_eig = float(np.linalg.eigvalsh(data)[0])
    if min_eig < -POSITIVITY_TOL:
        raise InvalidStateError(
            f"coherence vector does not describe a state (min eigenvalue "
            f"{min_eig:.3e})",
            min_eigenvalue=min_eig,
        )
    return rho
