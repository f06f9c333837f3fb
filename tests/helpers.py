"""Test-only states, channels, checks and circuits: none of these has a
caller in the library."""

import numpy as np

from nibp_lab.channels import KrausChannel, validate_kraus
from nibp_lab.circuits import Circuit, ry_gate
from nibp_lab.hamiltonians import Hamiltonian, h_vector
from nibp_lab.pauli import POSITIVITY_TOL, DensityMatrix, InvalidStateError, to_coherence


def single_ry_circuit() -> Circuit:
    """One qubit, one RY gate: the minimal analytic test case."""
    return Circuit(n=1, layers=((ry_gate(0, 1),),))


def maximally_mixed(n: int) -> DensityMatrix:
    d = 2**n
    return DensityMatrix(np.eye(d, dtype=complex) / d)


def random_pure_state(n: int, rng: np.random.Generator) -> DensityMatrix:
    d = 2**n
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return DensityMatrix.from_statevector(psi)


def random_density_matrix(n: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank mixed state from a Wishart-style construction."""
    d = 2**n
    w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    data = w @ w.conj().T
    data /= data.trace()
    return DensityMatrix(data)


def random_unitary_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_channel(n: int, rng: np.random.Generator, kraus_count: int = 2) -> KrausChannel:
    """Random CPTP channel: slice a Haar-random isometry into Kraus blocks."""
    d = 2**n
    z = rng.standard_normal((d * kraus_count, d)) + 1j * rng.standard_normal(
        (d * kraus_count, d)
    )
    q, _ = np.linalg.qr(z)
    ops = tuple(q[i * d : (i + 1) * d, :] for i in range(kraus_count))
    return KrausChannel(ops)


def every_qubit(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """The one-qubit ``channel`` on every qubit of a complex d x d state or
    (B, d, d) stack, qubit 0 first, through the simulator's kernel
    (``KrausChannel._every_qubit``), into a new array."""
    d = rho.shape[-1]
    stack = np.empty((rho.size // (d * d), channel._term_count, d * d), dtype=complex)
    return channel._every_qubit(rho, np.empty_like(rho), stack, channel._width_tables(d))


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
    return KrausChannel(ops)


def validate(rho: DensityMatrix) -> DensityMatrix:
    """Check Hermiticity, unit trace, and positivity within tolerances."""
    herm = np.linalg.norm(rho.data - rho.data.conj().T, np.inf)
    if herm > 1e-10:
        raise InvalidStateError(f"not Hermitian (residual {herm:.2e})")
    tr = abs(rho.data.trace() - 1.0)
    if tr > 1e-10:
        raise InvalidStateError(f"trace deviates from 1 by {tr:.2e}")
    min_eig = float(np.linalg.eigvalsh(rho.data)[0])
    if min_eig < -POSITIVITY_TOL:
        raise InvalidStateError(
            f"negative eigenvalue {min_eig:.3e}", min_eigenvalue=min_eig
        )
    return rho


def purity_identity_check(rho: DensityMatrix) -> tuple[float, float, float]:
    """Return (purity, ||v||, residual) for ||v|| = sqrt(Tr rho^2 - 1/d)."""
    purity = rho.purity()
    vnorm = float(np.linalg.norm(to_coherence(rho)))
    residual = abs(vnorm - np.sqrt(max(purity - 1.0 / 2**rho.n, 0.0)))
    return purity, vnorm, residual


def cost_from_coherence(H: Hamiltonian, rho: DensityMatrix) -> float:
    """The expectation Tr(H rho) via the split Tr(H)/d + v . h."""
    _, h = h_vector(H)
    return float(H.trace() / 2**H.n + to_coherence(rho) @ h)
