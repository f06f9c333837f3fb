"""Test-only states, checks and circuits: none of these has a caller in the
library."""

import numpy as np

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
