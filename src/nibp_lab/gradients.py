"""Cost-function derivatives under noise via the parameter-shift rule.

The two-point rule 0.5 * [C(theta + pi/2) - C(theta - pi/2)] stays exact
under per-layer CPTP noise and under random-unitary gate noise (every
mixture branch shares the angle).  Under control noise the generator gains
extra Pauli terms, and the derivative becomes a weighted sum of shifted
evaluations, one per generator term, each with the noisy gate replaced by
its fixed unitary times a +-pi/2 rotation about that term; the two-point
rules refuse such a gate and name ``control_noise_gradient``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .circuits import (
    Circuit,
    Gate,
    Location,
    NoiseSpec,
    RandomUnitaryNoise,
    _gate_runs,
    _rotation,
    evolve,
    perturbed_gate,
)
from .hamiltonians import Hamiltonian, cost, h_norm, h_vector, random_two_local
from .pauli import DensityMatrix, _pauli_matrix, to_coherence

FD_STEP = 1e-5  # fd_gradient's step; the 1e-8 tolerances against the shift rule assume it


@dataclass(frozen=True)
class GradientStats:
    """Statistics of |dC/dtheta| at one gate location, with the ||h|| of
    each Hamiltonian the sweep drew (the same tuple at every location)."""

    location: Location
    mean_abs: float
    variance: float
    min: float
    max: float
    samples: int
    h_norms: tuple[float, ...]


def _shifted_pair(theta, idx, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Copies of the angles with entry ``idx`` shifted by +delta and by
    -delta; (B, P) rows take one index per row."""
    theta = np.asarray(theta, dtype=float)
    at = (np.arange(len(theta)), idx) if theta.ndim == 2 else idx
    plus, minus = theta.copy(), theta.copy()
    plus[at] += delta
    minus[at] -= delta
    return plus, minus


def _check_shift_rule(circ: Circuit, noise: NoiseSpec | None, location: Location) -> None:
    """Refuse a gate the two-point rule cannot differentiate: one without a
    parameter, or one simulated with control noise."""
    if not circ.gate_at(location).is_parameterized:
        raise ValueError(f"gate at {location} carries no parameter")
    index = circ.parameter_index[location]
    for kind, run in _gate_runs(circ, location[0], noise or NoiseSpec.none()):
        if kind == "gate" and run[0] == index and run[1].perturbation:
            raise ValueError(f"gate at {location} has control noise; use control_noise_gradient")


def psr_gradient(
    circ: Circuit,
    theta: np.ndarray,
    noise: NoiseSpec | None,
    H: Hamiltonian,
    location: Location | Sequence[Location],
) -> float | np.ndarray:
    """Two-point shift-rule derivative with the full noisy evolution.

    ``theta`` of shape (B, P) gives the (B,) derivatives of its rows, row b
    at ``location[b]`` (or all at one location), from one evolution of the
    B plus-shifted and one of the B minus-shifted angle vectors; both
    (B, d, d) stacks are live at once, so ``gradient_stats`` passes rows in
    bounded blocks.
    """
    theta = np.asarray(theta, dtype=float)
    thetas = theta[None] if theta.ndim == 1 else theta
    if location and isinstance(location[0], (int, np.integer)):
        location = [location] * len(thetas)
    if len(location) != len(thetas):
        raise ValueError(f"{len(location)} locations for {len(thetas)} angle rows")
    for loc in dict.fromkeys(location):
        _check_shift_rule(circ, noise, loc)
    idx = [circ.parameter_index[loc] for loc in location]
    plus, minus = _shifted_pair(thetas, idx, np.pi / 2)
    cp = _costs(H, evolve(circ, plus, noise))
    cm = _costs(H, evolve(circ, minus, noise))
    grads = 0.5 * (cp - cm)
    return float(grads[0]) if theta.ndim == 1 else grads


def _costs(H: Hamiltonian, rhos: np.ndarray) -> np.ndarray:
    return np.array([cost(H, DensityMatrix(rho)) for rho in rhos])


def fd_gradient(
    circ: Circuit,
    theta: np.ndarray,
    noise: NoiseSpec | None,
    H: Hamiltonian,
    location: Location,
) -> float:
    """Central finite difference of step FD_STEP, the oracle for the shift rule."""
    cp, cm = (
        cost(H, evolve(circ, t, noise))
        for t in _shifted_pair(theta, circ.parameter_index[location], FD_STEP)
    )
    return (cp - cm) / (2.0 * FD_STEP)


def coherence_gradient(
    circ: Circuit,
    theta: np.ndarray,
    noise: NoiseSpec | None,
    H: Hamiltonian,
    location: Location,
) -> float:
    """|derivative| as half the overlap of (v+ - v-) with h.

    The identity component of H drops out of the difference of the two
    shifted states, so the overlap reproduces the shift-rule value.
    """
    _check_shift_rule(circ, noise, location)
    _, h = h_vector(H)
    vp, vm = (
        to_coherence(evolve(circ, t, noise))
        for t in _shifted_pair(theta, circ.parameter_index[location], np.pi / 2)
    )
    return abs(0.5 * float((vp - vm) @ h))


def _evolve_fixed(circ, theta, noise, location, matrix) -> np.ndarray:
    """Final state with the gate at ``location`` replaced by a fixed unitary."""
    return evolve(circ.with_gate(location, Gate(matrix=matrix)), theta, noise).data


def control_noise_gradient(
    circ: Circuit,
    theta: np.ndarray,
    a: Mapping[str, float],
    H: Hamiltonian,
    location: Location,
    noise: NoiseSpec | None = None,
) -> tuple[float, float]:
    """Exact derivative and its norm bound for a coherently perturbed gate.

    The gate at ``location`` has generator P_j + sum_k a_k P_k.  Since the
    generator commutes with its own exponential, the derivative splits into
    per-term commutators acting on the pre-gate state, each realized by
    replacing the gate with the fixed unitary U(theta) R_k(+-pi/2):

        dC/dtheta = 1/2 sum_k (delta_kj + a_k) [C_k(+) - C_k(-)].

    Returns (value, bound) with
    bound = ||h||/2 * (||w_j|| + sum_k |a_k| ||w_k||), where w_k is the
    coherence-vector difference of the two rotated branches and its norm
    is taken as the Frobenius norm of the state difference.
    """
    gate = perturbed_gate(circ.gate_at(location), a)
    u = gate.unitary(theta[circ.parameter_index[location]])
    gen = gate.generator
    hn = h_norm(H)

    weights: dict[str, float] = {gen: 1.0}
    for letters, coeff in a.items():
        weights[letters] = weights.get(letters, 0.0) + float(coeff)

    value = 0.0
    w_norms: dict[str, float] = {}
    for letters in weights:
        p = _pauli_matrix(letters)
        rp, rm = (
            _evolve_fixed(circ, theta, noise, location, u @ _rotation(p, s))
            for s in (np.pi / 2, -np.pi / 2)
        )
        diff = rp - rm
        w_norms[letters] = float(np.linalg.norm(diff))
        value += weights[letters] * 0.5 * float(
            np.real(np.trace(H.matrix() @ diff))
        )

    bound = 0.5 * hn * w_norms[gen]
    for letters, coeff in a.items():
        bound += 0.5 * abs(coeff) * hn * w_norms[letters]
    return value, bound


def random_noise_gradient(
    circ: Circuit,
    theta: np.ndarray,
    spec: RandomUnitaryNoise,
    H: Hamiltonian,
    location: Location,
    noise: NoiseSpec | None = None,
) -> tuple[float, float]:
    """Exact derivative and its bound for a gate replaced by a unitary mixture.

    All mixture branches rotate by the same angle, so the plain two-point
    rule is exact on the mixed channel.  The bound is
    p_j |dC_ideal| + ||h||/2 * sum_{k != j} p_k ||w_k||, where w_k comes
    from replacing the gate by a P_k rotation at angles theta +- pi/2.
    """
    base = noise or NoiseSpec.none()
    full = replace(base, random_unitary={**(base.random_unitary or {}), location: spec})
    idx = circ.parameter_index[location]
    value = psr_gradient(circ, theta, full, H, location)

    # ideal derivative: the same circuit without the mixture at this gate
    ideal_grad = psr_gradient(circ, theta, base, H, location)
    hn = h_norm(H)
    bound = spec.probs[spec.intended] * abs(ideal_grad)
    for k, (p_k, letters) in enumerate(zip(spec.probs, spec.generators)):
        if k == spec.intended or p_k == 0.0:
            continue
        p = _pauli_matrix(letters)
        rp, rm = (
            _evolve_fixed(circ, theta, base, location, _rotation(p, angle))
            for angle in (theta[idx] + np.pi / 2, theta[idx] - np.pi / 2)
        )
        bound += 0.5 * p_k * hn * float(np.linalg.norm(rp - rm))
    return value, bound


@dataclass(frozen=True)
class SweepSpec:
    """Sampling plan for gradient statistics at fixed circuit geometry."""

    circuit: Circuit
    noise: NoiseSpec
    locations: tuple[Location, ...]
    num_hamiltonians: int
    thetas_per_hamiltonian: int
    seed: int
    hamiltonian_factory: Callable[[np.random.Generator], Hamiltonian] | None = None


def default_locations(circ: Circuit) -> tuple[Location, Location, Location]:
    """First, middle, and last layer angle on qubit 0."""
    mid = circ.depth // 2
    return ((0, 0), (mid, 0), (circ.depth - 1, 0))


# gradient_stats evolves at most this many bytes of states per shifted
# stack, so its memory does not grow with the number of angle draws.  At
# n = 5..7 larger blocks were no faster per derivative but held more memory
# (n=6, 60 rows: peak RSS 44.6 MB at this budget, 68.7 MB unblocked).
_BLOCK_BYTES = 1 << 18


def gradient_stats(spec: SweepSpec) -> dict[Location, GradientStats]:
    """|dC/dtheta| statistics over random Hamiltonians and angle draws."""
    if not spec.locations:
        raise ValueError("sweep lists no locations")
    if spec.num_hamiltonians < 1 or spec.thetas_per_hamiltonian < 1:
        raise ValueError("sweep draws no samples")
    circ = spec.circuit
    factory = spec.hamiltonian_factory or (
        lambda rng: random_two_local(circ.n, rng)
    )
    values: dict[Location, list[float]] = {loc: [] for loc in spec.locations}
    # one row per (angle draw, location), angle-major, evolved and reduced
    # to derivatives one block of rows at a time
    locations = list(spec.locations) * spec.thetas_per_hamiltonian
    step = max(1, _BLOCK_BYTES // (16 * 4**circ.n))
    h_norms = []
    for i in range(spec.num_hamiltonians):
        rng = np.random.default_rng([spec.seed, i])
        H = factory(rng)
        h_norms.append(h_norm(H))
        thetas = rng.uniform(
            0.0, 2.0 * np.pi, size=(spec.thetas_per_hamiltonian, circ.num_parameters)
        )
        rows = np.repeat(thetas, len(spec.locations), axis=0)
        for start in range(0, len(rows), step):
            block = slice(start, start + step)
            grads = psr_gradient(circ, rows[block], spec.noise, H, locations[block])
            for loc, g in zip(locations[block], grads.tolist()):
                values[loc].append(abs(g))
    out = {}
    for loc, vals in values.items():
        k = len(vals)
        mean = math.fsum(vals) / k
        var = math.fsum((x - mean) ** 2 for x in vals) / k
        out[loc] = GradientStats(
            location=loc,
            mean_abs=mean,
            variance=var,
            min=min(vals),
            max=max(vals),
            samples=k,
            h_norms=tuple(h_norms),
        )
    return out
