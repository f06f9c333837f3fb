"""Cost-function derivatives under noise via the parameter-shift rule.

The two-point rule 0.5 * [C(theta + pi/2) - C(theta - pi/2)] stays exact
under per-layer CPTP noise and under random-unitary gate noise (every
mixture branch shares the angle).  Under control noise the generator gains
extra Pauli terms, and the derivative becomes a weighted sum of shifted
evaluations, one per generator term, each with the noisy gate replaced by
its fixed unitary times a +-pi/2 rotation about that term; the two-point
rules refuse such a gate and name ``control_noise_gradient``.

``psr_gradient`` differentiates a (B, P) stack of angle rows, each row with
its own location and Hamiltonian, from one evolution of each shifted stack
and one batched ``cost`` of each.  ``gradient_stats`` cuts the rows of all
its Hamiltonians, in draw order, into blocks of bounded memory, so a block
may hold the rows of several Hamiltonians; its statistics are bit for bit
those of one call per sample.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuits import (
    Circuit,
    Gate,
    Location,
    NoiseSpec,
    _rotation,
    evolve,
)
from .hamiltonians import (
    Hamiltonian,
    check_widths,
    cost,
    h_norm,
    h_vector,
    random_two_local,
)
from .pauli import _pauli_matrix, to_coherence

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


def _shifted_pair(theta: np.ndarray, idx, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Copies of the float angles with entry ``idx`` shifted by +delta and
    by -delta; (B, P) rows take one index per row."""
    at = (np.arange(len(theta)), idx) if theta.ndim == 2 else idx
    plus, minus = theta.copy(), theta.copy()
    plus[at] += delta
    minus[at] -= delta
    return plus, minus


def _shift_parameter(circ: Circuit, location: Location) -> int:
    """The parameter the two-point rule shifts at ``location``
    (``Circuit.parameter``); a gate with control noise is refused."""
    if circ.gate_at(location).perturbation:
        raise ValueError(f"gate at {location} has control noise; use control_noise_gradient")
    return circ.parameter(location)


def psr_gradient(
    circ: Circuit,
    theta: np.ndarray,
    noise: NoiseSpec,
    H: Hamiltonian | Sequence[Hamiltonian],
    location: Location | Sequence[Location],
) -> float | np.ndarray:
    """Two-point shift-rule derivative with the full noisy evolution.

    ``theta`` of shape (B, P) gives the (B,) derivatives of its rows, row b
    of ``H[b]`` at ``location[b]`` (or all of one Hamiltonian, or all at
    one location), from one evolution of the B plus-shifted and one of the
    B minus-shifted angle vectors, each reduced to its B costs by one
    batched ``cost``; both (B, d, d) stacks are live at once, so
    ``gradient_stats`` passes rows in bounded blocks.  An empty stack, or
    a list of locations or Hamiltonians of another length than the
    stack, or a Hamiltonian of another width than the circuit, is refused
    before anything is evolved.
    """
    thetas = circ.angle_rows(theta)
    if location and isinstance(location[0], (int, np.integer)):
        location = [location] * len(thetas)
    if len(location) != len(thetas):
        raise ValueError(f"{len(location)} locations for {len(thetas)} angle rows")
    index = {loc: _shift_parameter(circ, loc) for loc in dict.fromkeys(location)}
    if isinstance(H, Hamiltonian):
        H = [H] * len(thetas)
    elif len(H) != len(thetas):
        raise ValueError(f"{len(H)} Hamiltonians for {len(thetas)} angle rows")
    check_widths(H, circ.n)
    plus, minus = _shifted_pair(thetas, [index[loc] for loc in location], np.pi / 2)
    cp = cost(H, evolve(circ, plus, noise))
    cm = cost(H, evolve(circ, minus, noise))
    grads = 0.5 * (cp - cm)
    return float(grads[0]) if np.ndim(theta) == 1 else grads


def fd_gradient(
    circ: Circuit,
    theta: np.ndarray,
    noise: NoiseSpec,
    H: Hamiltonian,
    location: Location,
) -> float:
    """Central finite difference of step FD_STEP, the oracle for the shift rule."""
    theta = circ.angle_row(theta)
    cp, cm = (
        cost(H, evolve(circ, t, noise))
        for t in _shifted_pair(theta, circ.parameter(location), FD_STEP)
    )
    return (cp - cm) / (2.0 * FD_STEP)


def coherence_gradient(
    circ: Circuit,
    theta: np.ndarray,
    noise: NoiseSpec,
    H: Hamiltonian,
    location: Location,
) -> float:
    """|derivative| as half the overlap of (v+ - v-) with h.

    The identity component of H drops out of the difference of the two
    shifted states, so the overlap reproduces the shift-rule value.
    """
    theta = circ.angle_row(theta)
    _, h = h_vector(H)
    vp, vm = (
        to_coherence(evolve(circ, t, noise))
        for t in _shifted_pair(theta, _shift_parameter(circ, location), np.pi / 2)
    )
    return abs(0.5 * float((vp - vm) @ h))


def _evolve_fixed(circ, theta, noise, location, matrix) -> np.ndarray:
    """Final state with the gate at ``location`` replaced by a fixed
    unitary, which takes its angle out of ``theta``."""
    fixed = circ.with_gate(location, Gate(matrix=matrix))
    return evolve(fixed, np.delete(theta, circ.parameter(location)), noise).data


def control_noise_gradient(
    circ: Circuit,
    theta: np.ndarray,
    noise: NoiseSpec,
    H: Hamiltonian,
    location: Location,
) -> tuple[float, float]:
    """Exact derivative and its norm bound for the rotation at ``location``.

    Its generator is P_j + sum_k a_k P_k, the a_k its perturbation (none on
    a plain rotation).  Since the generator commutes with its own
    exponential, the derivative splits into per-term commutators acting on
    the pre-gate state, each realized by replacing the gate with the fixed
    unitary U(theta) R_k(+-pi/2):

        dC/dtheta = 1/2 sum_k (delta_kj + a_k) [C_k(+) - C_k(-)].

    Returns (value, bound) with
    bound = ||h||/2 * (||w_j|| + sum_k |a_k| ||w_k||), where w_k is the
    coherence-vector difference of the two rotated branches and its norm
    is taken as the Frobenius norm of the state difference.
    """
    theta = circ.angle_row(theta)
    gate = circ.gate_at(location)
    if gate.generator is None:
        raise ValueError(f"gate at {location} is not a rotation")
    perturbation = gate.perturbation or ()
    u = gate.unitary(theta[circ.parameter(location)])
    hn = h_norm(H)

    weights: dict[str, float] = {gate.generator: 1.0}
    for letters, coeff in perturbation:
        weights[letters] = weights.get(letters, 0.0) + coeff

    value = 0.0
    w_norms: dict[str, float] = {}
    for letters in weights:
        rp, rm = (
            _evolve_fixed(circ, theta, noise, location, u @ _rotation(_pauli_matrix(letters), s))
            for s in (np.pi / 2, -np.pi / 2)
        )
        diff = rp - rm
        w_norms[letters] = float(np.linalg.norm(diff))
        value += weights[letters] * 0.5 * float(cost([H], diff[None])[0])

    bound = 0.5 * hn * w_norms[gate.generator]
    for letters, coeff in perturbation:
        bound += 0.5 * abs(coeff) * hn * w_norms[letters]
    return value, bound


def random_noise_gradient(
    circ: Circuit,
    theta: np.ndarray,
    noise: NoiseSpec,
    H: Hamiltonian,
    location: Location,
) -> tuple[float, float]:
    """Exact derivative and its bound for the random-unitary mixture at ``location``.

    All mixture branches rotate by the same angle, so the plain two-point
    rule is exact on the mixed channel.  The bound is
    p_j |dC_ideal| + ||h||/2 * sum_{k != j} p_k ||w_k||, dC_ideal taken with
    the intended rotation P_j alone at ``location`` and w_k with a P_k
    rotation there at angles theta +- pi/2.
    """
    theta = circ.angle_row(theta)
    spec = circ.gate_at(location).mixture
    if spec is None:
        raise ValueError(f"gate at {location} is not a random-unitary mixture")
    idx = circ.parameter(location)
    ideal = circ.with_gate(location, Gate(generator=spec.generators[spec.intended]))
    bound = spec.probs[spec.intended] * abs(psr_gradient(ideal, theta, noise, H, location))
    hn = h_norm(H)
    for k, (p_k, letters) in enumerate(zip(spec.probs, spec.generators)):
        if k == spec.intended or p_k == 0.0:
            continue
        rp, rm = (
            _evolve_fixed(circ, theta, noise, location, _rotation(_pauli_matrix(letters), angle))
            for angle in (theta[idx] + np.pi / 2, theta[idx] - np.pi / 2)
        )
        bound += 0.5 * p_k * hn * float(np.linalg.norm(rp - rm))
    return psr_gradient(circ, theta, noise, H, location), bound


@dataclass(frozen=True)
class SweepSpec:
    """Sampling plan for gradient statistics at fixed circuit geometry."""

    circuit: Circuit
    noise: NoiseSpec
    locations: tuple[Location, ...]
    num_hamiltonians: int
    thetas_per_hamiltonian: int
    seed: int


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
    values: dict[Location, list[float]] = {loc: [] for loc in spec.locations}
    h_norms = []

    def samples():
        """(Hamiltonian, angle row, location) per sample, Hamiltonian by
        Hamiltonian, each drawn only when a block reaches it."""
        for i in range(spec.num_hamiltonians):
            rng = np.random.default_rng([spec.seed, i])
            H = random_two_local(circ.n, rng)
            h_norms.append(h_norm(H))
            thetas = rng.uniform(
                0.0, 2.0 * np.pi, size=(spec.thetas_per_hamiltonian, circ.num_parameters)
            )
            for theta in thetas:
                for loc in spec.locations:
                    yield H, theta, loc

    # samples are evolved and reduced to derivatives one block of rows at a
    # time; a block may hold the rows of several Hamiltonians
    step = max(1, _BLOCK_BYTES // (16 * 4**circ.n))
    pending = samples()
    while block := list(itertools.islice(pending, step)):
        hs, rows, locations = zip(*block)
        grads = psr_gradient(circ, np.array(rows), spec.noise, hs, locations)
        for loc, g in zip(locations, grads.tolist()):
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
