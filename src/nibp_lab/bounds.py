"""Closed-form bounds and thresholds: contractivity factors, the exponential
gradient-suppression bound with its depth threshold, the limit-set interval
for the cost function, shift accumulators, and the non-unital escape report.

Every bound reads the noise channels' affine maps (M, c) through
``affine_rep``; a channel carries its map, so each is built once, however
many layers, calls or reports read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import KrausChannel, affine_rep
from .circuits import Circuit, NoiseSpec, layer_channel_as_kraus, layer_gate_map
from .hamiltonians import Hamiltonian, h_norm, h_vector
from .pauli import DensityMatrix, to_coherence

SUFFIX_CAP = 3  # theorem3_report: the longest suffix after the bifurcation layer that escapes


def layer_affine_maps(
    circ: Circuit, theta: np.ndarray, noise: NoiseSpec
) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Per layer: (Omega, c, ||M_noise||) for v -> Omega v + c.

    Omega composes the layer's orthogonal gate map (``layer_gate_map``,
    built from local Pauli transfer matrices) with the noise map's affine
    matrix; c is the noise shift (the gates contribute none).  The noise
    map, its read-only c and its norm are the ones its register channel
    carries (``layer_channel_as_kraus``, ``affine_rep``), so layers with
    the same noise share them.  ``noise`` is checked against the circuit,
    and a register beyond ``AFFINE_MAX_QUBITS`` refused, before any map is
    built.
    """
    noise.check(circ)
    out = []
    for layer in range(circ.depth):
        rep = affine_rep(layer_channel_as_kraus(noise, layer, circ.n))
        out.append((rep.M @ layer_gate_map(circ, theta, layer), rep.c, rep.operator_norm()))
    return out


@dataclass(frozen=True)
class ContractivityProfile:
    """Realized and worst-case per-layer contraction factors."""

    q: tuple[float, ...]  # realized ||Omega v|| / ||v|| along the trajectory
    opnorm: tuple[float, ...]  # per-layer ||M||
    r: float  # max opnorm, the factor entering the depth bound


def contractivity_profile(
    circ: Circuit,
    noise: NoiseSpec,
    theta: np.ndarray,
) -> ContractivityProfile:
    v = to_coherence(DensityMatrix.ground_state(circ.n))
    qs, opnorms = [], []
    for omega, c, opnorm in layer_affine_maps(circ, theta, noise):
        rotated = omega @ v
        denom = np.linalg.norm(v)
        qs.append(float(np.linalg.norm(rotated) / denom) if denom > 1e-14 else 0.0)
        opnorms.append(opnorm)
        v = rotated + c
    return ContractivityProfile(
        q=tuple(qs), opnorm=tuple(opnorms), r=max(opnorms)
    )


def nibp_bound(h_norm_val: float, r: float, L: int) -> float:
    """Depth bound ||h|| r^L on the gradient magnitude."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"contraction factor r={r} must lie in [0, 1)")
    return h_norm_val * r**L


def l0_threshold(c: float, Q: float, K: int, r: float):
    """Depth beyond which a K-local cost gradient decays, for circuits whose
    depth grows as c * n^Q.

    For Q > 1 returns L0 = c^(1-Q) * (K/2 / ln(1/r))^(Q/(Q-1)); for Q = 1 the
    threshold degenerates and the boolean condition K < 2 c ln(1/r) is
    returned instead.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"contraction factor r={r} must lie in (0, 1)")
    if c <= 0.0:
        raise ValueError(f"depth constant c={c} must be positive")
    if Q == 1:
        return K < 2.0 * c * np.log(1.0 / r)
    if Q < 1:
        raise ValueError(f"depth exponent Q={Q} must be >= 1")
    return c ** (1.0 - Q) * ((K / 2.0) / np.log(1.0 / r)) ** (Q / (Q - 1.0))


def _lambda_width(hn: float, p: float, dim: int, L: int | None) -> float:
    """Half-width (1-p^L)/(1-p) * ||h|| / sqrt(1-1/d); L=None gives the limit."""
    scale = hn / np.sqrt(1.0 - 1.0 / dim)
    if L is None:
        return scale / (1.0 - p)
    if p > 1.0 - 1e-12:
        return L * scale
    return (1.0 - p**L) / (1.0 - p) * scale


def shift_accumulator(
    circ: Circuit,
    noise: NoiseSpec,
    theta: np.ndarray,
    upto: int,
    H: Hamiltonian,
) -> tuple[np.ndarray, float, float]:
    """Accumulated shift d_j = Omega_j d_{j-1} + c_j through layer ``upto``.

    Returns (d, d.h, Lambda) where Lambda bounds |d.h|; ``upto`` is a
    layer count in 1..``circ.depth``.
    """
    if not 1 <= upto <= circ.depth:
        raise ValueError(f"upto={upto} is not a layer count in 1..{circ.depth}")
    maps = layer_affine_maps(circ, theta, noise)[:upto]
    d = np.zeros(maps[0][0].shape[0])
    for omega, c, _ in maps:
        d = omega @ d + c
    p = max(op for _, _, op in maps)
    lam = _lambda_width(h_norm(H), p, 2**circ.n, upto)
    _, h = h_vector(H)
    return d, float(d @ h), lam


@dataclass(frozen=True)
class NilsInterval:
    """Interval into which the deep-circuit cost concentrates."""

    center: float  # Tr(H)/d
    lambda_L: float
    lambda_inf: float
    unital: bool
    d_L: np.ndarray | None  # the realized shift; None for unital noise
    d_L_dot_h: float | None


def nils_interval(
    H: Hamiltonian,
    channels: KrausChannel | Sequence[KrausChannel],
    L: int,
    circ: Circuit,
    theta: np.ndarray,
) -> NilsInterval:
    """Limit-set interval center +- lambda for a per-layer noise profile,
    with the realized shift d_L of ``circ`` at ``theta``.

    ``channels`` is one channel reused every layer or one per layer; unital
    profiles collapse the interval to the single point Tr(H)/d and skip the
    shift.
    """
    if isinstance(channels, KrausChannel):
        channels = [channels] * L
    reps = [affine_rep(ch) for ch in channels]
    unital = all(rep.is_unital() for rep in reps)
    dim = 2**H.n
    center = H.trace() / dim
    if unital:
        return NilsInterval(
            center=center, lambda_L=0.0, lambda_inf=0.0, unital=True, d_L=None, d_L_dot_h=None
        )
    p = max(rep.operator_norm() for rep in reps)
    if p >= 1.0:
        raise ValueError(f"layer contraction p={p} must be < 1 for a limit set")
    hn = h_norm(H)
    lam_L = _lambda_width(hn, p, dim, L)
    lam_inf = _lambda_width(hn, p, dim, None)
    noise = NoiseSpec(layer_channels=tuple(channels))
    d_L, d_dot_h, _ = shift_accumulator(circ, noise, theta, L, H)
    return NilsInterval(
        center=center,
        lambda_L=lam_L,
        lambda_inf=lam_inf,
        unital=False,
        d_L=d_L,
        d_L_dot_h=d_dot_h,
    )


@dataclass(frozen=True)
class Theorem3Report:
    """Escape conditions for gradient suppression under non-unital noise."""

    applicable: bool
    sigma_max_prefix: float
    mu_star: float
    sigma_min_suffix: tuple[float, ...]
    suffix_length: int
    escapes_nibp: bool
    d_l: float
    lower_bound: float
    p_geometric: float


def _prefix_sum_factor(lam: float, l: int) -> float:
    """(lam - lam^(l-1)) / (1 - lam), the geometric weight of early shifts."""
    if lam >= 1.0:
        raise ValueError("factor defined for lam < 1")
    return (lam - lam ** (l - 1)) / (1.0 - lam)


def theorem3_report(channels: Sequence[KrausChannel], l: int) -> Theorem3Report:
    """Evaluate the no-suppression conditions for a per-layer noise sequence.

    ``l`` is the 1-indexed bifurcation layer.  The threshold mu solves
    (lam - lam^(l-1))/(1 - lam) = ||c_{l-1}|| / max_prefix ||c|| by bisection
    on [0, 1/2]; if even lam = 1/2 stays below the ratio, mu caps at 1/2.
    The escape flag needs the prefix singular values below mu, a strictly
    positive suffix sigma_min, and a suffix no longer than ``SUFFIX_CAP``.
    The rotation separation d_l entering the lower bound is the guaranteed
    shift-norm lower bound at the realized prefix factor.
    """
    L = len(channels)
    if l < 3:
        raise ValueError(f"bifurcation layer l={l} must be >= 3")
    if l > L:
        raise ValueError(f"l={l} exceeds layer count {L}")
    reps = [affine_rep(ch) for ch in channels]
    c_norms = [rep.c_norm for rep in reps]
    if all(rep.is_unital() for rep in reps):
        return Theorem3Report(
            applicable=False,
            sigma_max_prefix=float("nan"),
            mu_star=float("nan"),
            sigma_min_suffix=(),
            suffix_length=L - l,
            escapes_nibp=False,
            d_l=0.0,
            lower_bound=0.0,
            p_geometric=float("nan"),
        )
    applicable = not any(rep.is_unital() for rep in reps)
    svals = [rep.singular_values for rep in reps]  # descending; s[0] is ||M||
    sigma_max_prefix = max(float(s[0]) for s in svals[: l - 1])
    c_tilde = max(c_norms[: l - 1])
    ratio = c_norms[l - 2] / c_tilde if c_tilde > 0 else 0.0

    # bisection on the increasing geometric-weight function
    if _prefix_sum_factor(0.5, l) < ratio:
        mu = 0.5
    else:
        lo, hi = 0.0, 0.5
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if _prefix_sum_factor(mid, l) < ratio:
                lo = mid
            else:
                hi = mid
        mu = 0.5 * (lo + hi)

    sigma_min_suffix = tuple(float(s[-1]) for s in svals[l - 1 :])
    suffix_len = L - l
    escapes = (
        applicable
        and sigma_max_prefix < mu
        and all(s > 1e-12 for s in sigma_min_suffix)
        and suffix_len <= SUFFIX_CAP
    )
    p_geo = float(np.prod([s[0] for s in svals]) ** (1.0 / L))
    d_l = max(
        c_norms[l - 2] - c_tilde * _prefix_sum_factor(sigma_max_prefix, l),
        0.0,
    ) if sigma_max_prefix < 1.0 else 0.0
    lower = float(np.prod(sigma_min_suffix)) * d_l - 2.0 * p_geo**L
    return Theorem3Report(
        applicable=applicable,
        sigma_max_prefix=sigma_max_prefix,
        mu_star=mu,
        sigma_min_suffix=sigma_min_suffix,
        suffix_length=suffix_len,
        escapes_nibp=escapes,
        d_l=float(d_l),
        lower_bound=lower,
        p_geometric=p_geo,
    )
