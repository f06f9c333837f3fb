"""Simultaneous-perturbation stochastic approximation of a noisy cost.

Two cost evaluations per iteration estimate the gradient along a random
Rademacher direction; gain sequences follow the standard Spall schedule.
The step-size constant is calibrated from the first gradient estimate so
the initial update has magnitude about 0.1.  The stability constant A is
0.1 * maxiter, the first perturbation size is 0.1, and the perturbation
decay exponent is Spall's 0.101.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

PERTURBATION = 0.1  # c of the perturbation size c_k = c / (k + 1)^GAMMA
GAMMA = 0.101


@dataclass(frozen=True)
class SpsaConfig:
    maxiter: int = 200
    a: float | None = None  # None: calibrate from the first iteration
    alpha: float = 0.602
    seed: int = 0

    def __post_init__(self):
        if self.maxiter < 1:
            raise ValueError(f"maxiter must be >= 1, got {self.maxiter}")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")


@dataclass(frozen=True)
class TrainTrace:
    costs: tuple[float, ...]  # per-iteration proxy (y+ + y-)/2
    step_sizes: tuple[float, ...]
    final_theta: np.ndarray
    final_cost: float
    evaluations: int
    aborted: bool  # a non-finite objective value ended the run


def spsa_minimize(
    objective: Callable[[np.ndarray], float],
    theta0: np.ndarray,
    cfg: SpsaConfig,
) -> TrainTrace:
    """Minimize a deterministic objective; returns the best-seen iterate.

    Uses 2 evaluations per iteration plus one final evaluation at the best
    point.  A non-finite objective value aborts with the trace so far.
    """
    rng = np.random.default_rng(cfg.seed)
    theta = np.array(theta0, dtype=float)
    big_a = 0.1 * cfg.maxiter
    a = cfg.a

    costs: list[float] = []
    steps: list[float] = []
    evaluations = 0
    best_theta = np.array(theta)
    best_cost = np.inf
    aborted = False

    for k in range(cfg.maxiter):
        c_k = PERTURBATION / (k + 1) ** GAMMA
        delta = rng.integers(0, 2, size=theta.size) * 2.0 - 1.0
        y_plus = float(objective(theta + c_k * delta))
        y_minus = float(objective(theta - c_k * delta))
        evaluations += 2
        if not (np.isfinite(y_plus) and np.isfinite(y_minus)):
            aborted = True
            break
        ghat = (y_plus - y_minus) / (2.0 * c_k) * delta
        if a is None:
            # aim for a first step of magnitude 0.1
            mean_g = float(np.mean(np.abs(ghat)))
            a = 0.1 * (1 + big_a) ** cfg.alpha / max(mean_g, 1e-12)
        a_k = a / (k + 1 + big_a) ** cfg.alpha
        step = a_k * ghat
        theta = theta - step
        proxy = 0.5 * (y_plus + y_minus)
        costs.append(proxy)
        steps.append(float(np.linalg.norm(step)))
        if proxy < best_cost:
            best_cost = proxy
            best_theta = np.array(theta)

    final_cost = float(objective(best_theta))
    evaluations += 1
    return TrainTrace(
        costs=tuple(costs),
        step_sizes=tuple(steps),
        final_theta=best_theta,
        final_cost=final_cost,
        evaluations=evaluations,
        aborted=aborted,
    )
