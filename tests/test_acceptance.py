"""End-to-end acceptance checks at desk scale.

Each test prints one PASS/FAIL line (run pytest with -s to see them all)
and then asserts, so the suite both reports and gates.
"""

import math

import numpy as np
import pytest

from nibp_lab.bounds import shift_accumulator
from nibp_lab.channels import (
    affine_rep,
    amplitude_damping,
    compose,
    bit_flip,
    depolarizing,
    flip_then_damp,
    random_channel,
    random_nonunital_channel,
    random_unital_channel,
)
from nibp_lab.circuits import (
    Gate,
    NoiseSpec,
    RandomUnitaryNoise,
    build_two_local,
    evolve,
    perturbed_gate,
)
from nibp_lab.experiments import ExperimentConfig, run_experiment, write_csv
from nibp_lab.gradients import (
    control_noise_gradient,
    fd_gradient,
    psr_gradient,
)
from nibp_lab.hamiltonians import cost, h_norm, random_two_local
from nibp_lab.pauli import random_density_matrix, to_coherence
from nibp_lab.spsa import SpsaConfig, spsa_minimize


def _report(idx: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {idx}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_1_affine_representation_oracle():
    rng = np.random.default_rng(100)
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(100):
            ch = random_channel(n, rng, kraus_count=int(rng.integers(2, 4)))
            rep = affine_rep(ch)
            rho = random_density_matrix(n, rng)
            v = to_coherence(rho)
            direct = to_coherence(ch.apply_state(rho))
            worst = max(worst, float(np.abs(rep.apply(v) - direct).max()))
    ok = worst < 1e-10
    _report(1, ok, f"affine vs Kraus, 100 channels per n in 1..3, "
                   f"max residual {worst:.2e} (tol 1e-10)")
    assert ok


def test_criterion_2_reference_channel_values():
    worst = 0.0
    for p in (0.1, 0.36, 0.8):
        rep = affine_rep(amplitude_damping(p))
        s = math.sqrt(1.0 - p)
        worst = max(worst, float(np.abs(rep.M - np.diag([s, s, 1 - p])).max()))
        worst = max(worst, float(np.abs(rep.c_bloch - [0.0, 0.0, p]).max()))
        comp = affine_rep(compose(amplitude_damping(p), bit_flip(0.5)))
        worst = max(worst, float(np.abs(comp.M - np.diag([s, 0.0, 0.0])).max()))
        worst = max(
            worst, float(np.abs(comp.M - affine_rep(flip_then_damp(p)).M).max())
        )
    ok = worst < 1e-12
    _report(2, ok, f"amplitude-damping and composite affine values, "
                   f"max deviation {worst:.2e} (tol 1e-12)")
    assert ok


def test_criterion_3_contraction_lemmas():
    rng = np.random.default_rng(101)
    violations = 0
    for _ in range(200):  # purity never increases under unital maps
        n = int(rng.integers(1, 3))
        ch = random_unital_channel(n, rng)
        rho = random_density_matrix(n, rng)
        if ch.apply_state(rho).purity() > rho.purity() + 1e-10:
            violations += 1
        rep = affine_rep(ch)
        if np.linalg.norm(rep.c) > 1e-9:
            violations += 1
        v = to_coherence(rho)
        if np.linalg.norm(rep.M @ v) > np.linalg.norm(v) + 1e-10:
            violations += 1
    for _ in range(1000):  # non-unital single-qubit maps strictly contract
        rep = affine_rep(random_nonunital_channel(1, rng))
        if rep.operator_norm() >= 1.0:
            violations += 1
    ok = violations == 0
    _report(3, ok, f"purity/unital-contraction/strict-contraction lemmas, "
                   f"{violations} violations over 200+1000 draws")
    assert ok


def test_criterion_4_shift_rule_correctness():
    rng = np.random.default_rng(102)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 4))
        depth = int(rng.integers(2, 4))
        circ = build_two_local(n, depth)
        theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
        loc = (int(rng.integers(0, depth)), int(rng.integers(0, n)))
        H = random_two_local(n, rng)
        model = trial % 4
        if model == 0:
            noise = NoiseSpec.uniform(depolarizing(float(rng.uniform(0.05, 0.6))))
            diff = abs(
                psr_gradient(circ, theta, noise, H, loc)
                - fd_gradient(circ, theta, noise, H, loc)
            )
        elif model == 1:
            noise = NoiseSpec.uniform(
                amplitude_damping(float(rng.uniform(0.05, 0.7)))
            )
            diff = abs(
                psr_gradient(circ, theta, noise, H, loc)
                - fd_gradient(circ, theta, noise, H, loc)
            )
        elif model == 2:
            letters = ["I"] * n
            letters[int(rng.integers(0, n))] = "XYZ"[int(rng.integers(0, 3))]
            a = {"".join(letters): float(rng.uniform(-0.15, 0.15))}
            circ, full = circ.with_gate(loc, perturbed_gate(circ.gate_at(loc), a)), NoiseSpec()
            value, _ = control_noise_gradient(circ, theta, full, H, loc)
            diff = abs(value - fd_gradient(circ, theta, full, H, loc))
        else:
            gen = circ.gate_at(loc).generator
            letters = ["I"] * n
            letters[int(rng.integers(0, n))] = "XYZ"[int(rng.integers(0, 3))]
            spec = RandomUnitaryNoise(
                probs=(0.85, 0.15),
                generators=(gen, "".join(letters)),
                intended=0,
            )
            circ, noise = circ.with_gate(loc, Gate(mixture=spec)), NoiseSpec()
            diff = abs(
                psr_gradient(circ, theta, noise, H, loc)
                - fd_gradient(circ, theta, noise, H, loc)
            )
        worst = max(worst, diff)
    ok = worst < 1e-6
    _report(4, ok, f"shift rule vs finite difference over 200 noisy configs, "
                   f"max |diff| {worst:.2e} (tol 1e-6)")
    assert ok


def _depth_sweep(noise_type, p, depths, num_h=10, num_theta=20, seed=0):
    """mean/max |dC| per (depth, role) for first/middle/last-layer angles,
    plus per-depth max over samples of |dC| - ||h|| r^L."""
    n = 3
    channel = (
        depolarizing(p) if noise_type == "depolarizing" else amplitude_damping(p)
    )
    r = affine_rep(channel).operator_norm()
    noise = NoiseSpec.uniform(channel)
    means: dict[tuple[int, int], float] = {}
    excess: dict[int, float] = {}
    for depth in depths:
        circ = build_two_local(n, depth)
        roles = ((0, 0), (depth // 2, 0), (depth - 1, 0))
        sums = [0.0, 0.0, 0.0]
        count = 0
        worst_excess = -np.inf
        for i in range(num_h):
            rng = np.random.default_rng([seed, depth, i])
            H = random_two_local(n, rng)
            cap = h_norm(H) * r**depth
            thetas = [rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
                      for _ in range(num_theta)]
            # all num_theta x 3 derivatives of H in one call, angle-major
            grads = psr_gradient(circ, np.repeat(thetas, 3, axis=0), noise, H,
                                 roles * num_theta)
            for row in np.abs(grads).reshape(num_theta, 3).tolist():
                for k, g in enumerate(row):
                    sums[k] += g
                    worst_excess = max(worst_excess, g - cap)
                count += 1
        for k in range(3):
            means[(depth, k)] = sums[k] / count
        excess[depth] = worst_excess
    return means, excess, r


def test_criterion_5_depth_suppression_bound():
    depths = list(range(2, 25))
    means, excess, r = _depth_sweep("depolarizing", 0.3, depths)
    bound_ok = all(e <= 1e-9 for e in excess.values())
    slope_limit = -0.8 * math.log10(1.0 / r)
    slopes = []
    for k in range(3):
        y = [math.log10(means[(L, k)]) for L in depths]
        slopes.append(float(np.polyfit(depths, y, 1)[0]))
    slope_ok = all(s <= slope_limit for s in slopes)
    ok = bound_ok and slope_ok
    _report(5, ok, f"depolarizing p=0.3 depth sweep: max excess over bound "
                   f"{max(excess.values()):.2e}, slopes {[f'{s:.3f}' for s in slopes]} "
                   f"vs limit {slope_limit:.3f}")
    assert ok


def test_criterion_6_no_suppression_under_damping():
    depths = (6, 24)
    means, _, r = _depth_sweep("amplitude_damping", 0.3, depths)
    last6 = means[(6, 2)]
    last24 = means[(24, 2)]
    flat_ok = 0.5 <= last24 / last6 <= 2.0
    hmax = max(
        h_norm(random_two_local(3, np.random.default_rng([0, 24, i])))
        for i in range(10)
    )
    cap24 = hmax * r**24
    violation_ok = last24 > cap24
    ok = flat_ok and violation_ok
    _report(6, ok, f"damping p=0.3 last-layer mean: L=6 {last6:.3e}, "
                   f"L=24 {last24:.3e} (ratio {last24 / last6:.2f}), "
                   f"unital-style bound at L=24 {cap24:.3e}")
    assert ok


def _train_mean_final(noise_type):
    n, depth, p = 3, 5, 0.45
    circ = build_two_local(n, depth)
    channel = (
        depolarizing(p) if noise_type == "depolarizing" else amplitude_damping(p)
    )
    noise = NoiseSpec.uniform(channel)
    finals, centers = [], []
    for i in range(10):
        rng = np.random.default_rng([103, 1, i])
        H = random_two_local(n, rng)
        theta0 = np.zeros(circ.num_parameters)
        hmat = H.matrix()

        def objective(theta):
            return float(np.real(np.trace(hmat @ evolve(circ, theta, noise).data)))

        trace = spsa_minimize(
            objective, theta0, SpsaConfig(maxiter=200, seed=i, a=10.0, alpha=0.4)
        )
        finals.append(trace.final_cost)
        centers.append(H.trace() / 2**n)
    return float(np.mean(finals)), float(np.mean(centers))


def test_criterion_7_noise_dependent_training_limit():
    dep_final, dep_center = _train_mean_final("depolarizing")
    ad_final, ad_center = _train_mean_final("amplitude_damping")
    dep_ok = abs(dep_final - dep_center) <= 0.05
    ad_ok = abs(ad_final - ad_center) > 0.05
    ok = dep_ok and ad_ok
    _report(7, ok, f"depolarizing final {dep_final:.4f} vs center {dep_center:.4f} "
                   f"(|diff| {abs(dep_final - dep_center):.4f} <= 0.05); "
                   f"damping final {ad_final:.4f} vs center {ad_center:.4f} "
                   f"(|diff| {abs(ad_final - ad_center):.4f} > 0.05)")
    assert ok


def test_criterion_8_shift_accumulator_bound():
    rng = np.random.default_rng(104)
    violations = 0
    worst_margin = np.inf
    for _ in range(100):
        n = int(rng.integers(2, 4))
        depth = int(rng.integers(2, 13))
        circ = build_two_local(n, depth)
        layers = tuple(
            depolarizing(float(rng.uniform(0.1, 0.5)))
            if rng.random() < 0.5
            else amplitude_damping(float(rng.uniform(0.1, 0.7)))
            for _ in range(depth)
        )
        noise = NoiseSpec(layer_channels=layers)
        theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
        H = random_two_local(n, rng)
        _, d_dot_h, lam = shift_accumulator(circ, noise, theta, depth, H)
        worst_margin = min(worst_margin, lam - abs(d_dot_h))
        if abs(d_dot_h) > lam + 1e-9:
            violations += 1
    ok = violations == 0
    _report(8, ok, f"|d_L . h| <= Lambda_L on 100 mixed-noise circuits, "
                   f"{violations} violations, smallest margin {worst_margin:.3e}")
    assert ok


def test_criterion_9_width_scaling_reference():
    cfg = ExperimentConfig(
        preset="width_scaling",
        n_list=(2, 3, 4, 5, 6),
        L_list=(5,),
        p_list=(0.3,),
        noise_type="amplitude_damping",
        instances=10,
        thetas=20,
        seed=0,
    )
    result = run_experiment(cfg)
    cols = dict(zip(result.columns, zip(*result.rows)))
    ratios = dict(zip(cols["n"], cols["ratio"]))
    ok = all(1.0 / 3.0 <= ratio <= 3.0 for ratio in ratios.values())
    detail = ", ".join(f"n={n}: {ratio:.3f}" for n, ratio in sorted(ratios.items()))
    _report(9, ok, f"mean |dC| over reference ||h||/sqrt((n^2+n)/2), "
                   f"required in [1/3, 3]: {detail}")
    assert ok


def test_criterion_10_deterministic_output(tmp_path):
    cfg = ExperimentConfig(
        preset="noise_sweep",
        n_list=(2,),
        L_list=(3,),
        p_list=(0.1, 0.3),
        instances=2,
        thetas=3,
        seed=5,
    )
    a = write_csv(run_experiment(cfg), tmp_path / "a.csv")
    b = write_csv(run_experiment(cfg), tmp_path / "b.csv")
    ok = a.read_bytes() == b.read_bytes()
    _report(10, ok, "identical config+seed reruns produce byte-identical CSV")
    assert ok
