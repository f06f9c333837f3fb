"""The four benchmark workloads, their checks and their layer probes.

Each workload is a batch job cut into equal rounds.  Round ``k`` of a run
with seed ``s`` draws its inputs from ``round_seed(s, k)``, so the same seed
gives the same inputs, and every round does the same number of work units.

Why these four:

* ``grad_depth``: ``run_experiment`` with the ``layers_sweep`` preset plus
  ``write_csv``, the shape of the depth-suppression sweep (n=3, depolarizing
  p=0.3, L in {2, 6, 12, 24}).  At d=8 the per-call Python overhead and the
  two evolutions per shift-rule derivative dominate, so a batched or adjoint
  gradient engine shows here.
* ``grad_wide``: ``gradient_stats`` at n=6 under amplitude damping, where
  the per-qubit channel einsum and the dense d x d gate products dominate,
  so kernel changes show here and barely on ``grad_depth``.
* ``train_spsa``: SPSA on the final-cost objective, where each evaluation
  depends on the previous one (batch size 1): a batching change should gain
  nothing, and any per-call overhead it adds shows as a loss.
* ``bounds_report``: the affine/bounds path (``affine_rep``,
  ``layer_affine_maps``, ``to_coherence``) with no dense evolution; without
  it the ``channels`` and ``bounds`` layers go unmeasured.

Every output is checked: rounds at the reference seed against the stored
outputs of the seed code (within 1e-12, the CSV byte for byte), and rounds
at any seed against properties that hold whatever the seed (shift rule
against finite differences, the unital depth bound, trace counts, ...).
"""

from __future__ import annotations

import functools
import math
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from nibp_lab import bounds, channels, circuits, experiments, gradients, hamiltonians, spsa

REF_SEED = 0
# rounds at REF_SEED whose outputs are stored; every run recomputes them
REF_ROUNDS = 2
REF_TOL = 1e-12
FD_TOL = 1e-8  # |psr - fd| with fd step 1e-5 at ||H||_HS = 1
BOUND_TOL = 1e-12


def round_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


# inputs of the warm-up, which no round of any run draws
WARM_UP_SEED = int(np.random.SeedSequence([REF_SEED, 0, 1]).generate_state(1)[0])


def close(a: Any, b: Any, tol: float = REF_TOL) -> bool:
    """Nested equality, floats within ``tol`` (NaN equal to NaN)."""
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(close(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k], tol) for k in a)
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= tol
    return a == b


def _draw(seed: int, i: int, t: int, n: int, num_parameters: int):
    """The (H, theta) that ``gradient_stats`` uses for Hamiltonian ``i``,
    angle draw ``t``."""
    rng = np.random.default_rng([seed, i])
    H = hamiltonians.random_two_local(n, rng)
    for _ in range(t + 1):
        theta = rng.uniform(0.0, 2.0 * np.pi, size=num_parameters)
    return H, theta


def _check_derivative(circ, theta, noise, H, loc, lo, hi, cap) -> bool:
    """Shift rule against finite differences, inside [lo, hi] and ``cap``."""
    g = gradients.psr_gradient(circ, theta, noise, H, loc)
    fd = gradients.fd_gradient(circ, theta, noise, H, loc)
    return abs(g - fd) <= FD_TOL and lo <= abs(g) <= hi and abs(g) <= cap


def _stats_ok(mean, var, lo, hi, samples, expected) -> bool:
    return (
        samples == expected and 0.0 <= lo <= mean <= hi
        and 0.0 <= var <= (hi - lo) ** 2 + REF_TOL
    )


class Workload:
    """One workload: set-up, rounds of equal work, checks and probes."""

    name: str
    # (n, L, channel) of the isolated layer probes
    probe_n: int
    probe_L: int

    def setup(self, out_dir: Path) -> None:
        raise NotImplementedError

    def item_units(self) -> list[int]:
        """Work units of each checked item of a round."""
        raise NotImplementedError

    def run_round(self, seed: int) -> Any:
        raise NotImplementedError

    def record(self, out: Any) -> Any:
        """JSON form of a round's outputs, as stored for the reference."""
        raise NotImplementedError

    def compare(self, rec: Any, stored: Any) -> set[int]:
        """Items whose recorded outputs differ from the stored ones."""
        if len(rec) != len(stored):
            return set(range(len(self.item_units())))
        return {i for i, (a, b) in enumerate(zip(rec, stored)) if not close(a, b)}

    def check(self, out: Any, rng: np.random.Generator, deep: bool) -> set[int]:
        """Items that break a seed-independent property; ``deep`` adds the
        sampled shift-rule / finite-difference checks."""
        raise NotImplementedError

    def probe_channel(self) -> channels.KrausChannel:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Fill the library's caches and start the BLAS thread pool."""
        self.run_round(WARM_UP_SEED)


class GradDepth(Workload):
    name = "grad_depth"
    n, p, noise_type = 3, 0.3, "depolarizing"
    L_list = (2, 6, 12, 24)
    instances, thetas = 2, 2
    probe_n, probe_L = 3, 24

    def setup(self, out_dir: Path) -> None:
        self.csv_path = out_dir / "grad_depth.csv"
        self.channel = channels.named_channel(self.noise_type, self.p)
        self.noise = circuits.NoiseSpec.uniform(self.channel)
        self.circuits = {L: circuits.build_two_local(self.n, L) for L in self.L_list}
        self.r = channels.affine_rep(self.channel).operator_norm()
        # one CSV row per distinct default location; at L=2 the middle and
        # last locations coincide and that row pools both sample sets
        per_draw = self.instances * self.thetas
        self.rows = []
        for L in self.L_list:
            locs = gradients.default_locations(self.circuits[L])
            self.rows += [(L, loc, per_draw * locs.count(loc)) for loc in sorted(set(locs))]
        self.rows_per_round = len(self.rows)

    def item_units(self) -> list[int]:
        return [samples for _, _, samples in self.rows]

    def run_round(self, seed: int):
        cfg = experiments.ExperimentConfig(
            preset="layers_sweep", n_list=(self.n,), L_list=self.L_list,
            p_list=(self.p,), noise_type=self.noise_type,
            instances=self.instances, thetas=self.thetas, seed=seed,
        )
        result = experiments.run_experiment(cfg)
        path = experiments.write_csv(result, self.csv_path, force=True)
        return result.rows, path.read_bytes()

    def record(self, out):
        return {"csv": out[1].decode("utf-8")}

    def compare(self, rec, stored):
        # the CSV byte for byte, reported per row; a changed header fails all
        if rec["csv"] == stored["csv"]:
            return set()
        mine = rec["csv"].splitlines()
        ref = stored["csv"].splitlines()
        if len(mine) != len(ref) or mine[0] != ref[0]:
            return set(range(self.rows_per_round))
        diff = {i for i, (a, b) in enumerate(zip(mine[1:], ref[1:])) if a != b}
        return diff or set(range(self.rows_per_round))

    def check(self, out, rng, deep):
        rows, _ = out
        if len(rows) != self.rows_per_round:
            return set(range(self.rows_per_round))
        bad = set()
        for i, (row, (L_exp, loc, expected)) in enumerate(zip(rows, self.rows)):
            n, L, p, nt, layer, slot, mean, var, lo, hi, samples, _, bound = row
            ok = (
                (n, L, p, nt, (layer, slot)) == (self.n, L_exp, self.p, self.noise_type, loc)
                and _stats_ok(mean, var, lo, hi, samples, expected)
                # unital noise: |dC| <= max ||h|| r^L over the sweep's draws
                and hi <= bound + BOUND_TOL
            )
            if not ok:
                bad.add(i)
        if deep:
            i = int(rng.integers(len(rows)))
            n, L, _, _, layer, slot, _, _, lo, hi, _, row_seed, _ = rows[i]
            circ = self.circuits[L]
            H, theta = _draw(row_seed, int(rng.integers(self.instances)),
                             int(rng.integers(self.thetas)), n, circ.num_parameters)
            cap = hamiltonians.h_norm(H) * self.r**L + BOUND_TOL
            if not _check_derivative(circ, theta, self.noise, H, (layer, slot), lo, hi, cap):
                bad.add(i)
        return bad

    def probe_channel(self):
        return self.channel


class GradWide(Workload):
    name = "grad_wide"
    n, L, p = 6, 5, 0.3
    thetas = 4
    probe_n, probe_L = 6, 5

    def setup(self, out_dir: Path) -> None:
        self.channel = channels.amplitude_damping(self.p)
        self.noise = circuits.NoiseSpec.uniform(self.channel)
        self.circ = circuits.build_two_local(self.n, self.L)
        self.loc = (self.L - 1, 0)

    def item_units(self) -> list[int]:
        return [self.thetas]

    def run_round(self, seed: int):
        stats = gradients.gradient_stats(gradients.SweepSpec(
            circuit=self.circ, noise=self.noise, locations=(self.loc,),
            num_hamiltonians=1, thetas_per_hamiltonian=self.thetas, seed=seed,
        ))
        return seed, stats[self.loc]

    def record(self, out):
        s = out[1]
        return [[list(s.location), s.mean_abs, s.variance, s.min, s.max, s.samples]]

    def check(self, out, rng, deep):
        rs, s = out
        ok = tuple(s.location) == self.loc and _stats_ok(
            s.mean_abs, s.variance, s.min, s.max, s.samples, self.thetas
        )
        if ok and deep:
            H, theta = _draw(rs, 0, int(rng.integers(self.thetas)),
                             self.n, self.circ.num_parameters)
            ok = _check_derivative(self.circ, theta, self.noise, H, self.loc,
                                   s.min, s.max, math.inf)
        return set() if ok else {0}

    def probe_channel(self):
        return self.channel


def final_cost_objective(hmat: np.ndarray, circ, noise, theta: np.ndarray) -> float:
    """Tr(H rho(theta)) with H's matrix precomputed, as in the final_cost preset."""
    return float(np.real(np.trace(hmat @ circuits.evolve(circ, theta, noise).data)))


class TrainSpsa(Workload):
    name = "train_spsa"
    n, L, p, maxiter = 3, 5, 0.45, 200
    noise_types = ("depolarizing", "amplitude_damping")
    probe_n, probe_L = 3, 5

    def setup(self, out_dir: Path) -> None:
        self.circ = circuits.build_two_local(self.n, self.L)
        self.noises, self.r = {}, {}
        for nt in self.noise_types:
            rep = channels.affine_rep(channels.named_channel(nt, self.p))
            self.noises[nt] = circuits.NoiseSpec.uniform(channels.named_channel(nt, self.p))
            # the depth bound ||h|| r^L holds under unital noise only
            self.r[nt] = rep.operator_norm() if rep.is_unital() else math.inf

    def item_units(self) -> list[int]:
        return [2 * self.maxiter + 1] * len(self.noise_types)

    def run_round(self, seed: int):
        out = []
        for nt in self.noise_types:
            rng = np.random.default_rng([seed])
            H = hamiltonians.random_two_local(self.n, rng)
            theta0 = rng.uniform(0.0, 2.0 * np.pi, size=self.circ.num_parameters)
            objective = functools.partial(
                final_cost_objective, H.matrix(), self.circ, self.noises[nt]
            )
            trace = spsa.spsa_minimize(
                objective, theta0, spsa.SpsaConfig(maxiter=self.maxiter, seed=seed)
            )
            out.append((nt, H, trace))
        return out

    def record(self, out):
        return [
            {"noise_type": nt, "final_cost": tr.final_cost,
             "evaluations": tr.evaluations, "costs": list(tr.costs)}
            for nt, _, tr in out
        ]

    def check(self, out, rng, deep):
        bad = set()
        for i, (nt, H, tr) in enumerate(out):
            noise = self.noises[nt]
            rho = circuits.evolve(self.circ, tr.final_theta, noise)
            top = float(np.linalg.eigvalsh(H.matrix())[-1])
            ok = (
                tr.evaluations == 2 * self.maxiter + 1
                and not tr.aborted
                and len(tr.costs) == self.maxiter
                and all(math.isfinite(c) for c in tr.costs)
                and abs(hamiltonians.cost(H, rho) - tr.final_cost) <= REF_TOL
                # random_two_local shifts the ground energy to zero
                and -BOUND_TOL <= tr.final_cost <= top + BOUND_TOL
            )
            if ok and deep:
                locs = self.circ.parameterized_locations()
                loc = locs[int(rng.integers(len(locs)))]
                cap = hamiltonians.h_norm(H) * self.r[nt]**self.L + BOUND_TOL
                ok = _check_derivative(self.circ, tr.final_theta, noise, H, loc,
                                       0.0, math.inf, cap)
            if not ok:
                bad.add(i)
        return bad

    def warm_up(self) -> None:
        for nt in self.noise_types:
            objective = functools.partial(
                final_cost_objective, np.eye(2**self.n), self.circ, self.noises[nt]
            )
            spsa.spsa_minimize(objective, np.zeros(self.circ.num_parameters),
                               spsa.SpsaConfig(maxiter=5))

    def probe_channel(self):
        return channels.depolarizing(self.p)


class BoundsReport(Workload):
    name = "bounds_report"
    n, p = 3, 0.3
    L_list = (10, 24)
    noise_types = ("depolarizing", "amplitude_damping")
    # l0_threshold's depth law c * n^Q and locality K, as the CLI defaults
    depth_constant, depth_exponent, locality = 1.0, 2.0, 2
    probe_n, probe_L = 3, 24

    def setup(self, out_dir: Path) -> None:
        self.circuits = {L: circuits.build_two_local(self.n, L) for L in self.L_list}
        self.channels = {nt: channels.named_channel(nt, self.p) for nt in self.noise_types}
        self.noises = {nt: circuits.NoiseSpec.uniform(ch) for nt, ch in self.channels.items()}

    def item_units(self) -> list[int]:
        return [1] * (len(self.L_list) * len(self.noise_types))

    def report(self, L: int, nt: str, H, theta) -> dict:
        circ, channel, noise = self.circuits[L], self.channels[nt], self.noises[nt]
        prof = bounds.contractivity_profile(circ, noise, theta)
        hn = hamiltonians.h_norm(H)
        nils = bounds.nils_interval(H, channel, L, circ=circ, theta=theta)
        d_dot_h = nils.d_L_dot_h
        if nils.unital:
            # nils_interval skips the realized shift when the noise is unital
            _, d_dot_h, _ = bounds.shift_accumulator(circ, noise, theta, L, H)
        t3 = bounds.theorem3_report([channel] * L, max(L - 2, 3))
        return {
            "L": L, "noise_type": nt, "q": list(prof.q),
            "opnorm": list(prof.opnorm), "r": prof.r,
            "nibp_bound": bounds.nibp_bound(hn, prof.r, L),
            "L0": float(bounds.l0_threshold(
                self.depth_constant, self.depth_exponent, self.locality, prof.r)),
            "center": nils.center, "lambda_L": nils.lambda_L,
            "lambda_inf": nils.lambda_inf, "unital": nils.unital,
            "d_L_dot_h": d_dot_h, "t3_applicable": t3.applicable,
            "sigma_max_prefix": t3.sigma_max_prefix, "mu_star": t3.mu_star,
            "sigma_min_suffix": list(t3.sigma_min_suffix),
            "escapes_nibp": t3.escapes_nibp, "d_l": t3.d_l,
            "lower_bound": t3.lower_bound, "p_geometric": t3.p_geometric,
        }

    def run_round(self, seed: int):
        out = []
        for L in self.L_list:
            rng = np.random.default_rng([seed, L])
            theta = rng.uniform(0.0, 2.0 * np.pi, size=self.circuits[L].num_parameters)
            H = hamiltonians.random_two_local(self.n, rng)
            out.extend(self.report(L, nt, H, theta) for nt in self.noise_types)
        return out

    def record(self, out):
        return out

    def check(self, out, rng, deep):
        bad = set()
        for i, rep in enumerate(out):
            unital = rep["noise_type"] == "depolarizing"
            q, op = rep["q"], rep["opnorm"]
            ok = (
                len(q) == len(op) == rep["L"]
                # realized contraction never exceeds the worst case
                and all(a <= b + BOUND_TOL for a, b in zip(q, op))
                and rep["r"] == max(op) < 1.0
                and rep["unital"] == unital
                and rep["L0"] > 0.0
                and rep["t3_applicable"] == (not unital)
            )
            if ok and unital:
                # no shift under unital noise: the limit set is one point
                ok = abs(rep["d_L_dot_h"]) <= BOUND_TOL and rep["lambda_L"] == 0.0
            elif ok:
                ok = (abs(rep["d_L_dot_h"]) <= rep["lambda_L"] + BOUND_TOL
                      and rep["lambda_L"] <= rep["lambda_inf"]
                      and rep["sigma_max_prefix"] <= 1.0)
            if not ok:
                bad.add(i)
        return bad

    def warm_up(self) -> None:
        rng = np.random.default_rng(WARM_UP_SEED)
        L = self.L_list[0]
        theta = rng.uniform(0.0, 2.0 * np.pi, size=self.circuits[L].num_parameters)
        H = hamiltonians.random_two_local(self.n, rng)
        for nt in self.noise_types:
            self.report(L, nt, H, theta)

    def probe_channel(self):
        return self.channels["depolarizing"]


WORKLOADS: dict[str, Callable[[], Workload]] = {
    w.name: w for w in (GradDepth, GradWide, TrainSpsa, BoundsReport)
}


def _median_ms(fn: Callable[[], Any], budget_s: float = 0.3, min_reps: int = 5) -> float:
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return 1e3 * times[len(times) // 2]


def probes(w: Workload) -> dict[str, float]:
    """Single calls timed in isolation at the workload's n, L and channel."""
    n, L, ch = w.probe_n, w.probe_L, w.probe_channel()
    circ = circuits.build_two_local(n, L)
    noise = circuits.NoiseSpec.uniform(ch)
    rng = np.random.default_rng([REF_SEED, 99])
    H = hamiltonians.random_two_local(n, rng)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=circ.num_parameters)
    rho = circuits.evolve(circ, theta, noise)
    # the affine path is capped at n <= 3
    circ3 = circuits.build_two_local(min(n, 3), L)
    theta3 = rng.uniform(0.0, 2.0 * np.pi, size=circ3.num_parameters)
    ch3 = channels.tensor_channel([ch] * 3)
    noisy = _median_ms(lambda: circuits.evolve(circ, theta, noise))
    noiseless = _median_ms(lambda: circuits.evolve(circ, theta, circuits.NoiseSpec.none()))
    return {
        "circuits.probe.evolve_ms": noisy,
        "circuits.probe.evolve_noiseless_ms": noiseless,
        "circuits.channel_frac": 1.0 - noiseless / noisy,
        "hamiltonians.probe.cost_ms": _median_ms(lambda: hamiltonians.cost(H, rho)),
        "gradients.probe.psr_gradient_ms": _median_ms(
            lambda: gradients.psr_gradient(circ, theta, noise, H, (L - 1, 0))),
        "channels.probe.affine_rep_1q_ms": _median_ms(lambda: channels.affine_rep(ch)),
        "channels.probe.affine_rep_3q_ms": _median_ms(lambda: channels.affine_rep(ch3)),
        "bounds.probe.layer_affine_maps_ms": _median_ms(
            lambda: bounds.layer_affine_maps(circ3, theta3, noise)),
    }
