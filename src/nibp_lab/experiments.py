"""Preset experiment harness: seeded sweeps over depth, noise strength,
width, and training, written as deterministic CSV plus a plot script.

All randomness descends from one root seed through per-grid-point seed
sequences, so each grid point is reproducible independently of execution
order.  CSV bytes depend only on (config, seed).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import bounds
from .channels import affine_rep, named_channel
from .circuits import NoiseSpec, build_two_local
from .gradients import SweepSpec, default_locations, gradient_stats
from .hamiltonians import cost, h_norm, random_two_local
from .circuits import evolve
from .spsa import SpsaConfig, spsa_minimize

PRESETS = (
    "layers_sweep",
    "noise_sweep",
    "final_cost",
    "width_scaling",
    "trainability",
)

# depth a preset runs at when the config gives none
_DEFAULT_L = {"final_cost": 5, "width_scaling": 10}


def _as_tuple(value, cast) -> tuple:
    if value is None:
        return ()
    if isinstance(value, (list, tuple)):
        return tuple(cast(v) for v in value)
    return (cast(value),)


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str
    n_list: tuple[int, ...] = (3,)
    L_list: tuple[int, ...] | None = None  # None: the preset's default depth
    p_list: tuple[float, ...] = (0.3,)
    noise_type: str = "depolarizing"
    instances: int = 10
    thetas: int = 20
    maxiter: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; choices: {PRESETS}")
        if self.L_list is None:
            object.__setattr__(self, "L_list", (_DEFAULT_L.get(self.preset, 20),))
        if not (self.n_list and self.L_list and self.p_list):
            raise ValueError("sweep lists must be nonempty")
        if self.instances < 1:
            raise ValueError("instances must be >= 1")

    @classmethod
    def from_json(cls, data: dict[str, Any], seed: int | None = None):
        return cls(
            preset=data["preset"],
            n_list=_as_tuple(data.get("n", 3), int),
            L_list=_as_tuple(data["L"], int) if "L" in data else None,
            p_list=_as_tuple(data.get("p", 0.3), float),
            noise_type=data.get("noise_type", "depolarizing"),
            instances=int(data.get("instances", 10)),
            thetas=int(data.get("thetas", 20)),
            maxiter=int(data.get("maxiter", 200)),
            seed=int(data.get("seed", 0) if seed is None else seed),
        )


@dataclass(frozen=True)
class ExperimentResult:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict[str, Any] = field(default_factory=dict)


def _subseed(root: int, *key: int) -> int:
    """Stable per-grid-point seed independent of iteration order."""
    ss = np.random.SeedSequence((root,) + tuple(key))
    return int(ss.generate_state(1, np.uint32)[0])


def _channel_r(noise_type: str, p: float) -> float:
    """||M|| of the single-qubit layer channel."""
    return affine_rep(named_channel(noise_type, p)).operator_norm()


def _max_h_norm(n: int, root_seed: int, instances: int) -> float:
    return max(
        h_norm(random_two_local(n, np.random.default_rng([root_seed, i])))
        for i in range(instances)
    )


def _grad_rows(cfg: ExperimentConfig, n: int, L: int, p: float) -> list[tuple]:
    circ = build_two_local(n, L)
    noise = NoiseSpec.named(cfg.noise_type, p)
    seed = _subseed(cfg.seed, n, L, int(round(p * 10_000)))
    stats = gradient_stats(
        SweepSpec(
            circuit=circ,
            noise=noise,
            locations=default_locations(circ),
            num_hamiltonians=cfg.instances,
            thetas_per_hamiltonian=cfg.thetas,
            seed=seed,
        )
    )
    r = _channel_r(cfg.noise_type, p)
    hmax = _max_h_norm(n, seed, cfg.instances)
    bound = bounds.nibp_bound(hmax, r, L) if r < 1.0 else float("nan")
    rows = []
    for loc in sorted(stats):
        s = stats[loc]
        rows.append(
            (n, L, p, cfg.noise_type, loc[0], loc[1], s.mean_abs, s.variance,
             s.min, s.max, s.samples, seed, bound)
        )
    return rows

_GRAD_COLUMNS = (
    "n", "L", "p", "noise_type", "layer", "slot", "mean_abs_grad", "var_grad",
    "min", "max", "samples", "seed", "bound",
)


def run_layers_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """Gradient statistics vs depth at fixed noise strength."""
    n = cfg.n_list[0]
    p = cfg.p_list[0]
    rows = []
    for L in sorted(cfg.L_list):
        rows.extend(_grad_rows(cfg, n, L, p))
    return ExperimentResult(
        columns=_GRAD_COLUMNS, rows=tuple(rows), metadata={"preset": cfg.preset}
    )


def run_noise_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """Gradient statistics vs noise probability at fixed depth."""
    n = cfg.n_list[0]
    L = cfg.L_list[0]
    rows = []
    for p in sorted(cfg.p_list):
        rows.extend(_grad_rows(cfg, n, L, p))
    return ExperimentResult(
        columns=_GRAD_COLUMNS, rows=tuple(rows), metadata={"preset": cfg.preset}
    )


def run_final_cost(cfg: ExperimentConfig) -> ExperimentResult:
    """Trained final cost vs noise probability, one optimizer run per
    Hamiltonian instance; the center column holds the Tr(H)/d reference."""
    n = cfg.n_list[0]
    L = cfg.L_list[0]
    circ = build_two_local(n, L)
    d = 2**n
    rows = []
    for p in sorted(cfg.p_list):
        noise = NoiseSpec.named(cfg.noise_type, p)
        for i in range(cfg.instances):
            seed = _subseed(cfg.seed, n, int(round(p * 10_000)), i)
            rng = np.random.default_rng([seed])
            H = random_two_local(n, rng)
            theta0 = rng.uniform(0.0, 2.0 * np.pi, size=circ.num_parameters)
            hmat = H.matrix()

            def objective(theta):
                return float(
                    np.real(np.trace(hmat @ evolve(circ, theta, noise).data))
                )

            trace = spsa_minimize(
                objective, theta0, SpsaConfig(maxiter=cfg.maxiter, seed=seed)
            )
            rows.append(
                (n, L, p, cfg.noise_type, i, trace.final_cost,
                 H.trace() / d, seed)
            )
    return ExperimentResult(
        columns=("n", "L", "p", "noise_type", "instance", "final_cost",
                 "center", "seed"),
        rows=tuple(rows),
        metadata={"preset": cfg.preset},
    )


def run_width_scaling(cfg: ExperimentConfig) -> ExperimentResult:
    """Last-layer gradient magnitude vs width against the ||h||/sqrt(D)
    concentration reference, D = (n^2 + n)/2."""
    p = cfg.p_list[0]
    L = cfg.L_list[0]
    noise_type = cfg.noise_type
    rows = []
    for n in sorted(cfg.n_list):
        instances = cfg.instances if n < 5 else max(cfg.instances // 2, 3)
        circ = build_two_local(n, L)
        noise = NoiseSpec.named(noise_type, p)
        seed = _subseed(cfg.seed, n, L, int(round(p * 10_000)))
        loc = (L - 1, 0)
        stats = gradient_stats(
            SweepSpec(
                circuit=circ,
                noise=noise,
                locations=(loc,),
                num_hamiltonians=instances,
                thetas_per_hamiltonian=cfg.thetas,
                seed=seed,
            )
        )[loc]
        big_d = (n * n + n) / 2
        mean_h = np.mean(
            [
                h_norm(random_two_local(n, np.random.default_rng([seed, i])))
                for i in range(instances)
            ]
        )
        reference = float(mean_h / math.sqrt(big_d))
        rows.append(
            (n, L, p, noise_type, loc[0], loc[1], stats.mean_abs,
             stats.variance, reference, stats.mean_abs / reference,
             stats.samples, seed)
        )
    return ExperimentResult(
        columns=("n", "L", "p", "noise_type", "layer", "slot",
                 "mean_abs_grad", "var_grad", "reference", "ratio",
                 "samples", "seed"),
        rows=tuple(rows),
        metadata={"preset": cfg.preset},
    )


def run_trainability(cfg: ExperimentConfig) -> ExperimentResult:
    """Gradient variance vs width at fixed distances from the last layer,
    for the configured non-unital noise and a depolarizing control."""
    p = cfg.p_list[0]
    L = cfg.L_list[0]
    rows = []
    for noise_type in (cfg.noise_type, "depolarizing"):
        for n in sorted(cfg.n_list):
            circ = build_two_local(n, L)
            noise = NoiseSpec.named(noise_type, p)
            distances = sorted({0, math.ceil(math.log2(n)), L // 2})
            locations = tuple((L - 1 - dist, 0) for dist in distances)
            seed = _subseed(cfg.seed, n, L, int(round(p * 10_000)))
            stats = gradient_stats(
                SweepSpec(
                    circuit=circ,
                    noise=noise,
                    locations=locations,
                    num_hamiltonians=cfg.instances,
                    thetas_per_hamiltonian=cfg.thetas,
                    seed=seed,
                )
            )
            for dist, loc in zip(distances, locations):
                s = stats[loc]
                rows.append(
                    (n, L, p, noise_type, dist, loc[0], s.variance,
                     s.mean_abs, s.samples, seed)
                )
    return ExperimentResult(
        columns=("n", "L", "p", "noise_type", "suffix_distance", "layer",
                 "var_grad", "mean_abs_grad", "samples", "seed"),
        rows=tuple(rows),
        metadata={"preset": cfg.preset},
    )


_RUNNERS = {
    "layers_sweep": run_layers_sweep,
    "noise_sweep": run_noise_sweep,
    "final_cost": run_final_cost,
    "width_scaling": run_width_scaling,
    "trainability": run_trainability,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    start = time.time()
    result = _RUNNERS[cfg.preset](cfg)
    meta = dict(result.metadata)
    meta.update(seed=cfg.seed, wall_time_s=time.time() - start)
    return ExperimentResult(columns=result.columns, rows=result.rows, metadata=meta)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_text(path: str | Path, text: str, force: bool) -> Path:
    """Write one output file; refuse to overwrite it unless forced."""
    path = Path(path)
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass force (--force) to overwrite")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def write_csv(result: ExperimentResult, path: str | Path, force: bool = False) -> Path:
    """Deterministic CSV: repr-formatted floats, str-formatted everything
    else, no timestamps; refuse to overwrite unless forced."""
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_format_cell(v) for v in row))
    return _write_text(path, "\n".join(lines) + "\n", force)


def emit_plot_script(
    csv_path: str | Path, preset: str, out_path: str | Path, force: bool = False
) -> Path:
    """Write a small matplotlib script that renders the CSV like the
    corresponding figure (log10 y-axis for gradient sweeps)."""
    csv_path = Path(csv_path)
    x_col = {
        "layers_sweep": "L",
        "noise_sweep": "p",
        "final_cost": "p",
        "width_scaling": "n",
        "trainability": "n",
    }[preset]
    y_col = {
        "layers_sweep": "mean_abs_grad",
        "noise_sweep": "mean_abs_grad",
        "final_cost": "final_cost",
        "width_scaling": "mean_abs_grad",
        "trainability": "var_grad",
    }[preset]
    log_y = preset != "final_cost"
    script = f'''"""Render {preset} results from {csv_path.name}."""
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

groups = defaultdict(list)
with open({str(csv_path)!r}, newline="") as fh:
    for row in csv.DictReader(fh):
        key_parts = [row["noise_type"]]
        if "layer" in row:
            key_parts.append("layer " + row["layer"])
        groups[" / ".join(key_parts)].append(
            (float(row[{x_col!r}]), float(row[{y_col!r}]))
        )

fig, ax = plt.subplots()
for label, pts in sorted(groups.items()):
    pts.sort()
    ax.plot([x for x, _ in pts], [y for _, y in pts], "o-", label=label)
ax.set_xlabel({x_col!r})
ax.set_ylabel({y_col!r})
{"ax.set_yscale('log')" if log_y else "pass"}
ax.legend()
fig.savefig("{preset}.png", dpi=150)
'''
    return _write_text(out_path, script, force)
