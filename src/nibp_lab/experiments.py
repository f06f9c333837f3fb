"""Preset experiment harness: seeded sweeps over depth, noise strength,
width, and training, written as deterministic CSV plus a plot script.

All randomness descends from one root seed through per-grid-point seed
sequences, so each grid point is reproducible independently of execution
order.  CSV bytes depend only on (config, seed).
"""

from __future__ import annotations

import itertools
import logging
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar, Sequence

import numpy as np

from . import bounds
from .channels import CONTRACTIVE_MARGIN, affine_rep, identity_channel
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

log = logging.getLogger(__name__)

# depth a preset runs at when the config gives none
_DEFAULT_L = {"final_cost": 5, "width_scaling": 10}


class ConfigError(ValueError):
    """A config value that cannot be used; the message names its key."""

    def __init__(self, key: str, problem: str):
        super().__init__(f"config key {key!r}: {problem}")
        self.key = key


def config_value(data: dict, key: str, default, cast, lo=None, hi=None, many=False):
    """``cast(data.get(key, default))`` within [lo, hi] (either end may be
    None); a value that fails either raises ConfigError naming ``key``.
    ``many=True`` reads one value or a list of them as a tuple."""
    raw = data.get(key, default)
    items = raw if many and isinstance(raw, (list, tuple)) else (raw,)
    try:
        values = tuple(cast(v) for v in items)
    except (TypeError, ValueError):
        raise ConfigError(key, f"cannot read {raw!r} as {cast.__name__}") from None
    _check_range(key, values, lo, hi)
    return values if many else values[0]


def _check_range(key: str, values: tuple, lo, hi) -> None:
    for v in values:
        if lo is not None and v < lo or hi is not None and v > hi:
            raise ConfigError(key, f"{v!r} outside [{lo}, {hi}]")


def config_noise(noise_type, p: float) -> NoiseSpec:
    """``NoiseSpec.named``; an unknown name raises ConfigError for
    ``noise_type``."""
    try:
        return NoiseSpec.named(noise_type, p)
    except KeyError as exc:
        raise ConfigError("noise_type", f"{exc.args[0]}, or 'none'") from None


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

    # the config-file keys ``from_json`` reads
    JSON_KEYS: ClassVar[frozenset[str]] = frozenset(
        {"preset", "n", "L", "p", "noise_type", "instances", "thetas",
         "maxiter", "seed"}
    )

    def __post_init__(self):
        """Reject unusable values with a ConfigError naming the JSON key."""
        if self.preset not in PRESETS:
            raise ConfigError("preset", f"unknown preset {self.preset!r}; choices: {PRESETS}")
        if self.L_list is None:
            object.__setattr__(self, "L_list", (_DEFAULT_L.get(self.preset, 20),))
        for key, values in (("n", self.n_list), ("L", self.L_list), ("p", self.p_list)):
            if not values:
                raise ConfigError(key, "sweep list must be nonempty")
        _check_range("n", self.n_list, 2, None)
        _check_range("L", self.L_list, 1, None)
        _check_range("p", self.p_list, 0.0, 1.0)
        # trainability reads gradients up to ceil(log2 n) layers before the last
        deepest = max(math.ceil(math.log2(n)) for n in self.n_list)
        if self.preset == "trainability" and min(self.L_list) <= deepest:
            raise ConfigError("L", f"trainability needs L > ceil(log2 n) = {deepest}")
        _check_range("instances", (self.instances,), 1, None)
        _check_range("thetas", (self.thetas,), 1, None)
        _check_range("maxiter", (self.maxiter,), 1, None)
        config_noise(self.noise_type, self.p_list[0])

    @classmethod
    def from_json(cls, data: dict[str, Any], seed: int | None = None):
        if "preset" not in data:
            raise ConfigError("preset", f"missing; choices: {PRESETS}")
        return cls(
            preset=data["preset"],
            n_list=config_value(data, "n", 3, int, many=True),
            L_list=config_value(data, "L", None, int, many=True) if "L" in data else None,
            p_list=config_value(data, "p", 0.3, float, many=True),
            noise_type=data.get("noise_type", "depolarizing"),
            instances=config_value(data, "instances", 10, int),
            thetas=config_value(data, "thetas", 20, int),
            maxiter=config_value(data, "maxiter", 200, int),
            seed=config_value(data, "seed", 0, int) if seed is None else int(seed),
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
    """||M|| of the single-qubit layer channel (1 up to rounding without
    noise)."""
    channel = NoiseSpec.named(noise_type, p).layer_channels or identity_channel()
    return affine_rep(channel).operator_norm()


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
    # the identity channel gives r = 1 - 2e-16: not contracting, no bound
    contracting = r < 1.0 - CONTRACTIVE_MARGIN
    bound = bounds.nibp_bound(hmax, r, L) if contracting else float("nan")
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


def _cells(cfg: ExperimentConfig, ns, Ls, ps, noise_types=None):
    """Yield the (noise_type, n, L, p) cells of a sweep in row order (noise
    types as given, then n, L, p ascending) and log one INFO line as each
    cell finishes."""
    grid = list(itertools.product(
        noise_types or (cfg.noise_type,), sorted(ns), sorted(Ls), sorted(ps)))
    for i, cell in enumerate(grid, start=1):
        start = time.perf_counter()
        yield cell
        log.info("%s: cell %d/%d done (noise_type=%s n=%d L=%d p=%r) in %.2f s",
                 cfg.preset, i, len(grid), *cell, time.perf_counter() - start)


def run_layers_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """Gradient statistics vs depth at fixed noise strength."""
    rows = []
    for _, n, L, p in _cells(cfg, cfg.n_list[:1], cfg.L_list, cfg.p_list[:1]):
        rows.extend(_grad_rows(cfg, n, L, p))
    return ExperimentResult(
        columns=_GRAD_COLUMNS, rows=tuple(rows), metadata={"preset": cfg.preset}
    )


def run_noise_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """Gradient statistics vs noise probability at fixed depth."""
    rows = []
    for _, n, L, p in _cells(cfg, cfg.n_list[:1], cfg.L_list[:1], cfg.p_list):
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
    for *_, p in _cells(cfg, (n,), (L,), cfg.p_list):
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
    for _, n, _, _ in _cells(cfg, cfg.n_list, (L,), (p,)):
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
    noise_types = (cfg.noise_type, "depolarizing")
    for noise_type, n, _, _ in _cells(cfg, cfg.n_list, (L,), (p,), noise_types):
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
    """Run the config's preset.  Progress goes to this module's logger, one
    INFO line per finished sweep cell; no handler is added."""
    start = time.time()
    result = _RUNNERS[cfg.preset](cfg)
    meta = dict(result.metadata)
    meta.update(seed=cfg.seed, wall_time_s=time.time() - start)
    return ExperimentResult(columns=result.columns, rows=result.rows, metadata=meta)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _refuse_overwrite(paths: Sequence[str | Path], force: bool) -> None:
    """Raise FileExistsError for the first existing path unless forced; a
    command with several outputs checks them all before writing any."""
    for path in paths:
        if Path(path).exists() and not force:
            raise FileExistsError(f"{path} exists; pass force (--force) to overwrite")


def _write_text(path: str | Path, text: str, force: bool) -> Path:
    """Write one output file; refuse to overwrite it unless forced."""
    path = Path(path)
    _refuse_overwrite([path], force)
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
    corresponding figure (log10 y-axis for gradient sweeps).

    The script finds the CSV relative to its own location and saves
    ``<preset>.png`` beside itself, so it keeps working when the output
    directory moves.
    """
    csv_path = Path(csv_path)
    csv_rel = Path(os.path.relpath(csv_path, Path(out_path).parent)).as_posix()
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
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
groups = defaultdict(list)
with open(here / {csv_rel!r}, newline="") as fh:
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
fig.savefig(here / "{preset}.png", dpi=150)
'''
    return _write_text(out_path, script, force)
