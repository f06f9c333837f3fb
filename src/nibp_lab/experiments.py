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
import numbers
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ClassVar, NamedTuple, Sequence

import numpy as np

from . import bounds
from .channels import CONTRACTIVE_MARGIN, KrausChannel, affine_rep, identity_channel
from .circuits import Location, NoiseSpec, build_two_local, evolve
from .gradients import GradientStats, SweepSpec, default_locations, gradient_stats
from .hamiltonians import cost, random_two_local
from .pauli import MAX_QUBITS
from .spsa import SpsaConfig, spsa_minimize

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """A config value that cannot be used; the message names its key."""

    def __init__(self, key: str, problem: str):
        super().__init__(f"config key {key!r}: {problem}")
        self.key = key


def config_value(data: dict, key: str, default, cast, lo=None, hi=None, many=False):
    """``cast(data[key])`` within [lo, hi] (either end may be None), or
    ``default`` as given when the key is missing; a value that fails either
    raises ConfigError naming ``key``.  An int or float key takes a finite
    real number that is neither a bool nor a string, an int key an integral
    one.  ``many=True`` reads one value or a list of them as a tuple."""
    if key not in data:
        return default
    raw = data[key]
    items = raw if many and isinstance(raw, (list, tuple)) else (raw,)
    try:
        if cast in (int, float) and not all(
                isinstance(v, numbers.Real) and not isinstance(v, bool) for v in items):
            raise TypeError(raw)
        values = tuple(cast(v) for v in items)
        if cast in (int, float) and any(not math.isfinite(x) or x != float(v)
                                        for v, x in zip(items, values)):
            raise ValueError(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(key, f"cannot read {raw!r} as {cast.__name__}") from None
    for v in values:
        if not ((lo is None or v >= lo) and (hi is None or v <= hi)):  # NaN fails
            raise ConfigError(key, f"{v!r} outside [{lo}, {hi}]")
    return values if many else values[0]


def read_config(data: dict, keys: dict) -> dict:
    """Each key of a command's table read by ``config_value(data, key,
    *spec)``; a key whose spec is None is the command's to check."""
    return {key: config_value(data, key, *spec) for key, spec in keys.items() if spec}


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

    # each config-file key with its config_value spec; a missing key (None)
    # keeps the field's default.  __post_init__ checks and casts every field,
    # however the config was built, by this table.
    JSON_SPEC: ClassVar[dict] = {
        "preset": (None, str),
        "n": (None, int, 2, MAX_QUBITS, True),
        "L": (None, int, 1, None, True),
        "p": (None, float, 0.0, 1.0, True),
        "noise_type": (None, str),
        **dict.fromkeys(("instances", "thetas", "maxiter"), (None, int, 1)),
        "seed": (None, int, 0),
    }
    FIELDS: ClassVar[dict] = {"n": "n_list", "L": "L_list", "p": "p_list"}

    def __post_init__(self):
        """Reject unusable values with a ConfigError naming the JSON key."""
        if self.preset not in PRESETS:
            raise ConfigError(
                "preset", f"unknown preset {self.preset!r}; choices: {tuple(PRESETS)}")
        if self.L_list is None:
            object.__setattr__(self, "L_list", (PRESETS[self.preset].depth,))
        for key, spec in self.JSON_SPEC.items():
            name = self.FIELDS.get(key, key)
            object.__setattr__(self, name, config_value({key: getattr(self, name)}, key, *spec))
        for key, name in self.FIELDS.items():
            values = getattr(self, name)
            if not values:
                raise ConfigError(key, "sweep list must be nonempty")
            # a repeated n or L would run its cells again with the same seeds
            if key != "p" and len(set(values)) < len(values):
                raise ConfigError(key, f"{values} repeats a value, so its cells would run twice")
        # two p values a seed cannot tell apart would give two cells one seed
        if len(set(map(_p_key, self.p_list))) < len(self.p_list):
            raise ConfigError("p", f"{self.p_list} holds two values that round to one "
                                   "multiple of 1e-4, so their cells would share a seed")
        # a preset runs only the first value of a list it does not sweep
        for key in PRESETS[self.preset].single:
            values = getattr(self, self.FIELDS[key])
            if len(values) > 1:
                raise ConfigError(key, f"{self.preset} runs one value, not {values}")
        # trainability reads gradients up to ceil(log2 n) layers before the last
        deepest = max(math.ceil(math.log2(n)) for n in self.n_list)
        if self.preset == "trainability" and min(self.L_list) <= deepest:
            raise ConfigError("L", f"trainability needs L > ceil(log2 n) = {deepest}")
        config_noise(self.noise_type, self.p_list[0])

    @classmethod
    def from_json(cls, data: dict[str, Any]):
        """The config of a JSON object."""
        if "preset" not in data:
            raise ConfigError("preset", f"missing; choices: {tuple(PRESETS)}")
        values = read_config(data, cls.JSON_SPEC)
        return cls(**{cls.FIELDS.get(k, k): v for k, v in values.items() if v is not None})


@dataclass(frozen=True)
class ExperimentResult:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict[str, Any] = field(default_factory=dict)


def _subseed(root: int, *key: int) -> int:
    """Stable per-grid-point seed independent of iteration order."""
    ss = np.random.SeedSequence((root,) + tuple(key))
    return int(ss.generate_state(1, np.uint32)[0])


def _p_key(p: float) -> int:
    """A noise probability as a seed key: p quantized to 1e-4."""
    return int(round(p * 10_000))


def _cell_seed(root: int, n: int, L: int, p: float) -> int:
    """The seed of one (n, L, p) gradient cell."""
    return _subseed(root, n, L, _p_key(p))


def named_layer_channel(noise: NoiseSpec) -> KrausChannel:
    """The single-qubit channel a ``NoiseSpec.named`` spec applies after
    each layer; the identity for ``none``."""
    return noise.layer_channels or identity_channel()


def sweep_stats(n: int, L: int, noise: NoiseSpec,
                locations: Sequence[Location] | None, instances: int, thetas: int,
                seed: int) -> dict[Location, GradientStats]:
    """``gradient_stats`` of the n-qubit, L-layer two-local ansatz under
    ``noise`` at the given locations (None: ``default_locations``)."""
    circ = build_two_local(n, L)
    if locations is None:
        locations = default_locations(circ)
    return gradient_stats(
        SweepSpec(
            circuit=circ,
            noise=noise,
            locations=tuple(locations),
            num_hamiltonians=instances,
            thetas_per_hamiltonian=thetas,
            seed=seed,
        )
    )


def grad_rows(n, L, noise_type, p, stats, seed) -> list[tuple]:
    """One row of ``GRAD_COLUMNS[:-1]`` per location, in location order."""
    return [
        (n, L, p, noise_type, *loc, s.mean_abs, s.variance, s.min, s.max,
         s.samples, seed)
        for loc, s in sorted(stats.items())
    ]


GRAD_COLUMNS = (
    "n", "L", "p", "noise_type", "layer", "slot", "mean_abs_grad", "var_grad",
    "min", "max", "samples", "seed", "bound",
)


def _cells(cfg: ExperimentConfig, ns, Ls, ps, noise_types=None):
    """Yield the (noise_type, n, L, p, noise) cells of a sweep in row order
    (noise types as given, each once, then n, L, p ascending) and log one
    INFO line as each cell finishes.  ``noise`` is the ``NoiseSpec.named``
    spec of the cell's (noise_type, p), built once per run and shared by
    its cells, so each channel builds its kernel tables once."""
    noise_types = tuple(dict.fromkeys(noise_types or (cfg.noise_type,)))
    noises = {(nt, p): NoiseSpec.named(nt, p) for nt in noise_types for p in ps}
    grid = list(itertools.product(noise_types, sorted(ns), sorted(Ls), sorted(ps)))
    for i, cell in enumerate(grid, start=1):
        start = time.perf_counter()
        yield cell + (noises[cell[0], cell[3]],)
        log.info("%s: cell %d/%d done (noise_type=%s n=%d L=%d p=%r) in %.2f s",
                 cfg.preset, i, len(grid), *cell, time.perf_counter() - start)


def run_grad_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """Gradient statistics at the default locations of each (L, p) cell:
    vs depth at one noise strength (``layers_sweep``) or vs noise strength
    at one depth (``noise_sweep``).  Each row carries the cell's ||h|| r^L
    depth bound: the largest ||h|| the cell drew, and r = ||M|| read once
    per p off the affine map of the cell's layer channel (1 up to rounding
    without noise)."""
    rows, rs = [], {}
    for noise_type, n, L, p, noise in _cells(cfg, cfg.n_list, cfg.L_list, cfg.p_list):
        seed = _cell_seed(cfg.seed, n, L, p)
        stats = sweep_stats(n, L, noise, None, cfg.instances, cfg.thetas, seed)
        if p not in rs:
            rs[p] = affine_rep(named_layer_channel(noise)).operator_norm()
        r = rs[p]
        hmax = max(next(iter(stats.values())).h_norms)
        # the identity channel gives r = 1 - 2e-16: not contracting, no bound
        contracting = r < 1.0 - CONTRACTIVE_MARGIN
        bound = bounds.nibp_bound(hmax, r, L) if contracting else float("nan")
        rows += [row + (bound,) for row in grad_rows(n, L, noise_type, p, stats, seed)]
    return ExperimentResult(columns=GRAD_COLUMNS, rows=tuple(rows))


def train_cell(n: int, L: int, noise: NoiseSpec, maxiter: int, seed: int):
    """(H, SPSA trace) of Tr(H rho(theta)) on the n-qubit, L-layer two-local
    ansatz: H and then theta0 drawn from ``default_rng(seed)``, SPSA run
    with ``seed``."""
    circ = build_two_local(n, L)
    rng = np.random.default_rng(seed)
    H = random_two_local(n, rng)
    theta0 = rng.uniform(0.0, 2.0 * np.pi, size=circ.num_parameters)

    def objective(theta):
        return cost(H, evolve(circ, theta, noise))

    return H, spsa_minimize(objective, theta0, SpsaConfig(maxiter=maxiter, seed=seed))


def run_final_cost(cfg: ExperimentConfig) -> ExperimentResult:
    """Trained final cost vs noise probability, one optimizer run per
    Hamiltonian instance; the center column holds the Tr(H)/d reference."""
    n = cfg.n_list[0]
    L = cfg.L_list[0]
    rows = []
    for *_, p, noise in _cells(cfg, (n,), (L,), cfg.p_list):
        for i in range(cfg.instances):
            seed = _subseed(cfg.seed, n, _p_key(p), i)
            H, trace = train_cell(n, L, noise, cfg.maxiter, seed)
            rows.append(
                (n, L, p, cfg.noise_type, i, trace.final_cost, H.trace() / 2**n, seed)
            )
    return ExperimentResult(
        columns=("n", "L", "p", "noise_type", "instance", "final_cost",
                 "center", "seed"),
        rows=tuple(rows),
    )


def run_width_scaling(cfg: ExperimentConfig) -> ExperimentResult:
    """Last-layer gradient magnitude vs width against the ||h||/sqrt(D)
    concentration reference, D = (n^2 + n)/2."""
    p = cfg.p_list[0]
    L = cfg.L_list[0]
    loc = (L - 1, 0)
    rows = []
    for noise_type, n, _, _, noise in _cells(cfg, cfg.n_list, (L,), (p,)):
        seed = _cell_seed(cfg.seed, n, L, p)
        s = sweep_stats(n, L, noise, (loc,), cfg.instances, cfg.thetas, seed)[loc]
        mean_h = np.mean(s.h_norms)
        reference = float(mean_h / math.sqrt((n * n + n) / 2))
        rows.append(
            (n, L, p, noise_type, *loc, s.mean_abs, s.variance, reference,
             s.mean_abs / reference, s.samples, seed)
        )
    return ExperimentResult(
        columns=("n", "L", "p", "noise_type", "layer", "slot",
                 "mean_abs_grad", "var_grad", "reference", "ratio",
                 "samples", "seed"),
        rows=tuple(rows),
    )


def run_trainability(cfg: ExperimentConfig) -> ExperimentResult:
    """Gradient variance vs width at fixed distances from the last layer,
    for the configured non-unital noise and a depolarizing control (one
    set of cells when the configured noise is depolarizing)."""
    p = cfg.p_list[0]
    L = cfg.L_list[0]
    rows = []
    noise_types = (cfg.noise_type, "depolarizing")
    for noise_type, n, _, _, noise in _cells(cfg, cfg.n_list, (L,), (p,), noise_types):
        distances = sorted({0, math.ceil(math.log2(n)), L // 2})
        locations = [(L - 1 - dist, 0) for dist in distances]
        seed = _cell_seed(cfg.seed, n, L, p)
        stats = sweep_stats(n, L, noise, locations, cfg.instances, cfg.thetas, seed)
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
    )


class Preset(NamedTuple):
    run: Callable[[ExperimentConfig], ExperimentResult]
    depth: int  # L when the config gives none
    x: str  # the plot axes: CSV columns
    y: str
    single: tuple[str, ...]  # the config keys it does not sweep: one value each


PRESETS = {
    "layers_sweep": Preset(run_grad_sweep, 20, "L", "mean_abs_grad", ("n", "p")),
    "noise_sweep": Preset(run_grad_sweep, 20, "p", "mean_abs_grad", ("n", "L")),
    "final_cost": Preset(run_final_cost, 5, "p", "final_cost", ("n", "L")),
    "width_scaling": Preset(run_width_scaling, 10, "n", "mean_abs_grad", ("L", "p")),
    "trainability": Preset(run_trainability, 20, "n", "var_grad", ("L", "p")),
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the config's preset.  Progress goes to this module's logger, one
    INFO line per finished sweep cell; no handler is added."""
    start = time.time()
    result = PRESETS[cfg.preset].run(cfg)
    meta = {"preset": cfg.preset, "seed": cfg.seed, "wall_time_s": time.time() - start}
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
    x_col, y_col = PRESETS[preset].x, PRESETS[preset].y
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
