"""Command-line entry point.

Usage: nibp-lab <subcommand> --config <file.json> --out <dir> [--seed N] [--force]

Subcommands: channel (inspect a channel's affine data), grad-scan (gradient
statistics CSV), bound-report (bounds and thresholds JSON), train (one SPSA
run CSV), experiment (preset sweeps with CSV and plot script).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds
from .channels import (
    AFFINE_MAX_QUBITS,
    KrausChannel,
    affine_rep,
    classify,
    named_channel,
    validate_kraus,
)
from .circuits import build_two_local
from .experiments import (
    GRAD_COLUMNS,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    _refuse_overwrite,
    _write_text,
    config_noise,
    config_value,
    emit_plot_script,
    grad_rows,
    named_layer_channel,
    read_config,
    run_experiment,
    sweep_stats,
    train_cell,
    write_csv,
)
from .hamiltonians import h_norm, random_two_local
from .pauli import MAX_QUBITS

# Each subcommand's config keys, each with its config_value spec (default,
# cast, lo, hi) or None for a key the command checks itself.
_SHARED = {"n": (3, int, 2, MAX_QUBITS), "p": (0.3, float, 0.0, 1.0),
           "noise_type": ("depolarizing", str), "seed": (0, int, 0)}
_CHANNEL = {"name": (None, str), "p": (0.0, float, 0.0, 1.0), "kraus": None,
            "n": (None, int, 1)}
_GRAD_SCAN = {**_SHARED, "L": (20, int, 1), "instances": (10, int, 1),
              "thetas": (20, int, 1), "locations": None}
# bifurcation_layer's range depends on L
_BOUND_REPORT = {**_SHARED, "n": (3, int, 2, AFFINE_MAX_QUBITS), "L": (10, int, 1),
                 "depth_constant": (1.0, float), "depth_exponent": (2.0, float, 1.0),
                 "locality": (2, int, 1), "bifurcation_layer": None}
_TRAIN = {**_SHARED, "p": (0.0, float, 0.0, 1.0), "noise_type": ("none", str),
          "L": (5, int, 1), "maxiter": (200, int, 1)}


def _write_json(data, path: Path, force: bool) -> None:
    _write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n", force)


def kraus_from_json(data: dict) -> KrausChannel:
    """Channel from {name, p} or explicit {kraus: [[[re, im], ...], ...], n}.

    Explicit matrices are row-major lists of [re, im] pairs; they fix the
    qubit count, and an ``n`` that disagrees with them is refused.  A config
    that gives no channel, or a key the other form reads, raises ConfigError
    naming the key at fault.
    """
    values = read_config(data, _CHANNEL)
    form = ("kraus", "n") if values["name"] is None else ("name", "p")
    ignored = sorted(set(data) - set(form))
    if ignored:
        raise ConfigError(ignored[0], f"not read with {form[0]!r}; give name and p, or kraus and n")
    if values["name"] is not None:
        try:
            return named_channel(values["name"], values["p"])
        except KeyError as exc:
            raise ConfigError("name", exc.args[0]) from None
    if "kraus" not in data:
        raise ConfigError("kraus", "missing; give a channel name or Kraus matrices")
    try:
        ops = []
        for mat in data["kraus"]:
            arr = np.array(mat, dtype=float)
            ops.append(arr[..., 0] + 1j * arr[..., 1])
        channel = KrausChannel(tuple(ops))
    except (IndexError, TypeError, ValueError) as exc:
        raise ConfigError("kraus", f"not Kraus matrices of [re, im] pairs ({exc})") from None
    if values["n"] not in (None, channel.n):
        raise ConfigError("n", f"{values['n']} disagrees with the {channel.n}-qubit Kraus matrices")
    return channel


def cmd_channel(cfg: dict, out: Path, force: bool) -> None:
    ch = kraus_from_json(cfg)
    try:
        rep = affine_rep(ch)
    except ValueError as exc:  # too many qubits, or not trace preserving
        raise ConfigError("kraus", str(exc)) from None
    report = validate_kraus(ch)
    _write_json(
        {
            "M": rep.M.tolist(),
            "c_nice": rep.c.tolist(),
            "c_bloch": rep.c_bloch.tolist(),
            "singular_values": rep.singular_values.tolist(),
            "class": classify(rep),
            "operator_norm": rep.operator_norm(),
            "residuals": {
                "trace_preservation": report.tp_residual,
                "unitality": report.unital_residual,
            },
        },
        out / "channel.json",
        force,
    )


def cmd_grad_scan(cfg: dict, out: Path, force: bool) -> None:
    v = read_config(cfg, _GRAD_SCAN)
    n, depth, noise_type, p = v["n"], v["L"], v["noise_type"], v["p"]
    noise = config_noise(noise_type, p)  # an unknown noise_type fails before any work
    locations = None  # the default locations, which repeat (1, 0) at L=2
    if "locations" in cfg:
        raw = cfg["locations"]
        # type(i) is int: a bool is not a layer or a slot
        if not isinstance(raw, list) or not all(isinstance(loc, list) and len(loc) == 2 and all(
                type(i) is int for i in loc) for loc in raw):
            raise ConfigError("locations", f"not a list of [layer, slot] int pairs: {raw!r}")
        circ = build_two_local(n, depth)
        locations = [tuple(loc) for loc in raw]
        for loc in locations:
            try:
                circ.parameter(loc)
            except ValueError as exc:
                raise ConfigError("locations", str(exc)) from None
        if not locations:
            raise ConfigError("locations", "sweep lists no locations")
        if len(set(locations)) < len(locations):
            raise ConfigError("locations", f"lists a location twice: {locations}")
    stats = sweep_stats(n, depth, noise, locations, v["instances"], v["thetas"], v["seed"])
    rows = grad_rows(n, depth, noise_type, p, stats, v["seed"])
    write_csv(ExperimentResult(GRAD_COLUMNS[:-1], tuple(rows)), out / "grad_scan.csv", force)


def cmd_bound_report(cfg: dict, out: Path, force: bool) -> None:
    v = read_config(cfg, _BOUND_REPORT)
    n, depth = v["n"], v["L"]
    noise = config_noise(v["noise_type"], v["p"])
    channel = named_layer_channel(noise)
    if not v["depth_constant"] > 0.0:
        raise ConfigError("depth_constant", f"{v['depth_constant']!r} must be positive")
    bif = None  # theorem 3 needs at least 3 layers
    if depth >= 3:
        bif = config_value(cfg, "bifurcation_layer", max(depth - 2, 3), int, 3, depth)
    elif "bifurcation_layer" in cfg:
        raise ConfigError("bifurcation_layer", f"theorem 3 needs L >= 3, got L = {depth}")
    rng = np.random.default_rng(v["seed"])
    circ = build_two_local(n, depth)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=circ.num_parameters)
    H = random_two_local(n, rng)

    profile = bounds.contractivity_profile(circ, noise, theta)
    report: dict = {
        "r": profile.r,
        "per_layer_q": list(profile.q),
        "per_layer_opnorm": list(profile.opnorm),
    }
    hn = h_norm(H)
    if profile.r < 1.0:
        report["nibp_bound_curve"] = [
            [L, bounds.nibp_bound(hn, profile.r, L)] for L in range(1, depth + 1)
        ]
        report["L0"] = bounds.l0_threshold(
            c=v["depth_constant"], Q=v["depth_exponent"], K=v["locality"], r=profile.r
        )
    nils = bounds.nils_interval(H, channel, depth, circ=circ, theta=theta)
    report["nils"] = {
        "center": nils.center,
        "lambda_L": nils.lambda_L,
        "lambda_inf": nils.lambda_inf,
        "unital": nils.unital,
        "d_L_dot_h": nils.d_L_dot_h,
    }
    if bif is not None:
        t3 = bounds.theorem3_report([channel] * depth, bif)
        report["theorem3"] = {
            "applicable": t3.applicable,
            "sigma_max_prefix": t3.sigma_max_prefix,
            "mu_star": t3.mu_star,
            "sigma_min_suffix": list(t3.sigma_min_suffix),
            "suffix_length": t3.suffix_length,
            "escapes_nibp": t3.escapes_nibp,
            "lower_bound": t3.lower_bound,
        }
    _write_json(report, out / "bound_report.json", force)


def cmd_train(cfg: dict, out: Path, force: bool) -> None:
    csv_path, summary_path = out / "train.csv", out / "train_summary.json"
    _refuse_overwrite([csv_path, summary_path], force)
    v = read_config(cfg, _TRAIN)
    n = v["n"]
    noise = config_noise(v["noise_type"], v["p"])
    H, trace = train_cell(n, v["L"], noise, v["maxiter"], v["seed"])
    rows = tuple(
        (i, c, s) for i, (c, s) in enumerate(zip(trace.costs, trace.step_sizes))
    )
    columns = ("iter", "cost", "step_size")
    write_csv(ExperimentResult(columns, rows), csv_path, force)
    _write_json(
        {
            "final_cost": trace.final_cost,
            "evaluations": trace.evaluations,
            "center": H.trace() / 2**n,
        },
        summary_path,
        force,
    )


def cmd_experiment(cfg: dict, out: Path, force: bool) -> None:
    config = ExperimentConfig.from_json(cfg)
    preset = config.preset
    csv_path = out / f"{preset}.csv"
    plot_path = out / f"plot_{preset}.py"
    meta_path = out / f"{preset}_meta.json"
    _refuse_overwrite([csv_path, plot_path, meta_path], force)
    result = run_experiment(config)
    write_csv(result, csv_path, force=force)
    emit_plot_script(csv_path, preset, plot_path, force=force)
    meta = dict(result.metadata)
    meta["config"] = cfg
    _write_json(meta, meta_path, force)


# each subcommand with its config key table
_COMMANDS = {
    "channel": (cmd_channel, _CHANNEL),
    "grad-scan": (cmd_grad_scan, _GRAD_SCAN),
    "bound-report": (cmd_bound_report, _BOUND_REPORT),
    "train": (cmd_train, _TRAIN),
    "experiment": (cmd_experiment, ExperimentConfig.JSON_SPEC),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nibp-lab",
        description="Noisy variational-circuit simulator and bound analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="root seed override")
        p.add_argument("--force", action="store_true", help="overwrite outputs")
    args = parser.parse_args(argv)
    try:
        cfg = json.loads(Path(args.config).read_text())
        if not isinstance(cfg, dict):
            raise ValueError(f"holds a JSON {type(cfg).__name__}, not an object")
    except (OSError, ValueError) as exc:
        print(f"config file {args.config}: {exc}", file=sys.stderr)
        return 1
    command, keys = _COMMANDS[args.command]
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        print(
            f"unknown config keys for {args.command}: {', '.join(unknown)}"
            f" (accepted: {', '.join(sorted(keys))})",
            file=sys.stderr,
        )
        return 1
    out = Path(args.out)
    # --out, or its nearest existing parent, must be a directory to write
    # into: checked before the command's work, which may be a whole sweep
    base = next(path for path in (out, *out.parents) if path.exists())
    problem = ("is not a directory" if not base.is_dir() else
               None if os.access(base, os.W_OK | os.X_OK) else "is not writable")
    if problem:
        print(f"--out {args.out}: {base} {problem}", file=sys.stderr)
        return 1
    if args.seed is not None and "seed" in keys:
        cfg = {**cfg, "seed": args.seed}
    try:
        command(cfg, out, args.force)
    except (FileExistsError, ConfigError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"--out {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
