"""Command-line entry point.

Usage: nibp-lab <subcommand> --config <file.json> --out <dir> [--seed N] [--force]

Subcommands: channel (inspect a channel's affine data), grad-scan (gradient
statistics CSV), bound-report (bounds and thresholds JSON), train (one SPSA
run CSV), experiment (preset sweeps with CSV and plot script).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds
from .channels import KrausChannel, affine_rep, classify, named_channel, validate_kraus
from .circuits import NoiseSpec, build_two_local, evolve
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    _refuse_overwrite,
    _write_text,
    emit_plot_script,
    run_experiment,
    write_csv,
)
from .gradients import SweepSpec, default_locations, gradient_stats
from .hamiltonians import cost, random_two_local
from .spsa import SpsaConfig, spsa_minimize


def _write_json(data, path: Path, force: bool) -> None:
    _write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n", force)


def kraus_from_json(data: dict) -> KrausChannel:
    """Channel from {name, p} or explicit {kraus: [[[re, im], ...], ...], n}.

    Explicit matrices are row-major lists of [re, im] pairs.
    """
    if "name" in data:
        return named_channel(data["name"], float(data.get("p", 0.0)))
    ops = []
    for mat in data["kraus"]:
        arr = np.array(mat, dtype=float)
        ops.append(arr[..., 0] + 1j * arr[..., 1])
    n = int(data.get("n", round(np.log2(ops[0].shape[0]))))
    return KrausChannel(n=n, kraus_ops=tuple(ops))


def _noise_from_config(cfg: dict) -> NoiseSpec:
    return NoiseSpec.named(cfg.get("noise_type", "none"), float(cfg.get("p", 0.0)))


def cmd_channel(cfg: dict, out: Path, seed: int | None, force: bool) -> None:
    ch = kraus_from_json(cfg)
    rep = affine_rep(ch)
    cls = classify(ch)
    report = validate_kraus(ch)
    _write_json(
        {
            "M": rep.M.tolist(),
            "c_nice": rep.c.tolist(),
            "c_bloch": rep.c_bloch.tolist(),
            "singular_values": np.linalg.svd(rep.M, compute_uv=False).tolist(),
            "class": cls.kind,
            "operator_norm": cls.operator_norm_M,
            "residuals": {
                "trace_preservation": report.tp_residual,
                "unitality": report.unital_residual,
            },
        },
        out / "channel.json",
        force,
    )


def cmd_grad_scan(cfg: dict, out: Path, seed: int | None, force: bool) -> None:
    n = int(cfg.get("n", 3))
    depth = int(cfg.get("L", 20))
    p = float(cfg.get("p", 0.3))
    noise_type = cfg.get("noise_type", "depolarizing")
    root = int(cfg.get("seed", 0) if seed is None else seed)
    circ = build_two_local(n, depth)
    locations = tuple(
        tuple(loc) for loc in cfg.get("locations", default_locations(circ))
    )
    stats = gradient_stats(
        SweepSpec(
            circuit=circ,
            noise=NoiseSpec.named(noise_type, p),
            locations=locations,
            num_hamiltonians=int(cfg.get("instances", 10)),
            thetas_per_hamiltonian=int(cfg.get("thetas", 20)),
            seed=root,
        )
    )
    rows = tuple(
        (n, depth, p, noise_type, loc[0], loc[1], s.mean_abs, s.variance,
         s.min, s.max, s.samples, root)
        for loc, s in sorted(stats.items())
    )
    columns = ("n", "L", "p", "noise_type", "layer", "slot", "mean_abs_grad",
               "var_grad", "min", "max", "samples", "seed")
    write_csv(ExperimentResult(columns, rows), out / "grad_scan.csv", force)


def cmd_bound_report(cfg: dict, out: Path, seed: int | None, force: bool) -> None:
    n = int(cfg.get("n", 3))
    depth = int(cfg.get("L", 10))
    p = float(cfg.get("p", 0.3))
    noise_type = cfg.get("noise_type", "depolarizing")
    root = int(cfg.get("seed", 0) if seed is None else seed)
    rng = np.random.default_rng(root)
    circ = build_two_local(n, depth)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=circ.num_parameters)
    H = random_two_local(n, rng)
    channel = named_channel(noise_type, p)
    noise = NoiseSpec.uniform(channel)

    profile = bounds.contractivity_profile(circ, noise, theta)
    report: dict = {
        "r": profile.r,
        "per_layer_q": list(profile.q),
        "per_layer_opnorm": list(profile.opnorm),
    }
    from .hamiltonians import h_norm

    hn = h_norm(H)
    if profile.r < 1.0:
        report["nibp_bound_curve"] = [
            [L, bounds.nibp_bound(hn, profile.r, L)] for L in range(1, depth + 1)
        ]
        report["L0"] = bounds.l0_threshold(
            c=float(cfg.get("depth_constant", 1.0)),
            Q=float(cfg.get("depth_exponent", 2.0)),
            K=int(cfg.get("locality", 2)),
            r=profile.r,
        )
    nils = bounds.nils_interval(H, channel, depth, circ=circ, theta=theta)
    report["nils"] = {
        "center": nils.center,
        "lambda_L": nils.lambda_L,
        "lambda_inf": nils.lambda_inf,
        "unital": nils.unital,
        "d_L_dot_h": nils.d_L_dot_h,
    }
    bif = int(cfg.get("bifurcation_layer", max(depth - 2, 3)))
    if depth >= 3:
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


def cmd_train(cfg: dict, out: Path, seed: int | None, force: bool) -> None:
    csv_path, summary_path = out / "train.csv", out / "train_summary.json"
    _refuse_overwrite([csv_path, summary_path], force)
    n = int(cfg.get("n", 3))
    depth = int(cfg.get("L", 5))
    root = int(cfg.get("seed", 0) if seed is None else seed)
    rng = np.random.default_rng(root)
    circ = build_two_local(n, depth)
    noise = _noise_from_config(cfg)
    H = random_two_local(n, rng)
    theta0 = rng.uniform(0.0, 2.0 * np.pi, size=circ.num_parameters)

    def objective(theta):
        return cost(H, evolve(circ, theta, noise))

    trace = spsa_minimize(
        objective, theta0, SpsaConfig(maxiter=int(cfg.get("maxiter", 200)), seed=root)
    )
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


def cmd_experiment(cfg: dict, out: Path, seed: int | None, force: bool) -> None:
    config = ExperimentConfig.from_json(cfg, seed=seed)
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


# each subcommand with the config keys it reads
_COMMANDS = {
    "channel": (cmd_channel, {"name", "p", "kraus", "n"}),
    "grad-scan": (
        cmd_grad_scan,
        {"n", "L", "p", "noise_type", "seed", "locations", "instances", "thetas"},
    ),
    "bound-report": (
        cmd_bound_report,
        {"n", "L", "p", "noise_type", "seed", "depth_constant",
         "depth_exponent", "locality", "bifurcation_layer"},
    ),
    "train": (cmd_train, {"n", "L", "p", "noise_type", "seed", "maxiter"}),
    "experiment": (cmd_experiment, ExperimentConfig.JSON_KEYS),
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
    cfg = json.loads(Path(args.config).read_text())
    command, keys = _COMMANDS[args.command]
    unknown = sorted(set(cfg) - keys)
    if unknown:
        print(
            f"unknown config keys for {args.command}: {', '.join(unknown)}"
            f" (accepted: {', '.join(sorted(keys))})",
            file=sys.stderr,
        )
        return 1
    try:
        command(cfg, Path(args.out), args.seed, args.force)
    except FileExistsError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
