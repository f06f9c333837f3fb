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
from .channels import (
    AFFINE_MAX_QUBITS,
    KrausChannel,
    affine_rep,
    classify,
    identity_channel,
    named_channel,
    validate_kraus,
)
from .circuits import build_two_local, evolve
from .experiments import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    _refuse_overwrite,
    _write_text,
    config_noise,
    config_value,
    emit_plot_script,
    run_experiment,
    write_csv,
)
from .gradients import SweepSpec, default_locations, gradient_stats
from .hamiltonians import cost, random_two_local
from .pauli import MAX_QUBITS
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


def _noise_from_config(cfg: dict, noise_type: str, p: float) -> tuple:
    """(noise_type, p, NoiseSpec) read from the config, defaulting to the
    given noise_type and p."""
    noise_type = cfg.get("noise_type", noise_type)
    p = config_value(cfg, "p", p, float, 0.0, 1.0)
    return noise_type, p, config_noise(noise_type, p)


def _root_seed(cfg: dict, seed: int | None) -> int:
    return config_value(cfg, "seed", 0, int) if seed is None else seed


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
    n = config_value(cfg, "n", 3, int, 2, MAX_QUBITS)
    depth = config_value(cfg, "L", 20, int, 1)
    noise_type, p, noise = _noise_from_config(cfg, "depolarizing", 0.3)
    root = _root_seed(cfg, seed)
    instances = config_value(cfg, "instances", 10, int, 1)
    thetas = config_value(cfg, "thetas", 20, int, 1)
    circ = build_two_local(n, depth)
    try:
        locations = tuple(
            tuple(loc) for loc in cfg.get("locations", default_locations(circ))
        )
        bad = [loc for loc in locations if loc not in circ.parameter_index]
    except TypeError:
        bad = [cfg["locations"]]
    if bad:
        raise ConfigError("locations", f"not rotation locations of the circuit: {bad}")
    if not locations:
        raise ConfigError("locations", "sweep lists no locations")
    stats = gradient_stats(
        SweepSpec(
            circuit=circ,
            noise=noise,
            locations=locations,
            num_hamiltonians=instances,
            thetas_per_hamiltonian=thetas,
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
    n = config_value(cfg, "n", 3, int, 2, AFFINE_MAX_QUBITS)
    depth = config_value(cfg, "L", 10, int, 1)
    _, _, noise = _noise_from_config(cfg, "depolarizing", 0.3)
    channel = noise.layer_channels or identity_channel()  # "none": the identity
    root = _root_seed(cfg, seed)
    depth_constant = config_value(cfg, "depth_constant", 1.0, float)
    if not depth_constant > 0.0:
        raise ConfigError("depth_constant", f"{depth_constant!r} must be positive")
    depth_exponent = config_value(cfg, "depth_exponent", 2.0, float, 1.0)
    locality = config_value(cfg, "locality", 2, int)
    bif = None  # theorem 3 needs at least 3 layers
    if depth >= 3:
        bif = config_value(cfg, "bifurcation_layer", max(depth - 2, 3), int, 3, depth)
    rng = np.random.default_rng(root)
    circ = build_two_local(n, depth)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=circ.num_parameters)
    H = random_two_local(n, rng)

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
            c=depth_constant, Q=depth_exponent, K=locality, r=profile.r
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


def cmd_train(cfg: dict, out: Path, seed: int | None, force: bool) -> None:
    csv_path, summary_path = out / "train.csv", out / "train_summary.json"
    _refuse_overwrite([csv_path, summary_path], force)
    n = config_value(cfg, "n", 3, int, 2, MAX_QUBITS)
    depth = config_value(cfg, "L", 5, int, 1)
    _, _, noise = _noise_from_config(cfg, "none", 0.0)
    root = _root_seed(cfg, seed)
    maxiter = config_value(cfg, "maxiter", 200, int, 1)
    rng = np.random.default_rng(root)
    circ = build_two_local(n, depth)
    H = random_two_local(n, rng)
    theta0 = rng.uniform(0.0, 2.0 * np.pi, size=circ.num_parameters)

    def objective(theta):
        return cost(H, evolve(circ, theta, noise))

    trace = spsa_minimize(objective, theta0, SpsaConfig(maxiter=maxiter, seed=root))
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
    except (FileExistsError, ConfigError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
