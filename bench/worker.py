"""One benchmark process: set up a workload, time it, check its outputs.

Started by ``run.py``, which sets the BLAS thread cap before the interpreter
starts; imports nibp_lab from the checkout's ``src``.  Prints one JSON object
on its last line.

    --mode setup   imports, set-up and warm-up only; reports setup_s
    --mode run     also the timed closed loop, the checks and, with
                   --trace 1, the traced replay and the layer probes
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import nibp_lab
import tracing
import workloads

# rounds that also get the sampled shift-rule / finite-difference checks
DEEP_ROUNDS = 4
# nominal time of Calibration.kernel: round times are rescaled to a machine
# on which the kernel takes this long
CAL_NOMINAL_S = 0.015


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that NumPy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


class Calibration:
    """A fixed kernel, independent of nibp_lab, timed between rounds.

    The shared host's speed drifts by up to ~50% over a few seconds
    (measured on a 2-vCPU VM, CPU time tracking wall time), which swamps
    the differences a benchmark has to resolve.  The kernel mixes what the
    workloads do (small complex matrix products, an einsum over a
    reshaped density matrix, a Python loop), so its mean time over a run
    tracks the host's speed and divides out of the mean round time.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20240213)
        self.a8 = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        self.k2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        self.rho = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))

    def kernel(self) -> float:
        x = self.a8
        for _ in range(480):
            x = self.a8 @ x @ self.a8.conj().T
            x = x / np.abs(x).max()
        t = self.rho.reshape(4, 2, 8, 4, 2, 8)
        for _ in range(48):
            t = np.einsum("ip,apbcqd,jq->aibcjd", self.k2, t, self.k2.conj())
            t = t / np.abs(t).max()
        acc = 0
        for i in range(24000):
            acc += i * i
        return float(x.real[0, 0]) + float(t.real.flat[0]) + acc

    def timed(self) -> float:
        t = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t


def run_rounds(w: workloads.Workload, seed: int, cal: Calibration,
               done: Callable[[int, float], bool]):
    """Rounds 0, 1, ... one after another, with a calibration before the
    first and after each, until ``done(rounds_run, seconds_elapsed)``."""
    rounds, cals = [], [cal.timed()]
    start = time.perf_counter()
    while not done(len(rounds), time.perf_counter() - start):
        rounds.append(timed_round(w, seed, len(rounds)))
        cals.append(cal.timed())
    return rounds, cals


def scaled_round_s(rounds, cals) -> float:
    """Mean round time rescaled by the mean calibration to CAL_NOMINAL_S.

    Means, not medians: both are then time averages over the same stretch
    of the run, and so see the same mix of the host's fast and slow phases,
    which alternate faster than a long round lasts."""
    return statistics.fmean(dt for _, dt in rounds) * CAL_NOMINAL_S / statistics.fmean(cals)


def timed_round(w: workloads.Workload, seed: int, k: int):
    t = time.perf_counter()
    try:
        out = w.run_round(workloads.round_seed(seed, k))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        out = None
    return out, time.perf_counter() - t


class Tally:
    """Units attempted and units whose item failed a check."""

    def __init__(self, units: list[int]) -> None:
        self.units = units
        self.attempted = 0
        self.failed = 0

    def add(self, out, bad: set[int]) -> None:
        """Count a round; ``out`` None means it raised, failing every item."""
        if out is None:
            bad = set(range(len(self.units)))
        self.attempted += sum(self.units)
        self.failed += sum(self.units[i] for i in bad)


def verify(w: workloads.Workload, seed: int, rounds, reference, tally: Tally) -> None:
    """Seed-independent checks on every round (sampled derivative checks on
    DEEP_ROUNDS of them), the stored reference where the round has one, and
    a recomputation of the reference rounds."""
    rng = np.random.default_rng([seed, 1])
    deep = set(rng.choice(len(rounds), size=min(len(rounds), DEEP_ROUNDS), replace=False))
    for k, (out, _) in enumerate(rounds):
        bad = set()
        if out is not None:
            bad = w.check(out, rng, k in deep)
            if seed == workloads.REF_SEED and k < len(reference):
                bad |= w.compare(w.record(out), reference[k])
        tally.add(out, bad)
    for k, stored in enumerate(reference):
        out, _ = timed_round(w, workloads.REF_SEED, k)
        bad = set()
        if out is not None:
            bad = w.compare(w.record(out), stored) | w.check(out, rng, True)
        tally.add(out, bad)


def layer_metrics(s: tracing.SpanSummary, rounds: int) -> dict[str, float]:
    """Per-layer counts and times per round of the traced replay."""

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    derivs = s.calls["gradients.psr_gradient"]
    layers = s.counters.get("circuits.evolve.layers", 0.0)
    return {
        "gradients.derivs": derivs / rounds,
        "gradients.evolves_per_deriv": ratio(
            s.child_calls[("gradients.psr_gradient", "circuits.evolve")], derivs),
        "gradients.self_s": s.module_self_s("gradients") / rounds,
        "circuits.evolve.calls": s.calls["circuits.evolve"] / rounds,
        "circuits.evolve.busy_s": s.busy_s("circuits.evolve") / rounds,
        "circuits.evolve.us_per_layer": 1e6 * ratio(s.busy_s("circuits.evolve"), layers),
        "hamiltonians.cost.calls": s.calls["hamiltonians.cost"] / rounds,
        "hamiltonians.cost.busy_s": s.busy_s("hamiltonians.cost") / rounds,
        "hamiltonians.random_two_local.busy_s":
            s.busy_s("hamiltonians.random_two_local") / rounds,
        "channels.affine_rep.calls": s.calls["channels.affine_rep"] / rounds,
        "channels.affine_rep.busy_s": s.busy_s("channels.affine_rep") / rounds,
        "bounds.layer_affine_maps.calls": s.calls["bounds.layer_affine_maps"] / rounds,
        "bounds.layer_affine_maps.busy_s": s.busy_s("bounds.layer_affine_maps") / rounds,
        # every bound report calls contractivity_profile once
        "bounds.layer_maps_per_report": ratio(
            s.calls["bounds.layer_affine_maps"], s.calls["bounds.contractivity_profile"]),
        "bounds.self_s": s.module_self_s("bounds") / rounds,
        "pauli.to_coherence.calls": s.calls["pauli.to_coherence"] / rounds,
        "pauli.to_coherence.busy_s": s.busy_s("pauli.to_coherence") / rounds,
        "spsa.objective.calls": s.calls["spsa.objective"] / rounds,
        "spsa.evals_per_run": ratio(s.calls["spsa.objective"], s.calls["spsa.spsa_minimize"]),
        "spsa.self_s": s.module_self_s("spsa") / rounds,
        "experiments.run_experiment.busy_s": s.busy_s("experiments.run_experiment") / rounds,
        "experiments.self_s": s.module_self_s("experiments") / rounds,
        "experiments.write_csv.busy_s": s.busy_s("experiments.write_csv") / rounds,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if not Path(nibp_lab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"nibp_lab imported from {nibp_lab.__file__}, not {ROOT / 'src'}")

    w = workloads.WORKLOADS[args.workload]()
    w.setup(args.out)
    w.warm_up()
    raw_setup_s = time.perf_counter() - T0
    cal = Calibration()
    setup = {
        "setup_s": raw_setup_s * CAL_NOMINAL_S / statistics.fmean(cal.timed() for _ in range(5)),
        "raw_setup_s": raw_setup_s,
    }
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    reference = json.loads(
        (Path(__file__).parent / "reference.json").read_text(encoding="utf-8")
    )[args.workload]
    tally = Tally(w.item_units())
    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds, cals = run_rounds(w, args.seed, cal, lambda k, t: k > 0 and t >= seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = sum(w.item_units())
    round_s = scaled_round_s(rounds, cals)
    result = {
        **setup,
        "peak_rss_mb": peak_rss_mb,
        "units_per_s": units / round_s,
        "raw_units_per_s": units / statistics.fmean(dt for _, dt in rounds),
        "rounds": len(rounds),
        "units_per_round": units,
        "scaled_round_s": round_s,
        "round_s": [dt for _, dt in rounds],
        "calibration_s": cals,
        "env": environment(),
    }

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(extra=[(workloads, "final_cost_objective", "spsa.objective")])
        try:
            replay, replay_cals = run_rounds(
                w, args.seed, cal, lambda k, t: k == len(rounds))
        finally:
            tracer.uninstall()
        tracer.write_jsonl(args.out / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = layer_metrics(tracer.summary(), len(rounds))
        metrics["trace.overhead_frac"] = scaled_round_s(replay, replay_cals) / round_s - 1.0
        metrics.update(workloads.probes(w))
        result["metrics"] = metrics
        # tracing must not change a single output
        for (out, _), (again, _) in zip(rounds, replay):
            if out is None or again is None:
                tally.add(None, set())
            else:
                tally.add(again, w.compare(w.record(again), w.record(out)))

    verify(w, args.seed, rounds, reference["rounds"], tally)
    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
