"""nibp-lab benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload grad_depth --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``.  Each workload is a batch job driven as a closed loop by one
client in one process (see ``workloads.py`` for the four workloads and why
each is there).  With ``--trace 0`` the result holds the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics from a
traced replay plus isolated layer probes.

``units_per_s`` is work units per second from the mean round time,
rescaled by the mean time of a fixed calibration kernel timed before the
first round and after each (see ``worker.Calibration``).  ``setup_s`` is
the median over SETUP_SAMPLES fresh processes of imports, set-up and
warm-up, each rescaled by the same kernel timed right after it.  The raw
wall-clock figures are printed and recorded beside them.
``peak_rss_mb`` is the peak resident memory of the timed process.  The
share of failed units, ``failed_frac``, is ``failed / attempted``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it record the environment and a readable summary.  Full records and the
trace spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # every run ends within 180 s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--mode", mode, "--out", str(OUT),
    ]
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0), check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "nibp_lab" / "__init__.py").is_file():
        print(f"no nibp_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        setups = [run_worker(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
        res = run_worker(args, "run", deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark process failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res)
    res["setup_samples_s"] = [s["setup_s"] for s in setups]
    res["raw_setup_samples_s"] = [s["raw_setup_s"] for s in setups]
    values = dict(res.get("metrics", {}))
    values["setup_s"] = statistics.median(res["setup_samples_s"])
    values["units_per_s"] = res["units_per_s"]
    values["peak_rss_mb"] = res["peak_rss_mb"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    failed_frac = res["failed"] / res["attempted"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "failed_frac": failed_frac, **res}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("env: " + json.dumps(res["env"], sort_keys=True))
    print(
        f"{args.workload}: units_per_s={values['units_per_s']:.4g} 1/s "
        f"setup_s={values['setup_s']:.4g} s peak_rss_mb={values['peak_rss_mb']:.4g} MB "
        f"failed_frac={failed_frac:.4g} ({res['failed']}/{res['attempted']} units) "
        f"(raw wall-clock {res['raw_units_per_s']:.4g} 1/s and "
        f"{statistics.median(res['raw_setup_samples_s']):.4g} s; "
        f"{res['rounds']} rounds of {res['units_per_round']} units)"
    )
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
