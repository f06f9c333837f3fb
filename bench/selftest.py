"""Self-test of the benchmark; exits non-zero on the first failed check.

    python3 bench/selftest.py

* every workload, run for one second with and without tracing, prints each
  metric of BENCHMARK.json with its unit, and passes its checks;
* the traced runs see every call: 2 evolutions per shift-rule derivative on
  both gradient workloads, 2 layer_affine_maps calls per bound report, and
  2 * maxiter + 1 objective calls per SPSA run;
* a reference output perturbed by 1e-9 counts as failed, so the
  correctness gate is not vacuous;
* in a directory holding only BENCHMARK.json and the benchmark's own files,
  the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402  (needs the src path above)
import workloads  # noqa: E402

EXACT = {
    "grad_depth": {"gradients.evolves_per_deriv": 2.0},
    "grad_wide": {"gradients.evolves_per_deriv": 2.0},
    "bounds_report": {"bounds.layer_maps_per_report": 2.0},
    "train_spsa": {"spsa.evals_per_run": 2.0 * workloads.TrainSpsa.maxiter + 1},
}


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=180,
    )


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def perturbed(rec):
    """``rec`` with its first float (or first float cell of a CSV) + 1e-9."""
    if isinstance(rec, dict) and "csv" in rec:
        lines = rec["csv"].split("\n")
        cells = lines[1].split(",")
        i = next(i for i, c in enumerate(cells) if "." in c)
        cells[i] = repr(float(cells[i]) + 1e-9)
        lines[1] = ",".join(cells)
        return {**rec, "csv": "\n".join(lines)}
    if isinstance(rec, float):
        return rec + 1e-9
    items = list(rec.items()) if isinstance(rec, dict) else list(enumerate(rec))
    for key, value in items:
        if isinstance(value, (float, list, dict)):
            new = perturbed(value)
            if new != value:
                out = dict(rec) if isinstance(rec, dict) else list(rec)
                out[key] = new
                return out
    return rec


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, name, trace)
            check(proc.returncode == 0, f"{name} trace={trace} exits 0")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace={trace} result keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{name} trace={trace} correct, {res['failed']}/{res['attempted']} failed")
            metrics = res["metrics"]
            wrong = [
                m["name"] for m in spec[key]
                if metrics.get(m["name"], {}).get("unit") != m["unit"]
                or not isinstance(metrics[m["name"]]["value"], (int, float))
                or not math.isfinite(metrics[m["name"]]["value"])
            ]
            check(not wrong and len(metrics) == len(spec[key]),
                  f"{name} trace={trace} prints exactly the {len(spec[key])} {key} "
                  f"metrics with their units (wrong: {wrong})")
            if trace:
                for metric, want in EXACT[name].items():
                    got = metrics[metric]["value"]
                    check(got == want, f"{name} {metric} = {got} (want {want})")

        w = workloads.WORKLOADS[name]()
        w.setup(ROOT / ".bench_out")
        stored = reference[name]["rounds"][0]
        rec = w.record(w.run_round(workloads.round_seed(workloads.REF_SEED, 0)))
        for label, candidate, want_failed in (("as computed", rec, False),
                                              ("perturbed by 1e-9", perturbed(rec), True)):
            tally = worker.Tally(w.item_units())
            tally.add(candidate, w.compare(candidate, stored))
            check((tally.failed > 0) == want_failed,
                  f"{name} reference output {label}: failed_frac "
                  f"{tally.failed / tally.attempted:.3g}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "bench")
    proc = run(bare, "grad_depth", 0)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the sources: non-zero exit and no result")
    shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
