"""The benchmark's correctness gate, run on the library as it stands.

Every (module, function) the benchmark traces must resolve, and for each
workload the stored reference rounds of ``bench/reference.json`` must be
reproduced (``compare``) and pass the workload's own checks, the sampled
shift-rule checks included (``check(deep=True)``).  Nothing under
``bench/`` is written.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("module, name", tracing.TARGETS)
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_rounds_are_reproduced(name, tmp_path):
    stored = REFERENCE[name]
    assert stored["seed"] == workloads.REF_SEED
    assert len(stored["rounds"]) == workloads.REF_ROUNDS
    w = workloads.WORKLOADS[name]()
    w.setup(tmp_path)
    rng = np.random.default_rng([workloads.REF_SEED, 1])
    for k, rec in enumerate(stored["rounds"]):
        out = w.run_round(workloads.round_seed(workloads.REF_SEED, k))
        assert w.compare(w.record(out), rec) == set(), f"round {k}"
        assert w.check(out, rng, True) == set(), f"round {k}"
