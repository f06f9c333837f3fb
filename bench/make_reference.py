"""Store the outputs of the reference rounds as ``reference.json``.

Run once, on the code whose outputs every later run must reproduce:

    PYTHONPATH=src python3 bench/make_reference.py

Refuses to overwrite an existing file unless given ``--force``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import workloads

PATH = Path(__file__).parent / "reference.json"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--force", action="store_true")
    args = ap.parse_args()
    if PATH.exists() and not args.force:
        print(f"{PATH} exists; pass --force to overwrite", file=sys.stderr)
        return 1
    data = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in workloads.WORKLOADS.items():
            w = make()
            w.setup(Path(tmp))
            rounds = [
                w.record(w.run_round(workloads.round_seed(workloads.REF_SEED, k)))
                for k in range(workloads.REF_ROUNDS)
            ]
            data[name] = {"seed": workloads.REF_SEED, "rounds": rounds}
    PATH.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
