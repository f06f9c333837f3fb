"""In-memory span recorder wrapped around nibp_lab's public calls.

The library modules import functions by name (``from .circuits import
evolve``), so wrapping ``nibp_lab.circuits.evolve`` alone would miss the
calls made from ``nibp_lab.gradients``.  ``Tracer.install`` therefore
rebinds every module global that holds the original function object, in
every loaded ``nibp_lab`` module and in the extra modules it is given, and
``uninstall`` puts the originals back.

A span is ``(name, start_ns, end_ns, parent)``, where ``parent`` is the
index of the enclosing span or -1.  Spans stay in memory until
``write_jsonl`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable

# (module, function) pairs wrapped in a traced run; the span name is
# "<module>.<function>" with the "nibp_lab." prefix dropped.
TARGETS = (
    ("nibp_lab.pauli", "to_coherence"),
    ("nibp_lab.channels", "affine_rep"),
    ("nibp_lab.circuits", "evolve"),
    ("nibp_lab.circuits", "layer_unitary"),
    ("nibp_lab.circuits", "layer_channel_as_kraus"),
    ("nibp_lab.hamiltonians", "cost"),
    ("nibp_lab.hamiltonians", "random_two_local"),
    ("nibp_lab.gradients", "psr_gradient"),
    ("nibp_lab.gradients", "gradient_stats"),
    ("nibp_lab.bounds", "layer_affine_maps"),
    ("nibp_lab.bounds", "contractivity_profile"),
    ("nibp_lab.bounds", "shift_accumulator"),
    ("nibp_lab.bounds", "nils_interval"),
    ("nibp_lab.bounds", "theorem3_report"),
    ("nibp_lab.bounds", "l0_threshold"),
    ("nibp_lab.bounds", "nibp_bound"),
    ("nibp_lab.spsa", "spsa_minimize"),
    ("nibp_lab.experiments", "run_experiment"),
    ("nibp_lab.experiments", "write_csv"),
)


def span_name(module: str, func: str) -> str:
    return f"{module.removeprefix('nibp_lab.')}.{func}"


class Tracer:
    """Records one span per wrapped call, with its parent span."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Callable[..., tuple[str, float]] | None = None,
    ) -> Callable:
        """Return ``fn`` recording a span per call; ``count(*args,
        **kwargs)`` may return one extra (counter, amount) to add."""
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                key, amount = count(*args, **kwargs)
                counters[key] += amount
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def install(self, extra: Iterable[tuple[object, str, str]] = ()) -> None:
        """Wrap every function in TARGETS plus ``extra`` (module object,
        attribute, span name) and rebind it wherever it is imported."""
        plan = []
        for module, func in TARGETS:
            mod = importlib.import_module(module)
            plan.append((getattr(mod, func), span_name(module, func)))
        extra_modules = []
        for mod, attr, name in extra:
            plan.append((getattr(mod, attr), name))
            extra_modules.append(mod)
        holders = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "nibp_lab" or key.startswith("nibp_lab."))
        ] + extra_modules
        for original, name in plan:
            count = _layers_evolved if name == "circuits.evolve" else None
            wrapped = self.wrap(name, original, count)
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent = span
                fh.write(json.dumps(
                    {"id": i, "name": name, "start_ns": start,
                     "end_ns": end, "parent": parent}
                ) + "\n")

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans, dict(self.counters))


def _layers_evolved(circ, *args, **kwargs) -> tuple[str, float]:
    return "circuits.evolve.layers", float(circ.depth)


class SpanSummary:
    """Per-name call counts, busy time and self time from a span list.

    Busy time of a name sums its outermost spans only, so a function that
    re-enters itself is not counted twice.  Self time of a span is its
    duration minus the durations of its direct child spans.
    """

    def __init__(self, spans, counters: dict[str, float]) -> None:
        done = [s for s in spans if s is not None]
        if len(done) != len(spans):
            raise RuntimeError("summary taken while a traced call is open")
        self.counters = counters
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            self.calls[name] += 1
            self.self_ns[name] += end - start - child_ns[i]
            if not self._has_ancestor(spans, parent, name):
                self.busy_ns[name] += end - start
        self.child_calls: dict[tuple[str, str], int] = defaultdict(int)
        for name, _, _, parent in spans:
            if parent >= 0:
                self.child_calls[(spans[parent][0], name)] += 1

    @staticmethod
    def _has_ancestor(spans, parent: int, name: str) -> bool:
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def busy_s(self, name: str) -> float:
        return self.busy_ns.get(name, 0) / 1e9

    def module_self_s(self, module: str) -> float:
        prefix = module + "."
        return sum(
            ns for name, ns in self.self_ns.items() if name.startswith(prefix)
        ) / 1e9
