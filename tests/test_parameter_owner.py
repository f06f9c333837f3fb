"""Only ``circuits.py`` reads ``Circuit.parameter_index``, ``Circuit.runs``
or an entry of ``NoiseSpec.layer_channels``.

Whether a location holds a parameter, and which one, is decided by the
circuit: every other module asks ``Circuit.parameter(location)``, which
refuses a location the circuit lacks or a gate without a parameter, named.
So is which layer an index names: ``Circuit.layer_runs(layer)`` refuses a
layer the circuit lacks, and ``NoiseSpec.per_layer(circ)`` matches the
noise to the circuit's layers.  A subscript or membership test of these
elsewhere would make that decision a second time, with its own errors.
The reads are found on the syntax tree of every module under ``src/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def index_reads(tree: ast.AST) -> int:
    """The number of ``<expr>.parameter_index`` and ``<expr>.runs``
    attribute reads and ``<expr>.layer_channels[...]`` subscripts."""
    return sum(isinstance(node, ast.Attribute) and node.attr in ("parameter_index", "runs")
               or isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
               and node.value.attr == "layer_channels"
               for node in ast.walk(tree))


def test_only_circuits_reads_the_parameter_index():
    readers = {path.name for path in sorted(SRC.rglob("*.py"))
               if index_reads(ast.parse(path.read_text(encoding="utf-8")))}
    assert readers == {"circuits.py"}


def test_the_guard_sees_subscripts_and_membership_tests():
    source = '''
index = circ.parameter_index[(0, 0)]
ok = (0, 1) in build_two_local(2, 2).parameter_index
runs = circ.runs[layer]
last = noise.layer_channels[-1]
other = circ.parameter((0, 0))
own = circ.layer_runs(layer), noise.per_layer(circ), noise.layer_channels or None
'''
    assert index_reads(ast.parse(source)) == 4
