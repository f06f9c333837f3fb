"""Only ``circuits.py`` reads ``Circuit.parameter_index``.

Whether a location holds a parameter, and which one, is decided by the
circuit: every other module asks ``Circuit.parameter(location)``, which
refuses a location the circuit lacks or a gate without a parameter, named.
A subscript or membership test of ``parameter_index`` elsewhere would make
that decision a second time, with its own errors.  The reads are found on
the syntax tree of every module under ``src/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def parameter_index_reads(tree: ast.AST) -> int:
    """The number of ``<expr>.parameter_index`` attribute reads."""
    return sum(isinstance(node, ast.Attribute) and node.attr == "parameter_index"
               for node in ast.walk(tree))


def test_only_circuits_reads_the_parameter_index():
    readers = {path.name for path in sorted(SRC.rglob("*.py"))
               if parameter_index_reads(ast.parse(path.read_text(encoding="utf-8")))}
    assert readers == {"circuits.py"}


def test_the_guard_sees_subscripts_and_membership_tests():
    source = '''
index = circ.parameter_index[(0, 0)]
ok = (0, 1) in build_two_local(2, 2).parameter_index
other = circ.parameter((0, 0))
'''
    assert parameter_index_reads(ast.parse(source)) == 2
