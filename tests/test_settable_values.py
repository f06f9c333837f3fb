"""The number of settable values in ``src/``, pinned.

A settable value is a value a caller may leave out and get a default for:

* every parameter default of a function, method or lambda (positional and
  keyword-only defaults alike), and
* every dataclass field whose ``field(...)`` gives ``default=`` or
  ``default_factory=``, or whose annotation is followed by a plain value.

Fields declared with ``init=False`` and ``ClassVar`` tables do not count:
no caller can set them.  The count is read off the syntax tree of every
module under ``src/``, so a change that adds or removes an option shows the
new count in its diff.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SETTABLE_VALUES = 29


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.expr) -> bool:
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return isinstance(target, ast.Name) and target.id == "ClassVar" or (
        isinstance(target, ast.Attribute) and target.attr == "ClassVar")


def _field_is_settable(value: ast.expr) -> bool:
    """A dataclass field's value: ``field(...)`` counts when it gives a
    default and keeps ``init``; any other value is a plain default."""
    is_field_call = (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                     and value.func.id == "field")
    if not is_field_call:
        return True
    keywords = {kw.arg: kw.value for kw in value.keywords}
    init = keywords.get("init")
    if isinstance(init, ast.Constant) and init.value is False:
        return False
    return "default" in keywords or "default_factory" in keywords


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(
                isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                and not _is_classvar(stmt.annotation) and _field_is_settable(stmt.value)
                for stmt in node.body
            )
    return count


def test_settable_value_count_is_pinned():
    total = sum(settable_values(ast.parse(path.read_text(encoding="utf-8")))
                for path in sorted(SRC.rglob("*.py")))
    assert total == SETTABLE_VALUES


def test_counter_reads_each_kind_of_settable_value():
    source = '''
from dataclasses import dataclass, field
from typing import ClassVar

def f(a, b=1, *, c=2, d): pass
g = lambda p=0.0: p

@dataclass
class C:
    x: int
    y: int = 3
    z: list = field(default_factory=list)
    w: int = field(default=0, repr=False)
    hidden: dict = field(default_factory=dict, init=False)
    derived: int = field(init=False)
    TABLE: ClassVar[dict] = {}

class Plain:
    q: int = 5
'''
    # b, c, p, then y, z, w
    assert settable_values(ast.parse(source)) == 6
