"""Every module-level ``def`` and ``class`` in ``src/nibp_lab`` is run by
the package, the bench or a user of the public API.

A top-level name passes when it is

* referenced in ``src/`` outside its own definition, through a name, an
  attribute or an import;
* referenced in ``bench/*.py``, where a string constant also counts, since
  ``bench/tracing.TARGETS`` names the functions it wraps as strings; or
* exported by ``__init__.py``, whose import is a reference in ``src/``.

A name that only the tests call belongs in ``tests/helpers.py``.  Names
are matched by spelling, so an attribute of the same name elsewhere counts
as a reference, and a name whose only caller is itself caller-less passes
until that caller goes.  Everything is read off the syntax tree.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nibp_lab"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node: ast.AST, strings: bool = False) -> set[str]:
    """The names ``node`` reads: names, attributes, imported names and,
    with ``strings``, string constants."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def callerless(modules: dict[str, str], bench: list[str]) -> set[str]:
    """The ``module.name`` of each top-level definition in ``modules``
    (file name to source; ``__init__.py`` among them) that passes none of
    the three rules above, given the sources of ``bench``."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = [(stmt, _references(stmt)) for tree in trees.values() for stmt in tree.body]
    outside = set().union(*(_references(ast.parse(source), strings=True) for source in bench))
    return {f"{name.removesuffix('.py')}.{node.name}"
            for name, tree in trees.items() for node in tree.body
            if isinstance(node, DEFINITIONS) and node.name not in outside
            and not any(node.name in names for stmt, names in read if stmt is not node)}


def test_every_top_level_name_in_src_has_a_caller():
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    bench = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "bench").glob("*.py"))]
    assert callerless(modules, bench) == set()


def test_the_guard_flags_a_callerless_def():
    modules = {
        "__init__.py": "from .maps import exported\n",
        "maps.py": '''
def exported(): pass
def traced(): pass
def helper(): return 1
def used(): return helper()
def recursive(k): return recursive(k - 1) if k else 0
class Orphan:
    def method(self): return Orphan()
def unused(): return used()
''',
    }
    bench = ['TARGETS = (("nibp_lab.maps", "traced"),)\n']
    assert callerless(modules, bench) == {"maps.recursive", "maps.Orphan", "maps.unused"}
