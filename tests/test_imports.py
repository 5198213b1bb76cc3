"""Every name imported by the package and its tests is referenced (pyflakes' F401, by ``ast``),
and every private module-level helper of the package is used somewhere in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/ccakit/*.py"))
FILES = sorted([*SRC, *ROOT.glob("tests/*.py")])


def unused_imports(source):
    """Sorted (line, name) of each name an import binds and nothing references. Imports on
    lines marked ``# noqa: F401`` and names listed in ``__all__`` count as referenced."""
    tree, lines = ast.parse(source), source.splitlines()
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                  for t in node.targets):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            marked = any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            if marked or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_sees_what_it_must():
    source = ("import os\nimport numpy.linalg\nfrom sys import (  # noqa: F401\n    argv)\n"
              "from json import dumps, loads as _loads\n__all__ = ['dumps']\n"
              "numpy.linalg.norm\n")
    assert unused_imports(source) == [(1, "os"), (5, "_loads")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_private_helpers(sources):
    """Sorted (module, name) of each module-level function or class named ``_name`` that no
    module of ``sources`` ({module: source}) references by name, attribute or import."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
    return sorted((module, name) for module, name in defined if name not in used)


def test_dead_helper_checker_sees_what_it_must():
    sources = {"a": "def _dead(x):\n    return x\ndef _called():\n    pass\nclass _Kept:\n"
                    "    pass\ndef __getattr__(name):\n    pass\n_called()\n",
               "b": "from a import _Kept\nimport a\na._attr_used\n",
               "c": "def _attr_used():\n    pass\nclass _Unused:\n    pass\n"}
    assert dead_private_helpers(sources) == [("a", "_dead"), ("c", "_Unused")]


def test_no_dead_private_helpers():
    assert dead_private_helpers({p.stem: p.read_text() for p in SRC}) == []
