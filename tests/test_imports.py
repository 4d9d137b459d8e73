"""Every module-level import in the package and its tests is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the package __init__ imports only to re-export
SOURCES = [p for p in sorted((ROOT / "src" / "semiconv").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")) if p.name != "__init__.py"]


def unused_imports(source):
    """Names bound by module-level imports that the module never reads.

    A name listed in ``__all__`` counts as read: it is exported.
    """
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_unused_and_keeps_exported():
    src = ("import os.path\nimport sys as system\nfrom json import dumps, loads\n"
           "from math import pi\n__all__ = ['pi']\n"
           "def f():\n    return os.path.join(dumps(1))\n")
    assert unused_imports(src) == [(2, "system"), (3, "loads")]
