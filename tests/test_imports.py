"""Every module-level import in the package and its tests is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "semiconv").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
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
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_unused_imports():
    src = ("import os.path\nimport sys as system\nfrom json import dumps, loads\n"
           "from math import pi\n__all__ = ['pi']\n"
           "def f():\n    return os.path.join(dumps(1))\n")
    # a name listed in __all__ is not read
    assert unused_imports(src) == [(2, "system"), (3, "loads"), (4, "pi")]
