"""Every public name in the package has a reader outside the unit tests.

A public top-level function or class, or a public method or property of such
a class, must be read somewhere other than where it is defined: by another
package module, by its own module, by the benchmark, by the acceptance gate
or by the README. A name that only unit tests call is surface without a user.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "semiconv").glob("*.py"))
# the package __init__ only re-exports, so its imports read nothing
READERS = [p for p in PACKAGE if p.name != "__init__.py"] + sorted(
    (ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
# "name" (or "Class.name") -> why it stays without a reader
ALLOWED = {}


def definitions(source):
    """Public top-level functions and classes, then their public methods and
    properties, as (line, name) with methods named ``Class.method``."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(item.lineno, f"{node.name}.{item.name}") for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def references(source):
    """Identifiers a module reads: names, attributes, and strings that are
    identifiers, as in the attribute tables the benchmark patches by name."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.isidentifier()):
            refs.add(node.value)
    return refs


def unread(source, readers, text=""):
    """Names that ``definitions(source)`` lists and that no reader reads.

    ``readers`` are the sources of the other modules that count; the module
    itself counts too, since a definition is not a read. ``text`` is prose
    (the README) in which a name counts when it appears as a word.
    """
    refs = references(source).union(*(references(r) for r in readers))
    words = set(re.findall(r"\w+", text))
    return [(line, name) for line, name in definitions(source)
            if name.rsplit(".", 1)[-1] not in refs | words]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_public_name_has_a_reader(path):
    others = [p.read_text() for p in READERS if p != path]
    found = unread(path.read_text(), others, (ROOT / "README.md").read_text())
    assert [(line, name) for line, name in found if name not in ALLOWED] == []


def test_scan_flags_names_only_tests_read():
    module = ("class Box:\n"
              "    def area(self):\n        return self.side * self.side\n"
              "    @property\n    def side(self):\n        return 2\n"
              "    def _hidden(self):\n        pass\n"
              "def helper():\n    '''mentions orphan'''\n"
              "def orphan():\n    return helper()\n"
              "def patched():\n    pass\n"
              "def documented():\n    pass\n")
    reader = "from pkg import Box\nTABLE = [('pkg', 'patched')]\nBox().area()\n"
    assert unread(module, [reader], "call `documented()`") == [(11, "orphan")]
    assert unread(module, [], "") == [(1, "Box"), (2, "Box.area"), (11, "orphan"),
                                      (13, "patched"), (15, "documented")]
