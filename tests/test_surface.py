"""Every public name and every settable value in the package has a reader.

A public top-level function or class, or a public method or property of such
a class, must be read somewhere other than where it is defined: by another
package module, by its own module, by the benchmark, by the acceptance gate
or by the README. A defaulted parameter of a public function, method or
dataclass must be passed, by keyword or by position, by one of the same
modules (the README aside). A name that only unit tests call, or a value only
unit tests set, is surface without a user. A parameter of a public top-level
function that every such call sets to the same literal is a knob nobody turns.
And only the two trainers and the gradient check make a Tensor that takes a
gradient: every model and kernel scale the package makes is inference-only.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "semiconv").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]
# "name" (or "Class.name") -> why it stays without a reader
ALLOWED = {}
# "Class.member" -> the "module.function" that reads it. A member named like
# an ndarray attribute, or like a member of another package class, looks read
# wherever anything of that name is read; only an entry naming its reader
# lets it stay.
READ_BY = {
    "Tensor.item": "synth.train",
    "Scene.shape": "synth.scene_to_json",
    "RegionProposal.shape": "seedcut.cut_region",
}
# "callee(parameter)" -> why no reader passes it
ALLOWED_PARAMETERS = {}


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


def unread(source, readers, text="", ambiguous=()):
    """Names that ``definitions(source)`` lists and that no reader reads.

    ``readers`` are the sources of the other modules that count; the module
    itself counts too, since a definition is not a read. ``text`` is prose
    (the README) in which a name counts when it appears as a word. A
    ``Class.member`` listed in ``ambiguous`` is always returned: a read of its
    name may be a read of something else.
    """
    refs = references(source).union(*(references(r) for r in readers))
    words = set(re.findall(r"\w+", text))
    return [(line, name) for line, name in definitions(source)
            if name in ambiguous or name.rsplit(".", 1)[-1] not in refs | words]


def ambiguous_members(sources):
    """The ``Class.member`` names of the sources whose member name is also an
    ndarray attribute or a public member of another class there."""
    members = [name for src in sources for _, name in definitions(src) if "." in name]
    owners = {}
    for name in members:
        owners.setdefault(name.split(".")[1], set()).add(name.split(".")[0])
    return {name for name in members
            if hasattr(np.ndarray, name.split(".")[1]) or len(owners[name.split(".")[1]]) > 1}


def defaulted_parameters(source):
    """Defaulted parameters of public functions, methods and dataclass fields.

    Returns (line, callee, parameter, position) tuples. ``callee`` is the name
    a caller writes, the class name for ``__init__`` and dataclass fields;
    ``position`` is the parameter's index among the positional arguments a
    caller writes, or None for a keyword-only parameter.
    """
    out = []

    def params(fn, callee, skip):
        args = fn.args.posonlyargs + fn.args.args
        first = max(len(args) - len(fn.args.defaults), skip)
        out.extend((fn.lineno, callee, arg.arg, i - skip)
                   for i, arg in enumerate(args) if i >= first)
        out.extend((fn.lineno, callee, arg.arg, None)
                   for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                   if default is not None)

    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            params(node, node.name, 0)
            continue
        if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            out.extend((f.lineno, node.name, f.target.id, i)
                       for i, f in enumerate(fields) if f.value is not None)
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if item.name == "__init__":
                params(item, node.name, 1)
            elif not item.name.startswith("_"):
                static = any(ast.unparse(d) == "staticmethod" for d in item.decorator_list)
                params(item, item.name, 0 if static else 1)
    return out


def calls(source):
    """Every call a module makes, as (callee, ast.Call) pairs.

    A callee is named by its last component, and a name bound by
    ``import ... as`` by what it imports.
    """
    tree = ast.parse(source)
    alias = {a.asname: a.name.rsplit(".", 1)[-1] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names if a.asname}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            yield alias.get(node.func.id, node.func.id), node
        elif isinstance(node.func, ast.Attribute):
            yield node.func.attr, node


def passed_arguments(source):
    """The arguments a module's calls pass, as ({(callee, keyword)},
    {callee: most positional arguments})."""
    keywords, positional = set(), {}
    for callee, node in calls(source):
        keywords |= {(callee, kw.arg) for kw in node.keywords}
        positional[callee] = max(positional.get(callee, 0), len(node.args))
    return keywords, positional


def unpassed(source, readers):
    """Defaulted parameters that neither the module nor a reader passes, as
    (line, "callee(parameter)")."""
    keywords, positional = set(), {}
    for src in [source, *readers]:
        kw, pos = passed_arguments(src)
        keywords |= kw
        for callee, n in pos.items():
            positional[callee] = max(positional.get(callee, 0), n)
    return [(line, f"{callee}({param})")
            for line, callee, param, position in defaulted_parameters(source)
            if (callee, param) not in keywords
            and (position is None or positional.get(callee, 0) <= position)]


def literal(node):
    """The repr of a literal expression, or None when the node is not one."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError):
        return None


def single_valued(source, readers):
    """Parameters of public top-level functions that every call passes as one
    literal, as (line, "callee(parameter)").

    A call's value for a parameter is the argument at its keyword or its
    position, or else the parameter's default. A parameter is flagged when the
    module and its readers make at least one call and every call's value is
    the same literal; a call that unpacks ``*args`` or ``**kwargs`` has no
    known value. Callees are named as ``calls`` names them.
    """
    sites = {}
    for src in [source, *readers]:
        for callee, node in calls(src):
            sites.setdefault(callee, []).append(node)
    out = []
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
            continue
        args = fn.args.posonlyargs + fn.args.args
        defaults = dict(zip(args[len(args) - len(fn.args.defaults):], fn.args.defaults))
        defaults.update(zip(fn.args.kwonlyargs, fn.args.kw_defaults))
        params = list(enumerate(args)) + [(None, arg) for arg in fn.args.kwonlyargs]
        for position, arg in params:
            values = set()
            for call in sites.get(fn.name, []):
                keyword = {kw.arg: kw.value for kw in call.keywords}
                if None in keyword or any(isinstance(a, ast.Starred) for a in call.args):
                    value = None
                elif arg.arg in keyword:
                    value = keyword[arg.arg]
                elif position is not None and position < len(call.args):
                    value = call.args[position]
                else:
                    value = defaults.get(arg)
                values.add(None if value is None else literal(value))
            if len(values) == 1 and None not in values:
                out.append((fn.lineno, f"{fn.name}({arg.arg})"))
    return out


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_public_name_has_a_reader(path):
    others = [p.read_text() for p in READERS if p != path]
    ambiguous = ambiguous_members([p.read_text() for p in PACKAGE])
    found = unread(path.read_text(), others, (ROOT / "README.md").read_text(), ambiguous)
    assert [(line, name) for line, name in found
            if name not in ALLOWED and name not in READ_BY] == []


def test_package_root_binds_only_its_version():
    # every name is imported from the module that defines it
    tree = ast.parse((ROOT / "src" / "semiconv" / "__init__.py").read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.alias):
            bound.add(node.asname or node.name.split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
    assert bound == {"__version__"}


def test_read_by_entries_name_their_reader():
    # each entry is an ambiguous member, and the function it names reads it
    assert set(READ_BY) <= ambiguous_members([p.read_text() for p in PACKAGE])
    for member, reader in READ_BY.items():
        module, function = reader.split(".")
        tree = ast.parse((ROOT / "src" / "semiconv" / f"{module}.py").read_text())
        fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
        attr = member.split(".")[1]
        assert any(isinstance(n, ast.Attribute) and n.attr == attr for n in ast.walk(fn)), member


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_defaulted_parameter_is_passed(path):
    others = [p.read_text() for p in READERS if p != path]
    found = unpassed(path.read_text(), others)
    assert [(line, name) for line, name in found if name not in ALLOWED_PARAMETERS] == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_parameter_takes_one_value(path):
    # a parameter every caller sets to the same literal is a knob nobody turns
    others = [p.read_text() for p in READERS if p != path]
    assert single_valued(path.read_text(), others) == []


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


def test_scan_does_not_count_a_shared_member_name_as_a_read():
    module = ("class Grid:\n    @property\n    def shape(self):\n        return (2, 2)\n"
              "    def fill(self):\n        pass\n"
              "class Cell:\n    def fill(self):\n        pass\n"
              "    def paint(self):\n        pass\n")
    reader = "import numpy as np\nnp.zeros(3).shape\nGrid().fill()\nCell().paint()\n"
    # shape is an ndarray attribute, fill a member of both classes
    ambiguous = ambiguous_members([module])
    assert ambiguous == {"Grid.shape", "Grid.fill", "Cell.fill"}
    assert unread(module, [reader]) == []
    assert unread(module, [reader], "", ambiguous) == [
        (3, "Grid.shape"), (5, "Grid.fill"), (8, "Cell.fill")]


def test_scan_flags_defaults_that_no_reader_passes():
    module = ("from dataclasses import dataclass\n"
              "def grow(x, by=1, *, clip=None):\n    return x\n"
              "class Box:\n    def __init__(self, side, color='red'):\n        pass\n"
              "    def scale(self, k=2, lock=False):\n        pass\n"
              "    @staticmethod\n    def unit(side=1):\n        pass\n"
              "@dataclass\nclass Cfg:\n    n: int = 1\n    m: int = 2\n"
              "def _private(flag=True):\n    pass\n")
    reader = "from pkg import grow as g\ng(1, 2)\nBox(1).scale(3)\nBox.unit(4)\nCfg(m=5)\n"
    assert unpassed(module, [reader]) == [(2, "grow(clip)"), (5, "Box(color)"),
                                          (7, "scale(lock)"), (14, "Cfg(n)")]
    assert [name for _, name in unpassed(module, [])] == [
        "grow(by)", "grow(clip)", "Box(color)", "scale(k)", "scale(lock)", "unit(side)",
        "Cfg(n)", "Cfg(m)"]


def test_scan_flags_parameters_every_call_sets_alike():
    module = ("def pick(a, axis, idx):\n    return a\n"
              "def norm(a, p=2, eps=1e-8):\n    return a\n"
              "def spread(a, *, k=1):\n    return a\n"
              "def _hidden(a, flag):\n    return a\n"
              "def unused(a, b=3):\n    return a\n")
    reader = ("import pkg as P\nP.pick(x, 0, [1])\nP.pick(y, 0, idx)\n"
              "norm(x, 2)\nnorm(y, p=2, eps=1e-6)\n"
              "spread(x, k=2)\nspread(x, **opts)\n"
              "_hidden(x, True)\n")
    assert single_valued(module, [reader]) == [(1, "pick(axis)"), (3, "norm(p)")]
    # a call that leaves a parameter out passes its default
    assert single_valued(module, [reader + "norm(z)\n"]) == [(1, "pick(axis)"), (3, "norm(p)")]
    assert single_valued(module, [reader + "norm(z, 3)\n"]) == [(1, "pick(axis)")]


# the functions that make a Tensor requiring a gradient: the two trainers'
# learnable twins and the gradient check's probe
LEARNABLE_MAKERS = {"synth.train", "seedcut.train_seedcut", "tensor.grad_check"}


def learnable_makers(source, module):
    """The functions of a module that make a Tensor which may require a
    gradient, as {"module.function"} (a method as "module.Class.method").

    A maker is a call that passes ``requires_grad`` as anything but the
    literal False, by keyword or as Tensor's second positional argument, or
    an assignment of anything but the literal False to an attribute
    ``requires_grad``; a nested function counts as the top-level function or
    method it is in.
    """
    found = set()

    def scan(node, name):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign):
                values = [sub.value for t in sub.targets
                          if isinstance(t, ast.Attribute) and t.attr == "requires_grad"]
            elif isinstance(sub, ast.Call):
                values = [kw.value for kw in sub.keywords if kw.arg == "requires_grad"]
                callee = sub.func.id if isinstance(sub.func, ast.Name) else getattr(
                    sub.func, "attr", None)
                if callee == "Tensor" and len(sub.args) > 1:
                    values.append(sub.args[1])
            else:
                continue
            if any(literal(v) != "False" for v in values):
                found.add(f"{module}.{name}")

    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                scan(item, f"{node.name}.{item.name}" if isinstance(item, ast.FunctionDef)
                     else node.name)
        elif isinstance(node, ast.FunctionDef):
            scan(node, node.name)
        else:
            scan(node, "<module>")
    return found


# the functions that set the flag without making a learnable: the
# constructor stores its argument, and an op's output requires a gradient
# only when one of its parents does
FLAG_SETTERS = {"tensor.Tensor.__init__", "tensor._node"}


def test_only_the_trainers_and_the_gradient_check_make_learnables():
    found = set().union(*(learnable_makers(p.read_text(), p.stem) for p in PACKAGE))
    assert found == LEARNABLE_MAKERS | FLAG_SETTERS


def test_scan_names_every_maker_of_a_learnable():
    module = ("import numpy as np\nfrom .tensor import Tensor\nfrom . import tensor as T\n"
              "def fit(x):\n    def twin(a):\n        return Tensor(a, requires_grad=True)\n"
              "    return twin(x)\n"
              "def frozen(x):\n    return Tensor(x, requires_grad=False), Tensor(x)\n"
              "def flagged(x, family):\n    return T.Tensor(x, family == 'steered')\n"
              "class Params:\n    def __init__(self, x):\n"
              "        self.t = Tensor(x, requires_grad=bool(x))\n"
              "PROBE = Tensor(0.0, requires_grad=True)\n"
              "def thaw(t):\n    t.requires_grad = True\n    return t\n"
              "def freeze(t):\n    t.requires_grad = False\n    return t\n")
    assert learnable_makers(module, "pkg") == {"pkg.fit", "pkg.flagged", "pkg.Params.__init__",
                                               "pkg.<module>", "pkg.thaw"}
