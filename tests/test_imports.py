"""Every module of the package uses each name it imports (`__init__.py` is
left out: its imports are the package's exports), no function of the
checking modules takes a tolerance or pivot cap per call, only `core`
computes a unit scale, only `core` names the size cap `MAX_EXACT`, only
`worst_case` names single precision, and the command line writes its
reports at one point."""

import ast
from pathlib import Path

import pytest

import corrgap

MODULES = sorted(p for p in Path(corrgap.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = [name for name in imported_names(tree) if name not in used_names(tree)]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Sequence, Callable\nx: Sequence = os.sep\n")
    assert [n for n in imported_names(tree) if n not in used_names(tree)] == ["Callable"]


# The checks of these modules read their module's tolerance and pivot cap
# (CHECK_TOL, CERT_TOL, LP_TOL, _PIVOTS_PER_COLUMN) at call time, so that
# every verdict is made under one rule; a test patches the constant instead.
ONE_TOLERANCE_MODULES = ("core.py", "cost_sharing.py", "worst_case.py")
PER_CALL_KNOBS = {"tol", "max_iter"}


def per_call_knobs(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            name = getattr(node, "name", "<lambda>")
            found += [f"{name}({p.arg})" for p in params if p and p.arg in PER_CALL_KNOBS]
    return found


@pytest.mark.parametrize("name", ONE_TOLERANCE_MODULES)
def test_no_per_call_tolerance(name):
    path = Path(corrgap.__file__).parent / name
    knobs = per_call_knobs(ast.parse(path.read_text(encoding="utf-8")))
    assert knobs == [], f"{name} takes a per-call tolerance or pivot cap: {knobs}"


def test_check_sees_a_per_call_tolerance():
    tree = ast.parse("def f(x, tol=1e-9):\n    def g(*, max_iter): pass\ndef h(tolerance): pass\n")
    assert per_call_knobs(tree) == ["f(tol)", "g(max_iter)"]


# A table's unit scale is computed once, where core checks the table; every
# other module reads `f.scale`, so the rule for a usable unit stays in core.
def unit_scale_calls(tree: ast.Module) -> int:
    return sum(
        isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "unit_scale"
        for node in ast.walk(tree)
    )


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_no_unit_scale_outside_core(path):
    calls = unit_scale_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert calls == 0, f"{path.name} computes unit_scale itself ({calls} calls); read f.scale"


def test_check_sees_a_unit_scale_call():
    tree = ast.parse("a = unit_scale(v)\nb = core.unit_scale(v)\nc = f.scale\nunit_scale = 1\n")
    assert unit_scale_calls(tree) == 2


# The ground-set size cap is core's: every set function is capped where it
# is built, so no engine restates MAX_EXACT, by name, attribute or import.
def size_cap_mentions(tree: ast.Module) -> int:
    return sum(
        (isinstance(node, ast.Name) and node.id == "MAX_EXACT")
        or (isinstance(node, ast.Attribute) and node.attr == "MAX_EXACT")
        or (isinstance(node, ast.alias) and node.name == "MAX_EXACT")
        for node in ast.walk(tree)
    )


NOT_CORE = sorted(p for p in Path(corrgap.__file__).parent.glob("*.py") if p.name != "core.py")


@pytest.mark.parametrize("path", NOT_CORE, ids=lambda p: p.name)
def test_no_size_cap_outside_core(path):
    mentions = size_cap_mentions(ast.parse(path.read_text(encoding="utf-8")))
    assert mentions == 0, f"{path.name} names MAX_EXACT ({mentions} times); core alone sizes tables"


def test_check_sees_a_size_cap_mention():
    tree = ast.parse(
        "from .core import MAX_EXACT as cap\nimport corrgap.core as c\n"
        "a = np.arange(MAX_EXACT)\nb = c.MAX_EXACT\nMAX = 16\n"
    )
    assert size_cap_mentions(tree) == 3


# Single precision only proposes entering columns inside worst_case's
# pricing, where float64 then decides; no float32 number may reach a report
# or a certificate, so no other module names the type, by name, attribute
# (np.float32, np.single) or dtype string.
SINGLE_NAMES = {"float32", "single"}
SINGLE_DTYPES = {"float32", "single", "f4", "<f4", ">f4", "=f4", "|f4"}


def single_precision_mentions(tree: ast.Module) -> int:
    return sum(
        (isinstance(node, ast.Name) and node.id == "float32")
        or (isinstance(node, ast.Attribute) and node.attr in SINGLE_NAMES)
        or (isinstance(node, ast.alias) and node.name in SINGLE_NAMES)
        or (isinstance(node, ast.Constant) and node.value in SINGLE_DTYPES)
        for node in ast.walk(tree)
    )


NOT_WORST_CASE = sorted(p for p in Path(corrgap.__file__).parent.glob("*.py") if p.name != "worst_case.py")


@pytest.mark.parametrize("path", NOT_WORST_CASE, ids=lambda p: p.name)
def test_no_single_precision_outside_pricing(path):
    mentions = single_precision_mentions(ast.parse(path.read_text(encoding="utf-8")))
    assert mentions == 0, f"{path.name} names float32 ({mentions} times); only pricing may"


def test_check_sees_single_precision():
    tree = ast.parse(
        "from numpy import float32\nimport numpy as np\na = np.float32(1)\nb = np.single\n"
        "c = x.astype('f4')\nd = np.zeros(3, dtype=\"float32\")\nsingle = float32\ne = 'f8'\n"
    )
    assert single_precision_mentions(tree) == 6


# Each command returns its report and `main` alone writes it, through
# `_emit`, so every report passes one check before it leaves the program.
# `list-instances` writes text of its own.
EMITTERS = {"_emit", "sys.stdout.write"}


def emitting_calls(tree: ast.Module) -> list[tuple[str, str]]:
    """(top-level function, callee) for each call of `_emit` or
    `sys.stdout.write`, nested functions included."""
    return [
        (fn.name, callee)
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and (callee := ast.unparse(node.func)) in EMITTERS
    ]


def test_one_emission_point():
    path = Path(corrgap.__file__).parent / "cli.py"
    calls = emitting_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert [c for c in calls if c[1] == "_emit"] == [("main", "_emit")]
    handlers = [c for c in calls if c[0].startswith("_cmd_") and c[0] != "_cmd_list_instances"]
    assert handlers == [], f"command handlers that write their own output: {handlers}"


def test_check_sees_a_handler_that_emits():
    tree = ast.parse(
        "def _cmd_a(args):\n    _emit({}, args)\n"
        "def _cmd_b(args):\n    def inner():\n        sys.stdout.write('x')\n"
        "def main():\n    _emit(payload, args)\n"
    )
    assert emitting_calls(tree) == [("_cmd_a", "_emit"), ("_cmd_b", "sys.stdout.write"), ("main", "_emit")]
