"""The benchmark's per-layer tracer wraps corrgap functions by name, and a
target that no longer exists is skipped silently, leaving its metric absent.
These tests fail instead when a change to corrgap leaves a tracer target
behind. `bench/tracing.py` is read and executed in a fresh namespace; no
file under `bench/` is imported as a module or written."""

import dataclasses
import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

import corrgap.cli  # noqa: F401  (imports every corrgap module the tracer scans)
from corrgap.core import SetFunction
from corrgap.cost_sharing import CostShareScheme

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# Targets of functions that corrgap has dropped; the benchmark's own next
# change removes them from its list.
STALE = {
    ("corrgap.robust", "solve_robust"),
    ("corrgap.robust", "solve_independent"),
    ("corrgap.split", "reduce_to_partition"),
}


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    sys.modules[module.__name__] = module  # the dataclass decorator looks its module up
    try:
        exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(module))
    finally:
        del sys.modules[module.__name__]
    return module


def resolve(target):
    holder = importlib.import_module(target.module)
    for part in target.attr.split("."):
        holder = getattr(holder, part, None)
    return holder


def test_every_target_resolves_but_the_stale_ones(tracing):
    missing = {(t.module, t.attr) for t in tracing.TARGETS if resolve(t) is None}
    assert missing <= STALE, f"tracer targets gone from corrgap: {sorted(missing - STALE)}"


def test_some_set_function_defines_value():
    modules = [m for name, m in sys.modules.items() if name.startswith("corrgap.")]
    owners = [
        cls.__name__
        for m in modules
        for cls in vars(m).values()
        if inspect.isclass(cls) and issubclass(cls, SetFunction) and "value" in vars(cls)
    ]
    assert owners, "no SetFunction class defines `value`: the value-call counter counts nothing"


def test_scheme_is_a_dataclass_with_a_share_field():
    # the tracer counts share calls through dataclasses.replace(scheme, share=...)
    assert dataclasses.is_dataclass(CostShareScheme)
    assert "share" in {field.name for field in dataclasses.fields(CostShareScheme)}
