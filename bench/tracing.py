"""Per-layer tracing installed from outside the program.

`Tracer.install` replaces each traced corrgap function by a wrapper that
records a span (name, start, end, parent, job id) or bumps a counter. The
wrapper is bound in every corrgap module that imported the function, found
by object identity, and on the class for methods. A target whose module or
name no longer exists is skipped, and every metric resting only on skipped
targets is reported absent. Spans stay in memory until `write`.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    job: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, span.start), min(b, span.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(span.end - span.start - covered)
    return out


@dataclasses.dataclass(frozen=True)
class Target:
    """A corrgap function to trace. kind "span" times it; "scheme" counts calls
    of the `share` oracle of the scheme it returns."""

    span: str
    module: str
    attr: str
    kind: str = "span"


_GENERATORS = (
    "random_coverage_function",
    "random_coverage_instance",
    "random_supermodular_instance",
    "random_monotone_instance",
    "random_ufl_space",
    "two_stage_flow_space",
    "coverage_partition_instance",
    "coverage_two_stage_space",
    "threshold_instance",
    "welfare_gap_case",
)

TARGETS = (
    Target("instances.build", "corrgap.instances", "build_builtin"),
    *(Target("instances.build", "corrgap.instances", g) for g in _GENERATORS),
    Target("instances.verify_report", "corrgap.instances", "verification_report"),
    Target("core.values", "corrgap.core", "SetFunction.values"),
    Target("core.structure", "corrgap.core", "is_monotone"),
    Target("core.structure", "corrgap.core", "is_submodular"),
    Target("core.structure", "corrgap.core", "is_supermodular"),
    Target("worst_case.lp", "corrgap.worst_case", "worst_case_lp"),
    Target("worst_case.cert", "corrgap.worst_case", "verify_certificate"),
    Target("worst_case.closed_form", "corrgap.worst_case", "supermodular_worst_case"),
    Target("distributions.exact", "corrgap.distributions", "independent_expectation_exact"),
    Target("distributions.mc", "corrgap.distributions", "independent_expectation_mc"),
    Target("rng.uniforms", "corrgap.rng", "counter_uniforms"),
    Target("gap", "corrgap.gap", "correlation_gap"),
    Target("robust", "corrgap.robust", "approximation_ratio"),
    Target("robust", "corrgap.robust", "solve_robust"),
    Target("robust", "corrgap.robust", "solve_independent"),
    Target("robust.g", "corrgap.robust", "evaluate_g"),
    Target("split", "corrgap.split", "verify_split_properties"),
    Target("split", "corrgap.split", "split_instance"),
    Target("split", "corrgap.split", "reduce_to_partition"),
    Target("cost_sharing.certify", "corrgap.cost_sharing", "certify"),
    Target("cost_sharing.partial_prefix", "corrgap.cost_sharing", "partial_prefix_cross_monotone"),
    Target("cost_sharing.share", "corrgap.cost_sharing", "incremental_scheme", "scheme"),
    Target("cost_sharing.share", "corrgap.cost_sharing", "lift_scheme", "scheme"),
    Target("welfare.dp", "corrgap.welfare", "welfare_ip_optimum"),
    Target("welfare.bound", "corrgap.welfare", "welfare_upper_bound"),
    Target("welfare.bound", "corrgap.welfare", "rounding_value"),
)

# Single-mask oracle calls: every SetFunction subclass's own `value`.
VALUE_COUNTER = "core.value"


def _corrgap_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "corrgap" or name.startswith("corrgap.")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.attrs: dict[int, dict] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.installed: set[str] = set()
        self.job_names: dict[int, str] = {}
        self._stack: list[int] = []
        self._job = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._job])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def begin_job(self, job: int, name: str = "") -> int:
        """Open the root span of one job."""
        self._job = job
        self.job_names[job] = name
        return self.open("cli")

    def finished_spans(self) -> list[Span]:
        return [Span(*s) for s in self.spans]

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx)
                tracer.counts[f"{name}.error.{type(exc).__name__}"] += 1
                raise
            tracer.close(idx)
            if observe is not None:
                tracer.attrs[idx] = observe(args, kwargs, result)
            return result

        if name == "core.values":
            # cold = this call materialises the table (cache still empty)
            @functools.wraps(fn)
            def values_wrapper(self_, *args, **kwargs):
                if getattr(self_, "_table", 0) is None:
                    tracer.counts["core.values.cold"] += 1
                return wrapper(self_, *args, **kwargs)

            return values_wrapper
        return wrapper

    def _count_wrapper(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _scheme_wrapper(self, key: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            scheme = fn(*args, **kwargs)
            return dataclasses.replace(scheme, share=self._count_wrapper(key, scheme.share))

        return wrapper

    def _rebind(self, original: object, replacement: object) -> None:
        for module in _corrgap_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every target that exists; record which span names are live."""
        for target in TARGETS:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                continue
            owner, _, attr = target.attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, attr, None) if holder is not None else None
            if original is None:
                continue
            if target.kind == "scheme":
                wrapper = self._scheme_wrapper(target.span, original)
            else:
                wrapper = self._span_wrapper(target.span, original)
            if owner:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)
            else:
                self._rebind(original, wrapper)
            self.installed.add(target.span)
        core = sys.modules.get("corrgap.core")
        base = getattr(core, "SetFunction", None)
        for module in _corrgap_modules():
            for cls in vars(module).values():
                if (
                    inspect.isclass(cls)
                    and base is not None
                    and issubclass(cls, base)
                    and cls.__module__ == module.__name__
                    and "value" in vars(cls)
                ):
                    self._undo.append((cls, "value", vars(cls)["value"]))
                    setattr(cls, "value", self._count_wrapper(VALUE_COUNTER, vars(cls)["value"]))
                    self.installed.add(VALUE_COUNTER)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def write(self, path, extra: dict) -> None:
        """Dump every span, attribute and counter as one JSON document."""
        payload = dict(extra)
        payload["spans"] = self.spans
        payload["attrs"] = {str(k): v for k, v in self.attrs.items()}
        payload["counts"] = dict(self.counts)
        payload["jobs"] = self.job_names
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _lp_observer(args, kwargs, result) -> dict:
    inst = args[0] if args else kwargs.get("inst")
    return {"n": getattr(inst, "n", None), "support": len(result.distribution.support)}


def _mc_observer(args, kwargs, result) -> dict:
    return {"samples": getattr(result, "samples", 0)}


def _uniforms_observer(args, kwargs, result) -> dict:
    return {"count": len(result)}


_OBSERVERS = {
    "worst_case.lp": _lp_observer,
    "distributions.mc": _mc_observer,
    "rng.uniforms": _uniforms_observer,
}


# -- per-layer metrics --------------------------------------------------------

PER_JOB_MS = {
    "cli.self_ms": ("cli",),
    "instances.build_ms": ("instances.build",),
    "instances.verify_report_ms": ("instances.verify_report",),
    "core.values_ms": ("core.values",),
    "core.structure_ms": ("core.structure",),
    "worst_case.lp_ms": ("worst_case.lp",),
    "worst_case.cert_ms": ("worst_case.cert",),
    "worst_case.closed_form_ms": ("worst_case.closed_form",),
    "distributions.exact_ms": ("distributions.exact",),
    "distributions.mc_ms": ("distributions.mc",),
    "rng.uniforms_ms": ("rng.uniforms",),
    "gap.self_ms": ("gap",),
    "robust.self_ms": ("robust", "robust.g"),
    "split.self_ms": ("split",),
    "cost_sharing.certify_ms": ("cost_sharing.certify",),
    "cost_sharing.partial_prefix_ms": ("cost_sharing.partial_prefix",),
    "welfare.dp_ms": ("welfare.dp",),
    "welfare.bound_ms": ("welfare.bound",),
}

# metric -> (unit, span names it needs)
OTHER = {
    "core.values_cold_frac": ("ratio", ("core.values",)),
    "core.value_calls": ("count", (VALUE_COUNTER,)),
    "worst_case.lp_calls": ("count", ("worst_case.lp",)),
    "worst_case.lp_ms_n16": ("ms", ("worst_case.lp",)),
    "worst_case.support_max": ("count", ("worst_case.lp",)),
    "worst_case.stall_errors": ("count", ("worst_case.lp",)),
    "distributions.mc_samples_per_s": ("1/s", ("distributions.mc",)),
    "rng.uniforms_per_job": ("count", ("rng.uniforms",)),
    "robust.g_evals": ("count", ("robust.g",)),
    "cost_sharing.share_calls": ("count", ("cost_sharing.share",)),
    "trace.overhead_pct": ("%", ("cli",)),
    "trace.coverage_pct": ("%", ("cli",)),
}

UNITS = {**{name: "ms" for name in PER_JOB_MS}, **{name: unit for name, (unit, _) in OTHER.items()}}


def layer_metrics(tracer: Tracer, overhead_pct: float):
    """(metrics, absent): per-layer values over the traced jobs, and the names
    of metrics whose traced functions no longer exist. `overhead_pct` is the
    traced over the untraced time of the same passes, minus 1, in percent."""
    spans = tracer.finished_spans()
    selfs = self_times(spans)
    live = tracer.installed | {"cli"}
    jobs = max(1, sum(1 for s in spans if s.name == "cli"))
    self_by_name: dict[str, float] = defaultdict(float)
    incl_by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, selfs):
        self_by_name[span.name] += own
        incl_by_name[span.name] += span.end - span.start
        calls[span.name] += 1

    metrics: dict[str, float] = {}
    absent: list[str] = []
    for name, needs in PER_JOB_MS.items():
        if not any(n in live for n in needs):
            absent.append(name)
            continue
        metrics[name] = 1e3 * sum(self_by_name[n] for n in needs) / jobs

    lp_attrs = [tracer.attrs.get(i, {}) for i, s in enumerate(spans) if s.name == "worst_case.lp"]
    lp_n16 = [own for s, own in zip(spans, selfs) if s.name == "worst_case.lp"]
    lp_n16 = [t for t, a in zip(lp_n16, lp_attrs) if a.get("n") == 16]
    mc_samples = sum(tracer.attrs.get(i, {}).get("samples", 0) for i, s in enumerate(spans) if s.name == "distributions.mc")
    uniforms = sum(tracer.attrs.get(i, {}).get("count", 0) for i, s in enumerate(spans) if s.name == "rng.uniforms")
    job_time = incl_by_name["cli"]
    other = {
        "core.values_cold_frac": tracer.counts["core.values.cold"] / max(1, calls["core.values"]),
        "core.value_calls": tracer.counts[VALUE_COUNTER] / jobs,
        "worst_case.lp_calls": calls["worst_case.lp"] / jobs,
        "worst_case.lp_ms_n16": 1e3 * statistics.median(lp_n16) if lp_n16 else 0.0,
        "worst_case.support_max": max((a.get("support", 0) for a in lp_attrs), default=0),
        "worst_case.stall_errors": tracer.counts["worst_case.lp.error.SimplexStallError"],
        "distributions.mc_samples_per_s": mc_samples / incl_by_name["distributions.mc"] if mc_samples else 0.0,
        "rng.uniforms_per_job": uniforms / jobs,
        "robust.g_evals": calls["robust.g"] / jobs,
        "cost_sharing.share_calls": tracer.counts["cost_sharing.share"] / jobs,
        "trace.overhead_pct": overhead_pct,
        "trace.coverage_pct": 100.0 * (1.0 - self_by_name["cli"] / job_time) if job_time else 0.0,
    }
    for name, value in other.items():
        if any(n in live for n in OTHER[name][1]):
            metrics[name] = value
        else:
            absent.append(name)
    return metrics, absent
