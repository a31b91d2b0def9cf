"""Tests of the benchmark's own logic: python3 -m pytest bench/tests -q"""

import contextlib
import io
import json
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gate  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def run_cli(argv: str) -> tuple[int, str]:
    from corrgap.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv.split())
    return code, out.getvalue()


# -- tail percentile rule ------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(15, 50), (20, 50), (21, 52), (100, 90), (101, 90), (400, 97), (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    tail = stats.tail_percentile(count)
    assert tail == expected
    if count > 20:
        assert stats.beyond(count, tail) >= 10
        higher = [p for p in stats.TAIL_CANDIDATES if p > tail]
        assert all(stats.beyond(count, p) < 10 for p in higher)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 50) == 50.0
    assert stats.percentile(values, 90) == 90.0
    assert stats.percentile(values, 99.9) == 100.0
    assert stats.percentile([3.0], 50) == 3.0


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_children_once():
    spans = [
        Span("cli", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("cli", 20.0, 30.0, None, 1),
        Span("c", 21.0, 25.0, 4, 1),
        Span("d", 23.0, 27.0, 4, 1),  # overlaps c: covered once
        Span("e", 29.0, 35.0, 4, 1),  # runs past its parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 3.0, 4.0, 4.0, 6.0])


def test_layer_metrics_from_synthetic_spans():
    tracer = tracing.Tracer()
    tracer.installed = {"worst_case.lp"}
    tracer.spans = [
        ["cli", 0.0, 0.010, None, 0],
        ["worst_case.lp", 0.002, 0.008, 0, 0],
        ["cli", 0.020, 0.024, None, 1],
    ]
    tracer.attrs = {1: {"n": 16, "support": 17}}
    metrics, absent = tracing.layer_metrics(tracer, overhead_pct=10.0)
    assert metrics["cli.self_ms"] == pytest.approx(4.0)  # (4 + 4) ms over 2 jobs
    assert metrics["worst_case.lp_ms"] == pytest.approx(3.0)
    assert metrics["worst_case.lp_ms_n16"] == pytest.approx(6.0)
    assert metrics["worst_case.lp_calls"] == 0.5
    assert metrics["worst_case.support_max"] == 17
    assert metrics["trace.overhead_pct"] == pytest.approx(10.0)
    assert metrics["trace.coverage_pct"] == pytest.approx(100 * 6 / 14)
    assert "welfare.dp_ms" in absent and "welfare.dp_ms" not in metrics


# -- job streams -----------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_job_stream(workload, tmp_path):
    first = workloads.build_deck(workload, 11, tmp_path)
    again = workloads.build_deck(workload, 11, tmp_path)
    assert first == again
    assert [j.expect for j in first[0]] == [j.expect for j in again[0]]
    assert list(islice(workloads.passes(first[0], 11), 3)) == list(islice(workloads.passes(again[0], 11), 3))
    other = workloads.build_deck(workload, 12, tmp_path)
    if first[1] or any("--seed" in j.argv for j in first[0]):
        assert other != first


def test_every_pass_visits_every_job_once(tmp_path):
    jobs, _ = workloads.build_deck("battery", 5, tmp_path)
    first, second = islice(workloads.passes(jobs, 5), 2)
    assert sorted(j.argv for j in first) == sorted(j.argv for j in jobs) == sorted(j.argv for j in second)
    assert first != second


def test_prepare_writes_the_instance_files(tmp_path):
    jobs = workloads.prepare("lp16", 3, tmp_path)
    _, files = workloads.build_deck("lp16", 3, tmp_path)
    assert jobs == workloads.build_deck("lp16", 3, tmp_path)[0]
    assert all(path.read_text(encoding="utf-8") == text for path, text in files.items())
    # the five n=16 files share one table and differ in their marginals
    n16 = [json.loads(text) for path, text in files.items() if path.name.endswith("_n16.json")]
    assert len(n16) == 5 and all(len(f["function"]["values"]) == 1 << 16 for f in n16)
    assert all(f["function"] == n16[0]["function"] for f in n16)
    assert len({tuple(f["marginals"]) for f in n16}) == 5


def test_closed_forms():
    assert workloads.max_binomial_expectation(2) == pytest.approx(1 - 0.25**2 + 1 - 0.75**2)
    assert workloads.threshold_kappa(3) == pytest.approx(27 / 19)


# -- correctness gate --------------------------------------------------------------


def job(argv: str, **expect) -> workloads.Job:
    return workloads.Job(tuple(argv.split()), expect)


def tampered(stdout: str, **changes) -> str:
    payload = json.loads(stdout)
    for path, value in changes.items():
        target = payload
        *parents, leaf = path.split("__")
        for key in parents:
            target = target[key]
        target[leaf] = value
    return json.dumps(payload)


def test_gate_worst_case():
    j = job("worst-case --builtin example3 --n 4", L=1.0)
    code, out = run_cli(" ".join(j.argv))
    assert gate.check(j, code, out) is None
    assert "certificate" in gate.check(j, code, tampered(out, certified=False))
    assert "closed form" in gate.check(j, code, tampered(out, value=0.9))
    assert "exit code" in gate.check(j, 2, out)
    assert "not JSON" in gate.check(j, 0, "error: nope")


def test_gate_gap_and_monte_carlo():
    j = job("gap --builtin example3 --n 4 --samples 20000 --seed 3", L=1.0, kappa=workloads.threshold_kappa(4))
    code, out = run_cli(" ".join(j.argv))
    assert gate.check(j, code, out) is None
    payload = json.loads(out)
    exact, err = payload["independent_value"], payload["independent_mc"]["stderr"]
    assert "stderr" in gate.check(j, code, tampered(out, independent_mc__estimate=exact + 10 * err))
    assert gate.check(j, code, tampered(out, independent_mc__estimate=exact - 4 * err)) is None
    assert "below independent" in gate.check(j, code, tampered(out, worst_value=exact - 0.1))
    assert "kappa" in gate.check(j, code, tampered(out, kappa=1.3))


def test_gate_example2_independent_leg():
    j = job("gap --builtin example2 --k 3", L=3.0, I=workloads.max_binomial_expectation(3))
    code, out = run_cli(" ".join(j.argv))
    assert gate.check(j, code, out) is None
    assert "independent_value" in gate.check(j, code, tampered(out, independent_value=1.5))


def test_gate_scheme_welfare_and_flags():
    j = job("certify-scheme --builtin example3 --n 3")
    code, out = run_cli(" ".join(j.argv))
    assert gate.check(j, code, out) is None
    assert "eta_star" in gate.check(j, code, tampered(out, eta_star=1.5))
    assert "beta_star" in gate.check(j, code, tampered(out, beta_star="unbounded"))
    assert "cross-monotone" in gate.check(j, code, tampered(out, cross_monotone=False))

    j = job("welfare --builtin integrality_gap", opt=11.0, upper=12.0)
    code, out = run_cli(" ".join(j.argv))
    assert gate.check(j, code, out) is None
    assert "above upper bound" in gate.check(j, code, tampered(out, opt_ip=13.0))
    assert "rounding" in gate.check(j, code, tampered(out, rounding_value=1.0))

    j = job("robust --builtin example1 --n 4")
    code, out = run_cli(" ".join(j.argv))
    assert gate.check(j, code, out) is None
    assert "chain_ok" in gate.check(j, code, tampered(out, chain_ok=False))

    j = job("split-verify --builtin example3 --n 2 --counts 2,2")
    code, out = run_cli(" ".join(j.argv))
    assert gate.check(j, code, out) is None
    assert "all_passed" in gate.check(j, code, tampered(out, all_passed=False))


# -- tracer installation -------------------------------------------------------------


def test_tracer_rebinds_by_identity_and_restores():
    import corrgap.cli
    import corrgap.gap
    import corrgap.worst_case

    original = corrgap.worst_case.worst_case_lp
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert corrgap.gap.worst_case_lp is corrgap.worst_case.worst_case_lp is corrgap.cli.worst_case_lp
        assert corrgap.gap.worst_case_lp is not original
        span = tracer.begin_job(0)
        code, out = run_cli("gap --builtin example2 --k 2")
        tracer.close(span)
    finally:
        tracer.uninstall()
    assert code == 0 and corrgap.gap.worst_case_lp is original
    names = [s.name for s in tracer.finished_spans()]
    # installed again for the next traced pass, the tracer keeps adding spans
    tracer.install()
    try:
        assert corrgap.cli.worst_case_lp is not original
    finally:
        tracer.uninstall()
    assert corrgap.cli.worst_case_lp is original
    assert names[0] == "cli" and {"gap", "worst_case.lp", "distributions.exact", "instances.build"} <= set(names)
    metrics, absent = tracing.layer_metrics(tracer, 0.0)
    assert metrics["worst_case.lp_calls"] == 1 and metrics["core.value_calls"] == 0
    # the LP materialises the CoverageMax table; the independent leg reuses it
    assert metrics["core.values_cold_frac"] == 0.5


def test_missing_target_reports_metric_absent(monkeypatch):
    targets = tuple(
        tracing.Target(t.span, t.module, "no_such_function") if t.span == "welfare.dp" else t
        for t in tracing.TARGETS
    )
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics, absent = tracing.layer_metrics(tracer, 0.0)
    assert "welfare.dp_ms" in absent and "welfare.bound_ms" in metrics


def test_counts_share_calls_of_schemes():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, _ = run_cli("certify-scheme --builtin example3 --n 3")
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counts["cost_sharing.share"] > 0 and tracer.counts[tracing.VALUE_COUNTER] > 0


# -- runner ---------------------------------------------------------------------


def test_runner_counts_nondeterministic_and_repeated_bad_output():
    import run

    calls = []

    def fake_main(argv):
        calls.append(argv)
        print(json.dumps({"chain_ok": True, "call": len(calls) if argv[-1] == "drift" else 0}))
        return 0

    runner = run.Runner(fake_main)
    steady, drifting = job("robust --builtin steady"), job("robust --builtin drift")
    for j in (steady, drifting, steady, drifting):
        runner.execute(j)
    assert runner.attempted == 4
    assert len(runner.failures) == 1 and "differs" in runner.failures[0]

    def bad_main(argv):
        print(json.dumps({"chain_ok": False}))
        return 0

    runner = run.Runner(bad_main)
    for _ in range(3):
        runner.execute(steady)
    assert len(runner.failures) == 3  # every repeat of a failing job fails


def test_timings_keep_each_jobs_best_run():
    import run

    fast, slow = job("gap --builtin fast"), job("gap --builtin slow")
    timings = run.Timings()
    for argv, wall, cpu in ((fast.argv, 2.0, 3.0), (slow.argv, 9.0, 9.0), (fast.argv, 1.0, 4.0), (slow.argv, 7.0, 8.0)):
        timings.add(argv, wall, cpu)
    assert timings.best_latencies() == [1.0, 7.0, 1.0, 7.0]
    # a deck that lists a job twice counts its best twice
    assert timings.best_pass([fast, slow, slow]) == (15.0, 19.0)


def test_setup_probes_are_spread_over_the_timed_phase():
    import run

    def fake_main(argv):
        time.sleep(0.002)
        print(json.dumps({"chain_ok": True}))
        return 0

    probed_at = []

    def probe():
        probed_at.append(time.perf_counter())
        time.sleep(0.01)
        return 0.25

    start = time.perf_counter()
    _, traced, setup = run.timed_phase(run.Runner(fake_main), [job("robust --builtin steady")], 1, 0.3, probe=probe)
    assert traced is None and setup == [0.25] * run.SETUP_PROBES
    # the first probe follows the first pass, the last one comes late in the
    # phase, and no two run back to back
    assert probed_at[0] - start < 0.05 and probed_at[-1] - start > 0.28
    assert min(b - a for a, b in zip(probed_at, probed_at[1:])) > 0.01
