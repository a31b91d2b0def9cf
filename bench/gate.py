"""Correctness gate: the facts every job's output must show.

`check` returns None when the output passes and a one-line reason when it
does not. It reads only the JSON the CLI printed and the closed forms the
workload attached to the job, never corrgap itself.
"""

from __future__ import annotations

import json
import math

from workloads import Job

TOL = 1e-6
MC_STDERRS = 5.0
ROUNDING_FLOOR = 1.0 - 1.0 / math.e


def _close(got, want: float, tol: float = TOL) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol * max(1.0, abs(want))


def _flag(argv: tuple[str, ...], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _worst_case(job: Job, out: dict) -> str | None:
    if out.get("certified") is not True:
        return "certificate not verified"
    if "L" in job.expect and not _close(out.get("value"), job.expect["L"]):
        return f"L = {out.get('value')}, closed form {job.expect['L']}"
    return None


def _gap(job: Job, out: dict) -> str | None:
    worst, indep = out.get("worst_value"), out.get("independent_value")
    if not isinstance(worst, (int, float)) or not isinstance(indep, (int, float)):
        return "missing worst_value or independent_value"
    if worst < indep - TOL * max(1.0, abs(indep)):
        return f"worst value {worst} below independent value {indep}"
    for key, field in (("L", "worst_value"), ("I", "independent_value"), ("kappa", "kappa")):
        if key in job.expect and not _close(out.get(field), job.expect[key]):
            return f"{field} = {out.get(field)}, closed form {job.expect[key]}"
    samples = _flag(job.argv, "--samples")
    if samples is None:
        return None
    mc = out.get("independent_mc")
    if not isinstance(mc, dict):
        return "no Monte Carlo estimate"
    if mc.get("samples") != int(samples) or mc.get("seed") != int(_flag(job.argv, "--seed")):
        return "Monte Carlo samples or seed not echoed"
    est, err = mc.get("estimate"), mc.get("stderr")
    if not isinstance(est, (int, float)) or not isinstance(err, (int, float)) or err <= 0:
        return "Monte Carlo estimate or stderr missing"
    if abs(est - indep) > MC_STDERRS * err:
        return f"Monte Carlo {est} is {abs(est - indep) / err:.1f} stderr from exact {indep}"
    return None


def _certify(job: Job, out: dict) -> str | None:
    for key in ("eta_star", "beta_star"):
        value = out.get(key)
        if not isinstance(value, (int, float)) or value > 1.0 + TOL:
            return f"{key} = {value}, want <= 1"
    if out.get("cross_monotone") is not True:
        return "incremental scheme not cross-monotone"
    return None


def _welfare(job: Job, out: dict) -> str | None:
    opt, upper, rounding = out.get("opt_ip"), out.get("upper_bound"), out.get("rounding_value")
    if not all(isinstance(v, (int, float)) for v in (opt, upper, rounding)):
        return "welfare report incomplete"
    if opt > upper + TOL * max(1.0, abs(upper)):
        return f"optimum {opt} above upper bound {upper}"
    if rounding < ROUNDING_FLOOR * opt - TOL:
        return f"rounding {rounding} below (1-1/e) * optimum {opt}"
    for key, field in (("opt", "opt_ip"), ("upper", "upper_bound")):
        if key in job.expect and not _close(out.get(field), job.expect[key]):
            return f"{field} = {out.get(field)}, expected {job.expect[key]}"
    return None


def _flag_true(field: str):
    def check(job: Job, out: dict) -> str | None:
        return None if out.get(field) is True else f"{field} is not true"

    return check


_CHECKS = {
    "worst-case": _worst_case,
    "gap": _gap,
    "certify-scheme": _certify,
    "welfare": _welfare,
    "split-verify": _flag_true("all_passed"),
    "robust": _flag_true("chain_ok"),
    "verify": _flag_true("passed"),
}


def check(job: Job, exit_code: object, stdout: str) -> str | None:
    """None if the job succeeded and its output shows every required fact."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if not isinstance(out, dict):
        return "stdout is not a JSON object"
    return _CHECKS[job.argv[0]](job, out)
