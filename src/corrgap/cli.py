"""Command-line front end.

Commands: gap | worst-case | robust | welfare | split-verify | certify-scheme
| verify | list-instances. Each command returns its report, and `main` writes
it once. Exit codes: 0 success, 1 a report whose `passed` is false, 2
validation error (a report that would hold an inf or NaN is one), 3 size-cap
exceeded, 4 the simplex stalled. Output is JSON (canonical) or a flattened
CSV projection, byte-identical across runs for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .core import Instance, SizeCapError, ValidationError
from .cost_sharing import certify, incremental_scheme
from .distributions import check_sample_count, independent_expectation_mc
from .gap import correlation_gap
from .instances import REGISTRY, WelfareCase, build_builtin, builtin_defaults, verification_report
from .robust import DecisionSpace, approximation_ratio
from .split import verify_split_properties
from .welfare import welfare_report
from .worst_case import SimplexStallError, verify_certificate, worst_case_lp

EXIT_OK = 0
EXIT_FACT_FAILURES = 1
EXIT_VALIDATION = 2
EXIT_SIZE_CAP = 3
EXIT_SOLVER = 4


def _add_source_args(sub: argparse.ArgumentParser):
    sub.add_argument("--instance", metavar="PATH", help="instance JSON file")
    sub.add_argument("--builtin", metavar="NAME", help="built-in instance name")
    sub.add_argument("--n", type=int, help="size parameter for builtins that take one")
    sub.add_argument("--k", type=int, help="block/player count for builtins that take one")
    sub.add_argument("--seed", type=int, help="seed for seeded builtins or Monte Carlo")


def _add_output_args(sub: argparse.ArgumentParser):
    sub.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first `main` call and reused by every
    later call in the process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="corrgap",
        description="worst-case-over-correlations expectations, gaps, and verifications",
    )
    parser.add_argument(
        "--list-instances", action="store_true", help="list built-in instances and exit"
    )
    subs = parser.add_subparsers(dest="command")

    gap = subs.add_parser("gap", help="correlation gap of an instance")
    _add_source_args(gap)
    _add_output_args(gap)
    gap.add_argument("--samples", type=int, help="Monte Carlo the independent leg (needs --seed)")
    gap.add_argument("--eta", type=float, help="declared summability constant for the bound")
    gap.add_argument("--beta", type=float, help="declared budget-balance constant for the bound")

    wc = subs.add_parser("worst-case", help="worst-case distribution LP with dual certificate")
    _add_source_args(wc)
    _add_output_args(wc)

    robust = subs.add_parser("robust", help="robust vs independent decisions over a space")
    _add_source_args(robust)
    _add_output_args(robust)

    welfare = subs.add_parser("welfare", help="exact welfare optimum, bound, and rounding value")
    _add_source_args(welfare)
    _add_output_args(welfare)

    split = subs.add_parser("split-verify", help="check the split-invariance properties")
    _add_source_args(split)
    _add_output_args(split)
    split.add_argument(
        "--counts", metavar="C1,C2,...", help="copies per element (default: 2 for every element)"
    )

    cert = subs.add_parser("certify-scheme", help="certify the incremental scheme on an instance")
    _add_source_args(cert)
    _add_output_args(cert)

    verify = subs.add_parser("verify", help="run the full reproduction suite")
    verify.add_argument("--all", action="store_true", help="run everything (the default)")
    verify.add_argument("--scale", type=int, default=1, help="trial-count multiplier")
    _add_output_args(verify)

    subs.add_parser("list-instances", help="list built-in instances")
    return parser


def _load_json_file(path: str) -> dict:
    # Imported here: orjson pulls in uuid and zoneinfo, which only file reads should pay for.
    import orjson

    try:
        with open(path, "rb") as handle:
            return orjson.loads(handle.read())
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except orjson.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed JSON in {path} (strict UTF-8 JSON; numbers must be finite): {exc}"
        ) from None


def _load_source(args) -> object:
    if bool(args.instance) == bool(args.builtin):
        raise ValidationError("exactly one of --instance or --builtin is required")
    params = builtin_defaults(args.builtin) if args.builtin else {}
    for key in ("n", "k", "seed"):
        if getattr(args, key, None) is None or key in params:
            continue
        if key == "k" and args.command == "welfare":
            continue  # --k is the player count
        if key == "seed" and args.command == "gap" and args.samples is not None:
            continue  # --seed is the Monte Carlo seed
        source = f"builtin {args.builtin!r}" if args.builtin else "an --instance file"
        raise ValidationError(
            f"{source} does not take parameter {key!r}, and {args.command} does not read --{key}"
        )
    if args.builtin:
        return build_builtin(args.builtin, **{key: getattr(args, key, None) for key in params})
    data = _load_json_file(args.instance)
    if not isinstance(data, dict):
        raise ValidationError("instance JSON must be an object")
    if "decisions" in data:
        return DecisionSpace.from_json(data)
    if "players" in data:
        return WelfareCase.from_json(data)
    return Instance.from_json(data)


def _as_instance(source: object) -> Instance:
    if isinstance(source, Instance):
        return source
    if isinstance(source, WelfareCase):
        return source.instance()
    raise ValidationError("this command needs a single instance, not a decision space")


def _flatten(payload: object, name: str = "") -> list[tuple[str, object]]:
    """(dotted name, value) cells of a report, in key order."""
    if isinstance(payload, dict):
        prefix = f"{name}." if name else ""
        return [cell for key, v in payload.items() for cell in _flatten(v, prefix + key)]
    if isinstance(payload, list):
        if all(isinstance(v, (int, float, str, bool, type(None))) for v in payload):
            return [(name, ";".join("" if v is None else str(v) for v in payload))]
        return []  # nested tables are JSON-only
    return [(name, payload)]


def _to_csv(payload: dict) -> str:
    if "facts" in payload:  # verification report: one row per fact
        lines = ["name,expected,got,tol,passed"]
        for fact in payload["facts"]:
            lines.append(
                ",".join(
                    "" if fact[key] is None else str(fact[key])
                    for key in ("name", "expected", "got", "tol", "passed")
                )
            )
        tail = [f"total,{payload['total']}", f"failed,{payload['failed']}"]
        return "\n".join(lines + tail) + "\n"
    cells = _flatten(payload)
    header = ",".join(name for name, _ in cells)
    row = ",".join("" if v is None else str(v) for _, v in cells)
    return header + "\n" + row + "\n"


def _emit(payload: dict, args) -> None:
    """Write a report, the CLI's one exit for output. A report holding an inf
    or NaN is refused in either format: RFC 8259 JSON has no such numbers."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise ValidationError("the report holds an inf or NaN, which JSON cannot carry") from None
    if args.format == "csv":
        text = _to_csv(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _cmd_gap(args) -> dict:
    inst = _as_instance(_load_source(args))
    if args.samples is not None:
        if args.seed is None:
            raise ValidationError("--samples requires --seed for reproducibility")
        check_sample_count(args.samples)
    payload = correlation_gap(inst, eta=args.eta, beta=args.beta).to_json()
    if args.samples is not None:
        mc = independent_expectation_mc(inst.function, inst.marginals, args.samples, args.seed)
        payload["independent_mc"] = mc.to_json()
    return payload


def _cmd_worst_case(args) -> dict:
    inst = _as_instance(_load_source(args))
    result = worst_case_lp(inst)
    payload = result.to_json()
    payload["certified"] = verify_certificate(inst, result)  # last: the CSV column order
    return payload


def _cmd_robust(args) -> dict:
    space = _load_source(args)
    if not isinstance(space, DecisionSpace):
        raise ValidationError("this command needs a decision space (a list of decisions)")
    return approximation_ratio(space).to_json()


def _cmd_welfare(args) -> dict:
    source = _load_source(args)
    function = _as_instance(source).function
    players = args.k if args.k is not None else getattr(source, "players", None)
    if players is None:
        raise ValidationError("welfare on a plain instance needs --k players")
    return welfare_report(function, players).to_json()


def _cmd_split_verify(args) -> dict:
    inst = _as_instance(_load_source(args))
    if args.counts:
        try:
            counts = [int(c) for c in args.counts.split(",")]
        except ValueError:
            raise ValidationError(f"cannot parse --counts {args.counts!r}") from None
    else:
        counts = [2] * inst.n
    return verify_split_properties(inst, counts).to_json()


def _cmd_certify_scheme(args) -> dict:
    inst = _as_instance(_load_source(args))
    return certify(incremental_scheme(inst.function), inst.function).to_json()


def _cmd_verify(args) -> dict:
    return verification_report(scale=args.scale)


def _cmd_list_instances() -> None:
    for name in sorted(REGISTRY):
        builtin = REGISTRY[name]
        params = ", ".join(f"{k}={v}" for k, v in builtin.defaults.items()) or "-"
        sys.stdout.write(f"{name:20s} [{builtin.kind:8s}] ({params}) {builtin.summary}\n")


_HANDLERS = {
    "gap": _cmd_gap,
    "worst-case": _cmd_worst_case,
    "robust": _cmd_robust,
    "welfare": _cmd_welfare,
    "split-verify": _cmd_split_verify,
    "certify-scheme": _cmd_certify_scheme,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Parse argv, build the command's report, emit it once and return the
    exit code: 1 for a report whose `passed` is false, else 0."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_instances or args.command == "list-instances":
        _cmd_list_instances()
        return EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_VALIDATION
    try:
        payload = _HANDLERS[args.command](args)
        _emit(payload, args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except SimplexStallError as exc:
        print(f"solver: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK if payload.get("passed", True) else EXIT_FACT_FAILURES


if __name__ == "__main__":
    sys.exit(main())
