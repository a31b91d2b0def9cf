import argparse
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from corrgap import cli, core, gap, instances, welfare
from corrgap.cli import _build_parser, _load_source, main
from corrgap.core import MAX_EXACT
from corrgap.distributions import MAX_SAMPLES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestGapCommand:
    def test_builtin_threshold(self, capsys):
        data = run_json(capsys, "gap", "--builtin", "example3", "--n", "3")
        assert data["kappa"] == pytest.approx(27 / 19, abs=1e-9)
        assert data["worst_value"] == pytest.approx(1.0, abs=1e-9)

    def test_builtin_coverage(self, capsys):
        data = run_json(capsys, "gap", "--builtin", "example2", "--k", "2")
        assert data["kappa"] == pytest.approx(2 / 1.375, abs=1e-6)

    def test_builtin_coverage_k4_full_scale(self, capsys):
        data = run_json(capsys, "gap", "--builtin", "example2", "--k", "4")
        assert data["worst_value"] == pytest.approx(4.0, abs=1e-6)
        assert data["kappa"] == pytest.approx(2.109, abs=1e-3)

    def test_bound_flags(self, capsys):
        data = run_json(capsys, "gap", "--builtin", "example3", "--n", "4", "--eta", "1", "--beta", "1")
        assert data["bound_satisfied"] is True

    @pytest.mark.parametrize("flag, value", [("--eta", "0.5"), ("--beta", "nan"), ("--eta", "1e400")])
    def test_bad_bound_constant_exits_2_before_the_lp(self, capsys, monkeypatch, flag, value):
        def no_solve(*args):
            raise AssertionError("the n = 16 LP ran before eta and beta were checked")

        monkeypatch.setattr(gap, "worst_case_lp", no_solve)
        code, out, err = run_cli(capsys, "gap", "--builtin", "example2", "--k", "4", flag, value)
        assert code == 2 and out == ""
        assert err == "error: eta and beta must both be finite and >= 1\n"

    def test_bad_marginal_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"function": {"type": "explicit", "n": 1, "values": [0, 1]}, "marginals": [1.5]}))
        code, _, err = run_cli(capsys, "gap", "--instance", str(bad))
        assert code == 2 and "error" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, _ = run_cli(capsys, "gap", "--instance", str(bad))
        assert code == 2

    def test_non_finite_table_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"function": {"type": "explicit", "n": 2, "values": [0, 1, NaN, 2]}, "marginals": [0.5, 0.5]}')
        code, out, err = run_cli(capsys, "worst-case", "--instance", str(bad))
        assert code == 2 and out == "" and "finite" in err

    @pytest.mark.parametrize("command", ["gap", "worst-case"])
    def test_overflowing_facility_table_exits_2(self, capsys, tmp_path, command):
        bad = tmp_path / "overflow.json"
        function = {"type": "facility_location", "open_costs": [0], "distances": [[1e308], [1e308]]}
        bad.write_text(json.dumps({"function": function, "marginals": [0.5, 0.5]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, "--instance", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1

    def test_explicit_n_mismatch_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "n3.json"
        bad.write_text(json.dumps({"function": {"type": "explicit", "n": 3, "values": [0, 1, 1, 2]}, "marginals": [0.5] * 3}))
        code, out, err = run_cli(capsys, "worst-case", "--instance", str(bad))
        assert code == 2 and out == "" and "n=3" in err

    def test_size_cap_exits_3(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(
            json.dumps(
                {
                    "function": {"type": "coverage_max", "n": 18, "partition": [list(range(18))]},
                    "marginals": [0.5] * 18,
                }
            )
        )
        code, _, err = run_cli(capsys, "gap", "--instance", str(big))
        assert code == 3 and "cap" in err

    def test_both_sources_rejected(self, capsys, tmp_path):
        f = tmp_path / "x.json"
        f.write_text("{}")
        code, _, _ = run_cli(capsys, "gap", "--builtin", "example3", "--instance", str(f))
        assert code == 2

    def test_monte_carlo_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "gap", "--builtin", "example3", "--n", "3", "--samples", "100")
        assert code == 2 and "seed" in err

    @pytest.mark.parametrize(
        "samples, code",
        [(["--samples", "10"], 2), (["--samples", "0", "--seed", "1"], 2),
         (["--samples", "100000000000", "--seed", "1"], 3)],
        ids=["no-seed", "zero", "over-cap"],
    )
    def test_bad_samples_refused_before_the_lp(self, capsys, monkeypatch, samples, code):
        def unreachable(*args, **kwargs):
            raise AssertionError("correlation_gap ran")

        monkeypatch.setattr(cli, "correlation_gap", unreachable)
        got, out, err = run_cli(capsys, "gap", "--builtin", "example2", "--k", "4", *samples)
        assert got == code and out == "" and err.count("\n") == 1

    def test_monte_carlo_reported_and_reproducible(self, capsys):
        a = run_json(capsys, "gap", "--builtin", "example3", "--n", "3", "--samples", "2000", "--seed", "9")
        b = run_json(capsys, "gap", "--builtin", "example3", "--n", "3", "--samples", "2000", "--seed", "9")
        assert a == b
        mc = a["independent_mc"]
        assert abs(mc["estimate"] - a["independent_value"]) <= 4 * mc["stderr"] + 1e-12


class TestInstanceFileParsing:
    """Instance files are strict UTF-8 RFC 8259 JSON; anything else exits 2."""

    GOOD = b'{"function": {"type": "explicit", "n": 1, "values": [0, 1]}, "marginals": [0.5]}'

    def run_bytes(self, capsys, tmp_path, raw):
        path = tmp_path / "input.json"
        path.write_bytes(raw)
        return run_cli(capsys, "gap", "--instance", str(path))

    @pytest.mark.parametrize(
        "raw",
        [
            GOOD.replace(b'"marginals"', b'"note": "\xff", "marginals"'),
            b"[" * 100_000 + b"]" * 100_000,
            GOOD.replace(b"[0, 1]", b"[0, " + b"[" * 100_000 + b"]" * 100_000 + b"]"),
            b"\xef\xbb\xbf" + GOOD,
            GOOD + b" trailing",
        ],
        ids=["invalid-utf8", "deep-nesting", "deep-nesting-in-table", "bom", "trailing-garbage"],
    )
    def test_bad_file_exits_2(self, capsys, tmp_path, raw):
        code, out, err = self.run_bytes(capsys, tmp_path, raw)
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize(
        "number",
        [b"NaN", b"Infinity", b"-Infinity", b"1e400", b"1" + b"0" * 400],
        ids=["nan", "inf", "-inf", "1e400", "401-digit-int"],
    )
    def test_non_finite_number_is_malformed(self, capsys, tmp_path, number):
        raw = self.GOOD.replace(b"[0, 1]", b"[0, " + number + b"]")
        code, out, err = self.run_bytes(capsys, tmp_path, raw)
        assert code == 2 and out == ""
        assert "malformed JSON" in err and "numbers must be finite" in err

    def test_good_file_still_loads(self, capsys, tmp_path):
        code, out, err = self.run_bytes(capsys, tmp_path, self.GOOD)
        assert code == 0, err
        assert json.loads(out)["kappa"] == pytest.approx(1.0)

    def test_tables_and_marginals_parse_bit_identical_to_json(self, tmp_path):
        rng = np.random.default_rng(20260)
        n = 16
        bits = rng.integers(0, 2**64, size=1 << n, dtype=np.uint64)
        values = bits.view(np.float64).copy()
        values[~np.isfinite(values)] = 1.5
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308]  # zeros, subnormals
        special += [1.7976931348623157e308, -1.7976931348623157e308]  # largest finite
        values[: len(special)] = special
        table = values.tolist()
        for j in range(len(special), len(table), 97):  # integer-valued entries, written as JSON ints
            table[j] = int(rng.integers(-(2**62), 2**62)) >> int(rng.integers(0, 62))
        table[-1] = 10**30
        marginals = (bits[:n] >> np.uint64(11)) * 2.0**-53
        marginals = [0.0, 1.0, 5e-324, -0.0] + marginals[4:].tolist()
        text = json.dumps({"function": {"type": "explicit", "n": n, "values": table}, "marginals": marginals})
        path = tmp_path / "table.json"
        path.write_text(text)

        inst = _load_source(argparse.Namespace(instance=str(path), builtin=None, command="gap"))
        want = json.loads(text)
        got_values = inst.function.values()
        want_values = np.array(want["function"]["values"], dtype=np.float64)
        assert np.array_equal(got_values.view(np.int64), want_values.view(np.int64))
        got_p = np.array(inst.marginals, dtype=np.float64)
        want_p = np.array(want["marginals"], dtype=np.float64)
        assert np.array_equal(got_p.view(np.int64), want_p.view(np.int64))


class TestOtherCommands:
    def test_worst_case_shape(self, capsys):
        data = run_json(capsys, "worst-case", "--builtin", "example3", "--n", "3")
        assert set(data) == {"value", "distribution", "gamma", "lambda", "certified"}
        assert data["certified"] is True
        masks = sorted(e["mask"] for e in data["distribution"]["support"])
        assert masks == [1, 2, 4]

    def test_robust_example1(self, capsys):
        data = run_json(capsys, "robust", "--builtin", "example1", "--n", "4")
        assert data["x_I"] == "3" and data["x_R"] == "4"
        assert data["ratio"] == pytest.approx(11 / 6, abs=1e-9)

    def test_robust_from_decision_space_file(self, capsys, tmp_path):
        from corrgap.instances import two_stage_flow_space

        path = tmp_path / "space.json"
        path.write_text(json.dumps(two_stage_flow_space(4).to_json()))
        data = run_json(capsys, "robust", "--instance", str(path))
        assert data["x_R"] == "4" and data["ratio"] == pytest.approx(11 / 6, abs=1e-9)

    def test_robust_needs_space(self, capsys):
        code, _, _ = run_cli(capsys, "robust", "--builtin", "example3")
        assert code == 2

    def test_gap_rejects_space(self, capsys):
        code, _, _ = run_cli(capsys, "gap", "--builtin", "example1")
        assert code == 2

    def test_welfare_builtin(self, capsys):
        data = run_json(capsys, "welfare", "--builtin", "integrality_gap")
        assert data["opt_ip"] == pytest.approx(11.0, abs=1e-9)
        assert data["upper_bound"] == pytest.approx(12.0, abs=1e-9)

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_welfare_builtin_rejects_nonpositive_k(self, capsys, k):
        code, out, err = run_cli(capsys, "welfare", "--builtin", "integrality_gap", "--k", k)
        assert code == 2 and out == "" and "at least one player" in err

    def test_welfare_k_sets_players_of_welfare_builtin(self, capsys):
        # the 3-player case reaches 11; with 5 players every good can go to its own player
        data = run_json(capsys, "welfare", "--builtin", "integrality_gap", "--k", "5")
        assert data["opt_ip"] == pytest.approx(12.0, abs=1e-9)
        assert data["upper_bound"] == pytest.approx(12.0, abs=1e-9)

    def test_welfare_instance_needs_players(self, capsys):
        code, _, _ = run_cli(capsys, "welfare", "--builtin", "example3", "--n", "3")
        assert code == 2

    def test_welfare_k_is_player_count_for_builtins_without_k(self, capsys):
        data = run_json(capsys, "welfare", "--builtin", "example3", "--n", "4", "--k", "2")
        assert data["opt_ip"] == pytest.approx(2.0, abs=1e-9)
        assert data["ratio_opt_over_upper"] == pytest.approx(1.0, abs=1e-9)

    def test_k_still_refused_by_builtins_without_k_outside_welfare(self, capsys):
        code, out, err = run_cli(capsys, "gap", "--builtin", "example3", "--k", "2")
        assert code == 2 and out == "" and "does not take parameter 'k'" in err

    def test_welfare_from_file_with_players(self, capsys, tmp_path):
        from corrgap.instances import welfare_gap_case

        path = tmp_path / "case.json"
        path.write_text(json.dumps(welfare_gap_case().to_json()))
        data = run_json(capsys, "welfare", "--instance", str(path))
        assert data["opt_ip"] == pytest.approx(11.0, abs=1e-9)

    def test_split_verify(self, capsys):
        data = run_json(
            capsys, "split-verify", "--builtin", "example3", "--n", "2", "--counts", "2,2"
        )
        assert data["all_passed"] is True
        assert data["indep_after"] == pytest.approx(1 - (3 / 4) ** 4, abs=1e-12)

    def test_split_verify_bad_counts(self, capsys):
        code, _, _ = run_cli(capsys, "split-verify", "--builtin", "example3", "--n", "2", "--counts", "x,y")
        assert code == 2

    def test_split_verify_huge_counts_hit_the_cap_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "split-verify", "--builtin", "example3", "--n", "2", "--counts", "1000000000000,1"
        )
        assert code == 3 and out == "" and err.startswith("size cap: split ground set")
        assert time.perf_counter() - start < 1.0

    def test_certify_scheme(self, capsys):
        data = run_json(capsys, "certify-scheme", "--builtin", "example3", "--n", "3")
        assert data["eta_star"] == pytest.approx(1.0, abs=1e-9)
        assert data["beta_star"] == pytest.approx(1.0, abs=1e-9)
        assert data["cross_monotone"] is True

    def test_certify_scheme_cap(self, capsys):
        code, _, _ = run_cli(capsys, "certify-scheme", "--builtin", "example3", "--n", "8")
        assert code == 3

    def test_gap_samples_cap(self, capsys):
        samples = str(MAX_SAMPLES + 1)
        code, out, err = run_cli(capsys, "gap", "--builtin", "example3", "--samples", samples, "--seed", "1")
        assert code == 3 and out == "" and "samples exceeds cap" in err

    def test_list_instances(self, capsys):
        code, out, _ = run_cli(capsys, "list-instances")
        assert code == 0
        for name in ("example1", "example2", "example3", "integrality_gap"):
            assert name in out

    def test_list_instances_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--list-instances")
        assert code == 0 and "example3" in out

    def test_no_command_prints_help(self, capsys):
        code, out, _ = run_cli(capsys)
        assert code == 2 and "usage" in out


class TestOneSizeRule:
    """Every source of a ground set, builtin parameter, file or split counts,
    answers a size above MAX_EXACT with exit 3, one `size cap:` line and
    nothing on stdout. Only a family's own lower bound exits 2."""

    K_OVER = math.isqrt(MAX_EXACT) + 1  # the least k with k^2 > MAX_EXACT

    # (command, builtin, size flag, first size over the cap, largest size below the family's range)
    BUILTIN_SIZES = [
        ("robust", "example1", "--n", MAX_EXACT + 1, 1),
        ("gap", "example3", "--n", MAX_EXACT + 1, 0),
        ("gap", "coverage_random", "--n", MAX_EXACT + 1, 0),
        ("gap", "example2", "--k", K_OVER, 1),
        ("robust", "example2_two_stage", "--k", K_OVER, 1),
    ]

    @pytest.mark.parametrize("command, builtin, flag, over, below", BUILTIN_SIZES)
    def test_builtin_one_past_the_cap_exits_3(self, capsys, command, builtin, flag, over, below):
        code, out, err = run_cli(capsys, command, "--builtin", builtin, flag, str(over))
        assert code == 3 and out == "" and err.startswith("size cap:")

    @pytest.mark.parametrize("command, builtin, flag, over, below", BUILTIN_SIZES)
    def test_builtin_huge_size_exits_3_at_once(self, capsys, command, builtin, flag, over, below):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--builtin", builtin, flag, str(10**9))
        assert code == 3 and out == "" and err.startswith("size cap:")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("command, builtin, flag, over, below", BUILTIN_SIZES)
    def test_builtin_below_its_range_exits_2(self, capsys, command, builtin, flag, over, below):
        code, out, err = run_cli(capsys, command, "--builtin", builtin, flag, str(below))
        assert code == 2 and out == "" and err.startswith("error:")

    @staticmethod
    def oversize_function():
        n = MAX_EXACT + 1
        return {"type": "coverage_max", "n": n, "partition": [list(range(n))]}

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("gap", lambda f: {"function": f, "marginals": [0.5] * (MAX_EXACT + 1)}),
            ("robust", lambda f: {"marginals": [0.5] * (MAX_EXACT + 1), "decisions": [{"label": "a", "function": f}]}),
            ("welfare", lambda f: {"function": f, "players": 2}),
        ],
        ids=["instance", "decision_space", "welfare"],
    )
    def test_file_one_past_the_cap_exits_3(self, capsys, tmp_path, command, payload):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(payload(self.oversize_function())))
        code, out, err = run_cli(capsys, command, "--instance", str(path))
        assert code == 3 and out == "" and err.startswith("size cap:")

    def test_split_counts_at_the_cap_pass(self, capsys):
        data = run_json(capsys, "split-verify", "--builtin", "example3", "--n", "3", "--counts", "5,5,6")
        assert data["all_passed"] is True
        # P(no copy drawn) = (1 - 1/15)^10 (1 - 1/18)^6
        assert data["indep_after"] == pytest.approx(1 - (14 / 15) ** 10 * (17 / 18) ** 6, rel=1e-12)

    def test_split_counts_one_past_the_cap_exit_3(self, capsys):
        code, out, err = run_cli(
            capsys, "split-verify", "--builtin", "example3", "--n", "3", "--counts", "5,6,6"
        )
        assert code == 3 and out == "" and err.startswith("size cap:")


class TestOutputHandling:
    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "gap", "--builtin", "example3", "--n", "3", "--out", str(path)
        )
        assert code == 0 and out == ""
        data = json.loads(path.read_text())
        assert data["kappa"] == pytest.approx(27 / 19, abs=1e-9)

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        for path in (tmp_path / "missing" / "report.json", tmp_path):
            code, out, err = run_cli(
                capsys, "gap", "--builtin", "example3", "--n", "3", "--out", str(path)
            )
            assert code == 2 and out == "" and err.startswith(f"error: cannot write {path}: ")

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--builtin", "example3", "--n", "3", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert "kappa" in header.split(",")
        assert len(header.split(",")) == len(row.split(","))

    def test_csv_gap_without_bound_has_empty_bound_cells(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--builtin", "example3", "--n", "2", "--format", "csv")
        assert code == 0
        header, row = out.strip("\n").split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["bound"] == "" and cells["bound_satisfied"] == ""
        assert float(cells["worst_value"]) == pytest.approx(1.0, abs=1e-9)

    def test_csv_flattens_nested_reports(self, capsys):
        code, out, _ = run_cli(
            capsys, "robust", "--builtin", "example1", "--n", "4", "--format", "csv"
        )
        assert code == 0
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["x_R"] == "4" and float(cells["ratio"]) == pytest.approx(11 / 6)

    def test_csv_worst_case_skips_support_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "worst-case", "--builtin", "example3", "--n", "2", "--format", "csv"
        )
        assert code == 0
        header = out.strip().split("\n")[0].split(",")
        assert "value" in header and "gamma" in header

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "worst-case", "--builtin", "example2", "--k", "2")
        _, out2, _ = run_cli(capsys, "worst-case", "--builtin", "example2", "--k", "2")
        assert out1 == out2

    def test_verify_csv(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "name,expected,got,tol,passed"
        assert any(line.startswith("total,") for line in lines)


class TestVerifyCommand:
    def test_verify_all_passes(self, capsys):
        data = run_json(capsys, "verify", "--all")
        assert data["passed"] is True and data["failed"] == 0



def _reject_constant(name):
    raise ValueError(f"output holds the non-JSON constant {name}")


def run_strict_json(capsys, tmp_path, payload, *argv):
    """Run a command on `payload` written as an instance file; parse stdout
    with NaN and Infinity refused."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, *argv, "--instance", str(path))
    assert code == 0, err
    return json.loads(out, parse_constant=_reject_constant)


ZERO_TABLE = {"type": "explicit", "n": 2, "values": [0, 0, 0, 0]}


class TestNonFiniteFacilityInputs:
    @pytest.mark.parametrize("command", ["worst-case", "gap"])
    @pytest.mark.parametrize(
        "fields",
        [
            {"open_costs": [1.0], "distances": [[float("nan")], [1.0]]},
            {"open_costs": [float("inf")], "distances": [[1.0], [1.0]]},
            {"open_costs": [1.0], "distances": [[1.0], [1.0]], "base_cost": float("inf")},
        ],
    )
    def test_exits_2(self, capsys, tmp_path, command, fields):
        path = tmp_path / "facility.json"
        function = {"type": "facility_location", **fields}
        path.write_text(json.dumps({"function": function, "marginals": [0.5, 0.5]}))
        code, out, err = run_cli(capsys, command, "--instance", str(path))
        assert code == 2 and out == "" and "finite" in err


class TestZeroDenominators:
    """Every printed ratio follows gap's rule: 0/0 is 1.0, x/0 is null."""

    def test_split_verify_all_zero_table(self, capsys, tmp_path):
        data = run_strict_json(
            capsys, tmp_path, {"function": ZERO_TABLE, "marginals": [0.5, 0.5]}, "split-verify"
        )
        assert data["kappa_before"] == 1.0 and data["kappa_after"] == 1.0
        assert data["all_passed"] is True

    def test_split_verify_zero_independent_value(self, capsys, tmp_path):
        # monotone, I = 0 and L = 1 before the split: kappa_before is x/0
        table = {"type": "explicit", "n": 2, "values": [-3, 1, 1, 1]}
        data = run_strict_json(
            capsys, tmp_path, {"function": table, "marginals": [0.5, 0.5]}, "split-verify"
        )
        assert data["kappa_before"] is None and data["kappa_after"] is not None
        assert data["kappa_non_decreasing"] is False

    def test_robust_zero_cost_decisions(self, capsys, tmp_path):
        space = {
            "marginals": [0.5, 0.5],
            "decisions": [{"label": "a", "function": ZERO_TABLE}, {"label": "b", "function": ZERO_TABLE}],
        }
        data = run_strict_json(capsys, tmp_path, space, "robust")
        assert data["ratio"] == 1.0 and data["x_R"] == "a"

    def test_robust_zero_robust_cost_with_positive_independent_choice(self, capsys, tmp_path):
        # E_I ties at 0, so x_I is the first decision, whose worst case is 1
        wavy = {"type": "explicit", "n": 2, "values": [1, -1, -1, 1]}
        space = {
            "marginals": [0.5, 0.5],
            "decisions": [{"label": "wavy", "function": wavy}, {"label": "zero", "function": ZERO_TABLE}],
        }
        data = run_strict_json(capsys, tmp_path, space, "robust")
        assert data["x_I"] == "wavy" and data["x_R"] == "zero"
        assert data["g_x_I"] == pytest.approx(1.0, abs=1e-9)
        assert data["ratio"] is None

    def test_welfare_overflow_exits_2(self, capsys, tmp_path):
        values = [0, 1.5e308, 1.6e308, 1.7e308, 1e308, 1.7e308, 1.7e308, 1.7e308]
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"function": {"type": "explicit", "n": 3, "values": values}, "players": 2}))
        code, out, err = run_cli(capsys, "welfare", "--instance", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: welfare values not finite") and err.count("\n") == 1

    def test_welfare_all_zero_table(self, capsys, tmp_path):
        data = run_strict_json(
            capsys, tmp_path, {"function": ZERO_TABLE, "marginals": [0.5, 0.5]}, "welfare", "--k", "2"
        )
        assert data["ratio_rounding_over_opt"] == 1.0 and data["ratio_opt_over_upper"] == 1.0


EXPLICIT = {"type": "explicit", "n": 2, "values": [0, 1.5, 1, 2]}
COVERAGE = {"type": "coverage_max", "n": 4, "partition": [[0, 1], [2, 3]]}
TWO_STAGE = {"type": "two_stage_flow", "n": 4, "x": 3}
FACILITY = {
    "type": "facility_location",
    "open_costs": [3, 1],
    "distances": [[1, 5], [4, 1]],
    "pre_open": [1],
}


def instance_with(function, marginals=None, **fields):
    """An instance of `function` with some of its fields replaced."""
    if marginals is None:
        marginals = [0.5] * (function.get("n") or len(function["distances"]))
    return {"function": {**function, **fields}, "marginals": marginals}


def with_supermodular_key(space, flag):
    """`space` with `"supermodular": flag` on every decision. The key once
    sent a decision to the closed form; readers now ignore it."""
    return {**space, "decisions": [{**d, "supermodular": flag} for d in space["decisions"]]}


def robust_stdout(capsys, tmp_path, space):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    code, out, err = run_cli(capsys, "robust", "--instance", str(path))
    assert code == 0, err
    return out


class TestNumericFields:
    """A string where a number is meant, and a float, string or bool where an
    integer is meant, exit 2 instead of being converted."""

    @pytest.mark.parametrize(
        "payload",
        [
            instance_with(EXPLICIT),
            instance_with(COVERAGE),
            instance_with(TWO_STAGE),
            instance_with(FACILITY),
            instance_with(FACILITY, base_cost=2.5),
        ],
        ids=["explicit", "coverage", "two-stage", "facility", "facility-base-cost"],
    )
    def test_well_typed_payloads_load(self, capsys, tmp_path, payload):
        run_strict_json(capsys, tmp_path, payload, "gap")

    @pytest.mark.parametrize("flag", [True, False, "false", 1, None])
    def test_supermodular_key_is_ignored(self, capsys, tmp_path, flag):
        space = {"marginals": [0.5, 0.5], "decisions": [{"label": "a", "function": ZERO_TABLE}]}
        flagged = robust_stdout(capsys, tmp_path, with_supermodular_key(space, flag))
        assert flagged == robust_stdout(capsys, tmp_path, space)

    @pytest.mark.parametrize(
        "payload",
        [
            instance_with(EXPLICIT, values=["0", "1.5", "1", "2"]),
            instance_with(EXPLICIT, values=[False, True, True, True]),
            instance_with(EXPLICIT, n=2.0),
            instance_with(EXPLICIT, marginals=["0.5", 0.5]),
            instance_with(EXPLICIT, marginals=[True, 0.5]),
            instance_with(COVERAGE, n=4.7),
            instance_with(COVERAGE, partition=[[0, True], [2, 3]]),
            instance_with(TWO_STAGE, n="4"),
            instance_with(TWO_STAGE, x=2.9),
            instance_with(TWO_STAGE, x=True),
            instance_with(FACILITY, open_costs=["3", 1]),
            instance_with(FACILITY, distances=[[1, "5"], [4, 1]]),
            instance_with(FACILITY, base_cost="2"),
            instance_with(FACILITY, pre_open=[1.0]),
            {"marginals": ["0.5", 0.5], "decisions": [{"label": "a", "function": ZERO_TABLE}]},
        ],
        ids=[
            "values-strings",
            "values-bools",
            "explicit-n-float",
            "marginals-string",
            "marginals-bool",
            "coverage-n-float",
            "partition-bool",
            "two-stage-n-string",
            "two-stage-x-float",
            "two-stage-x-bool",
            "open-costs-string",
            "distances-string",
            "base-cost-string",
            "pre-open-float",
            "space-marginals-string",
        ],
    )
    def test_wrong_type_exits_2(self, capsys, tmp_path, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        command = "robust" if "decisions" in payload else "gap"
        code, out, err = run_cli(capsys, command, "--instance", str(path))
        assert code == 2 and out == "" and err.startswith("error: ")
        assert "must be" in err


class TestWelfarePlayersField:
    def write_case(self, tmp_path, players):
        path = tmp_path / "case.json"
        path.write_text(
            json.dumps({"function": {"type": "explicit", "values": [0, 1, 1, 1]}, "players": players})
        )
        return str(path)

    @pytest.mark.parametrize("players", [0, -1, [1], "abc", 2.7, 2.0, True, None], ids=repr)
    @pytest.mark.parametrize(
        "command", ["gap", "worst-case", "robust", "welfare", "split-verify", "certify-scheme"]
    )
    def test_players_not_a_positive_integer_exits_2(self, capsys, tmp_path, command, players):
        code, out, err = run_cli(capsys, command, "--instance", self.write_case(tmp_path, players))
        assert code == 2 and out == "" and "players" in err

    def test_positive_integer_players_sets_marginals(self, capsys, tmp_path):
        data = run_json(capsys, "gap", "--instance", self.write_case(tmp_path, 2))
        assert data["independent_value"] == pytest.approx(0.75, abs=1e-12)


class TestDecisionLabels:
    @pytest.mark.parametrize("label", [None, 3, [1], {"a": 1}], ids=repr)
    def test_label_not_a_string_exits_2(self, capsys, tmp_path, label):
        path = tmp_path / "space.json"
        path.write_text(
            json.dumps({"marginals": [0.5, 0.5], "decisions": [{"label": label, "function": ZERO_TABLE}]})
        )
        code, out, err = run_cli(capsys, "robust", "--instance", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: decision label must be a string") and err.count("\n") == 1


class TestUnreadSourceFlags:
    """--n, --k and --seed are read by the builtin's parameters, by welfare
    (--k, the player count) or by gap --samples (--seed). Any other use of
    them exits 2 instead of being ignored: build_builtin refuses a builtin's,
    the command line an --instance file's."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["worst-case", "--instance", "FILE", "--n", "9"], "--n"),
            (["gap", "--instance", "FILE", "--k", "3"], "--k"),
            (["gap", "--instance", "FILE", "--seed", "3"], "--seed"),
            (["welfare", "--instance", "FILE", "--k", "2", "--n", "5"], "--n"),
            (["worst-case", "--builtin", "example3", "--seed", "5"], "--seed"),
            (["robust", "--builtin", "example1", "--seed", "3"], "--seed"),
            (["welfare", "--builtin", "integrality_gap", "--seed", "4"], "--seed"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_unread_flag_exits_2(self, capsys, tmp_path, argv, flag):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(instance_with(EXPLICIT)))
        argv = [str(path) if a == "FILE" else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if argv[1] == "--builtin":  # the library's message, build_builtin's
            assert err == f"error: builtin {argv[2]!r} does not take parameter {flag[2:]!r}\n"
        else:
            assert f"does not read {flag}" in err

    def test_seed_of_samples_is_read_with_an_instance_file(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(instance_with(EXPLICIT)))
        data = run_json(capsys, "gap", "--instance", str(path), "--samples", "100", "--seed", "3")
        assert data["independent_mc"]["seed"] == 3


# Every check takes its scale from f, so the tolerance flags went.
DELETED_FLAGS = [
    ("gap", "--tol-lp"),
    ("worst-case", "--tol-lp"),
    ("worst-case", "--tol-check"),
    ("certify-scheme", "--tol-check"),
]


class TestNumericFlagRanges:
    @pytest.mark.parametrize("command,flag", DELETED_FLAGS)
    def test_deleted_tolerance_flag_is_unknown(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--builtin", "example3", "--n", "3", flag, "1e-9"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"unrecognized arguments: {flag}" in captured.err

    @pytest.mark.parametrize("flag", ["--eta", "--beta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_bound_constant_not_finite_exits_2(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "gap", "--builtin", "example3", "--n", "3", flag, value)
        assert code == 2 and out == "" and "finite" in err

    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_verify_scale_below_one_exits_2(self, capsys, scale):
        code, out, err = run_cli(capsys, "verify", "--scale", scale)
        assert code == 2 and out == "" and "scale" in err

    def test_verify_scale_at_cap_runs(self, capsys, monkeypatch):
        def count_trials(name, trials, run_one):  # the trials are not run
            return instances._fact(f"battery.{name}", trials, trials)

        monkeypatch.setattr(instances, "_battery", count_trials)
        data = run_json(capsys, "verify", "--scale", str(instances.MAX_SCALE))
        trials = {fact["name"]: fact["expected"] for fact in data["facts"]}
        assert trials["battery.coverage_gap_bound"] == 25 * instances.MAX_SCALE
        assert data["passed"] is True

    def test_verify_scale_above_cap_exits_3_before_any_work(self, capsys, monkeypatch):
        def no_work():
            raise AssertionError("reproduction facts ran")

        monkeypatch.setattr(instances, "reproduction_facts", no_work)
        code, out, err = run_cli(capsys, "verify", "--scale", str(instances.MAX_SCALE + 1))
        assert code == 3 and out == "" and "scale" in err


class TestParserReuse:
    GOOD = ["gap", "--builtin", "example3", "--n", "3"]

    def fresh_process(self, *argv, **env):
        return subprocess.run(
            [sys.executable, "-m", "corrgap.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, **env},
        )

    def test_import_builds_no_parser(self):
        probe = "import corrgap.cli as cli; print(cli._build_parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    def test_many_calls_build_one_parser(self, capsys):
        _build_parser.cache_clear()
        for _ in range(3):
            assert main(["list-instances"]) == 0
            assert main(self.GOOD) == 0
            assert main(["certify-scheme", "--builtin", "example3", "--n", "3"]) == 0
        capsys.readouterr()
        assert _build_parser.cache_info().misses == 1

    def test_bad_argv_then_good_call_matches_fresh_process(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gap", "--n", "x"])
        assert exc.value.code == 2
        assert main(self.GOOD) == 0
        fresh = self.fresh_process(*self.GOOD)
        assert fresh.returncode == 0
        assert capsys.readouterr().out == fresh.stdout

    def test_help_after_other_calls(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        assert main(self.GOOD) == 0
        with pytest.raises(SystemExit):
            main(["gap", "--n", "x"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        fresh = self.fresh_process("--help", COLUMNS="100")
        assert fresh.returncode == 0
        assert out == fresh.stdout and "certify-scheme" in out


def scaled_table(values, s):
    return {"type": "explicit", "values": (np.asarray(values) * s).tolist()}


def seeded_n10_instance(seed, s):
    """A seeded random n=10 table in [0, 1) times s, marginals in [0.1, 0.9]."""
    rng = np.random.default_rng(seed)
    table, p = rng.random(1 << 10), rng.uniform(0.1, 0.9, 10)
    return {"function": scaled_table(table, s), "marginals": p.tolist()}


class TestUnitsOfF:
    """Commands give the same answers whatever the units of f."""

    def test_worst_case_on_a_1e8_table_certifies(self, capsys, tmp_path):
        # at absolute LP tolerances this table stalled after 51 200 pivots
        data = run_strict_json(capsys, tmp_path, seeded_n10_instance(2, 1e8), "worst-case")
        assert data["certified"] is True

    def test_gap_on_a_1e_13_table_keeps_kappa(self, capsys, tmp_path):
        inst = instances.threshold_instance(3)
        function = scaled_table(inst.function.values(), 1e-13)
        payload = {"function": function, "marginals": list(inst.marginals)}
        data = run_strict_json(capsys, tmp_path, payload, "gap")
        assert data["kappa"] == pytest.approx(27 / 19, rel=1e-9)

    @pytest.mark.parametrize("s", [1e12, 1e-12])
    def test_certify_scheme_on_a_scaled_coverage_table(self, capsys, tmp_path, s):
        # absolute tolerances read cross_monotone False at 1e12, eta_star 0 at 1e-12
        inst = instances.random_coverage_instance(3, 4)
        function = scaled_table(inst.function.values(), s)
        payload = {"function": function, "marginals": list(inst.marginals)}
        data = run_strict_json(capsys, tmp_path, payload, "certify-scheme")
        assert data["cross_monotone"] is True and data["budget_upper_ok"] is True
        assert data["eta_star"] == pytest.approx(1.0, rel=1e-12)
        assert data["beta_star"] == pytest.approx(1.0, rel=1e-12)

    def test_worst_case_on_a_1e_300_table_certifies(self, capsys, tmp_path):
        data = run_strict_json(capsys, tmp_path, seeded_n10_instance(0, 1e-300), "worst-case")
        assert data["certified"] is True

    def test_worst_case_on_a_subnormal_table_exits_2(self, capsys, tmp_path):
        # at 1e-320 the float grid is too coarse for L: the certificate failed
        path = tmp_path / "input.json"
        path.write_text(json.dumps(seeded_n10_instance(0, 1e-320)))
        code, out, err = run_cli(capsys, "worst-case", "--instance", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: f is subnormal") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["gap"], ["worst-case"], ["split-verify"], ["certify-scheme"], ["welfare", "--k", "2"]],
        ids=lambda argv: argv[0],
    )
    def test_subnormal_table_exits_2_under_every_command(self, capsys, tmp_path, monkeypatch, argv):
        # refused where the table is built: certify-scheme once exited 0 with
        # a subnormal tolerance, and welfare ran its subset DP first
        def no_dp(*args):
            raise AssertionError("the welfare DP ran on a subnormal table")

        monkeypatch.setattr(welfare, "welfare_ip_optimum", no_dp)
        s = 1e-310
        path = tmp_path / "input.json"
        path.write_text(
            json.dumps({"function": {"type": "explicit", "values": [0, s, s, 3 * s]}, "marginals": [0.3, 0.6]})
        )
        code, out, err = run_cli(capsys, *argv, "--instance", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: f is subnormal") and err.count("\n") == 1

    def test_robust_computes_each_decisions_scale_once(self, capsys, monkeypatch):
        calls = []
        unit_scale = core.unit_scale

        def counted(values):
            calls.append(len(values))
            return unit_scale(values)

        monkeypatch.setattr(core, "unit_scale", counted)
        run_json(capsys, "robust", "--builtin", "example2_two_stage", "--k", "4")
        assert calls == [1 << 16] * 5  # one per decision, though three LPs and the chain read it

    @pytest.mark.parametrize(
        "inst",
        [instances.random_supermodular_instance(2, 6), instances.threshold_instance(3)],
        ids=["supermodular", "threshold"],
    )
    def test_robust_ignores_the_supermodular_key_at_1e12(self, capsys, tmp_path, inst):
        # the key once took the closed form (2^-10 off the LP on the
        # supermodular table) or exited 2 (on the submodular threshold)
        function = scaled_table(inst.function.values(), 1e12)
        space = {"marginals": list(inst.marginals), "decisions": [{"label": "s", "function": function}]}
        out = robust_stdout(capsys, tmp_path, space)
        assert out == robust_stdout(capsys, tmp_path, with_supermodular_key(space, True))
        data = json.loads(out)
        assert data["x_R"] == "s" and data["chain_ok"] is True


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "corrgap.cli", "gap", "--builtin", "example3", "--n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["kappa"] == pytest.approx(4 / 3, abs=1e-9)


class TestSolverStall:
    """A simplex stall ends in one `solver:` line and exit 4, not a traceback.
    The stall is injected: a real one takes seconds of pivots."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["worst-case", "--builtin", "example3", "--n", "3"],
            ["gap", "--builtin", "example2", "--k", "2"],
            # x_I's LP is always solved; example1's flagged decisions solve none
            ["robust", "--builtin", "example2_two_stage", "--k", "2"],
        ],
        ids=["worst-case", "gap", "robust"],
    )
    def test_stall_exits_4_with_one_line(self, capsys, monkeypatch, argv):
        import corrgap.worst_case as wc

        def stall(values, p):
            cap = wc._PIVOTS_PER_COLUMN << len(p)
            raise wc.SimplexStallError(f"no optimum within {cap} pivots")

        monkeypatch.setattr(wc, "_simplex_max", stall)
        code, out, err = run_cli(capsys, *argv)
        assert code == 4 and out == ""
        assert err.startswith("solver: no optimum within ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["worst-case", "--builtin", "example3", "--n", "3"],
            ["gap", "--builtin", "example2", "--k", "2"],
            ["robust", "--builtin", "example2_two_stage", "--k", "2"],
        ],
        ids=["worst-case", "gap", "robust"],
    )
    def test_singular_basis_exits_4_with_one_line(self, capsys, monkeypatch, argv):
        import corrgap.worst_case as wc

        # rank one: LAPACK finds the basis singular at its first factorisation
        monkeypatch.setattr(wc, "_basis_matrix", lambda basis, n: np.ones((n + 1, len(basis))))
        code, out, err = run_cli(capsys, *argv)
        assert code == 4 and out == ""
        assert err == "solver: singular basis: invalid arithmetic in the simplex\n"


class TestOneEmission:
    """Every command returns its report; `main` writes it once and picks the
    exit code from it."""

    def test_report_that_did_not_pass_exits_1_after_printing(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verification_report", lambda scale: {"passed": False, "failed": 1})
        code, out, err = run_cli(capsys, "verify")
        assert code == 1 and err == ""
        assert json.loads(out) == {"failed": 1, "passed": False}

    def test_unknown_builtin_exits_2_with_the_instances_message(self, capsys):
        code, out, err = run_cli(capsys, "gap", "--builtin", "nope")
        assert code == 2 and out == ""
        assert err == "error: unknown builtin 'nope'; see list-instances\n"

    def test_welfare_k_overrides_the_players_of_a_file(self, capsys, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(json.dumps(instances.welfare_gap_case().to_json()))
        data = run_json(capsys, "welfare", "--instance", str(path), "--k", "5")
        assert data == run_json(capsys, "welfare", "--builtin", "integrality_gap", "--k", "5")
        assert data["opt_ip"] == pytest.approx(12.0, abs=1e-9)

    def test_welfare_on_a_decision_space_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "welfare", "--builtin", "example1", "--n", "3")
        assert code == 2 and out == ""
        assert err == "error: this command needs a single instance, not a decision space\n"


M = sys.float_info.max


class TestNonFiniteReports:
    """A report that would hold an inf or NaN exits 2 with one `error:` line
    and nothing on stdout, in JSON and CSV, and no RuntimeWarning is raised
    on the way."""

    def refused(self, capsys, tmp_path, payload, *argv):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, *argv, "--instance", str(path))
        assert code == 2 and out == ""
        assert err == "error: the report holds an inf or NaN, which JSON cannot carry\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_worst_case_dual_past_float64(self, capsys, tmp_path, fmt):
        # lambda = 2 * max|f| overflows when the scaled dual is scaled back
        payload = {"function": {"type": "explicit", "values": [-M, M]}, "marginals": [0.5]}
        self.refused(capsys, tmp_path, payload, "worst-case", "--format", fmt)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_robust_ratio_past_float64(self, capsys, tmp_path, fmt):
        # g(x_I) = 1e100 over g(x_R) = 1e-300
        space = {
            "marginals": [1e-200, 1e-200],
            "decisions": [
                {"label": "A", "function": {"type": "explicit", "values": [0, 0, 0, 1e300]}},
                {"label": "B", "function": {"type": "explicit", "values": [1e-300] * 4}},
            ],
        }
        self.refused(capsys, tmp_path, space, "robust", "--format", fmt)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gap_bound_past_float64_exits_2_before_the_lp(self, capsys, monkeypatch):
        def no_solve(*args):
            raise AssertionError("the LP ran before the bound was checked")

        monkeypatch.setattr(gap, "worst_case_lp", no_solve)
        argv = ["gap", "--builtin", "example2", "--k", "2", "--eta", "1e308", "--beta", "1e308"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: eta * beta * e/(e-1) overflows float64: eta=1e+308, beta=1e+308\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_certificate_scan_past_float64_still_certifies(self, capsys, tmp_path):
        # lambda = (M, M): lambda({0, 1}) overflows in the scan, which reads it as inf
        payload = {"function": {"type": "explicit", "values": [0, M, M, M / 2]}, "marginals": [0.3, 0.6]}
        data = run_strict_json(capsys, tmp_path, payload, "worst-case")
        assert data["lambda"] == [M, M] and data["certified"] is True

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: a float tolerance at scale 2^1023 cannot see a dual "
        "violation of 2; the certificate as an enclosure of L mends it",
    )
    def test_duals_infeasible_by_2_at_1e308_are_not_certified(self, capsys, tmp_path):
        # gamma = 1e308, lambda = (-1e308, 0): f({0, 1}) - lambda({0, 1}) - gamma = 2
        payload = {"function": {"type": "explicit", "values": [0, 1, 1e308, 2]}, "marginals": [0.5, 0.5]}
        data = run_strict_json(capsys, tmp_path, payload, "worst-case")
        assert data["certified"] is False
