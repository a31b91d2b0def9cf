import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrgap.robust as robust
import corrgap.worst_case as wc
from corrgap.core import CHECK_TOL, TableFunction, ValidationError, unit_scale
from corrgap.distributions import independent_expectation_exact
from corrgap.gap import safe_ratio
from corrgap.instances import build_builtin, two_stage_flow_space
from corrgap.robust import (
    Decision,
    DecisionSpace,
    RobustSolveReport,
    approximation_ratio,
    evaluate_g,
)
from corrgap.worst_case import supermodular_worst_case, worst_case_lp


def constant_space():
    marginals = [0.5, 0.5]
    decisions = [
        Decision("a", TableFunction([3.0, 3.0, 3.0, 3.0])),
        Decision("b", TableFunction([5.0, 5.0, 5.0, 5.0])),
    ]
    return DecisionSpace(marginals, decisions)


class TestTwoStageFlowFamily:
    def test_g_values_at_n4(self):
        space = two_stage_flow_space(4)
        assert evaluate_g(space, 3) == pytest.approx(11.0, abs=1e-6)
        assert evaluate_g(space, 4) == pytest.approx(6.0, abs=1e-6)

    def test_argmins_and_ratio(self):
        space = two_stage_flow_space(4)
        report = approximation_ratio(space)
        assert report.x_independent == "3"
        assert report.independent_value == pytest.approx(4.0, abs=1e-12)
        assert report.x_robust == "4" and report.g_robust == pytest.approx(6.0, abs=1e-6)
        assert report.ratio == pytest.approx(11 / 6, abs=1e-9)
        assert report.chain_ok

    def test_ratio_grows_geometrically(self):
        ratios = [approximation_ratio(two_stage_flow_space(n)).ratio for n in (4, 6, 8)]
        assert ratios[1] >= 2 * ratios[0]
        assert ratios[2] >= 2 * ratios[1]

    def test_chain_inequalities_hold_everywhere(self):
        space = two_stage_flow_space(5)
        for idx, d in enumerate(space.decisions):
            g = evaluate_g(space, idx)
            indep = independent_expectation_exact(d.function, space.marginals)
            assert g >= indep - 1e-9

    def test_gap_at_independent_decision_bounds_the_ratio(self):
        # g(x_I) <= kappa(x_I) * g(x_R): the degradation from using the
        # independent optimum is controlled by the gap at that decision
        for n in (4, 6):
            space = two_stage_flow_space(n)
            rep = approximation_ratio(space)
            x_i = next(d for d in space.decisions if d.label == rep.x_independent)
            kappa_xi = rep.g_independent / independent_expectation_exact(
                x_i.function, space.marginals
            )
            assert rep.g_independent <= kappa_xi * rep.g_robust + 1e-9


class TestDecisionSpace:
    def test_constant_decision(self):
        space = constant_space()
        assert evaluate_g(space, 0) == pytest.approx(3.0, abs=1e-9)

    def test_single_decision(self):
        space = DecisionSpace([0.5], [Decision("only", TableFunction([0.0, 1.0]))])
        report = approximation_ratio(space)
        assert report.x_robust == "only" and report.x_independent == "only"

    def test_identical_decisions_ratio_one(self):
        space = constant_space()
        report = approximation_ratio(space)
        assert report.ratio == pytest.approx(1.0, abs=1e-9)
        assert report.x_robust == "a"  # ties break by decision order

    def test_empty_space_rejected(self):
        with pytest.raises(ValidationError):
            DecisionSpace([0.5], [])

    def test_mismatched_ground_sets_rejected(self):
        with pytest.raises(ValidationError):
            DecisionSpace(
                [0.5, 0.5],
                [
                    Decision("a", TableFunction([0.0, 1.0, 1.0, 2.0])),
                    Decision("b", TableFunction([0.0, 1.0])),
                ],
            )

    @pytest.mark.parametrize("marginals", [[1.5, 0.5], [float("nan"), 0.5], [0.5, -0.25]])
    def test_bad_marginals_refused_before_any_expectation(self, monkeypatch, marginals):
        calls = []
        monkeypatch.setattr(robust, "independent_expectation_exact", lambda *a: calls.append(a))
        decisions = [Decision("a", TableFunction([0.0, 1.0, 1.0, 2.0]))]
        with pytest.raises(ValidationError, match="outside"):
            approximation_ratio(DecisionSpace(marginals, decisions))
        assert calls == []

    def test_subnormal_decision_refused(self):
        # refused where the decision's table is built, before any space exists
        s = 1e-310
        with pytest.raises(ValidationError, match="subnormal"):
            TableFunction([0.0, s, s, 3 * s])

    def test_json_round_trip(self):
        space = two_stage_flow_space(3)
        data = space.to_json()
        again = DecisionSpace.from_json(data)
        assert again.to_json() == data
        assert [d.label for d in again.decisions] == [d.label for d in space.decisions]

    def test_report_json_keys(self):
        report = approximation_ratio(constant_space()).to_json()
        assert set(report) == {"x_R", "g_x_R", "x_I", "E_I_x_I", "g_x_I", "ratio", "chain_ok"}


def exhaustive_report(space: DecisionSpace) -> RobustSolveReport:
    """approximation_ratio without pruning: the scenario LP of every decision."""
    g_values = [worst_case_lp(space.instance_for(d)).value for d in space.decisions]
    indep = [independent_expectation_exact(d.function, space.marginals) for d in space.decisions]
    r = min(range(len(g_values)), key=lambda k: (g_values[k], k))
    i = min(range(len(indep)), key=lambda k: (indep[k], k))
    pair = (space.decisions[r], space.decisions[i])
    tol = CHECK_TOL * max(unit_scale(d.function.values()) for d in pair)
    return RobustSolveReport(
        x_robust=space.decisions[r].label,
        g_robust=g_values[r],
        x_independent=space.decisions[i].label,
        independent_value=indep[i],
        g_independent=g_values[i],
        ratio=safe_ratio(g_values[i], g_values[r]),
        chain_ok=g_values[r] >= indep[r] - tol and indep[r] >= indep[i] - tol,
    )


def count_lps(monkeypatch) -> list[int]:
    """Count scenario-LP solves from here on; returns the one-item counter."""
    calls = [0]
    solve = wc._simplex_max

    def counted(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(wc, "_simplex_max", counted)
    return calls


BUILTIN_SPACES = (
    [("ufl_random", {"seed": s}) for s in range(20)]
    + [("example1", {"n": n}) for n in range(2, 9)]
    + [("example2_two_stage", {"k": k}) for k in (2, 3, 4)]
)


def supermodular_table(n, base, weights, pairs):
    """base + sum of weights over S + sum of the nonnegative pair terms
    inside S: supermodular by construction."""
    values = []
    for m in range(1 << n):
        members = [i for i in range(n) if m >> i & 1]
        pair_sum = sum(pairs[i * n + j] for i, j in itertools.combinations(members, 2))
        values.append(base + sum(weights[i] for i in members) + pair_sum)
    return TableFunction(values)


@st.composite
def mixed_spaces(draw):
    """Spaces of 1-8 decisions over n <= 4, drawn with repetition from a
    pool of small-integer tables and supermodular tables, so ties in E_I and
    in g are common."""
    n = draw(st.integers(1, 4))
    marginals = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=n, max_size=n))
    small = st.integers(-2, 3).map(float)
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            values = draw(st.lists(small, min_size=1 << n, max_size=1 << n))
            pool.append(TableFunction(values))
        else:
            f = supermodular_table(
                n,
                draw(small),
                draw(st.lists(small, min_size=n, max_size=n)),
                draw(st.lists(st.integers(0, 2).map(float), min_size=n * n, max_size=n * n)),
            )
            pool.append(f)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    decisions = [Decision(str(j), pool[k]) for j, k in enumerate(picks)]
    return DecisionSpace(marginals, decisions)


class TestPrunedRobustSolve:
    """approximation_ratio skips LPs that cannot change its report."""

    @pytest.mark.parametrize("name,params", BUILTIN_SPACES, ids=lambda v: str(v))
    def test_same_report_as_exhaustive_on_builtins(self, name, params):
        space = build_builtin(name, **params)
        assert approximation_ratio(space) == exhaustive_report(space)

    @given(mixed_spaces())
    @settings(max_examples=150, deadline=None)
    def test_same_report_as_exhaustive_on_mixed_spaces(self, space):
        assert approximation_ratio(space) == exhaustive_report(space)

    @pytest.mark.parametrize("seed", [*range(20), 1_000_003, 2_147_483_000])
    def test_ufl_random_solves_one_lp_of_eight(self, monkeypatch, seed):
        space = build_builtin("ufl_random", seed=seed)
        calls = count_lps(monkeypatch)
        approximation_ratio(space)
        assert len(space.decisions) == 8 and calls[0] == 1

    def test_two_stage_coverage_k4_solves_three_lps_of_five(self, monkeypatch):
        space = build_builtin("example2_two_stage", k=4)
        calls = count_lps(monkeypatch)
        approximation_ratio(space)
        assert len(space.decisions) == 5 and calls[0] == 3

    @pytest.mark.parametrize("n", range(2, 13))
    def test_two_stage_family_solves_two_lps_on_the_prefix_chain(self, monkeypatch, n):
        # every f is supermodular: each simplex starts on the closed form's
        # prefix chain, prices once and stops at 0 pivots with g bit-equal to
        # the closed form; the skip rule leaves x_I and one more decision
        space = two_stage_flow_space(n)
        expected = exhaustive_report(space)
        solved = []
        solve = robust.worst_case_lp

        def recorded(inst):
            result = solve(inst)
            solved.append((inst, result))
            return result

        monkeypatch.setattr(robust, "worst_case_lp", recorded)
        assert approximation_ratio(space) == expected
        assert len(solved) == (1 if n == 2 else 2)
        for inst, result in solved:
            assert result.stats == wc.SimplexStats(0, 0, None, 0)
            chain = wc.prefix_chain(inst.marginals)[1]
            assert {mask for mask, _ in result.distribution.support} <= set(chain)
            assert result.value == supermodular_worst_case(inst).value

    def test_supermodular_decision_after_a_skipped_one_is_skipped(self, monkeypatch):
        # "low" is x_I with g = 1; "high" (E_I = 2) and the supermodular
        # "super" (E_I = 3.25) both lie above that g and are skipped
        evaluated = []
        evaluate = robust.evaluate_g

        def spy(space, k):
            evaluated.append(space.decisions[k].label)
            return evaluate(space, k)

        monkeypatch.setattr(robust, "evaluate_g", spy)
        low = Decision("low", TableFunction([1.0] * 4))
        high = Decision("high", TableFunction([2.0] * 4))
        good = Decision("super", TableFunction([3.0, 3.0, 3.0, 4.0]))
        space = DecisionSpace([0.5, 0.5], [high, good, low])
        report = approximation_ratio(space)
        assert evaluated == ["low"]
        assert report == exhaustive_report(space) and report.x_robust == "low"

    def test_decision_whose_e_i_ties_the_least_g_is_evaluated(self, monkeypatch):
        # x_I = "pair" (E_I = 1, g = 2) comes first; "flat" has E_I = g = 2,
        # ties the least g and has the lower index, so it is x_R
        calls = count_lps(monkeypatch)
        flat = Decision("flat", TableFunction([2.0] * 4))
        pair = Decision("pair", TableFunction([0.0, 0.0, 0.0, 4.0]))
        report = approximation_ratio(DecisionSpace([0.5, 0.5], [flat, pair]))
        assert calls[0] == 2
        assert (report.x_independent, report.x_robust, report.g_robust) == ("pair", "flat", 2.0)
