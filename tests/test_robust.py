import pytest

from corrgap.core import TableFunction, ValidationError
from corrgap.distributions import independent_expectation_exact
from corrgap.instances import threshold_instance, two_stage_flow_space
from corrgap.robust import (
    Decision,
    DecisionSpace,
    approximation_ratio,
    evaluate_g,
)


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

    def test_wrong_supermodular_flag_caught(self):
        # the threshold function is submodular, so the closed form undershoots
        # the LP and the cross-check must fire
        inst = threshold_instance(3)
        space = DecisionSpace(
            inst.marginals, [Decision("x", inst.function, supermodular=True)]
        )
        with pytest.raises(ValidationError):
            evaluate_g(space, 0)

    def test_json_round_trip(self):
        space = two_stage_flow_space(3)
        data = space.to_json()
        again = DecisionSpace.from_json(data)
        assert again.to_json() == data
        assert [d.label for d in again.decisions] == [d.label for d in space.decisions]

    def test_report_json_keys(self):
        report = approximation_ratio(constant_space()).to_json()
        assert set(report) == {"x_R", "g_x_R", "x_I", "E_I_x_I", "g_x_I", "ratio", "chain_ok"}
