"""The orbit regime: class-symmetric instances solved on count vectors.

A set function that declares classes depends on S only through its class
counts; at marginals equal within every class, n >= core._ORBIT_FROM_N and a
count grid smaller than 2^n, the scenario LP, its certificate and the
independent leg run on the grid. Each test here holds the regime to the
2^n-column engines on a TableFunction copy of the same table, or checks
that an edge of the regime takes the dense path.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

import corrgap.core as core
import corrgap.worst_case as wc
from corrgap.cli import main
from corrgap.core import (
    ClassCountFunction,
    CoverageMax,
    Instance,
    SetFunction,
    TableFunction,
    TwoStageFlow,
    ValidationError,
    count_vectors,
    orbit_classes,
)
from corrgap.distributions import independent_expectation_exact
from corrgap.instances import (
    coverage_partition_instance,
    coverage_two_stage_space,
    threshold_instance,
    two_stage_flow_space,
)
from corrgap.worst_case import WorstCaseResult, verify_certificate, worst_case_lp


def dense_copy(inst):
    """The instance with its function as a plain TableFunction of the same
    table: no classes, so every engine takes the 2^n path."""
    return Instance(TableFunction(inst.function.values()), inst.marginals)


def two_stage_decision(k, m):
    space = coverage_two_stage_space(k)
    return space.instance_for(space.decisions[m])


def seeded_partition_instance(seed, n):
    """CoverageMax over a seeded partition of n elements into 2..n//2
    nonempty blocks, with one seeded marginal per block."""
    rng = np.random.default_rng(seed)
    blocks = int(rng.integers(2, n // 2 + 1))
    owner = np.concatenate([np.arange(blocks), rng.integers(0, blocks, n - blocks)])
    rng.shuffle(owner)
    partition = [np.flatnonzero(owner == b).tolist() for b in range(blocks)]
    block_p = rng.uniform(0.05, 0.95, blocks)
    return Instance(CoverageMax(n, partition), block_p[owner].tolist())


def class_instances():
    """(id, instance) for every class-declaring builtin at n = 10..16, seeded
    CoverageMax partitions and TwoStageFlow."""
    cases = [(f"example3-n{n}", threshold_instance(n)) for n in range(10, 17)]
    cases.append(("example2-k4", coverage_partition_instance(4)))
    space = coverage_two_stage_space(4)
    cases += [(f"example2_two_stage-k4-m{d.label}", space.instance_for(d)) for d in space.decisions]
    for n in (10, 13, 16):
        space = two_stage_flow_space(n)
        cases += [(f"example1-n{n}-x{d.label}", space.instance_for(d)) for d in space.decisions]
    cases += [(f"coverage-n{n}-seed{s}", seeded_partition_instance(s, n)) for n in range(10, 17) for s in range(2)]
    cases += [(f"two_stage_flow-n{n}-p{p}", Instance(TwoStageFlow(n, n // 2), [p] * n)) for n, p in [(11, 0.3), (14, 0.85)]]
    return cases


CASES = class_instances()


def relative_gap(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestOrbitMatchesDense:
    @pytest.mark.parametrize("inst", [c for _, c in CASES], ids=[k for k, _ in CASES])
    def test_value_and_independent_leg(self, orbit_entries, inst):
        orbit = worst_case_lp(inst)
        indep = independent_expectation_exact(inst.function, inst.marginals)
        assert orbit_entries == [inst.n] * 2  # the LP and I, each in the regime
        dense_inst = dense_copy(inst)
        dense = worst_case_lp(dense_inst)
        assert relative_gap(orbit.value, dense.value) <= 1e-12
        dense_indep = independent_expectation_exact(dense_inst.function, dense_inst.marginals)
        assert relative_gap(indep, dense_indep) <= 1e-12
        # the grid scan (lambda is constant on every class) and the 2^n scan
        assert verify_certificate(inst, orbit)
        assert verify_certificate(dense_inst, orbit)
        assert orbit_entries == [inst.n] * 3

    @pytest.mark.parametrize("inst", [c for _, c in CASES], ids=[k for k, _ in CASES])
    def test_report_shape(self, inst):
        # lambda_i = y_b / n_b is constant on each class; the distribution
        # spreads each count vector evenly over its orbit's masks
        result = worst_case_lp(inst)
        for block in inst.function.classes:
            members = core.elements_of(block)
            assert len({result.dual_lambda[i] for i in members}) == 1
        probs = {}
        for mask, prob in result.distribution.support:
            counts = tuple((mask & block).bit_count() for block in inst.function.classes)
            probs.setdefault(counts, set()).add(prob)
        assert all(len(values) == 1 for values in probs.values())
        assert result.stats.pivots <= wc._PIVOTS_PER_COLUMN * len(inst.function.grid())

    def test_example2_k4_independent_value(self):
        inst = coverage_partition_instance(4)
        assert independent_expectation_exact(inst.function, inst.marginals) == 1.8965912973508239

    def test_threshold_independent_value_matches_closed_form(self):
        for n in range(10, 17):
            inst = threshold_instance(n)
            closed = 1.0 - (1.0 - 1.0 / n) ** n
            assert relative_gap(independent_expectation_exact(inst.function, inst.marginals), closed) <= 1e-12

    def test_bogus_certificate_fails_the_grid_scan(self):
        inst = coverage_partition_instance(4)
        honest = worst_case_lp(inst)
        lowered = WorstCaseResult(honest.value, honest.distribution, honest.dual_gamma - 1e-3, honest.dual_lambda)
        assert verify_certificate(inst, honest) and not verify_certificate(inst, lowered)
        # a lambda that is not constant on a class is scanned over every mask
        lam = (honest.dual_lambda[0] - 1e-3, *honest.dual_lambda[1:])
        moved = WorstCaseResult(honest.value, honest.distribution, honest.dual_gamma, lam)
        assert not verify_certificate(inst, moved)


def values_refused(self):
    raise AssertionError(f"f.values() built the 2^{self.n} table")


class TestNoTable:
    @pytest.mark.parametrize(
        "argv",
        [
            "worst-case --builtin example2 --k 4",
            "gap --builtin example2 --k 4",
            "worst-case --builtin example3 --n 16",
            "gap --builtin example3 --n 10",
            "robust --builtin example2_two_stage --k 4",
            "robust --builtin example1 --n 16",
            "robust --builtin example1 --n 10",
        ],
    )
    def test_commands_never_build_the_table(self, monkeypatch, argv):
        monkeypatch.setattr(SetFunction, "values", values_refused)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv.split()) == 0


class TestRegimeEdges:
    """Each edge of the regime takes the 2^n path, bit for bit the solve of a
    TableFunction copy."""

    @staticmethod
    def assert_dense(entered, inst):
        assert orbit_classes(inst.function, inst.marginals) is None
        result = worst_case_lp(inst)
        indep = independent_expectation_exact(inst.function, inst.marginals)
        assert entered == []
        dense_inst = dense_copy(inst)
        dense = worst_case_lp(dense_inst)
        assert result.to_json() == dense.to_json() and result.stats == dense.stats
        assert indep == independent_expectation_exact(dense_inst.function, dense_inst.marginals)
        assert verify_certificate(inst, result)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: threshold_instance(9),
            lambda: two_stage_decision(3, 1),
        ],
        ids=["example3-n9", "example2_two_stage-k3-m1"],
    )
    def test_below_orbit_from_n(self, orbit_entries, make):
        assert core._ORBIT_FROM_N == 10
        self.assert_dense(orbit_entries, make())

    def test_unequal_marginals_inside_a_class(self, orbit_entries):
        inst = coverage_partition_instance(4)
        p = list(inst.marginals)
        p[5] = 0.3
        self.assert_dense(orbit_entries, Instance(inst.function, p))

    def test_grid_as_large_as_the_table(self, orbit_entries):
        n = 10
        inst = Instance(CoverageMax(n, [[i] for i in range(n)]), [0.4] * n)
        assert len(inst.function.grid()) == 1 << n
        self.assert_dense(orbit_entries, inst)

    def test_a_grid_one_smaller_enters(self):
        n = 10
        f = CoverageMax(n, [[0, 1], *[[i] for i in range(2, n)]])
        assert len(f.grid()) == 3 << (n - 2) < 1 << n
        assert orbit_classes(f, [0.4] * n) == [[0, 1], *[[i] for i in range(2, n)]]


def digest(f):
    return hashlib.sha256(f.values().tobytes()).hexdigest()[:16]


# sha256 prefixes of the tables that example3 and the two-stage decisions had
# as explicit TableFunctions
EXAMPLE3_DIGESTS = {
    1: "fc62429c3e69001d",
    2: "124fc60dac41dc47",
    3: "f983396ad528d67b",
    4: "dc1f1d5456676cd2",
    5: "4fb66b1f1639e153",
    6: "b6d21acfe48fd3cd",
    7: "cb8383c589e19129",
    8: "c788ab9a1e14338e",
    9: "cba853b26cad53dc",
}
TWO_STAGE_DIGESTS = {
    2: ["68216cd1fd2f4c55", "627599d6171ee1c6", "b0e9f26ffdd22bfa"],
    3: ["92c5b2ceaf3563d6", "3a74f8f63c773143", "4dbf6791dd663a91", "16e44a09a5f43e6d"],
}


class TestTablesUnchanged:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_example3(self, n):
        assert digest(threshold_instance(n).function) == EXAMPLE3_DIGESTS[n]

    @pytest.mark.parametrize("k", [2, 3])
    def test_two_stage_decisions(self, k):
        assert [digest(d.function) for d in coverage_two_stage_space(k).decisions] == TWO_STAGE_DIGESTS[k]


class TestClassCountFunction:
    def test_grid_sizes_of_the_two_stage_decisions(self):
        grids = [len(d.function.grid()) for d in coverage_two_stage_space(4).decisions]
        assert grids == [625, 1280, 729, 208, 17]

    def test_values_gather_the_grid(self):
        f = ClassCountFunction(5, [[0, 3], [1, 2, 4]], np.arange(12.0).reshape(3, 4))
        for mask in range(32):
            c = ((mask & 0b01001).bit_count(), (mask & 0b10110).bit_count())
            assert f.value(mask) == 4 * c[0] + c[1]
        assert f.grid().tolist() == list(range(12))
        assert count_vectors([2, 3]).tolist()[7] == [1, 3]

    def test_json_is_the_explicit_table(self):
        f = threshold_instance(3).function
        assert f.to_json() == {"type": "explicit", "n": 3, "values": [0.0] + [1.0] * 7}

    @pytest.mark.parametrize(
        "classes, grid, message",
        [
            ([[0], [1]], [0.0] * 3, "count grid has 3 entries"),
            ([[0], [0, 1]], [0.0] * 6, "overlap"),
            ([[0]], [0.0] * 2, "does not cover"),
            ([[0, 1], []], [0.0] * 3, "nonempty"),
            ([[0, 1]], [0.0, float("nan"), 1.0], "finite"),
        ],
    )
    def test_refused(self, classes, grid, message):
        with pytest.raises(ValidationError, match=message):
            ClassCountFunction(2, classes, grid)

    def test_declared_classes(self):
        assert CoverageMax(4, [[0, 2], [1, 3]]).classes == (0b0101, 0b1010)
        assert TwoStageFlow(5, 2).classes == (0b11111,)
        assert TableFunction([0.0, 1.0]).classes is None
