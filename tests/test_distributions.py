import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corrgap
import corrgap.distributions as distributions
from corrgap.core import (
    MAX_EXACT,
    CoverageMax,
    SetFunction,
    SizeCapError,
    TableFunction,
    TwoStageFlow,
    ValidationError,
)
from corrgap.distributions import (
    _DOT_BLOCK,
    _MC_CHUNK,
    MAX_SAMPLES,
    ScenarioDistribution,
    _dot,
    _product_weights,
    independent_expectation_exact,
    independent_expectation_mc,
)
from corrgap.instances import random_monotone_instance
from corrgap.rng import SplitMix64, counter_uniforms


def threshold(n):
    return TableFunction([0.0] + [1.0] * ((1 << n) - 1))


class _FirstDraw(Exception):
    pass


def _refuse_draw(*args):
    raise _FirstDraw


class TestMarginals:
    def test_two_singletons(self):
        d = ScenarioDistribution(2, [(0b01, 0.5), (0b10, 0.5)])
        assert np.allclose(d.marginals(), [0.5, 0.5])

    def test_full_or_empty(self):
        d = ScenarioDistribution(4, [(0b1111, 0.5), (0, 0.5)])
        assert np.allclose(d.marginals(), [0.5] * 4)

    def test_partition_blocks(self):
        k = 4
        blocks = [sum(1 << e for e in range(i * k, (i + 1) * k)) for i in range(k)]
        d = ScenarioDistribution(k * k, [(b, 1.0 / k) for b in blocks])
        assert np.allclose(d.marginals(), [1.0 / k] * (k * k))

    @pytest.mark.parametrize("n", [1, 3, 8, 9, 16])
    def test_bitwise_equal_to_per_bit_adds(self, n):
        rng = np.random.default_rng(n)
        masks = [int.from_bytes(rng.bytes(9), "little") % (1 << n) for _ in range(n + 1)]
        weights = rng.random(n + 1)
        d = ScenarioDistribution(n, zip(masks, (weights / weights.sum()).tolist()))
        expected = np.zeros(n)
        for mask, prob in d.support:
            for i in range(n):
                if mask >> i & 1:
                    expected[i] += prob
        assert d.marginals().tobytes() == expected.tobytes()


class TestExpectation:
    def test_normalisation(self):
        f = TableFunction([1.0] * 8)
        d = ScenarioDistribution(3, [(1, 0.25), (6, 0.75)])
        assert d.expectation(f) == 1.0

    def test_singleton_worst_case_value(self):
        d = ScenarioDistribution(3, [(1, 1 / 3), (2, 1 / 3), (4, 1 / 3)])
        assert abs(d.expectation(threshold(3)) - 1.0) <= 1e-12

    def test_two_stage_flow_half_half(self):
        d = ScenarioDistribution(4, [(0b1111, 0.5), (0, 0.5)])
        assert d.expectation(TwoStageFlow(4, 3)) == 0.5 * 19 + 0.5 * 3

    def test_ground_set_mismatch(self):
        d = ScenarioDistribution(3, [(0, 1.0)])
        with pytest.raises(ValidationError):
            d.expectation(TableFunction([0.0, 1.0]))


class TestIndependentExact:
    def test_threshold_closed_form(self):
        assert abs(
            independent_expectation_exact(threshold(3), [1 / 3] * 3) - (1 - (2 / 3) ** 3)
        ) <= 1e-12

    def test_two_stage_flow_expected_cost(self):
        assert independent_expectation_exact(TwoStageFlow(4, 3), [0.5] * 4) == 4.0

    def test_point_mass_at_full_set(self):
        f = TableFunction([0.0, 1.0, 2.0, 7.0])
        assert independent_expectation_exact(f, [1.0, 1.0]) == 7.0

    def test_matches_materialised_product_distribution(self):
        inst = random_monotone_instance(17, 6)
        exact = independent_expectation_exact(inst.function, inst.marginals)
        weights = _product_weights(6, inst.marginals)
        dist = ScenarioDistribution(6, list(enumerate(weights.tolist())))
        assert abs(dist.expectation(inst.function) - exact) <= 1e-10

    def test_monotone_in_marginals_for_monotone_f(self):
        for trial in range(5):
            inst = random_monotone_instance(100 + trial, 5)
            base = independent_expectation_exact(inst.function, inst.marginals)
            for i in range(5):
                raised = list(inst.marginals)
                raised[i] = min(1.0, raised[i] + 0.25)
                assert (
                    independent_expectation_exact(inst.function, raised) >= base - 1e-12
                )

    @pytest.mark.parametrize("n", [1, 4, 11])
    def test_product_weights_bit_identical_to_masked_loop(self, n):
        p = tuple(np.random.default_rng(n).random(n).tolist())
        masks = np.arange(1 << n)
        reference = np.ones(1 << n)
        for i, pi in enumerate(p):
            has = (masks >> i & 1).astype(bool)
            reference[has] *= pi
            reference[~has] *= 1.0 - pi
        assert _product_weights(n, p).tobytes() == reference.tobytes()

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            independent_expectation_exact(CoverageMax(17, [list(range(17))]), [0.5] * 17)

    def test_marginal_length_checked(self):
        with pytest.raises(ValidationError):
            independent_expectation_exact(threshold(3), [0.5] * 4)


BAD_MARGINALS = [
    ([1.5, 0.5], "outside"),
    ([-0.5, 0.5], "outside"),
    ([math.nan, 0.5], "outside"),
    (["0.5", 0.5], "must be a number"),
    ([True, 0.5], "must be a number"),
    ([0.5], "1 marginals for ground set of size 2"),
]


class TestIndependentMarginalsValidated:
    @pytest.mark.parametrize("p, message", BAD_MARGINALS)
    def test_exact(self, p, message):
        with pytest.raises(ValidationError, match=message):
            independent_expectation_exact(threshold(2), p)

    @pytest.mark.parametrize("p, message", BAD_MARGINALS + [([1.5, -0.5], "outside")])
    def test_monte_carlo(self, p, message):
        with pytest.raises(ValidationError, match=message):
            independent_expectation_mc(threshold(2), p, 100, seed=1)

    def test_numpy_marginals_read_as_floats(self):
        p = np.array([0.25, 0.5])
        assert independent_expectation_exact(threshold(2), p) == 1 - 0.75 * 0.5
        assert independent_expectation_mc(threshold(2), p, 100, seed=1) == (
            independent_expectation_mc(threshold(2), [0.25, 0.5], 100, seed=1)
        )


class TestScenarioValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            ScenarioDistribution(2, [(0, 0.5), (1, 0.4)])

    def test_negative_probability_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioDistribution(2, [(0, 1.1), (1, -0.1)])

    def test_nan_beside_a_full_mass_rejected(self):
        with pytest.raises(ValidationError, match="not finite"):
            ScenarioDistribution(2, [(0, float("nan")), (1, 1.0)])

    def test_nan_alone_rejected(self):
        with pytest.raises(ValidationError, match="not finite"):
            ScenarioDistribution(2, [(0, float("nan"))])

    def test_tiny_negative_clamped_and_tiny_dropped(self):
        d = ScenarioDistribution(2, [(0, 1.0), (1, -1e-13), (2, 1e-13)])
        assert d.support == ((0, 1.0),)

    def test_duplicate_masks_merged(self):
        d = ScenarioDistribution(2, [(1, 0.25), (1, 0.25), (0, 0.5)])
        assert d.support == ((0, 0.5), (1, 0.5))

    def test_mask_range(self):
        with pytest.raises(ValidationError):
            ScenarioDistribution(2, [(4, 1.0)])

    @pytest.mark.parametrize("entry", [(1.7, 1.0), (True, 1.0), (1, "1.0"), (1, True)])
    def test_masks_integers_and_probabilities_numbers(self, entry):
        with pytest.raises(ValidationError, match="must be"):
            ScenarioDistribution(2, [entry])

    def test_one_size_rule(self):
        with pytest.raises(ValidationError):
            ScenarioDistribution(0, [(0, 1.0)])
        with pytest.raises(SizeCapError):
            ScenarioDistribution(MAX_EXACT + 1, [(0, 1.0)])
        with pytest.raises(SizeCapError):
            ScenarioDistribution(40, [(1 << 39, 1.0)])

    def test_to_json(self):
        d = ScenarioDistribution(3, [(0, 0.25), (5, 0.75)])
        assert d.to_json() == {"support": [{"mask": 0, "p": 0.25}, {"mask": 5, "p": 0.75}]}


class TestMonteCarlo:
    def test_same_seed_bit_identical(self):
        f = TwoStageFlow(6, 3)
        a = independent_expectation_mc(f, [0.5] * 6, 5000, seed=77)
        b = independent_expectation_mc(f, [0.5] * 6, 5000, seed=77)
        assert a.estimate == b.estimate and a.stderr == b.stderr

    @pytest.mark.parametrize("samples", [3000, _MC_CHUNK + 500])
    def test_matches_sequential_draws(self, samples):
        # sample j includes element i when draw j*n+i of the seed's stream is below p_i
        f = CoverageMax(3, [[0, 2], [1]])
        p = [0.2, 0.5, 0.9]
        rng = SplitMix64(2024)
        vals = []
        for _ in range(samples):
            mask = sum(1 << i for i in range(3) if rng.random() < p[i])
            vals.append(f.value(mask))
        vals = np.array(vals)
        total = sum(float(vals[a : a + _MC_CHUNK].sum()) for a in range(0, samples, _MC_CHUNK))
        mc = independent_expectation_mc(f, p, samples, seed=2024)
        assert mc.estimate == total / samples

    def test_within_four_sigma_of_exact(self):
        inst = random_monotone_instance(55, 8)
        exact = independent_expectation_exact(inst.function, inst.marginals)
        mc = independent_expectation_mc(inst.function, inst.marginals, 40_000, seed=5)
        assert abs(mc.estimate - exact) <= 4 * mc.stderr + 1e-12

    def test_large_ground_set_cardinality(self):
        # E|S| = n/2 by linearity, at the largest n a set function may have
        n = MAX_EXACT
        f = _Cardinality(n)
        mc = independent_expectation_mc(f, [0.5] * n, 100_000, seed=123)
        assert abs(mc.estimate - n / 2) <= 4 * mc.stderr

    def test_large_ground_set_two_stage_flow(self):
        # E[(|S| - x)^+] has an exact binomial closed form to test against
        n = MAX_EXACT
        x = n - 3
        f = TwoStageFlow(n, x)
        exact = f.build_cost + f.penalty * sum(
            (k - x) * math.comb(n, k) / 2**n for k in range(x + 1, n + 1)
        )
        mc = independent_expectation_mc(f, [0.5] * n, 60_000, seed=31)
        assert abs(mc.estimate - exact) <= 4 * mc.stderr + 1e-9

    def test_vectorised_large_n_paths_match_single_evaluation(self):
        n = MAX_EXACT
        half = n // 2
        low = (1 << half) - 1
        cases = [
            (CoverageMax(n, [list(range(half)), list(range(half, n))]),
             lambda m: max((m & low).bit_count(), (m >> half).bit_count())),
            (TwoStageFlow(n, 5), lambda m: 5 + 2**n * max(m.bit_count() - 5, 0)),
        ]
        masks = [0, 1, (1 << n) - 1, int("10" * half, 2), 12345, 54321]
        for f, reference in cases:
            expected = [reference(m) for m in masks]
            assert np.array_equal(f.values_at(np.array(masks)), expected)
            assert np.array_equal([f.value(m) for m in masks], expected)

    def test_sample_count_validated(self):
        with pytest.raises(ValidationError):
            independent_expectation_mc(threshold(2), [0.5, 0.5], 0, seed=1)

    def test_sample_count_above_cap_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(distributions, "counter_uniforms", _refuse_draw)
        with pytest.raises(SizeCapError):
            independent_expectation_mc(threshold(2), [0.5, 0.5], MAX_SAMPLES + 1, seed=1)

    def test_sample_count_at_cap_passes_the_check(self, monkeypatch):
        # the first draw is where the check has let the count through
        monkeypatch.setattr(distributions, "counter_uniforms", _refuse_draw)
        with pytest.raises(_FirstDraw):
            independent_expectation_mc(threshold(2), [0.5, 0.5], MAX_SAMPLES, seed=1)

    @pytest.mark.parametrize("n", [1, 8, 9, 16])
    @pytest.mark.parametrize("samples", [1, 2**11 - 1, 2**11 + 1, 2**15 + 1])
    def test_blocks_bit_identical_to_one_draw_per_chunk(self, n, samples):
        rng = np.random.default_rng(n)
        f = TableFunction(rng.normal(size=1 << n))
        p = rng.random(n)
        mc = independent_expectation_mc(f, p, samples, seed=99)
        assert (mc.estimate, mc.stderr) == one_draw_per_chunk(f, p, samples, 99)


def one_draw_per_chunk(f, p, samples, seed):
    """The sampler as first written: each 2^15-sample chunk's uniforms in one
    draw, masks built bit by bit in int64."""
    n = f.n
    total = total_sq = 0.0
    for done in range(0, samples, _MC_CHUNK):
        chunk = min(_MC_CHUNK, samples - done)
        u = counter_uniforms(seed, done * n, chunk * n).reshape(chunk, n)
        masks = np.zeros(chunk, dtype=np.int64)
        for i in range(n):
            masks |= (u[:, i] < p[i]).astype(np.int64) << i
        vals = f.values_at(masks)
        total += float(vals.sum())
        total_sq += _dot(vals, vals)
    mean = total / samples
    if samples == 1:
        return mean, 0.0
    return mean, float(np.sqrt(max(total_sq - samples * mean * mean, 0.0) / (samples - 1) / samples))


def bits(x):
    return struct.pack("<d", x)


class TestBlockedDot:
    @pytest.mark.parametrize("length", [1, _DOT_BLOCK - 1, _DOT_BLOCK])
    def test_one_block_is_one_np_dot(self, length):
        rng = np.random.default_rng(length)
        a, b = rng.standard_normal(length), rng.standard_normal(length)
        assert bits(_dot(a, b)) == bits(float(np.dot(a, b)))

    def test_negative_zero_kept(self):
        a, b = np.array([-1e-300]), np.array([1e-300])
        assert bits(_dot(a, b)) == bits(-0.0) == bits(float(np.dot(a, b)))

    @pytest.mark.parametrize("length", [1 << 14, 1 << 15, 1 << 16])
    def test_blocks_added_left_to_right(self, length):
        rng = np.random.default_rng(length)
        a, b = rng.standard_normal(length), rng.random(length)
        total = float(np.dot(a[:_DOT_BLOCK], b[:_DOT_BLOCK]))
        for start in range(_DOT_BLOCK, length, _DOT_BLOCK):
            total += float(np.dot(a[start : start + _DOT_BLOCK], b[start : start + _DOT_BLOCK]))
        assert bits(_dot(a, b)) == bits(total)

    @pytest.mark.parametrize("length", [3, 5000, 20_000, 1 << 16])
    def test_close_to_exact_sum(self, length):
        rng = np.random.default_rng(7 + length)
        a, b = rng.random(length), rng.random(length)
        exact = math.fsum(a * b)
        assert abs(_dot(a, b) - exact) <= 1e-12 * abs(exact)


THREAD_PROBE = """
import numpy as np
from corrgap.core import TableFunction
from corrgap.distributions import independent_expectation_exact, independent_expectation_mc
for seed in (0, 2, 3, 4, 5):
    rng = np.random.default_rng(seed)
    f = TableFunction(rng.random(1 << 16))
    p = rng.random(16)
    print(repr(independent_expectation_exact(f, p)))
    for samples in (20_000, 40_000):
        print(repr(independent_expectation_mc(f, p, samples, seed=seed)))
"""


def test_independent_leg_ignores_blas_thread_count():
    # n = 16 dots are long enough for OpenBLAS to split them across threads
    src = str(Path(corrgap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", THREAD_PROBE],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].count("\n") == 15
    assert outputs[0] == outputs[1]


class _Cardinality(SetFunction):
    """f(S) = |S|, defined by its evaluator alone, as a user subclass would be."""

    def values_at(self, masks):
        return np.bitwise_count(masks.astype(np.uint64)).astype(np.float64)
