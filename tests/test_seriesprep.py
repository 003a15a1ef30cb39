import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reslearn import seriesprep
from reslearn.errors import (
    ConfigError,
    DegenerateSeries,
    SchemaMismatch,
    SeriesTooShort,
    SplitTooSmall,
)
from reslearn.seriesprep import (
    SplitSpec,
    impute_absent,
    make_windows,
    minmax_scale,
    read_feature_csv,
    rolling_mean,
    runs_test,
    segment,
    split,
)

from fuzz import edits, mutate

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestSegment:
    def test_remainder_dropped(self):
        seg = segment(np.arange(20), 8)
        assert seg.num_segments == 2
        assert seg.dropped == 4
        np.testing.assert_array_equal(seg.segments[0], np.arange(8))

    def test_exact_fit(self):
        seg = segment(np.arange(8), 8)
        assert seg.num_segments == 1
        assert seg.dropped == 0

    def test_long_series(self):
        seg = segment(np.zeros(2000), 500)
        assert seg.num_segments == 4

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            segment(np.arange(5), 8)

    def test_chronology_preserved(self):
        values = np.arange(100, dtype=float)
        seg = segment(values, 25)
        np.testing.assert_array_equal(np.concatenate(seg.segments), values)


class TestSplit:
    def test_paper_protocol_100(self):
        train, val, test = split(np.arange(100), SplitSpec(0.5, 0.2), lookback=8)
        assert (len(train), len(val), len(test)) == (40, 10, 50)

    def test_paper_protocol_500(self):
        train, val, test = split(np.arange(500), SplitSpec(0.5, 0.2), lookback=32)
        assert (len(train), len(val), len(test)) == (200, 50, 250)

    def test_too_small_with_lookback(self):
        with pytest.raises(SplitTooSmall):
            split(np.arange(20), SplitSpec(0.9, 0.2), lookback=8)

    def test_chronological_no_shuffle(self):
        values = np.arange(200, dtype=float)
        train, val, test = split(values, SplitSpec(0.5, 0.2), lookback=8)
        np.testing.assert_array_equal(np.concatenate([train, val, test]), values)


class TestRollingMean:
    def test_small_example(self):
        np.testing.assert_allclose(rolling_mean(np.array([1.0, 2, 3, 4]), 2),
                                   [1.5, 2.5, 3.5])

    def test_constant(self):
        out = rolling_mean(np.full(30, 7.0), 20)
        assert out.size == 11
        np.testing.assert_allclose(out, 7.0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200)
        out = rolling_mean(x, 20)
        naive = np.array([x[i - 19:i + 1].mean() for i in range(19, 200)])
        np.testing.assert_allclose(out, naive, atol=1e-12)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            rolling_mean(np.arange(5, dtype=float), 20)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(finite_floats, min_size=25, max_size=60),
           st.floats(min_value=0.1, max_value=10), finite_floats)
    def test_commutes_with_affine(self, values, a, b):
        x = np.array(values)
        lhs = rolling_mean(a * x + b, 20)
        rhs = a * rolling_mean(x, 20) + b
        np.testing.assert_allclose(lhs, rhs, atol=1e-6 * max(1, abs(a), abs(b)))


class TestRunsTest:
    def test_alternating(self):
        x = np.array([1.0, 0.0] * 15)
        r = runs_test(x)
        assert r.n_runs == 30
        assert r.z > 0
        assert r.p_value < 0.01

    def test_two_blocks(self):
        r = runs_test(np.array([1.0, 1, 1, 2, 2, 2]))
        assert r.n_runs == 2
        assert r.z < 0
        # hand-computed: n1=n2=3, mu=4, var=1.2
        assert r.z == pytest.approx((2 - 4) / math.sqrt(1.2))

    def test_smoothed_trend_is_non_random(self):
        rng = np.random.default_rng(5)
        ramp = np.linspace(0, 10, 300) + rng.normal(0, 1, 300)
        r = runs_test(rolling_mean(ramp, 20))
        assert r.p_value < 1e-6

    def test_degenerate(self):
        with pytest.raises(DegenerateSeries):
            runs_test(np.full(30, 1.0))
        with pytest.raises(DegenerateSeries):
            runs_test(np.array([]))

    @given(st.lists(st.integers(-3, 3).map(float) | finite_floats, min_size=1, max_size=40))
    def test_median_is_numpys(self, values):
        x = np.array(values)
        assert seriesprep._median(x) == np.median(x)

    @pytest.mark.parametrize("seed", range(10))
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=int(rng.integers(30, 100)))
        r1 = runs_test(x)
        r2 = runs_test(np.exp(2.0 * x))
        assert r1.n_runs == r2.n_runs
        assert r1.p_value == pytest.approx(r2.p_value)


class TestScaling:
    def test_basic(self):
        scaled, scaler = minmax_scale(np.array([0.0, 5.0, 10.0]))
        np.testing.assert_allclose(scaled, [0, 0.5, 1])
        assert not scaler.identity

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=100)
        scaled, scaler = minmax_scale(x)
        np.testing.assert_allclose(scaler.inverse(scaled), x, atol=1e-12)

    def test_constant_flagged_identity(self):
        x = np.full(10, 3.0)
        scaled, scaler = minmax_scale(x)
        assert scaler.identity
        np.testing.assert_array_equal(scaled, x)
        np.testing.assert_array_equal(scaler.inverse(scaled), x)

    def test_transform_new_data(self):
        _, scaler = minmax_scale(np.array([0.0, 10.0]))
        np.testing.assert_allclose(scaler.transform(np.array([5.0, 20.0])), [0.5, 2.0])


class TestMakeWindows:
    def test_small_example(self):
        inputs, targets = make_windows(np.array([1.0, 2, 3, 4]), 2)
        np.testing.assert_array_equal(inputs, [[1, 2], [2, 3]])
        np.testing.assert_array_equal(targets, [3, 4])

    def test_count(self):
        inputs, targets = make_windows(np.arange(100, dtype=float), 32)
        assert inputs.shape == (68, 32)
        assert targets.shape == (68,)

    def test_linear_ramp_differences(self):
        inputs, _ = make_windows(np.arange(50, dtype=float), 8)
        diffs = np.diff(inputs, axis=1)
        assert np.all(diffs == 1.0)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            make_windows(np.arange(8, dtype=float), 8)

    def test_chronology(self):
        values = np.arange(40, dtype=float)
        inputs, targets = make_windows(values, 5)
        for i in range(len(targets)):
            np.testing.assert_array_equal(inputs[i], values[i:i + 5])
            assert targets[i] == values[i + 5]


class TestImpute:
    def test_forward_fill(self):
        out = impute_absent([None, 2.0, None, None, 5.0])
        np.testing.assert_array_equal(out, [2.0, 2.0, 2.0, 2.0, 5.0])

    def test_all_absent(self):
        with pytest.raises(DegenerateSeries):
            impute_absent([None, None])


# a features CSV with NA cells in every column and a blank line
FEATURES_TEXT = ("segment,f_c,f_s,f_iat\n0,3,3600,0.0139\n1,NA,NA,NA\n\n"
                 "2,2,2400.5,NA\n3,0,0,0.02\n")


class TestReadFeatureCsv:
    # a guard: 20000 random edits of each column's file, run apart from this
    # test, gave no other outcome
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(("f_c", "f_s", "f_iat")), edits(),
           st.none() | st.integers(0, len(FEATURES_TEXT)))
    def test_mutated_text_returns_or_raises_its_error(self, feature, changes, cut):
        text = mutate(FEATURES_TEXT, changes)[:cut]
        try:
            values = read_feature_csv(text, feature)
        except (SchemaMismatch, DegenerateSeries):   # every cell of f_iat NA
            return
        assert values.dtype == np.float64 and np.isfinite(values).all()
