import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reslearn.errors import AllTermsSkipped, Empty, InputOverflow, LengthMismatch, ZeroBase
from reslearn.metrics import evaluate, smape_improvement

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestHandComputed:
    # each case worked out by hand: (actual, predicted, rmse, mape, smape)
    CASES = [
        ([1, 2, 3], [1, 2, 3], 0.0, 0.0, 0.0),
        ([1], [2], 1.0, 1.0, 2 / 3),
        ([2], [0], 2.0, 1.0, 2.0),
        ([1, 2], [2, 4], math.sqrt(2.5), 1.0, 2 / 3),
        ([10, 20, 30], [11, 19, 33],
         math.sqrt(11 / 3),
         (0.1 + 0.05 + 0.1) / 3,
         (1 / 10.5 + 1 / 19.5 + 3 / 31.5) / 3),
        ([-1], [1], 2.0, 2.0, 2.0),
        ([100], [99], 1.0, 0.01, 1 / 99.5),
        ([4, 8], [4, 8], 0.0, 0.0, 0.0),
        ([1, 1, 1, 1], [0, 2, 0, 2], 1.0, 1.0, (2 + 2 / 3 + 2 + 2 / 3) / 4),
        ([0.5, 0.25], [0.75, 0.5],
         math.sqrt((0.0625 + 0.0625) / 2),
         (0.5 + 1.0) / 2,
         (0.25 / 0.625 + 0.25 / 0.375) / 2),
    ]

    @pytest.mark.parametrize("a,p,r,m,s", CASES)
    def test_fixture(self, a, p, r, m, s):
        res = evaluate(a, p)
        assert res.rmse == pytest.approx(r, abs=1e-9)
        assert res.mape == pytest.approx(m, abs=1e-9)
        assert res.smape == pytest.approx(s, abs=1e-9)


class TestZeroDenominatorPolicy:
    def test_mape_skips_zero_actuals(self):
        # zero-actual term dropped, not inflated: mean over the other two
        assert evaluate([3, 0, 3], [3, 2, 3]).mape == 0.0

    def test_mape_all_zero_raises(self):
        with pytest.raises(AllTermsSkipped):
            evaluate([0, 0], [1, 2])

    def test_smape_skips_both_zero(self):
        # middle term both-zero skipped; others exact
        assert evaluate([5, 0, 5], [5, 0, 5]).smape == 0.0

    def test_smape_zero_actual_nonzero_pred_counts_as_two(self):
        # the zero actual is skipped by MAPE only, and its SMAPE term is 2
        res = evaluate([0, 5], [7, 5])
        assert (res.mape, res.n_used) == (0.0, 1)
        assert res.smape == pytest.approx(1.0)

    def test_smape_all_skipped_raises(self):
        # each actual is above the zero cut, but no mean of |actual| and
        # |predicted| is
        with pytest.raises(AllTermsSkipped, match="both values zero"):
            evaluate([1.5e-12, 1.5e-12], [0.0, 0.0])

    def test_evaluate_counts_skips(self):
        res = evaluate([5, 0, 5], [5, 2, 5])
        assert res.n_used == 2
        assert res.n_skipped_zero_denominator == 1
        assert res.rmse == pytest.approx(math.sqrt(4 / 3))
        assert res.mape == 0.0
        assert res.smape == pytest.approx(2 / 3)


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            evaluate([1, 2], [1])

    def test_empty(self):
        with pytest.raises(Empty):
            evaluate([], [])

    # one error's square overflows float64, or only the sum of two squares does
    @pytest.mark.parametrize("actual", [[5.0, 1e300], [1.3e154, 1.3e154]], ids=["square", "sum"])
    def test_rmse_overflow_is_named(self, actual):
        with pytest.raises(InputOverflow, match="mean squared error overflows float64"):
            evaluate(actual, [0.0, 0.0])


class TestImprovement:
    def test_basic(self):
        assert smape_improvement(0.5, 0.1) == pytest.approx(80.0)

    def test_no_change(self):
        assert smape_improvement(0.36, 0.36) == 0.0

    def test_negative_when_worse(self):
        assert smape_improvement(0.2, 0.3) == pytest.approx(-50.0)

    def test_zero_base_raises(self):
        with pytest.raises(ZeroBase):
            smape_improvement(0.0, 0.1)


class TestProperties:
    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=50))
    def test_smape_symmetric_and_bounded(self, pairs):
        a = np.array([x for x, _ in pairs])
        p = np.array([y for _, y in pairs])
        try:
            s, swapped = evaluate(a, p).smape, evaluate(p, a).smape
        except AllTermsSkipped:
            return
        assert s == pytest.approx(swapped, abs=1e-12)
        assert -1e-12 <= s <= 2 + 1e-12

    # magnitudes kept well above the zero cut (ZERO_DENOMINATOR) so scaling by k cannot
    # move a term across the skip threshold
    clear = st.one_of(st.just(0.0),
                      st.floats(min_value=1e-3, max_value=1e3),
                      st.floats(min_value=-1e3, max_value=-1e-3))

    @given(st.lists(st.tuples(clear, clear), min_size=1, max_size=50),
           st.floats(min_value=0.01, max_value=100))
    def test_smape_scale_invariant(self, pairs, k):
        a = np.array([x for x, _ in pairs])
        p = np.array([y for _, y in pairs])
        try:
            s1 = evaluate(a, p).smape
        except AllTermsSkipped:
            return
        assert evaluate(k * a, k * p).smape == pytest.approx(s1, abs=1e-9)

    @given(st.lists(finite.filter(lambda v: abs(v) > 1e-12), min_size=1, max_size=50))
    def test_rmse_zero_iff_equal(self, values):
        a = np.array(values)
        assert evaluate(a, a).rmse == 0.0
        assert evaluate(a, a + 1.0).rmse == pytest.approx(1.0)
