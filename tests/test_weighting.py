"""Adaptive cut-off, residual weights, weighted ECDF and weighted quantiles."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from robustroc import (
    adaptive_cutoff,
    atypicality_dn,
    build_weighted_ecdf,
    hard_rejection,
    normal_reference,
    plain_ecdf,
    smooth_polynomial,
    standard_normal_reference,
)

REF = standard_normal_reference()


class TestWeightFunctions:
    def test_hard_rejection_values(self):
        w = hard_rejection()
        np.testing.assert_allclose(w.eval([0.0, 0.5, -0.5, 0.999]), 1.0)
        np.testing.assert_allclose(w.eval([1.0, -1.0, 2.0, 9.0]), 0.0)

    def test_smooth_polynomial_values(self):
        w = smooth_polynomial()
        assert w.eval(0.0) == 1.0
        assert w.eval(0.5) == pytest.approx((1 - 0.25) ** 2)
        assert w.eval(1.0) == 0.0
        assert w.eval(-3.0) == 0.0

    @pytest.mark.parametrize("factory", [hard_rejection, smooth_polynomial])
    def test_shape_constraints(self, factory):
        # even, non-increasing on [0, inf), bounded in [0, 1]
        w = factory()
        u = np.linspace(0, 3, 301)
        vals = w.eval(u)
        assert np.all((0 <= vals) & (vals <= 1))
        assert np.all(np.diff(vals) <= 1e-12)
        np.testing.assert_allclose(w.eval(-u), vals)
        assert np.all(vals[u >= 1.0] == 0.0)


class TestAtypicality:
    def test_all_zero_residuals(self):
        assert atypicality_dn(np.zeros(7), REF) == 0.0

    def test_hand_oracle_small_gap(self):
        # |r| order stats {0.1, 0.2, 0.3, 9.0}: the i = 4 term dominates and
        # 2*Phi(9) - 1 rounds to exactly 1 in double precision
        r = np.array([0.1, -0.2, 0.3, 9.0])
        gaps = [2 * norm.cdf(t) - 1 - (i - 1) / 4
                for i, t in enumerate([0.1, 0.2, 0.3, 9.0], start=1)]
        expected = max(max(gaps), 0.0)
        assert atypicality_dn(r, REF) == pytest.approx(expected, abs=1e-15)
        assert atypicality_dn(r, REF) == pytest.approx(0.25, abs=1e-12)

    def test_hand_oracle_interior_gap(self):
        # |r| order stats {0.5, 1.0, 1.5, 8.0}: the i = 2 term dominates
        r = np.array([0.5, -1.0, 1.5, 8.0])
        expected = (2 * norm.cdf(1.0) - 1) - 0.25
        assert atypicality_dn(r, REF) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.4327, abs=5e-5)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = atypicality_dn(rng.standard_normal(30) * 3, REF)
            assert 0.0 <= d <= 1.0


class TestAdaptiveCutoff:
    def test_all_zeros(self):
        t_bar, t_n, d_n = adaptive_cutoff(np.zeros(5), REF, eta=2.5)
        assert (t_bar, t_n, d_n) == (0.0, 2.5, 0.0)

    def test_hand_oracle_one_outlier(self):
        r = np.array([0.1, -0.2, 0.3, 9.0])
        t_bar, t_n, d_n = adaptive_cutoff(r, REF, eta=2.5)
        assert d_n == pytest.approx(0.25, abs=1e-12)
        assert t_bar == pytest.approx(0.3)          # i_n = 3
        assert t_n == 2.5
        assert hard_rejection().eval(9.0 / t_n) == 0.0

    def test_hand_oracle_interior_gap(self):
        r = np.array([0.5, -1.0, 1.5, 8.0])
        t_bar, t_n, d_n = adaptive_cutoff(r, REF, eta=2.5)
        assert d_n == pytest.approx(0.4327, abs=5e-5)
        assert t_bar == pytest.approx(1.5)          # i_n = 4 - 1 = 3
        assert t_n == 2.5

    def test_matches_stable_argsort_reference(self):
        # t_bar_n is the i_n-th smallest |r| of one sort, the value a stable
        # argsort of |r| picks, ties and signed duplicates included
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            r = np.round(3.0 * rng.standard_normal(n), int(rng.integers(0, 2)))
            r[: n // 3] = 10.0 * rng.choice([-1.0, 1.0], n // 3)
            d_n = atypicality_dn(r, REF)
            i_n = n - math.floor(n * d_n)
            order = np.argsort(np.abs(r), kind="stable")
            t_bar = float(np.abs(r[order[i_n - 1]])) if i_n > 0 else 0.0
            assert adaptive_cutoff(r, REF, eta=2.5) == (t_bar, max(t_bar, 2.5), d_n)

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError, match="eta"):
            adaptive_cutoff(np.ones(3), REF, eta=0.0)


class TestWeightedEcdf:
    def test_matches_plain_ecdf_when_clean(self):
        rng = np.random.default_rng(4)
        r = np.clip(rng.standard_normal(100), -2.0, 2.0)
        weighted = build_weighted_ecdf(r, hard_rejection(), REF, eta=2.5)
        plain = plain_ecdf(r)
        t = np.linspace(-3, 3, 200)
        np.testing.assert_array_equal(weighted.cdf(t), plain.cdf(t))

    def test_outlier_dropped_example(self):
        # r = {-1, 0, 9} with hard rejection and t_n = 2.5 -> weights {1,1,0}
        ecdf = build_weighted_ecdf(np.array([-1.0, 0.0, 9.0]), hard_rejection(),
                                   REF, eta=2.5)
        assert ecdf.t_n == 2.5
        np.testing.assert_allclose(ecdf.weights, [1.0, 1.0, 0.0])
        assert ecdf.cdf(0.0) == 1.0
        assert ecdf.cdf(-0.5) == 0.5

    def test_quantile_examples(self):
        ecdf = build_weighted_ecdf(np.array([-1.0, 0.0, 9.0]), hard_rejection(),
                                   REF, eta=2.5)
        assert ecdf.quantile(0.5) == -1.0
        assert ecdf.quantile(0.75) == 0.0

    def test_symmetric_pair_median(self):
        a = 1.3
        ecdf = plain_ecdf(np.array([-a, a]))
        assert ecdf.quantile(0.5) == -a

    def test_outlier_nullification(self):
        rng = np.random.default_rng(8)
        r = np.concatenate([rng.standard_normal(50), [15.0, -20.0]])
        for w in (hard_rejection(), smooth_polynomial()):
            ecdf = build_weighted_ecdf(r, w, REF, eta=2.5)
            weights = ecdf.weights
            assert np.all(weights[np.abs(r) >= ecdf.t_n] == 0.0)

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            build_weighted_ecdf(np.array([50.0, 60.0, -70.0, 80.0]),
                                hard_rejection(), REF, eta=2.5)

    def test_cdf_limits_and_monotonicity(self):
        rng = np.random.default_rng(12)
        ecdf = build_weighted_ecdf(rng.standard_normal(40), hard_rejection(),
                                   REF, eta=2.5)
        t = np.linspace(-5, 5, 400)
        vals = ecdf.cdf(t)
        assert np.all(np.diff(vals) >= 0)
        assert ecdf.cdf(np.inf) == 1.0
        assert ecdf.cdf(-np.inf) == 0.0

    def test_glivenko_cantelli_clean_normal(self):
        # sup_t |G_n(t) - Phi(t)| small for clean normal residuals
        sups = []
        for seed in range(5):
            r = np.random.default_rng(seed).standard_normal(10000)
            ecdf = build_weighted_ecdf(r, hard_rejection(), REF, eta=2.5)
            t = np.sort(r)
            sups.append(np.max(np.abs(ecdf.cdf(t) - norm.cdf(t))))
        assert np.median(sups) < 0.03

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(seed=82965048)  # t_n on the smallest |r_i|: zero total weight
    @settings(max_examples=100, deadline=None)
    def test_quantile_cdf_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        r = rng.standard_normal(rng.integers(2, 60)) * rng.uniform(0.1, 3.0)
        w = smooth_polynomial()
        ref = normal_reference(rng.uniform(0.5, 2.0))
        _, t_n, _ = adaptive_cutoff(r, ref, eta=2.5)
        if not np.any(w.eval(r / t_n) > 0):
            # every residual at or beyond the cut-off has no ECDF to invert
            with pytest.raises(ValueError, match="zero total weight"):
                build_weighted_ecdf(r, w, ref, eta=2.5)
            return
        ecdf = build_weighted_ecdf(r, w, ref, eta=2.5)
        for q in rng.uniform(0.01, 0.99, 5):
            t = ecdf.quantile(q)
            assert ecdf.cdf(t) >= q
        # quantile(G_n(r_i)) <= r_i at every positive-weight support point
        weights = ecdf.weights
        for ri in r[weights > 0]:
            assert ecdf.quantile(min(ecdf.cdf(ri), 1 - 1e-12)) <= ri

    def test_quantile_monotone_in_q(self):
        rng = np.random.default_rng(21)
        ecdf = build_weighted_ecdf(rng.standard_normal(30), hard_rejection(),
                                   REF, eta=2.5)
        q = np.linspace(0.01, 0.99, 99)
        vals = ecdf.quantile(q)
        assert np.all(np.diff(vals) >= 0)
