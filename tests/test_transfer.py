"""Transfer-operator sums, iterated pressure, and the dimension zero."""

import math

import numpy as np
import pytest

import tractdim.linearizer as lz
import tractdim.tract as tr
import tractdim.transfer as tf
from tractdim.errors import BudgetExceeded, DivergenceDetected, NoSignChange
from tractdim.poly import Polynomial

E2 = complex(math.e ** 2)
E3 = complex(math.e ** 3)
E4 = complex(math.e ** 4)


@pytest.fixture(scope="module")
def exp_atlas():
    return tr.find_tracts(lz.exp_power(1.0, 1), np.e)


@pytest.fixture(scope="module")
def quarter_atlas():
    return tr.find_tracts(lz.exp_power(0.25, 1), np.e)


@pytest.fixture(scope="module")
def square_atlas():
    return tr.find_tracts(lz.exp_power(1.0, 2), np.e)


@pytest.fixture(scope="module")
def koenigs_atlas():
    h = lz.koenigs_handle(Polynomial.from_string("z^2"), 1.0, kappa=0.25)
    return tr.find_tracts(h, np.e)


class TestApplyPoint:
    def test_cotangent_closed_form(self, exp_atlas):
        # sum over k of (b^2 + 4 pi^2 k^2)^(-1) = coth(b/2)/(2b)
        s1 = tf.transfer_apply_point(exp_atlas, 2.0, E2)
        assert s1.value == pytest.approx(math.cosh(1) / math.sinh(1) / 4,
                                         abs=1e-6)
        s2 = tf.transfer_apply_point(exp_atlas, 2.0, E4)
        assert s2.value == pytest.approx(math.cosh(2) / math.sinh(2) / 8,
                                         abs=1e-6)

    def test_brute_force_oracle(self, exp_atlas):
        sample = tf.transfer_apply_point(exp_atlas, 1.5, E2, k_budget=4096)
        ks = np.arange(-4096, 4097)
        brute = np.sum(np.abs(2.0 + 2j * np.pi * ks) ** -1.5)
        assert sample.value == pytest.approx(brute, rel=1e-12)

    def test_sample_invariants(self, exp_atlas):
        s = tf.transfer_apply_point(exp_atlas, 2.0, E2)
        assert s.value >= 0 and s.tail_estimate >= 0
        assert s.value == pytest.approx(math.fsum(s.block_sums), rel=1e-12)
        assert s.terms_used > 0
        assert '"value"' in s.to_json()

    def test_truncation_stability(self, exp_atlas, square_atlas):
        for atlas, t in ((exp_atlas, 1.5), (exp_atlas, 2.0),
                         (square_atlas, 2.0)):
            a = tf.transfer_apply_point(atlas, t, E2, k_budget=1 << 12)
            b = tf.transfer_apply_point(atlas, t, E2, k_budget=1 << 13)
            assert abs(b.value - a.value) < max(a.tail_estimate,
                                                1e-9 * a.value)

    def test_divergence_dichotomy(self, exp_atlas):
        for t in (1.2, 1.5, 2.0):
            assert tf.transfer_apply_point(exp_atlas, t, E2).value > 0
        for t in (0.5, 0.8):
            with pytest.raises(DivergenceDetected):
                tf.transfer_apply_point(exp_atlas, t, E2)

    def test_domain_guards(self, exp_atlas):
        with pytest.raises(ValueError):
            tf.transfer_apply_point(exp_atlas, 0.0, E2)
        with pytest.raises(ValueError):
            tf.transfer_apply_point(exp_atlas, 2.0, 1.0 + 0j)


class TestDyadicProfile:
    def test_exp_exponents_approach_minus_one(self, exp_atlas):
        prof = tf.transfer_dyadic_profile(exp_atlas, 2.0, E2)
        first, last = prof[2][1], prof[-1][1]
        assert abs(last + 1.0) < 0.3
        assert abs(last + 1.0) < abs(first + 1.0)

    def test_exp_borderline_flat(self, exp_atlas):
        prof = tf.transfer_dyadic_profile(exp_atlas, 1.0, E2)
        assert abs(prof[-1][1]) < 0.15

    def test_square_map_decay(self, square_atlas):
        prof = tf.transfer_dyadic_profile(square_atlas, 2.0, E2)
        assert all(e <= -0.8 for n, e in prof if n >= 6)


class TestIterate:
    def test_depth_one_identity(self, exp_atlas):
        # all first-level preimages of e^4 stay outside the reference
        # circle, so depth 1 and the point operator coincide exactly
        v = tf.transfer_iterate(exp_atlas, 2.0, E4, 1, 128)
        s = tf.transfer_apply_point(exp_atlas, 2.0, E4, k_budget=128)
        assert v == pytest.approx(s.value, rel=1e-12)

    def test_depth_two_oracle(self, exp_atlas):
        v = tf.transfer_iterate(exp_atlas, 2.0, E2, 2, 128)
        B1, B2 = tf.level_budgets(128, 2)
        ks = np.arange(-B1, B1 + 1)
        xi = 2.0 + 2j * np.pi * ks
        brute = sum(
            abs(1.0 / x) ** 2
            * tf.transfer_apply_point(exp_atlas, 2.0, complex(x), B2).value
            for x in xi if abs(x) > exp_atlas.radius
        )
        assert v == pytest.approx(brute, abs=1e-8)

    def test_normalized_sequence_settles(self, exp_atlas):
        vals = [tf.transfer_iterate(exp_atlas, 2.0, -E2, n, 64)
                for n in (1, 2, 3, 4)]
        seq = [math.log(v) / n for n, v in zip((1, 2, 3, 4), vals)]
        assert all(-2.6 < x < -1.0 for x in seq)
        assert abs(seq[3] - seq[2]) < 0.5

    def test_depth_guard(self, exp_atlas):
        with pytest.raises(ValueError):
            tf.transfer_iterate(exp_atlas, 2.0, E2, 5)
        with pytest.raises(ValueError):
            tf.transfer_iterate(exp_atlas, 2.0, E2, 0)

    def test_frontier_cap(self, exp_atlas):
        with pytest.raises(BudgetExceeded):
            tf.transfer_iterate(exp_atlas, 2.0, E2, 4, 4096)


class TestPressure:
    def test_monotone_in_t(self, quarter_atlas):
        ps = [tf.pressure_entire(quarter_atlas, t).value
              for t in (1.5, 2.0, 2.5)]
        assert ps[0] > ps[1] > ps[2]

    def test_base_point_spread(self, exp_atlas):
        # the depth-3 estimator carries the oscillation of near-boundary
        # chains; the spread must stay inside its own reported error bars
        a = tf.pressure_entire(exp_atlas, 2.0, E2)
        b = tf.pressure_entire(exp_atlas, 2.0, E3)
        assert abs(a.value - b.value) <= a.residual + b.residual
        for fit in (a, b):
            assert -2.6 < fit.value < -1.0

    def test_quarter_golden_regression(self, quarter_atlas):
        fit = tf.pressure_entire(quarter_atlas, 2.0, n_max=4,
                                 branch_budget=128)
        assert fit.value == pytest.approx(-2.096779520521, abs=1e-9)

    def test_curve_monotone(self, quarter_atlas):
        curve = tf.pressure_curve_entire(quarter_atlas, (1.5, 2.0, 2.5))
        diffs = np.diff(curve.values)
        assert np.all(diffs <= 1e-6)
        assert '"pressure"' in curve.to_json()


class TestBowenZero:
    def test_synthetic_affine_root(self):
        got = tf.pressure_root(lambda t: (1 - t) * math.log(2), 0.1, 2.5,
                               width=1e-3)
        assert got == pytest.approx(1.0, abs=1e-3)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange) as info:
            tf.pressure_root(lambda t: np.float64(-t), 0.1, 2.5)
        detail = str(info.value)
        assert detail.split(";")[0] == "no sign change on bracket"
        assert "np.float64" not in detail
        assert detail.endswith("[(0.1, -0.1), (2.5, -2.5)]")
        with pytest.raises(NoSignChange):
            tf.pressure_root(lambda t: 1.0, 0.1, 2.5)

    def test_quarter_map(self, quarter_atlas):
        h = tf.bowen_zero_entire(quarter_atlas, 1.0035)
        assert 1.0 < h < 2.0
        assert tf.pressure_entire(quarter_atlas, h - 0.05).value > 0
        assert tf.pressure_entire(quarter_atlas, h + 0.05).value < 0

    def test_koenigs_map(self, koenigs_atlas):
        # the shallow estimator puts the zero barely above the threshold,
        # so the bracket starts from the lower error bar of theta-hat
        h = tf.bowen_zero_entire(koenigs_atlas, 0.98, n_max=2,
                                 branch_budget=32)
        assert 1.0 < h < 2.0


class TestDecayAndScaling:
    def test_exp_decay(self, exp_atlas):
        rep = tf.decay_check(exp_atlas, 2.0, 2.0)
        assert rep["passed"]
        assert rep["sup"] == rep["values"][0]
        assert all(a > b for a, b in zip(rep["values"], rep["values"][1:]))

    def test_exp_fixed_ratio_band(self, exp_atlas):
        band = tf.scaling_band(exp_atlas, 2.0, n_args=1)
        assert band["ratio"] <= 4.0

    def test_guards(self, exp_atlas):
        with pytest.raises(ValueError):
            tf.decay_check(exp_atlas, 0.0, 2.0)
        with pytest.raises(ValueError):
            tf.decay_check(exp_atlas, 2.0, 1.0)
        with pytest.raises(ValueError):
            tf.decay_check(exp_atlas, 1.1, 8.0)

    def test_koenigs_scaling_band(self, koenigs_atlas):
        band = tf.scaling_band(koenigs_atlas, 2.0, n_args=2, k_budget=256)
        assert band["ratio"] <= 10.0
