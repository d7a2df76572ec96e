import numpy as np
import pytest

from tractdim import poly
from tractdim.errors import BudgetExceeded, NoSignChange
from tractdim.poly import Polynomial


Z2 = Polynomial.from_string("z^2")
CHEB = Polynomial.from_string("z^2-2")
BASILICA = Polynomial.from_string("z^2-1")


class TestPolynomial:
    def test_eval(self):
        assert poly.poly_eval(Z2, 1 + 1j) == 2j
        p = Polynomial.from_string("2z^3+0.5z-1")
        z = 1.5 - 0.25j
        assert p(z) == pytest.approx(2 * z**3 + 0.5 * z - 1)

    def test_shorthand_roundtrip(self):
        p = Polynomial.from_json(CHEB.to_json())
        assert p.coefficients == CHEB.coefficients

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            Polynomial((1.0, 2.0))  # degree 1

    def test_critical_points(self):
        cps = BASILICA.critical_points()
        assert len(cps) == 1
        assert abs(cps[0]) < 1e-12

    def test_derivative(self):
        z = 0.3 + 0.7j
        h = 1e-7
        num = (CHEB(z + h) - CHEB(z - h)) / (2 * h)
        assert CHEB.derivative(z) == pytest.approx(num, abs=1e-6)


class TestPreimages:
    def test_square_root(self):
        pts = poly.preimages(Z2, 4.0)
        assert pts[0] == pytest.approx(-2 + 0j, abs=1e-8)
        assert pts[1] == pytest.approx(2 + 0j, abs=1e-8)

    def test_tree_counts_and_orbit(self):
        nodes = poly.preimage_tree(BASILICA, 5.0, 3)
        assert len(nodes) == 8
        for node in nodes:
            z = node.point
            for _ in range(node.depth):
                z = BASILICA(z)
            assert abs(z - 5.0) < 1e-8

    def test_cumulative_derivative(self):
        nodes = poly.preimage_tree(Z2, 16.0, 2)
        # p^2(z) = z^4, derivative 4 z^3, |z| = 2 at depth 2
        for node in nodes:
            assert abs(node.cumulative_derivative) == pytest.approx(32.0, rel=1e-9)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            poly.preimage_tree(Z2, 3.0, 8, node_budget=100)

    def test_deterministic_order(self):
        a = poly.preimage_tree(BASILICA, 2 + 1j, 4)
        b = poly.preimage_tree(BASILICA, 2 + 1j, 4)
        assert [n.point for n in a] == [n.point for n in b]


class TestFixedPoints:
    def test_z2(self):
        recs = poly.find_repelling_fixed_points(Z2)
        locs = sorted(r.location.real for r in recs)
        assert locs == pytest.approx([0.0, 1.0], abs=1e-9)
        by_loc = {round(r.location.real): r for r in recs}
        assert not by_loc[0].is_repelling
        assert by_loc[1].is_repelling
        assert by_loc[1].multiplier == pytest.approx(2.0)

    def test_cheb_like(self):
        recs = poly.find_repelling_fixed_points(Polynomial.from_string("2z^2-1"))
        mults = sorted(abs(r.multiplier) for r in recs)
        assert mults == pytest.approx([2.0, 4.0], abs=1e-8)


class TestTreePressure:
    def test_z2_exact_line(self):
        curve = poly.pressure_curve(Z2, (0.0, 0.5, 1.0, 1.5), 3.0, 14)
        for t, val in zip(curve.t_grid, curve.values):
            assert val == pytest.approx((1 - t) * np.log(2), abs=1e-3)

    def test_counting_measure(self):
        tp = poly.tree_pressure(Z2, 0.0, 7.0, 8)
        assert tp.value == pytest.approx(np.log(2), abs=1e-12)
        assert tp.per_depth[-1] == pytest.approx(np.log(2), abs=1e-12)

    def test_cheb(self):
        val = poly.tree_pressure(CHEB, 1.0, 5.0, 14).value
        assert abs(val) < 2e-2

    def test_slope_estimator_z2(self):
        tp = poly.tree_pressure(Z2, 1.0, 3.0, 14)
        assert tp.slope == pytest.approx(0.0, abs=3e-2)

    def test_curve_monotone(self):
        curve = poly.pressure_curve(Z2, [0.0, 0.5, 1.0, 1.5], 3.0, 12)
        vals = curve.values
        assert all(vals[i] >= vals[i + 1] - 1e-9 for i in range(len(vals) - 1))


class TestPoincareSeries:
    def test_level_one(self):
        sums = poly.poincare_series_partial(Z2, 2.0, 4.0, 1)
        assert sums[0] == pytest.approx(0.125, abs=1e-12)

    def test_counting(self):
        sums = poly.poincare_series_partial(Z2, 0.0, 4.0, 6)
        assert sums == pytest.approx([2.0**n for n in range(1, 7)])

    def test_matches_enumeration(self):
        sums = poly.poincare_series_partial(Z2, 2.0, 4.0, 10)
        # brute force: level-n preimages of 4 under z^2 lie on |z| = 4^(2^-n)
        for n, s in enumerate(sums, start=1):
            nodes = poly.preimage_tree(Z2, 4.0, n)
            brute = sum(abs(x.cumulative_derivative) ** -2.0 for x in nodes)
            assert s == pytest.approx(brute, rel=1e-10)


class TestBowenZero:
    def test_z2(self):
        bz = poly.bowen_zero_poly(Z2, 12)
        assert bz.value == pytest.approx(1.0, abs=1e-2)
        assert bz.width <= 1e-3

    def test_exceptional_pair(self):
        for p in (CHEB, Polynomial.from_string("2z^2-1")):
            bz = poly.bowen_zero_poly(p, 12)
            assert bz.value == pytest.approx(1.0, abs=5e-2)

    def test_basilica_dimension(self):
        # classical numerical value for the z^2-1 Julia set dimension
        bz = poly.bowen_zero_poly(BASILICA, 14)
        assert bz.value == pytest.approx(1.268, abs=5e-3)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            poly.bowen_zero_poly(Z2, 8, bracket=(1.5, 2.0))


class TestBisectBracket:
    def test_brackets_the_sign_change(self):
        lo, hi = poly.bisect_bracket(lambda t: 0.3 - t > 0, 0.0, 1.0, 1e-3)
        assert lo <= 0.3 <= hi and hi - lo <= 1e-3

    def test_predicate_routes_nan(self):
        # the callers' two NaN rules: "not v <= 0" sends NaN to lo,
        # "v > 0" sends it to hi
        nan = float("nan")
        lo, hi = poly.bisect_bracket(lambda t: not nan <= 0, 0.0, 1.0, 0.1)
        assert hi == 1.0 and lo > 0.9
        lo, hi = poly.bisect_bracket(lambda t: nan > 0, 0.0, 1.0, 0.1)
        assert lo == 0.0 and hi < 0.1


class TestLogSumExp:
    def test_closed_forms(self):
        for n in (1, 2, 7, 64, 1000):
            assert poly.logsumexp(np.zeros(n)) == pytest.approx(
                np.log(n), rel=1e-15)
        # two tied maxima of 1 and a third term e^0
        assert poly.logsumexp(np.array([1.0, 0.0, 1.0])) == pytest.approx(
            1.0 + np.log(2.0 + np.exp(-1.0)), rel=1e-15)
        assert poly.logsumexp(np.full(4, -np.inf)) == -np.inf
        assert poly.logsumexp(np.array([])) == -np.inf
        assert poly.logsumexp(np.array([0.0, np.inf])) == np.inf
        assert np.isnan(poly.logsumexp(np.array([0.0, np.nan])))

    def test_no_overflow_at_800(self):
        a = np.array([800.0, 800.0, 799.0, -800.0])
        want = 800.0 + np.log(2.0 + np.exp(-1.0))
        assert poly.logsumexp(a) == pytest.approx(want, rel=1e-15)
        assert poly.logsumexp(a - 1600.0) == pytest.approx(want - 1600.0,
                                                           rel=1e-15)

    def test_input_untouched(self):
        a = np.array([2.0, 2.0, 1.0])
        poly.logsumexp(a)
        assert a.tolist() == [2.0, 2.0, 1.0]

    def test_bitwise_scipy(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 8, 9, 63, 64, 65, 127, 128, 129, 1000, 4096,
                  16384):
            for scale in (1.0, 30.0, 800.0):
                a = rng.normal(size=n) * scale
                # rounding makes many tied maxima
                for arr in (a, np.round(a), np.round(2.0 * a / scale)):
                    got = poly.logsumexp(arr)
                    want = special.logsumexp(arr)
                    assert np.float64(got).tobytes() == \
                        np.float64(want).tobytes(), (n, scale)


class TestBottcher:
    def test_identity_map(self):
        assert poly.bottcher_inverse(Z2, 2.0) == pytest.approx(2 + 0j)

    def test_joukowski(self):
        for z in (1.2, 2.0, 4.0, 2.0 + 1.5j):
            h = poly.bottcher_inverse(CHEB, z)
            assert h == pytest.approx(z + 1 / z, abs=1e-8)

    def test_functional_equation(self):
        rng = np.random.default_rng(7)
        for p in (Z2, CHEB, BASILICA):
            for _ in range(20):
                z = (1.2 + rng.random() * 3) * np.exp(2j * np.pi * rng.random())
                assert poly.bottcher_residual(p, z) < 1e-8

    def test_leading_order(self):
        # h(z) = z + 1/(2z) + O(1/z^3) for z^2 - 1, so the gap at |z| = 4
        # peaks slightly above 1/8
        for ang in np.linspace(0, 2 * np.pi, 9):
            z = 4.0 * np.exp(1j * ang)
            assert abs(poly.bottcher_inverse(BASILICA, z) - z) < 0.15

    def test_circle_means_trivial(self):
        v = poly.bottcher_circle_means(Z2, 1.01, 2.0)
        assert v == pytest.approx(2 * np.pi * 1.01, rel=1e-6)
        # t = 0 gives arc length regardless of the polynomial
        v0 = poly.bottcher_circle_means(BASILICA, 1.1, 0.0, arc=(0.0, np.pi))
        assert v0 == pytest.approx(np.pi * 1.1, rel=1e-6)

    def test_circle_means_cheb_oracle(self):
        r = 1.1
        theta = np.linspace(0, 2 * np.pi, 20001)[:-1]
        z = r * np.exp(1j * theta)
        oracle = np.mean(np.abs(1 - z**-2) ** 2) * 2 * np.pi * r
        v = poly.bottcher_circle_means(CHEB, r, 2.0)
        assert v == pytest.approx(oracle, abs=1e-4)

    def test_ray_derivative_cheb_oracle(self):
        # h(z) = z + 1/z for z^2 - 2, so h'(z) = 1 - z^-2
        theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        for r in (1.001, 1.01, 1.1):
            z = r * np.exp(1j * theta)
            h, hp = poly._bottcher_ray_batch(CHEB, z)
            assert np.abs(h - (z + 1 / z)).max() < 1e-8
            assert np.abs(hp - (1 - z**-2)).max() < 1e-8

    def test_circle_means_batched_t(self):
        ts = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        batched = poly.bottcher_circle_means(BASILICA, 1.1, ts)
        assert isinstance(batched, np.ndarray) and batched.shape == ts.shape
        for t, v in zip(ts, batched):
            single = poly.bottcher_circle_means(BASILICA, 1.1, float(t))
            assert isinstance(single, float)
            assert v == pytest.approx(single, rel=1e-12)

    def test_means_spectrum_flat_for_exceptional(self):
        for p in (Z2, CHEB):
            slopes = poly.bottcher_means_spectrum(p, (0.5, 1.0, 1.5))
            assert slopes.shape == (3,)
            assert np.all(np.abs(slopes) < 0.05)
