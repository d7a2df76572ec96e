import math
import re
import tracemalloc

import numpy as np
import pytest

from tractdim import _kernels, poly
from tractdim.errors import (BranchLoss, BudgetExceeded,
                             DegenerateDerivative, NoSignChange,
                             NonConvergence)
from tractdim.poly import Polynomial


Z2 = Polynomial.from_string("z^2")
CHEB = Polynomial.from_string("z^2-2")
BASILICA = Polynomial.from_string("z^2-1")
MEANS_TS = np.array([0.5, 1.0, 1.5, 2.0])


@pytest.fixture(scope="module")
def basilica_near_circles():
    """Means over |z| = 1.003 and 1.001 for z^2 - 1, solved in one call."""
    return poly.bottcher_circle_means(BASILICA, (1.003, 1.001), MEANS_TS)


class TestPolynomial:
    def test_eval(self):
        assert Z2(1 + 1j) == 2j
        p = Polynomial.from_string("2z^3+0.5z-1")
        z = 1.5 - 0.25j
        assert p(z) == pytest.approx(2 * z**3 + 0.5 * z - 1)

    def test_shorthand_roundtrip(self):
        # the shorthand and the descriptor of z^2-2 read the same polynomial
        p = Polynomial.from_json({"coeffs": [[-2, 0], [0.0, 0.0], [1, 0]]})
        assert p.coefficients == CHEB.coefficients

    @pytest.mark.parametrize("coeffs", [
        (1.0, 0.0, math.nan), (complex(0, math.inf), 0.0, 1.0),
        (-1e400, 0, 1)])
    def test_non_finite_coefficient_refused(self, coeffs):
        with pytest.raises(ValueError, match="finite"):
            Polynomial(coeffs)

    # bool and nan parts are exit-2 cases in tests/test_cli.py
    @pytest.mark.parametrize("pair", [[0, None], [0, -math.inf], [10**400, 0]])
    def test_bad_descriptor_coefficient_refused(self, pair):
        with pytest.raises(ValueError):
            Polynomial.from_json({"coeffs": [[-1, 0], [0, 0], pair]})

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            Polynomial((1.0, 2.0))  # degree 1

    @pytest.mark.parametrize("text", ["z^2z", "z^2 z", "2z3"])
    def test_unsigned_term_refused(self, text):
        # juxtaposed terms are not a sum: z^2z once parsed as z^2 + z
        with pytest.raises(ValueError):
            Polynomial.from_string(text)

    @pytest.mark.parametrize("text, coeffs", [
        ("z^2+0.05i", (0.05j, 0j, 1)), ("z^2-iz", (0, -1j, 1)),
        ("2iz^3+z-i", (-1j, 1, 0, 2j))])
    def test_imaginary_unit(self, text, coeffs):
        assert Polynomial.from_string(text).coefficients == coeffs

    @pytest.mark.parametrize("text", ["z^2+0.05ii", "z^2+i0.05", "z^2+zi"])
    def test_misplaced_unit_refused(self, text):
        with pytest.raises(ValueError, match="cannot parse"):
            Polynomial.from_string(text)

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
        pts, _ = poly._preimage_levels(Z2, 4.0, 1)[0]
        pts = np.sort_complex(pts)
        assert pts[0] == pytest.approx(-2 + 0j, abs=1e-8)
        assert pts[1] == pytest.approx(2 + 0j, abs=1e-8)

    def test_tree_counts_and_orbit(self):
        pts, _ = poly._preimage_levels(BASILICA, 5.0, 3)[-1]
        assert len(pts) == 8
        for z in pts:
            for _ in range(3):
                z = BASILICA(z)
            assert abs(z - 5.0) < 1e-8

    def test_cumulative_derivative(self):
        _, ld = poly._preimage_levels(Z2, 16.0, 2)[-1]
        # p^2(z) = z^4, derivative 4 z^3, |z| = 2 at depth 2
        assert ld == pytest.approx(np.full(4, math.log(32.0)), rel=1e-9)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            poly._preimage_levels(Z2, 3.0, 8, node_budget=100)

    @pytest.mark.parametrize("root, ok, error", [
        (0j, True, DegenerateDerivative), (2.0, False, NonConvergence)],
        ids=["critical-point", "stalled"])
    def test_tree_errors_are_typed(self, monkeypatch, root, ok, error):
        # a kernel that lands every root on z^2's critical point 0 (where
        # p' = 0), or that flags every row as unconverged
        def solved(coeffs, dcoeffs, targets, start=None):
            m = len(targets)
            return np.full((m, 2), root, complex), np.full(m, ok)

        monkeypatch.setattr(_kernels, "aberth_batch", solved)
        with pytest.raises(error):
            poly._preimage_levels(Z2, 5.0, 3)

    def test_deterministic_order(self):
        a = poly._preimage_levels(BASILICA, 2 + 1j, 4)
        b = poly._preimage_levels(BASILICA, 2 + 1j, 4)
        for (pa, ca), (pb, cb) in zip(a, b):
            assert (pa.tobytes(), ca.tobytes()) == (pb.tobytes(), cb.tobytes())

    def test_cumulative_product_order_free_of_level_size(self):
        # depths 9 and 10 have 19,683 and 59,049 nodes, past the 16,384
        # (256 KiB) at which numpy reuses a temporary operand; every level
        # must still multiply dp * rep, never rep * dp
        p = Polynomial.from_string("z^3-0.5z")
        levels = poly._preimage_levels(p, 5.0, 10)
        chain = np.array([1.0 + 0j])
        for pts, ld in levels:
            dp = p.derivative(pts)
            rep = np.repeat(chain, 3)
            chain = np.multiply(dp, rep)
            assert ld.tobytes() == np.log(np.abs(chain)).tobytes()

    def test_tree_scratch_stays_bounded(self):
        # each level is filled in row blocks straight to log|(p^k)'|, so
        # the peak is 23.3 MiB of numpy allocations for a 6.1 MiB result
        tracemalloc.start()
        try:
            poly.tree_log_derivs(Polynomial.from_string("z^3-0.5z"), 5.0, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 26 * 2**20

    @pytest.mark.parametrize("depth", [0, -1, 2.5, True, "3"])
    @pytest.mark.parametrize("call", [
        lambda n: poly._preimage_levels(BASILICA, 5.0, n),
        lambda n: poly.tree_log_derivs(BASILICA, 5.0, n),
        lambda n: poly.tree_pressure(BASILICA, 1.0, 5.0, n),
        lambda n: poly.tree_pressure(BASILICA, [1.0], 5.0, n),
        lambda n: poly.bowen_zero_poly(BASILICA, n),
    ], ids=["levels", "log_derivs", "pressure", "curve", "bowen_zero"])
    def test_depth_refused_before_any_solve(self, monkeypatch, call, depth):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the depth was checked")

        monkeypatch.setattr(_kernels, "aberth_batch", no_solve)
        with pytest.raises(ValueError, match="depth .*" + re.escape(
                repr(depth))):
            call(depth)


def whole_levels(p, w, n, warm=True):
    """The tree as built before row blocks (frozen copy): one solve per
    whole level, warm-started from ``np.tile(roots, (d, 1))`` (cold at
    every level if not warm), the complex cumulative derivative of every
    level, and (points, log|cum|) per level."""
    d = p.degree
    coeffs = np.array(p.coefficients, dtype=complex)
    dcoeffs = np.array(p.derivative_coefficients(), dtype=complex)
    pts = np.array([complex(w)])
    cum = np.array([1.0 + 0j])
    roots = None
    levels = []
    for _ in range(n):
        roots, ok = _kernels.aberth_batch(
            coeffs, dcoeffs, pts,
            start=None if roots is None or not warm
            else np.tile(roots, (d, 1)))
        assert ok.all()
        pts = roots.reshape(-1)
        dp = p.derivative(pts)
        cum = np.multiply(dp, np.repeat(cum, d))
        levels.append((pts, np.log(np.abs(cum))))
    return levels


#: Root-set tolerance against a cold solve.  Where J contains the
#: critical point 0 (z^2-2, 2z^2-1 and the dendrite of z^2+i), near-double
#: roots are fixed only to about sqrt(tol) from either start.
WARM_TREES = {"z^2": 1e-9, "z^2-1": 1e-9, "z^2-2": 1e-6, "2z^2-1": 1e-6,
              "z^3-0.5z": 1e-9, "z^2+0.25": 1e-9, "z^2-0.75": 1e-9,
              "z^2+0.3i": 1e-9, "z^2+0.5": 1e-9, "z^2+i": 1e-6}
TREE_W = 5.0 + 0j


def _tree_depth(p):
    return 12 if p.degree == 2 else 10


@pytest.fixture(scope="module", params=sorted(WARM_TREES))
def warm_tree(request):
    p = Polynomial.from_string(request.param)
    levels = poly._preimage_levels(p, TREE_W, _tree_depth(p))
    parents = [np.array([TREE_W])] + [pts for pts, _ in levels[:-1]]
    return request.param, p, parents, levels


class TestWarmTree:
    """Each level is warm-started from the level above; the tree must stay
    the cold tree's to the kernel's tolerance."""

    def test_children_map_onto_parents(self, warm_tree):
        _, p, parents, levels = warm_tree
        rev = np.array(p.coefficients, dtype=complex)[::-1]
        for par, (pts, _) in zip(parents, levels):
            blocks = pts.reshape(len(par), p.degree)
            res = np.abs(np.polyval(rev, blocks) - par[:, None])
            assert (res <= 1e-10 * (1.0 + np.abs(par))[:, None]).all()

    def test_rows_match_cold_fibers(self, warm_tree):
        text, p, parents, levels = warm_tree
        coeffs = np.array(p.coefficients, dtype=complex)
        dcoeffs = np.array(p.derivative_coefficients(), dtype=complex)
        worst = 0.0
        for par, (pts, _) in zip(parents, levels):
            blocks = pts.reshape(len(par), p.degree)
            cold, ok = _kernels.aberth_batch(coeffs, dcoeffs, par)
            assert ok.all()
            gap = np.abs(blocks[:, :, None] - cold[:, None, :])
            worst = max(worst, gap.min(axis=2).max(), gap.min(axis=1).max())
        assert worst <= WARM_TREES[text]

    @pytest.mark.parametrize("text", ["z^2-1", "z^3-0.5z", "z^2+i"])
    def test_pressure_matches_cold_tree(self, text):
        p = Polynomial.from_string(text)
        ts = (0.0, 0.5, 1.0, 1.5, 2.0)
        n = _tree_depth(p)
        cold = [ld for _, ld in whole_levels(p, TREE_W, n, warm=False)]
        want = [poly._pressure_from(cold, t) for t in ts]
        assert poly.tree_pressure(p, ts, TREE_W, n) == pytest.approx(
            want, rel=1e-9, abs=0.0)

    def test_warm_start_saves_row_evaluations(self, monkeypatch):
        # rows of the residual and derivative evaluations in the kernel
        p = Polynomial.from_string("z^3-0.5z")
        rows = []
        polyval = np.polyval

        def counted(c, z):
            rows.append(z.shape[-1])
            return polyval(c, z)

        monkeypatch.setattr(np, "polyval", counted)
        whole_levels(p, TREE_W, 10, warm=False)
        cold, rows[:] = sum(rows), []
        poly._preimage_levels(p, TREE_W, 10)
        assert sum(rows) < cold / 2


class TestBlockedTree:
    """Row blocks and the log-derivative levels change no bit of the tree."""

    @pytest.mark.parametrize("rows", [None, 7])
    @pytest.mark.parametrize("text", ["z^2-1", "z^2+i", "z^3-0.5z"])
    def test_levels_match_whole_level_build(self, monkeypatch, text, rows):
        p = Polynomial.from_string(text)
        n = _tree_depth(p)
        want = whole_levels(p, TREE_W, n)
        if rows is not None:
            # seams inside every level past the first, and a warm start
            # whose rows wrap around the previous root matrix
            monkeypatch.setattr(poly, "_ROW_BLOCK", rows)
        got = poly._preimage_levels(p, TREE_W, n)
        assert len(got) == n
        for (pts, ld), (want_pts, want_ld) in zip(got, want):
            assert pts.tobytes() == want_pts.tobytes()
            assert ld.tobytes() == want_ld.tobytes()


class TestFixedPoints:
    def test_z2(self):
        # the attracting fixed point 0 is never the answer
        assert poly.repelling_fixed_point(Z2) == 1.0

    def test_cheb_like(self):
        # both fixed points of 2z^2-1 repel (multipliers 4 and -2)
        p = Polynomial.from_string("2z^2-1")
        assert poly.repelling_fixed_point(p) == 1.0

    def test_chebyshev_exact(self):
        # Aberth alone stops at 1.9999999999993845
        assert poly.repelling_fixed_point(CHEB) == 2.0

    def test_basilica_real(self):
        # Aberth alone leaves a 3.5e-12 imaginary part
        z0 = poly.repelling_fixed_point(BASILICA)
        golden = (1 + math.sqrt(5)) / 2
        assert z0.imag == 0.0
        assert abs(z0.real - golden) <= math.ulp(golden)


class TestTreePressure:
    def test_z2_exact_line(self):
        ts = (0.0, 0.5, 1.0, 1.5)
        for t, val in zip(ts, poly.tree_pressure(Z2, ts, 3.0, 14)):
            assert val == pytest.approx((1 - t) * np.log(2), abs=1e-3)

    def test_counting_measure(self):
        # depth 1 is the raw value, deeper ones Richardson pairs
        for n in range(1, 9):
            val = poly.tree_pressure(Z2, 0.0, 7.0, n)
            assert val == pytest.approx(np.log(2), abs=1e-12)

    def test_cheb(self):
        val = poly.tree_pressure(CHEB, 1.0, 5.0, 14)
        assert abs(val) < 2e-2

    def test_curve_monotone(self):
        vals = poly.tree_pressure(Z2, [0.0, 0.5, 1.0, 1.5], 3.0, 12)
        assert all(vals[i] >= vals[i + 1] - 1e-9 for i in range(len(vals) - 1))


def poincare_sums(p, t, w, n):
    """sum over p^{-N}(w) of |(p^N)'|^{-t}, N = 1..n, from tree_log_derivs."""
    return [float(np.exp(poly.logsumexp(-t * ld)))
            for ld in poly.tree_log_derivs(p, w, n)]


class TestPoincareSeries:
    def test_level_one(self):
        sums = poincare_sums(Z2, 2.0, 4.0, 1)
        assert sums[0] == pytest.approx(0.125, abs=1e-12)

    def test_counting(self):
        sums = poincare_sums(Z2, 0.0, 4.0, 6)
        assert sums == pytest.approx([2.0**n for n in range(1, 7)])

    def test_matches_enumeration(self):
        sums = poincare_sums(Z2, 2.0, 4.0, 10)
        # the 2^n preimages of 4 under z^(2^n) lie on |z| = 4^(2^-n), where
        # |(p^n)'| = 2^n |z|^(2^n - 1) = 2^n 4^(1 - 2^-n)
        exact = [2.0**-n * 16.0 ** -(1.0 - 2.0**-n) for n in range(1, 11)]
        assert sums == pytest.approx(exact, rel=1e-10)


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
        # z^2 - 1e6 has HD about 0.09, below the bracket floor 0.1
        with pytest.raises(NoSignChange) as info:
            poly.bowen_zero_poly(Polynomial((-1e6, 0, 1)), 8)
        assert str(info.value).startswith(
            "no sign change on bracket; endpoints: [(0.1, -0.06")


class TestSolveDecreasing:
    def test_root_within_width(self):
        root, (lo, hi) = poly.solve_decreasing(lambda t: 0.3 - t, 0.0, 1.0,
                                               1e-3)
        assert lo <= 0.3 <= hi and hi - lo <= 1e-3
        assert root == 0.5 * (lo + hi)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nan_and_inf_count_as_positive(self, value):
        # below 0.55 the value is NaN or +inf (a divergent sum), above it
        # negative: the bracket closes on 0.55 from both sides
        f = lambda t: value if t < 0.55 else -1.0
        root, (lo, hi) = poly.solve_decreasing(f, 0.0, 1.0, 0.01)
        assert lo < 0.55 <= hi and hi - lo <= 0.01
        # a NaN or +inf at the lower end still brackets
        _, (lo, hi) = poly.solve_decreasing(
            lambda t: value if t == 0.0 else -t, 0.0, 1.0, 0.1)
        assert lo == 0.0 and hi <= 0.1

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange) as info:
            poly.solve_decreasing(lambda t: np.float64(-t), 0.1, 2.5, 0.02)
        detail = str(info.value)
        assert detail.split(";")[0] == "no sign change on bracket"
        assert "np.float64" not in detail
        assert detail.endswith("[(0.1, -0.1), (2.5, -2.5)]")
        with pytest.raises(NoSignChange):
            poly.solve_decreasing(lambda t: 1.0, 0.1, 2.5, 0.02)
        # a NaN at the upper end is positive too
        with pytest.raises(NoSignChange):
            poly.solve_decreasing(lambda t: math.nan if t > 1 else 1.0,
                                  0.1, 2.5, 0.02)


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
        h, _ = poly.bottcher_inverse(Z2, np.array([2.0]))
        assert h[0] == pytest.approx(2 + 0j)

    def test_joukowski(self):
        z = np.array([1.2, 2.0, 4.0, 2.0 + 1.5j])
        h, _ = poly.bottcher_inverse(CHEB, z)
        for zk, hk in zip(z, h):
            assert hk == pytest.approx(zk + 1 / zk, abs=1e-8)

    def test_functional_equation(self):
        rng = np.random.default_rng(7)
        for p in (Z2, CHEB, BASILICA):
            z = np.array([(1.2 + rng.random() * 3)
                          * np.exp(2j * np.pi * rng.random())
                          for _ in range(20)])
            h, _ = poly.bottcher_inverse(p, z)
            h_d, _ = poly.bottcher_inverse(p, z ** p.degree)
            resid = np.abs(h_d - p(h)) / (1.0 + np.abs(h))
            assert np.all(resid < 1e-8)

    def test_leading_order(self):
        # h(z) = z + 1/(2z) + O(1/z^3) for z^2 - 1, so the gap at |z| = 4
        # peaks slightly above 1/8
        z = 4.0 * np.exp(1j * np.linspace(0, 2 * np.pi, 9))
        h, _ = poly.bottcher_inverse(BASILICA, z)
        assert np.all(np.abs(h - z) < 0.15)

    def test_shape_kept_across_outer_radius(self):
        # z^2 - 2 has outer radius 6: the row at 8 starts on its own
        # radius, the row at 1.001 is continued in from 6
        z = np.outer((1.001, 8.0), np.exp(2j * np.pi * np.arange(16) / 16))
        h, hp = poly.bottcher_inverse(CHEB, z)
        assert h.shape == hp.shape == (2, 16)
        assert np.abs(h - (z + 1 / z)).max() < 1e-8
        assert np.abs(hp - (1 - z**-2)).max() < 1e-8

    def test_circle_means_trivial(self):
        v = poly.bottcher_circle_means(Z2, 1.01, 2.0)
        assert v == pytest.approx(2 * np.pi * 1.01, rel=1e-6)
        # t = 0 gives arc length regardless of the polynomial
        v0 = poly.bottcher_circle_means(BASILICA, 1.1, 0.0)
        assert v0 == pytest.approx(2 * np.pi * 1.1, rel=1e-6)

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
            h, hp = poly.bottcher_inverse(CHEB, z)
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

    def test_gauss_legendre_table_is_leggauss(self):
        nodes, wts = np.polynomial.legendre.leggauss(4)
        assert poly.GL4_NODES.tobytes() == nodes.tobytes()
        assert poly.GL4_WEIGHTS.tobytes() == wts.tobytes()

    def test_shared_continuation_cheb_oracle(self):
        # 1.003 and 1.001 both get 8192 nodes, so 1.001 is continued in
        # from 1.003; h'(z) = 1 - z^-2 for z^2 - 2 on the same nodes
        radii = (1.003, 1.001)
        means = poly.bottcher_circle_means(CHEB, radii, MEANS_TS)
        nodes, wts = np.polynomial.legendre.leggauss(4)
        half = np.pi / 2048  # 2048 panels of four nodes
        mid = (2 * np.arange(2048) + 1) * half
        theta = (mid[:, None] + half * nodes).reshape(-1)
        weight = np.tile(half * wts, 2048)
        for r, got in zip(radii, means):
            z = r * np.exp(1j * theta)
            oracle = np.sum(weight * np.abs(1 - z**-2)
                            ** MEANS_TS[:, None] * r, axis=-1)
            assert np.abs(got / oracle - 1).max() < 1e-9

    def test_shared_continuation_matches_own_descent(
            self, basilica_near_circles):
        alone = poly.bottcher_circle_means(BASILICA, 1.001, MEANS_TS)
        assert np.abs(basilica_near_circles[1] / alone - 1).max() < 1e-9

    def test_circle_means_order_free(self, basilica_near_circles):
        reversed_ = poly.bottcher_circle_means(BASILICA, (1.001, 1.003),
                                               MEANS_TS)
        assert reversed_.tobytes() == basilica_near_circles[::-1].tobytes()

    def test_means_spectrum_continues_near_circles(self, monkeypatch):
        # one continuation from the outer radius 4: a solve at 4, 9 steps
        # to 1.01 (r - 1 = 3 * 0.5^k until it would pass 0.01), 2 steps on
        # to 1.003 (0.005, 0.003) and 2 on to 1.001 (0.0015, 0.001)
        calls = []
        batch = poly._bottcher_batch

        def counted(*args, **kwargs):
            calls.append(1)
            return batch(*args, **kwargs)

        monkeypatch.setattr(poly, "_bottcher_batch", counted)
        poly.bottcher_means_spectrum(BASILICA, (0.5, 1.0, 1.5),
                                     (1.01, 1.003, 1.001))
        assert len(calls) == 14

    @pytest.mark.parametrize("text", ["z^2", "z^2-1", "z^2-2", "z^3-0.5z",
                                      "z^2+0.25", "z^2+0.05i",
                                      "z^3-0.5z+0.3i"])
    @pytest.mark.parametrize("radii", [(1.01, 1.003, 1.001),
                                       (1.5, 1.05, 1.0005)])
    def test_circle_means_match_own_circle_solves(self, text, radii):
        # oracle: bottcher_inverse on each circle's own quadrature nodes
        p = Polynomial.from_string(text)
        means = poly.bottcher_circle_means(p, radii, MEANS_TS)
        for r, got in zip(radii, means):
            theta, weight = poly._circle_grid(r)
            z = r * np.exp(1j * theta)
            hp = poly.bottcher_inverse(p, z)[1]
            oracle = np.sum(weight * np.abs(hp) ** MEANS_TS[:, None] * r,
                            axis=-1)
            assert np.abs(got / oracle - 1).max() < 1e-9

    def test_circle_means_above_outer_radius(self):
        # 8 lies above z^2 - 1's outer radius 4, so the continuation starts
        # on that circle, whose row must be written too; h(z) = z + 1/(2z)
        # + O(z^-3) gives |h'|^2 close to 1 there
        radii = (8.0, 1.2)
        means = poly.bottcher_circle_means(BASILICA, radii, MEANS_TS)
        assert np.all(np.isfinite(means))
        for r, got in zip(radii, means):
            alone = poly.bottcher_circle_means(BASILICA, r, MEANS_TS)
            assert np.abs(got / alone - 1).max() < 1e-9
        assert np.abs(means[0] / (2 * np.pi * 8.0) - 1).max() < 0.02

    def test_circle_means_duplicate_and_scalar_radius(self):
        means = poly.bottcher_circle_means(BASILICA, (1.05, 1.1, 1.05),
                                          MEANS_TS)
        assert means.shape == (3, 4)
        assert means[0].tobytes() == means[2].tobytes()
        scalar = poly.bottcher_circle_means(BASILICA, 1.05, MEANS_TS)
        assert scalar.shape == (4,)
        assert np.abs(scalar / means[0] - 1).max() < 1e-9
        grid = poly.bottcher_circle_means(BASILICA, [[1.1], [1.05]], 1.0)
        assert grid.shape == (2, 1)
        assert isinstance(poly.bottcher_circle_means(BASILICA, 1.05, 1.0),
                          float)

    def test_circle_mean_free_of_other_radii(self):
        alone = poly.bottcher_circle_means(BASILICA, 1.01, MEANS_TS)
        for others in ((1.2,), (1.3, 1.02), (1.0002,)):
            means = poly.bottcher_circle_means(BASILICA, (1.01,) + others,
                                               MEANS_TS)
            assert np.abs(means[0] / alone - 1).max() < 1e-9

    def test_bad_radius_fails_before_any_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solved before the radii were checked")

        monkeypatch.setattr(poly, "_bottcher_batch", refuse)
        with pytest.raises(ValueError, match=re.escape("requires |z| > 1")):
            poly.bottcher_inverse(BASILICA, np.array([2.0, 1.0, 0.5j]))
        with pytest.raises(ValueError):
            poly.bottcher_circle_means(BASILICA, (1.01, 1.00005), 1.0)
        with pytest.raises(ValueError):
            poly.bottcher_means_spectrum(BASILICA, 1.0, (1.01, 1.003))
        # three radii but two distinct: lstsq would return a minimum-norm fit
        with pytest.raises(ValueError, match="distinct"):
            poly.bottcher_means_spectrum(BASILICA, 1.0, (1.1, 1.1, 1.05))

    def test_circle_means_branch_loss(self):
        # z^2 + 1/2 lies outside the Mandelbrot set: its critical point
        # escapes, so h does not continue in to the unit circle, and the
        # Newton solve on the way to |z| = 1.01 fails
        with pytest.raises(BranchLoss):
            poly.bottcher_circle_means(Polynomial.from_string("z^2+0.5"),
                                       1.01, 1.0)

    def test_means_spectrum_flat_for_exceptional(self):
        for p in (Z2, CHEB):
            slopes = poly.bottcher_means_spectrum(p, (0.5, 1.0, 1.5),
                                                  (1.1, 1.03, 1.01))
            assert slopes.shape == (3,)
            assert np.all(np.abs(slopes) < 0.05)
