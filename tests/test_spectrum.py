"""Integral means, limit spectra, and the dimension threshold."""

import json
import math

import numpy as np
import pytest

import tractdim.linearizer as lz
import tractdim.spectrum as sp
import tractdim.tract as tr
from tractdim.errors import InvalidGrid, NoSignChange
from tractdim.poly import Polynomial, bowen_zero_poly



@pytest.fixture(scope="module")
def exp_branch():
    return tr.find_tracts(lz.exp_power(1.0, 1), np.e).tracts[0]


@pytest.fixture(scope="module")
def exp_tables(exp_branch):
    return sp.means_tables(exp_branch)


@pytest.fixture(scope="module")
def square_branch():
    return tr.find_tracts(lz.exp_power(1.0, 2), np.e).tracts[0]


@pytest.fixture(scope="module")
def quarter_branch():
    return tr.find_tracts(lz.exp_power(0.25, 1), np.e).tracts[0]


class TestIntegralMeans:
    def test_exp_constant_integrand(self, exp_branch):
        # For exp the rescaled boundary map is an isometry of the strip,
        # so |phi_T'| == 1 on the contour and the integral is |I| = 2.
        table = sp._node_table(exp_branch, 8.0, 0.01)
        for t in (0.5, 1.0, 2.0):
            got = sp._log_integral(table, t) / math.log(100.0)
            assert got == pytest.approx(math.log(2.0) / math.log(100.0), abs=1e-9)

    def test_square_closed_form(self, square_branch):
        # phi(xi) = sqrt(xi) gives int |phi_T'|^2 dy = (arcsinh(2/r) -
        # arcsinh(1/r)) / 2 after rescaling, independently of T.
        r = 0.01
        oracle = 0.5 * (math.asinh(2.0 / r) - math.asinh(1.0 / r))
        logI = sp._log_integral(sp._node_table(square_branch, 16.0, r), 2.0)
        assert math.exp(logI) == pytest.approx(oracle, rel=1e-6)

    def test_domain_checks(self, exp_branch):
        # r = 1/T must lie in (0, 1): log(1/r) = log T divides the integral
        for low in (-1.0, 0.5, 2.0 / 3.0, 1.0):
            with pytest.raises(InvalidGrid):
                sp.means_tables(exp_branch, (low, 8.0, 16.0))


class TestBetaInfinity:
    def test_exp_flat(self, exp_tables):
        est = sp.beta_infinity(exp_tables, 2.0)
        assert abs(est.value) <= 1e-9
        assert est.drift <= 1e-9

    def test_square_small(self, square_branch):
        est = sp.beta_infinity(sp.means_tables(square_branch), 2.0)
        assert abs(est.value) <= 0.01

    def test_t_zero_exact(self, exp_branch, square_branch, quarter_branch):
        for branch in (exp_branch, square_branch, quarter_branch):
            est = sp.beta_infinity(sp.means_tables(branch), 0.0)
            assert abs(est.value) <= 1e-3

    def test_nan_log_integral_reaches_the_estimate(self, exp_tables,
                                                   monkeypatch):
        # grid 2^3 ... 2^10: the NaN at T = 2^9 enters the top half of the
        # slopes after its first entry, where a comparison would drop it
        tables = exp_tables[:8]
        poisoned = tables[6][1]
        log_integral = sp._log_integral
        monkeypatch.setattr(
            sp, "_log_integral",
            lambda table, t: math.nan if table is poisoned
            else log_integral(table, t))
        est = sp.beta_infinity(tables, 1.5)
        assert math.isnan(est.value) and math.isnan(est.drift)

    def test_radius_independence(self):
        # Rebuilding the exp tract from a different base radius must not
        # move the estimate.
        a = tr.find_tracts(lz.exp_power(1.0, 1), np.e).tracts[0]
        b = tr.find_tracts(lz.exp_power(1.0, 1), 10.0).tracts[0]
        va = sp.beta_infinity(sp.means_tables(a), 1.0).value
        vb = sp.beta_infinity(sp.means_tables(b), 1.0).value
        assert abs(va - vb) <= 0.02

    @pytest.mark.parametrize("make", [
        lambda: lz.exp_power(1.0, 2),
        lambda: lz.CompositeExpModel(lz.exp_power(np.exp(-6.0), 1)),
    ], ids=["square", "composite"])
    def test_tables_are_a_value(self, make):
        # two fresh branches give the same rows, bit for bit
        grid = sp.DEFAULT_T_GRID[:6]
        a, b = (sp.means_tables(tr.find_tracts(make(), np.e).tracts[0], grid)
                for _ in range(2))
        assert [T for T, _ in a] == [T for T, _ in b] == list(grid)
        for (_, (wa, da)), (_, (wb, db)) in zip(a, b):
            assert (wa.tobytes(), da.tobytes()) == (wb.tobytes(), db.tobytes())

    def test_grid_validation(self, exp_branch):
        with pytest.raises(InvalidGrid):
            sp.means_tables(exp_branch, (8.0, 16.0))
        with pytest.raises(InvalidGrid):
            sp.means_tables(exp_branch, (8.0, 4.0, 16.0))

    def test_sampled_branch_caps_T_grid(self, exp_branch, monkeypatch):
        # the cap is a cost bound on continued phi; the tables themselves
        # are stubbed, since only the T they are built at matters here
        monkeypatch.setattr(sp, "_node_table", lambda branch, T, r: None)
        h = lz.make_koenigs(Polynomial.from_string("z^2"), 1.0, kappa=0.25)
        koenigs = tr.find_tracts(h, np.e).tracts[0]
        assert koenigs.sampled and not exp_branch.sampled
        assert [T for T, _ in sp.means_tables(koenigs)] == [
            2.0 ** j for j in range(3, 10)]
        assert [T for T, _ in sp.means_tables(exp_branch)][-1] == 2.0 ** 14
        with pytest.raises(InvalidGrid, match=r"cap 2\^9"):
            sp.means_tables(koenigs, (256.0, 512.0, 1024.0))


class TestSpectrumShape:
    T_GRID = sp.DEFAULT_T_GRID[:8]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: lz.exp_power(1.0, 1),
            lambda: lz.exp_power(0.25, 1),
            lambda: lz.exp_power(1.0, 2),
            lambda: lz.CompositeExpModel(lz.exp_power(np.exp(-6.0), 1)),
        ],
        ids=["exp", "quarter", "square", "composite"],
    )
    def test_endpoints_and_convexity(self, make):
        branch = tr.find_tracts(make(), np.e).tracts[0]
        t_grid = [0.0, 0.5, 1.0, 1.5, 2.0]
        curve = sp.spectrum_curve(sp.means_tables(branch, self.T_GRID), t_grid)
        assert curve.b_inf[0] == pytest.approx(1.0, abs=1e-3)
        assert curve.b_inf[-1] <= 0.05
        beta = curve.beta_inf
        for i in range(1, len(beta) - 1):
            assert beta[i - 1] + beta[i + 1] - 2 * beta[i] >= -1e-3

    def test_negative_spectrum(self, exp_branch, square_branch):
        for branch in (exp_branch, square_branch):
            curve = sp.spectrum_curve(sp.means_tables(branch),
                                      [0.5, 1.0, 1.5, 2.0])
            summary = sp.negative_spectrum_check(curve)
            assert summary["negative_spectrum"] is True, summary

    def test_negative_spectrum_flags_violation(self, exp_branch):
        curve = sp.spectrum_curve(
            sp.means_tables(exp_branch, sp.DEFAULT_T_GRID[:6]), [1.5, 2.0])
        curve.b_inf = [0.5, 0.5]  # synthetic: positive above the threshold
        summary = sp.negative_spectrum_check(curve)
        assert summary["negative_spectrum"] is False
        assert summary["violations"] == [(1.5, 0.5), (2.0, 0.5)]
        assert "reason" not in summary

    def test_negative_spectrum_fails_without_theta(self, exp_branch):
        # "t > NaN + margin" would select no grid point
        curve = sp.spectrum_curve(
            sp.means_tables(exp_branch, sp.DEFAULT_T_GRID[:6]), [1.5, 2.0])
        curve.theta_hat = math.nan  # synthetic: b without a zero
        summary = sp.negative_spectrum_check(curve)
        assert summary["negative_spectrum"] is False
        assert summary["violations"] == []
        assert "theta_hat" in summary["reason"]


class TestTheta:
    def test_exp_family(self, exp_branch, square_branch, quarter_branch):
        for branch in (exp_branch, square_branch, quarter_branch):
            theta = sp.theta_f(sp.means_tables(branch))
            assert theta == pytest.approx(1.0, abs=0.05)

    def test_koenigs_exp(self):
        h = lz.make_koenigs(Polynomial.from_string("z^2"), 1.0, kappa=0.25)
        branch = tr.find_tracts(h, np.e).tracts[0]
        # Koenigs(z^2, 1) = e^z, so the threshold matches plain exp.
        tables = sp.means_tables(branch)
        assert sp.theta_f(tables) == pytest.approx(1.0, abs=0.05)

    def test_koenigs_chebyshev(self):
        p = Polynomial.from_string("2z^2 - 1")
        h = lz.make_koenigs(p, 1.0, kappa=0.25)
        branch = tr.find_tracts(h, np.e).tracts[0]
        got = sp.theta_f(sp.means_tables(branch))
        want = bowen_zero_poly(p, 14).value
        assert got == pytest.approx(want, abs=0.1)

    def test_no_sign_change(self, exp_tables, monkeypatch):
        # beta(t) = t keeps b(t) = 1 everywhere: no zero on (0, 2].
        fake = lambda tables, t: sp.BetaEstimate(np.float64(t), 0.0, [])
        monkeypatch.setattr(sp, "beta_infinity", fake)
        with pytest.raises(NoSignChange) as info:
            sp.theta_f(exp_tables)
        detail = str(info.value)
        assert detail.split(";")[0] == "b has no zero on (0, 2]"
        assert "np.float64" not in detail
        assert "(0.1, 1)" in detail

    def test_smallest_zero_of_non_monotone_b(self, exp_tables, monkeypatch):
        # b(t) = (t - 0.55)^2 - 0.01 has zeros 0.45 and 0.65: the scan stops
        # in (0.4, 0.5] and the bisection stays inside it
        fake = lambda tables, t: sp.BetaEstimate(
            (t - 0.55) ** 2 - 0.01 + t - 1, 0.0, [])
        monkeypatch.setattr(sp, "beta_infinity", fake)
        assert sp.theta_f(exp_tables) == pytest.approx(0.45, abs=1e-3)

    def test_inconsistent_at_zero(self, exp_tables, monkeypatch):
        fake = lambda tables, t: sp.BetaEstimate(t - 2.0, 0.0, [])
        monkeypatch.setattr(sp, "beta_infinity", fake)
        with pytest.raises(NoSignChange):
            sp.theta_f(exp_tables)


class TestContinuedMatchesExp:
    """z^2's Koenigs map at z0 = 1 with kappa = 1/4 (check 8's handle) is
    e^{z/4}: its continued phi is 4 xi, and the rescaled map reads exp's
    node tables.  Depth >= 2 is left out: e^{z/4} is conjugate to e^z/4,
    not to e^z, so the frontier sums differ."""

    @pytest.fixture(scope="class")
    def tables(self, exp_branch):
        h = lz.make_koenigs(Polynomial.from_string("z^2"), 1.0, kappa=0.25)
        branch = tr.find_tracts(h, np.e).tracts[0]
        assert branch.sampled
        T_grid = [float(2**j) for j in range(3, 10)]
        return sp.means_tables(branch, T_grid), sp.means_tables(exp_branch,
                                                                T_grid)

    def test_beta_infinity(self, tables):
        for t in (0.5, 1.0, 1.5, 2.0):
            got, want = (sp.beta_infinity(tab, t).value for tab in tables)
            assert got == pytest.approx(want, rel=0, abs=1e-12)

    def test_theta(self, tables):
        got, want = (sp.theta_f(tab) for tab in tables)
        assert abs(got - want) <= 1e-3


class TestSerialization:
    def test_csv(self, exp_branch):
        curve = sp.spectrum_curve(
            sp.means_tables(exp_branch, sp.DEFAULT_T_GRID[:6]), [0.5, 1.0])
        lines = curve.to_csv().strip().split("\n")
        assert lines[0] == "t,beta_inf,b_inf"
        assert len(lines) == 3
        t, beta, b = (float(v) for v in lines[1].split(","))
        assert (t, beta, b) == (0.5, curve.beta_inf[0], curve.b_inf[0])

    def test_json_roundtrip(self, exp_branch):
        curve = sp.spectrum_curve(
            sp.means_tables(exp_branch, sp.DEFAULT_T_GRID[:6]), [1.0, 2.0])
        blob = json.loads(json.dumps(curve.to_json()))
        assert blob["t_grid"] == [1.0, 2.0]
        assert blob["summary"]["theta_hat"] == pytest.approx(curve.theta_hat)
        assert len(blob["raw"]) == 2
        assert len(blob["raw"][0]) == 6

    def test_deterministic(self, exp_branch):
        grid = sp.DEFAULT_T_GRID[:6]
        a = sp.spectrum_curve(sp.means_tables(exp_branch, grid), [1.0, 2.0])
        b = sp.spectrum_curve(sp.means_tables(exp_branch, grid), [1.0, 2.0])
        assert a.to_json() == b.to_json()
