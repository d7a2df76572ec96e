import numpy as np
import pytest

from tractdim import checks, cli
from tractdim import linearizer as lz
from tractdim import tract as tr
from tractdim.errors import NoTractFound
from tractdim.poly import Polynomial


@pytest.fixture(scope="module")
def exp_branch():
    return tr.find_tracts(lz.exp_power(1.0, 1), np.e).tracts[0]


@pytest.fixture(scope="module")
def sq_branch():
    # e^{z^2}: two tracts, take the one around arg z = 0
    atlas = tr.find_tracts(lz.exp_power(1.0, 2), np.e)
    assert len(atlas.tracts) == 2
    return atlas.tracts[0]


@pytest.fixture(scope="module")
def koenigs_branch():
    h = lz.koenigs_handle(Polynomial.from_string("z^2"), 1.0, kappa=0.125)
    atlas = tr.find_tracts(h, np.e)
    assert len(atlas.tracts) == 1
    return atlas.tracts[0]


class TestFindTracts:
    def test_exp_single_tract(self, exp_branch):
        assert exp_branch.base_point.real > 1

    def test_quarter_exp(self):
        atlas = tr.find_tracts(lz.exp_power(0.25, 1), np.e)
        assert len(atlas.tracts) == 1

    def test_composite_log_tract(self):
        F = lz.composite_exp(lz.exp_power(np.exp(-6.0), 1))
        atlas = tr.find_tracts(F, np.e)
        (branch,) = atlas.tracts
        # inner tract is {Re z > 7}, so phi_F(xi) = log(xi + 6)
        assert tr.phi_eval(branch, 4.0) == pytest.approx(np.log(10.0), abs=1e-9)

    def test_no_tract(self):
        # escape requires Re z > 8 (log R + 1); cap the annulus below that
        h = lz.koenigs_handle(Polynomial.from_string("z^2"), 1.0, kappa=0.125)
        with pytest.raises(NoTractFound):
            tr.find_tracts(h, 1e30, max_rho=100.0)


class TestSampledBranches:
    @pytest.mark.parametrize("spec", ["check8", "koenigs:z^2-1",
                                      "koenigs:z^2-2"])
    def test_ring_batch_matches_scalar_loop(self, spec, monkeypatch):
        h = (lz.koenigs_handle(checks.Z2, 1.0, kappa=0.25) if spec == "check8"
             else cli.function_from_spec(spec))
        batched = tr.find_tracts(h, np.e).tracts
        log_f_and_q = lz.KoenigsLinearizer.log_f_and_q

        def scalar_loop(handle, z):
            if np.ndim(z) == 0:
                return log_f_and_q(handle, z)
            lf, q = zip(*(log_f_and_q(handle, complex(v)) for v in z))
            return np.array(lf), np.array(q)

        monkeypatch.setattr(lz.KoenigsLinearizer, "log_f_and_q", scalar_loop)
        looped = tr.find_tracts(h, np.e).tracts
        assert [(b.base_point, b.base_log) for b in batched] == \
            [(b.base_point, b.base_log) for b in looped]


class TestPhiEval:
    def test_exp_identity(self, exp_branch):
        assert tr.phi_eval(exp_branch, 3 + 2j) == pytest.approx(3 + 2j)

    def test_sqrt(self, sq_branch):
        assert tr.phi_eval(sq_branch, 4.0) == pytest.approx(2.0)
        assert tr.phi_derivative(sq_branch, 4.0) == pytest.approx(0.25)

    def test_quarter_shift(self):
        branch = tr.find_tracts(lz.exp_power(0.25, 1), np.e).tracts[0]
        assert tr.phi_eval(branch, 2.0) == pytest.approx(2 + np.log(4), abs=1e-9)

    def test_koenigs_affine(self, koenigs_branch):
        # f = e^{z/8} so phi(xi) = 8 xi, over a wide range of scales
        for xi in (1.0, 3 + 2j, 0.05 - 100j, 2000 + 500j, 1.0 + 32768j, 16384.0):
            got = tr.phi_eval(koenigs_branch, xi)
            assert abs(got - 8 * complex(xi)) < 1e-9 * (1 + abs(8 * xi))

    def test_offset_guard(self, exp_branch):
        with pytest.raises(ValueError):
            tr.phi_eval(exp_branch, 0.01 + 1j)

    def test_round_trip(self, koenigs_branch):
        h = koenigs_branch.handle
        for xi in (0.3 + 1j, 7.0, 12 - 5j):
            z = tr.phi_eval(koenigs_branch, xi)
            val = h.eval(z)
            assert abs(val - np.exp(xi)) < 1e-9 * (1 + abs(val))

    def test_cold_cache_coherence(self):
        h = lz.koenigs_handle(Polynomial.from_string("2z^2-1"), 1.0, kappa=0.125)
        xi = 9 + 4j
        a = tr.phi_eval(tr.find_tracts(h, np.e).tracts[0], xi)
        warm = tr.find_tracts(h, np.e).tracts[0]
        tr.phi_eval(warm, 2.0)  # populate cache along a different path
        b = tr.phi_eval(warm, xi)
        assert abs(a - b) < 1e-9

    def test_koenigs_derivative(self, koenigs_branch):
        d = tr.phi_derivative(koenigs_branch, 5 + 1j)
        assert d == pytest.approx(8.0, abs=1e-9)


def _full_newton(branch, xi, z):
    """Newton over the whole array every iteration, the reference loop."""
    for _ in range(tr._NEWTON_MAXIT):
        lf, q = branch.handle.log_f_and_q(z)
        res = lf - xi
        res = np.real(res) + 1j * ((np.imag(res) + np.pi) % (2 * np.pi) - np.pi)
        done = np.abs(res) < tr._NEWTON_TOL * (1.0 + np.abs(xi))
        if done.all():
            return z, q
        step = res / q
        cap = 2.0 * np.maximum(np.abs(z), 1.0)
        big = np.abs(step) > cap
        step = np.where(big, step * (cap / np.where(big, np.abs(step), 1.0)), step)
        z = np.where(done, z, z - step)
    raise AssertionError("reference Newton did not converge")


class TestRefine:
    def test_active_set_matches_full_newton(self, monkeypatch):
        branch = tr.find_tracts(lz.koenigs_handle(checks.Z2, 1.0, kappa=0.25),
                                np.e).tracts[0]
        T = 64.0
        y = np.linspace(1.0, 2.0, 33)
        xi = T * (1.0 / T + 1j * y)
        z_true, _ = tr.phi_path(branch, xi)
        # guesses off by 0 to 10% so points converge after different counts
        guess = z_true * (1 + 0.1 * np.linspace(0.0, 1.0, len(y)) ** 3)
        sizes = []
        log_f_and_q = lz.KoenigsLinearizer.log_f_and_q

        def counting(handle, z):
            sizes.append(np.size(z))
            return log_f_and_q(handle, z)

        monkeypatch.setattr(lz.KoenigsLinearizer, "log_f_and_q", counting)
        z, dphi = tr.phi_refine(branch, xi, guess)
        monkeypatch.undo()
        assert sizes[0] == len(y) and sizes[-1] < sizes[0]
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))
        z_ref, q_ref = _full_newton(branch, xi, guess.copy())
        assert np.all(np.abs(z - z_ref) <= 1e-12 * np.abs(z_ref))
        assert np.all(np.abs(dphi * q_ref - 1) <= 1e-12)
        _, q = branch.handle.log_f_and_q(z)
        assert np.all(np.abs(dphi * q - 1) <= 1e-12)


class TestRescaling:
    def test_exp_fixed_point(self, exp_branch):
        for T in (1.0, 5.0, 20.0):
            assert tr.rescaled_map(exp_branch, T, 1 + 1j) == pytest.approx(1 + 1j)

    def test_marked_modulus(self, sq_branch, koenigs_branch):
        for branch in (sq_branch, koenigs_branch):
            for T in (1.0, 5.0, 20.0):
                assert abs(tr.rescaled_map(branch, T, 1.0)) == pytest.approx(
                    1.0, abs=1e-6
                )

    def test_sqrt_rescaling(self, sq_branch):
        # phi_T(xi) = sqrt(xi) independently of T
        got = tr.rescaled_map(sq_branch, 5.0, 2 + 1j)
        assert got == pytest.approx(np.sqrt(2 + 1j), abs=1e-9)


class TestBoundary:
    def test_closed_and_deterministic(self, koenigs_branch):
        a = tr.trace_boundary(koenigs_branch, 5.0, 256)
        b = tr.trace_boundary(koenigs_branch, 5.0, 256)
        assert a.polyline[0] == a.polyline[-1]
        assert a.polyline == b.polyline

    def test_exp_corners(self, exp_branch):
        rb = tr.trace_boundary(exp_branch, 3.0, 512)
        mods = [abs(z) for z in rb.polyline]
        assert max(mods) == pytest.approx(np.hypot(4, 4), rel=0.05)

    def test_sqrt_parametrization(self, sq_branch):
        rb = tr.trace_boundary(sq_branch, 5.0, 256)
        scale = np.sqrt(5.0)
        for xi, z in zip(tr._rectangle_path(256), rb.polyline):
            assert z == pytest.approx(np.sqrt(5.0 * xi) / scale, abs=1e-8)

    def test_point_floor(self, exp_branch):
        with pytest.raises(ValueError):
            tr.trace_boundary(exp_branch, 2.0, 32)


class TestCondition42:
    def test_exp_scale_invariant(self, exp_branch):
        r4 = tr.check_condition_42(exp_branch, 4.0)
        r64 = tr.check_condition_42(exp_branch, 64.0)
        assert abs(r4 - r64) < 1e-9
        # identity map: extremes at the outer corner and the inner edge
        assert 6.0 < r4 <= 8 * np.sqrt(2) * 1.01

    def test_sqrt_halves_log_ratio(self, sq_branch, exp_branch):
        r_sq = tr.check_condition_42(sq_branch, 4.0)
        r_id = tr.check_condition_42(exp_branch, 4.0)
        assert r_sq == pytest.approx(np.sqrt(r_id), rel=1e-6)

    def test_koenigs_matches_exp(self, koenigs_branch, exp_branch):
        r = tr.check_condition_42(koenigs_branch, 8.0)
        assert r == pytest.approx(tr.check_condition_42(exp_branch, 8.0), rel=1e-6)

    def test_sample_floor(self, exp_branch):
        with pytest.raises(ValueError):
            tr.check_condition_42(exp_branch, 4.0, samples=10)


class TestHolder:
    def test_exp_affine(self, exp_branch):
        alpha, H = tr.estimate_holder(exp_branch, 4.0)
        assert alpha == pytest.approx(1.0, abs=0.02)
        assert H > 0

    def test_sqrt_range(self, sq_branch):
        alpha, _ = tr.estimate_holder(sq_branch, 4.0)
        assert 0.48 <= alpha <= 1.0

    def test_pair_floor(self, exp_branch):
        with pytest.raises(ValueError):
            tr.estimate_holder(exp_branch, 4.0, pairs=10)


class TestDistortion:
    def test_el_bound(self, exp_branch, sq_branch, koenigs_branch):
        for branch in (exp_branch, sq_branch, koenigs_branch):
            assert tr.el_violations(branch, samples=1000) == 0

    def test_real_axis_distortion(self, sq_branch, koenigs_branch):
        for branch in (sq_branch, koenigs_branch):
            d1 = abs(tr.phi_derivative(branch, 1.0))
            for x in (2.0, 10.0, 100.0):
                ratio = abs(tr.phi_derivative(branch, x)) / d1
                assert 1e-4 * x**-3 <= ratio <= 1e4 * x

    def test_growth_bound(self, koenigs_branch):
        p1 = tr.phi_eval(koenigs_branch, 1.0)
        d1 = abs(tr.phi_derivative(koenigs_branch, 1.0))
        for T in (2.0, 8.0, 64.0):
            assert abs(tr.phi_eval(koenigs_branch, T) - p1) <= 1e4 * d1 * T**2
