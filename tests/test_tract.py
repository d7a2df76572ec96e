import os
import subprocess
import sys

import numpy as np
import pytest

from tractdim import checks, cli, numerics
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
    h = lz.make_koenigs(Polynomial.from_string("z^2"), 1.0, kappa=0.125)
    atlas = tr.find_tracts(h, np.e)
    assert len(atlas.tracts) == 1
    return atlas.tracts[0]


class TestFindTracts:
    def test_exp_single_tract(self):
        atlas = tr.find_tracts(lz.exp_power(1.0, 1), np.e)
        assert len(atlas.tracts) == 1

    def test_quarter_exp(self):
        atlas = tr.find_tracts(lz.exp_power(0.25, 1), np.e)
        assert len(atlas.tracts) == 1

    def test_composite_log_tract(self):
        F = lz.CompositeExpModel(lz.exp_power(np.exp(-6.0), 1))
        atlas = tr.find_tracts(F, np.e)
        (branch,) = atlas.tracts
        # inner tract is {Re z > 7}, so phi_F(xi) = log(xi + 6)
        assert tr.phi_eval(branch, 4.0)[0] == pytest.approx(np.log(10.0), abs=1e-9)

    def test_no_tract(self, monkeypatch):
        # escape requires Re z > 8 (log R + 1); cap the annulus below that
        h = lz.make_koenigs(Polynomial.from_string("z^2"), 1.0, kappa=0.125)
        monkeypatch.setattr(tr, "_MAX_RHO", 100.0)
        with pytest.raises(NoTractFound):
            tr.find_tracts(h, 1e30)


def _spec_handle(spec):
    """The check-8 handle, or a handle from a CLI function spec."""
    if spec == "check8":
        return lz.make_koenigs(checks.Z2, 1.0, kappa=0.25)
    return cli.function_from_spec(spec)


def _fresh_branch(spec):
    return tr.find_tracts(_spec_handle(spec), np.e).tracts[0]


class TestSampledBranches:
    @pytest.mark.parametrize("spec", ["check8", "koenigs:z^2-1",
                                      "koenigs:z^2-2"])
    def test_ring_batch_matches_scalar_loop(self, spec, monkeypatch):
        h = _spec_handle(spec)
        batched = tr.find_tracts(h, np.e).tracts
        log_f_and_q = lz.KoenigsLinearizer.log_f_and_q

        def scalar_loop(handle, z):
            if np.ndim(z) == 0:
                return log_f_and_q(handle, z)
            lf, q = zip(*(log_f_and_q(handle, complex(v)) for v in z))
            return np.array(lf), np.array(q)

        monkeypatch.setattr(lz.KoenigsLinearizer, "log_f_and_q", scalar_loop)
        looped = tr.find_tracts(h, np.e).tracts
        # anchor 0 holds each base point's (xi, z, q)
        assert [b._anchors[:, 0].tolist() for b in batched] == \
            [b._anchors[:, 0].tolist() for b in looped]


class TestPhiEval:
    def test_exp_identity(self, exp_branch):
        assert tr.phi_eval(exp_branch, 3 + 2j)[0] == pytest.approx(3 + 2j)

    def test_sqrt(self, sq_branch):
        assert tr.phi_eval(sq_branch, 4.0)[0] == pytest.approx(2.0)
        assert tr.phi_eval(sq_branch, 4.0)[1] == pytest.approx(0.25)

    def test_quarter_shift(self):
        branch = tr.find_tracts(lz.exp_power(0.25, 1), np.e).tracts[0]
        assert tr.phi_eval(branch, 2.0)[0] == pytest.approx(2 + np.log(4), abs=1e-9)

    def test_koenigs_affine(self, koenigs_branch):
        # f = e^{z/8} so phi(xi) = 8 xi, over a wide range of scales
        for xi in (1.0, 3 + 2j, 0.05 - 100j, 2000 + 500j, 1.0 + 32768j, 16384.0):
            got = tr.phi_eval(koenigs_branch, xi)[0]
            assert abs(got - 8 * complex(xi)) < 1e-9 * (1 + abs(8 * xi))

    def test_offset_guard(self, exp_branch):
        with pytest.raises(ValueError):
            tr.phi_eval(exp_branch, 0.01 + 1j)

    def test_round_trip(self, koenigs_branch):
        h = koenigs_branch.handle
        for xi in (0.3 + 1j, 7.0, 12 - 5j):
            z = tr.phi_eval(koenigs_branch, xi)[0]
            val = h.eval(z)
            assert abs(val - np.exp(xi)) < 1e-9 * (1 + abs(val))

    def test_cold_cache_coherence(self):
        h = lz.make_koenigs(Polynomial.from_string("2z^2-1"), 1.0, kappa=0.125)
        xi = 9 + 4j
        a = tr.phi_eval(tr.find_tracts(h, np.e).tracts[0], xi)[0]
        warm = tr.find_tracts(h, np.e).tracts[0]
        tr.phi_eval(warm, 2.0)  # populate cache along a different path
        b = tr.phi_eval(warm, xi)[0]
        assert abs(a - b) < 1e-9

    def test_koenigs_derivative(self, koenigs_branch):
        d = tr.phi_eval(koenigs_branch, 5 + 1j)[1]
        assert d == pytest.approx(8.0, abs=1e-9)


class TestSquareClosedForm:
    """e^{z^2}: phi = rot sqrt(xi) on both tracts, rot = 1 and e^(i pi)."""

    @pytest.fixture(scope="class")
    def branches(self):
        return tr.find_tracts(lz.exp_power(1.0, 2), np.e).tracts

    @pytest.fixture(scope="class")
    def xis(self):
        rng = np.random.default_rng(7)
        return (rng.uniform(tr.MIN_OFFSET, 2 ** 14, 2000)
                + 1j * rng.uniform(-2 ** 14, 2 ** 14, 2000))

    def test_scalar_matches_array(self, branches, xis):
        for branch in branches:
            z, dz = tr.phi_eval(branch, xis)
            for i, xi in enumerate(xis.tolist()):
                assert tr.phi_eval(branch, xi) == (z[i], dz[i])
                assert tr.phi_eval(branch, [xi])[0][0] == z[i]

    def test_tract_scale_matches_array(self, branches):
        Ts = 2.0 ** np.arange(15)
        for branch in branches:
            scales = np.abs(tr.phi_eval(branch, Ts.astype(complex))[0])
            assert [tr.tract_scale(branch, T) for T in Ts] == scales.tolist()

    def test_derivative_closed_form(self, branches, xis):
        for j, branch in enumerate(branches):
            rot = np.exp(1j * np.pi * j)
            want = rot * xis ** -0.5 / 2
            got = tr.phi_eval(branch, xis)[1]
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15


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
        branch = tr.find_tracts(lz.make_koenigs(checks.Z2, 1.0, kappa=0.25),
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

    def test_height_below_one_refused(self, exp_branch):
        with pytest.raises(ValueError, match="T must be >= 1"):
            tr.rescaled_map(exp_branch, 0.5, 1)

    def test_sqrt_rescaling(self, sq_branch):
        # phi_T(xi) = sqrt(xi) independently of T
        got = tr.rescaled_map(sq_branch, 5.0, 2 + 1j)
        assert got == pytest.approx(np.sqrt(2 + 1j), abs=1e-9)


class TestBoundary:
    def test_closed_and_deterministic(self, koenigs_branch):
        a = tr.trace_boundary(koenigs_branch, 5.0)
        b = tr.trace_boundary(koenigs_branch, 5.0)
        assert a[0] == a[-1]
        assert a == b

    def test_exp_corners(self, exp_branch):
        mods = [abs(z) for z in tr.trace_boundary(exp_branch, 3.0)]
        assert max(mods) == pytest.approx(np.hypot(4, 4), rel=0.05)

    def test_sqrt_parametrization(self, sq_branch):
        polyline = tr.trace_boundary(sq_branch, 5.0)
        scale = np.sqrt(5.0)
        for xi, z in zip(tr._rectangle_path(512), polyline):
            assert z == pytest.approx(np.sqrt(5.0 * xi) / scale, abs=1e-8)


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

    def test_el_sample_floor(self, exp_branch, koenigs_branch, monkeypatch):
        # no sample cannot violate the bound: refused before any phi call
        def unreachable(branch, xi):
            raise AssertionError("phi evaluated")

        with monkeypatch.context() as m:
            m.setattr(tr, "phi_eval", unreachable)
            for branch in (exp_branch, koenigs_branch):
                for samples in (0, -1):
                    with pytest.raises(ValueError, match="samples must be"):
                        tr.el_violations(branch, samples=samples)
        assert tr.el_violations(exp_branch, samples=1) == 0

    def test_real_axis_distortion(self, sq_branch, koenigs_branch):
        for branch in (sq_branch, koenigs_branch):
            d1 = abs(tr.phi_eval(branch, 1.0)[1])
            for x in (2.0, 10.0, 100.0):
                ratio = abs(tr.phi_eval(branch, x)[1]) / d1
                assert 1e-4 * x**-3 <= ratio <= 1e4 * x

    def test_growth_bound(self, koenigs_branch):
        p1 = tr.phi_eval(koenigs_branch, 1.0)[0]
        d1 = abs(tr.phi_eval(koenigs_branch, 1.0)[1])
        for T in (2.0, 8.0, 64.0):
            assert abs(tr.phi_eval(koenigs_branch, T)[0] - p1) <= 1e4 * d1 * T**2

    def test_long_walk_terminates(self):
        # ~1,750 accepted steps would grow the continuation trust to inf
        # without a ceiling, and a rejected step would then halve it forever
        code = ("import math, tractdim.cli as cli, tractdim.tract as tr; "
                "h = cli.function_from_spec('koenigs:z^2-1'); "
                "b = tr.find_tracts(h, math.e).tracts[0]; "
                "print(tr.el_violations(b, samples=3000))")
        src = os.path.dirname(os.path.dirname(os.path.abspath(tr.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120).stdout
        assert out.strip() == "0"


def _xi_grid(shape):
    n = int(np.prod(shape))
    re = tr.MIN_OFFSET + 60.0 * numerics.halton(n, 2)
    im = 120.0 * numerics.halton(n, 3) - 60.0
    return (re + 1j * im).reshape(shape)


class TestPhiContract:
    @pytest.mark.parametrize("spec", ["check8", "koenigs:z^2-1"])
    def test_array_eval_matches_point_loop(self, spec):
        xi = _xi_grid((8, 6))
        looped, batched = _fresh_branch(spec), _fresh_branch(spec)
        pairs = [tr.phi_eval(looped, x) for x in xi.ravel()]
        z, dphi = tr.phi_eval(batched, xi)
        assert z.shape == dphi.shape == xi.shape
        assert z.ravel().tolist() == [p[0] for p in pairs]
        assert dphi.ravel().tolist() == [p[1] for p in pairs]
        n = looped._n_anchors
        assert batched._n_anchors == n == 1 + xi.size
        assert batched._anchors[:, :n].tolist() == \
            looped._anchors[:, :n].tolist()

    @pytest.mark.parametrize("name", ["exp", "quarter", "square", "composite"])
    def test_entries_agree_on_closed_branches(self, name):
        branch = _fresh_branch(name)
        xi = _xi_grid((4, 50))
        z, dphi = tr.phi_eval(branch, xi)
        for other in (tr.phi_path(branch, xi),
                      tr.phi_refine(branch, xi, np.zeros_like(xi))):
            assert other[0].tolist() == z.tolist()
            assert other[1].tolist() == dphi.tolist()

    def test_anchors_carry_q(self, monkeypatch):
        branch = _fresh_branch("check8")
        calls = []
        log_f_and_q = lz.KoenigsLinearizer.log_f_and_q

        def counting(handle, z):
            calls.append(z)
            return log_f_and_q(handle, z)

        monkeypatch.setattr(lz.KoenigsLinearizer, "log_f_and_q", counting)
        # the base point is an anchor: no log f evaluation to read it back
        xi0, z0, q0 = branch._anchors[:, 0].tolist()
        z, dphi = tr.phi_eval(branch, xi0)
        assert calls == []
        assert (z, dphi) == (z0, 1.0 / q0)
        tr.phi_eval(branch, _xi_grid((16,)))
        monkeypatch.undo()
        n = branch._n_anchors
        for x, z, q in branch._anchors[:, :n].T.tolist():
            assert q == branch.handle.log_f_and_q(z)[1]
        assert _fresh_branch("exp")._anchors is None

    @pytest.mark.parametrize("entry", ["phi_eval", "phi_path", "phi_refine",
                                       "log_weight"])
    @pytest.mark.parametrize("spec", ["exp", "check8"])
    def test_offset_guard_on_every_point(self, spec, entry):
        branch = _fresh_branch(spec)
        xi = np.array([2.0 + 1j, 3.0, 0.01 - 1j, 4.0 + 2j])
        args = (xi, 2.0 * xi) if entry == "phi_refine" else (xi,)
        with pytest.raises(ValueError):
            getattr(tr, entry)(branch, *args)

    @pytest.mark.parametrize("spec", ["check8", "koenigs:z^2-1"])
    def test_repeat_points_add_no_anchor(self, spec):
        branch = _fresh_branch(spec)
        xi = _xi_grid((24,))
        first = tr.phi_eval(branch, xi)
        n = branch._n_anchors
        again = tr.phi_eval(branch, xi)
        assert branch._n_anchors == n == 1 + xi.size
        assert again[0].tolist() == first[0].tolist()
        assert again[1].tolist() == first[1].tolist()


def _dyadic_preimages(n_max):
    """Preimages of w = e^(2 + 0.3i) for |k| <= 2^n_max, one array per
    dyadic block 2^(n-1) < |k| <= 2^n (block 0 is |k| <= 1)."""
    blocks = [np.array([-1, 0, 1])]
    for n in range(1, n_max + 1):
        pos = np.arange((1 << (n - 1)) + 1, (1 << n) + 1)
        blocks.append(np.concatenate([-pos, pos]))
    return [2.0 + 1j * (0.3 + 2 * np.pi * ks) for ks in blocks]


def _ratio_of_walk(branch, xi):
    z, dphi = tr.phi_path(branch, xi)
    return np.log(np.abs(dphi)) - np.log(np.abs(z))


class TestLogWeight:
    @pytest.mark.parametrize("spec, ulps", [
        ("exp", 0), ("quarter", 0), ("square", 4), ("cubic", 4)])
    def test_closed_form_matches_walked_ratio(self, spec, ulps):
        # e^{z^d}: phi'/phi = 1/(d (xi - log lam)); at d = 1 the closed
        # form is today's 0.0 - log|w| bit for bit
        h = (lz.exp_power(0.5 + 0.5j, 3) if spec == "cubic"
             else cli.function_from_spec(spec))
        atlas = tr.find_tracts(h, np.e)
        assert len(atlas.tracts) == h.d
        for branch in atlas.tracts:
            assert branch.weight is not None
            for xi in _dyadic_preimages(19):
                got, want = tr.log_weight(branch, xi), _ratio_of_walk(branch, xi)
                assert got.shape == xi.shape
                if ulps == 0:
                    assert got.tolist() == want.tolist()
                else:
                    gap = np.abs(got - want) / np.spacing(np.abs(want))
                    assert gap.max() <= ulps

    @pytest.mark.parametrize("spec", ["composite", "koenigs:z^2-1"])
    def test_fallback_is_the_walked_ratio(self, spec):
        # the same phi_path calls in the same order: values and, on a
        # sampled branch, the anchors the walks leave are identical
        read, walked = _fresh_branch(spec), _fresh_branch(spec)
        assert read.weight is None
        for xi in _dyadic_preimages(6):
            assert tr.log_weight(read, xi).tolist() == \
                _ratio_of_walk(walked, xi).tolist()
        assert read._n_anchors == walked._n_anchors
        assert read._trust == walked._trust
        if read.sampled:
            n = read._n_anchors
            assert read._anchors[:, :n].tolist() == \
                walked._anchors[:, :n].tolist()

    @pytest.mark.parametrize("spec, shared", [
        ("exp", True), ("square", True), ("composite", False),
        ("koenigs:z^2-1", False)])
    def test_shared_weight(self, spec, shared):
        # the rotated tracts of e^(z^d) carry one weight; a composite or
        # sampled branch has none to share
        atlas = tr.find_tracts(_spec_handle(spec), np.e)
        weight = atlas.shared_weight
        assert (weight is not None) == shared
        if shared:
            assert all(b.weight is weight for b in atlas.tracts)

    @pytest.mark.parametrize("spec", ["exp", "square", "composite"])
    def test_scalar_matches_array(self, spec):
        branch = _fresh_branch(spec)
        xi = _xi_grid((3, 5))
        got = tr.log_weight(branch, xi)
        assert got.shape == xi.shape
        for x, g in zip(xi.ravel(), got.ravel()):
            one = tr.log_weight(branch, x)
            assert np.ndim(one) == 0 and one == g


def scalar_halton(n, base):
    """The point-by-point radical inverse (frozen reference)."""
    out = np.zeros(n)
    for i in range(n):
        f, x, k = 1.0, 0.0, i + 1
        while k > 0:
            f /= base
            x += f * (k % base)
            k //= base
        out[i] = x
    return out


@pytest.mark.parametrize("base", [2, 3, 5, 7])
def test_halton_matches_scalar_bitwise(base):
    for n in (0, 1, 10_000):
        got = numerics.halton(n, base)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == scalar_halton(n, base).tobytes()
