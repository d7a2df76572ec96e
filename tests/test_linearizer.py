import cmath
import dataclasses
import math

import numpy as np
import pytest

from tractdim import _kernels, cli, linearizer as lz, numerics, poly
from tractdim.errors import NotRepelling, Overflow, ScaleFloor
from tractdim.poly import Polynomial


P_SQUARE = Polynomial.from_string("z^2")
P_COSH = Polynomial.from_string("2z^2-1")


def cosh_ref(z):
    # even entire series sum 2^n z^n / (2n)!
    return np.cosh(2 * np.sqrt(np.asarray(z, dtype=complex) / 2))


def sample_disk(n, radius, seed=0):
    rng = np.random.default_rng(seed)
    return radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def restart_builder(p, z0, kappa=1.0 + 0j):
    """The series builder before the one-pass ``make_koenigs``, frozen as a
    reference: re-solve a_1..a_K from a_1 each time K doubles."""
    def coefficients(K):
        z0c = complex(z0)
        if abs(p(z0c) - z0c) > 1e-10:
            raise ValueError("z0 is not a fixed point")
        lam = p.derivative(z0c)
        f = np.zeros(K + 1, dtype=complex)
        f[0] = z0c
        f[1] = 1.0
        coeffs = p.coefficients
        for n in range(2, K + 1):
            g = np.zeros(n + 1, dtype=complex)
            g[0] = coeffs[-1]
            for c in coeffs[-2::-1]:
                g = np.convolve(g, f[: n + 1])[: n + 1]
                g[0] += c
            f[n] = g[n] / (lam**n - lam)
        return list(f[1:])

    z0 = complex(z0)
    lam = p.derivative(z0)
    if abs(lam) <= 1:
        raise NotRepelling("multiplier |%s| <= 1" % lam)
    r0 = lz._series_radius(p, z0, lam)
    K = 16
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            taylor = coefficients(K)
        if not np.all(np.isfinite(taylor)):
            raise NotRepelling("multiplier |%s| = %.9g is too close to 1: "
                               "Taylor coefficients overflow at K = %d"
                               % (lam, abs(lam), K))
        if abs(taylor[-1]) * r0 ** K < 1e-14 or K >= 256:
            break
        K *= 2
    return lz.KoenigsLinearizer(p, z0, lam, tuple(complex(a) for a in taylor),
                                r0, complex(kappa))


class TestCoefficients:
    def test_exponential_series(self):
        a = list(lz.make_koenigs(P_SQUARE, 1.0).taylor[:8])
        fact = [math.factorial(n) for n in range(1, 9)]
        assert a == pytest.approx([1.0 / f for f in fact], abs=1e-14)

    def test_cosh_series(self):
        a = list(lz.make_koenigs(P_COSH, 1.0).taylor[:8])
        ref = [2.0**n / math.factorial(2 * n) for n in range(1, 9)]
        assert a == pytest.approx(ref, abs=1e-14)

    def test_not_repelling(self):
        with pytest.raises(NotRepelling):
            lz.make_koenigs(P_SQUARE, 0.0)

    def test_near_parabolic_fails_fast(self):
        # z0 = 1/2 + 1e-6 is a fixed point of z^2 + z0 - z0^2 with
        # multiplier 2 z0 just above 1; the series overflows before K = 256
        z0 = 0.5 + 1e-6
        p = Polynomial((z0 - z0 * z0, 0.0, 1.0))
        with pytest.raises(NotRepelling, match=r"= 1\.000002 is too close"):
            lz.make_koenigs(p, z0)

    def test_series_past_float_range_is_overflow(self):
        # a Python complex or float power raises OverflowError: lam**n
        # leaves the float range first for z^200 (|lam| = 200, n = 134),
        # r0**n for z^2 + z0 - z0^2 at z0 = 2^33 (r0 = 2^65, n = 16)
        with pytest.raises(Overflow, match=r"order n = 134 \(\|lam\| = 200\)"):
            lz.make_koenigs(Polynomial.from_string("z^200"), 1.0)
        z0 = 2.0 ** 33
        with pytest.raises(Overflow, match=r"order n = 16 "):
            lz.make_koenigs(Polynomial((z0 - z0 * z0, 0.0, 1.0)), z0)
        # z^130 still builds: its tail is below tolerance at K = 128
        assert len(lz.make_koenigs(Polynomial.from_string("z^130"),
                                   1.0).taylor) == 128

    def test_not_fixed(self):
        with pytest.raises(ValueError):
            lz.make_koenigs(P_SQUARE, 3.0)

    def test_not_fixed_checked_before_multiplier(self):
        # 0 is not a fixed point of z^2-1, and p'(0) = 0 is not repelling
        with pytest.raises(ValueError, match="not a fixed point"):
            lz.make_koenigs(Polynomial.from_string("z^2-1"), 0.0)

    @pytest.mark.parametrize("z0", [complex(math.nan, 0), math.inf])
    def test_non_finite_z0_is_not_fixed(self, z0):
        # |p(z0) - z0| is nan at both, which a plain "> tol" test lets pass
        with pytest.raises(ValueError, match="not a fixed point"):
            lz.make_koenigs(P_SQUARE, z0)

    @pytest.mark.parametrize("text, K", [
        ("z^2-1", 16), ("z^2-2", 16), ("z^3-0.5z", 16), ("2z^2-1", 16),
        ("z^2", 16), ("z^2+0.3i", 16), ("z^4-0.5", 16), ("z^2+0.2", 32),
        ("z^2+0.24", 64), ("z^2+0.249", 256)])
    def test_one_pass_matches_restarts(self, text, K):
        p = Polynomial.from_string(text)
        z0 = poly.repelling_fixed_point(p)
        L = lz.make_koenigs(p, z0, 0.5)
        assert len(L.taylor) == K
        assert L == restart_builder(p, z0, 0.5)  # every coefficient, lam, r0

    def test_one_pass_keeps_the_parabolic_error(self):
        p = Polynomial.from_string("z^2+0.25")
        z0 = poly.repelling_fixed_point(p)
        with pytest.raises(NotRepelling) as want:
            restart_builder(p, z0)
        assert "at K = 64" in str(want.value)
        with pytest.raises(NotRepelling) as got:
            lz.make_koenigs(p, z0)
        assert str(got.value) == str(want.value)


class TestLadderEval:
    def test_golden_exp(self):
        L = lz.make_koenigs(P_SQUARE, 1.0)
        for z in sample_disk(200, 2.0):
            assert L.eval(z) == pytest.approx(np.exp(z), abs=1e-9)
        assert L.eval(2 + np.pi * 1j) == pytest.approx(
            -7.3890561, abs=1e-6
        )

    def test_golden_cosh(self):
        L = lz.make_koenigs(P_COSH, 1.0)
        assert L.eval(1.0) == pytest.approx(2.1781836, abs=1e-6)
        for z in sample_disk(200, 2.0, seed=1):
            assert L.eval(z) == pytest.approx(cosh_ref(z), abs=1e-8)

    def test_functional_equation(self):
        for p, z0 in ((P_SQUARE, 1.0), (P_COSH, 1.0),
                      (Polynomial.from_string("z^2-1"), (1 + np.sqrt(5)) / 2)):
            L = lz.make_koenigs(p, z0)
            for z in sample_disk(100, 10.0, seed=2):
                lhs = L.eval(L.lam * z)
                rhs = p(L.eval(z))
                assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))

    def test_normalization(self):
        L = lz.make_koenigs(P_COSH, 1.0)
        assert L.eval(0.0) == 1.0
        assert L.taylor[0] == 1.0

    def test_overflow_is_error(self):
        L = lz.make_koenigs(P_SQUARE, 1.0)
        with pytest.raises(Overflow):
            L.eval(1e6)

    def test_derivative_matches_differences(self):
        for p in (P_SQUARE, P_COSH):
            L = lz.make_koenigs(p, 1.0)
            h = 1e-6
            for z in sample_disk(100, 5.0, seed=3):
                num = (L.eval(z + h) - L.eval(z - h)) / (2 * h)
                d = L.log_f_and_q(z)[1] * L.eval(z)  # f' = (f'/f) f
                assert d == pytest.approx(num, rel=1e-6)

    def test_derivative_golden(self):
        L = lz.make_koenigs(P_SQUARE, 1.0)
        assert L.log_f_and_q(1.0)[1] * L.eval(1.0) == pytest.approx(
            np.e, abs=1e-9)
        Lc = lz.make_koenigs(P_COSH, 1.0)
        assert Lc.log_f_and_q(0.0)[1] * Lc.eval(0.0) == pytest.approx(
            1.0, abs=1e-12)


def sample_ring(n, rmin, rmax, seed=0):
    rng = np.random.default_rng(seed)
    r = rmin * (rmax / rmin) ** rng.random(n)
    return r * np.exp(2j * np.pi * rng.random(n))


class TestLogEval:
    @pytest.mark.parametrize("kappa", [1.0, 0.25])
    def test_exp_oracle(self, kappa):
        # z^2 at z0 = 1 linearizes to exp: log f(kappa z) = kappa z, q = kappa
        L = lz.make_koenigs(P_SQUARE, 1.0, kappa)
        zs = sample_ring(300, 1.0, 1e5, seed=4)
        for z in zs[(kappa * zs).real > -300]:  # f(kappa z) stays above 1e-130
            logf, q = lz.linearizer_log_eval(L, complex(z))
            assert type(logf) is complex and type(q) is complex
            res = logf - kappa * z
            res = complex(res.real, (res.imag + np.pi) % (2 * np.pi) - np.pi)
            assert abs(res) <= 1e-12 * (1 + abs(kappa * z))
            assert abs(q - kappa) <= 1e-12 * kappa

    def test_scalar_matches_array(self):
        # the dense cubic has no zero coefficient, so neither kernel skips
        # a product (lam = 4.49 at its repelling fixed point)
        dense = Polynomial.from_string("z^3+0.2z^2-0.5z+0.1")
        linearizers = [
            lz.make_koenigs(P_SQUARE, 1.0, 0.25),
            lz.make_koenigs(P_COSH, 1.0, 0.125),
            lz.make_koenigs(Polynomial.from_string("z^2-1"), (1 + np.sqrt(5)) / 2,
                            0.1),
            lz.make_koenigs(dense, poly.repelling_fixed_point(dense), 0.1),
        ]
        for L in linearizers:
            for z in sample_ring(200, 1.0, 1e5, seed=5):
                scalar = lz.linearizer_log_eval(L, complex(z))
                batch = lz.linearizer_log_eval(L, np.array([z]))
                for a, b in zip(scalar, batch):
                    if np.isfinite(b[0]):
                        assert abs(a - b[0]) <= 1e-12 * abs(b[0])
                    else:
                        assert not np.isfinite(a)

    def test_wide_batch_matches_scalar(self):
        # one array of |z| from 1e-3 to 1e10: each point descends by its
        # own count, so a small point no longer starts as deep as the
        # largest (which put it off by 6.9e-8 in log f and 7.8e-8 in Q).
        # The angles keep |arg z| < 2.5, away from the zeros of cosh.
        L = lz.make_koenigs(Polynomial.from_string("z^2-2"), 2.0, 0.125)
        n = 210
        zs = np.logspace(-3, 10, n) * np.exp(
            2.5j * (2 * numerics.halton(n, 2) - 1))
        logf, q = lz.linearizer_log_eval(L, zs)
        want = np.array([lz.linearizer_log_eval(L, complex(z)) for z in zs]).T
        assert np.all(np.abs(wrapped(logf - want[0]))
                      <= 1e-13 * (1 + np.abs(want[0])))
        assert np.all(np.abs(q - want[1]) <= 1e-13 * np.abs(want[1]))

    def test_batch_point_is_its_one_point_call(self):
        # counts from 0 to 15 in one 2-d batch, points that pass the escape
        # bound at different steps, an exact zero and a nan: every result
        # has the bits of the same point's one-point call
        p = Polynomial.from_string("z^2-2")
        L = lz.make_koenigs(p, 2.0, 0.125)
        n = 60
        zs = np.logspace(-3, 10, n) * np.exp(
            2.5j * (2 * numerics.halton(n, 3) - 1))
        zs[[7, 31]] = 0.0, complex(np.nan, 1.0)
        counts = [descent_count(L, z) for z in zs[~np.isnan(zs)]]
        assert min(counts) == 0 and max(counts) == 15
        logf, q = lz.linearizer_log_eval(L, zs.reshape(6, 10))
        assert logf.shape == q.shape == (6, 10)
        assert np.sum(logf.real > math.log(p.escape_bound)) >= 10
        assert cmath.isnan(logf.flat[31]) and cmath.isnan(q.flat[31])
        for z, got in zip(zs, zip(logf.ravel(), q.ravel())):
            want = lz.linearizer_log_eval(L, np.array([z]))
            assert np.array_equal(bits(got), bits(np.ravel(want)))

    def test_nan_point_leaves_batch_alone(self):
        # the batch's largest modulus skips nan: with np.max a nan point
        # stopped the descent at n = 0 for every point of the array
        L = cli.function_from_spec("koenigs:z^2-1")
        logf, q = lz.linearizer_log_eval(L, np.array([np.nan, 400 + 50j]))
        assert cmath.isnan(logf[0]) and cmath.isnan(q[0])
        want = lz.linearizer_log_eval(L, 400 + 50j)
        assert abs(logf[1] - want[0]) <= 1e-12 * abs(want[0])
        assert abs(q[1] - want[1]) <= 1e-12 * abs(want[1])

    def test_underflow_returns_minus_inf(self):
        # 0 is superattracting for z^2 + 1e-3 z^3, so at Re z << 0 the
        # orbit underflows to 0: log f = -inf and Q = nan on both paths,
        # without a warning (pytest turns warnings into errors)
        p = Polynomial((0.0, 0.0, 1.0, 1e-3))
        L = lz.make_koenigs(p, (math.sqrt(1 + 4e-3) - 1) / 2e-3)
        zs = np.array([-2000.0, -800.0 + 5j])
        logf, q = lz.linearizer_log_eval(L, zs)
        assert np.all(logf.real == -np.inf) and np.all(np.isnan(q))
        for z in zs:
            got = lz.linearizer_log_eval(L, complex(z))
            assert type(got[0]) is complex and type(got[1]) is complex
            assert got[0].real == -np.inf and cmath.isnan(got[1])
        # just above the float floor the same map still returns numbers
        logf, q = lz.linearizer_log_eval(L, -700.0)
        assert math.isfinite(logf.real) and cmath.isfinite(q)


# The escape ladder in log form, as it stood before the value form (frozen
# copy): each step took exp(-log f) and a log.  The oracle tests hold the
# ladder under test to errors no larger than this one's.


def ref_escape_sums(coeffs, u):
    s1 = s2 = 0j
    for k, c in enumerate(coeffs):
        s1 = s1 * u + c
        s2 = s2 * u + k * c
    return s1, s2


def ref_series_eval(L, u):
    s = 0j
    ds = 0j
    for a in L.taylor[::-1]:
        ds = ds * u + s
        s = s * u + a
    return L.z0 + u * s, s + u * ds


def ref_exp_neg(logf):
    return cmath.exp(-logf) if logf.real < 700.0 else 0j


def ref_exp_neg_array(logf):
    return np.where(np.real(logf) < 700.0, np.exp(-logf), 0j)


def ref_escape_ladder(L, u0, max_abs, log, exp_neg):
    n = 0
    biggest = max_abs(u0)
    while biggest > L.series_radius:
        u0 = u0 / L.lam
        biggest /= abs(L.lam)
        n += 1
    g, dg = ref_series_eval(L, u0)
    logf = log(g)
    q = dg * (L.kappa / L.lam**n) / g
    coeffs = L.p.coefficients
    d = L.p.degree
    for _ in range(n):
        s1, s2 = ref_escape_sums(coeffs, exp_neg(logf))
        q = (s2 / s1) * q
        logf = d * logf + log(s1)
    return logf, q


def ref_log_eval(L, z):
    scalar = np.ndim(z) == 0
    if scalar:
        try:
            return ref_escape_ladder(L, L.kappa * complex(z), abs, cmath.log,
                                     ref_exp_neg)
        except (ArithmeticError, ValueError):
            pass
    u0 = L.kappa * np.asarray(z, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        logf, q = ref_escape_ladder(L, u0, lambda u: np.max(np.abs(u)),
                                    _kernels.clog, ref_exp_neg_array)
    if scalar:
        return complex(logf), complex(q)
    return logf, q


def bits(x):
    return np.asarray(x, dtype=complex).view(np.uint64)


def descent_count(L, z):
    """The number of lam-divisions that bring kappa*z into the series disk."""
    u, n = abs(L.kappa * z), 0
    while u > L.series_radius:
        u /= abs(L.lam)
        n += 1
    return n


def wrapped(x):
    """x with its imaginary part taken mod 2 pi into [-pi, pi)."""
    x = np.asarray(x, dtype=complex)
    return x.real + 1j * ((x.imag + np.pi) % (2 * np.pi) - np.pi)


def exp_closed(L, z):
    # z^2 at z0 = 1: f(u) = e^u, so log f(kappa z) = kappa z and Q = kappa
    u = L.kappa * np.asarray(z, dtype=complex)
    return u, L.kappa + 0 * u


def cosh_closed(L, z):
    # z^2-2 at z0 = 2: f(u) = 2 cosh sqrt(u); with s = sqrt(kappa z),
    # log f = s + log(1 + e^(-2s)) and Q = kappa tanh(s) / (2s)
    s = np.sqrt(L.kappa * np.asarray(z, dtype=complex))
    return s + np.log1p(np.exp(-2 * s)), L.kappa * np.tanh(s) / (2 * s)


def closed_form_errors(L, zs, closed, log_eval):
    """Max and rms errors of log f (mod 2 pi i, relative to 1 + |log f|) and
    of Q (relative): scalar calls, then one array call per row of 15 points
    of similar modulus, over the first multiple of 15 points by modulus."""
    rows = zs[np.argsort(np.abs(zs))][: zs.size // 15 * 15].reshape(-1, 15)
    want_lf, want_q = closed(L, rows)
    scalar = np.array([[log_eval(L, complex(z)) for z in row] for row in rows])
    batch = np.array([log_eval(L, row) for row in rows]).transpose(0, 2, 1)
    errors = []
    for got in (scalar, batch):
        errors.append(np.abs(wrapped(got[..., 0] - want_lf))
                      / (1 + np.abs(want_lf)))
        errors.append(np.abs(got[..., 1] - want_q) / np.abs(want_q))
    errors = np.array(errors).reshape(4, -1)
    return np.max(errors, axis=1), np.sqrt(np.mean(errors**2, axis=1))


def ring(n, rmin, rmax, seed, max_arg=np.pi):
    zs = sample_ring(4 * n, rmin, rmax, seed=seed)
    return zs[np.abs(np.angle(zs)) < max_arg][:n]


# name: (linearizer, closed form, points, bounds on the max errors of
# closed_form_errors: scalar log f, scalar Q, array log f, array Q).
# Measured on the value ladder: z^2 4.3e-16, 4.5e-16, 5.8e-15, 4.5e-16;
# z^2-2 3.3e-16, 8.0e-16, 1.3e-15, 1.5e-15.  The z^2-2
# points keep |arg z| < 2.5, away from the zeros of cosh on the negative
# axis.
ORACLES = {
    "z^2": (lambda: lz.make_koenigs(P_SQUARE, 1.0, 0.25), exp_closed,
            lambda: np.concatenate([[-8000.0, 1e6j, -3e5 + 4e5j],
                                    sample_ring(297, 1e-3, 1e5, seed=7)]),
            (1e-15, 1e-15, 1.2e-14, 1e-15)),
    "z^2-2": (lambda: lz.make_koenigs(Polynomial.from_string("z^2-2"), 2.0,
                                      0.125), cosh_closed,
              lambda: ring(210, 1e-3, 1e10, seed=8, max_arg=2.5),
              (1e-15, 2e-15, 3e-15, 3e-15)),
}


class TestLadderOracles:
    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_closed_form(self, name):
        make, closed, points, bounds = ORACLES[name]
        L, zs = make(), points()
        # deep descents, and points past the escape bound (for z^2 every
        # point is: a monomial's bound is 0)
        assert max(descent_count(L, z) for z in zs) >= 15
        bound = L.p.escape_bound
        log_bound = math.log(bound) if bound else -math.inf
        assert np.sum(closed(L, zs)[0].real > log_bound) >= 20
        got = closed_form_errors(L, zs, closed, lz.linearizer_log_eval)[0]
        assert np.all(np.isfinite(got)) and np.all(got <= bounds)
        # no larger than the frozen ladder's, in rms over the points where
        # it is finite, up to the closed form's own rounding (2^-53)
        finite = np.all(np.isfinite(ref_log_eval(L, zs)), axis=0)
        with np.errstate(all="ignore"):
            frozen = closed_form_errors(L, zs[finite], closed, ref_log_eval)[1]
        got = closed_form_errors(L, zs[finite], closed,
                                 lz.linearizer_log_eval)[1]
        assert np.all(got <= frozen + 2.0**-53)

    @pytest.mark.parametrize("spec", ["z^2-1", "2z^2-1", "z^3-0.5z"])
    def test_past_escape_bound_tail(self, spec):
        # f(lam^m z) = p^m(f(z)); past the bound p^m(v) = c_d^((d^m-1)/(d-1))
        # v^(d^m), so log f and Q at lam^m z follow from those at z by the
        # tail: d^m log f + (d^m-1)/(d-1) log c_d, and lam^m Q = d^m Q
        p = Polynomial.from_string(spec)
        L = lz.make_koenigs(p, poly.repelling_fixed_point(p), 0.25)
        d, lead = p.degree, cmath.log(p.coefficients[-1])
        circle = 1e4 * np.exp(2j * np.pi * np.arange(720) / 720)
        top = circle[np.argmax(lz.linearizer_log_eval(L, circle)[0].real)]
        zs = top * np.exp(1j * np.linspace(-0.02, 0.02, 15))
        logf, q = lz.linearizer_log_eval(L, zs)
        assert np.all(logf.real > math.log(p.escape_bound))
        for m in (1, 2, 3):
            far = L.lam**m * zs
            power = d**m
            want_lf = power * logf + (power - 1) // (d - 1) * lead
            for got_lf, got_q in (lz.linearizer_log_eval(L, far),
                                  np.array([lz.linearizer_log_eval(
                                      L, complex(z)) for z in far]).T):
                assert np.all(np.isfinite(got_lf) & np.isfinite(got_q))
                err = np.abs(wrapped(got_lf - want_lf)) / np.abs(want_lf)
                assert np.all(err <= 1e-14)  # measured 7.5e-16
                assert np.all(np.abs(L.lam**m * got_q - power * q)
                              <= 1e-14 * np.abs(power * q))  # 1.1e-15
        # one 2-d batch of the circle's points with |f| > e, whose orbits
        # pass the bound at different steps or not at all, matches the
        # scalar calls (nearer the zeros of f both paths lose digits)
        batch = circle[lz.linearizer_log_eval(L, circle)[0].real > 1.0]
        batch = batch[: batch.size // 15 * 15].reshape(-1, 15)
        got = np.array(lz.linearizer_log_eval(L, batch))
        assert got.shape == (2,) + batch.shape
        want = np.array([lz.linearizer_log_eval(L, complex(z))
                         for z in batch.ravel()]).T.reshape(got.shape)
        assert np.all(np.abs(wrapped(got[0] - want[0]))
                      <= 1e-13 * (1 + np.abs(want[0])))  # measured 1.2e-14
        assert np.all(np.abs(got[1] - want[1])
                      <= 1e-13 * np.abs(want[1]))  # 4.7e-15


def ref_value_ladder(L, z):
    """The scalar value ladder before its climb was written out (frozen
    copy): each step one full ``poly.escape_sums`` pass, leading first,
    from 0j over every pair."""
    u, n, biggest = L.kappa * complex(z), 0, abs(L.kappa * complex(z))
    while biggest > L.series_radius:
        u = u / L.lam
        biggest /= abs(L.lam)
        n += 1
    v, dv = ref_series_eval(L, u)
    q = dv * (L.kappa / L.lam**n) / v
    p = L.p
    for m in range(n, 0, -1):
        if abs(v) >= p.escape_bound:
            d, power = p.degree, p.degree**m
            lead = (power - 1) // (d - 1) * cmath.log(p.coefficients[-1])
            return power * cmath.log(v) + lead, power * q
        v, s2 = poly.escape_sums(p.escape_pairs[::-1], v)
        q = (s2 / v) * q
    return cmath.log(v), q


class TestLadderBitwise:
    @pytest.mark.parametrize("spec", ["z^2-1", "z^2-2", "z^3-0.5z", "2z^2-1",
                                      "z^2+0.05i", "z^3+0.2z^2-0.5z+0.1"])
    def test_scalar_kernel_matches_full_pass(self, spec):
        # skipping the zero coefficients (and the 0j start) changes no bit,
        # on the axes either, where only signed zeros could tell
        p = Polynomial.from_string(spec)
        L = lz.make_koenigs(p, poly.repelling_fixed_point(p), 0.1)
        r = np.logspace(-3, 9, 100)
        zs = np.concatenate([sample_ring(400, 1e-3, 1e9, seed=9),
                             r, -r, 1j * r, -1j * r])
        escaped = 0
        for z in zs:
            try:
                want = ref_value_ladder(L, z)
            except (ArithmeticError, ValueError) as error:
                # an orbit through an exact zero of p (z^2-1 on the real
                # axis): the kernel raises alike, and numpy takes over
                with pytest.raises(type(error)):
                    lz._scalar_ladder(L, z)
                continue
            got = lz.linearizer_log_eval(L, complex(z))
            assert type(got[0]) is complex and type(got[1]) is complex
            assert np.array_equal(bits(got), bits(want))
            escaped += got[0].real > math.log(p.escape_bound)
        assert escaped >= 100  # so the tail is held to the full pass too

    @pytest.mark.parametrize("z", [3, -8000])
    def test_scalar_input_types(self, z):
        # every scalar type takes the cmath path and gives the same bits;
        # -8000 is f = e^(-2000) on z^2 at kappa = 0.25
        L = ORACLES["z^2"][0]()
        want = lz.linearizer_log_eval(L, complex(z))
        assert abs(want[0] - 0.25 * z) <= 1e-15 * abs(z)
        assert abs(want[1] - 0.25) <= 1e-15
        for zin in (complex(z), float(z), int(z), np.complex128(z),
                    np.array(complex(z))):
            got = lz.linearizer_log_eval(L, zin)
            assert type(got[0]) is complex and type(got[1]) is complex
            assert np.array_equal(bits(got), bits(want))


def ref_disjoint_type(L, R, grid=48):
    """The scalar disjoint-type search before it was batched (frozen copy)."""
    radii = np.linspace(0.0, R, grid)
    angles = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
    pts = np.ravel(radii[:, None] * np.exp(1j * angles)[None, :])
    kappa = L.kappa
    while abs(kappa) >= 1e-12:
        trial = dataclasses.replace(L, kappa=kappa)
        try:
            escaped = any(abs(trial.eval(z)) > R for z in pts)
        except Overflow:
            escaped = True
        if not escaped:
            return trial
        kappa /= 2
    raise ScaleFloor("no disjoint-type kappa above 1e-12")


class TestDisjointType:
    @pytest.mark.parametrize("R", [math.e, 4.0, 10.0])
    @pytest.mark.parametrize(
        "spec", ["z^2-1", "z^2-2", "z^2", "z^3-0.5z", "2z^2-1", "z^2+0.2"])
    def test_batched_matches_scalar_search(self, spec, R):
        p = Polynomial.from_string(spec)
        L = lz.make_koenigs(p, poly.repelling_fixed_point(p))
        assert lz.make_disjoint_type(L, R).kappa == ref_disjoint_type(L, R).kappa

    @pytest.mark.parametrize("spec", ["z^2-1", "z^2-2", "z^3-0.5z"])
    def test_one_trial_at_given_kappa(self, spec):
        # the search stops at the first halving the one-trial test accepts;
        # the kappa before it fails, and so does one that overflows
        p = Polynomial.from_string(spec)
        L = lz.make_koenigs(p, poly.repelling_fixed_point(p))
        dt = lz.make_disjoint_type(L, math.e)
        assert lz.is_disjoint_type(dt, math.e)
        assert abs(dt.kappa) < 1
        for kappa in (2 * dt.kappa, 1e300):
            trial = dataclasses.replace(L, kappa=kappa)
            assert not lz.is_disjoint_type(trial, math.e)

    @pytest.mark.parametrize("spec, kappa", [
        ("z^2-1", 0.25), ("z^3-0.5z", 0.25), ("z^2", 0.25), ("z^2-2", 0.125)])
    def test_cli_kappa(self, spec, kappa):
        # the kappa the koenigs:<poly> route runs with, through
        # make_disjoint_type at R = e
        assert cli.function_from_spec("koenigs:" + spec).kappa == kappa

    def test_exp_family(self):
        L = lz.make_koenigs(P_SQUARE, 1.0)
        dt = lz.make_disjoint_type(L, np.e)
        # f_kappa = e^{kappa z}; separation demands sampled |f| <= R on the disk
        assert abs(dt.kappa) <= 0.5
        for z in sample_disk(200, np.e, seed=4):
            assert abs(dt.eval(z)) <= np.e + 1e-9

    def test_radius_below_one_refused(self):
        L = lz.make_koenigs(P_SQUARE, 1.0)
        with pytest.raises(ValueError, match="R must be >= 1"):
            lz.make_disjoint_type(L, 0.5)

    def test_identity_when_already_disjoint(self):
        L = dataclasses.replace(lz.make_koenigs(P_SQUARE, 1.0), kappa=1 / 16)
        dt = lz.make_disjoint_type(L, np.e)
        assert dt.kappa == L.kappa

    def test_cosh_family(self):
        L = lz.make_koenigs(P_COSH, 1.0)
        dt = lz.make_disjoint_type(L, 4.0)
        for z in sample_disk(200, 4.0, seed=5):
            assert abs(dt.eval(z)) <= 4.0 + 1e-9


def value(h, z):
    """f(z) from the handle's log f."""
    return cmath.exp(h.log_f_and_q(z)[0])


class TestHandles:
    def test_exp_power_eval(self):
        h = lz.exp_power(1.0, 2)
        assert value(h, 1 + 1j) == pytest.approx(
            -0.4161468 + 0.9092974j, abs=1e-6
        )

    def test_composite(self):
        inner = lz.exp_power(np.exp(-6.0), 1)  # e^{z-6}
        F = lz.CompositeExpModel(inner)
        assert value(F, np.log(10)) == pytest.approx(np.exp(4.0), rel=1e-12)

    def test_exp_power_refuses_zero_lambda(self):
        with pytest.raises(ValueError, match="lambda must be nonzero"):
            lz.exp_power(0.0, 1)

    def test_koenigs_at_one(self):
        h = lz.make_koenigs(P_SQUARE, 1.0)
        assert h.eval(1.0) == pytest.approx(np.e, abs=1e-9)

    def test_derivative_consistency(self):
        handles = [
            lz.exp_power(0.25, 1),
            lz.exp_power(1.0, 2),
            lz.make_koenigs(P_SQUARE, 1.0),
            lz.CompositeExpModel(lz.exp_power(np.exp(-6.0), 1)),
        ]
        h = 1e-6
        for handle in handles:
            for z in sample_disk(100, 2.0, seed=6) + 2.5:
                num = (value(handle, z + h) - value(handle, z - h)) / (2 * h)
                d = handle.log_f_and_q(z)[1] * value(handle, z)
                assert d == pytest.approx(num, rel=1e-5)

    def test_reads_literal_descriptors(self):
        cosh = {"coeffs": [[-1, 0], [0, 0], [2.0, 0.0]]}
        for desc, want in [
            ({"family": "exp_power", "lambda": [0.25, 0.1], "d": 3},
             lz.exp_power(0.25 + 0.1j, 3)),
            ({"family": "koenigs", "poly": cosh, "z0": 1, "kappa": [0.125, 0]},
             lz.make_koenigs(P_COSH, 1.0, kappa=0.125)),
            ({"family": "composite_exp",
              "inner": {"family": "exp_power", "lambda": np.exp(-6.0)}},
             lz.CompositeExpModel(lz.exp_power(np.exp(-6.0), 1))),
        ]:
            assert lz.handle_from_json(desc) == want
