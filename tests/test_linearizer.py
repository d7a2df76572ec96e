import dataclasses
import math

import numpy as np
import pytest

from tractdim import linearizer as lz
from tractdim.errors import NotRepelling, Overflow, ZeroDenominator
from tractdim.poly import Polynomial


P_SQUARE = Polynomial.from_string("z^2")
P_COSH = Polynomial.from_string("2z^2-1")


def cosh_ref(z):
    # even entire series sum 2^n z^n / (2n)!
    return np.cosh(2 * np.sqrt(np.asarray(z, dtype=complex) / 2))


def sample_disk(n, radius, seed=0):
    rng = np.random.default_rng(seed)
    return radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


class TestCoefficients:
    def test_exponential_series(self):
        a = lz.koenigs_coefficients(P_SQUARE, 1.0, 8)
        fact = [math.factorial(n) for n in range(1, 9)]
        assert a == pytest.approx([1.0 / f for f in fact], abs=1e-14)

    def test_cosh_series(self):
        a = lz.koenigs_coefficients(P_COSH, 1.0, 8)
        ref = [2.0**n / math.factorial(2 * n) for n in range(1, 9)]
        assert a == pytest.approx(ref, abs=1e-14)

    def test_not_repelling(self):
        with pytest.raises(NotRepelling):
            lz.koenigs_coefficients(P_SQUARE, 0.0, 4)

    def test_not_fixed(self):
        with pytest.raises(ValueError):
            lz.koenigs_coefficients(P_SQUARE, 3.0, 4)


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
                d = L.derivative(z)
                assert d == pytest.approx(num, rel=1e-6)

    def test_derivative_golden(self):
        L = lz.make_koenigs(P_SQUARE, 1.0)
        assert L.derivative(1.0) == pytest.approx(np.e, abs=1e-9)
        Lc = lz.make_koenigs(P_COSH, 1.0)
        assert Lc.derivative(0.0) == pytest.approx(1.0, abs=1e-12)


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
        linearizers = [
            lz.make_koenigs(P_SQUARE, 1.0, 0.25),
            lz.make_koenigs(P_COSH, 1.0, 0.125),
            lz.make_koenigs(Polynomial.from_string("z^2-1"), (1 + np.sqrt(5)) / 2,
                            0.1),
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

    def test_scalar_keeps_numpy_nan(self):
        # exp(-log f) overflows midway, where cmath raises and numpy
        # returns nan: the scalar call returns numpy's result
        L = lz.make_koenigs(P_SQUARE, 1.0)
        with np.errstate(all="ignore"):
            want = lz.linearizer_log_eval(L, np.array([-2000.0]))
        got = lz.linearizer_log_eval(L, -2000.0)
        assert np.isnan(want[0][0]) and np.isnan(got[0])
        assert np.isnan(want[1][0]) == np.isnan(got[1])


class TestDisjointType:
    def test_exp_family(self):
        L = lz.make_koenigs(P_SQUARE, 1.0)
        dt = lz.make_disjoint_type(L, np.e)
        # f_kappa = e^{kappa z}; separation demands sampled |f| <= R on the disk
        assert abs(dt.kappa) <= 0.5
        for z in sample_disk(200, np.e, seed=4):
            assert abs(dt.eval(z)) <= np.e + 1e-9

    def test_identity_when_already_disjoint(self):
        L = dataclasses.replace(lz.make_koenigs(P_SQUARE, 1.0), kappa=1 / 16)
        dt = lz.make_disjoint_type(L, np.e)
        assert dt.kappa == L.kappa

    def test_cosh_family(self):
        L = lz.make_koenigs(P_COSH, 1.0)
        dt = lz.make_disjoint_type(L, 4.0)
        for z in sample_disk(200, 4.0, seed=5):
            assert abs(dt.eval(z)) <= 4.0 + 1e-9


class TestHandles:
    def test_exp_power_eval(self):
        h = lz.exp_power(1.0, 2)
        assert h.eval(1 + 1j) == pytest.approx(
            -0.4161468 + 0.9092974j, abs=1e-6
        )

    def test_composite(self):
        inner = lz.exp_power(np.exp(-6.0), 1)  # e^{z-6}
        F = lz.composite_exp(inner)
        assert F.eval(np.log(10)) == pytest.approx(np.exp(4.0), rel=1e-12)

    def test_koenigs_at_one(self):
        h = lz.koenigs_handle(P_SQUARE, 1.0)
        assert h.eval(1.0) == pytest.approx(np.e, abs=1e-9)

    def test_derivative_consistency(self):
        handles = [
            lz.exp_power(0.25, 1),
            lz.exp_power(1.0, 2),
            lz.koenigs_handle(P_SQUARE, 1.0),
            lz.composite_exp(lz.exp_power(np.exp(-6.0), 1)),
        ]
        h = 1e-6
        for handle in handles:
            for z in sample_disk(100, 2.0, seed=6) + 2.5:
                num = (handle.eval(z + h) - handle.eval(z - h)) / (2 * h)
                d = handle.derivative(z)
                assert d == pytest.approx(num, rel=1e-5)

    def test_metric_derivative(self):
        assert lz.exp_power(1.0, 1).metric_derivative(3 + 4j) == pytest.approx(5.0)
        assert lz.exp_power(1.0, 2).metric_derivative(2.0) == pytest.approx(8.0)
        hk = lz.koenigs_handle(P_SQUARE, 1.0)
        assert hk.metric_derivative(2.0) == pytest.approx(2.0, abs=1e-9)
        assert hk.metric_derivative(0.5 + 0.1j) > 0

    def test_metric_derivative_guards(self):
        with pytest.raises(ZeroDenominator):
            lz.exp_power(1.0, 1).metric_derivative(0.0)

    def test_json_roundtrip(self):
        handles = [
            lz.exp_power(0.25 + 0.1j, 3),
            lz.koenigs_handle(P_COSH, 1.0, kappa=0.125),
            lz.composite_exp(lz.exp_power(np.exp(-6.0), 1)),
        ]
        for h in handles:
            back = lz.handle_from_json(h.to_json())
            assert type(back) is type(h)
            z = 1.3 + 0.2j
            assert back.eval(z) == pytest.approx(h.eval(z))
