"""Entire-function handles: exponential family, Koenigs linearizers, composites.

Each family is a handle class of its own, and every handle has the same
interface: ``eval(z)`` and ``derivative(z)`` give f and f' at a scalar;
``log_f_and_q(z)`` gives log f (up to 2 pi i) and f'/f without overflow,
for scalars or arrays; ``metric_derivative(z)`` is the cylindrical-metric
derivative; ``to_json()`` is the descriptor ``handle_from_json`` reads
back; ``singular_radius`` bounds the singular values.

* ``ExpPower`` (built by ``exp_power``): z -> lam * exp(z**d).
* ``KoenigsLinearizer`` (built by ``make_koenigs``): the entire solution f
  of f(lam*z) = p(f(z)), f(0) = z0, f'(0) = 1 at a repelling fixed point
  z0 of a polynomial p, optionally precomposed with a scale kappa
  (f_kappa = f(kappa*z)).
* ``CompositeExpModel`` (built by ``composite_exp``): F = inner o exp, an
  infinite-order model built over an inner handle whose tract sits deep
  in the right half-plane.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .errors import NotRepelling, Overflow, ScaleFloor, ZeroDenominator
from .poly import Polynomial

_EXP_CAP = 700.0  # log of float range, with headroom
_TAIL_TOL = 1e-14
_MAX_SERIES_K = 256


class _Handle:
    """Interface shared by the function families (see the module docstring)."""

    def metric_derivative(self, z):
        """|f'(z)|_1 = |f'(z)| |z| / |f(z)|, the cylindrical-metric derivative."""
        z = _nonzero(z)
        fz = self.eval(z)
        if abs(fz) < 1e-300:
            raise ZeroDenominator("|f(z)| below floor")
        return abs(self.derivative(z)) * abs(z) / abs(fz)


def _nonzero(z):
    z = complex(z)
    if z == 0:
        raise ZeroDenominator("metric derivative undefined at z = 0")
    return z


def _checked_exp(z):
    """exp(z) at a scalar, refusing arguments past the float range."""
    z = complex(z)
    if z.real > _EXP_CAP:
        raise Overflow("exp argument real part %g" % z.real)
    return np.exp(z)


# ---------------------------------------------------------------------------
# Koenigs linearizers


def koenigs_coefficients(p, z0, K):
    """Taylor coefficients a_1..a_K of the linearizer at a repelling fixed point.

    Solves f(lam*z) = p(f(z)) degree by degree with the normalization
    a_1 = 1; the divisor lam**n - lam never vanishes since |lam| > 1.
    """
    z0 = complex(z0)
    if abs(p(z0) - z0) > 1e-10:
        raise ValueError("z0 is not a fixed point: |p(z0)-z0| = %g" % abs(p(z0) - z0))
    lam = p.derivative(z0)
    if abs(lam) <= 1:
        raise NotRepelling("multiplier |%s| <= 1" % lam)
    # f truncated to degree K, constant first
    f = np.zeros(K + 1, dtype=complex)
    f[0] = z0
    f[1] = 1.0
    coeffs = p.coefficients
    for n in range(2, K + 1):
        # Horner composition of p with the partial series, truncated at z^n
        g = np.zeros(n + 1, dtype=complex)
        g[0] = coeffs[-1]
        for c in coeffs[-2::-1]:
            g = np.convolve(g, f[: n + 1])[: n + 1]
            g[0] += c
        f[n] = g[n] / (lam**n - lam)
    return list(f[1:])


@dataclass(frozen=True)
class KoenigsLinearizer(_Handle):
    p: Polynomial
    z0: complex
    lam: complex
    taylor: tuple  # a_1..a_K, a_1 = 1
    series_radius: float
    kappa: complex = 1.0 + 0j

    @property
    def K(self):
        return len(self.taylor)

    @property
    def singular_radius(self):
        return _postcritical_radius(self.p, self.z0)

    def eval(self, z, _with_derivative=False):
        """f(kappa*z) by ladder descent: series at kappa*z/lam^n, then p^n."""
        u = self.kappa * complex(z)
        n = 0
        r0 = self.series_radius
        while abs(u) > r0:
            u /= self.lam
            n += 1
        val, dser = _series_eval(self, u)
        dval = dser * self.kappa / self.lam**n
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(n):
                if _with_derivative:
                    dval = dval * self.p.derivative(val)
                val = self.p(val)
                if not np.isfinite(val):
                    raise Overflow("linearizer value escaped floating range")
        if _with_derivative:
            if not np.isfinite(dval):
                raise Overflow("linearizer derivative escaped floating range")
            return val, dval
        return val

    def derivative(self, z):
        return self.eval(z, _with_derivative=True)[1]

    def log_f_and_q(self, z):
        # handle-level z is the linearizer's own variable; kappa is inside
        return linearizer_log_eval(self, z)

    def to_json(self):
        return {"family": "koenigs", "poly": self.p.to_json(),
                "z0": _c2pair(self.z0), "kappa": _c2pair(self.kappa)}


def _series_radius(p, z0, lam):
    cps = p.critical_points()
    dist = min(abs(c - z0) for c in cps) if len(cps) else 1.0
    return 0.25 * abs(lam) * dist


def make_koenigs(p, z0, kappa=1.0 + 0j):
    """Build a linearizer with the series order chosen by a tail bound."""
    z0 = complex(z0)
    lam = p.derivative(z0)
    if abs(lam) <= 1:
        raise NotRepelling("multiplier |%s| <= 1" % lam)
    r0 = _series_radius(p, z0, lam)
    K = 16
    while True:
        taylor = koenigs_coefficients(p, z0, K)
        if abs(taylor[-1]) * r0 ** K < _TAIL_TOL or K >= _MAX_SERIES_K:
            break
        K *= 2
    # Python complex coefficients keep the scalar series at interpreter speed
    return KoenigsLinearizer(p, z0, lam, tuple(complex(a) for a in taylor),
                             r0, complex(kappa))


def _series_eval(L, u):
    s = 0j
    ds = 0j
    for a in L.taylor[::-1]:
        ds = ds * u + s
        s = s * u + a
    return L.z0 + u * s, s + u * ds


def _exp_neg(logf):
    """exp(-logf), or 0 once exp(logf) is past the float range."""
    return cmath.exp(-logf) if logf.real < _EXP_CAP else 0j


def _exp_neg_array(logf):
    return np.where(np.real(logf) < _EXP_CAP, np.exp(-logf), 0j)


def _escape_ladder(L, u0, max_abs, log, exp_neg):
    """Series at u0/lam^n inside the series disk, then n escape steps."""
    n = 0
    biggest = max_abs(u0)
    while biggest > L.series_radius:
        u0 = u0 / L.lam
        biggest /= abs(L.lam)
        n += 1
    g, dg = _series_eval(L, u0)
    logf = log(g)
    q = dg * (L.kappa / L.lam**n) / g
    coeffs = L.p.coefficients
    d = L.p.degree
    for _ in range(n):
        u = exp_neg(logf)
        s1 = s2 = 0j
        for k, c in enumerate(coeffs):  # u^d coeff is p's constant term
            s1 = s1 * u + c
            s2 = s2 * u + k * c
        q = (s2 / s1) * q
        logf = d * logf + log(s1)
    return logf, q


def linearizer_log_eval(L, z):
    """(log f(kappa z), f'/f at kappa z times kappa) without overflow.

    The ladder is rewritten through u = 1/value: with p(v) = v^d * S1(1/v)
    and v p'(v) = v^d * S2(1/v), one step maps log f to d*log f + log S1 and
    the logarithmic derivative Q = (log f)' to (S2/S1) * Q.  After escape
    u -> 0, S1 -> lead and S2/S1 -> d, so both recursions saturate.

    Accepts scalars or arrays; the descent count n is uniform over a batch
    (extra lam-divisions are exact, the series just sees a smaller argument).
    A scalar runs the ladder on Python complex numbers with cmath.
    """
    scalar = np.ndim(z) == 0
    if scalar:
        try:
            return _escape_ladder(L, L.kappa * complex(z), abs, cmath.log,
                                  _exp_neg)
        except (ArithmeticError, ValueError):
            pass  # cmath raises where numpy returns inf or nan: keep numpy's
    u0 = L.kappa * np.asarray(z, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        logf, q = _escape_ladder(L, u0, lambda u: np.max(np.abs(u)), np.log,
                                 _exp_neg_array)
    if scalar:
        return complex(logf), complex(q)
    return logf, q


def make_disjoint_type(L, R, grid=48):
    """Shrink kappa by halving until no sampled point of the closed R-disk maps
    outside the closed R-disk (sampled separation of tracts from D_R)."""
    if R < 1:
        raise ValueError("R must be >= 1")
    if L.z0 == 0:
        raise ValueError("z0 = 0 has no repelling normalization")
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


# make_koenigs under a name like exp_power and composite_exp
koenigs_handle = make_koenigs


def _postcritical_radius(p, z0, iters=50):
    rad = abs(z0)
    for c in p.critical_points():
        z = complex(c)
        for _ in range(iters):
            z = p(z)
            if abs(z) > 1e6:
                break
            rad = max(rad, abs(z))
    return rad


# ---------------------------------------------------------------------------
# The exponential family and the composite model


@dataclass(frozen=True)
class ExpPower(_Handle):
    lam: complex
    d: int

    @property
    def singular_radius(self):
        return max(abs(self.lam), 1e-6) if self.d > 1 else 1e-6

    def eval(self, z):
        return self.lam * _checked_exp(complex(z) ** self.d)

    def derivative(self, z):
        z = complex(z)
        return self.lam * self.d * z ** (self.d - 1) * _checked_exp(z**self.d)

    def log_f_and_q(self, z):
        z = np.asarray(z, dtype=complex) if not np.isscalar(z) else complex(z)
        return cmath.log(self.lam) + z**self.d, self.d * z ** (self.d - 1)

    def metric_derivative(self, z):
        # closed form d*|z|^d is overflow-free
        return self.d * abs(_nonzero(z)) ** self.d

    def to_json(self):
        return {"family": "exp_power", "lambda": _c2pair(self.lam),
                "d": self.d}


def exp_power(lam=1.0, d=1):
    if d < 1:
        raise ValueError("d must be >= 1")
    return ExpPower(complex(lam), int(d))


@dataclass(frozen=True)
class CompositeExpModel(_Handle):
    inner: _Handle

    @property
    def singular_radius(self):
        return self.inner.singular_radius

    def eval(self, z):
        return self.inner.eval(_checked_exp(z))

    def derivative(self, z):
        ez = _checked_exp(z)
        return self.inner.derivative(ez) * ez

    def log_f_and_q(self, z):
        ez = (np.exp(np.asarray(z, dtype=complex)) if not np.isscalar(z)
              else cmath.exp(z))
        lf, q = self.inner.log_f_and_q(ez)
        return lf, q * ez

    def to_json(self):
        return {"family": "composite_exp", "inner": self.inner.to_json()}


composite_exp = CompositeExpModel


# ---------------------------------------------------------------------------
# JSON descriptors


def _c2pair(c):
    return [c.real, c.imag]


def _pair2c(v):
    if isinstance(v, (int, float)):
        return complex(v)
    return complex(v[0], v[1])


def handle_from_json(desc):
    if isinstance(desc, str):
        desc = json.loads(desc)
    fam = desc["family"]
    if fam == "exp_power":
        return exp_power(_pair2c(desc.get("lambda", 1.0)), int(desc.get("d", 1)))
    if fam == "koenigs":
        p = Polynomial.from_json(desc["poly"])
        return make_koenigs(p, _pair2c(desc["z0"]),
                            _pair2c(desc.get("kappa", 1.0)))
    if fam == "composite_exp":
        return CompositeExpModel(handle_from_json(desc["inner"]))
    raise ValueError("unknown family %r" % fam)
