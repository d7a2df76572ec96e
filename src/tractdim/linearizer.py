"""Entire-function handles: exponential family, Koenigs linearizers, composites.

Three families share one evaluation interface:

* ``ExpPower``: z -> lam * exp(z**d).
* ``KoenigsLinearizer``: the entire solution f of f(lam*z) = p(f(z)),
  f(0) = z0, f'(0) = 1 at a repelling fixed point z0 of a polynomial p,
  optionally precomposed with a scale kappa (f_kappa = f(kappa*z)).
* ``CompositeExpModel``: F = inner o exp, an infinite-order model built
  over an inner handle whose tract sits deep in the right half-plane.
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
class KoenigsLinearizer:
    p: Polynomial
    z0: complex
    lam: complex
    taylor: tuple  # a_1..a_K, a_1 = 1
    series_radius: float
    kappa: complex = 1.0 + 0j

    @property
    def K(self):
        return len(self.taylor)


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


def linearizer_eval(L, z, _with_derivative=False):
    """Evaluate f(kappa*z) by ladder descent: series at kappa*z/lam^n, then p^n."""
    u = L.kappa * complex(z)
    n = 0
    r0 = L.series_radius
    while abs(u) > r0:
        u /= L.lam
        n += 1
    val, dser = _series_eval(L, u)
    dval = dser * L.kappa / L.lam**n
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            if _with_derivative:
                dval = dval * L.p.derivative(val)
            val = L.p(val)
            if not np.isfinite(val):
                raise Overflow("linearizer value escaped floating range")
    if _with_derivative:
        if not np.isfinite(dval):
            raise Overflow("linearizer derivative escaped floating range")
        return val, dval
    return val


def linearizer_derivative(L, z):
    return linearizer_eval(L, z, _with_derivative=True)[1]


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
            escaped = any(abs(linearizer_eval(trial, z)) > R for z in pts)
        except Overflow:
            escaped = True
        if not escaped:
            return trial
        kappa /= 2
    raise ScaleFloor("no disjoint-type kappa above 1e-12")


# ---------------------------------------------------------------------------
# The exponential family and the composite model


@dataclass(frozen=True)
class ExpPower:
    lam: complex
    d: int


@dataclass(frozen=True)
class CompositeExpModel:
    inner: "EntireFunctionHandle"


@dataclass(frozen=True)
class EntireFunctionHandle:
    variant: str  # ExpPower | Koenigs | CompositeExp
    payload: object
    singular_radius: float


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


def exp_power(lam=1.0, d=1):
    if d < 1:
        raise ValueError("d must be >= 1")
    return EntireFunctionHandle("ExpPower", ExpPower(complex(lam), int(d)),
                                max(abs(lam), 1e-6) if d > 1 else 1e-6)


def koenigs_handle(p, z0, kappa=1.0 + 0j):
    L = make_koenigs(p, z0, kappa)
    return EntireFunctionHandle("Koenigs", L, _postcritical_radius(p, z0))


def composite_exp(inner):
    return EntireFunctionHandle("CompositeExp", CompositeExpModel(inner),
                                inner.singular_radius)


def function_eval(h, z):
    z = complex(z)
    if h.variant == "ExpPower":
        f = h.payload
        w = z**f.d
        if w.real > _EXP_CAP:
            raise Overflow("exp argument real part %g" % w.real)
        return f.lam * np.exp(w)
    if h.variant == "Koenigs":
        return linearizer_eval(h.payload, z)
    if h.variant == "CompositeExp":
        if z.real > _EXP_CAP:
            raise Overflow("exp argument real part %g" % z.real)
        return function_eval(h.payload.inner, np.exp(z))
    raise ValueError("unknown variant %r" % h.variant)


def function_derivative(h, z):
    z = complex(z)
    if h.variant == "ExpPower":
        f = h.payload
        w = z**f.d
        if w.real > _EXP_CAP:
            raise Overflow("exp argument real part %g" % w.real)
        return f.lam * f.d * z ** (f.d - 1) * np.exp(w)
    if h.variant == "Koenigs":
        return linearizer_derivative(h.payload, z)
    if h.variant == "CompositeExp":
        if z.real > _EXP_CAP:
            raise Overflow("exp argument real part %g" % z.real)
        ez = np.exp(z)
        return function_derivative(h.payload.inner, ez) * ez
    raise ValueError("unknown variant %r" % h.variant)


def metric_derivative(h, z):
    """|f'(z)|_1 = |f'(z)| |z| / |f(z)|, the cylindrical-metric derivative."""
    z = complex(z)
    if z == 0:
        raise ZeroDenominator("metric derivative undefined at z = 0")
    if h.variant == "ExpPower":
        # closed form d*|z|^d is overflow-free
        return h.payload.d * abs(z) ** h.payload.d
    fz = function_eval(h, z)
    if abs(fz) < 1e-300:
        raise ZeroDenominator("|f(z)| below floor")
    return abs(function_derivative(h, z)) * abs(z) / abs(fz)


# ---------------------------------------------------------------------------
# JSON descriptors


def _c2pair(c):
    return [c.real, c.imag]


def _pair2c(v):
    if isinstance(v, (int, float)):
        return complex(v)
    return complex(v[0], v[1])


def handle_to_json(h):
    if h.variant == "ExpPower":
        return {"family": "exp_power", "lambda": _c2pair(h.payload.lam),
                "d": h.payload.d}
    if h.variant == "Koenigs":
        L = h.payload
        return {"family": "koenigs", "poly": L.p.to_json(),
                "z0": _c2pair(L.z0), "kappa": _c2pair(L.kappa)}
    if h.variant == "CompositeExp":
        return {"family": "composite_exp", "inner": handle_to_json(h.payload.inner)}
    raise ValueError("unknown variant %r" % h.variant)


def handle_from_json(desc):
    if isinstance(desc, str):
        desc = json.loads(desc)
    fam = desc["family"]
    if fam == "exp_power":
        return exp_power(_pair2c(desc.get("lambda", 1.0)), int(desc.get("d", 1)))
    if fam == "koenigs":
        p = Polynomial.from_json(desc["poly"])
        return koenigs_handle(p, _pair2c(desc["z0"]),
                              _pair2c(desc.get("kappa", 1.0)))
    if fam == "composite_exp":
        return composite_exp(handle_from_json(desc["inner"]))
    raise ValueError("unknown family %r" % fam)
