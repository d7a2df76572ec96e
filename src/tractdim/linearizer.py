"""Entire-function handles: exponential family, Koenigs linearizers, composites.

The pipeline sees an entire function only through its logarithmic tracts,
so every handle class has the same two members: ``log_f_and_q(z)`` gives
log f (up to 2 pi i) and f'/f without overflow, for scalars or arrays, and
``singular_radius`` bounds the singular values.  ``handle_from_json``
builds a handle from its JSON descriptor.

* ``ExpPower`` (built by ``exp_power``): z -> lam * exp(z**d).
* ``KoenigsLinearizer`` (built by ``make_koenigs``): the entire solution f
  of f(lam*z) = p(f(z)), f(0) = z0, f'(0) = 1 at a repelling fixed point
  z0 of a polynomial p, optionally precomposed with a scale kappa
  (f_kappa = f(kappa*z)).  Its Taylor series is solved in one pass, up to
  the first power-of-two order whose tail is below tolerance.  Its log f
  comes from one escape ladder for scalars and arrays
  (``linearizer_log_eval``), each step a ``poly.escape_sums`` Horner pass
  over p's precomputed (c_k, k*c_k) pairs; ``is_disjoint_type`` runs it
  once over its whole disk grid, and ``make_disjoint_type`` once per kappa
  trial.  ``eval(z)`` is the value ladder at a scalar, the reference check
  6 holds the log ladder to.
* ``CompositeExpModel`` (built by ``composite_exp``): F = inner o exp, an
  infinite-order model built over an inner handle whose tract sits deep
  in the right half-plane.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NotRepelling, Overflow, ScaleFloor
from .poly import Polynomial, escape_sums, finite_real

_EXP_CAP = 700.0  # log of float range, with headroom
_TAIL_TOL = 1e-14
_MAX_SERIES_K = 256


# ---------------------------------------------------------------------------
# Koenigs linearizers


@dataclass(frozen=True)
class KoenigsLinearizer:
    p: Polynomial
    z0: complex
    lam: complex
    taylor: tuple  # a_1..a_K, a_1 = 1
    series_radius: float
    kappa: complex = 1.0 + 0j

    @property
    def singular_radius(self):
        return _postcritical_radius(self.p, self.z0)

    def eval(self, z):
        """f(kappa*z) by ladder descent: series at kappa*z/lam^n, then p^n."""
        u = self.kappa * complex(z)
        n = 0
        while abs(u) > self.series_radius:
            u /= self.lam
            n += 1
        val = _series_eval(self, u)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(n):
                val = self.p(val)
                if not np.isfinite(val):
                    raise Overflow("linearizer value escaped floating range")
        return val

    def log_f_and_q(self, z):
        # handle-level z is the linearizer's own variable; kappa is inside
        return linearizer_log_eval(self, z)


def _series_radius(p, z0, lam):
    cps = p.critical_points()
    dist = min(abs(c - z0) for c in cps) if len(cps) else 1.0
    return float(0.25 * abs(lam) * dist)


def make_koenigs(p, z0, kappa=1.0 + 0j):
    """Build the linearizer at a repelling fixed point z0 of p.

    Solves f(lam*z) = p(f(z)) degree by degree (a_1 = 1; lam**n - lam never
    vanishes since |lam| > 1) in one pass, which stops at the first K in
    16, 32, ..., 256 whose tail |a_K| r0^K is below the tolerance.
    Overflow if lam**n or r0**n leaves the float range first.
    """
    z0 = complex(z0)
    if not abs(p(z0) - z0) <= 1e-10:  # a nan z0 is refused too
        raise ValueError("z0 is not a fixed point: |p(z0)-z0| = %g"
                         % abs(p(z0) - z0))
    lam = p.derivative(z0)
    if abs(lam) <= 1:
        raise NotRepelling("multiplier |%s| <= 1" % lam)
    r0 = _series_radius(p, z0, lam)
    # f truncated to degree n, constant first
    f = np.zeros(_MAX_SERIES_K + 1, dtype=complex)
    f[0], f[1] = z0, 1.0
    coeffs = p.coefficients
    K = 16
    # a Python complex or float power raises OverflowError, not inf
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(2, _MAX_SERIES_K + 1):
                # Horner composition of p with the partial series,
                # truncated at z^n
                g = np.zeros(n + 1, dtype=complex)
                g[0] = coeffs[-1]
                for c in coeffs[-2::-1]:
                    g = np.convolve(g, f[: n + 1])[: n + 1]
                    g[0] += c
                f[n] = g[n] / (lam**n - lam)
                if n < K:
                    continue
                if not np.all(np.isfinite(f[1:n + 1])):
                    # a near-parabolic point (|lam| just above 1) divides
                    # by lam**n - lam ~ 0 at every order until the series
                    # overflows
                    raise NotRepelling("multiplier |%s| = %.9g is too close "
                                       "to 1: Taylor coefficients overflow "
                                       "at K = %d" % (lam, abs(lam), K))
                if abs(f[n]) * r0 ** n < _TAIL_TOL:
                    break
                K *= 2
    except OverflowError:
        raise Overflow("Koenigs series leaves the float range at order "
                       "n = %d (|lam| = %.9g)" % (n, abs(lam)))
    # Python complex coefficients keep the scalar series at interpreter speed
    taylor = tuple(complex(a) for a in f[1:n + 1])
    return KoenigsLinearizer(p, z0, lam, taylor, r0, complex(kappa))


def _series_eval(L, u):
    s = 0j
    ds = 0j
    for a in reversed(L.taylor):
        ds = ds * u + s
        s = s * u + a
    return L.z0 + u * s, s + u * ds


def _exp_neg(logf):
    """exp(-logf), or 0 once exp(logf) is past the float range."""
    return cmath.exp(-logf) if logf.real < _EXP_CAP else 0j


def _exp_neg_array(logf):
    """exp(-logf) elementwise in one new array, 0 where Re logf is not below
    the cap (nan included).  logf may be 0-d, where np.negative without
    ``out=`` would return a numpy scalar."""
    out = np.negative(logf, out=np.empty(np.shape(logf), dtype=complex))
    np.exp(out, out=out)
    out[~(np.real(logf) < _EXP_CAP)] = 0j
    return out


def _escape_ladder(L, u0, max_abs, log, exp_neg):
    """Series at u0/lam^n inside the series disk, then n escape steps."""
    lam = L.lam
    abs_lam = abs(lam)
    r0 = L.series_radius
    n = 0
    biggest = max_abs(u0)
    if biggest == math.inf:  # no number of lam-divisions brings it in
        raise Overflow("linearizer argument kappa*z is infinite")
    while biggest > r0:
        u0 = u0 / lam
        biggest /= abs_lam
        n += 1
    g, dg = _series_eval(L, u0)
    logf = log(g)
    q = dg * (L.kappa / lam**n) / g
    pairs = L.p.escape_pairs
    d = L.p.degree
    for _ in range(n):
        s1, s2 = escape_sums(pairs, exp_neg(logf))
        q = (s2 / s1) * q
        logf = d * logf + log(s1)
    return logf, q


def linearizer_log_eval(L, z):
    """(log f(kappa z), f'/f at kappa z times kappa) without overflow.

    The ladder is rewritten through u = 1/value: with p(v) = v^d * S1(1/v)
    and v p'(v) = v^d * S2(1/v), one step maps log f to d*log f + log S1 and
    the logarithmic derivative Q = (log f)' to (S2/S1) * Q.  After escape
    u -> 0, S1 -> lead and S2/S1 -> d, so both recursions saturate.  Each
    step is one ``poly.escape_sums`` Horner pass over p's precomputed
    (c_k, k*c_k) pairs, the helper the Boettcher orbit uses too.

    Accepts scalars or arrays; the descent count n is uniform over a batch
    (extra lam-divisions are exact, the series just sees a smaller argument).
    A scalar runs the ladder on Python complex numbers with cmath (a Python
    complex goes there without asking numpy for its shape); an array (or a
    scalar cmath refuses) takes its logs with ``_kernels.clog``.

    The scalar fork is kept for speed.  With every scalar sent down the
    array path, ``transfer_apply_point`` on the ``koenigs:z^2-1`` atlas at
    t = 2, w = e^2 took 7.1-7.3 s instead of 0.65-0.70 s, and check 8's
    ``el_violations`` at 4,096 samples 0.46 s instead of 0.09-0.10 s
    (2-core Xeon, Python 3.11, numpy 2.4; the transfer value also moved
    in its last digit).
    """
    scalar = isinstance(z, complex) or np.ndim(z) == 0
    if scalar:
        try:
            return _escape_ladder(L, L.kappa * complex(z), abs, cmath.log,
                                  _exp_neg)
        except (ArithmeticError, ValueError):
            pass  # cmath raises where numpy returns inf or nan: keep numpy's
    u0 = L.kappa * np.asarray(z, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        logf, q = _escape_ladder(L, u0, lambda u: np.max(np.abs(u)),
                                 _kernels.clog, _exp_neg_array)
    if scalar:
        return complex(logf), complex(q)
    return logf, q


def is_disjoint_type(L, R):
    """Whether no sampled point of the closed R-disk maps outside it.

    One array ``linearizer_log_eval`` over a 48 x 48 polar grid of the disk;
    a point has escaped unless Re log f <= log R, so a nan counts as
    escaped, and an Overflow of the evaluation counts as an escape.
    """
    radii = np.linspace(0.0, R, 48)
    angles = np.linspace(0.0, 2 * np.pi, 48, endpoint=False)
    pts = np.ravel(radii[:, None] * np.exp(1j * angles)[None, :])
    try:
        logf, _ = linearizer_log_eval(L, pts)
    except Overflow:
        return False
    return bool(np.all(logf.real <= math.log(R)))


def make_disjoint_type(L, R):
    """Shrink kappa by halving until ``is_disjoint_type`` holds at R
    (sampled separation of tracts from D_R)."""
    if R < 1:
        raise ValueError("R must be >= 1")
    if L.z0 == 0:
        raise ValueError("z0 = 0 has no repelling normalization")
    kappa = L.kappa
    while abs(kappa) >= 1e-12:
        trial = dataclasses.replace(L, kappa=kappa)
        if is_disjoint_type(trial, R):
            return trial
        kappa /= 2
    raise ScaleFloor("no disjoint-type kappa above 1e-12")


# make_koenigs under a name like exp_power and composite_exp
koenigs_handle = make_koenigs


def _postcritical_radius(p, z0):
    rad = abs(z0)
    for c in p.critical_points():
        z = complex(c)
        for _ in range(50):
            z = p(z)
            if abs(z) > 1e6:
                break
            rad = max(rad, abs(z))
    return rad


# ---------------------------------------------------------------------------
# The exponential family and the composite model


@dataclass(frozen=True)
class ExpPower:
    lam: complex
    d: int

    @property
    def singular_radius(self):
        return max(abs(self.lam), 1e-6) if self.d > 1 else 1e-6

    def log_f_and_q(self, z):
        z = np.asarray(z, dtype=complex) if not np.isscalar(z) else complex(z)
        return cmath.log(self.lam) + z**self.d, self.d * z ** (self.d - 1)


def exp_power(lam=1.0, d=1):
    if isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 1:
        raise ValueError("d must be an integer >= 1, got %r" % (d,))
    if lam == 0:
        raise ValueError("lambda must be nonzero: 0 * exp(z^d) has no tract")
    return ExpPower(complex(lam), int(d))


@dataclass(frozen=True)
class CompositeExpModel:
    inner: object

    @property
    def singular_radius(self):
        return self.inner.singular_radius

    def log_f_and_q(self, z):
        ez = (np.exp(np.asarray(z, dtype=complex)) if not np.isscalar(z)
              else cmath.exp(z))
        lf, q = self.inner.log_f_and_q(ez)
        return lf, q * ez


composite_exp = CompositeExpModel

#: Named handles shared by the command line and the check suite.
SHORTHANDS = {
    "exp": lambda: exp_power(1.0, 1),
    "quarter": lambda: exp_power(0.25, 1),  # e^z / 4
    "square": lambda: exp_power(1.0, 2),  # e^{z^2}
    "composite": lambda: composite_exp(exp_power(math.exp(-6.0), 1)),
}


# ---------------------------------------------------------------------------
# JSON descriptors


def _pair2c(v):
    """A complex number from a real number or a list of two finite reals."""
    re_, im = v if isinstance(v, list) and len(v) == 2 else (v, 0.0)
    return complex(finite_real(re_), finite_real(im))


def handle_from_json(desc):
    fam = desc["family"]
    if fam == "exp_power":
        return exp_power(_pair2c(desc.get("lambda", 1.0)), desc.get("d", 1))
    if fam == "koenigs":
        p = Polynomial.from_json(desc["poly"])
        return make_koenigs(p, _pair2c(desc["z0"]),
                            _pair2c(desc.get("kappa", 1.0)))
    if fam == "composite_exp":
        return CompositeExpModel(handle_from_json(desc["inner"]))
    raise ValueError("unknown family %r" % fam)
