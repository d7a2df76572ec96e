"""Entire-function handles: exponential family, Koenigs linearizers, composites.

The pipeline sees an entire function only through its logarithmic tracts.
Every handle has ``singular_radius``, which bounds the singular values.  A
closed-form family (``ExpPower``, ``CompositeExpModel``) is read by its
tract builder in ``tract.py`` and has no other member.  A Koenigs handle's
tracts are sampled, so it also has ``log_f_and_q(z)``, log f (up to
2 pi i) and f'/f without overflow for scalars or arrays, and ``eval(z)``.
``handle_from_json`` builds a handle from its JSON descriptor.

* ``ExpPower`` (built by ``exp_power``): z -> lam * exp(z**d).
* ``KoenigsLinearizer`` (built by ``make_koenigs``): the entire solution f
  of f(lam*z) = p(f(z)), f(0) = z0, f'(0) = 1 at a repelling fixed point
  z0 of a polynomial p, optionally precomposed with a scale kappa
  (f_kappa = f(kappa*z)).  Its Taylor series is solved in one pass, up to
  the first power-of-two order whose tail is below tolerance.  Its log f
  comes from the escape ladder (``linearizer_log_eval``): value steps
  v -> p(v), each a Horner pass over p's (c_k, k*c_k) pairs, a
  closed-form tail once |v| passes ``p.escape_bound``, and one log per
  point.  Two kernels run it with the same arithmetic, a straight-line
  one on a Python complex and a numpy one on an array, in which every
  point descends by its own count; ``is_disjoint_type`` runs the array
  kernel once over its whole disk grid, and ``make_disjoint_type`` once
  per kappa trial.  ``eval(z)`` steps the value without the tail
  (Overflow past the float range); check 6 holds the ladder's log f to
  it.
* ``CompositeExpModel``: F = inner o exp, an infinite-order model built
  over an inner handle whose tract sits deep in the right half-plane.
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
from .poly import Polynomial, finite_real

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


def _tail(p, m):
    """(d^m, (d^m - 1)/(d - 1) log c_d): the closed form of m more steps.

    Past ``p.escape_bound``, p(v) = c_d v^d to the rounding unit, so m
    further steps map log v to d^m log v plus this lead term, and Q to
    d^m Q.  Overflow once d^m itself is past the float range.
    """
    d, power = p.degree, p.degree**m
    if power.bit_length() > 1024:
        raise Overflow("log f leaves the float range: d^m = %d^%d" % (d, m))
    return power, (power - 1) // (d - 1) * cmath.log(p.coefficients[-1])


def _descent_count(L, r):
    """How many lam-divisions, one at a time, bring a modulus r to the
    series disk; Overflow at r = inf, which no number of them brings in."""
    if r == math.inf:
        raise Overflow("linearizer argument kappa*z is infinite")
    n = 0
    while r > L.series_radius:
        r /= abs(L.lam)
        n += 1
    return n


def _scalar_ladder(L, z):
    """The ladder on one Python complex, in cmath.

    A climb step is p's Horner pass, leading first, written out: it starts
    from c_d v and skips each addition of a zero coefficient but the
    constant term's, whose addition turns a -0.0 part into +0.0 as the
    full pass does, so the bits are those of ``poly.escape_sums``.
    """
    lam, p = L.lam, L.p
    u = L.kappa * complex(z)
    biggest, abs_lam, n = abs(u), abs(lam), 0
    if biggest == math.inf:  # as _descent_count, inline for speed
        raise Overflow("linearizer argument kappa*z is infinite")
    while biggest > L.series_radius:
        u = u / lam
        biggest /= abs_lam
        n += 1
    s = ds = 0j  # _series_eval, inline for speed
    for a in reversed(L.taylor):
        ds = ds * u + s
        s = s * u + a
    v = L.z0 + u * s
    q = (s + u * ds) * (L.kappa / lam**n) / v
    pairs, bound = p.escape_pairs, p.escape_bound
    (lead, lead_k), lower, (c0, kc0) = pairs[-1], pairs[-2:0:-1], pairs[0]
    for m in range(n, 0, -1):
        if abs(v) >= bound:  # a nan modulus steps on
            power, shift = _tail(p, m)
            return power * cmath.log(v) + shift, power * q
        s1, s2 = lead * v, lead_k * v
        for c, kc in lower:
            if c:
                s1, s2 = s1 + c, s2 + kc
            s1, s2 = s1 * v, s2 * v
        v, s2 = s1 + c0, s2 + kc0
        q = (s2 / v) * q
    return cmath.log(v), q


def _batch_ladder(L, z):
    """The ladder on an array, each point with its own descent count.

    A division is monotone in the modulus, so once the moduli are sorted
    (largest first, nan last) the points that still divide, and later
    still climb, at a step are a prefix of the array; a batch whose
    largest and smallest moduli take the same count needs no sort.  The
    series is ``_series_eval`` on the whole array.  Only the climb writes
    into buffers, through ``out=``, with the scalar kernel's skips and
    operand order (numpy's complex product is not symmetric to the last
    bit).  No product is written over one of its own factors: on a
    one-point array numpy rounds such a product in another loop, and the
    point's bits would depend on its batch.  A point whose modulus reaches
    ``p.escape_bound`` takes the tail with its own remaining count, then
    steps on quietly as nan.  The input order is restored at the end, so
    no point's result depends on the rest of the batch.
    """
    lam, p = L.lam, L.p
    u = L.kappa * np.asarray(z, dtype=complex).ravel()
    mod = np.abs(u)
    # the largest count and the smallest (fmax skips nan, minimum takes it
    # and counts 0); a batch whose ends agree needs no sort
    top = _descent_count(L, float(np.fmax.reduce(mod)))
    active = [u.size] * _descent_count(L, float(np.minimum.reduce(mod)))
    order = None
    if len(active) < top:
        # -|u| sorted up, nan last.  A division keeps the order, so the
        # points still outside the series disk (and later still climbing)
        # are the first active[k] after k divisions.
        order = np.argsort(-mod)
        u, mod = u[order], -mod[order]
        for _ in active:
            np.divide(mod, abs(lam), out=mod)
        while c := np.searchsorted(mod, -L.series_radius):
            active.append(c)
            np.divide(mod[:c], abs(lam), out=mod[:c])
    for c in active:
        np.divide(u[:c], lam, out=u[:c])
    n = np.searchsorted(-np.array(active, dtype=int), -np.arange(u.size))
    v, dv = _series_eval(L, u)
    q = dv * np.array([L.kappa / lam**k for k in range(
        len(active) + 1)])[n] / v
    work = np.empty((2, u.size), dtype=complex)  # u and dv are free now
    pairs, tails = p.escape_pairs, []
    (lead, lead_k), lower, (c0, kc0) = pairs[-1], pairs[-2:0:-1], pairs[0]
    for j, c in enumerate(active):
        vj, qj = v[:c], q[:c]
        if np.fmax.reduce(np.abs(vj, out=mod[:c])) >= p.escape_bound:
            up = np.flatnonzero(mod[:c] >= p.escape_bound)
            m = n[up] - j  # steps left, non-increasing
            power, shift = np.array([_tail(p, k) for k in range(
                m[-1], m[0] + 1)], dtype=complex)[m - m[-1]].T
            tails.append((up, power * _kernels.clog(vj[up]) + shift,
                          qj[up] * power))
            vj[up] = np.nan
        s1, t1, s2, t2 = work[0, :c], work[1, :c], dv[:c], u[:c]
        np.multiply(lead, vj, out=s1)
        np.multiply(lead_k, vj, out=s2)
        for c_k, kc_k in lower:
            if c_k:
                np.add(s1, c_k, out=s1)
                np.add(s2, kc_k, out=s2)
            np.multiply(s1, vj, out=t1)
            np.multiply(s2, vj, out=t2)
            s1, t1, s2, t2 = t1, s1, t2, s2
        np.add(s1, c0, out=vj)
        np.add(s2, kc0, out=s2)
        np.divide(s2, vj, out=s2)
        qj[...] = np.multiply(s2, qj, out=t2)
    logf = _kernels.clog(v)
    for up, lf, qt in tails:
        logf[up], q[up] = lf, qt
    if order is not None:
        logf[order], q[order] = logf.copy(), q.copy()
    return logf.reshape(np.shape(z)), q.reshape(np.shape(z))


def linearizer_log_eval(L, z):
    """(log f(kappa z), f'/f at kappa z times kappa) without overflow.

    The ladder steps the value: from the series value v at kappa*z/lam^n,
    n steps v -> p(v) carry the logarithmic derivative Q = (log f)' by
    Q -> Q v p'(v)/p(v), and log f = log v is taken once per point, on the
    principal branch (the module contract is log f up to 2 pi i).  Past
    ``p.escape_bound`` the remaining steps are exact in closed form (see
    ``_tail``), so log f stays finite however far f escapes; Overflow only
    if log f itself leaves the float range (d^m past it).  Downwards f
    keeps the float range: below about e^-708 it loses precision, and an
    orbit that underflows to 0 returns log f = -inf with Q = nan, the same
    on both paths and without a warning (Q is nan too where an orbit lands
    on an exact zero of p).

    Accepts scalars or arrays, through two kernels with one arithmetic.  A
    scalar runs ``_scalar_ladder`` on Python complex numbers with cmath (a
    Python complex goes there without asking numpy for its shape); an
    array, or a scalar that cmath refuses, runs ``_batch_ladder``.  Each
    point of an array descends by its own count, the one the scalar kernel
    takes, so an array call gives every point the bits of its one-point
    array call; those agree with the scalar kernel to rounding (numpy and
    Python round a complex product differently).

    Both kernels take ``_series_eval``'s Horner.  The array kernel calls
    it and ``_descent_count``, and writes only its climb into buffers.
    The scalar kernel writes the descent and the series out: calling the
    two helpers there gives the same bits, but the perfbench library ops
    el_violations, transfer_koenigs, bowen_tree and aberth_batch then took
    0.757 s against 0.713 s (medians of ten alternating pairs, +5%, on a
    2-core VM).

    The scalar kernel is kept for speed.  On the 73,843 scalar calls of
    one ``sampled_tracts`` benchmark pass it took 0.53 s; the same calls
    as one-point arrays through the array kernel took 11.5 s (best of
    three on a 2-core VM, Python 3.11, numpy 2.4).
    """
    scalar = isinstance(z, complex) or np.ndim(z) == 0
    if scalar:
        try:
            return _scalar_ladder(L, z)
        except (ArithmeticError, ValueError):
            pass  # cmath raises where numpy returns inf or nan: keep numpy's
    with np.errstate(all="ignore"):
        logf, q = _batch_ladder(L, z)
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


# make_koenigs under the name perfbench/ops.py calls; nothing in the
# package or its tests uses it
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


#: Named handles shared by the command line and the check suite.
SHORTHANDS = {
    "exp": lambda: exp_power(1.0, 1),
    "quarter": lambda: exp_power(0.25, 1),  # e^z / 4
    "square": lambda: exp_power(1.0, 2),  # e^{z^2}
    "composite": lambda: CompositeExpModel(exp_power(math.exp(-6.0), 1)),
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
