"""Polynomial dynamics and Boettcher coordinates.

Evaluation, preimage trees with chain-rule derivatives, the repelling
fixed point a Koenigs handle linearizes at, Boettcher coordinates of the
basin of infinity, tree pressure with Richardson extrapolation and its
Bowen zero (hyperbolic dimension).  The bisection, log-sum-exp and
quadrature rules these share with the entire-function layers live in
``numerics``.

A preimage tree solves its first level from the kernel's cold start and
every later level from the roots of the level above, row i from row
i mod m: a node's fiber lies near the fiber of the node with its first
branch dropped (the shift identity in ``_preimage_levels``).  It builds
each level in blocks of ``_ROW_BLOCK`` parent rows, one kernel call per
block, straight to log|(p^k)'|.  Tree
pressure has one entry, ``tree_pressure``, for one t or a t grid; it and
``bowen_zero_poly`` both reduce the log arrays through ``_pressure_from``.
The Boettcher conjugacy has one entry,
``bottcher_inverse(p, z)``: z is an array of any shape outside the unit
circle, and one batched ray continuation returns (h, h') of that shape.
Circle means run their own continuation, one for all requested radii, on
a quadrature grid that follows the radius down.  Both walk inward by one
rule: r - 1 halves per step (``_step_in``), and each step starts from the
tangent predictor of the step before.
"""

import numbers
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (
    BranchLoss,
    BudgetExceeded,
    DegenerateDerivative,
    NonConvergence,
)
from .numerics import gl4_panels, logsumexp, solve_decreasing

DEFAULT_NODE_BUDGET = 1 << 20
_DERIV_FLOOR = 1e-300
#: Parent rows per block of a preimage-tree level, and so the most rows of
#: one ``aberth_batch`` call, whose scratch arrays (iterates, residuals,
#: derivatives, correction sums) hold every row it is passed.  At 4,096
#: rows ``tree_log_derivs(z^3-0.5z, 5, 12)`` peaks at 23.3 MiB of numpy
#: allocations for 6.1 MiB of result, 1.9 MiB below 8,192 rows at the same
#: build time; 2,048 and 1,024 rows save 1.2 and 1.8 MiB more but build
#: about 20% and 50% slower.
_ROW_BLOCK = 4096


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with complex coefficients, constant term first, degree >= 2.

    escape_pairs holds the (c_k, k*c_k) pairs that ``escape_sums`` runs its
    Horner steps over, derived from the coefficients at construction, and
    escape_bound the radius past which every lower term of p(v)/(c_d v^d)
    is below u/d (u = 2^-53, the rounding unit), so p(v) = c_d v^d and
    v p'(v)/p(v) = d to rounding; it is 0 for a monomial.  Where one more
    step from below that radius could overflow (degree about 18 and up),
    the bound is the largest |v| >= 1 whose step cannot, and the dropped
    terms there are a few rounding units.
    """

    coefficients: tuple
    escape_pairs: tuple = field(init=False, repr=False, compare=False)
    escape_bound: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        if len(coeffs) < 3:
            raise ValueError("degree must be >= 2")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        if abs(coeffs[-1]) == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "escape_pairs",
                           tuple((c, k * c) for k, c in enumerate(coeffs)))
        d, lead = len(coeffs) - 1, abs(coeffs[-1])
        exact = max([(d * 2.0**53 * abs(c) / lead) ** (1.0 / (d - k))
                     for k, c in enumerate(coeffs[:-1]) if c], default=0.0)
        safe = (sys.float_info.max / (d * sum(map(abs, coeffs)))) ** (1 / d)
        object.__setattr__(self, "escape_bound", min(exact, safe))

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def __call__(self, z):
        return _horner(self.coefficients[::-1], z)

    def derivative_coefficients(self):
        return tuple(
            (k + 1) * c for k, c in enumerate(self.coefficients[1:])
        )

    def derivative(self, z):
        rev = list(self.derivative_coefficients())[::-1]
        return _horner(rev, z)

    def critical_points(self):
        dc = np.array(self.derivative_coefficients(), dtype=complex)
        return np.roots(dc[::-1])

    @classmethod
    def from_json(cls, data):
        """The polynomial of a ``{"coeffs": [[re, im], ...]}`` descriptor."""
        return cls(tuple(complex(finite_real(re_), finite_real(im))
                         for re_, im in data["coeffs"]))

    @classmethod
    def from_string(cls, text):
        """Parse shorthand like ``z^2-1``, ``2z^3 + 0.5z - 1`` or ``z^2+0.05i``.

        Every term after the first starts with ``+`` or ``-``, so text
        such as ``z^2z`` or ``2z3`` is refused rather than read as a sum.
        An ``i`` right after a term's magnitude, or in its place, makes
        the coefficient imaginary (``-iz`` is -i z); a term has at most one.
        """
        s = text.replace(" ", "").replace("**", "^")
        if not s:
            raise ValueError("empty polynomial string")
        term_re = re.compile(
            r"([+-]?)(\d+\.?\d*|\.\d+)?(i)?(z(?:\^(\d+))?)?"
        )
        coeffs = {}
        pos = 0
        while pos < len(s):
            m = term_re.match(s, pos)
            if m is None or m.end() == pos:
                raise ValueError(f"cannot parse polynomial near {s[pos:]!r}")
            sign, mag, unit, zpart, power = m.groups()
            if (mag is None and unit is None and zpart is None) or (
                    pos > 0 and not sign):
                raise ValueError(f"cannot parse polynomial near {s[pos:]!r}")
            c = float(mag) if mag is not None else 1.0
            if sign == "-":
                c = -c
            if unit:
                c = complex(0.0, c)
            k = 0 if zpart is None else (int(power) if power else 1)
            coeffs[k] = coeffs.get(k, 0.0) + c
            pos = m.end()
        deg = max(coeffs)
        return cls(tuple(complex(coeffs.get(k, 0.0)) for k in range(deg + 1)))


def finite_real(x):
    """x as a float, the rule for each number of a descriptor: a real, not a
    bool, finite, and no int past the float range; else ValueError."""
    if (isinstance(x, bool) or not isinstance(x, numbers.Real)
            or not abs(x) <= sys.float_info.max):
        raise ValueError("expected a finite real number, got %r" % (x,))
    return float(x)


def _horner(rev_coeffs, z):
    acc = 0j if np.isscalar(z) else np.zeros(np.shape(z), dtype=complex)
    for c in rev_coeffs:
        acc = acc * z + c
    return acc


def _preimage_levels(p, w, n, node_budget=DEFAULT_NODE_BUDGET):
    """Level arrays (points, log|(p^k)'|) for depths k = 1..n.

    Level k + 1 holds the d roots of p(z) = v for each level-k point v:
    the children of node i sit at [i*d, (i+1)*d).  Node i of level k is
    R_jk o ... o R_j1(w), R_j the j-th root and j1 the most significant
    base-d digit of i.  Dropping j1 leaves node i mod d^(k-1) of level
    k - 1, the same branches applied to w instead of R_j1(w); inverse
    branches contract near J, so the two nodes' fibers differ by about
    |(p^(k-1))'|^-1.  Level 1 is solved cold, and every later level's row
    i is warm-started (``aberth_batch``'s ``start``) from row i mod m of
    the previous root matrix, m its row count: the rows of
    ``np.tile(roots, (d, 1))``.  Each root meets the kernel's residual
    bound tol*(1 + |v|), as a cold solve's does.

    Each level is allocated once and filled in blocks of at most
    ``_ROW_BLOCK`` parent rows: a block's warm start, its solve,
    p' at its children and their cumulative derivative p'(z) * (p^k)'(v)
    (p' on the left, since complex multiplication is not bitwise
    commutative).  Only the level being extended keeps that derivative as
    complex; the returned log|(p^k)'| has the bits of
    ``np.log(np.abs(cum))``.  Beyond the returned levels, the working
    memory is one complex level and a few arrays of a block's size.
    ValueError unless n is an integer >= 1, raised before any solve;
    NonConvergence if a block's solve misses the tolerance, and
    DegenerateDerivative if some |(p^k)'| falls below ``_DERIV_FLOOR``
    (a node on the critical tree).
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"tree depth must be an integer >= 1, got {n!r}")
    d = p.degree
    if d**n > node_budget:
        raise BudgetExceeded(f"{d}^{n} nodes exceed budget {node_budget}")
    coeffs = np.array(p.coefficients, dtype=complex)
    dcoeffs = np.array(p.derivative_coefficients(), dtype=complex)
    pts = np.array([complex(w)])
    cum = np.array([1.0 + 0j])
    levels = []
    roots = None
    for k in range(1, n + 1):
        m = len(pts)
        level = np.empty((m, d), dtype=complex)
        logd = np.empty(m * d)
        nxt = np.empty(m * d, dtype=complex) if k < n else None
        for lo in range(0, m, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, m)
            start = (None if roots is None
                     else roots[np.arange(lo, hi) % len(roots)])
            level[lo:hi], ok = _kernels.aberth_batch(
                coeffs, dcoeffs, pts[lo:hi], start=start)
            if not ok.all():
                raise NonConvergence(
                    "preimage fiber solve stalled during tree descent")
            rep = np.repeat(cum[lo:hi], d)
            prod = np.multiply(p.derivative(level[lo:hi].reshape(-1)), rep,
                               out=rep if nxt is None else nxt[lo * d:hi * d])
            block = np.abs(prod, out=logd[lo * d:hi * d])
            if block.min() < _DERIV_FLOOR:
                raise DegenerateDerivative("base point hits the critical tree")
        np.log(logd, out=logd)
        roots, pts, cum = level, level.reshape(-1), nxt
        levels.append((pts, logd))
    return levels


def repelling_fixed_point(p):
    """The repelling fixed point of largest modulus, polished by Newton.

    Of the Aberth roots of p(z) - z with |p'(z)| > 1, the largest |z| (then
    real part) is refined by Newton until the step stops shrinking, which
    lands z^2-2 on z0 = 2 and z^2-1 on a real z0.  ValueError if none.
    """
    shifted = list(p.coefficients)
    shifted[1] -= 1.0
    q = Polynomial(tuple(shifted))
    roots, ok = _kernels.aberth_batch(
        np.array(q.coefficients, dtype=complex),
        np.array(q.derivative_coefficients(), dtype=complex),
        np.array([0j]),
    )
    if not ok[0]:
        raise NonConvergence("fixed-point solve stalled")
    zs = roots[0]
    repelling = [complex(z) for z in zs[np.lexsort((zs.imag, zs.real))]
                 if abs(p.derivative(complex(z))) > 1.0]
    if not repelling:
        raise ValueError("polynomial has no repelling fixed point")
    z = max(repelling, key=lambda z: (abs(z), z.real))
    last = np.inf
    while True:
        step = (p(z) - z) / (p.derivative(z) - 1.0)
        if not abs(step) < last:
            return z
        z, last = z - step, abs(step)


def tree_log_derivs(p, w, n, node_budget=DEFAULT_NODE_BUDGET):
    """log|(p^k)'| over the fiber p^{-k}(w), one array per depth k = 1..n."""
    return [ld for _, ld in _preimage_levels(p, w, n, node_budget)]


def _pressure_from(log_derivs, t):
    """Tree pressure at t: of the raw values P_k = (1/k) log sum
    |(p^k)'|^-t per depth, the max of the last three Richardson pairs
    k*P_k - (k-1)*P_{k-1} (the limsup proxy), or P_1 alone."""
    seq = [float(logsumexp(-t * ld) / k)
           for k, ld in enumerate(log_derivs, start=1)]
    if len(seq) == 1:
        return seq[0]
    return max((k + 1) * seq[k] - k * seq[k - 1]
               for k in range(1, len(seq))[-3:])


def tree_pressure(p, t, w, n, node_budget=DEFAULT_NODE_BUDGET):
    """Tree pressure (1/n) log sum over p^{-n}(w) of |(p^n)'|^{-t},
    Richardson-extrapolated in 1/n.

    t is one exponent (returns a float) or a sequence of them (returns a
    list, one value per t), all from one depth-n tree.
    """
    log_derivs = tree_log_derivs(p, w, n, node_budget)
    if np.ndim(t) == 0:
        return _pressure_from(log_derivs, t)
    return [_pressure_from(log_derivs, float(s)) for s in t]


@dataclass
class BowenZero:
    value: float
    bracket: tuple
    width: float


def bowen_zero_poly(p, depth, node_budget=DEFAULT_NODE_BUDGET):
    """Zero of the depth-n tree pressure at w = 5 on [0.1, 2.0], to width
    1e-3 by ``solve_decreasing``."""
    log_derivs = tree_log_derivs(p, 5.0 + 0j, depth, node_budget)
    value, (lo, hi) = solve_decreasing(
        lambda t: _pressure_from(log_derivs, t), 0.1, 2.0, 1e-3)
    return BowenZero(value, (lo, hi), hi - lo)


# ---------------------------------------------------------------------------
# Boettcher coordinates of the basin of infinity.
# ---------------------------------------------------------------------------

def escape_sums(pairs, u):
    """S1 = u^d p(1/u) and S2 = sum_k k c_k u^(d-k) by reverse Horner.

    pairs is p's ``escape_pairs``, the (c_k, k*c_k) pairs constant first;
    at v = 1/u, S1 = p(v)/v^d and S2 = v p'(v)/v^d (the Boettcher orbit).
    Taken leading first (``escape_pairs[::-1]``) the same pass gives
    S1 = p(u) and S2 = u p'(u), one value step of the linearizer ladder,
    whose kernels write the pass out without the 0j start and the
    additions of zero coefficients; the tests hold the scalar kernel to
    this function bit for bit.  The sums start from 0j, so u may be a
    Python complex or an array, and the first step's 0j*u keeps numpy's
    nan and inf where u has them.
    """
    s1 = s2 = 0j
    for c, kc in pairs:
        s1 = s1 * u + c
        s2 = s2 * u + kc
    return s1, s2


_SERIES_EPS = 1e-17
_MAX_ORBIT = 120
_NEWTON_TOL = 1e-12
_NEWTON_MAXIT = 60


def _monic_scale(p):
    """s with s^(d-1) = leading coefficient; q(z) = s*p(z/s) is monic."""
    a = p.coefficients[-1]
    d = p.degree
    s = a ** (1.0 / (d - 1)) if a != 1.0 else 1.0
    q = Polynomial(
        tuple(c * s ** (1 - k) for k, c in enumerate(p.coefficients))
    )
    return complex(s), q


def _log_phi_and_deriv(q, z):
    """log phi(z) and (log phi)'(z) for monic q on an array z in the basin.

    phi is the Boettcher coordinate with phi(z)/z -> 1: log phi(z) =
    log z + sum_n d^{-(n+1)} log(w_{n+1}/w_n^d) along the escaping orbit.
    All per-level factors are evaluated in powers of 1/w so the sums stay
    finite after the orbit escapes floating range.  Both logs, of z and of
    each level's factor w_{n+1}/w_n^d, are ``_kernels.clog``.
    """
    d = q.degree
    w = np.asarray(z, dtype=complex)
    logphi = _kernels.clog(w)
    glog = 1.0 / w  # G_n = d(log w_n)/dz
    dlogphi = glog.copy()
    factor = 1.0 / d
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_MAX_ORBIT):
            u = 1.0 / w
            u = np.where(np.isfinite(u), u, 0.0)
            # S1 = q(w)/w^d and S2 = w q'(w)/w^d as polynomials in u = 1/w
            s1, s2 = escape_sums(q.escape_pairs, u)
            term = factor * _kernels.clog(s1)
            gfac = s2 / s1
            gnew = gfac * glog
            dterm = factor * (gnew - d * glog)
            logphi = logphi + term
            dlogphi = dlogphi + dterm
            glog = gnew
            wn = (w**d) * s1
            w = np.where(np.isfinite(wn), wn, np.inf)
            factor /= d
            if np.abs(term).max() < _SERIES_EPS:
                break
    return logphi, dlogphi


def _bottcher_batch(p, z, start=None):
    """(h(z), h'(z)) with phi(h(z)) = z on |z| > 1, Newton on the log residual.

    The derivative comes from the Newton solve itself: with u = s*h the root
    of log phi_q(u) = log z, h'(z) = 1/(s*z*(log phi_q)'(u)).  z is an
    array; start is an optional warm start for h (same shape as z) for
    continuation.
    """
    s, q = _monic_scale(p)
    target = _kernels.clog(z)
    u = z.copy() if start is None else start * s
    for _ in range(_NEWTON_MAXIT):
        logphi, dlogphi = _log_phi_and_deriv(q, u)
        res = logphi - target
        res = res - 2j * np.pi * np.round(res.imag / (2 * np.pi))
        ok = np.abs(res) < _NEWTON_TOL
        if ok.all():
            break
        step = res / dlogphi
        u = u - np.where(ok, 0.0, step)
    if not ok.all():
        raise BranchLoss("Boettcher Newton did not converge (z too close to |z|=1?)")
    return u / s, 1.0 / (s * z * dlogphi)


def bottcher_outer_radius(p):
    """Radius of guaranteed direct convergence: 2*(1 + max coeff magnitude)."""
    return 2.0 * (1.0 + max(abs(c) for c in p.coefficients))


def bottcher_inverse(p, z):
    """(h(z), h'(z)) of the Boettcher conjugacy, h(z^d) = p(h(z)).

    h(z)/z -> 1 at infinity.  z is an array of any shape with every
    |z| > 1 (ValueError otherwise), and h, h' have its shape.  The points
    are solved at the outer radius (or at z itself, if farther out) and
    walked inward along their rays by ``_step_in``, each step started from
    the tangent predictor h + h'*(w - w_prev); each point stops at z, so
    the last step lands on z and gives h and h'.
    """
    z = np.asarray(z, dtype=complex)
    radii = np.abs(z)
    rmin = radii.min()
    if rmin <= 1.0:
        raise ValueError("Boettcher coordinate requires |z| > 1")
    phases = z / radii
    r = bottcher_outer_radius(p)
    w = np.where(radii >= r, z, phases * r)
    h, hp = _bottcher_batch(p, w)
    while r > rmin:
        r = _step_in(r, rmin)
        prev, w = w, np.where(radii >= r, z, phases * r)
        h, hp = _bottcher_batch(p, w, start=h + hp * (w - prev))
    return h, hp


def _step_in(r, stop):
    """The next radius of an inward continuation from r: r - 1 halves, but
    the step ends at stop if it would pass it.  Started from the tangent
    predictor, a step's first Newton residual is second order in the step."""
    return max(stop, 1.0 + (r - 1.0) * 0.5)


def _circle_grid(rad):
    """Composite 4-point Gauss-Legendre nodes theta and weights on
    [0, 2 pi] for the circle |z| = rad: min(8192, max(256, 16 pi/(rad - 1)))
    nodes, rounded down to whole panels."""
    n_nodes = int(min(8192, max(256, 8.0 * (2.0 * np.pi) / (rad - 1.0))))
    return gl4_panels(0.0, 2.0 * np.pi, n_nodes // 4)


def bottcher_circle_means(p, r, t):
    """Quadrature of |h'|^t around each circle |z| = r.

    h' is exact, taken from the Newton solve for h at each node, and one
    solve serves every exponent.  r is a radius or an array of radii, all
    checked before any solve.  One inward continuation serves every
    circle: it starts at the larger of the outer radius and the largest r,
    steps in by ``_step_in`` and stops on each distinct r on the way down.
    Every step is solved on the quadrature grid of its own radius,
    starting from the tangent predictor h + h'*(z - z_prev) of the step
    before.  When the grid changes, h/z and h' are first interpolated
    linearly and periodically in theta and taken at the previous radius.
    On z^2 - 1 the largest first Newton residual over check 5's steps is
    0.029.  BranchLoss if a solve fails, as on a
    polynomial whose critical point escapes.  Returns an ndarray of shape
    r.shape + t.shape, or a float when r and t are scalars.
    """
    radii = np.asarray(r, dtype=float)
    if (radii - 1.0).min() < 1e-4:
        raise ValueError("r - 1 below minimum resolvable offset 1e-4")
    t = np.asarray(t, dtype=float)
    stops, where = np.unique(radii, return_inverse=True)
    rows = np.empty(stops.shape + t.shape)
    rad = max(bottcher_outer_radius(p), stops[-1])
    theta, weight = _circle_grid(rad)
    z = rad * np.exp(1j * theta)
    h, hp = _bottcher_batch(p, z)
    for i in range(stops.size - 1, -1, -1):
        while rad > stops[i]:
            prev_rad, prev_theta, prev_z = rad, theta, z
            rad = _step_in(rad, stops[i])
            theta, weight = _circle_grid(rad)
            if theta.size != prev_theta.size:
                ratio = np.interp(theta, prev_theta, h / prev_z,
                                  period=2.0 * np.pi)
                hp = np.interp(theta, prev_theta, hp, period=2.0 * np.pi)
                prev_z = prev_rad * np.exp(1j * theta)
                h = ratio * prev_z
            z = rad * np.exp(1j * theta)
            h, hp = _bottcher_batch(p, z, start=h + hp * (z - prev_z))
        rows[i] = np.sum(weight * np.abs(hp) ** t[..., None] * rad, axis=-1)
    means = rows[where.reshape(-1)].reshape(radii.shape + t.shape)
    return float(means) if means.ndim == 0 else means


def bottcher_means_spectrum(p, t, r_list):
    """Slope estimate of the boundary integral-means exponent of h.

    Fits log I = a + beta |log(r-1)| + c (r-1) to the circle integrals I
    over at least 3 distinct radii; beta is the estimate, and c absorbs the
    first finite-r correction.  t is a scalar (returns a float) or a 1-D array
    (returns an ndarray of slopes, one per exponent).
    """
    x = np.asarray(r_list, dtype=float) - 1.0
    if np.unique(x).size < 3:
        raise ValueError("the r -> 1 fit needs at least 3 distinct radii")
    t = np.asarray(t, dtype=float)
    ys = np.log(bottcher_circle_means(p, r_list, t))
    design = np.column_stack([np.ones_like(x), np.abs(np.log(x)), x])
    slope = np.linalg.lstsq(design, ys, rcond=None)[0][1]
    return float(slope) if t.ndim == 0 else slope
