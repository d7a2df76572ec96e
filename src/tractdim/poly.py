"""Polynomial dynamics kernel.

Evaluation, full preimage fibers, preimage trees with chain-rule
derivatives, repelling fixed points, Boettcher coordinates of the basin of
infinity, tree pressure with Richardson extrapolation, Poincare series and
the Bowen-zero (hyperbolic dimension) estimate on the polynomial side.
"""

import json
import re
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (
    BranchLoss,
    BudgetExceeded,
    DegenerateDerivative,
    NonConvergence,
    NoSignChange,
)

DEFAULT_NODE_BUDGET = 1 << 20
_DERIV_FLOOR = 1e-300


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with complex coefficients, constant term first, degree >= 2."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        if len(coeffs) < 3:
            raise ValueError("degree must be >= 2")
        if abs(coeffs[-1]) == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def __call__(self, z):
        return poly_eval(self, z)

    def derivative_coefficients(self):
        return tuple(
            (k + 1) * c for k, c in enumerate(self.coefficients[1:])
        )

    def derivative(self, z):
        rev = list(self.derivative_coefficients())[::-1]
        return _horner(rev, z)

    def critical_points(self):
        dc = np.array(self.derivative_coefficients(), dtype=complex)
        if len(dc) == 1:
            return np.array([], dtype=complex)
        return np.roots(dc[::-1])

    @classmethod
    def from_json(cls, text):
        data = json.loads(text) if isinstance(text, str) else text
        coeffs = [complex(re_, im) for re_, im in data["coeffs"]]
        return cls(tuple(coeffs))

    @classmethod
    def from_string(cls, text):
        """Parse shorthand like ``z^2-1`` or ``2z^3 + 0.5z - 1``."""
        s = text.replace(" ", "").replace("**", "^")
        if not s:
            raise ValueError("empty polynomial string")
        term_re = re.compile(
            r"([+-]?)(\d+\.?\d*|\.\d+)?(z(?:\^(\d+))?)?"
        )
        coeffs = {}
        pos = 0
        while pos < len(s):
            m = term_re.match(s, pos)
            if m is None or m.end() == pos:
                raise ValueError(f"cannot parse polynomial near {s[pos:]!r}")
            sign, mag, zpart, power = m.groups()
            if mag is None and zpart is None:
                raise ValueError(f"cannot parse polynomial near {s[pos:]!r}")
            c = float(mag) if mag is not None else 1.0
            if sign == "-":
                c = -c
            k = 0 if zpart is None else (int(power) if power else 1)
            coeffs[k] = coeffs.get(k, 0.0) + c
            pos = m.end()
        deg = max(coeffs)
        return cls(tuple(complex(coeffs.get(k, 0.0)) for k in range(deg + 1)))

    def to_json(self):
        return {"coeffs": [[c.real, c.imag] for c in self.coefficients]}


def _horner(rev_coeffs, z):
    acc = 0j if np.isscalar(z) else np.zeros(np.shape(z), dtype=complex)
    for c in rev_coeffs:
        acc = acc * z + c
    return acc


def poly_eval(p, z):
    """Horner evaluation; accepts scalars and arrays."""
    return _horner(list(p.coefficients)[::-1], z)


@dataclass(frozen=True)
class FixedPointRecord:
    location: complex
    multiplier: complex
    is_repelling: bool


@dataclass(frozen=True)
class PreimageNode:
    point: complex
    cumulative_derivative: complex
    depth: int


def preimages(p, w, tol=1e-10, maxit=800):
    """All degree-many roots of p(z) = w (with multiplicity).

    Simultaneous Aberth iteration from a deterministic perturbed circle;
    raises NonConvergence if the residual tolerance is not met.
    """
    roots, ok = _kernels.aberth_batch(
        np.array(p.coefficients, dtype=complex),
        np.array(p.derivative_coefficients(), dtype=complex),
        np.array([complex(w)]),
        maxit=maxit,
        tol=tol,
    )
    if not ok[0]:
        raise NonConvergence(
            f"preimage solve stalled for w={w!r} (ill-conditioned coefficients?)"
        )
    out = roots[0]
    order = np.lexsort((out.imag, out.real))
    return [complex(z) for z in out[order]]


def _preimage_levels(p, w, n, node_budget=DEFAULT_NODE_BUDGET):
    """Level arrays (points, cumulative |derivative| as complex) for depths 1..n."""
    d = p.degree
    if d**n > node_budget:
        raise BudgetExceeded(f"{d}^{n} nodes exceed budget {node_budget}")
    coeffs = np.array(p.coefficients, dtype=complex)
    dcoeffs = np.array(p.derivative_coefficients(), dtype=complex)
    pts = np.array([complex(w)])
    cum = np.array([1.0 + 0j])
    levels = []
    for _ in range(n):
        roots, ok = _kernels.aberth_batch(coeffs, dcoeffs, pts)
        if not ok.all():
            raise NonConvergence("preimage fiber solve stalled during tree descent")
        children = roots.reshape(-1)
        dp = _horner(list(p.derivative_coefficients())[::-1], children)
        cum = dp * np.repeat(cum, d)
        if np.abs(cum).min() < _DERIV_FLOOR:
            raise DegenerateDerivative("base point hits the critical tree")
        pts = children
        levels.append((pts, cum))
    return levels


def preimage_tree(p, w, n, node_budget=DEFAULT_NODE_BUDGET):
    """Depth-n preimage fiber with chain-rule cumulative derivatives."""
    if n < 1:
        raise ValueError("n must be >= 1")
    levels = _preimage_levels(p, w, n, node_budget)
    pts, cum = levels[-1]
    order = np.lexsort((pts.imag, pts.real))
    return [
        PreimageNode(complex(pts[i]), complex(cum[i]), n) for i in order
    ]


def find_repelling_fixed_points(p, tol=1e-10):
    """All finite fixed points of p with multipliers and repelling flags."""
    shifted = list(p.coefficients)
    shifted[1] -= 1.0
    q = Polynomial(tuple(shifted)) if abs(shifted[-1]) > 0 else None
    if q is None:  # cannot happen for degree >= 2
        raise ValueError("degenerate fixed-point equation")
    roots, ok = _kernels.aberth_batch(
        np.array(q.coefficients, dtype=complex),
        np.array(q.derivative_coefficients(), dtype=complex),
        np.array([0j]),
        tol=tol,
    )
    if not ok[0]:
        raise NonConvergence("fixed-point solve stalled")
    zs = roots[0]
    order = np.lexsort((zs.imag, zs.real))
    records = []
    for z in zs[order]:
        lam = p.derivative(complex(z))
        records.append(
            FixedPointRecord(complex(z), complex(lam), bool(abs(lam) > 1.0))
        )
    return records


@dataclass
class TreePressure:
    """Tree-pressure estimate at one t.

    value is the limsup proxy: max over the last three depths of the
    two-point Richardson extrapolants in 1/n of the raw per-depth values
    (1/n) log sum |(p^n)'|^{-t}.  The raw sequence is retained.
    """

    value: float
    per_depth: list
    depth_used: int

    def __float__(self):
        return float(self.value)

    @property
    def slope(self):
        """Least-squares growth rate of log S_n against n over all depths.

        Finite-window companion to `value`: the right-hand side for
        finite-resolution comparisons against circle-means slope fits,
        which probe the tree only up to effective depth |log(r-1)|/log d.
        """
        n = np.arange(1, self.depth_used + 1, dtype=float)
        log_sums = n * np.asarray(self.per_depth)
        if len(n) < 2:
            return float(log_sums[0])
        return float(np.polyfit(n, log_sums, 1)[0])


def _pressure_sequence(log_derivs, t):
    """Raw per-depth values from per-level log|cumulative derivative| arrays."""
    out = []
    for k, ld in enumerate(log_derivs, start=1):
        out.append(float(logsumexp(-t * ld) / k))
    return out


def _extrapolate(seq):
    """limsup proxy: max of the last three Richardson pairs n*P_n-(n-1)*P_{n-1}."""
    if len(seq) == 1:
        return seq[0]
    rich = [
        (k + 1) * seq[k] - k * seq[k - 1] for k in range(1, len(seq))
    ]
    return max(rich[-3:])


def tree_log_derivs(p, w, n, node_budget=DEFAULT_NODE_BUDGET):
    """log|(p^k)'| over the fiber p^{-k}(w), one array per depth k = 1..n."""
    return [np.log(np.abs(cum))
            for _, cum in _preimage_levels(p, w, n, node_budget)]


def _pressure_from(log_derivs, t):
    seq = _pressure_sequence(log_derivs, t)
    return TreePressure(_extrapolate(seq), seq, len(log_derivs))


def tree_pressure(p, t, w, n, node_budget=DEFAULT_NODE_BUDGET):
    """Tree pressure (1/n) log sum over p^{-n}(w) of |(p^n)'|^{-t}.

    Returns a TreePressure whose value is the Richardson-extrapolated
    limsup proxy and whose per_depth member is the raw sequence.
    """
    return _pressure_from(tree_log_derivs(p, w, n, node_budget), t)


@dataclass
class PressureCurve:
    t_grid: list
    values: list
    depth_used: int
    per_depth: list  # matrix: per t, the raw per-depth sequence


def pressure_curve(p, t_grid, w, n, node_budget=DEFAULT_NODE_BUDGET):
    """Tree pressure at every t of t_grid, from one depth-n tree."""
    log_derivs = tree_log_derivs(p, w, n, node_budget)
    values, per_depth = [], []
    for t in t_grid:
        res = _pressure_from(log_derivs, float(t))
        values.append(res.value)
        per_depth.append(res.per_depth)
    return PressureCurve(list(t_grid), values, n, per_depth)


def poincare_series_partial(p, t, xi, n_max, node_budget=DEFAULT_NODE_BUDGET):
    """Per-level sums sum_{eta in p^{-N}(xi)} |(p^N)'(eta)|^{-t}, N=1..n_max."""
    return [float(np.exp(logsumexp(-t * ld)))
            for ld in tree_log_derivs(p, xi, n_max, node_budget)]


@dataclass
class BowenZero:
    value: float
    bracket: tuple
    width: float

    def __float__(self):
        return float(self.value)


def bowen_zero_poly(
    p, depth, w=5.0 + 0j, bracket=(0.1, 2.0), width=1e-3,
    node_budget=DEFAULT_NODE_BUDGET,
):
    """Bisection zero of t -> tree_pressure(p, t, w, depth) on the bracket."""
    log_derivs = tree_log_derivs(p, w, depth, node_budget)
    lo, hi = bracket
    plo = _pressure_from(log_derivs, lo).value
    phi = _pressure_from(log_derivs, hi).value
    if plo == 0.0:
        return BowenZero(lo, (lo, lo), 0.0)
    if not (plo > 0.0 > phi):
        raise NoSignChange(
            f"pressure has no sign change on {bracket}: P({lo})={plo:.4g}, "
            f"P({hi})={phi:.4g}"
        )
    lo, hi = bisect_bracket(
        lambda t: _pressure_from(log_derivs, t).value > 0.0, lo, hi, width)
    return BowenZero(0.5 * (lo + hi), (lo, hi), hi - lo)


def bisect_bracket(positive, lo, hi, width):
    """Halve [lo, hi] around a sign change until it is at most width wide.

    A midpoint where positive(mid) holds replaces lo, any other replaces
    hi, so the predicate decides where a NaN value goes.  Returns (lo, hi).
    """
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def logsumexp(a):
    """log(sum(exp(a))) over a whole real array, without overflow.

    The reference algorithm that tests/test_poly.py compares against,
    to the last bit: every tied maximum is masked to -inf where it
    stands (numpy's pairwise summation order stays the same) and
    counted.  The direct log(sum(exp(a))) replaces that result where it
    is not finite, which is exactly when the maximum is +-inf or nan or
    a is empty, so only then is it taken.
    """
    a = np.asarray(a, dtype=float)
    a_max = np.max(a, initial=-np.inf)
    if not np.isfinite(a_max):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.log(np.sum(np.exp(a)))
    tied = a == a_max
    m = np.count_nonzero(tied)
    s = np.sum(np.exp(np.where(tied, -np.inf, a) - a_max)) / m
    return np.log1p(s) + np.log(m) + a_max


# ---------------------------------------------------------------------------
# Boettcher coordinates of the basin of infinity.
# ---------------------------------------------------------------------------

def escape_sums(coeffs, u):
    """S1 = u^d p(1/u) and S2 = sum_k k c_k u^(d-k) by reverse Horner.

    coeffs are p's coefficients, constant first; at v = 1/u, S1 = p(v)/v^d
    and S2 = v p'(v)/v^d.  The sums start from 0j, so u may be a Python
    complex or an array.
    """
    s1 = s2 = 0j
    for k, c in enumerate(coeffs):
        s1 = s1 * u + c
        s2 = s2 * u + k * c
    return s1, s2


_ESCAPE_BIG = 1e100
_SERIES_EPS = 1e-17
_MAX_ORBIT = 120


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
    """log phi(z) and (log phi)'(z) for monic q, z in the basin (arrays ok).

    phi is the Boettcher coordinate with phi(z)/z -> 1: log phi(z) =
    log z + sum_n d^{-(n+1)} log(w_{n+1}/w_n^d) along the escaping orbit.
    All per-level factors are evaluated in powers of 1/w so the sums stay
    finite after the orbit escapes floating range.
    """
    d = q.degree
    w = np.asarray(z, dtype=complex)
    scalar = w.ndim == 0
    w = np.atleast_1d(w).astype(complex)
    logphi = np.log(w)
    glog = 1.0 / w  # G_n = d(log w_n)/dz
    dlogphi = glog.copy()
    factor = 1.0 / d
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_MAX_ORBIT):
            u = 1.0 / w
            u = np.where(np.isfinite(u), u, 0.0)
            # S1 = q(w)/w^d and S2 = w q'(w)/w^d as polynomials in u = 1/w
            s1, s2 = escape_sums(q.coefficients, u)
            term = factor * np.log(s1)
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
    if scalar:
        return complex(logphi[0]), complex(dlogphi[0])
    return logphi, dlogphi


def _bottcher_batch(p, z, start=None, tol=1e-12, maxit=60):
    """(h(z), h'(z)) with phi(h(z)) = z on |z| > 1, Newton on the log residual.

    The derivative comes from the Newton solve itself: with u = s*h the root
    of log phi_q(u) = log z, h'(z) = 1/(s*z*(log phi_q)'(u)).  start is an
    optional warm start for h (same shape as z) for continuation.
    """
    s, q = _monic_scale(p)
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    zz = np.atleast_1d(z)
    target = np.log(zz)
    if start is None:
        u = zz.copy()
    else:
        u = np.atleast_1d(np.asarray(start, dtype=complex)) * s
    ok = np.zeros(u.shape, dtype=bool)
    for _ in range(maxit):
        logphi, dlogphi = _log_phi_and_deriv(q, u)
        res = logphi - target
        res = res - 2j * np.pi * np.round(res.imag / (2 * np.pi))
        ok = np.abs(res) < tol
        if ok.all():
            break
        step = res / dlogphi
        u = u - np.where(ok, 0.0, step)
    if not ok.all():
        raise BranchLoss("Boettcher Newton did not converge (z too close to |z|=1?)")
    h = u / s
    hp = 1.0 / (s * zz * dlogphi)
    if scalar:
        return complex(h[0]), complex(hp[0])
    return h, hp


def bottcher_outer_radius(p):
    """Radius of guaranteed direct convergence: 2*(1 + max coeff magnitude)."""
    return 2.0 * (1.0 + max(abs(c) for c in p.coefficients))


def bottcher_inverse(p, z, tol=1e-12):
    """Boettcher conjugacy h with h(z^d) = p(h(z)), h(z)/z -> 1 at infinity.

    For |z| below the outer radius the Newton start is continued inward
    along the ray from a safely exterior point.
    """
    z = complex(z)
    if abs(z) <= 1.0:
        raise ValueError("Boettcher coordinate requires |z| > 1")
    rho0 = bottcher_outer_radius(p)
    if abs(z) >= rho0:
        return _bottcher_batch(p, z)[0]
    return complex(_bottcher_ray_batch(p, np.array([z]), tol=tol)[0][0])


def _bottcher_ray_batch(p, z, tol=1e-12):
    """Vectorized (h, h') for |z| in (1, rho0): radius continuation per node."""
    z = np.asarray(z, dtype=complex)
    rho0 = bottcher_outer_radius(p)
    radii = np.abs(z)
    if radii.min() <= 1.0:
        raise ValueError("Boettcher coordinate requires |z| > 1")
    phases = z / radii
    r = rho0
    cur = phases * r
    h = _bottcher_batch(p, cur)[0]
    # geometric descent of r-1 toward the smallest requested radius
    rmin = radii.min()
    while r > rmin:
        r = max(rmin, 1.0 + (r - 1.0) * 0.7)
        cur = phases * np.maximum(radii, r)
        h = _bottcher_batch(p, cur, start=h, tol=tol)[0]
    return _bottcher_batch(p, z, start=h, tol=tol)


def bottcher_residual(p, z):
    """|h(z^d) - p(h(z))| / (1 + |h(z)|), the functional-equation residual."""
    h1 = bottcher_inverse(p, z)
    h2 = bottcher_inverse(p, z ** p.degree)
    return abs(h2 - poly_eval(p, h1)) / (1.0 + abs(h1))


def bottcher_circle_means(p, r, t, arc=(0.0, 2.0 * np.pi), n_nodes=None):
    """Quadrature of |h'|^t along the arc of the circle |z| = r.

    h' is exact, taken from the Newton solve for h at each node.  The nodes
    do not depend on t, so one solve serves every exponent: t is a scalar
    (returns a float) or an array (returns an ndarray of the same shape,
    one integral per exponent).
    """
    if r - 1.0 < 1e-4:
        raise ValueError("r - 1 below minimum resolvable offset 1e-4")
    th0, th1 = arc
    if n_nodes is None:
        n_nodes = int(min(8192, max(256, 8.0 * (th1 - th0) / (r - 1.0))))
    # composite Gauss-Legendre, 4-point panels
    nodes, wts = np.polynomial.legendre.leggauss(4)
    n_panels = max(1, n_nodes // 4)
    edges = np.linspace(th0, th1, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    theta = (mid[:, None] + half[:, None] * nodes[None, :]).reshape(-1)
    weight = (half[:, None] * wts[None, :]).reshape(-1)
    _, hp = _bottcher_ray_batch(p, r * np.exp(1j * theta))
    t = np.asarray(t, dtype=float)
    integrand = np.abs(hp) ** t[..., None]
    means = np.sum(weight * integrand * r, axis=-1)
    return float(means) if t.ndim == 0 else means


def bottcher_means_spectrum(p, t, r_list=(1.1, 1.03, 1.01)):
    """Slope estimate of the boundary integral-means exponent of h.

    Fits log of the circle integral against |log(r-1)| over the given
    radii; the slope is the finite-size estimate of the arc spectrum.
    Each circle is solved once for all exponents: t is a scalar (returns a
    float) or a 1-D array (returns an ndarray of slopes, one per exponent).
    """
    t = np.asarray(t, dtype=float)
    xs = [abs(np.log(r - 1.0)) for r in r_list]
    ys = np.log([bottcher_circle_means(p, r, t) for r in r_list])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope) if t.ndim == 0 else slope
