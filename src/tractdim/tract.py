"""Logarithmic-tract geometry: locating tracts, the inverse map phi, rescaling.

A tract of a handle f at radius R is an unbounded component of
f^{-1}({|w| > R}).  On each tract f = exp o tau with tau = log f conformal
onto a right half-plane region, and phi = tau^{-1} is evaluated either in
closed form (exponential and composite families) or by predictor-corrector
continuation on the wrapped residual log f(z) - xi (Koenigs family).  This
module alone knows which: callers go through phi_eval, phi_path,
phi_refine and phi_derivative, and ask TractBranch.sampled where the cost
of continuation matters to them.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from . import linearizer as lz
from .errors import ContinuationStall, NoTractFound, ZeroDenominator

MIN_OFFSET = 0.05  # Re xi floor; phi extends only continuously to the boundary
_NEWTON_TOL = 1e-11
_NEWTON_MAXIT = 50
_MAX_ANCHORS = 4096
_TWO_PI = 2 * np.pi


def _wrap_imag(w):
    """Reduce the imaginary part to (-pi, pi] — residuals live on the cylinder."""
    return complex(w.real, (w.imag + np.pi) % _TWO_PI - np.pi)


def _halton(n, base):
    out = np.zeros(n)
    for i in range(n):
        f, x, k = 1.0, 0.0, i + 1
        while k > 0:
            f /= base
            x += f * (k % base)
            k //= base
        out[i] = x
    return out


@dataclass
class TractBranch:
    """One tract of a handle with its inverse map phi.

    base_point lies in the tract and base_log = log f(base_point).
    closed_phi/closed_dphi hold phi and phi' in closed form when the family
    admits them (they take arrays of any shape).  Otherwise the branch is
    sampled: phi is continued numerically from cached anchors, the first
    _n_anchors columns of _anchors being solved (xi, phi(xi)) pairs, the
    base point first, and _trust is the continuation step size the last
    walk ended with.  _scales caches |phi(T)| and _node_tables the
    spectrum's quadrature tables.
    """

    handle: object
    base_point: complex
    base_log: complex
    closed_phi: object = None
    closed_dphi: object = None
    _anchors: np.ndarray = field(init=False, repr=False, compare=False)
    _n_anchors: int = field(init=False, default=1)
    _trust: float = field(init=False, default=None)
    _scales: dict = field(default_factory=dict)
    _node_tables: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._anchors = np.empty((2, _MAX_ANCHORS), dtype=complex)
        self._anchors[:, 0] = self.base_log, self.base_point

    @property
    def sampled(self):
        """True when phi is continued numerically, not known in closed form."""
        return self.closed_phi is None


@dataclass
class TractAtlas:
    function: object
    radius: float
    tracts: list


@dataclass
class RescaledBoundary:
    T: float
    scale: float
    polyline: list


# ---------------------------------------------------------------------------
# Tract location


def _closed_branches_exp_power(handle, R, max_rho):
    d, lam = handle.d, handle.lam
    # f(z) = e^xi  <=>  z^d = xi - log lam; one tract per d-th root sector
    shift = cmath.log(lam)
    branches = []
    for j in range(d):
        rot = cmath.exp(2j * np.pi * j / d)

        def phi(xi, rot=rot):
            return rot * (np.asarray(xi, dtype=complex) - shift) ** (1.0 / d)

        def dphi(xi, rot=rot):
            return rot * (np.asarray(xi, dtype=complex) - shift) ** (1.0 / d - 1.0) / d

        base_log = max(2.0 * np.log(R), 4.0)
        branches.append(
            TractBranch(handle, phi(base_log), complex(base_log), phi, dphi)
        )
    return branches


def _closed_branches_composite(handle, R, max_rho):
    inner_atlas = find_tracts(handle.inner, R, max_rho)
    branches = []
    for ib in inner_atlas.tracts:
        def phi(xi, ib=ib):
            return np.log(phi_eval(ib, xi))

        def dphi(xi, ib=ib):
            z = phi_eval(ib, xi)
            return phi_derivative(ib, xi) / z

        base_log = ib.base_log
        branches.append(
            TractBranch(handle, phi(base_log), complex(base_log), phi, dphi)
        )
    return branches


def _closed(branch, xi):
    """phi and phi' in closed form at an array of xi of any shape."""
    xi = np.asarray(xi, dtype=complex)
    return np.asarray(branch.closed_phi(xi)), np.asarray(branch.closed_dphi(xi))


def phi_refine(branch, xi, z_guess):
    """Vectorized Newton polish of phi at an array of xi given nearby guesses.

    Used by quadrature refinement where interleaved nodes inherit
    interpolated guesses from the coarser level; the wrapped residual keeps
    each point on its own 2 pi i sheet.
    Only the points not yet converged are evaluated again; each returned
    phi' is 1/(log f)' at the returned z.  A closed-form branch ignores the
    guesses and returns exact values.
    """
    if not branch.sampled:
        return _closed(branch, xi)
    xi = np.asarray(xi, dtype=complex)
    z = np.asarray(z_guess, dtype=complex).copy()
    q = np.empty_like(z)
    active = np.arange(z.size)
    for _ in range(_NEWTON_MAXIT):
        lf, q[active] = branch.handle.log_f_and_q(z[active])
        res = lf - xi[active]
        res = np.real(res) + 1j * ((np.imag(res) + np.pi) % _TWO_PI - np.pi)
        # a nan residual stays active
        todo = ~(np.abs(res) < _NEWTON_TOL * (1.0 + np.abs(xi[active])))
        if not todo.any():
            break
        active = active[todo]
        step = res[todo] / q[active]
        cap = 2.0 * np.maximum(np.abs(z[active]), 1.0)
        big = np.abs(step) > cap
        step = np.where(big, step * (cap / np.where(big, np.abs(step), 1.0)), step)
        z[active] -= step
    else:
        raise ContinuationStall("batched refinement did not converge")
    return z, 1.0 / q


def _sampled_branches(handle, R, max_rho=1e12):
    threshold = np.log(R) + 1.0  # base points must satisfy |f| > R e
    n_angles = 720
    angles = np.linspace(0.0, _TWO_PI, n_angles, endpoint=False)
    rho = 1.0
    while rho <= max_rho:
        lf, _ = handle.log_f_and_q(rho * np.exp(1j * angles))
        mask = lf.real > threshold
        if mask.any():
            break
        rho *= 1.5
    if rho > max_rho:
        raise NoTractFound("no escape at |f| > R e within the search annulus")
    # contiguous angular clusters, wrapping around
    idx = np.flatnonzero(mask)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    runs = np.split(idx, breaks + 1)
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][-1] == n_angles - 1:
        runs[0] = np.concatenate([runs[-1] - n_angles, runs[0]])
        runs.pop()
    branches = []
    for run in runs:
        center = angles[run[len(run) // 2] % n_angles]
        z_b = rho * np.exp(1j * center)
        lf, _ = handle.log_f_and_q(z_b)
        branches.append(TractBranch(handle, complex(z_b), _wrap_imag(lf)))
    return branches


_BRANCH_BUILDERS = {
    lz.ExpPower: _closed_branches_exp_power,
    lz.CompositeExpModel: _closed_branches_composite,
    lz.KoenigsLinearizer: _sampled_branches,
}


def find_tracts(handle, R, max_rho=1e12):
    """Atlas of tracts at radius R, one TractBranch per located component.

    max_rho bounds the search annulus of a sampled family.
    """
    if R < max(1.0, handle.singular_radius):
        raise ValueError("R below the singular radius")
    tracts = _BRANCH_BUILDERS[type(handle)](handle, R, max_rho)
    return TractAtlas(handle, float(R), tracts)


# ---------------------------------------------------------------------------
# phi evaluation


def _newton(handle, z, xi, cap):
    """(z, q) with q = (log f)'(z) once the residual converges, else (z, None)."""
    for _ in range(_NEWTON_MAXIT):
        lf, q = handle.log_f_and_q(z)
        res = _wrap_imag(lf - xi)
        if abs(res) < _NEWTON_TOL * (1.0 + abs(xi)):
            return z, q
        if abs(q) < 1e-300:
            raise ZeroDenominator("vanishing f'/f during correction")
        step = res / q
        if abs(step) > cap:
            step *= cap / abs(step)
        z = z - step
    return z, None


def _check_offset(xi):
    if np.min(np.real(xi)) < MIN_OFFSET:
        raise ValueError("Re xi below the minimum offset %g" % MIN_OFFSET)


def phi_eval(branch, xi):
    """z in the tract with log f(z) = xi, by continuation from cached anchors."""
    if branch.sampled:
        return _from_anchor(branch, complex(xi))[0]
    _check_offset(xi)
    return branch.closed_phi(xi)


def _from_anchor(branch, xi):
    """(phi(xi), q or None) walked from the nearest anchor; xi is stored."""
    _check_offset(xi)
    n = branch._n_anchors
    i = int(np.argmin(np.abs(branch._anchors[0, :n] - xi)))  # first nearest
    anchor_xi, z = branch._anchors[:, i].tolist()
    z, q = _continue_to(branch, anchor_xi, z, None, xi)
    if n < _MAX_ANCHORS:
        branch._anchors[:, n] = xi, z
        branch._n_anchors = n + 1
    return z, q


def _continue_to(branch, current, z, q, xi):
    """Walk z = phi(current) to phi(xi) with trust-region predictor steps.

    q is (log f)'(z) when the caller has it, else None; the walk returns
    (phi(xi), q at it), q still None when no step was taken.
    Step sizes grow geometrically while the winding guard accepts and halve
    when it rejects, so affine-like tracts take O(log) steps per decade while
    curved geometry self-limits.
    """
    trust = branch._trust
    if trust is None:
        trust = 0.4 * max(current.real, 1.0)
    while current != xi:
        remaining = xi - current
        max_step = max(trust, 1e-12)
        while True:
            step = remaining
            if abs(step) > max_step:
                step *= max_step / abs(step)
            target = current + step
            if q is None:
                _, q = branch.handle.log_f_and_q(z)
            if abs(q) < 1e-300:
                raise ZeroDenominator("vanishing f'/f on continuation path")
            z_pred = z + step / q  # tangent predictor: dz/dxi = 1/(log f)'
            cap = 2.0 * max(abs(z_pred), 1.0)
            z_new, q_new = _newton(branch.handle, z_pred, target, cap)
            if q_new is not None:
                # adjacent 2 pi i sheets sit ~ 2 pi |phi'| away; a correction
                # larger than a third of that means the predictor may have
                # hopped windings
                sheet = _TWO_PI / max(abs(q_new), 1e-300)
                if abs(z_new - z_pred) <= 0.3 * sheet or abs(step) < 1e-10:
                    trust = max_step * 1.5
                    break
            max_step /= 2
            trust = max_step
            if max_step < 1e-12:
                raise ContinuationStall("step underflow near xi = %s" % xi)
        current, z, q = target, z_new, q_new
    branch._trust = trust
    return z, q


def phi_path(branch, xis):
    """phi and phi' along an ordered sequence of nearby xi values.

    The one batch entry for both kinds of branch.  A closed-form branch
    takes an array of any shape.  A sampled branch continues sequentially,
    carrying state from node to node; much cheaper than independent
    phi_eval calls for quadrature contours.
    """
    if not branch.sampled:
        return _closed(branch, xis)
    xis = [complex(x) for x in xis]
    zs = np.empty(len(xis), dtype=complex)
    ds = np.empty(len(xis), dtype=complex)
    z, q = _from_anchor(branch, xis[0])
    current = xis[0]
    for i, xi in enumerate(xis):
        z, q = _continue_to(branch, current, z, q, xi)
        current = xi
        if q is None:
            _, q = branch.handle.log_f_and_q(z)
        zs[i] = z
        ds[i] = 1.0 / q
    return zs, ds


def _phi_and_derivative(branch, xi):
    """(phi(xi), phi'(xi)) from one continuation; phi' = 1 / (log f)'(phi)."""
    if not branch.sampled:
        return phi_eval(branch, xi), branch.closed_dphi(xi)
    z, q = _from_anchor(branch, complex(xi))
    if q is None:
        _, q = branch.handle.log_f_and_q(z)
    if abs(q) < 1e-300:
        raise ZeroDenominator("vanishing f'/f at phi(xi)")
    return z, 1.0 / q


def phi_derivative(branch, xi):
    """phi'(xi) = 1 / (log f)'(phi(xi)), the exact chain rule for f o phi = exp."""
    if not branch.sampled:
        return branch.closed_dphi(xi)
    return _phi_and_derivative(branch, xi)[1]


def tract_scale(branch, T):
    """|phi(T)|, the normalization of Eq-style rescaling; cached per T."""
    key = float(T)
    if key not in branch._scales:
        branch._scales[key] = abs(phi_eval(branch, complex(key)))
    return branch._scales[key]


def rescaled_map(branch, T, xi):
    """phi_T(xi) = phi(T xi) / |phi(T)|; satisfies |phi_T(1)| = 1."""
    if T < 1:
        raise ValueError("T must be >= 1")
    return phi_eval(branch, T * complex(xi)) / tract_scale(branch, T)


# ---------------------------------------------------------------------------
# Boundary traces and diagnostics


def _rectangle_path(n_points, eps=MIN_OFFSET):
    """Uniform closed path around [eps, 4] x [-4, 4] in parameter space."""
    corners = [eps - 4j, 4 - 4j, 4 + 4j, eps + 4j, eps - 4j]
    lengths = [abs(corners[i + 1] - corners[i]) for i in range(4)]
    per = sum(lengths)
    pts = []
    for i in range(4):
        m = max(2, int(round(n_points * lengths[i] / per)))
        for s in np.linspace(0.0, 1.0, m, endpoint=False):
            pts.append(corners[i] + s * (corners[i + 1] - corners[i]))
    return pts


def trace_boundary(branch, T, n_points=512):
    if n_points < 64:
        raise ValueError("n_points must be >= 64")
    path = _rectangle_path(n_points)
    scale = tract_scale(branch, T)
    poly = [phi_eval(branch, T * xi) / scale for xi in path]
    poly.append(poly[0])
    return RescaledBoundary(float(T), scale, poly)


def _sample_annulus_qt(T, samples, inner_frac=0.125):
    """Deterministic low-discrepancy sample of Q_T minus Q_{T/8}.

    Drawn in normalized (xi/T) coordinates with a fixed normalized floor so
    the sample scales exactly with T: reported ratios are bitwise
    T-independent for homogeneous phi (phi(T xi) = T^a phi(xi)).
    """
    h2, h3 = _halton(4 * samples, 2), _halton(4 * samples, 3)
    re_n = MIN_OFFSET + (4 - MIN_OFFSET) * h2
    im_n = (2 * h3 - 1) * 4
    keep = ~((re_n < 4 * inner_frac) & (np.abs(im_n) < 4 * inner_frac))
    return T * (re_n + 1j * im_n)[keep][:samples]


def check_condition_42(branch, T, samples=400):
    """max/min of |phi| over Q_T minus Q_{T/8}; bounded ratios across a T-grid
    certify the geometric condition used for distortion control."""
    if samples < 100:
        raise ValueError("samples must be >= 100")
    mods = [abs(phi_eval(branch, xi)) for xi in _sample_annulus_qt(T, samples)]
    return max(mods) / min(mods)


def estimate_holder(branch, T, pairs=2000):
    """Envelope fit of log|g(z1)-g(z2)| vs log|z1-z2| for g = phi(T .)
    normalized by |g'(1)| = T |phi'(T)|; returns (alpha_hat, H_hat)."""
    if pairs < 1000:
        raise ValueError("pairs must be >= 1000")
    h2, h3 = _halton(pairs, 2), _halton(pairs, 3)
    h5, h7 = _halton(pairs, 5), _halton(pairs, 7)
    z1 = (MIN_OFFSET + (4 - MIN_OFFSET) * h2) + 1j * (8 * h3 - 4)
    # half independent pairs, half correlated across a geometric range of
    # separations so every distance bin sees near-boundary geometry
    half = pairs // 2
    sep = 4.0 * 2.0 ** (-12.0 * h5[half:])
    z2 = np.empty(pairs, dtype=complex)
    z2[:half] = (MIN_OFFSET + (4 - MIN_OFFSET) * h5[:half]) + 1j * (8 * h7[:half] - 4)
    z2[half:] = z1[half:] + sep * np.exp(2j * np.pi * h7[half:])
    inside = (z2.real >= MIN_OFFSET) & (z2.real <= 4) & (np.abs(z2.imag) <= 4)
    z1, z2 = z1[inside], z2[inside]
    norm = T * abs(phi_derivative(branch, complex(T)))
    xs, ys = [], []
    for a, b in zip(z1, z2):
        if a == b:
            continue  # degenerate pair carries no slope information
        ga = phi_eval(branch, T * a)
        gb = phi_eval(branch, T * b)
        gap = abs(ga - gb) / norm
        if gap == 0:
            continue
        xs.append(np.log(abs(a - b)))
        ys.append(np.log(gap))
    xs, ys = np.asarray(xs), np.asarray(ys)
    bins = np.linspace(xs.min(), xs.max() + 1e-9, 13)
    ex, ey = [], []
    for i in range(12):
        sel = (xs >= bins[i]) & (xs < bins[i + 1])
        if sel.any():
            ex.append(0.5 * (bins[i] + bins[i + 1]))
            ey.append(ys[sel].max())
    slope, intercept = np.polyfit(ex, ey, 1)
    # a conformal map cannot beat Lipschitz at small scales; trim fit noise
    return float(min(slope, 1.0)), float(np.exp(intercept))


def el_violations(branch, T=16.0, samples=10000):
    """Count of sampled xi violating |phi'(xi)/phi(xi)| <= 4 pi / Re xi."""
    h2, h3 = _halton(samples, 2), _halton(samples, 3)
    re = MIN_OFFSET + (4 * T - MIN_OFFSET) * h2
    im = (2 * h3 - 1) * 4 * T
    bad = 0
    for xi in re + 1j * im:
        z, dphi = _phi_and_derivative(branch, xi)
        ratio = abs(dphi / z)
        if ratio > 4 * np.pi / xi.real * (1 + 1e-9):
            bad += 1
    return bad
