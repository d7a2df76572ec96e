"""Logarithmic-tract geometry: locating tracts, the inverse map phi, rescaling.

A tract of a handle f at radius R is an unbounded component of
f^{-1}({|w| > R}).  On each tract f = exp o tau with tau = log f conformal
onto a right half-plane region, and phi = tau^{-1} is evaluated either in
closed form (exponential and composite families) or by predictor-corrector
continuation on the wrapped residual log f(z) - xi (Koenigs family).  This
module alone knows which.  Callers go through three entries with one
contract: phi_eval, phi_path and phi_refine each take xi as a scalar or an
array of any shape and return (phi, phi') of that shape.  On a closed-form
branch all three are the same call of TractBranch.closed; on a sampled
branch they differ only in how z is found.  phi_eval walks each point
independently from its nearest cached anchor, phi_path walks the points in
order, and phi_refine polishes given guesses by batched Newton, in blocks
of at most _REFINE_BLOCK points so that its temporaries stay a block's
size; each point's Newton reads only that point, so the blocks leave
every bit as one batch would.  A fourth
entry, log_weight, returns log|phi'/phi| of that shape for callers that
drop phi: an e^{z^d} branch reads it from xi alone through
TractBranch.weight, any other branch from one phi_path call, and
log_ratio is the same weight of (phi, phi') pairs a caller has walked.
Callers ask TractBranch.sampled where the cost of continuation matters
to them.  The figures taken over a sample of xi (condition (4.2), the
Hoelder fit, the derivative-quotient bound) draw it from
``numerics.halton``.
A sampled branch carries two pieces of state from walk to walk: its
anchor table and TractBranch._trust, the continuation step size its last
walk ended with.  tract_scale and rescaled_map evaluate phi afresh on
every call.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from . import linearizer as lz
from .errors import ContinuationStall, NoTractFound, ZeroDenominator
from .numerics import halton

MIN_OFFSET = 0.05  # Re xi floor; phi extends only continuously to the boundary
_NEWTON_TOL = 1e-11
_NEWTON_MAXIT = 50
_MAX_ANCHORS = 4096
_MAX_RHO = 1e12  # outer radius of a sampled family's tract search
_MAX_TRUST = 1e300  # a finite ceiling: halving an infinite step never ends
_WALK_BUDGET = 20000  # Newton corrections per continuation walk
#: Points per block of a sampled phi_refine, and so the most points of one
#: log f evaluation there, whose ladder and Newton temporaries hold every
#: point they are passed.  The spectrum tables of koenigs:z^2-1 make
#: 16,384-point calls at T = 2^8 and 2^9; at 4,096 points a process
#: building them peaks at 36.3 MB of RSS, against 37.4 MB at 8,192,
#: 36.3 MB at 2,048 and 39.8-40.0 MB unblocked, and their allocations
#: peak at 4.2 MiB instead of 7.1 MiB, with no change in time.
_REFINE_BLOCK = 4096
_TWO_PI = 2 * np.pi


def _wrap_imag(w):
    """Reduce the imaginary part to (-pi, pi] — residuals live on the cylinder."""
    return complex(w.real, (w.imag + np.pi) % _TWO_PI - np.pi)


@dataclass
class TractBranch:
    """One tract of a handle with its inverse map phi.

    closed maps an array of xi of any shape to (phi, phi') when the family
    has them in closed form, and weight, when set, maps it to log|phi'/phi|
    without forming phi.  Otherwise the branch is sampled: phi is continued
    numerically from cached anchors, the first _n_anchors columns of the
    3-row _anchors table being solved (xi, phi(xi), q) triples with
    q = (log f)'(phi(xi)), and _trust is the continuation step size the
    last walk ended with.  Anchor 0 is the base point, a point of the tract
    where |f| > R e, its xi being log f there with the imaginary part in
    (-pi, pi].  A closed-form branch has no anchor table.
    """

    handle: object
    closed: object = None
    weight: object = None
    _anchors: np.ndarray = field(default=None, repr=False, compare=False)
    _n_anchors: int = field(init=False, default=1)
    _trust: float = field(init=False, default=None)

    @property
    def sampled(self):
        """True when phi is continued numerically, not known in closed form."""
        return self.closed is None


@dataclass
class TractAtlas:
    function: object
    radius: float
    tracts: list

    @property
    def shared_weight(self):
        """The closed-form weight every branch carries, when they all carry
        the same one (the rotated tracts of e^(z^d)), else None: its
        branches' log weights at any xi are then the same floats."""
        weight = self.tracts[0].weight
        if all(b.weight is weight for b in self.tracts):
            return weight
        return None


# ---------------------------------------------------------------------------
# Tract location


def _closed_branches_exp_power(handle, R):
    d, lam = handle.d, handle.lam
    # f(z) = e^xi  <=>  z^d = xi - log lam; one tract per d-th root sector
    shift = cmath.log(lam)

    def weight(xi):
        # phi'/phi = 1/(d w) on every sector, so no power is taken
        w = np.abs(xi - shift)
        if d > 1:
            w *= d
        return -np.log(w)[()]

    branches = []
    for j in range(d):
        rot = cmath.exp(2j * np.pi * j / d)

        def closed(xi, rot=rot):
            w = np.asarray(xi, dtype=complex) - shift
            if d == 1:
                return rot * w ** (1.0 / d), rot * w ** (1.0 / d - 1.0) / d
            # one power, on a 1-d view so that a scalar xi takes the numpy
            # path of an array; phi' = phi / (d w) is divided into w's copy
            z = w.reshape(-1) ** (1.0 / d)
            z *= rot
            dz = w.reshape(-1)
            dz *= d
            np.divide(z, dz, out=dz)
            return z.reshape(w.shape)[()], dz.reshape(w.shape)[()]

        branches.append(TractBranch(handle, closed, weight))
    return branches


def _closed_branches_composite(handle, R):
    inner_atlas = find_tracts(handle.inner, R)
    branches = []
    for ib in inner_atlas.tracts:
        if ib.sampled:
            raise ValueError(
                "composite_exp needs an inner handle with closed-form tracts")

        def closed(xi, ib=ib):
            z, dz = ib.closed(xi)
            return np.log(z), dz / z

        branches.append(TractBranch(handle, closed))
    return branches


def _sampled_branches(handle, R):
    threshold = np.log(R) + 1.0  # base points must satisfy |f| > R e
    n_angles = 720
    angles = np.linspace(0.0, _TWO_PI, n_angles, endpoint=False)
    rho = 1.0
    while rho <= _MAX_RHO:
        lf, _ = handle.log_f_and_q(rho * np.exp(1j * angles))
        mask = lf.real > threshold
        if mask.any():
            break
        rho *= 1.5
    if rho > _MAX_RHO:
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
        lf, q = handle.log_f_and_q(z_b)
        anchors = np.empty((3, _MAX_ANCHORS), dtype=complex)
        anchors[:, 0] = _wrap_imag(lf), z_b, q
        branches.append(TractBranch(handle, _anchors=anchors))
    return branches


_BRANCH_BUILDERS = {
    lz.ExpPower: _closed_branches_exp_power,
    lz.CompositeExpModel: _closed_branches_composite,
    lz.KoenigsLinearizer: _sampled_branches,
}


def find_tracts(handle, R):
    """Atlas of tracts at radius R, one TractBranch per located component."""
    floor = max(1.0, handle.singular_radius)
    if R < floor:
        raise ValueError("R = %g is below the singular radius %g" % (R, floor))
    tracts = _BRANCH_BUILDERS[type(handle)](handle, R)
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
    if np.any(np.real(xi) < MIN_OFFSET):
        raise ValueError("Re xi below the minimum offset %g" % MIN_OFFSET)


def _from_anchor(branch, xi):
    """(phi(xi), q) walked from the nearest anchor; xi is stored unless an
    anchor already sits exactly there."""
    n = branch._n_anchors
    i = int(np.argmin(np.abs(branch._anchors[0, :n] - xi)))  # first nearest
    anchor_xi, z, q = branch._anchors[:, i].tolist()
    z, q = _continue_to(branch, anchor_xi, z, q, xi)
    if n < _MAX_ANCHORS and anchor_xi != xi:
        branch._anchors[:, n] = xi, z, q
        branch._n_anchors = n + 1
    return z, q


def _continue_to(branch, current, z, q, xi):
    """Walk z = phi(current), q = (log f)'(z) to (phi(xi), q at it).

    Trust-region predictor steps: step sizes grow geometrically while the
    winding guard accepts and halve when it rejects, so affine-like tracts
    take O(log) steps per decade while curved geometry self-limits.  The
    trust carried between walks stops at _MAX_TRUST, and a rejected full
    step is halved until it is shorter than what remains, since solving it
    again would be rejected again.  A walk that needs more than
    _WALK_BUDGET corrections has run away and raises ContinuationStall.
    """
    trust = branch._trust
    if trust is None:
        trust = 0.4 * max(current.real, 1.0)
    corrections = 0
    while current != xi:
        remaining = xi - current
        max_step = max(trust, 1e-12)
        while True:
            step = remaining
            if abs(step) > max_step:
                step *= max_step / abs(step)
            target = current + step
            if abs(q) < 1e-300:
                raise ZeroDenominator("vanishing f'/f on continuation path")
            z_pred = z + step / q  # tangent predictor: dz/dxi = 1/(log f)'
            cap = 2.0 * max(abs(z_pred), 1.0)
            corrections += 1
            if corrections > _WALK_BUDGET:
                raise ContinuationStall("no phi after %d corrections toward "
                                        "xi = %s" % (_WALK_BUDGET, xi))
            z_new, q_new = _newton(branch.handle, z_pred, target, cap)
            if q_new is not None:
                # adjacent 2 pi i sheets sit ~ 2 pi |phi'| away; a correction
                # larger than a third of that means the predictor may have
                # hopped windings
                sheet = _TWO_PI / max(abs(q_new), 1e-300)
                if abs(z_new - z_pred) <= 0.3 * sheet or abs(step) < 1e-10:
                    trust = min(max_step * 1.5, _MAX_TRUST)
                    break
            max_step /= 2
            while max_step >= abs(remaining):
                max_step /= 2
            trust = max_step
            if max_step < 1e-12:
                raise ContinuationStall("step underflow near xi = %s" % xi)
        current, z, q = target, z_new, q_new
    branch._trust = trust
    return z, q


def _walk(branch, xi, chained):
    """(phi, phi') of a sampled branch at each xi, in ravel order.

    Each point is walked from its nearest anchor, or, when chained, every
    point after the first from the one before it.
    """
    zs = np.empty(xi.shape, dtype=complex)
    ds = np.empty(xi.shape, dtype=complex)
    for i, x in enumerate(xi.ravel().tolist()):
        if i and chained:
            z, q = _continue_to(branch, prev, z, q, x)
        else:
            z, q = _from_anchor(branch, x)
        if abs(q) < 1e-300:
            raise ZeroDenominator("vanishing f'/f at phi(xi)")
        zs.flat[i], ds.flat[i] = z, 1.0 / q
        prev = x
    return zs[()], ds[()]


def phi_eval(branch, xi):
    """(phi, phi') at xi, one point at a time.

    phi' = 1 / (log f)'(phi), the exact chain rule for f o phi = exp.  On a
    sampled branch each point, in ravel order, is walked from its nearest
    cached anchor and then stored as one, exactly as a loop of scalar calls
    would do.
    """
    xi = np.asarray(xi, dtype=complex)
    _check_offset(xi)
    if not branch.sampled:
        return branch.closed(xi)
    return _walk(branch, xi, chained=False)


def phi_path(branch, xis):
    """(phi, phi') along an ordered sequence of nearby xi values.

    A sampled branch walks the first point from its nearest anchor and each
    later one from the point before, in ravel order; much cheaper than
    phi_eval for quadrature contours.
    """
    xis = np.asarray(xis, dtype=complex)
    _check_offset(xis)
    if not branch.sampled:
        return branch.closed(xis)
    return _walk(branch, xis, chained=True)


def log_weight(branch, xi):
    """log|phi'(xi)/phi(xi)|, the transfer operator's log weight, at xi.

    A branch with a closed-form weight reads it from xi alone; any other
    branch takes it from one phi_path call, so a sampled branch's anchors
    evolve as under phi_path.
    """
    xi = np.asarray(xi, dtype=complex)
    _check_offset(xi)
    if branch.weight is not None:
        return branch.weight(xi)
    z, dphi = phi_path(branch, xi)
    return log_ratio(z, dphi)


def log_ratio(z, dphi):
    """log|dphi| - log|z|, the log weight of walked (phi, phi') pairs."""
    return np.log(np.abs(dphi)) - np.log(np.abs(z))


def phi_refine(branch, xi, z_guess):
    """(phi, phi') at xi by batched Newton polish of nearby guesses.

    Used by quadrature refinement where interleaved nodes inherit
    interpolated guesses from the coarser level; the wrapped residual keeps
    each point on its own 2 pi i sheet.
    Only the points not yet converged are evaluated again; each returned
    phi' is 1/(log f)' at the returned z.  A sampled branch polishes the
    points, in ravel order, in consecutive blocks of at most _REFINE_BLOCK,
    each with its own Newton loop, so its working memory does not grow with
    the number of points.  The blocks leave every bit as one loop over all
    points would: each point's Newton steps read only that point, and the
    log f evaluation gives each point the bits of its one-point call.
    ContinuationStall if some point has not converged after _NEWTON_MAXIT
    evaluations.  A closed-form branch ignores the guesses and returns
    exact values.
    """
    xi = np.asarray(xi, dtype=complex)
    _check_offset(xi)
    if not branch.sampled:
        return branch.closed(xi)
    shape, xi = xi.shape, xi.ravel()
    z = np.array(z_guess, dtype=complex).ravel()
    q = np.empty_like(z)
    for lo in range(0, z.size, _REFINE_BLOCK):
        block = slice(lo, lo + _REFINE_BLOCK)
        _polish(branch.handle, xi[block], z[block], q[block])
    return z.reshape(shape)[()], (1.0 / q).reshape(shape)[()]


def _polish(handle, xi, z, q):
    """Active-set Newton for log f(z) = xi, writing z and q in place."""
    active = np.arange(z.size)
    for _ in range(_NEWTON_MAXIT):
        lf, q[active] = handle.log_f_and_q(z[active])
        res = lf - xi[active]
        res = np.real(res) + 1j * ((np.imag(res) + np.pi) % _TWO_PI - np.pi)
        # a nan residual stays active
        todo = ~(np.abs(res) < _NEWTON_TOL * (1.0 + np.abs(xi[active])))
        if not todo.any():
            return
        active = active[todo]
        step = res[todo] / q[active]
        cap = 2.0 * np.maximum(np.abs(z[active]), 1.0)
        big = np.abs(step) > cap
        step = np.where(big, step * (cap / np.where(big, np.abs(step), 1.0)), step)
        z[active] -= step
    raise ContinuationStall("batched refinement did not converge")


def tract_scale(branch, T):
    """|phi(T)|, the normalization of Eq-style rescaling."""
    return abs(phi_eval(branch, complex(float(T)))[0])


def rescaled_map(branch, T, xi):
    """phi_T(xi) = phi(T xi) / |phi(T)|; satisfies |phi_T(1)| = 1."""
    if T < 1:
        raise ValueError("T must be >= 1")
    return phi_eval(branch, T * complex(xi))[0] / tract_scale(branch, T)


# ---------------------------------------------------------------------------
# Boundary traces and diagnostics


def _rectangle_path(n_points):
    """Uniform closed path around [MIN_OFFSET, 4] x [-4, 4] (xi / T)."""
    corners = [MIN_OFFSET - 4j, 4 - 4j, 4 + 4j, MIN_OFFSET + 4j,
               MIN_OFFSET - 4j]
    lengths = [abs(corners[i + 1] - corners[i]) for i in range(4)]
    per = sum(lengths)
    pts = []
    for i in range(4):
        m = max(2, int(round(n_points * lengths[i] / per)))
        for s in np.linspace(0.0, 1.0, m, endpoint=False):
            pts.append(corners[i] + s * (corners[i + 1] - corners[i]))
    return pts


def trace_boundary(branch, T):
    """Closed polyline of phi_T around the rectangle path, first point last."""
    scale = tract_scale(branch, T)  # first: its anchor seeds the walks
    xi = T * np.asarray(_rectangle_path(512))
    poly = (phi_eval(branch, xi)[0] / scale).tolist()
    poly.append(poly[0])
    return poly


def _sample_annulus_qt(T, samples):
    """Deterministic low-discrepancy sample of Q_T minus Q_{T/8}.

    Drawn in normalized (xi/T) coordinates with a fixed normalized floor so
    the sample scales exactly with T: reported ratios are bitwise
    T-independent for homogeneous phi (phi(T xi) = T^a phi(xi)).
    """
    h2, h3 = halton(4 * samples, 2), halton(4 * samples, 3)
    re_n = MIN_OFFSET + (4 - MIN_OFFSET) * h2
    im_n = (2 * h3 - 1) * 4
    keep = ~((re_n < 0.5) & (np.abs(im_n) < 0.5))
    return T * (re_n + 1j * im_n)[keep][:samples]


def check_condition_42(branch, T, samples=400):
    """max/min of |phi| over Q_T minus Q_{T/8}; bounded ratios across a T-grid
    certify the geometric condition used for distortion control."""
    if samples < 100:
        raise ValueError("samples must be >= 100")
    mods = np.abs(phi_eval(branch, _sample_annulus_qt(T, samples))[0])
    return float(mods.max() / mods.min())


def estimate_holder(branch, T, pairs=2000):
    """Envelope fit of log|g(z1)-g(z2)| vs log|z1-z2| for g = phi(T .)
    normalized by |g'(1)| = T |phi'(T)|; returns (alpha_hat, H_hat)."""
    if pairs < 1000:
        raise ValueError("pairs must be >= 1000")
    h2, h3 = halton(pairs, 2), halton(pairs, 3)
    h5, h7 = halton(pairs, 5), halton(pairs, 7)
    z1 = (MIN_OFFSET + (4 - MIN_OFFSET) * h2) + 1j * (8 * h3 - 4)
    # half independent pairs, half correlated across a geometric range of
    # separations so every distance bin sees near-boundary geometry
    half = pairs // 2
    sep = 4.0 * 2.0 ** (-12.0 * h5[half:])
    z2 = np.empty(pairs, dtype=complex)
    z2[:half] = (MIN_OFFSET + (4 - MIN_OFFSET) * h5[:half]) + 1j * (8 * h7[:half] - 4)
    z2[half:] = z1[half:] + sep * np.exp(2j * np.pi * h7[half:])
    inside = (z2.real >= MIN_OFFSET) & (z2.real <= 4) & (np.abs(z2.imag) <= 4)
    inside &= z1 != z2  # a degenerate pair carries no slope information
    z1, z2 = z1[inside], z2[inside]
    norm = T * abs(phi_eval(branch, complex(T))[1])
    # rows (a, b): a sampled branch walks a0, b0, a1, b1, ... in that order
    g = phi_eval(branch, T * np.stack([z1, z2], axis=1))[0]
    gap = np.abs(g[:, 0] - g[:, 1]) / norm
    keep = gap != 0
    xs, ys = np.log(np.abs(z1 - z2)[keep]), np.log(gap[keep])
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


def el_violations(branch, samples=10000):
    """Sampled xi of Q_16 violating |phi'(xi)/phi(xi)| <= 4 pi / Re xi; a
    nan quotient violates it too."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    h2, h3 = halton(samples, 2), halton(samples, 3)
    re = MIN_OFFSET + (64 - MIN_OFFSET) * h2
    im = (2 * h3 - 1) * 64
    xi = re + 1j * im
    z, dphi = phi_eval(branch, xi)
    return int(np.count_nonzero(
        ~(np.abs(dphi / z) <= 4 * np.pi / xi.real * (1 + 1e-9))))
