"""Transfer-operator sums over tract atlases.

The operator acts on the constant function: its value at w is the sum of
|phi'(xi_k)/phi(xi_k)|^t over the logarithmic preimages
xi_k = log|w| + i(arg w + 2 pi k), accumulated per tract branch in dyadic
k-blocks so that truncation and divergence are both visible from the
block-sum profile.  The preimages do not depend on t, so
``transfer_apply_point`` reads their weights once for a whole t grid.
Weights come from ``tract.log_weight``; phi itself is walked only where
its value is kept, at the frontier levels whose preimages expand.

Iterated powers split into a t-independent part and a per-t sum:
``iterate_frontier`` walks the preimage tree at w once and keeps, per
depth, the sorted path sums of log|phi'/phi| along every preimage chain,
and ``transfer_iterate`` and ``pressure_entire`` evaluate one t on that
frontier as a sum of e^(t * path sum).  A pressure curve or a Bowen-zero
bisection therefore walks the frontier and sorts its sums once, not
once per t; only depth 1, the point operator with its divergence check,
reads its own k-blocks of weights again at every t.
The frontier's working memory is its levels plus one block of at most
``_FRONTIER_ROWS`` parent rows, as each level is filled in place and the
last one sorted in place (22.1 MiB of numpy allocations for e^(z^2)'s
16.6 MiB last level; 70.4 MiB when rows were concatenated and copied).
``transfer_iterate`` uses one scratch array of the level's size.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tract as tr
from .errors import BudgetExceeded, DivergenceDetected, Underflow
from .numerics import solve_decreasing

_TWO_PI = 2.0 * math.pi
_REL_STOP = 1e-10
_DIVERGENCE_STREAK = 4
_GROWTH_MARGIN = 0.02
_RATIO_CAP = 0.9
DEFAULT_K_CLOSED = 1 << 19
DEFAULT_K_SAMPLED = 1 << 10
_FRONTIER_CAP = 1 << 24
_FRONTIER_ROWS = 2048  # parent rows per block of a closed-form frontier level
BASE_POINT = complex(math.e ** 2)


def _default_budget(atlas):
    if any(b.sampled for b in atlas.tracts):
        return DEFAULT_K_SAMPLED
    return DEFAULT_K_CLOSED


def _preimages(logw, argw, ks):
    """xi = logw + i(argw + 2 pi k) for an ordered k-array.

    It broadcasts, so column arrays of logw and argw give one row of
    preimages per point.
    """
    return logw + 1j * (argw + _TWO_PI * np.asarray(ks, dtype=float))


def _block_ks(n):
    # Block 0 is |k| <= 1; block n covers 2^(n-1) < |k| <= 2^n.  Both
    # halves are ordered walking away from the real axis so sampled
    # branches continue from the previous block's anchors.
    if n == 0:
        return np.array([-1]), np.array([0, 1])
    lo, hi = (1 << (n - 1)) + 1, 1 << n
    pos = np.arange(lo, hi + 1)
    return -pos, pos


def _check_outside(atlas, w):
    """ValueError unless w lies outside the reference circle, where its
    preimages lie in the tracts."""
    if abs(w) <= atlas.radius:
        raise ValueError("|w| = %g is not outside the reference circle "
                         "|w| = %g" % (abs(w), atlas.radius))


def _split_point(w):
    w = complex(w)
    logw = math.log(abs(w))
    if logw <= tr.MIN_OFFSET:
        raise ValueError("|w| too small: preimages leave the half-plane")
    return logw, math.atan2(w.imag, w.real)


@dataclass
class TransferSample:
    """The point operator at one t: its value, the preimage terms its walk
    read, the tail estimate and the dyadic block sums.  The w is the
    caller's, so a sample does not repeat it."""

    t: float
    value: float
    terms_used: int
    tail_estimate: float
    block_sums: list


class _GridSamples(list):
    """The samples of one grid walk, in grid order.

    ``terms_used`` is the number of preimage terms the shared walk
    evaluated, as a scalar call's sample reports for its own walk.
    """

    @property
    def terms_used(self):
        return max((s.terms_used for s in self), default=0)


def _dyadic_blocks(atlas, ts, w, k_budget):
    """Yield (block sums, term count) at each t of ts, from one walk of phi.

    Each t in turn runs the one-t loop on log|phi'/phi| read from a list
    of walked blocks, which grows by one block the first time a t needs
    it.  So phi is walked once, in block order, each t's sums are those of
    a walk for it alone, and the grid raises what a loop over ts would
    raise first.  The list holds at most 2 k_budget terms per branch.
    """
    logw, argw = _split_point(w)
    # blocks grow legitimately while 2 pi k < log|w|; divergence is only
    # judged past that knee, where the ratios have settled near 2^(1-t)
    knee = math.log2(max(logw, 2.0))
    walked = []  # block n: log|phi'/phi| per branch and half
    for t in ts:
        blocks, terms, streak, n = [], 0, 0, 0
        while True:
            if n == len(walked):
                walked.append([[tr.log_weight(branch,
                                              _preimages(logw, argw, ks))
                                for ks in _block_ks(n)]
                               for branch in atlas.tracts])
            block = 0.0
            for halves in walked[n]:
                part = 0.0
                for logterm in halves:
                    part += float(np.sum(np.exp(t * logterm)))
                    terms += len(logterm)
                block += part
            blocks.append(block)
            grew = n > knee and block >= blocks[-2] * (1.0 + _GROWTH_MARGIN)
            streak = streak + 1 if grew else 0
            if streak >= _DIVERGENCE_STREAK:
                raise DivergenceDetected(
                    "dyadic block sums growing over %d blocks at t=%g"
                    % (_DIVERGENCE_STREAK, t))
            # a block whose every term underflowed is settled: the terms
            # decay as |k| grows, so every later block underflows too
            settled = block == 0.0 or (
                n >= 1 and block < blocks[-2]
                and block < _REL_STOP * math.fsum(blocks))
            if settled or (1 << n) >= k_budget:
                break
            n += 1
        yield blocks, terms


def _sample(t, blocks, terms):
    value = math.fsum(blocks)
    if len(blocks) >= 2 and blocks[-2] > 0:
        ratio = min(blocks[-1] / blocks[-2], _RATIO_CAP)
    else:
        ratio = _RATIO_CAP
    tail = blocks[-1] / (1.0 - ratio)
    return TransferSample(float(t), value, terms, tail, blocks)


def transfer_apply_point(atlas, t, w, k_budget=None):
    """Operator value at w with dyadic truncation control.

    t is a number, which gives one TransferSample, or a sequence, which
    gives a list of them in grid order from a single walk of the
    preimages; every sample equals a scalar call's at its t on a fresh
    atlas.  Any t <= 0, or a w inside the reference circle, raises
    ValueError before phi is evaluated.
    """
    grid = np.ndim(t) > 0
    ts = list(t) if grid else [t]
    if any(x <= 0 for x in ts):
        raise ValueError("t must be positive")
    _check_outside(atlas, w)
    if k_budget is None:
        k_budget = _default_budget(atlas)
    samples = [_sample(x, *walk)
               for x, walk in zip(ts, _dyadic_blocks(atlas, ts, w, k_budget))]
    return _GridSamples(samples) if grid else samples[0]


def dyadic_exponents(block_sums):
    """Exponents e_n with block_n = 2^(n e_n), for n >= 1 and block_n > 0."""
    return [
        (n, math.log2(b) / n)
        for n, b in enumerate(block_sums) if n >= 1 and b > 0
    ]


def level_budgets(branch_budget, n):
    """Per-level k caps for the iterated operator, outermost first."""
    return [max(8, branch_budget >> (2 * level)) for level in range(n)]


@dataclass(frozen=True, eq=False)
class IterateFrontier:
    """The t-independent part of the iterated operator at w.

    ``levels[j]`` holds, in ascending order, one path sum per preimage of
    depth j + 1: the sum of log|phi'/phi| along its chain of preimages
    back to w, each step under one tract branch and for |k| <=
    ``level_budgets(...)[j]``.  Each level is a read-only float array.
    """

    atlas: object
    w: complex
    branch_budget: int
    levels: tuple

    @property
    def depth(self):
        return len(self.levels)


def iterate_frontier(atlas, w, n, branch_budget=128):
    """Walk the preimage tree of the n-th operator power at w once.

    The preimages and their log|phi'/phi| do not depend on t, so one
    frontier serves ``transfer_iterate`` at every t and every depth up to
    n (``level_budgets`` is prefix-stable).  w must lie outside the
    reference circle, or no preimage of it lies in a tract.
    """
    if not 1 <= n <= 4:
        raise ValueError("iterate depth limited to 1..4")
    _check_outside(atlas, w)
    log_radius = math.log(atlas.radius)
    sampled = any(b.sampled for b in atlas.tracts)
    zs = np.array([complex(w)])
    sums = np.array([0.0])  # path sum of each point of zs, in walk order
    levels = []
    for level, B in enumerate(level_budgets(branch_budget, n)):
        ks = np.arange(-B, B + 1)
        # a preimage lies in a tract only while its image stays outside
        # the reference circle, so shallower points have no expandable
        # children
        kept = np.flatnonzero(np.log(np.abs(zs)) > log_radius)
        # out[b, r] holds row r's preimages under branch b
        shape = (len(atlas.tracts), len(kept), 2 * B + 1)
        if math.prod(shape) > _FRONTIER_CAP:
            raise BudgetExceeded(
                "iterate frontier exceeds cap at level %d" % (level + 1)
            )
        # the last level's preimages expand no further, so only their
        # path sums are kept and phi is not formed
        expand = level < n - 1
        out = np.empty(shape)
        children = np.empty(shape if expand else (0, 0, 0), dtype=complex)
        # continuation walks one point at a time, in frontier order,
        # because each walk starts from the anchors the last one left
        step = 1 if sampled else _FRONTIER_ROWS
        for lo in range(0, len(kept), step):
            sub = kept[lo:lo + step]
            if sampled:
                logw, argw = _split_point(zs[sub[0]])
            else:
                logw = np.log(np.abs(zs[sub]))[:, None]
                argw = np.angle(zs[sub])[:, None]
            xi = _preimages(logw, argw, ks)
            for b, branch in enumerate(atlas.tracts):
                rows = np.s_[b, lo:lo + len(sub)]
                if expand:
                    child, dphi = tr.phi_path(branch, xi)
                    logterm = tr.log_ratio(child, dphi)
                    children[rows] = child.reshape(len(sub), -1)
                else:
                    logterm = tr.log_weight(branch, xi)
                np.add(logterm.reshape(len(sub), -1), sums[sub][:, None],
                       out=out[rows])
        sums, zs = out.ravel(), children.ravel()
        if not expand:  # only an expanding level is read in walk order
            sums.sort()
        levels.append(_read_only(np.sort(sums) if expand else sums))
    return IterateFrontier(atlas, complex(w), branch_budget, tuple(levels))


def _read_only(a):
    a.flags.writeable = False
    return a


def transfer_iterate(frontier, t, n):
    """n-th operator power on the constant function at the frontier's w.

    Depth 1 is ``transfer_apply_point``, with its divergence check; deeper
    powers sum e^(t * path sum) over the frontier's level n, whose
    ascending order t > 0 keeps.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if not 1 <= n <= frontier.depth:
        raise ValueError("iterate depth limited to 1..%d by the frontier"
                         % frontier.depth)
    if n == 1:
        return transfer_apply_point(frontier.atlas, t, frontier.w,
                                    k_budget=frontier.branch_budget).value
    buf = np.multiply(frontier.levels[n - 1], t)
    return float(np.sum(np.exp(buf, out=buf)))


@dataclass
class PressureFit:
    value: float
    residual: float


def pressure_entire(frontier, t):
    """Slope of log of iterated-operator values against the depth, at t.

    Underflow if some depth's value is 0 (every term below the smallest
    float), whose log the fit cannot take.
    """
    values = [transfer_iterate(frontier, t, n)
              for n in range(1, frontier.depth + 1)]
    if min(values) == 0.0:
        raise Underflow("iterated operator value underflows to 0 at t=%g "
                        "(depth %d)" % (t, values.index(0.0) + 1))
    logs = [math.log(v) for v in values]
    ns = np.arange(1, frontier.depth + 1, dtype=float)
    slope, intercept = np.polyfit(ns, logs, 1)
    residual = float(np.max(np.abs(slope * ns + intercept - logs)))
    return PressureFit(float(slope), residual)


def bowen_zero_entire(frontier, theta_hat):
    """Hyperbolic-dimension estimate: zero of the pressure on [theta_hat +
    0.05, 2.5] to width 0.02, every step on the one prebuilt frontier.  A
    divergent transfer sum is +inf pressure, which brackets from below."""

    def pressure(t):
        try:
            return pressure_entire(frontier, t).value
        except DivergenceDetected:
            return math.inf

    return solve_decreasing(pressure, theta_hat + 0.05, 2.5, 0.02)[0]


def scaling_band(atlas, t, s_grid=(2.0, 4.0, 8.0, 16.0, 32.0), n_args=4,
                 k_budget=None):
    """sup/inf over circles |w| = e^s of value * (log|w|)^(t-1)."""
    rows = []
    for s in s_grid:
        for j in range(n_args):
            arg = _TWO_PI * j / n_args
            w = complex(np.exp(s + 1j * arg))
            # a fresh atlas per row: a sampled branch keeps the anchors
            # its walks leave, which would tie each row to the ones before
            fresh = tr.find_tracts(atlas.function, atlas.radius)
            sample = transfer_apply_point(fresh, t, w, k_budget)
            rows.append((s, arg, sample.value * s ** (t - 1.0)))
    # np.max and np.min, unlike max and min, keep a nan
    sup = float(np.max([r[2] for r in rows]))
    inf = float(np.min([r[2] for r in rows]))
    return {"sup": sup, "inf": inf, "ratio": sup / inf, "rows": rows}
