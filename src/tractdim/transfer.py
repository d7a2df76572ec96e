"""Transfer-operator sums over tract atlases.

The operator acts on the constant function: its value at w is the sum of
|phi'(xi_k)/phi(xi_k)|^t over the logarithmic preimages
xi_k = log|w| + i(arg w + 2 pi k), accumulated per tract branch in dyadic
k-blocks so that truncation and divergence are both visible from the
block-sum profile.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import tract as tr
from .errors import BudgetExceeded, DivergenceDetected, NoSignChange
from .poly import bisect_bracket

_TWO_PI = 2.0 * math.pi
_REL_STOP = 1e-10
_DIVERGENCE_STREAK = 4
_GROWTH_MARGIN = 0.02
_RATIO_CAP = 0.9
DEFAULT_K_CLOSED = 1 << 19
DEFAULT_K_SAMPLED = 1 << 10
_FRONTIER_CAP = 1 << 24


def _default_budget(atlas):
    if any(b.sampled for b in atlas.tracts):
        return DEFAULT_K_SAMPLED
    return DEFAULT_K_CLOSED


def _log_weight_terms(branch, logw, argw, ks):
    """Per-preimage z and log|phi'/phi| for an ordered k-array.

    xi = logw + i(argw + 2 pi k) broadcasts, so column arrays of logw and
    argw give one row of preimages per point.
    """
    xi = logw + 1j * (argw + _TWO_PI * np.asarray(ks, dtype=float))
    z, dphi = tr.phi_path(branch, xi)
    return z, np.log(np.abs(dphi)) - np.log(np.abs(z))


def _block_ks(n):
    # Block 0 is |k| <= 1; block n covers 2^(n-1) < |k| <= 2^n.  Both
    # halves are ordered walking away from the real axis so sampled
    # branches continue from the previous block's anchors.
    if n == 0:
        return np.array([-1]), np.array([0, 1])
    lo, hi = (1 << (n - 1)) + 1, 1 << n
    pos = np.arange(lo, hi + 1)
    return -pos, pos


def _block_sum(branch, logw, argw, n, t):
    neg, pos = _block_ks(n)
    total = 0.0
    for ks in (neg, pos):
        _, logterm = _log_weight_terms(branch, logw, argw, ks)
        total += float(np.sum(np.exp(t * logterm)))
    return total, len(neg) + len(pos)


def _split_point(w):
    w = complex(w)
    logw = math.log(abs(w))
    if logw <= tr.MIN_OFFSET:
        raise ValueError("|w| too small: preimages leave the half-plane")
    return logw, math.atan2(w.imag, w.real)


@dataclass
class TransferSample:
    w: complex
    t: float
    value: float
    terms_used: int
    tail_estimate: float
    block_sums: list

    def to_json(self):
        return json.dumps(
            {
                "w": [self.w.real, self.w.imag],
                "t": self.t,
                "value": self.value,
                "terms_used": self.terms_used,
                "tail_estimate": self.tail_estimate,
                "block_sums": list(self.block_sums),
            },
            sort_keys=True,
        )


def _dyadic_blocks(atlas, t, w, k_budget, detect_divergence=True):
    logw, argw = _split_point(w)
    # blocks grow legitimately while 2 pi k < log|w|; divergence is only
    # judged past that knee, where the ratios have settled near 2^(1-t)
    knee = math.log2(max(logw, 2.0))
    blocks = []
    terms = 0
    streak = 0
    n = 0
    while True:
        block = 0.0
        for branch in atlas.tracts:
            part, count = _block_sum(branch, logw, argw, n, t)
            block += part
            terms += count
        blocks.append(block)
        if n >= 1:
            if n > knee and block >= blocks[-2] * (1.0 + _GROWTH_MARGIN):
                streak += 1
            else:
                streak = 0
            if detect_divergence and streak >= _DIVERGENCE_STREAK:
                raise DivergenceDetected(
                    "dyadic block sums growing over %d blocks at t=%g"
                    % (_DIVERGENCE_STREAK, t)
                )
            if block < blocks[-2] and block < _REL_STOP * math.fsum(blocks):
                break
        if (1 << n) >= k_budget:
            break
        n += 1
    return blocks, terms


def transfer_apply_point(atlas, t, w, k_budget=None):
    """Operator value at w with dyadic truncation control."""
    if t <= 0:
        raise ValueError("t must be positive")
    if k_budget is None:
        k_budget = _default_budget(atlas)
    blocks, terms = _dyadic_blocks(atlas, t, w, k_budget)
    value = math.fsum(blocks)
    if len(blocks) >= 2 and blocks[-2] > 0:
        ratio = min(blocks[-1] / blocks[-2], _RATIO_CAP)
    else:
        ratio = _RATIO_CAP
    tail = blocks[-1] / (1.0 - ratio)
    return TransferSample(complex(w), float(t), value, terms, tail, blocks)


def transfer_dyadic_profile(atlas, t, w, k_budget=None):
    """Per-block empirical exponents e_n with block_n ~ 2^(n e_n).

    Diagnostic only: divergent parameters produce growing exponents
    instead of an error, so borderline decay is inspectable.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if k_budget is None:
        k_budget = _default_budget(atlas)
    blocks, _ = _dyadic_blocks(atlas, t, w, k_budget, detect_divergence=False)
    return [
        (n, math.log2(b) / n) for n, b in enumerate(blocks) if n >= 1 and b > 0
    ]


def level_budgets(branch_budget, n):
    """Per-level k caps for the iterated operator, outermost first."""
    return [max(8, branch_budget >> (2 * level)) for level in range(n)]


def transfer_iterate(atlas, t, w, n, branch_budget=128):
    """n-th operator power on the constant function at w."""
    if t <= 0:
        raise ValueError("t must be positive")
    if not 1 <= n <= 4:
        raise ValueError("iterate depth limited to 1..4")
    if n == 1:
        return transfer_apply_point(atlas, t, w, k_budget=branch_budget).value
    budgets = level_budgets(branch_budget, n)
    log_radius = math.log(atlas.radius)
    sampled = any(b.sampled for b in atlas.tracts)
    zs = np.array([complex(w)])
    logwt = np.array([0.0])
    for level, B in enumerate(budgets):
        ks = np.arange(-B, B + 1)
        # a preimage lies in a tract only while its image stays outside
        # the reference circle, so shallower points have no expandable
        # children
        keep = np.log(np.abs(zs)) > log_radius
        zs, logwt = zs[keep], logwt[keep]
        if len(zs) * (2 * B + 1) * len(atlas.tracts) > _FRONTIER_CAP:
            raise BudgetExceeded(
                "iterate frontier exceeds cap at level %d" % (level + 1)
            )
        if sampled:
            # continuation walks one point at a time, in frontier order,
            # because each walk starts from the anchors the last one left
            points = [(*_split_point(z0), lw) for z0, lw in zip(zs, logwt)]
        else:
            points = [(np.log(np.abs(zs))[:, None], np.angle(zs)[:, None],
                       logwt[:, None])]
        new_z, new_logwt = [], []
        for logw, argw, lw in points:
            for branch in atlas.tracts:
                child, logterm = _log_weight_terms(branch, logw, argw, ks)
                new_z.append(child.ravel())
                new_logwt.append((lw + t * logterm).ravel())
        zs = np.concatenate(new_z)
        logwt = np.concatenate(new_logwt)
    return float(np.sum(np.exp(np.sort(logwt))))


@dataclass
class PressureFit:
    value: float
    residual: float
    per_n: list

    def __float__(self):
        return float(self.value)


def pressure_entire(atlas, t, w=None, n_max=3, branch_budget=128):
    """Slope of log of iterated-operator values against the depth."""
    if w is None:
        w = complex(math.e ** 2)
    logs = [
        math.log(transfer_iterate(atlas, t, w, n, branch_budget))
        for n in range(1, n_max + 1)
    ]
    ns = np.arange(1, n_max + 1, dtype=float)
    slope, intercept = np.polyfit(ns, logs, 1)
    residual = float(np.max(np.abs(slope * ns + intercept - logs)))
    return PressureFit(float(slope), residual, logs)


@dataclass
class EntirePressureCurve:
    t_grid: list
    values: list
    residuals: list
    n_levels: int
    branch_budget: int

    def to_json(self):
        return json.dumps(
            {
                "t_grid": list(self.t_grid),
                "pressure": list(self.values),
                "residuals": list(self.residuals),
                "n_levels": self.n_levels,
                "branch_budget": self.branch_budget,
            },
            sort_keys=True,
        )


def pressure_curve_entire(atlas, t_grid, w=None, n_max=3, branch_budget=128):
    fits = [pressure_entire(atlas, t, w, n_max, branch_budget) for t in t_grid]
    return EntirePressureCurve(
        t_grid=list(t_grid),
        values=[f.value for f in fits],
        residuals=[f.residual for f in fits],
        n_levels=n_max,
        branch_budget=branch_budget,
    )


def pressure_root(pfun, lo, hi, width=0.02):
    """Bisection zero of a decreasing pressure function on (lo, hi].

    A divergent transfer sum means the pressure is +inf at that t, which
    still carries bracketing information, so it counts as a positive value.
    """

    def signed(t):
        try:
            return pfun(t)
        except DivergenceDetected:
            return math.inf

    p_lo, p_hi = signed(lo), signed(hi)
    if p_lo <= 0 or p_hi > 0:
        raise NoSignChange("no sign change on bracket; endpoints: "
                           "[(%.6g, %.6g), (%.6g, %.6g)]" % (lo, p_lo, hi, p_hi))
    lo, hi = bisect_bracket(lambda t: not signed(t) <= 0, lo, hi, width)
    return 0.5 * (lo + hi)


def bowen_zero_entire(atlas, theta_hat, w=None, n_max=3, branch_budget=128,
                      width=0.02):
    """Hyperbolic-dimension estimate: zero of the pressure above theta."""
    lo = theta_hat + 0.05
    return pressure_root(
        lambda t: pressure_entire(atlas, t, w, n_max, branch_budget).value,
        lo, 2.5, width,
    )


def decay_check(atlas, t, p_exponent, s_grid=(2.0, 4.0, 8.0, 16.0, 32.0),
                theta_hat=1.0, k_budget=None):
    """Uniform decay of the operator value against (log|w|)^(1/p)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if p_exponent <= 1:
        raise ValueError("p exponent must exceed 1")
    if 1.0 / p_exponent >= t / theta_hat - 1.0:
        raise ValueError("exponent too aggressive for this t")
    values = []
    for s in s_grid:
        sample = transfer_apply_point(atlas, t, complex(math.exp(s)), k_budget)
        values.append(sample.value * s ** (1.0 / p_exponent))
    sup = max(values)
    passed = sup <= 1.10 * max(values[:2])
    return {
        "t": t,
        "p_exponent": p_exponent,
        "s_grid": list(s_grid),
        "values": values,
        "sup": sup,
        "passed": passed,
    }


def scaling_band(atlas, t, s_grid=(2.0, 4.0, 8.0, 16.0, 32.0), n_args=4,
                 k_budget=None):
    """sup/inf over circles |w| = e^s of value * (log|w|)^(t-1)."""
    rows = []
    for s in s_grid:
        for j in range(n_args):
            arg = _TWO_PI * j / n_args
            w = complex(np.exp(s + 1j * arg))
            sample = transfer_apply_point(atlas, t, w, k_budget)
            rows.append((s, arg, sample.value * s ** (t - 1.0)))
    scaled = [r[2] for r in rows]
    return {
        "sup": max(scaled),
        "inf": min(scaled),
        "ratio": max(scaled) / min(scaled),
        "rows": rows,
    }
