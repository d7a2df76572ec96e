"""Integral-means spectrum of rescaled tract maps.

beta(r, t) = log(int_I |phi_T'(r+iy)|^t dy) / log(1/r) with
I = [-2,-1] u [1,2]; the limit spectrum along the diagonal r = 1/T, its
shift b(t) = beta(t) - t + 1, the threshold Theta (smallest zero of b),
and the negative-spectrum diagnostic.

Quadrature node tables (y nodes, weights, log|phi_T'|) are cached per
(branch, T, r) and reused across every t, so t-scans and bisections cost
one pass of logsumexp per point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import tract as tr
from .errors import InvalidGrid, NoSignChange
from .poly import bisect_bracket, logsumexp

DEFAULT_T_GRID = tuple(float(2**j) for j in range(3, 15))
#: Largest dyadic exponent of the T grid on sampled (continued) branches,
#: where the quadrature walker makes the very large panels too slow.
SAMPLED_TJ_CAP = 9
SAMPLED_T_GRID = tuple(T for T in DEFAULT_T_GRID if T <= 2**SAMPLED_TJ_CAP)
_QUAD_ABS_TOL = 1e-8
_MAX_PANELS = 4096  # per unit interval
_REF_T = 2.0  # adaptivity reference exponent

_GL_X, _GL_W = leggauss(4)


def _node_table(branch, T, r):
    """(log weights, log|phi_T'| at r+iy nodes) over I, adaptively refined.

    Panels double until the reference-t integral moves by less than the
    absolute quadrature tolerance; the table is then cached on the branch
    and shared by every exponent t.
    """
    cache = branch._node_tables
    key = (float(T), float(r))
    if key in cache:
        return cache[key]
    scale = tr.tract_scale(branch, T)
    log_norm = np.log(T) - np.log(scale)
    guesses = {}  # per subinterval: (y, z) of the previous level

    def build(panels_per_unit):
        logw = []
        logd = []
        for a, b in ((-2.0, -1.0), (1.0, 2.0)):
            edges = np.linspace(a, b, panels_per_unit + 1)
            mids = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1] - edges[0])
            y = (mids[:, None] + half * _GL_X[None, :]).ravel()
            w = np.broadcast_to(half * _GL_W[None, :], (panels_per_unit, 4)).ravel()
            xi = T * (r + 1j * y)
            if (a, b) not in guesses:
                z, dphi = tr.phi_path(branch, xi)
            else:
                # refined nodes inherit interpolated guesses from the
                # coarser level; one batched Newton polishes them all
                y0, z0 = guesses[(a, b)]
                guess = np.interp(y, y0, z0.real) + 1j * np.interp(y, y0, z0.imag)
                z, dphi = tr.phi_refine(branch, xi, guess)
            guesses[(a, b)] = (y, z)
            logw.append(np.log(w))
            logd.append(np.log(np.abs(dphi)) + log_norm)
        return np.concatenate(logw), np.concatenate(logd)

    panels = 8
    prev = build(panels)
    while panels < _MAX_PANELS:
        panels *= 2
        cur = build(panels)
        a = np.exp(logsumexp(prev[0] + _REF_T * prev[1]))
        b = np.exp(logsumexp(cur[0] + _REF_T * cur[1]))
        prev = cur
        if abs(a - b) < max(_QUAD_ABS_TOL, 1e-8 * abs(b)):
            break
    cache[key] = prev
    return prev


def _log_integral(branch, T, r, t):
    logw, logd = _node_table(branch, T, r)
    return float(logsumexp(logw + t * logd))


def integral_means(branch, T, r, t):
    """beta_{phi_T}(r, t) = log(int_I |phi_T'(r+iy)|^t dy) / log(1/r)."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if not 0 < r < 1:
        raise ValueError("r must lie in (0, 1)")
    return _log_integral(branch, T, r, t) / np.log(1.0 / r)


@dataclass
class BetaEstimate:
    value: float
    drift: float
    per_T: list  # raw beta(1/T_j, t) along the grid
    slopes: list

    def __float__(self):
        return float(self.value)


def beta_infinity(branch, t, T_grid=DEFAULT_T_GRID):
    """Limit spectrum along r = 1/T.

    Successive slopes of log-integral against log T remove the
    T-independent factor that pollutes the raw ratio at finite T; the
    limsup proxy is the largest slope over the top half of the grid and
    drift is the spread there.
    """
    Ts = [float(T) for T in T_grid]
    if len(Ts) < 3 or any(b <= a for a, b in zip(Ts, Ts[1:])):
        raise InvalidGrid("T grid must be increasing with >= 3 points")
    logI = [_log_integral(branch, T, 1.0 / T, t) for T in Ts]
    x = np.log(Ts)
    raw = [li / xi for li, xi in zip(logI, x)]
    slopes = list(np.diff(logI) / np.diff(x))
    top = slopes[len(slopes) // 2:]
    return BetaEstimate(max(top), max(top) - min(top), raw, slopes)


@dataclass
class SpectrumCurve:
    t_grid: list
    beta_inf: list
    b_inf: list
    T_grid: list
    raw: list  # per-t list of raw beta(1/T, t) values
    drift: list
    theta_hat: float = float("nan")

    def to_csv(self):
        lines = ["t,beta_inf,b_inf"]
        for t, b, bi in zip(self.t_grid, self.beta_inf, self.b_inf):
            lines.append("%.9g,%.9g,%.9g" % (t, b, bi))
        return "\n".join(lines) + "\n"

    def to_json(self):
        return json.dumps(
            {
                "t_grid": list(self.t_grid),
                "beta_inf": list(self.beta_inf),
                "b_inf": list(self.b_inf),
                "T_grid": list(self.T_grid),
                "raw": [list(r) for r in self.raw],
                "summary": {
                    "theta_hat": self.theta_hat,
                    "drift": list(self.drift),
                },
            },
            indent=2,
            sort_keys=True,
        )


def spectrum_curve(branch, t_grid, T_grid=DEFAULT_T_GRID, with_theta=True):
    betas = [beta_infinity(branch, t, T_grid) for t in t_grid]
    curve = SpectrumCurve(
        t_grid=list(t_grid),
        beta_inf=[b.value for b in betas],
        b_inf=[b.value - t + 1 for b, t in zip(betas, t_grid)],
        T_grid=[float(T) for T in T_grid],
        raw=[b.per_T for b in betas],
        drift=[b.drift for b in betas],
    )
    if with_theta:
        try:
            curve.theta_hat = theta_f(branch, T_grid)
        except NoSignChange:
            pass
    return curve


def theta_f(branch, T_grid=DEFAULT_T_GRID, width=1e-3):
    """Smallest zero of t -> b(t) on (0, 2] by scan plus bisection."""

    def b_hat(t):
        return beta_infinity(branch, t, T_grid).value - t + 1

    if b_hat(0.0) <= 0:
        raise NoSignChange("b(0) <= 0: spectrum estimate inconsistent")
    lo, b_lo = 0.0, b_hat(0.0)
    hi = None
    for k in range(1, 21):
        t = 0.1 * k
        bt = b_hat(t)
        if bt <= 0:
            hi, b_hi = t, bt
            break
        lo, b_lo = t, bt
    if hi is None:
        curve = ", ".join("(%.6g, %.6g)" % (0.1 * k, b_hat(0.1 * k))
                          for k in range(21))
        raise NoSignChange("b has no zero on (0, 2]; curve: [%s]" % curve)
    lo, hi = bisect_bracket(lambda t: not b_hat(t) <= 0, lo, hi, width)
    return 0.5 * (lo + hi)


def negative_spectrum_check(branch, curve, tol=0.02, margin=0.05):
    """b(t) < tol for every grid t above theta_hat + margin.

    Without a finite theta_hat there is no grid point above it to test, so
    the check fails and the report's "reason" says why.
    """
    violations = [
        (t, b)
        for t, b in zip(curve.t_grid, curve.b_inf)
        if t > curve.theta_hat + margin and not b < tol
    ]
    report = {
        "theta_hat": curve.theta_hat,
        "tolerance": tol,
        "violations": violations,
    }
    if not np.isfinite(curve.theta_hat):
        report["reason"] = "theta_hat is not finite: no threshold to test"
        return False, report
    return len(violations) == 0, report


def composite_spectrum_compare(inner_branch, composite_branch, t_grid,
                               T_grid=DEFAULT_T_GRID):
    """Upper comparison of a composite model against its inner map."""
    inner_curve = spectrum_curve(inner_branch, t_grid, T_grid)
    comp_curve = spectrum_curve(composite_branch, t_grid, T_grid)
    rows = [
        {"t": t, "beta_inner": bi, "beta_composite": bc, "ok": bc <= bi + 0.05}
        for t, bi, bc in zip(t_grid, inner_curve.beta_inf, comp_curve.beta_inf)
    ]
    return {
        "theta_inner": inner_curve.theta_hat,
        "theta_composite": comp_curve.theta_hat,
        "theta_ok": comp_curve.theta_hat <= inner_curve.theta_hat + 0.05,
        "rows": rows,
        "ok": all(r["ok"] for r in rows)
        and comp_curve.theta_hat <= inner_curve.theta_hat + 0.05,
    }
