"""Integral-means spectrum of rescaled tract maps.

beta(r, t) = log(int_I |phi_T'(r+iy)|^t dy) / log(1/r) with
I = [-2,-1] u [1,2]; the limit spectrum along the diagonal r = 1/T, its
shift b(t) = beta(t) - t + 1, the threshold Theta (smallest zero of b),
and the negative-spectrum diagnostic.

The t-independent part of the spectrum, one node table (log weights,
log|phi_T'|) per T at r = 1/T, is a plain value built once by means_tables;
beta_infinity, theta_f, spectrum_curve and composite_spectrum_compare take
that value, so t-scans and bisections cost one pass of logsumexp per T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tract as tr
from .errors import InvalidGrid, NoSignChange
from .poly import GL4_NODES, GL4_WEIGHTS, bisect_bracket, logsumexp

DEFAULT_T_GRID = tuple(float(2**j) for j in range(3, 15))
#: Largest dyadic exponent of the T grid on sampled (continued) branches,
#: where the quadrature walker makes the very large panels too slow.
SAMPLED_TJ_CAP = 9
_QUAD_ABS_TOL = 1e-8
_MAX_PANELS = 4096  # per unit interval
_REF_T = 2.0  # adaptivity reference exponent


def _node_table(branch, T, r):
    """(log weights, log|phi_T'| at r+iy nodes) over I, adaptively refined.

    Panels double until the reference-t integral moves by less than the
    absolute quadrature tolerance; the table serves every exponent t.
    """
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
            y = (mids[:, None] + half * GL4_NODES[None, :]).ravel()
            w = np.broadcast_to(half * GL4_WEIGHTS[None, :], (panels_per_unit, 4)).ravel()
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
    return prev


def _log_integral(table, t):
    logw, logd = table
    return float(logsumexp(logw + t * logd))


def means_tables(branch, T_grid=DEFAULT_T_GRID):
    """((T, node table at r = 1/T), ...) along an increasing T grid.

    The tables are built in grid order and do not depend on t, so one
    value serves every exponent of a spectrum curve or a bisection.  A
    sampled branch keeps only T <= 2**SAMPLED_TJ_CAP.  Every T must exceed
    1, so that r = 1/T lies in (0, 1) and log(1/r) > 0.
    """
    Ts = [float(T) for T in T_grid]
    if branch.sampled:
        Ts = [T for T in Ts if T <= 2**SAMPLED_TJ_CAP]
        if len(Ts) < 3:
            raise InvalidGrid("T grid has %d points up to the sampled-branch "
                              "cap 2^%d; need >= 3" % (len(Ts), SAMPLED_TJ_CAP))
    if len(Ts) < 3 or any(b <= a for a, b in zip(Ts, Ts[1:])):
        raise InvalidGrid("T grid must be increasing with >= 3 points")
    if not Ts[0] > 1.0:
        raise InvalidGrid("T grid must lie above 1 (r = 1/T in (0, 1)), "
                          "got T = %g" % Ts[0])
    return tuple((T, _node_table(branch, T, 1.0 / T)) for T in Ts)


@dataclass
class BetaEstimate:
    value: float
    drift: float
    per_T: list  # raw beta(1/T_j, t) along the grid


def beta_infinity(tables, t):
    """Limit spectrum along r = 1/T from the rows of means_tables.

    Successive slopes of log-integral against log T remove the
    T-independent factor that pollutes the raw ratio at finite T; the
    limsup proxy is the largest slope over the top half of the grid and
    drift is the spread there.
    """
    logI = [_log_integral(table, t) for _, table in tables]
    x = np.log([T for T, _ in tables])
    raw = [li / xi for li, xi in zip(logI, x)]
    slopes = list(np.diff(logI) / np.diff(x))
    top = slopes[len(slopes) // 2:]
    return BetaEstimate(np.max(top), np.max(top) - np.min(top), raw)


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
        return {
            "t_grid": list(self.t_grid),
            "beta_inf": list(self.beta_inf),
            "b_inf": list(self.b_inf),
            "T_grid": list(self.T_grid),
            "raw": [list(r) for r in self.raw],
            "summary": {
                "theta_hat": self.theta_hat,
                "drift": list(self.drift),
            },
        }


def spectrum_curve(tables, t_grid):
    betas = [beta_infinity(tables, t) for t in t_grid]
    curve = SpectrumCurve(
        t_grid=list(t_grid),
        beta_inf=[b.value for b in betas],
        b_inf=[b.value - t + 1 for b, t in zip(betas, t_grid)],
        T_grid=[T for T, _ in tables],
        raw=[b.per_T for b in betas],
        drift=[b.drift for b in betas],
    )
    try:
        curve.theta_hat = theta_f(tables)
    except NoSignChange:
        pass
    return curve


def theta_f(tables):
    """Smallest zero of t -> b(t) on (0, 2] by scan plus bisection."""

    def b_hat(t):
        return beta_infinity(tables, t).value - t + 1

    scan = [(0.0, b_hat(0.0))]
    if scan[0][1] <= 0:
        raise NoSignChange("b(0) <= 0: spectrum estimate inconsistent")
    for k in range(1, 21):
        t = 0.1 * k
        scan.append((t, b_hat(t)))
        if scan[-1][1] <= 0:
            lo, hi = bisect_bracket(lambda t: not b_hat(t) <= 0,
                                    scan[-2][0], t, 1e-3)
            return 0.5 * (lo + hi)
    curve = ", ".join("(%.6g, %.6g)" % row for row in scan)
    raise NoSignChange("b has no zero on (0, 2]; curve: [%s]" % curve)


def negative_spectrum_check(curve):
    """Summary of the check b(t) < 0.02 at every grid t above theta_hat + 0.05.

    Without a finite theta_hat there is no grid point above it to test, so
    the check fails and the summary's "reason" says why.
    """
    violations = [
        (t, b)
        for t, b in zip(curve.t_grid, curve.b_inf)
        if t > curve.theta_hat + 0.05 and not b < 0.02
    ]
    finite = bool(np.isfinite(curve.theta_hat))
    summary = {
        "theta_hat": curve.theta_hat,
        "negative_spectrum": finite and not violations,
        "violations": violations,
    }
    if not finite:
        summary["reason"] = "theta_hat is not finite: no threshold to test"
    return summary


def composite_spectrum_compare(inner_tables, composite_tables, t_grid):
    """Upper comparison of a composite model against its inner map."""
    inner_curve = spectrum_curve(inner_tables, t_grid)
    comp_curve = spectrum_curve(composite_tables, t_grid)
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
