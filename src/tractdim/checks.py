"""End-to-end check suite: closed-form oracles and property checks.

Every check returns a CheckResult with a deterministic detail string, so a
report assembled from the suite is byte-identical across reruns and thread
counts.  The suite is shared by the ``verify`` subcommand and the test
suite.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import linearizer as lz
from . import poly
from . import spectrum as sp
from . import tract as tr
from . import transfer as tf
from .errors import (
    BudgetExceeded,
    DivergenceDetected,
    NoSignChange,
    TractdimError,
)
from .poly import Polynomial

_E2 = complex(math.e ** 2)
_E4 = complex(math.e ** 4)

Z2 = Polynomial.from_string("z^2")
CHEB = Polynomial.from_string("z^2-2")
BASILICA = Polynomial.from_string("z^2-1")
COSH = Polynomial.from_string("2z^2-1")

HANDLE_NAMES = ("exp", "quarter", "square", "composite", "koenigs")

_handles = {}
_atlases = {}


def test_handle(name):
    """Named function handles exercised throughout the suite."""
    if name not in _handles:
        if name == "exp":
            h = lz.exp_power(1.0, 1)
        elif name == "quarter":
            h = lz.exp_power(0.25, 1)
        elif name == "square":
            h = lz.exp_power(1.0, 2)
        elif name == "composite":
            h = lz.composite_exp(lz.exp_power(math.exp(-6.0), 1))
        elif name == "koenigs":
            h = lz.koenigs_handle(Z2, 1.0, kappa=0.25)
        else:
            raise KeyError(name)
        _handles[name] = h
    return _handles[name]


def test_atlas(name):
    if name not in _atlases:
        _atlases[name] = tr.find_tracts(test_handle(name), math.e)
    return _atlases[name]


def _t_grid_for(name):
    return sp.SAMPLED_T_GRID if name in ("composite", "koenigs") \
        else sp.DEFAULT_T_GRID


@dataclass
class CheckResult:
    ident: int
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0

    def line(self):
        return "%s  %2d  %-28s  %s" % (
            "PASS" if self.passed else "FAIL", self.ident, self.name,
            self.detail)


def check_transfer_closed_form():
    """Exponential transfer sums against the cotangent identity."""
    errs = []
    for w, want in ((_E2, math.cosh(1) / math.sinh(1) / 4),
                    (_E4, math.cosh(2) / math.sinh(2) / 8)):
        got = tf.transfer_apply_point(test_atlas("exp"), 2.0, w).value
        errs.append(abs(got - want))
    passed = all(e < 1e-6 for e in errs)
    return passed, "err(e^2)=%.3g err(e^4)=%.3g tol 1e-6" % tuple(errs)


def check_divergence_dichotomy():
    """Finite sums above t=1, detected divergence below."""
    finite, diverged = [], []
    for t in (1.2, 1.5, 2.0):
        v = tf.transfer_apply_point(test_atlas("exp"), t, _E2).value
        finite.append(math.isfinite(v) and v > 0)
    for t in (0.5, 0.8):
        try:
            tf.transfer_apply_point(test_atlas("exp"), t, _E2)
            diverged.append(False)
        except DivergenceDetected:
            diverged.append(True)
    passed = all(finite) and all(diverged)
    return passed, "finite@{1.2,1.5,2}=%s diverged@{0.5,0.8}=%s" % (
        all(finite), all(diverged))


def check_elementary_spectrum():
    """Flat limit spectrum and unit threshold for the exponential family."""
    rows = []
    for name in ("exp", "quarter", "square"):
        branch = test_atlas(name).tracts[0]
        curve = sp.spectrum_curve(branch, [0.5, 1.0, 1.5, 2.0])
        worst = max(abs(b) for b in curve.beta_inf)
        rows.append((name, worst, curve.theta_hat))
    passed = all(w <= 0.05 and abs(th - 1.0) <= 0.05 for _, w, th in rows)
    detail = " ".join("%s:max|beta|=%.3g,theta=%.4f" % r for r in rows)
    return passed, detail


def check_tree_pressure(node_budget=poly.DEFAULT_NODE_BUDGET):
    """Dyadic tree pressure and its zero for exactly solvable polynomials."""
    try:
        cache = poly._TreeCache(Z2, 3.0 + 0j)
        perr = max(
            abs(poly.tree_pressure(Z2, t, 3.0, 14, node_budget=node_budget,
                                   cache=cache).value - (1 - t) * math.log(2))
            for t in (0.0, 0.5, 1.0, 1.5))
        zeros = [float(poly.bowen_zero_poly(p, 12, node_budget=node_budget))
                 for p in (Z2, CHEB, COSH)]
    except BudgetExceeded as exc:
        return False, "BudgetExceeded: %s" % exc
    passed = (perr < 1e-3 and abs(zeros[0] - 1.0) <= 0.01
              and all(abs(z - 1.0) <= 0.05 for z in zeros[1:]))
    return passed, "max|P-(1-t)log2|=%.2e zeros=%.4f,%.4f,%.4f" % (
        perr, zeros[0], zeros[1], zeros[2])


#: Circle radii for the boundary means slope.  The arc identity is an
#: r -> 1 limit; radii this close to the circle are needed before the
#: slope settles within 0.05 of the tree prediction.
MEANS_RADII = (1.01, 1.003, 1.001)


def check_arc_pressure_identity():
    """Boundary means exponent vs the tree-pressure prediction, p = z^2-1."""
    cache = poly._TreeCache(BASILICA, 5.0 + 0j)
    ts = (0.5, 1.0, 1.5)
    betas = poly.bottcher_means_spectrum(BASILICA, ts, MEANS_RADII)
    errs = []
    for t, beta_h in zip(ts, betas):
        P = poly.tree_pressure(BASILICA, t, 5.0, 14, cache=cache).value
        errs.append(abs(beta_h - (t - 1 + P / math.log(2))))
    passed = all(e < 0.05 for e in errs)
    return passed, "errs=%.3f,%.3f,%.3f tol 0.05" % tuple(errs)


def _disk_points(n, radius):
    h2 = tr._halton(n, 2)
    h3 = tr._halton(n, 3)
    return radius * np.sqrt(h2) * np.exp(2j * np.pi * h3)


def check_koenigs_goldens():
    """Linearizers with classical closed forms, plus the functional equation."""
    L_exp = lz.make_koenigs(Z2, 1.0)
    L_cosh = lz.make_koenigs(COSH, 1.0)
    pts = _disk_points(200, 2.0)
    err_exp = max(abs(L_exp.eval(z) - np.exp(z)) for z in pts)
    cosh_ref = lambda z: np.cosh(2 * np.sqrt(complex(z) / 2))
    err_cosh = max(abs(L_cosh.eval(z) - cosh_ref(z)) for z in pts)
    resid = 0.0
    for L, p in ((L_exp, Z2), (L_cosh, COSH)):
        for z in _disk_points(100, 10.0):
            lhs = L.eval(L.lam * z)
            rhs = p(L.eval(z))
            resid = max(resid, abs(lhs - rhs) / (1 + abs(rhs)))
    passed = err_exp < 1e-9 and err_cosh < 1e-8 and resid < 1e-9
    return passed, "err_exp=%.2e err_cosh=%.2e resid=%.2e" % (
        err_exp, err_cosh, resid)


def check_bottcher_golden():
    """Escape-coordinate conjugacy against the Joukowski map."""
    err = 0.0
    for r in (1.2, 2.0, 4.0):
        for k in range(8):
            z = r * np.exp(2j * np.pi * k / 8)
            err = max(err, abs(poly.bottcher_inverse(CHEB, z) - (z + 1 / z)))
    resid = 0.0
    for p in (Z2, CHEB, BASILICA, COSH):
        for k in range(20):
            z = (1.2 + 3.0 * tr._halton(20, 2)[k]) * np.exp(
                2j * np.pi * tr._halton(20, 3)[k])
            resid = max(resid, poly.bottcher_residual(p, z))
    passed = err < 1e-8 and resid < 1e-8
    return passed, "joukowski_err=%.2e resid=%.2e" % (err, resid)


def check_derivative_quotient_bound():
    """|phi'/phi| <= 4 pi / Re(xi) at 10^4 sampled points per tract."""
    total_bad = 0
    counts = []
    for name in HANDLE_NAMES:
        bad = sum(tr.el_violations(branch, samples=10000)
                  for branch in test_atlas(name).tracts)
        counts.append("%s:%d" % (name, bad))
        total_bad += bad
    return total_bad == 0, "violations " + " ".join(counts)


def check_spectrum_shape():
    """Endpoint values and midpoint convexity of the limit spectrum."""
    rows = []
    for name in HANDLE_NAMES:
        branch = test_atlas(name).tracts[0]
        curve = sp.spectrum_curve(branch, [0.0, 0.5, 1.0, 1.5, 2.0],
                                  _t_grid_for(name), with_theta=False)
        b = curve.beta_inf
        convex = min(
            b[i - 1] + b[i + 1] - 2 * b[i] for i in range(1, len(b) - 1))
        ok = (abs(b[0]) <= 1e-3 and abs(curve.b_inf[0] - 1.0) <= 0.02
              and curve.b_inf[-1] <= 0.05 and convex >= -1e-3)
        rows.append((name, ok))
    passed = all(ok for _, ok in rows)
    return passed, " ".join("%s:%s" % (n, "ok" if ok else "BAD")
                            for n, ok in rows)


def check_scaling_band():
    """Transfer sums times (log|w|)^(t-1) stay in a bounded band."""
    band = tf.scaling_band(test_atlas("koenigs"), 2.0, n_args=2, k_budget=256)
    passed = band["ratio"] <= 10.0
    return passed, "sup/inf=%.3f bound 10" % band["ratio"]


def check_composite_comparison():
    """Composite model spectrum bounded by the inner map's spectrum."""
    inner = tr.find_tracts(lz.exp_power(math.exp(-6.0), 1), math.e).tracts[0]
    comp = test_atlas("composite").tracts[0]
    rep = sp.composite_spectrum_compare(inner, comp, [0.5, 1.0, 1.5, 2.0],
                                        sp.DEFAULT_T_GRID[:8])
    return rep["ok"], "theta %.4f <= %.4f + 0.05: %s" % (
        rep["theta_composite"], rep["theta_inner"], rep["theta_ok"])


def basilica_disjoint_handle():
    """Koenigs handle for z^2-1 at its positive fixed point, disjoint type."""
    z0 = (1 + math.sqrt(5)) / 2
    return lz.make_disjoint_type(lz.make_koenigs(BASILICA, z0), math.e)


def check_boundary_figures():
    """Rescaled-boundary SVGs render deterministically with a unit marker."""
    from .cli import render_boundary_svg

    atlas = tr.find_tracts(basilica_disjoint_handle(), math.e)
    branch = atlas.tracts[0]
    marker_err, stable = 0.0, True
    for T in (1.0, 5.0, 20.0):
        first = render_boundary_svg(branch, T)
        second = render_boundary_svg(branch, T)
        stable = stable and first == second
        marker = abs(tr.phi_eval(branch, complex(T)) / tr.tract_scale(
            branch, T))
        marker_err = max(marker_err, abs(marker - 1.0))
    passed = stable and marker_err <= 1e-6
    return passed, "byte_stable=%s marker_err=%.2e" % (stable, marker_err)


CHECKS = (
    (1, "transfer-closed-form", check_transfer_closed_form),
    (2, "divergence-dichotomy", check_divergence_dichotomy),
    (3, "elementary-spectrum", check_elementary_spectrum),
    (4, "tree-pressure", check_tree_pressure),
    (5, "arc-pressure-identity", check_arc_pressure_identity),
    (6, "koenigs-goldens", check_koenigs_goldens),
    (7, "bottcher-golden", check_bottcher_golden),
    (8, "derivative-quotient-bound", check_derivative_quotient_bound),
    (9, "spectrum-shape", check_spectrum_shape),
    (10, "scaling-band", check_scaling_band),
    (11, "composite-comparison", check_composite_comparison),
    (12, "boundary-figures", check_boundary_figures),
)


def run_check(ident, node_budget=None):
    for cid, name, fn in CHECKS:
        if cid == ident:
            start = time.monotonic()
            try:
                if cid == 4 and node_budget is not None:
                    passed, detail = fn(node_budget)
                else:
                    passed, detail = fn()
            except TractdimError as exc:
                passed, detail = False, "%s: %s" % (type(exc).__name__, exc)
            return CheckResult(cid, name, passed, detail,
                               time.monotonic() - start)
    raise KeyError(ident)


def run_all(node_budget=None, idents=None):
    wanted = idents if idents is not None else [c[0] for c in CHECKS]
    return [run_check(i, node_budget) for i in wanted]


def format_report(results):
    """Deterministic line-oriented report; no timestamps or durations."""
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append("%d/%d checks passed" % (n_pass, len(results)))
    return "\n".join(lines) + "\n"
