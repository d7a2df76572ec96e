"""End-to-end check suite: closed-form oracles and property checks.

Every check returns a CheckResult with a deterministic detail string, so a
report assembled from the suite is byte-identical across reruns, whatever
the order of the checks.  Each check builds its own handles and atlases, so
no check sees the anchors another one walked.  Reductions are numpy's
(np.max, np.min, np.maximum), which keep a nan that Python's max and min
can drop, so a nan in a bounded figure fails its check.  The suite is
shared by the ``verify`` subcommand and the test suite.
"""

import cmath
import math
import time
from dataclasses import dataclass

import numpy as np

from . import linearizer as lz
from . import numerics, poly
from . import spectrum as sp
from . import tract as tr
from . import transfer as tf
from .errors import DivergenceDetected, NoSignChange, TractdimError
from .poly import Polynomial

_E2 = complex(math.e ** 2)
_E4 = complex(math.e ** 4)

Z2 = Polynomial.from_string("z^2")
CHEB = Polynomial.from_string("z^2-2")
BASILICA = Polynomial.from_string("z^2-1")
COSH = Polynomial.from_string("2z^2-1")

HANDLE_NAMES = ("exp", "quarter", "square", "composite", "koenigs")


def test_handle(name):
    """A fresh handle of one of the named families the suite exercises."""
    if name == "koenigs":
        return lz.make_koenigs(Z2, 1.0, kappa=0.25)
    return lz.SHORTHANDS[name]()


def test_atlas(name):
    """A fresh atlas of a named handle at radius e."""
    return tr.find_tracts(test_handle(name), math.e)


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
    samples = tf.transfer_apply_point(test_atlas("exp"), (1.2, 1.5, 2.0),
                                      _E2)
    finite = [math.isfinite(s.value) and s.value > 0 for s in samples]
    diverged = []
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
        tables = sp.means_tables(test_atlas(name).tracts[0])
        curve = sp.spectrum_curve(tables, [0.5, 1.0, 1.5, 2.0])
        worst = np.max(np.abs(curve.beta_inf))
        rows.append((name, worst, curve.theta_hat))
    passed = all(w <= 0.05 and abs(th - 1.0) <= 0.05 for _, w, th in rows)
    detail = " ".join("%s:max|beta|=%.3g,theta=%.4f" % r for r in rows)
    return passed, detail


def check_tree_pressure():
    """Dyadic tree pressure and its zero for exactly solvable polynomials."""
    ts = (0.0, 0.5, 1.0, 1.5)
    perr = np.max([abs(P - (1 - t) * math.log(2))
                   for t, P in zip(ts, poly.tree_pressure(Z2, ts, 3.0, 14))])
    zeros = [poly.bowen_zero_poly(p, 12).value for p in (Z2, CHEB, COSH)]
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
    ts = (0.5, 1.0, 1.5)
    betas = poly.bottcher_means_spectrum(BASILICA, ts, MEANS_RADII)
    pressures = poly.tree_pressure(BASILICA, ts, 5.0, 14)
    errs = [abs(beta_h - (t - 1 + P / math.log(2)))
            for t, beta_h, P in zip(ts, betas, pressures)]
    passed = all(e < 0.05 for e in errs)
    return passed, "errs=%.3f,%.3f,%.3f tol 0.05" % tuple(errs)


def _disk_points(n, radius):
    h2 = numerics.halton(n, 2)
    h3 = numerics.halton(n, 3)
    return radius * np.sqrt(h2) * np.exp(2j * np.pi * h3)


def check_koenigs_goldens():
    """Closed-form linearizers; f(lam z) = p(f(z)) across the two ladders."""
    L_exp = lz.make_koenigs(Z2, 1.0)
    L_cosh = lz.make_koenigs(COSH, 1.0)
    pts = _disk_points(200, 2.0)
    err_exp = np.max([abs(L_exp.eval(z) - np.exp(z)) for z in pts])
    cosh_ref = lambda z: np.cosh(2 * np.sqrt(complex(z) / 2))
    err_cosh = np.max([abs(L_cosh.eval(z) - cosh_ref(z)) for z in pts])
    resid = 0.0
    for L, p in ((L_exp, Z2), (L_cosh, COSH)):
        for z in _disk_points(100, 10.0):
            lhs = cmath.exp(lz.linearizer_log_eval(L, L.lam * z)[0])
            rhs = p(L.eval(z))
            resid = np.maximum(resid, abs(lhs - rhs) / (1 + abs(rhs)))
    passed = err_exp < 1e-9 and err_cosh < 1e-8 and resid < 1e-9
    return passed, "err_exp=%.2e err_cosh=%.2e resid=%.2e" % (
        err_exp, err_cosh, resid)


def check_bottcher_golden():
    """Escape-coordinate conjugacy against the Joukowski map."""
    z = np.outer((1.2, 2.0, 4.0), np.exp(2j * np.pi * np.arange(8) / 8))
    err = float(np.abs(poly.bottcher_inverse(CHEB, z)[0] - (z + 1 / z)).max())
    # functional equation h(z^d) = p(h(z)), relative to 1 + |h(z)|
    z = (1.2 + 3.0 * numerics.halton(20, 2)) * np.exp(
        2j * np.pi * numerics.halton(20, 3))
    resid = 0.0
    for p in (Z2, CHEB, BASILICA, COSH):
        h = poly.bottcher_inverse(p, z)[0]
        h_d = poly.bottcher_inverse(p, z ** p.degree)[0]
        resid = np.maximum(
            resid, (np.abs(h_d - p(h)) / (1.0 + np.abs(h))).max())
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
    ts = (0.0, 0.5, 1.0, 1.5, 2.0)
    for name in HANDLE_NAMES:
        tables = sp.means_tables(test_atlas(name).tracts[0])
        beta = [sp.beta_infinity(tables, t).value for t in ts]
        b = [v - t + 1 for v, t in zip(beta, ts)]
        convex = np.min([beta[i - 1] + beta[i + 1] - 2 * beta[i]
                         for i in range(1, len(beta) - 1)])
        ok = (abs(beta[0]) <= 1e-3 and abs(b[0] - 1.0) <= 0.02
              and b[-1] <= 0.05 and convex >= -1e-3)
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
    T_grid = sp.DEFAULT_T_GRID[:8]
    ts = [0.5, 1.0, 1.5, 2.0]
    inner = tr.find_tracts(test_handle("composite").inner, math.e).tracts[0]
    comp = test_atlas("composite").tracts[0]
    tables = [sp.means_tables(branch, T_grid) for branch in (inner, comp)]
    inner_curve, comp_curve = [sp.spectrum_curve(t, ts) for t in tables]
    theta_ok = comp_curve.theta_hat <= inner_curve.theta_hat + 0.05
    beta_ok = all(bc <= bi + 0.05 for bi, bc in
                  zip(inner_curve.beta_inf, comp_curve.beta_inf))
    return beta_ok and theta_ok, "theta %.4f <= %.4f + 0.05: %s" % (
        comp_curve.theta_hat, inner_curve.theta_hat, theta_ok)


def check_boundary_figures():
    """Rescaled-boundary figures render deterministically with a unit marker."""
    from .cli import boundary_figure, function_from_spec

    atlas = tr.find_tracts(function_from_spec("koenigs:z^2-1"), math.e)
    branch = atlas.tracts[0]
    marker_err, stable = 0.0, True
    for T in (1.0, 5.0, 20.0):
        first = boundary_figure(atlas, T)
        second = boundary_figure(atlas, T)
        stable = stable and first == second
        marker = abs(tr.rescaled_map(branch, T, 1.0))
        marker_err = np.maximum(marker_err, abs(marker - 1.0))
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


def run_check(ident):
    for cid, name, fn in CHECKS:
        if cid == ident:
            start = time.monotonic()
            try:
                passed, detail = fn()
            except TractdimError as exc:
                passed, detail = False, "%s: %s" % (type(exc).__name__, exc)
            # a check that compares numpy figures returns a numpy bool
            return CheckResult(cid, name, bool(passed), detail,
                               time.monotonic() - start)
    raise KeyError(ident)


def run_all(idents=None):
    wanted = idents if idents is not None else [c[0] for c in CHECKS]
    return [run_check(i) for i in wanted]


def format_report(results):
    """Deterministic line-oriented report; no timestamps or durations."""
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append("%d/%d checks passed" % (n_pass, len(results)))
    return "\n".join(lines) + "\n"
