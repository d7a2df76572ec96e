"""Shared numerical rules: bisection, log-sum-exp, quadrature, sampling.

Every printed zero comes from ``solve_decreasing``, the one bisection:
the polynomial Bowen zero, the threshold Theta and the entire-side Bowen
zero.  ``logsumexp`` reduces the log-space sums of tree pressure and of
the spectrum's node tables.  ``gl4_panels`` is the composite 4-point
Gauss-Legendre rule of the Boettcher circle means and of the spectrum's
node tables, and ``halton`` the radical-inverse sequence behind every
deterministic sample of a tract or a disk.
"""

import numpy as np

from .errors import NoSignChange

#: The 4-point Gauss-Legendre rule on [-1, 1], the panel rule of the
#: Boettcher circle means and of the spectrum's node tables: the values of
#: numpy's leggauss(4), bit for bit, written out because importing
#: numpy.polynomial here raised perfbench poly_side's peak RSS by 1.3 MB.
GL4_NODES = np.array([-0.8611363115940526, -0.33998104358485626,
                      0.33998104358485626, 0.8611363115940526])
GL4_WEIGHTS = np.array([0.34785484513745357, 0.6521451548625464,
                        0.6521451548625464, 0.34785484513745357])


def solve_decreasing(f, lo, hi, width):
    """Zero of a decreasing f, bisected on [lo, hi] to at most width.

    Any value that is not <= 0 counts as positive: NaN and the +inf of a
    divergent sum lie below the zero.  NoSignChange unless f(lo) is
    positive and f(hi) is not.  Returns (root, (lo, hi)) with the root at
    the middle of the final bracket.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo <= 0 or not f_hi <= 0:
        raise NoSignChange("no sign change on bracket; endpoints: "
                           "[(%.6g, %.6g), (%.6g, %.6g)]"
                           % (lo, f_lo, hi, f_hi))
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if f(mid) <= 0 else (mid, hi)
    return 0.5 * (lo + hi), (lo, hi)


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


def gl4_panels(a, b, panels):
    """(nodes, weights) of the composite 4-point Gauss-Legendre rule on
    [a, b] over ``panels`` equal panels, each scaled by its own half-width."""
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * GL4_NODES[None, :]).reshape(-1)
    weights = (half[:, None] * GL4_WEIGHTS[None, :]).reshape(-1)
    return nodes, weights


def halton(n, base):
    """Points 1..n of the radical-inverse sequence in base, one digit
    position at a time over all indices (a spent index adds 0.0)."""
    out = np.zeros(n)
    k = np.arange(1, n + 1)
    f = 1.0
    while k.any():
        f /= base
        out += f * (k % base)
        k //= base
    return out
