"""Shared numerical rules: bisection, exp-sums, quadrature, sampling.

Every printed zero comes from ``solve_decreasing``, the one bisection:
the polynomial Bowen zero, the threshold Theta and the entire-side Bowen
zero.  ``logsumexp`` reduces the log-space sums of tree pressure and of
the spectrum's node tables, and ``sum_exp`` the transfer sums, in
numpy's own order without a temporary of the summed array's size.
``gl4_panels`` is the composite 4-point Gauss-Legendre rule of the
Boettcher circle means and of the spectrum's node tables, and ``halton``
the radical-inverse sequence behind every deterministic sample of a
tract or a disk.
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

#: Elements per leaf of ``sum_exp``, and per slice of an array that its
#: callers form piecewise so that no temporary exceeds a leaf.
LEAF = 1 << 14
#: numpy's pairwise sum adds a run of at most this many elements unsplit.
_PAIRWISE_BLOCK = 128


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


def sum_exp(x, t):
    """Sum of e^(t x) over a float array x of any shape, in C order, equal
    to float(np.sum(np.exp(t * x))) bit for bit.

    It splits x as numpy's pairwise sum does, a run of n elements into
    its first n2 = n//2 - (n//2) % 8 and the rest, down to runs of at most
    ``LEAF`` elements (or numpy's unsplit block, if that is larger).  Each
    such leaf is exponentiated in one reused buffer, filled from whole-row
    slices of x's rows (a 1-D x is one row), and summed by np.sum, and the
    leaf sums are added back up the same tree, so the only temporary is
    that buffer, even where x is a broadcast view.  A numpy release that
    changes its reduction order breaks the equality;
    tests/test_transfer.py checks it.
    """
    x = np.asarray(x, dtype=float)
    if not x.size:
        return 0.0
    rows = x.reshape(-1, x.shape[-1] if x.ndim else 1)
    buf = np.empty(min(x.size, max(LEAF, _PAIRWISE_BLOCK)))
    return float(_sum_exp_run(rows, t, buf, 0, x.size))


def _sum_exp_run(rows, t, buf, lo, hi):
    """The sum of e^(t x) over x[lo:hi], x being rows in C order, each
    leaf formed in buf."""
    if hi - lo <= len(buf):
        width = rows.shape[1]
        a = lo
        while a < hi:
            r, c = divmod(a, width)
            b = min(hi, a - c + width)
            np.multiply(rows[r, c:c + b - a], t, out=buf[a - lo:b - lo])
            a = b
        part = buf[:hi - lo]
        return np.sum(np.exp(part, out=part))
    n2 = (hi - lo) // 2
    n2 -= n2 % 8
    return (_sum_exp_run(rows, t, buf, lo, lo + n2)
            + _sum_exp_run(rows, t, buf, lo + n2, hi))


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
