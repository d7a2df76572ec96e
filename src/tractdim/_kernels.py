"""Hot numeric kernels: batched simultaneous (Aberth-Ehrlich) root finding,
and the complex log of the escape loops.

One numpy implementation of each.  ``python3 perfbench/run.py --workload
poly_side`` times the root finder in its ``aberth_batch`` operation, and
the log in check 5, whose Boettcher orbits take one log per point and step.

The Aberth iteration works on an active set: each pass evaluates the
residual of the rows still running, writes the rows that meet their
tolerance back into the result and drops them, so later passes only touch
unconverged rows.  A row's arithmetic reads nothing but that row, so its
roots and its ``ok`` flag do not depend on the other targets in the batch:
solving a batch equals solving each target alone.

The loop's scratch arrays (iterates, residuals, derivatives, the
correction sums and their temporaries) hold every row of the batch, so
the caller sizes them: the preimage tree (``poly._preimage_levels``)
hands the kernel one block of at most ``poly._ROW_BLOCK`` rows of a level
at a time, and fills the level's roots and log-derivatives block by block.

The iteration is deterministic and produces identical root orderings: it
is a fixed-point map started from the same perturbed-circle
initialization, so the numerics are bitwise reproducible.

A warm start (``start``: one row of d initial roots per target) replaces
only that initialization.  The loop, the active set, the tolerance
``_TOL``, ``maxit`` and the ``ok`` flags are the cold solve's, and rows
stay independent, so a warm batch equals each of its rows warm-started
alone, bit for bit.  A row stops at its first iterate inside the
tolerance, so warm roots meet the same residual bound
|p(z) - w| <= _TOL*(1 + |w|) as cold ones but may differ from them by
about that residual over |p'(z)|, and by about sqrt(_TOL) at a
near-double root.  The preimage tree
(``poly._preimage_levels``) starts each level from the level above.

``clog(z)`` is log|z| + i*atan2(Im z, Re z), written into one preallocated
complex array.  numpy's complex ``log`` costs over twice as much per
element; clog agrees with it to within 2*eps*(1 + |log z|) on
normal-range |z|, and bit for bit on the special values: zeros of either
sign, infinities, nan, and the +-pi of the negative real axis with a +0 or
-0 imaginary part.  Subnormal |z| is outside this contract: there ``abs``
loses bits and the real part differs.
"""

import numpy as np

# No compiled kernel exists; the benchmark's machine line still reports it.
NUMBA_ENABLED = False

#: Residual tolerance of an Aberth row, relative to 1 + |w|.
_TOL = 1e-10


def clog(z):
    """Principal complex log of an array (or scalar) z, as a complex array.

    The real part is written through ``out=`` on the result's ``.real`` view
    and the imaginary part on its ``.imag`` view, so no float temporaries
    are allocated.
    """
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty_like(z)
    np.arctan2(z.imag, z.real, out=out.imag)
    np.abs(z, out=out.real)
    np.log(out.real, out=out.real)
    return out


def _pairwise_sum(term, lo, hi):
    """term(lo) + ... + term(hi - 1) in numpy's pairwise order.

    This is the order of numpy's complex ``sum`` along a contiguous axis
    (sequential below 4 terms, four interleaved accumulators up to 64,
    halves beyond), so adding the Aberth terms one root at a time gives the
    ``sum(axis=2)`` of the dense (m, d, d) tensor bit for bit.
    """
    n = hi - lo
    if n < 4:
        acc = term(lo)
        for k in range(lo + 1, hi):
            acc += term(k)
        return acc
    if n <= 64:
        lanes = [term(lo + k) for k in range(4)]
        full = lo + n - n % 4
        for k in range(lo + 4, full):
            lanes[(k - lo) % 4] += term(k)
        acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
        for k in range(full, hi):
            acc += term(k)
        return acc
    half = (n - n % 8) // 2
    return _pairwise_sum(term, lo, lo + half) + _pairwise_sum(term, lo + half, hi)


def _aberth_sums(z):
    """s_j = sum over k != j of 1/(z_j - z_k), for z of shape (d, m).

    Built one root k at a time with the diagonal entry set to 1 and 1
    subtracted at the end, so the result equals the dense (m, d, d) tensor
    form bit for bit (tests/test_kernels.py keeps that form as reference).

    The loop is kept for speed, not bits.  The dense form is bit-identical
    only when its difference tensor is built with np.subtract(...,
    order="C"); with numpy's default order that temporary is not
    C-contiguous, and degrees of 4 and up lose bit identity.  Even then
    the dense form was slower on a 2-core Xeon (numpy 2.4.6, medians over
    6 alternating process pairs): perfbench's ``aberth_batch`` operation
    (z^2 - 1, 4,096 targets, 10 solves) went from 0.028 s to 0.042 s, and
    ``poly.bowen_zero_poly`` of z^3 - 0.5z at depth 12 from 0.14 s to
    0.18 s.
    """

    def term(k):
        diff = z - z[k]
        diff[k] = 1.0
        return 1.0 / diff

    return _pairwise_sum(term, 0, len(z)) - 1.0


def aberth_batch(coeffs, dcoeffs, targets, maxit=800, start=None):
    """Solve p(z) = w simultaneously for a batch of targets w.

    coeffs: the (d+1,) coefficients, constant term first.  Returns
    (roots, ok): roots has shape (len(targets), d), ok flags whether the
    per-target residual tolerance _TOL*(1+|w|) was met within maxit
    passes.  start, if given, is an (len(targets), d) array of initial
    roots that replaces the perturbed circle (ValueError for any other
    shape, raised before the first pass); it is not modified.

    The loop's scratch arrays hold every row still running, so a caller
    bounds them by the batch it passes: the preimage tree passes at most
    ``poly._ROW_BLOCK`` rows per call.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    dcoeffs = np.ascontiguousarray(dcoeffs, dtype=np.complex128)
    targets = np.ascontiguousarray(targets, dtype=np.complex128)
    d = len(coeffs) - 1
    m = len(targets)
    if start is None:
        lead = coeffs[-1]
        # Cauchy-style bound, perturbed-circle start (deterministic).
        scale = np.maximum(
            1.0,
            np.abs(targets - coeffs[0]) / np.abs(lead),
        ) ** (1.0 / d)
        comag = max(np.abs(coeffs[k]) / np.abs(lead)
                    for k in range(d)) if d > 0 else 0.0
        radius = 1.0 + np.maximum(scale,
                                  comag ** (1.0 / d) if comag > 0 else 0.0)
        angles = 2.0 * np.pi * np.arange(d) / d + 0.45
        start = radius[:, None] * np.exp(1j * angles)[None, :]
    else:
        start = np.asarray(start, dtype=np.complex128)
        if start.shape != (m, d):
            raise ValueError(
                f"start has shape {start.shape}, expected {(m, d)}")

    # Every row is written back, when it converges or after the last pass.
    roots = np.empty((m, d), dtype=np.complex128)
    ok = np.zeros(m, dtype=bool)
    rev = coeffs[::-1].copy()
    drev = dcoeffs[::-1].copy()
    # The active set: indices into roots of the rows still running, with
    # their targets, tolerances and iterates.  Iterates are held root-major,
    # (d, active), so the per-root columns are contiguous rows.
    rows = np.arange(m)
    w = targets
    wtol = _TOL * (1.0 + np.abs(targets))
    z = start.T.copy()
    for _ in range(maxit):
        pv = np.polyval(rev, z) - w
        done = np.abs(pv).max(axis=0) <= wtol
        if done.any():
            roots[rows[done]] = z[:, done].T
            ok[rows[done]] = True
            run = ~done
            rows, w, wtol = rows[run], w[run], wtol[run]
            z, pv = z[:, run], pv[:, run]
        if not len(rows):
            break
        dv = np.polyval(drev, z)
        dv = np.where(dv == 0, 1e-300, dv)
        newt = pv / dv
        # numpy's complex multiply is not bitwise commutative, and a
        # temporary right operand may be reused with the operands swapped,
        # so s is bound to a name and stays on the right of newt.
        s = _aberth_sums(z)
        denom = 1.0 - newt * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        z = z - newt / denom
    pv = np.polyval(rev, z) - w
    roots[rows] = z.T
    ok[rows] = np.abs(pv).max(axis=0) <= wtol
    return roots, ok
