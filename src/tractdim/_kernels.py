"""Hot numeric kernels: batched simultaneous (Aberth-Ehrlich) root finding.

One numpy implementation.  ``python3 perfbench/run.py --workload
poly_side`` times it in its ``aberth_batch`` operation.

The iteration is deterministic and produces identical root orderings: it
is a fixed-point map started from the same perturbed-circle
initialization, so the numerics are bitwise reproducible.
"""

import numpy as np

# No compiled kernel exists; the benchmark's machine line still reports it.
NUMBA_ENABLED = False


def aberth_batch(coeffs, dcoeffs, targets, maxit=800, tol=1e-10):
    """Solve p(z) = w simultaneously for a batch of targets w.

    coeffs: the (d+1,) coefficients, constant term first.  Returns
    (roots, ok): roots has shape (len(targets), d), ok flags whether the
    per-target residual tolerance tol*(1+|w|) was met.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    dcoeffs = np.ascontiguousarray(dcoeffs, dtype=np.complex128)
    targets = np.ascontiguousarray(targets, dtype=np.complex128)
    d = len(coeffs) - 1
    m = len(targets)
    lead = coeffs[-1]
    # Cauchy-style bound, perturbed-circle start (deterministic).
    scale = np.maximum(
        1.0,
        np.abs(targets - coeffs[0]) / np.abs(lead),
    ) ** (1.0 / d)
    comag = max(np.abs(coeffs[k]) / np.abs(lead) for k in range(d)) if d > 0 else 0.0
    radius = 1.0 + np.maximum(scale, comag ** (1.0 / d) if comag > 0 else 0.0)
    angles = 2.0 * np.pi * np.arange(d) / d + 0.45
    roots = radius[:, None] * np.exp(1j * angles)[None, :]

    rev = coeffs[::-1].copy()
    drev = dcoeffs[::-1].copy()
    wtol = tol * (1.0 + np.abs(targets))
    done = np.zeros(m, dtype=bool)
    for _ in range(maxit):
        pv = np.polyval(rev, roots) - targets[:, None]
        res = np.abs(pv).max(axis=1)
        done = res <= wtol
        if done.all():
            break
        dv = np.polyval(drev, roots)
        dv = np.where(dv == 0, 1e-300, dv)
        newt = pv / dv
        diff = roots[:, :, None] - roots[:, None, :]
        np.einsum("ijj->ij", diff)[...] = 1.0
        s = (1.0 / diff).sum(axis=2) - 1.0  # remove the unit diagonal
        diff = None
        denom = 1.0 - newt * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = newt / denom
        roots = roots - np.where(done[:, None], 0.0, step)
    pv = np.polyval(rev, roots) - targets[:, None]
    ok = np.abs(pv).max(axis=1) <= wtol
    return roots, ok

