"""Hot numeric kernels: batched simultaneous (Aberth-Ehrlich) root finding.

Two interchangeable implementations live here: a numba @njit version and a
pure-numpy one.  Selection happens once at import time; set the environment
variable ``TRACTDIM_NO_NUMBA=1`` to force the numpy path.  Compare both with
``python3 perfbench/run.py --workload poly_side``, which reports the path in
use and times the kernel in its ``aberth_batch`` operation.

Both paths are deterministic and produce identical root orderings: the
iteration is a fixed-point map started from the same perturbed-circle
initialization, so the numerics are bitwise reproducible per path.
"""

import os

import numpy as np

NUMBA_ENABLED = os.environ.get("TRACTDIM_NO_NUMBA", "0") != "1"
if NUMBA_ENABLED:
    try:
        import numba
    except ImportError:  # pragma: no cover
        NUMBA_ENABLED = False


def _aberth_batch_numpy(coeffs, dcoeffs, targets, maxit, tol):
    """Roots of p(z) - w for every w in targets.

    coeffs: complex128 (d+1,), constant term first.  Returns (m, d) roots
    and an (m,) bool convergence mask.
    """
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


if NUMBA_ENABLED:

    @numba.njit(cache=True)
    def _aberth_batch_njit(coeffs, dcoeffs, targets, maxit, tol):  # pragma: no cover
        d = len(coeffs) - 1
        m = len(targets)
        lead = coeffs[-1]
        comag = 0.0
        for k in range(d):
            v = abs(coeffs[k]) / abs(lead)
            if v > comag:
                comag = v
        roots = np.empty((m, d), dtype=np.complex128)
        ok = np.zeros(m, dtype=np.bool_)
        for i in range(m):
            w = targets[i]
            scale = max(1.0, abs(w - coeffs[0]) / abs(lead)) ** (1.0 / d)
            r0 = 1.0 + max(scale, comag ** (1.0 / d) if comag > 0 else 0.0)
            for j in range(d):
                ang = 2.0 * np.pi * j / d + 0.45
                roots[i, j] = r0 * complex(np.cos(ang), np.sin(ang))
            wtol = tol * (1.0 + abs(w))
            for _ in range(maxit):
                worst = 0.0
                for j in range(d):
                    z = roots[i, j]
                    pv = coeffs[d] + 0j
                    dv = dcoeffs[d - 1] + 0j if d >= 1 else 0j
                    for k in range(d - 1, -1, -1):
                        pv = pv * z + coeffs[k]
                    for k in range(d - 2, -1, -1):
                        dv = dv * z + dcoeffs[k]
                    pv -= w
                    a = abs(pv)
                    if a > worst:
                        worst = a
                    if dv == 0:
                        dv = 1e-300 + 0j
                    newt = pv / dv
                    s = 0j
                    for k in range(d):
                        if k != j:
                            s += 1.0 / (z - roots[i, k])
                    denom = 1.0 - newt * s
                    if abs(denom) < 1e-300:
                        denom = 1e-300 + 0j
                    roots[i, j] = z - newt / denom
                if worst <= wtol:
                    break
            worst = 0.0
            for j in range(d):
                z = roots[i, j]
                pv = coeffs[d] + 0j
                for k in range(d - 1, -1, -1):
                    pv = pv * z + coeffs[k]
                a = abs(pv - w)
                if a > worst:
                    worst = a
            ok[i] = worst <= wtol
        return roots, ok


def aberth_batch(coeffs, dcoeffs, targets, maxit=800, tol=1e-10):
    """Solve p(z) = w simultaneously for a batch of targets w.

    Returns (roots, ok): roots has shape (len(targets), deg), ok flags
    whether the per-target residual tolerance tol*(1+|w|) was met.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    dcoeffs = np.ascontiguousarray(dcoeffs, dtype=np.complex128)
    targets = np.ascontiguousarray(targets, dtype=np.complex128)
    if NUMBA_ENABLED:
        return _aberth_batch_njit(coeffs, dcoeffs, targets, maxit, tol)
    return _aberth_batch_numpy(coeffs, dcoeffs, targets, maxit, tol)
