"""The hot kernels against their references.

The active-set Aberth kernel is compared with a frozen copy of the dense
loop, bitwise: roots by their bytes, ok flags exactly.  A warm start is
held to the same row independence and to the cold tolerance.  A batch
of two preimage-tree row blocks and three rows more equals each of its
rows solved alone.  clog is compared with numpy's complex log: bitwise on the
special values, to within 2*eps*(1 + |log z|) on normal-range |z|.
Subnormal |z| is outside its contract: there ``abs`` underflows and the
real part differs.
"""

import numpy as np
import pytest

from tractdim import _kernels, poly
from tractdim.poly import Polynomial


def dense_aberth(coeffs, dcoeffs, targets, maxit=800, tol=1e-10):
    """The dense kernel as it stood before the active set (frozen copy).

    Every row iterates until the slowest row converges; finished rows are
    masked out of the step, and the correction sum is taken over an
    (m, d, d) difference tensor.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    dcoeffs = np.ascontiguousarray(dcoeffs, dtype=np.complex128)
    targets = np.ascontiguousarray(targets, dtype=np.complex128)
    d = len(coeffs) - 1
    m = len(targets)
    lead = coeffs[-1]
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


POLYS = {
    2: Polynomial.from_string("z^2-1"),
    3: Polynomial.from_string("z^3-0.5z"),
    5: Polynomial.from_string("z^5-0.3z^2+0.1"),
}


def _arrays(p):
    return (np.array(p.coefficients, dtype=complex),
            np.array(p.derivative_coefficients(), dtype=complex))


def _targets(seed, m):
    rng = np.random.default_rng(seed)
    return 3.0 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))


def _critical_value(p):
    return complex(p(complex(p.critical_points()[0])))


def assert_bitwise(got, want):
    roots, ok = got
    assert roots.shape == want[0].shape
    assert roots.tobytes() == want[0].tobytes()
    assert ok.dtype == bool and np.array_equal(ok, want[1])


@pytest.mark.parametrize("d", sorted(POLYS))
def test_random_targets_match_dense(d):
    coeffs, dcoeffs = _arrays(POLYS[d])
    # 9000 rows: enough elements that numpy reuses large temporaries
    targets = _targets(d, 9000)
    got = _kernels.aberth_batch(coeffs, dcoeffs, targets)
    assert_bitwise(got, dense_aberth(coeffs, dcoeffs, targets))
    assert got[1].all()


@pytest.mark.parametrize("d", sorted(POLYS))
def test_random_coefficients_match_dense(d):
    rng = np.random.default_rng(100 + d)
    coeffs = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
    dcoeffs = coeffs[1:] * np.arange(1, d + 1)
    targets = _targets(200 + d, 500)
    assert_bitwise(_kernels.aberth_batch(coeffs, dcoeffs, targets),
                   dense_aberth(coeffs, dcoeffs, targets))


def test_tree_level_matches_dense():
    p = POLYS[3]
    coeffs, dcoeffs = _arrays(p)
    targets, _ = poly._preimage_levels(p, 5.0 + 0j, 6)[-1]
    assert len(targets) == 3**6
    assert_bitwise(_kernels.aberth_batch(coeffs, dcoeffs, targets),
                   dense_aberth(coeffs, dcoeffs, targets))


@pytest.mark.parametrize("d", sorted(POLYS))
def test_critical_value_matches_dense(d):
    """A double root converges slowly; it keeps running after the rest."""
    p = POLYS[d]
    coeffs, dcoeffs = _arrays(p)
    targets = np.concatenate([[_critical_value(p)], _targets(d, 200)])
    got = _kernels.aberth_batch(coeffs, dcoeffs, targets)
    assert_bitwise(got, dense_aberth(coeffs, dcoeffs, targets))
    single = _kernels.aberth_batch(coeffs, dcoeffs, targets[:1])
    assert_bitwise(single, dense_aberth(coeffs, dcoeffs, targets[:1]))


@pytest.mark.parametrize("maxit", [0, 2, 4])
def test_unconverged_flags_match_dense(maxit):
    coeffs, dcoeffs = _arrays(POLYS[3])
    targets = np.concatenate([[_critical_value(POLYS[3])], _targets(7, 300)])
    got = _kernels.aberth_batch(coeffs, dcoeffs, targets, maxit=maxit)
    assert_bitwise(got, dense_aberth(coeffs, dcoeffs, targets, maxit=maxit))
    assert not got[1].all()


@pytest.mark.parametrize("d", sorted(POLYS))
def test_empty_targets(d, monkeypatch):
    # an empty batch stops before its first correction step
    def stepped(*args):
        raise AssertionError("an empty batch took an Aberth step")

    monkeypatch.setattr(_kernels, "_aberth_sums", stepped)
    roots, ok = _kernels.aberth_batch(*_arrays(POLYS[d]), np.array([], complex))
    assert roots.shape == (0, d)
    assert ok.shape == (0,)


@pytest.mark.parametrize("d", sorted(POLYS))
def test_rows_are_independent(d):
    p = POLYS[d]
    coeffs, dcoeffs = _arrays(p)
    targets = np.concatenate([[_critical_value(p)], _targets(11, 40)])
    batch = _kernels.aberth_batch(coeffs, dcoeffs, targets)
    for i, w in enumerate(targets):
        alone = _kernels.aberth_batch(coeffs, dcoeffs, np.array([w]))
        assert_bitwise((batch[0][i:i + 1], batch[1][i:i + 1]), alone)


def _nearby_start(p, targets):
    """Cold roots of targets moved by 1e-3: a start near each row's fiber."""
    return _kernels.aberth_batch(*_arrays(p), targets * (1.0 + 1e-3))[0]


@pytest.mark.parametrize("d", sorted(POLYS))
def test_warm_rows_are_independent(d):
    p = POLYS[d]
    coeffs, dcoeffs = _arrays(p)
    targets = np.concatenate([[_critical_value(p)], _targets(13, 40)])
    start = _nearby_start(p, targets)
    kept = start.copy()
    batch = _kernels.aberth_batch(coeffs, dcoeffs, targets, start=start)
    assert batch[1].all()
    assert start.tobytes() == kept.tobytes()
    for i, w in enumerate(targets):
        alone = _kernels.aberth_batch(coeffs, dcoeffs, np.array([w]),
                                      start=start[i:i + 1])
        assert_bitwise((batch[0][i:i + 1], batch[1][i:i + 1]), alone)


@pytest.mark.parametrize("d", sorted(POLYS))
def test_warm_start_at_the_roots_stops_there(d):
    # a row stops at its first iterate inside the tolerance, so a start
    # that already meets it comes back unchanged
    coeffs, dcoeffs = _arrays(POLYS[d])
    targets = _targets(17, 200)
    cold = _kernels.aberth_batch(coeffs, dcoeffs, targets)
    assert_bitwise(
        _kernels.aberth_batch(coeffs, dcoeffs, targets, start=cold[0]), cold)


@pytest.mark.parametrize("d", sorted(POLYS))
def test_warm_roots_meet_the_cold_tolerance(d):
    p = POLYS[d]
    coeffs, dcoeffs = _arrays(p)
    targets = _targets(19, 500)
    roots, ok = _kernels.aberth_batch(coeffs, dcoeffs, targets,
                                      start=_nearby_start(p, targets))
    assert ok.all()
    res = np.abs(np.polyval(coeffs[::-1], roots) - targets[:, None])
    assert (res <= 1e-10 * (1.0 + np.abs(targets))[:, None]).all()
    cold = _kernels.aberth_batch(coeffs, dcoeffs, targets)[0]
    gap = np.abs(roots[:, :, None] - cold[:, None, :]).min(axis=2)
    assert gap.max() <= 1e-9


@pytest.mark.parametrize("shape", [(5, 4), (4, 3), (5,), (15,), (1, 5, 3)])
def test_warm_start_shape_refused(shape):
    coeffs, dcoeffs = _arrays(POLYS[3])
    with pytest.raises(ValueError, match="start has shape"):
        _kernels.aberth_batch(coeffs, dcoeffs, _targets(23, 5),
                              start=np.ones(shape, complex))


def _blocked_targets(p):
    """Two full row blocks and three rows more, the critical value first."""
    m = 2 * poly._ROW_BLOCK + 3
    return np.concatenate([[_critical_value(p)], _targets(29, m - 1)])


def _block_edge_rows(m):
    edges = range(0, m, poly._ROW_BLOCK)
    near = {i + k for i in edges for k in (-2, -1, 0, 1)} | {m - 1}
    extra = np.random.default_rng(31).integers(0, m, 24)
    return sorted({i for i in near if 0 <= i < m} | set(extra.tolist()))


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("d", sorted(POLYS))
def test_row_blocks_equal_one_pass_and_one_row_solves(d, warm):
    p = POLYS[d]
    coeffs, dcoeffs = _arrays(p)
    targets = _blocked_targets(p)
    start = _nearby_start(p, targets) if warm else None
    batch = _kernels.aberth_batch(coeffs, dcoeffs, targets, start=start)
    for i in _block_edge_rows(len(targets)):
        alone = _kernels.aberth_batch(
            coeffs, dcoeffs, targets[i:i + 1],
            start=None if start is None else start[i:i + 1])
        assert_bitwise((batch[0][i:i + 1], batch[1][i:i + 1]), alone)


@pytest.mark.parametrize("extra_rows, extra_cols",
                         [(-1, 0), (0, 1), (poly._ROW_BLOCK, 0)])
def test_blocked_start_shape_refused_before_any_block(extra_rows, extra_cols,
                                                      monkeypatch):
    p = POLYS[3]
    targets = _blocked_targets(p)
    start = np.ones((len(targets) + extra_rows, 3 + extra_cols), complex)

    def solved(*args):
        raise AssertionError("a pass ran before start was checked")

    monkeypatch.setattr(_kernels, "_aberth_sums", solved)
    with pytest.raises(ValueError, match="start has shape"):
        _kernels.aberth_batch(*_arrays(p), targets, start=start)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 64, 65, 70, 131, 300])
def test_pairwise_sum_is_numpy_sum(n):
    rng = np.random.default_rng(n)
    terms = rng.standard_normal((n, 7, 3)) + 1j * rng.standard_normal((n, 7, 3))
    terms *= 10.0 ** rng.integers(-8, 9, terms.shape)
    got = _kernels._pairwise_sum(lambda k: terms[k].copy(), 0, n)
    want = np.moveaxis(terms, 0, -1).copy().sum(axis=-1)
    assert got.tobytes() == want.tobytes()


EPS = np.finfo(float).eps
_SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan)
_FINITE = (1.0, -1.0, 2.5, -0.5)


def test_clog_special_values_match_numpy_bitwise():
    # every z with a zero (of either sign), infinite or nan part: 0, both
    # real half-axes with +0 and -0 imaginary parts, the imaginary axis,
    # infinities and nan in every position
    parts = _SPECIAL + _FINITE
    z = np.array([complex(x, y) for x in parts for y in parts
                  if not (x in _FINITE and y in _FINITE)])
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.log(z)
        got = _kernels.clog(z)
    assert got.dtype == np.complex128 and got.shape == z.shape
    assert got.tobytes() == want.tobytes()


def _assert_close_to_log(z):
    want = np.log(z)
    got = _kernels.clog(z)
    assert np.all(np.abs(got - want) <= 2 * EPS * (1 + np.abs(want)))


def test_clog_normal_range_matches_numpy():
    rng = np.random.default_rng(5)
    z = rng.standard_normal(20000) + 1j * rng.standard_normal(20000)
    z *= 10.0 ** rng.uniform(-300, 300, z.shape)
    _assert_close_to_log(z)


def test_clog_near_unit_circle_matches_numpy():
    # |z| within 1e-9 of 1, where log|z| cancels
    rng = np.random.default_rng(6)
    radius = 1.0 + rng.uniform(-1e-9, 1e-9, 20000)
    _assert_close_to_log(radius * np.exp(1j * rng.uniform(-np.pi, np.pi, 20000)))


def test_clog_shapes():
    z = np.arange(1, 13).reshape(3, 4) * (1 - 2j)
    assert _kernels.clog(z).shape == (3, 4)
    # a scalar gives a 0-d array, as the escape ladder's 0-d fallback needs
    got = _kernels.clog(-2.0 + 0j)
    assert got.shape == () and complex(got) == complex(np.log(-2.0 + 0j))
