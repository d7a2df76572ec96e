"""Transfer-operator sums, iterated pressure, and the dimension zero."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import tractdim.cli as cli
import tractdim.linearizer as lz
import tractdim.numerics as numerics
import tractdim.tract as tr
import tractdim.transfer as tf
from tractdim.errors import BudgetExceeded, DivergenceDetected, NoSignChange
from tractdim.poly import Polynomial

E2 = complex(math.e ** 2)
E3 = complex(math.e ** 3)
E4 = complex(math.e ** 4)


@pytest.fixture(scope="module")
def exp_atlas():
    return tr.find_tracts(lz.exp_power(1.0, 1), np.e)


@pytest.fixture(scope="module")
def quarter_atlas():
    return tr.find_tracts(lz.exp_power(0.25, 1), np.e)


@pytest.fixture(scope="module")
def square_atlas():
    return tr.find_tracts(lz.exp_power(1.0, 2), np.e)


@pytest.fixture(scope="module")
def koenigs_atlas():
    h = lz.make_koenigs(Polynomial.from_string("z^2"), 1.0, kappa=0.25)
    return tr.find_tracts(h, np.e)


class TestApplyPoint:
    def test_cotangent_closed_form(self, exp_atlas, square_atlas):
        # sum over k of (b^2 + 4 pi^2 k^2)^(-1) = coth(b/2)/(2b); e^(z^2)
        # has two tracts, each weighing 1/(4|xi|^2), so half that again
        for atlas, scale in ((exp_atlas, 1.0), (square_atlas, 0.5)):
            s1 = tf.transfer_apply_point(atlas, 2.0, E2)
            assert s1.value == pytest.approx(
                scale * math.cosh(1) / math.sinh(1) / 4, abs=1e-6)
            s2 = tf.transfer_apply_point(atlas, 2.0, E4)
            assert s2.value == pytest.approx(
                scale * math.cosh(2) / math.sinh(2) / 8, abs=1e-6)

    def test_shared_weight_formed_once(self, square_atlas, monkeypatch):
        # e^(z^2)'s two tracts share one closed-form weight, so each half
        # of a dyadic block (at most 65 terms here, one slice) is weighed
        # once, not once per tract
        calls = []
        log_weight = tr.log_weight
        monkeypatch.setattr(tr, "log_weight", lambda branch, xi: (
            calls.append(np.size(xi)), log_weight(branch, xi))[1])
        sample = tf.transfer_apply_point(square_atlas, 2.0, E2, k_budget=64)
        assert len(calls) == 2 * len(sample.block_sums)
        # every preimage term is weighed once and counted under each tract
        assert sample.terms_used == 2 * sum(calls)

    def test_brute_force_oracle(self, exp_atlas):
        sample = tf.transfer_apply_point(exp_atlas, 1.5, E2, k_budget=4096)
        ks = np.arange(-4096, 4097)
        brute = np.sum(np.abs(2.0 + 2j * np.pi * ks) ** -1.5)
        assert sample.value == pytest.approx(brute, rel=1e-12)

    def test_continued_phi_matches_exp(self, exp_atlas):
        # z^2's Koenigs map at z0 = 1 with kappa = 1/4 is e^{z/4}: its
        # continued phi is 4 xi, so |phi'/phi| = 1/|xi| as for exp
        h = lz.make_koenigs(Polynomial.from_string("z^2"), 1.0, kappa=0.25)
        atlas = tr.find_tracts(h, np.e)
        assert atlas.tracts[0].sampled
        ts = (1.5, 2.0, 3.0)
        got = tf.transfer_apply_point(atlas, ts, E2, 1024)
        want = tf.transfer_apply_point(exp_atlas, ts, E2, 1024)
        for g, w in zip(got, want):
            assert g.value == pytest.approx(w.value, rel=1e-12, abs=0)

    def test_sample_invariants(self, exp_atlas):
        s = tf.transfer_apply_point(exp_atlas, 2.0, E2)
        assert s.value >= 0 and s.tail_estimate >= 0
        assert s.value == pytest.approx(math.fsum(s.block_sums), rel=1e-12)
        assert s.terms_used > 0

    def test_truncation_stability(self, exp_atlas, square_atlas):
        for atlas, t in ((exp_atlas, 1.5), (exp_atlas, 2.0),
                         (square_atlas, 2.0)):
            a = tf.transfer_apply_point(atlas, t, E2, k_budget=1 << 12)
            b = tf.transfer_apply_point(atlas, t, E2, k_budget=1 << 13)
            assert abs(b.value - a.value) < max(a.tail_estimate,
                                                1e-9 * a.value)

    @pytest.mark.parametrize("spec,want", [("exp", 1.6530663339108318),
                                           ("quarter", 1.42636739139545)])
    def test_tail_completes_the_sum(self, spec, want):
        # at t = 1.2 the walk stops at the 2^19 budget with its value 5%
        # low; the geometric remainder past the last block makes up all
        # but 6e-7 of it, where counting the last block twice left 8e-3
        s = tf.transfer_apply_point(fresh_atlas(spec), 1.2, E2)
        assert s.value + s.tail_estimate == pytest.approx(want, rel=1e-5)

    def test_divergence_dichotomy(self, exp_atlas):
        for t in (1.2, 1.5, 2.0):
            assert tf.transfer_apply_point(exp_atlas, t, E2).value > 0
        for t in (0.5, 0.8):
            with pytest.raises(DivergenceDetected):
                tf.transfer_apply_point(exp_atlas, t, E2)

    def test_domain_guards(self, exp_atlas):
        with pytest.raises(ValueError):
            tf.transfer_apply_point(exp_atlas, 0.0, E2)
        with pytest.raises(ValueError):
            tf.transfer_apply_point(exp_atlas, 2.0, 1.0 + 0j)
        # outside the unit reference circle, but log|w| is below the
        # half-plane offset its preimages need
        unit = tr.find_tracts(lz.exp_power(1.0, 1), 1.0)
        with pytest.raises(ValueError, match="too small"):
            tf.transfer_apply_point(unit, 2.0, 1.01 + 0j)

    def test_refuses_w_inside_reference_circle(self, monkeypatch):
        # e^2 lies inside |w| = 10, so no preimage of it lies in a tract
        atlas = tr.find_tracts(lz.exp_power(1.0, 1), 10.0)
        walks = count_walks(monkeypatch)
        for t in (2.0, (1.5, 2.0)):
            with pytest.raises(ValueError, match="reference circle"):
                tf.transfer_apply_point(atlas, t, E2)
        assert walks == [0]


def fresh_atlas(spec):
    return tr.find_tracts(cli.function_from_spec(spec), math.e)


def count_walks(monkeypatch):
    """Count tr.log_weight calls from here on, in a one-element list.

    The point operator reads every preimage's weight through it.
    """
    walks = [0]
    log_weight = tr.log_weight

    def counting(branch, xis):
        walks[0] += 1
        return log_weight(branch, xis)

    monkeypatch.setattr(tr, "log_weight", counting)
    return walks


def sample_fields(s):
    return (s.t, s.value, s.terms_used, s.tail_estimate, s.block_sums)


def one_t_walk(atlas, t, w, k_budget):
    """(block_sums, terms_used) of the one-t dyadic walk, frozen as it was
    before the walk served a grid, to pin the order of the additions."""
    logw, argw = math.log(abs(w)), math.atan2(w.imag, w.real)
    knee = math.log2(max(logw, 2.0))
    blocks, terms, streak, n = [], 0, 0, 0
    while True:
        if n == 0:
            halves = (np.array([-1]), np.array([0, 1]))
        else:
            pos = np.arange((1 << (n - 1)) + 1, (1 << n) + 1)
            halves = (-pos, pos)
        block = 0.0
        for branch in atlas.tracts:
            part = 0.0
            for ks in halves:
                xi = logw + 1j * (argw + 2.0 * math.pi * ks.astype(float))
                logterm = tr.log_weight(branch, xi)
                part += float(np.sum(np.exp(t * logterm)))
                terms += len(ks)
            block += part
        blocks.append(block)
        if n >= 1:
            grew = n > knee and block >= blocks[-2] * 1.02
            streak = streak + 1 if grew else 0
            assert streak < 4, "diverged"
            if block < blocks[-2] and block < 1e-10 * math.fsum(blocks):
                return blocks, terms
        if (1 << n) >= k_budget:
            return blocks, terms
        n += 1


class TestPointGrid:
    @pytest.mark.parametrize("spec", ["exp", "quarter", "square", "composite"])
    def test_grid_matches_fresh_scalar_calls(self, spec):
        # t = 6 and t = 4 stop blocks before the budget, t = 1.5 and 2 run
        # to it, so the grid's t stop at different blocks of one walk
        grid = (1.5, 6.0, 2.0, 4.0)
        got = tf.transfer_apply_point(fresh_atlas(spec), grid, E2, 1 << 14)
        want = [tf.transfer_apply_point(fresh_atlas(spec), t, E2, 1 << 14)
                for t in grid]
        assert [sample_fields(s) for s in got] == [sample_fields(s)
                                                  for s in want]
        assert [(s.block_sums, s.terms_used) for s in got] == [
            one_t_walk(fresh_atlas(spec), t, E2, 1 << 14) for t in grid]
        assert len({s.terms_used for s in want}) == 3
        assert got.terms_used == max(s.terms_used for s in want)

    @pytest.mark.parametrize("spec, grid", [("exp", (1.2, 0.5, 2.0)),
                                            ("composite", (0.86, 0.5))])
    def test_grid_raises_the_loops_first_divergence(self, spec, grid):
        # on composite t = 0.5 diverges at block 5 and t = 0.86 at block
        # 12, but a loop over (0.86, 0.5) raises at 0.86
        with pytest.raises(DivergenceDetected) as info:
            tf.transfer_apply_point(fresh_atlas(spec), grid, E2, 1 << 14)
        for t in grid:
            try:
                tf.transfer_apply_point(fresh_atlas(spec), t, E2, 1 << 14)
            except DivergenceDetected as exc:
                assert str(info.value) == str(exc)
                break
        else:
            pytest.fail("no t of the grid diverged alone")

    def test_nonpositive_t_raises_before_any_walk(self, exp_atlas,
                                                  monkeypatch):
        walks = count_walks(monkeypatch)
        for t in ((2.0, 1.5, 0.0), math.nan, (2.0, math.nan, 1.5)):
            with pytest.raises(ValueError, match="t must be positive"):
                tf.transfer_apply_point(exp_atlas, t, E2)
        assert walks[0] == 0

    @pytest.mark.parametrize("spec", ["exp", "composite"])
    def test_divergence_raises_once_earlier_t_end(self, spec, monkeypatch):
        # t = 0.5 diverges at block 5, but t = 6 before it ends only at
        # block 6, so the grid raises after blocks 0 ... 6 (14 calls, one
        # per half), as a loop of one-t calls does; a walk that raised
        # only once every t ended would run t = 1.2 on to block 14
        atlas = fresh_atlas(spec)
        walks = count_walks(monkeypatch)
        with pytest.raises(DivergenceDetected, match="at t=0.5$"):
            tf.transfer_apply_point(atlas, (6.0, 0.5, 1.2), E2, 1 << 14)
        assert walks[0] == 14

    def test_koenigs_grid_free_of_call_history(self):
        # a sampled atlas keeps the anchors its walks leave, so a second
        # scalar call on one atlas reads another value; the grid walks once
        got = tf.transfer_apply_point(fresh_atlas("koenigs:z^2-1"),
                                      (1.5, 2.0), E2, k_budget=64)
        want = tf.transfer_apply_point(fresh_atlas("koenigs:z^2-1"), 2.0,
                                       E2, k_budget=64)
        assert sample_fields(got[1]) == sample_fields(want)

    def test_grid_walks_as_often_as_one_t(self, exp_atlas, monkeypatch):
        walks = count_walks(monkeypatch)
        counts = []
        for grid in ((2.0,), (1.2, 1.5, 2.0)):
            walks[0] = 0
            tf.transfer_apply_point(exp_atlas, grid, E2, k_budget=1 << 10)
            counts.append(walks[0])
        assert counts[0] == counts[1] > 0

    def test_cli_walks_as_often_as_one_t(self, tmp_path, capsys,
                                         monkeypatch):
        walks = count_walks(monkeypatch)
        counts = []
        for tmin in ("2.0", "1.2"):
            walks[0] = 0
            assert cli.main(["transfer", "--function", "exp", "--tmin", tmin,
                             "--out", str(tmp_path / tmin)]) == 0
            counts.append(walks[0])
        capsys.readouterr()
        rows = (tmp_path / "1.2" / "transfer.csv").read_text().splitlines()
        assert len(rows) == 3  # t = 1.2 and 1.7
        assert counts[0] == counts[1] > 0


@pytest.mark.xfail(strict=True, reason="the wrapped residual lets phi_path "
                   "accept a neighbouring 2 pi i sheet: k = -32 and k = -33 "
                   "share one preimage (ROADMAP item 1)")
def test_koenigs_preimages_distinct(monkeypatch):
    atlas = tr.find_tracts(cli.function_from_spec("koenigs:z^2-1"), math.e)
    walked = []
    phi_path = tr.phi_path

    def recording(branch, xis):
        z, dphi = phi_path(branch, xis)
        walked.append(z)
        return z, dphi

    monkeypatch.setattr(tr, "phi_path", recording)
    sample = tf.transfer_apply_point(atlas, 2.0, E2)
    z = np.concatenate(walked)
    assert sample.terms_used == len(z) == 2049
    for i in range(len(z) - 1):
        rest = z[i + 1:]
        gap = np.abs(rest - z[i]) / np.maximum(np.abs(rest), abs(z[i]))
        assert gap.min() > 1e-6


def dyadic_profile(atlas, t):
    """Per-block exponents of the operator's dyadic block sums at e^2."""
    return tf.dyadic_exponents(tf.transfer_apply_point(atlas, t, E2).block_sums)


class TestDyadicProfile:
    def test_exp_exponents_approach_minus_one(self, exp_atlas):
        prof = dyadic_profile(exp_atlas, 2.0)
        first, last = prof[2][1], prof[-1][1]
        assert abs(last + 1.0) < 0.3
        assert abs(last + 1.0) < abs(first + 1.0)

    def test_exp_borderline_flat(self, exp_atlas):
        # t = 1 is the exact edge of the dichotomy: the blocks stop
        # decaying, so the sum is reported divergent
        with pytest.raises(DivergenceDetected):
            tf.transfer_apply_point(exp_atlas, 1.0, E2)

    def test_square_map_decay(self, square_atlas):
        prof = dyadic_profile(square_atlas, 2.0)
        assert all(e <= -0.8 for n, e in prof if n >= 6)


class TestIterate:
    def test_depth_one_identity(self, exp_atlas):
        # all first-level preimages of e^4 stay outside the reference
        # circle, so depth 1 and the point operator coincide exactly
        v = tf.transfer_iterate(tf.iterate_frontier(exp_atlas, E4, 1, 128),
                                2.0, 1)
        s = tf.transfer_apply_point(exp_atlas, 2.0, E4, k_budget=128)
        assert v == pytest.approx(s.value, rel=1e-12)

    def test_depth_two_oracle(self, exp_atlas):
        v = tf.transfer_iterate(tf.iterate_frontier(exp_atlas, E2, 2, 128),
                                2.0, 2)
        B1, B2 = tf.level_budgets(128, 2)
        ks = np.arange(-B1, B1 + 1)
        xi = 2.0 + 2j * np.pi * ks
        brute = sum(
            abs(1.0 / x) ** 2
            * tf.transfer_apply_point(exp_atlas, 2.0, complex(x), B2).value
            for x in xi if abs(x) > exp_atlas.radius
        )
        assert v == pytest.approx(brute, abs=1e-8)

    def test_normalized_sequence_settles(self, exp_atlas):
        frontier = tf.iterate_frontier(exp_atlas, -E2, 4, 64)
        vals = [tf.transfer_iterate(frontier, 2.0, n) for n in (1, 2, 3, 4)]
        seq = [math.log(v) / n for n, v in zip((1, 2, 3, 4), vals)]
        assert all(-2.6 < x < -1.0 for x in seq)
        assert abs(seq[3] - seq[2]) < 0.5

    def test_depth_guard(self, exp_atlas):
        with pytest.raises(ValueError):
            tf.iterate_frontier(exp_atlas, E2, 5)
        with pytest.raises(ValueError):
            tf.iterate_frontier(exp_atlas, E2, 0)
        frontier = tf.iterate_frontier(exp_atlas, E2, 2, 32)
        for n in (0, 3):
            with pytest.raises(ValueError):
                tf.transfer_iterate(frontier, 2.0, n)
        for t, n in ((0.0, 2), (math.nan, 2), (math.nan, 1)):
            with pytest.raises(ValueError, match="t must be positive"):
                tf.transfer_iterate(frontier, t, n)

    def test_frontier_cap(self, exp_atlas):
        with pytest.raises(BudgetExceeded):
            tf.iterate_frontier(exp_atlas, E2, 4, 4096)

    def test_frontier_is_frozen(self, exp_atlas, square_atlas):
        frontier = tf.iterate_frontier(exp_atlas, E2, 2, 32)
        assert frontier.depth == 2
        # exp's preimages of e^2 are 2 + 2 pi i k, and all but k = 0 lie
        # outside the reference circle |w| = e, so each expands
        B1, B2 = tf.level_budgets(32, 2)
        assert [len(a) for a in frontier.levels] == [
            2 * B1 + 1, 2 * B1 * (2 * B2 + 1)]
        for level in frontier.levels:
            # no complex preimages are kept, only path sums
            assert level.dtype == float and level.ndim == 1
            with pytest.raises(ValueError):
                level[0] = 0.0
        # e^(z^2)'s two tracts share their closed-form weight, so its last
        # level is one tract's path sums, broadcast over both
        frontier = tf.iterate_frontier(square_atlas, E2, 2, 32)
        first, last = frontier.levels
        assert first.ndim == 1 and first.size == 2 * (2 * B1 + 1)
        # the depth-1 preimages with |k| <= 1, 2 per tract, have
        # |phi|^2 = |2 + 2 pi i k| < e^2 and do not expand
        assert last.dtype == float
        assert last.shape == (2, (first.size - 6) * (2 * B2 + 1))
        assert np.shares_memory(last[0], last[1])
        with pytest.raises(ValueError):
            last[0, 0] = 0.0

    def test_empty_level_refused(self):
        # e^2 lies outside |w| = 7.3, but none of its depth-1 preimages
        # under e^(z^2) with |k| <= 8 does (|phi| <= 7.09): depth 2 would
        # have no terms, and its value would read as an underflow
        atlas = tr.find_tracts(lz.exp_power(1.0, 2), 7.3)
        with pytest.raises(ValueError, match="level 2 is empty: every "
                           r"preimage of depth 1 with \|k\| <= 8 lies inside "
                           r"the reference circle \|w\| = 7.3"):
            tf.iterate_frontier(atlas, E2, 3, 8)

    @pytest.mark.parametrize("spec", ["exp", "quarter", "square", "composite"])
    def test_path_sums_match_per_t_gather(self, spec):
        # reference: per t, gather the parents' weights, add
        # t log|phi'/phi|, then sort and sum the exponentials
        atlas = tr.find_tracts(cli.function_from_spec(spec), math.e)
        frontier = tf.iterate_frontier(atlas, E2, 3)
        zs, tree = np.array([E2]), []
        for B in tf.level_budgets(128, 3):
            kept = np.flatnonzero(np.log(np.abs(zs)) > math.log(atlas.radius))
            xi = (np.log(np.abs(zs[kept]))[:, None]
                  + 1j * (np.angle(zs[kept])[:, None]
                          + 2 * np.pi * np.arange(-B, B + 1)))
            walks = [tr.phi_path(branch, xi) for branch in atlas.tracts]
            tree.append([(kept, np.log(np.abs(dz)) - np.log(np.abs(z)))
                         for z, dz in walks])
            zs = np.concatenate([z.ravel() for z, _ in walks])
        for t in (1.2, 1.5, 2.0, 2.5):
            logwt = np.array([0.0])
            for n, level in enumerate(tree, start=1):
                logwt = np.concatenate([(logwt[kept][:, None] + t * lt).ravel()
                                        for kept, lt in level])
                if n >= 2:
                    old = float(np.sum(np.exp(np.sort(logwt))))
                    assert tf.transfer_iterate(frontier, t, n) == \
                        pytest.approx(old, rel=1e-13, abs=0)


def float_bits(x):
    """The bytes of a float64, with every nan as one value."""
    return b"nan" if math.isnan(x) else np.float64(x).tobytes()


def sample_bits(s):
    return (float_bits(s.value), s.terms_used, float_bits(s.tail_estimate),
            [float_bits(b) for b in s.block_sums])


class TestSumExp:
    # the square frontier's last level has 2,174,776 path sums
    SIZES = [0, 1, 7, 8, 128, 129, "leaf-1", "leaf", "leaf+1", "2leaf+7",
             2174776]

    @pytest.mark.parametrize("fill", ["sorted", "unsorted", "-inf", "nan"])
    @pytest.mark.parametrize("t", [0.5, 1.5, 900.0])
    @pytest.mark.parametrize("size", SIZES)
    def test_equals_numpy_sum_bit_for_bit(self, size, t, fill):
        # at t = 900 most terms underflow to 0 and a few reach e^450
        leaf = numerics.LEAF
        n = {"leaf-1": leaf - 1, "leaf": leaf, "leaf+1": leaf + 1,
             "2leaf+7": 2 * leaf + 7}.get(size, size)
        x = np.random.default_rng(n).uniform(-8.0, 0.5, n)
        if fill == "sorted":
            x.sort()
        elif n and fill in ("-inf", "nan"):
            x[n // 3] = -np.inf if fill == "-inf" else np.nan
        want = float(np.sum(np.exp(t * x)))
        assert float_bits(numerics.sum_exp(x, t)) == float_bits(want)

    @pytest.mark.parametrize("t", [0.5, 1.5, 900.0])
    @pytest.mark.parametrize("width", ["leaf-1", "leaf+3", 0])
    def test_rows_in_c_order(self, width, t):
        # leaves cross rows: of a broadcast (2, n) view, as a frontier
        # level shared by two tracts, and of a 2-D array of 3 rows
        n = {"leaf-1": numerics.LEAF - 1,
             "leaf+3": numerics.LEAF + 3}.get(width, width)
        x = np.random.default_rng(n).uniform(-8.0, 0.5, n)
        for a in (np.broadcast_to(x, (2, n)),
                  np.random.default_rng(n + 1).uniform(-8.0, 0.5, (3, n))):
            want = float(np.sum(np.exp(t * a)))
            assert float_bits(numerics.sum_exp(a, t)) == float_bits(want)

    @pytest.mark.parametrize("spec", ["exp", "quarter", "square", "composite"])
    def test_leaf_seams(self, spec, monkeypatch):
        # 7 divides no half, so a half's last slice is a short one, and a
        # sum of over 128 terms splits down to numpy's 128-term blocks
        ts = (1.2, 1.5, 2.0)
        want = tf.transfer_apply_point(fresh_atlas(spec), ts, E2, 1 << 12)
        frontier = tf.iterate_frontier(fresh_atlas(spec), E2, 2, 16)
        deep = [tf.transfer_iterate(frontier, t, 2) for t in ts]
        monkeypatch.setattr(numerics, "LEAF", 7)
        got = tf.transfer_apply_point(fresh_atlas(spec), ts, E2, 1 << 12)
        assert [sample_bits(s) for s in got] == [sample_bits(s)
                                                 for s in want]
        assert [float_bits(tf.transfer_iterate(frontier, t, 2))
                for t in ts] == [float_bits(v) for v in deep]

    def test_point_operator_memory(self, exp_atlas, square_atlas):
        # one half of a block (2.0 MiB at block 19) is held at a time, and
        # each half is formed, and each sum taken, one leaf at a time:
        # 2.9 MiB of numpy allocations on e^z and e^(z^2); holding a whole
        # block gives 4.9 and 8.9 MiB, every walked block 8.9 and 16.9 MiB
        for atlas in (exp_atlas, square_atlas):
            tracemalloc.start()
            try:
                tf.transfer_apply_point(atlas, (1.2, 1.7), E2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * 2**20


def unblocked_levels(atlas, w, n, branch_budget):
    """The frontier's levels as one unblocked walk builds them: each group
    of parents (all of them, or one sampled point) under each branch in
    turn, the rows laid out (branch, parent, k) and kept in that order."""
    sampled = any(b.sampled for b in atlas.tracts)
    zs, sums, levels = np.array([complex(w)]), np.array([0.0]), []
    for level, B in enumerate(tf.level_budgets(branch_budget, n)):
        ks = 2 * np.pi * np.arange(-B, B + 1)
        kept = np.flatnonzero(np.log(np.abs(zs)) > math.log(atlas.radius))
        if sampled:
            groups = [(np.array([i]), math.log(abs(zs[i])),
                       math.atan2(zs[i].imag, zs[i].real)) for i in kept]
        else:
            groups = [(kept, np.log(np.abs(zs[kept]))[:, None],
                       np.angle(zs[kept])[:, None])]
        # rows[b] and children[b] collect branch b's rows, parent by parent
        rows = [[] for _ in atlas.tracts]
        children = [[] for _ in atlas.tracts]
        for idx, logw, argw in groups:
            xi = logw + 1j * (argw + ks)
            for b, branch in enumerate(atlas.tracts):
                if level < n - 1:
                    z, dz = tr.phi_path(branch, xi)
                    logterm = np.log(np.abs(dz)) - np.log(np.abs(z))
                    children[b].append(z.ravel())
                else:
                    logterm = tr.log_weight(branch, xi)
                rows[b].append((logterm.reshape(len(idx), -1)
                                + sums[idx][:, None]).ravel())
        sums = np.concatenate(sum(rows, []))
        levels.append(sums)
        if level < n - 1:
            zs = np.concatenate(sum(children, []))
    return levels


class TestFrontierBlocks:
    CASES = [("exp", 3, 128), ("quarter", 3, 128), ("square", 3, 128),
             ("composite", 3, 128), ("koenigs:z^2-1", 2, 8)]

    @pytest.mark.parametrize("rows", [None, 7])
    @pytest.mark.parametrize("spec,n,budget", CASES)
    def test_levels_match_unblocked_walk(self, spec, n, budget, rows,
                                         monkeypatch):
        # 7 rows divide no level, so every block seam is crossed
        if rows is not None:
            monkeypatch.setattr(tf, "_FRONTIER_ROWS", rows)
        frontier = tf.iterate_frontier(fresh_atlas(spec), E2, n, budget)
        want = unblocked_levels(fresh_atlas(spec), E2, n, budget)
        assert len(frontier.levels) == len(want)
        for got, ref in zip(frontier.levels, want):
            assert got.tobytes() == ref.tobytes()
        for t in (1.2, 1.5, 2.5):
            for k in range(2, n + 1):
                level = frontier.levels[k - 1]
                assert tf.transfer_iterate(frontier, t, k) == \
                    float(np.sum(np.exp(t * level)))

    def test_memory_stays_bounded(self, square_atlas):
        # the last level is one tract's 8.3 MiB of path sums, broadcast
        # over both tracts and filled in row blocks: 13.3 MiB of numpy
        # allocations (21.6 MiB holding both tracts' 16.6 MiB, 70.4 MiB
        # when rows were concatenated); the sum at one t streams through
        # one leaf buffer, where it took a scratch array of the level's size
        tracemalloc.start()
        try:
            frontier = tf.iterate_frontier(square_atlas, E2, 3, 128)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            tf.transfer_iterate(frontier, 1.5, 3)
            extra = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert build_peak <= 16 * 2**20
        assert extra <= 2**20


class TestPressure:
    def test_monotone_in_t(self, quarter_atlas):
        frontier = tf.iterate_frontier(quarter_atlas, E2, 3)
        ps = [tf.pressure_entire(frontier, t).value for t in (1.5, 2.0, 2.5)]
        assert ps[0] > ps[1] > ps[2]

    def test_base_point_spread(self, exp_atlas):
        # the depth-3 estimator carries the oscillation of near-boundary
        # chains; the spread must stay inside its own reported error bars
        a = tf.pressure_entire(tf.iterate_frontier(exp_atlas, E2, 3), 2.0)
        b = tf.pressure_entire(tf.iterate_frontier(exp_atlas, E3, 3), 2.0)
        assert abs(a.value - b.value) <= a.residual + b.residual
        for fit in (a, b):
            assert -2.6 < fit.value < -1.0

    def test_quarter_golden_regression(self, quarter_atlas):
        fit = tf.pressure_entire(
            tf.iterate_frontier(quarter_atlas, E2, 4, branch_budget=128), 2.0)
        assert fit.value == pytest.approx(-2.096779520521, abs=1e-9)

    def test_curve_monotone(self, tmp_path, capsys):
        code = cli.main(["pressure", "--function", "quarter", "--tmin", "1.5",
                         "--tmax", "2.5", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "pressure.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        diffs = np.diff([float(r.split(",")[1]) for r in rows])
        assert np.all(diffs <= 1e-6)

    @pytest.mark.parametrize("spec", ["exp", "quarter", "square", "composite"])
    def test_shared_frontier_matches_fresh(self, spec):
        # one frontier evaluated in any t order gives the bits of a
        # frontier built for that t alone
        atlas = tr.find_tracts(cli.function_from_spec(spec), math.e)
        shared = tf.iterate_frontier(atlas, E2, 3)
        for t in (2.0, 1.2, 2.5, 1.5):
            got = tf.pressure_entire(shared, t)
            fresh = tf.pressure_entire(tf.iterate_frontier(atlas, E2, 3), t)
            assert got == fresh

    def test_curve_walks_one_frontier(self, tmp_path, capsys, monkeypatch):
        # the depth-1 point operator walks its own k-blocks at every t;
        # every other phi_path or log_weight call of the pressure command
        # belongs to its one frontier
        walks, inside = [0], []
        apply_point = tf.transfer_apply_point

        def counting(entry):
            def call(branch, xis):
                walks[0] += not inside
                return entry(branch, xis)
            return call

        def point_operator(*args, **kwargs):
            inside.append(True)
            try:
                return apply_point(*args, **kwargs)
            finally:
                inside.pop()

        for name in ("phi_path", "log_weight"):
            monkeypatch.setattr(tr, name, counting(getattr(tr, name)))
        monkeypatch.setattr(tf, "transfer_apply_point", point_operator)
        counts = []
        for tstep in ("1", "0.25"):  # t = 2 alone, then 2, 2.25, 2.5
            walks[0] = 0
            code = cli.main(["pressure", "--function", "quarter",
                             "--tmin", "2", "--tmax", "2.5", "--tstep", tstep,
                             "--out", str(tmp_path)])
            assert code == 0
            counts.append(walks[0])
        assert counts[0] == counts[1] > 0


class TestBowenZero:
    def test_synthetic_affine_root(self, monkeypatch):
        # a divergent sum below t = 0.5 counts as +inf pressure
        def pressure(frontier, t):
            if t < 0.5:
                raise DivergenceDetected("synthetic")
            return tf.PressureFit((1 - t) * math.log(2), 0.0)

        monkeypatch.setattr(tf, "pressure_entire", pressure)
        # the middle of a final bracket at most 0.02 wide
        assert tf.bowen_zero_entire(None, 0.05) == pytest.approx(1.0,
                                                                 abs=0.01)

    def test_no_sign_change(self, monkeypatch):
        monkeypatch.setattr(tf, "pressure_entire", lambda frontier, t:
                            tf.PressureFit(np.float64(-t), 0.0))
        with pytest.raises(NoSignChange) as info:
            tf.bowen_zero_entire(None, 0.1)
        detail = str(info.value)
        assert detail.split(";")[0] == "no sign change on bracket"
        assert "np.float64" not in detail
        assert detail.endswith("[(0.15, -0.15), (2.5, -2.5)]")

    def test_quarter_map(self, quarter_atlas):
        frontier = tf.iterate_frontier(quarter_atlas, E2, 3)
        h = tf.bowen_zero_entire(frontier, 1.0035)
        assert 1.0 < h < 2.0
        assert tf.pressure_entire(frontier, h - 0.05).value > 0
        assert tf.pressure_entire(frontier, h + 0.05).value < 0

    def test_koenigs_map(self, koenigs_atlas):
        # the shallow estimator puts the zero barely above the threshold,
        # so the bracket starts from the lower error bar of theta-hat
        h = tf.bowen_zero_entire(
            tf.iterate_frontier(koenigs_atlas, E2, 2, branch_budget=32), 0.98)
        assert 1.0 < h < 2.0

    def test_hypdim_builds_one_frontier(self, tmp_path, capsys, monkeypatch):
        built = []
        build = tf.iterate_frontier

        def counting(*args, **kwargs):
            built.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(tf, "iterate_frontier", counting)
        code = cli.main(["hypdim", "--function", "square",
                         "--out", str(tmp_path)])
        result = json.loads(capsys.readouterr().out)["result"]
        assert code == 0
        assert result["diagnostics"]["bracket_lowered"] is True
        assert len(built) == 1


class TestDecayAndScaling:
    def test_exp_decay(self, exp_atlas):
        # the value times (log|w|)^(1/2) decays along |w| = e^s
        values = [tf.transfer_apply_point(exp_atlas, 2.0,
                                          complex(math.exp(s))).value
                  * s ** 0.5 for s in (2.0, 4.0, 8.0, 16.0, 32.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_exp_fixed_ratio_band(self, exp_atlas):
        band = tf.scaling_band(exp_atlas, 2.0, n_args=1)
        assert band["ratio"] <= 4.0

    def test_koenigs_scaling_band(self, koenigs_atlas):
        band = tf.scaling_band(koenigs_atlas, 2.0, n_args=2, k_budget=256)
        assert band["ratio"] <= 10.0

    def test_scaling_band_rows_free_of_call_history(self):
        # a sampled atlas keeps the anchors its walks leave, so each row
        # walks a fresh one and reads what it would read alone
        band = tf.scaling_band(fresh_atlas("koenigs:z^2-1"), 2.0,
                               s_grid=(2.0, 4.0), n_args=2, k_budget=64)
        assert len(band["rows"]) == 4
        for s, arg, scaled in band["rows"]:
            w = complex(np.exp(s + 1j * arg))
            alone = tf.transfer_apply_point(fresh_atlas("koenigs:z^2-1"),
                                            2.0, w, 64)
            assert scaled == alone.value * s ** (2.0 - 1.0)
