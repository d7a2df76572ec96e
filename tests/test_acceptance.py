"""Acceptance suite: one pass/fail line per criterion of the check suite.

Criteria 1-12 run through the shared check functions.  Criterion 13 runs
the ``verify`` subcommand twice in one process, compares the two reports
byte for byte and pins them to a golden report, so a refactor that moves
any figure in them fails here; a third run asks for the same checks in
reverse order and must give the same per-check lines.  A check fails when
a nan reaches what it bounds.  The last test holds a figure the report
rounds away to the same rule: check 10's raw band ratio is the same whether
or not check 8 ran first.
"""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tractdim.checks as checks
import tractdim.cli as cli
from tractdim import linearizer as lz
from tractdim import poly
from tractdim import spectrum as sp
from tractdim import tract as tr
from tractdim import transfer as tf

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "verify_subset.txt")


@pytest.mark.parametrize(
    "ident,name", [(cid, name) for cid, name, _ in checks.CHECKS],
    ids=["%02d-%s" % (cid, name) for cid, name, _ in checks.CHECKS])
def test_criterion(ident, name):
    result = checks.run_check(ident)
    assert result.passed is True, "%s: %s" % (name, result.detail)


def test_check_5_within_half_its_bound():
    detail = checks.run_check(5).detail
    errs = detail.split()[0].removeprefix("errs=").split(",")
    assert max(float(e) for e in errs) <= 0.025, detail


def test_criterion_13_verify_determinism(tmp_path, capsys):
    def verify(only, out):
        code = cli.main(["verify", "--only", only,
                         "--out", str(tmp_path / out)])
        assert code == 0
        return capsys.readouterr().out

    first = verify("1,2,6,7,10,12", "first")
    again = verify("1,2,6,7,10,12", "again")
    assert first == again
    with open(GOLDEN) as fh:
        assert first == fh.read()
    # header, six check lines in the order asked for, summary
    lines = first.splitlines()
    reordered = verify("12,10,7,6,2,1", "reordered").splitlines()
    assert reordered == lines[:1] + lines[6:0:-1] + lines[7:]


NAN = float("nan")


def _nan_beta_at_1_5(beta_infinity):
    def wrapped(tables, t):
        est = beta_infinity(tables, t)
        return dataclasses.replace(est, value=NAN) if t == 1.5 else est
    return wrapped


def _nan_pressure_at_1_5(tree_pressure):
    def wrapped(p, t_grid, *args, **kwargs):
        values = tree_pressure(p, t_grid, *args, **kwargs)
        return [NAN if t == 1.5 else v for t, v in zip(t_grid, values)]
    return wrapped


def _nan_second_dphi(phi_eval):
    def wrapped(branch, xi):
        z, dphi = phi_eval(branch, xi)
        if np.size(xi) > 1:
            dphi = np.array(dphi)
            dphi.flat[1] = NAN
        return z, dphi
    return wrapped


def _nan_on_call(n, fn, poison):
    """fn, except that its n-th call (from 0) returns poison(result)."""
    calls = []

    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append(None)
        return poison(result) if len(calls) == n + 1 else result
    return wrapped


def _nan_first_entry(result):
    h, dh = result
    h = np.array(h)
    h.flat[0] = NAN
    return h, dh


def _nan_rescaled_at_5(rescaled_map):
    def wrapped(branch, T, xi):
        value = rescaled_map(branch, T, xi)
        return complex(NAN, NAN) if T == 5.0 else value
    return wrapped


def _nan_transfer_far_out(transfer_apply_point):
    def wrapped(atlas, t, w, k_budget=None):
        sample = transfer_apply_point(atlas, t, w, k_budget)
        if round(math.log(abs(w))) in (16, 32):
            return dataclasses.replace(sample, value=NAN)
        return sample
    return wrapped


@pytest.mark.parametrize("ident, module, name, inject", [
    (3, sp, "beta_infinity", _nan_beta_at_1_5),
    (9, sp, "beta_infinity", _nan_beta_at_1_5),
    (4, poly, "tree_pressure", _nan_pressure_at_1_5),
    (8, tr, "phi_eval", _nan_second_dphi),
    (6, lz, "linearizer_log_eval",
     lambda fn: _nan_on_call(1, fn, lambda r: (complex(NAN, NAN), r[1]))),
    (7, poly, "bottcher_inverse",
     lambda fn: _nan_on_call(3, fn, _nan_first_entry)),
    (12, tr, "rescaled_map", _nan_rescaled_at_5),
    (10, tf, "transfer_apply_point", _nan_transfer_far_out),
    # call 9 is exp's T = 2^12 table at t = 0, inside the top half of the
    # slopes but not its first entry
    (9, sp, "_log_integral", lambda fn: _nan_on_call(9, fn, lambda r: NAN)),
], ids=["3-beta", "9-beta", "4-pressure", "8-dphi", "6-log-eval",
        "7-bottcher", "12-marker", "10-band", "9-log-integral"])
def test_nan_fails_the_check(ident, module, name, inject, monkeypatch):
    monkeypatch.setattr(module, name, inject(getattr(module, name)))
    result = checks.run_check(ident)
    assert not result.passed, result.detail


#: Runs the check ids given as arguments in one fresh process and prints
#: the raw ratio of every scaling band that check 10 computes.
_BAND_RATIOS = """
import sys
import tractdim.checks as checks
import tractdim.transfer as tf
scaling_band = tf.scaling_band
def recording(*args, **kwargs):
    band = scaling_band(*args, **kwargs)
    print(repr(band["ratio"]))
    return band
tf.scaling_band = recording
for ident in sys.argv[1:]:
    checks.run_check(int(ident))
"""


def test_check_10_ignores_check_8():
    src = os.path.dirname(os.path.dirname(os.path.abspath(checks.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def ratios(*idents):
        return subprocess.run([sys.executable, "-c", _BAND_RATIOS, *idents],
                              env=env, capture_output=True, text=True,
                              check=True).stdout

    alone = ratios("10")
    assert alone.count("\n") == 1
    assert ratios("8", "10") == alone
