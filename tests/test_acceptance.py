"""Acceptance suite: one pass/fail line per criterion of the check suite.

Criteria 1-12 run through the shared check functions.  Criterion 13 runs
the ``verify`` subcommand twice in one process, compares the two reports
byte for byte and pins them to a golden report, so a refactor that moves
any figure in them fails here; a third run asks for the same checks in
reverse order and must give the same per-check lines.  The last test holds
a figure the report rounds away to the same rule: check 10's raw band ratio
is the same whether or not check 8 ran first.
"""

import os
import subprocess
import sys

import pytest

import tractdim.checks as checks
import tractdim.cli as cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "verify_subset.txt")


@pytest.mark.parametrize(
    "ident,name", [(cid, name) for cid, name, _ in checks.CHECKS],
    ids=["%02d-%s" % (cid, name) for cid, name, _ in checks.CHECKS])
def test_criterion(ident, name):
    result = checks.run_check(ident)
    assert result.passed, "%s: %s" % (name, result.detail)


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
