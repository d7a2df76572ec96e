"""Acceptance suite: one pass/fail line per criterion of the check suite.

Criteria 1-12 run through the shared check functions; criterion 13 runs
the ``verify`` subcommand twice with the same seed and different thread
counts, compares the reports byte for byte, and pins them to a golden
report, so a refactor that moves any figure in them fails here.
"""

import os

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


def test_criterion_13_verify_determinism(tmp_path, capsys):
    reports = []
    for threads in ("1", "8"):
        out = str(tmp_path / ("threads" + threads))
        code = cli.main(["verify", "--only", "1,2,6,7,10,12", "--seed", "11",
                         "--threads", threads, "--out", out])
        assert code == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    with open(GOLDEN) as fh:
        assert reports[0] == fh.read()
