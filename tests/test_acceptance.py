"""Acceptance suite: one pass/fail line per criterion of the check suite.

Criteria 1-12 run through the shared check functions.  Criterion 13 runs
the ``verify`` subcommand with cold and then warm module caches, compares
the two reports byte for byte and pins them to a golden report, so a
refactor that moves any figure in them fails here; a third run asks for
the same checks in reverse order and must give the same per-check lines.
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


def test_criterion_13_verify_determinism(tmp_path, capsys, monkeypatch):
    def verify(only, out):
        code = cli.main(["verify", "--only", only, "--seed", "11",
                         "--out", str(tmp_path / out)])
        assert code == 0
        return capsys.readouterr().out

    monkeypatch.setattr(checks, "_handles", {})
    monkeypatch.setattr(checks, "_atlases", {})
    cold = verify("1,2,6,7,10,12", "cold")
    warm = verify("1,2,6,7,10,12", "warm")
    assert cold == warm
    with open(GOLDEN) as fh:
        assert cold == fh.read()
    # header, six check lines in the order asked for, summary
    lines = cold.splitlines()
    reordered = verify("12,10,7,6,2,1", "reordered").splitlines()
    assert reordered == lines[:1] + lines[6:0:-1] + lines[7:]
