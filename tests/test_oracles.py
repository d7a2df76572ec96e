"""The scoreboard: each route that prints a dimension against its oracle.

One test per row of ROADMAP's scoreboard.  A row whose fix is still open
is a strict xfail that names the item, so the fix turns it into a pass
and a regression of a passing row fails.
"""

import json

import pytest

import tractdim.cli as cli

ITEM_3 = ("ROADMAP item 3: the printed zero is a depth-12 bisection value "
          "and its bracket is the bisection interval, not an error bar")


def hypdim_poly(text, tmp_path, capsys):
    code = cli.main(["hypdim", "--poly", text, "--out", str(tmp_path)])
    assert code == 0
    return json.loads(capsys.readouterr().out)["result"]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_3)
def test_z2_bracket_contains_one(tmp_path, capsys):
    # J(z^2) is the unit circle; prints [0.99897, 0.99990]
    lo, hi = hypdim_poly("z^2", tmp_path, capsys)["bracket"]
    assert lo <= 1.0 <= hi


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_3)
def test_basilica_bracket_contains_mcmullen(tmp_path, capsys):
    # McMullen's HD J(z^2-1) = 1.2683; prints [1.26245, 1.26338]
    lo, hi = hypdim_poly("z^2-1", tmp_path, capsys)["bracket"]
    assert lo <= 1.2683 <= hi


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_3)
def test_quasicircle_zero_above_one(tmp_path, capsys):
    # J(z^2+0.01) is a quasicircle, so its dimension exceeds 1; prints 0.99944
    assert hypdim_poly("z^2+0.01", tmp_path, capsys)["bowen_zero"] > 1.0
