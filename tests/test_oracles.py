"""The scoreboard: each route that prints a dimension against its oracle.

One test per row of ROADMAP's scoreboard.  A row whose fix is still open
is a strict xfail that names the item, so the fix turns it into a pass
and a regression of a passing row fails.
"""

import json

import pytest

import tractdim.cli as cli

ITEM_1 = ("ROADMAP item 1: the Koenigs tract's b has no zero on the capped "
          "T grid, so hypdim exits 3")
ITEM_3 = ("ROADMAP item 3: the printed zero is a depth-12 bisection value "
          "and its bracket is the bisection interval, not an error bar")
ITEM_4 = ("ROADMAP item 4: the entire-side zero comes from truncated, "
          "radius-dependent transfer sums, not the operator's leading "
          "eigenvalue")
ITEM_10 = ("ROADMAP item 10: beta_infinity keeps the finite-T bias of its "
           "top slopes")
ITEM_19 = ("ROADMAP item 19: the point operator's value is its k-sum cut at "
           "the budget, with no tail added")
ITEM_20 = ("ROADMAP item 20: the Koenigs point operator's block test does "
           "not see its sum diverge below HD J(p)")


def run(argv, tmp_path, capsys):
    """The parsed stdout of a command that has to exit 0."""
    code = cli.main(argv + ["--out", str(tmp_path)])
    assert code == 0
    return json.loads(capsys.readouterr().out)


def hypdim_poly(text, tmp_path, capsys):
    return run(["hypdim", "--poly", text], tmp_path, capsys)["result"]


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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_1)
def test_koenigs_chebyshev_theta_is_one(tmp_path, capsys):
    # z^2-2 linearizes to 2 cosh(sqrt z), whose theta is 1 in closed form;
    # exits 3 with NoSignChange, b(1) = 0.712
    out = run(["hypdim", "--function", "koenigs:z^2-2"], tmp_path, capsys)
    assert abs(out["result"]["theta_hat"] - 1.0) <= 0.01


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_1)
def test_koenigs_basilica_hypdim_theta(tmp_path, capsys):
    # HD J(z^2-1) = 1.2683 (McMullen); exits 3 with NoSignChange,
    # b(1) = 0.786
    out = run(["hypdim", "--function", "koenigs:z^2-1"], tmp_path, capsys)
    assert abs(out["result"]["theta_hat"] - 1.2683) <= 0.01


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_1)
def test_koenigs_cubic_spectrum_theta(tmp_path, capsys):
    # HD J(z^3-0.5z) = 1.0277 (ROADMAP item 3's eigenvalue); prints
    # 1.437890625
    out = run(["spectrum", "--function", "koenigs:z^3-0.5z"], tmp_path,
              capsys)
    assert abs(out["summary"]["theta_hat"] - 1.0277) <= 0.005


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_4)
def test_quarter_zero_matches_eigenvalue(tmp_path, capsys):
    # the transfer-operator eigenvalue puts the zero of e^z/4 at 1.2448;
    # prints 1.0592
    out = run(["hypdim", "--function", "quarter"], tmp_path, capsys)
    assert abs(out["result"]["bowen_zero"] - 1.2448) <= 1e-3


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_10)
def test_composite_spectrum_theta_is_one(tmp_path, capsys):
    # e^{-6} e^{e^z} has theta 1 in closed form; prints 0.9035
    out = run(["spectrum", "--function", "composite"], tmp_path, capsys)
    assert abs(out["summary"]["theta_hat"] - 1.0) <= 0.005


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_19)
@pytest.mark.parametrize("spec,want", [
    # an explicit sum to 2^23 with an analytic tail (ROADMAP appendix B);
    # prints 1.5739492828 and 1.3472503403, 4.8% and 5.5% low
    ("exp", 1.6530663339108318), ("quarter", 1.42636739139545)])
def test_transfer_value_at_t_1_2(spec, want, tmp_path, capsys):
    run(["transfer", "--function", spec, "--tmin", "1.2", "--tmax", "1.2"],
        tmp_path, capsys)
    row = (tmp_path / "transfer.csv").read_text().splitlines()[1]
    assert float(row.split(",")[1]) == pytest.approx(want, rel=1e-10)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_20)
def test_koenigs_transfer_diverges_below_dimension(tmp_path, capsys):
    # t = 1.2 lies below HD J(z^2-1) = 1.2683, where the sum diverges;
    # exits 0 with 3.1142044811
    code = cli.main(["transfer", "--function", "koenigs:z^2-1", "--tmin",
                     "1.2", "--tmax", "1.2", "--out", str(tmp_path)])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["error"] == \
        "DivergenceDetected"
