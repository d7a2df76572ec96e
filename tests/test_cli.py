"""Configuration, exporters, and exit codes of the command-line front end."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import tractdim.checks as checks
import tractdim.cli as cli
import tractdim.linearizer as lz
import tractdim.poly as poly
import tractdim.spectrum as sp
from tractdim.cli import ConfigError, RunConfig
from tractdim.errors import BudgetExceeded, InvalidGrid, NoSignChange


#: The descriptor of koenigs:z^2-1 at its repelling fixed point, kappa 1/4.
BASILICA = {"family": "koenigs",
            "poly": {"coeffs": [[-1, 0], [0, 0], [1, 0]]},
            "z0": [(1 + math.sqrt(5)) / 2, 0], "kappa": [0.25, 0]}


#: The refusal of the base point w = e^2 inside a reference circle |w| = 8.
OUTSIDE_8 = {"error": "ConfigError",
             "detail": "|w| = 7.38906 is not outside the reference circle "
                       "|w| = 8"}
EMPTY_LEVEL_2 = {"error": "ConfigError",
                 "detail": "iterate frontier level 2 is empty: every "
                           "preimage of depth 1 with |k| <= 8 lies inside "
                           "the reference circle |w| = 7.3"}


def run_cli(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


class TestRunConfig:
    @pytest.mark.parametrize("command,flags", [
        ("tract-plot", "--config --function --radius --out --Tlist"),
        ("spectrum", "--config --function --radius --Tjmin --Tjmax --tmin "
                     "--tmax --tstep --out"),
        ("transfer", "--config --function --radius --tmin --tmax --tstep "
                     "--k-budget --out"),
        ("pressure", "--config --function --radius --tmin --tmax --tstep "
                     "--branch-budget --out"),
        ("hypdim", "--config --function --radius --Tjmin --Tjmax "
                   "--node-budget --branch-budget --out --poly"),
        ("verify", "--out --only"),
    ])
    def test_flags_per_command(self, command, flags, capsys):
        # each command takes the RunConfig fields it reads, and no other
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert re.findall(r"\[(--[\w-]+)", usage) == flags.split()

    def test_reads_literal_config(self):
        text = ('{"function": {"family": "exp_power", "lambda": [0.25, 0.0], '
                '"d": 1}, "radius": 2.718281828459045, "tstep": 0.1}')
        assert RunConfig.from_json(text) == (
            RunConfig(radius=2.718281828459045, tstep=0.1),
            {"family": "exp_power", "lambda": [0.25, 0.0], "d": 1})
        # the descriptor is optional: a file may hold settings only
        assert RunConfig.from_json('{"radius": 3.0}') == (
            RunConfig(radius=3.0), None)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_json('{"function": {}, "bogus": 1}')

    def test_function_required(self, tmp_path, capsys):
        # a command that reads a function refuses to run without one, from
        # a settings-only config file or with no config at all
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tstep": 0.25}))
        for extra in (["--config", str(path)], []):
            code, out = run_cli(["spectrum", "--out", str(tmp_path / "out")]
                                + extra, capsys)
            assert code == 2
            assert json.loads(out) == {
                "error": "ConfigError",
                "detail": "spectrum needs --function or a config file with "
                          "a function descriptor"}
            assert not (tmp_path / "out").exists()

    def test_t_grid(self):
        cfg = RunConfig(tmin=0.5, tmax=2.0, tstep=0.5)
        assert cfg.t_grid() == [0.5, 1.0, 1.5, 2.0]

    @pytest.mark.parametrize("tmin,tmax,tstep", [(1e21, 1e21, 0.5),
                                                 (0.0, 5e-13, 1e-13)],
                             ids=["below-float-spacing", "below-rounding"])
    def test_t_step_that_does_not_advance_refused(self, tmin, tmax, tstep):
        # 1e21 + 0.5 is 1e21, and 1e-13 rounds to 0 at 12 decimals: the
        # first repeated t is refused, so the grid can neither repeat a t
        # nor grow without end
        cfg = RunConfig(tmin=tmin, tmax=tmax, tstep=tstep)
        with pytest.raises(InvalidGrid, match="does not advance t"):
            cfg.validate().t_grid()

    def test_validation(self):
        with pytest.raises(InvalidGrid):
            RunConfig(Tjmin=5, Tjmax=3).validate()
        with pytest.raises(InvalidGrid):
            RunConfig(tstep=0.0).validate()
        with pytest.raises(ConfigError):
            RunConfig(node_budget=0).validate()
        # a grid above MAX_GRID_POINTS is refused before it is built
        with pytest.raises(InvalidGrid, match="T grid above 10000"):
            RunConfig(Tjmin=-20000).validate()
        with pytest.raises(InvalidGrid, match="t grid above 10000"):
            RunConfig(tstep=1e-4).validate()
        RunConfig(Tjmin=-9984, tstep=2.0 / 9999).validate()

    @pytest.mark.parametrize("field", ["radius", "tmin", "tmax", "tstep"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        # an infinite tstep would give an empty t grid
        with pytest.raises(ConfigError, match=field):
            RunConfig(**{field: value}).validate()


class TestFunctionSpec:
    def test_shorthands(self):
        assert isinstance(cli.function_from_spec("exp"), lz.ExpPower)
        assert cli.function_from_spec("square").d == 2
        assert isinstance(cli.function_from_spec("composite"),
                          lz.CompositeExpModel)

    def test_koenigs_shorthand(self):
        h = cli.function_from_spec("koenigs:z^2")
        assert isinstance(h, lz.KoenigsLinearizer)
        assert h.z0 == pytest.approx(1.0, abs=1e-8)

    def test_koenigs_fixed_point_polished(self):
        # Aberth alone stops at 1.9999999999993845 and at z^2-1's root
        # plus 3.5e-12i; Newton lands on the fixed points themselves
        h = cli.function_from_spec("koenigs:z^2-2")
        assert (h.z0, h.lam) == (2.0, 4.0)
        h = cli.function_from_spec("koenigs:z^2-1")
        assert h.z0.imag == 0.0 and h.lam.imag == 0.0
        assert h.z0.real == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-15)

    def test_json_descriptor(self):
        h = cli.function_from_spec(
            '{"family": "exp_power", "lambda": [0.25, 0.0], "d": 1}')
        assert h.lam == 0.25

    def test_bad_spec(self):
        with pytest.raises(ConfigError):
            cli.function_from_spec("nonsense")
        with pytest.raises(ConfigError):
            cli.function_from_spec('{"family": "nonsense"}')


class TestTractPlot:
    def test_svg_outputs(self, tmp_path, capsys):
        out = str(tmp_path / "a")
        code, _ = run_cli(["tract-plot", "--function", "exp",
                           "--out", out], capsys)
        assert code == 0
        for T in (1, 5, 20):
            svg = (tmp_path / "a" / ("tract_T%d.svg" % T)).read_text()
            assert svg.startswith("<svg ")
            assert 'fill="none"' in svg and "<path d=" in svg
            assert (tmp_path / "a" / ("tract_T%d.csv" % T)).exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        outs = []
        for name in ("r1", "r2"):
            out = str(tmp_path / name)
            code, _ = run_cli(["tract-plot", "--function", "koenigs:z^2-1",
                               "--Tlist", "1", "--out", out], capsys)
            assert code == 0
            outs.append((tmp_path / name / "tract_T1.svg").read_bytes())
        assert outs[0] == outs[1]

    def test_invalid_T_exits_2(self, tmp_path, capsys):
        # rescaling needs T >= 1; below it the contour leaves Re xi >= 0.05
        for T in ("0", "0.5"):
            code, out = run_cli(["tract-plot", "--function", "exp",
                                 "--Tlist", T, "--out", str(tmp_path)],
                                capsys)
            assert code == 2
            assert json.loads(out)["error"] == "InvalidGrid"

    @pytest.mark.parametrize("function, heights", [
        ("exp", "nan"), ("exp", "inf"), ("exp", "1e308"), ("exp", "5,0.5"),
        ("koenigs:z^2-1", "nan")])
    def test_unplottable_T_refused_before_any_file(self, function, heights,
                                                   tmp_path, capsys):
        # 1e308 is finite, but the rectangle path's far corner 4T is not
        code, out = run_cli(["tract-plot", "--function", function,
                             "--Tlist", heights, "--out", str(tmp_path)],
                            capsys)
        assert code == 2
        assert json.loads(out)["error"] == "InvalidGrid"
        assert not os.listdir(tmp_path)


class TestExitCodes:
    def test_missing_function_exits_2(self, tmp_path, capsys):
        code, out = run_cli(["spectrum", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "ConfigError"

    @pytest.mark.parametrize("argv,error", [
        # a library refusal keeps its text: the whole error JSON is pinned
        (["spectrum", "--function", "koenigs:z^2-2", "--radius", "1.5"],
         {"error": "ConfigError",
          "detail": "R = 1.5 is below the singular radius 2"}),
        (["verify", "--only", "99"], "ConfigError"),
        # a repeated id would run its check twice and count it twice
        (["verify", "--only", "7,1,7"],
         {"error": "ConfigError", "detail": "repeated check ids: [7]"}),
        (["verify", "--only", "x"], "ConfigError"),
        (["tract-plot", "--function", "exp", "--Tlist", "a"], "ConfigError"),
        # heights printed alike by %g would trace into one pair of files
        (["tract-plot", "--function", "exp", "--Tlist", "5,5,5.0"],
         {"error": "ConfigError",
          "detail": "--Tlist heights share an output file: "
                    "[5.0, 5.0, 5.0]"}),
        (["tract-plot", "--function", "exp", "--Tlist", "20,20.000001"],
         {"error": "ConfigError",
          "detail": "--Tlist heights share an output file: "
                    "[20.0, 20.000001]"}),
        # the base point e^2 of the frontier lies inside |w| = 8
        (["pressure", "--function", "quarter", "--tmin", "1.5",
          "--radius", "8"], OUTSIDE_8),
        (["hypdim", "--function", "quarter", "--radius", "8"], OUTSIDE_8),
        # e^2 lies outside |w| = 7.3, but its depth-1 preimages under
        # e^(z^2) with |k| <= 8 have |phi| <= |2 + 16 pi i|^(1/2) = 7.09, so
        # depth 2 has no terms: refused, not reported as an underflow
        (["pressure", "--function", "square", "--radius", "7.3",
          "--branch-budget", "8", "--tmin", "1.5"], EMPTY_LEVEL_2),
        (["hypdim", "--function", "square", "--radius", "7.3",
          "--branch-budget", "8"], EMPTY_LEVEL_2),
        (["transfer", "--function", "exp", "--tmin", "1.2", "--radius", "10"],
         {"error": "ConfigError",
          "detail": "|w| = 7.38906 is not outside the reference circle "
                    "|w| = 10"}),
        # T = 1 gives log(1/r) = 0 and T = 1/2 puts r = 1/T at 2
        (["spectrum", "--function", "exp", "--Tjmin", "0"], "InvalidGrid"),
        (["hypdim", "--function", "exp", "--Tjmin", "-1"], "InvalidGrid"),
        # 2^1100 overflows a float, and a 1e-9 step asks for 2e9 t values
        (["spectrum", "--function", "exp", "--Tjmax", "1100"], "InvalidGrid"),
        (["spectrum", "--function", "exp", "--tstep", "1e-9"], "InvalidGrid"),
        # 1e17 + 0.5 is 1e17: a step that does not advance t
        (["transfer", "--function", "exp", "--tmin", "1e17", "--tmax", "1e17"],
         "InvalidGrid"),
        # a sampled branch keeps only T <= 2^9, so 2^10..2^14 leaves none
        (["spectrum", "--function", "koenigs:z^2-1", "--Tjmin", "10"],
         "InvalidGrid"),
        (["hypdim", "--poly", "z^", "--function", "exp"], "ConfigError"),
        (["hypdim", "--poly", "3z", "--function", "exp"], "ConfigError"),
        (["spectrum", "--function", "koenigs:z"], "ConfigError"),
        (["spectrum", "--function", "koenigs:z^2+"], "ConfigError"),
        # a term after the first needs its sign: z^2z is not z^2 + z
        (["hypdim", "--poly", "z^2z", "--function", "exp"], "ConfigError"),
        (["spectrum", "--function", "koenigs:z^2z"], "ConfigError"),
        # a command refuses every flag whose value it would not read
        (["hypdim", "--function", "quarter", "--tmin", "1"], "ConfigError"),
        (["tract-plot", "--function", "exp", "--tstep", "0"], "ConfigError"),
        (["verify", "--only", "1", "--radius", "2"], "ConfigError"),
        (["spectrum", "--function", "exp", "--seed", "3"], "ConfigError"),
        # argparse's own errors come as the error JSON too
        (["spectrum", "--function", "exp", "--radius", "x"], "ConfigError"),
        # 400 nines overflow a float to a coefficient of -inf
        (["hypdim", "--poly", "z^2-" + "9" * 400, "--function", "exp"],
         "ConfigError"),
        (["spectrum", "--function", "exp", "--radius", "0.5"], "ConfigError"),
        (["transfer", "--function", "exp", "--k-budget", "-1"],
         "ConfigError"),
    ], ids=["radius-below-singular", "unknown-check", "repeated-check",
            "bad-only",
            "bad-Tlist", "repeated-Tlist", "Tlist-sharing-a-stem",
            "pressure-radius-over-base",
            "hypdim-radius-over-base", "pressure-empty-level",
            "hypdim-empty-level", "transfer-radius-over-base",
            "spectrum-Tjmin-0", "hypdim-Tjmin-negative",
            "spectrum-Tjmax-overflow", "spectrum-tstep-too-fine",
            "transfer-tstep-below-float-spacing",
            "koenigs-Tjmin-over-cap",
            "poly-dangling-power",
            "poly-degree-one", "koenigs-degree-one", "koenigs-dangling-sign",
            "poly-unsigned-term", "koenigs-unsigned-term",
            "hypdim-tmin", "tract-plot-tstep", "verify-radius",
            "removed-seed-flag", "non-numeric-radius",
            "poly-infinite-coefficient", "radius-below-one",
            "negative-k-budget"])
    def test_bad_input_exits_2(self, argv, error, tmp_path, capsys):
        code, out = run_cli(argv + ["--out", str(tmp_path)], capsys)
        assert code == 2
        if isinstance(error, dict):
            assert out == json.dumps(error, sort_keys=True) + "\n"
        else:
            assert json.loads(out)["error"] == error
        assert not os.listdir(tmp_path)

    def test_composite_over_koenigs_exits_2(self, tmp_path, capsys):
        desc = {"family": "composite_exp",
                "inner": {"family": "koenigs",
                          "poly": {"coeffs": [[-1.0, 0.0], [0.0, 0.0],
                                              [1.0, 0.0]]},
                          "z0": [(1 + math.sqrt(5)) / 2, 0.0],
                          "kappa": [0.25, 0.0]}}
        code, out = run_cli(["spectrum", "--function", json.dumps(desc),
                             "--out", str(tmp_path)], capsys)
        assert code == 2
        assert out == json.dumps(
            {"error": "ConfigError",
             "detail": "composite_exp needs an inner handle with closed-form "
                       "tracts"}, sort_keys=True) + "\n"

    @pytest.mark.parametrize("desc", [
        {"family": "exp_power", "lambda": [1]},
        {"family": "exp_power", "lambda": None},
        {"family": "exp_power", "lambda": True},
        {"family": "exp_power", "d": 2.7},
        {"family": "exp_power", "d": "2"},
        {"family": "exp_power", "d": True},
        {"family": "koenigs", "poly": 5, "z0": 1},
        # json reads NaN and Infinity; every number must be finite
        {"family": "exp_power", "lambda": math.nan},
        {"family": "exp_power", "lambda": [math.inf, 0]},
        {"family": "exp_power", "lambda": 0},
        dict(BASILICA, poly={"coeffs": [[math.nan, 0], [0, 0], [1, 0]]}),
        dict(BASILICA, z0=[math.nan, 0]),
        dict(BASILICA, z0=math.inf),
        dict(BASILICA, kappa=[math.nan, 0]),
        dict(BASILICA, poly={"coeffs": [[-1, 0], [0, 0], [True, 0]]})],
        ids=["lambda-one-entry", "lambda-null", "lambda-bool", "d-fraction",
             "d-string", "d-bool", "poly-not-an-object", "lambda-nan",
             "lambda-infinite", "lambda-zero", "coeff-nan", "z0-nan",
             "z0-infinite", "kappa-nan", "coeff-bool"])
    @pytest.mark.parametrize("route", ["function", "config"])
    def test_bad_descriptor_value_exits_2(self, desc, route, tmp_path,
                                          capsys):
        if route == "function":
            argv = ["--function", json.dumps(desc)]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"function": desc}))
            argv = ["--config", str(path)]
        out_dir = tmp_path / "out"
        code, out = run_cli(["spectrum"] + argv + ["--out", str(out_dir)],
                            capsys)
        assert code == 2
        err = json.loads(out)
        assert err["error"] == "ConfigError"
        assert "bad function descriptor" in err["detail"]
        assert not out_dir.exists()

    def test_z0_not_fixed_exits_2(self, tmp_path, capsys):
        # p'(0) = 0 is not repelling either, but 0 is no fixed point of z^2-1
        desc = {"family": "koenigs",
                "poly": {"coeffs": [[-1, 0], [0, 0], [1, 0]]}, "z0": [0, 0]}
        code, out = run_cli(["spectrum", "--function", json.dumps(desc),
                             "--out", str(tmp_path)], capsys)
        assert code == 2
        err = json.loads(out)
        assert err["error"] == "ConfigError"
        assert "not a fixed point" in err["detail"]

    @pytest.mark.parametrize("key", ["threads", "quad_tol", "seed"])
    def test_removed_config_key_refused(self, key, tmp_path, capsys):
        cfg = {"function": {"family": "exp_power"}, key: 1}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cli(["spectrum", "--config", str(path),
                             "--out", str(tmp_path)], capsys)
        assert code == 2
        err = json.loads(out)
        assert err["error"] == "ConfigError" and key in err["detail"]

    @pytest.mark.parametrize("text", [
        '{"function": {"family": "exp_power"}, "radius": ',
        '{"function": {"family": "exp_power"}, "radius": "x"}',
        '{"function": {"family": "exp_power"}, "tstep": null}',
        '[{"function": {"family": "exp_power"}}]',
        # json.loads refuses an integer over Python's digit limit with a
        # ValueError that is not a JSONDecodeError
        '{"function": {"family": "exp_power"}, "radius": %s}' % ("1" * 5000),
    ], ids=["malformed-json", "string-radius", "null-tstep", "top-level-list",
            "integer-over-digit-limit"])
    def test_bad_config_file_exits_2(self, text, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError):
            RunConfig.from_json(text)
        code, out = run_cli(["spectrum", "--config", str(path),
                             "--out", str(tmp_path)], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "ConfigError"

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        code, out = run_cli(["spectrum", "--config", str(tmp_path),
                             "--out", str(tmp_path)], capsys)
        assert code == 2
        err = json.loads(out)
        assert err["error"] == "ConfigError"
        assert "cannot read config" in err["detail"]

    def test_out_file_exits_2_before_any_work(self, tmp_path, capsys,
                                               monkeypatch):
        # an --out that is a file is refused with the settings, before the
        # first node table
        def no_tables(*args):
            raise AssertionError("means_tables ran")

        monkeypatch.setattr(cli.sp, "means_tables", no_tables)
        out_file = tmp_path / "F"
        out_file.write_text("kept\n")
        code, out = run_cli(["spectrum", "--function", "exp",
                             "--out", str(out_file)], capsys)
        assert code == 2
        assert json.loads(out) == {
            "error": "ConfigError",
            "detail": "out %s is not a directory" % out_file}
        assert out_file.read_text() == "kept\n"

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        # a directory under a file cannot be made: NotADirectoryError
        out_file = tmp_path / "F"
        out_file.write_text("")
        sub = out_file / "sub"
        code, out = run_cli(["verify", "--only", "1", "--out", str(sub)],
                            capsys)
        assert code == 2
        err = json.loads(out)
        assert err["error"] == "ConfigError"
        assert err["detail"].startswith(
            "cannot write %s: " % (sub / "verify.txt"))

    def test_divergence_exits_3(self, tmp_path, capsys):
        code, out = run_cli(["transfer", "--function", "exp",
                             "--tmin", "0.5", "--tmax", "0.5",
                             "--tstep", "1", "--out", str(tmp_path)], capsys)
        assert code == 3
        assert json.loads(out)["error"] == "DivergenceDetected"

    def test_underflowed_transfer_exits_0(self, tmp_path, capsys):
        # from t ~ 1075 every term of exp's first dyadic block underflows,
        # and an all-zero block settles the sum at 0, not as growth
        # (0 >= 0 * 1.02); the true sum lies below the smallest float
        code, _ = run_cli(["transfer", "--function", "exp",
                           "--tmin", "1200", "--tmax", "1200",
                           "--out", str(tmp_path)], capsys)
        assert code == 0
        rows = (tmp_path / "transfer.csv").read_text().splitlines()
        assert rows[0] == "t,value,terms,tail"
        assert [float(x) for x in rows[1].split(",")][1::2] == [0.0, 0.0]
        assert json.loads((tmp_path / "transfer.json").read_text())[
            "profile_exponents"] == []

    @pytest.mark.parametrize("t,depth", [("900", 2), ("1200", 1)])
    def test_underflowed_pressure_exits_3(self, t, depth, tmp_path, capsys):
        # a depth whose operator value underflows to 0 has no log to fit
        code, out = run_cli(["pressure", "--function", "exp", "--tmin", t,
                             "--tmax", t, "--out", str(tmp_path)], capsys)
        assert code == 3
        assert json.loads(out) == {
            "error": "Underflow",
            "detail": "iterated operator value underflows to 0 at t=%s "
                      "(depth %d)" % (t, depth)}
        assert not os.listdir(tmp_path)

    def test_near_parabolic_exits_3(self, tmp_path, capsys):
        # the double fixed point 1/2 of z^2 + 1/4 splits numerically into
        # |lam| just below and just above 1; the linearizer refuses the
        # latter instead of walking a ladder of ~1e6 lam-divisions
        code, out = run_cli(["spectrum", "--function", "koenigs:z^2+0.25",
                             "--out", str(tmp_path)], capsys)
        assert code == 3
        err = json.loads(out)
        assert err["error"] == "NotRepelling"
        assert "too close to 1" in err["detail"]

    @pytest.mark.parametrize("text, n", [("z^200", 134), ("z^600", 111)])
    def test_series_past_float_range_exits_3(self, text, n, tmp_path,
                                             capsys):
        # the Koenigs series of z^d at z0 = 1 divides by lam**n - lam with
        # lam = d, which leaves the float range before the tail is small
        code, out = run_cli(["spectrum", "--function", "koenigs:" + text,
                             "--out", str(tmp_path)], capsys)
        assert code == 3
        assert json.loads(out) == {
            "error": "Overflow",
            "detail": "Koenigs series leaves the float range at order "
                      "n = %d (|lam| = %s)" % (n, text[2:])}
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("kappa", [0.5, 1e20, 1e300])
    @pytest.mark.parametrize("route", ["function", "config"])
    def test_non_disjoint_kappa_exits_2(self, kappa, route, tmp_path,
                                        capsys):
        # a descriptor's kappa is checked as given: 0.5 maps part of the
        # disk |z| <= e outside it, 1e300 overflows the ladder.  They used to
        # fail late, 1e20 after 1.4 s of phi walking (ContinuationStall),
        # and 1e300 with Overflow, neither naming kappa
        desc = dict(BASILICA, kappa=[kappa, 0])
        if route == "function":
            argv = ["--function", json.dumps(desc)]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"function": desc}))
            argv = ["--config", str(path)]
        out_dir = tmp_path / "out"
        code, out = run_cli(["spectrum"] + argv + ["--out", str(out_dir)],
                            capsys)
        assert code == 2
        err = json.loads(out)
        assert err["error"] == "ConfigError"
        assert "kappa %s" % complex(kappa) in err["detail"]
        assert "not disjoint type" in err["detail"]
        assert not out_dir.exists()

    def test_disjoint_kappa_accepted(self):
        # the shorthand's own kappa, 1/4, passes the descriptor check
        h = cli.function_from_spec(json.dumps(BASILICA))
        assert h == cli.function_from_spec("koenigs:z^2-1")

    @pytest.mark.parametrize("budget,error", [
        (None, "DivergenceDetected"), ("4096", "BudgetExceeded")])
    def test_pressure_error_precedence(self, budget, error, tmp_path, capsys):
        # the frontier is built before the first t: a budget that no t can
        # afford is reported ahead of the divergence at t = 0.5
        argv = ["pressure", "--function", "exp", "--tmin", "0.5",
                "--out", str(tmp_path)]
        code, out = run_cli(argv + (["--branch-budget", budget]
                                    if budget else []), capsys)
        assert code == 3
        assert json.loads(out)["error"] == error

    def test_empty_t_grid_exits_2(self, tmp_path, capsys):
        code, out = run_cli(["spectrum", "--function", "exp",
                             "--tmin", "2", "--tmax", "1",
                             "--out", str(tmp_path)], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "InvalidGrid"

    def test_no_repelling_fixed_point_exits_2(self, tmp_path, capsys,
                                              monkeypatch):
        # every polynomial of degree >= 2 has a repelling or parabolic
        # fixed point, so the solve is stubbed to return attracting ones
        def attracting(coeffs, dcoeffs, targets):
            return np.array([[0.0j, 0.25j]]), np.array([True])

        monkeypatch.setattr(poly._kernels, "aberth_batch", attracting)
        code, out = run_cli(["spectrum", "--function", "koenigs:z^2",
                             "--out", str(tmp_path)], capsys)
        assert code == 2
        assert json.loads(out) == {
            "error": "ConfigError",
            "detail": "polynomial has no repelling fixed point"}

    @pytest.mark.parametrize("command", ["transfer", "pressure"])
    def test_nonpositive_t_exits_2(self, command, tmp_path, capsys):
        # the default grid starts at t = 0, where transfer sums diverge
        code, out = run_cli([command, "--function", "exp",
                             "--out", str(tmp_path)], capsys)
        assert code == 2
        err = json.loads(out)
        assert err["error"] == "InvalidGrid"
        assert "--tmin" in err["detail"]
        assert not (tmp_path / (command + ".csv")).exists()


class TestCommands:
    def test_spectrum_outputs(self, tmp_path, capsys):
        code, out = run_cli(["spectrum", "--function", "exp",
                             "--tmin", "0.5", "--tstep", "0.5",
                             "--out", str(tmp_path)], capsys)
        assert code == 0
        summary = json.loads(out)["summary"]
        assert 0.95 <= summary["theta_hat"] <= 1.05
        assert summary["negative_spectrum"] is True
        csv = (tmp_path / "spectrum.csv").read_text()
        assert csv.startswith("t,beta_inf,b_inf")

    def test_spectrum_without_theta(self, tmp_path, capsys, monkeypatch):
        def no_zero(tables):
            raise NoSignChange("b has no zero on (0, 2]")

        monkeypatch.setattr(sp, "theta_f", no_zero)
        code, out = run_cli(["spectrum", "--function", "exp",
                             "--tmin", "1.5", "--tstep", "0.5",
                             "--out", str(tmp_path)], capsys)
        assert code == 0
        summary = json.loads(out)["summary"]
        assert math.isnan(summary["theta_hat"])
        assert summary["negative_spectrum"] is False
        assert "theta_hat" in summary["reason"]

    def test_transfer_outputs(self, tmp_path, capsys):
        code, out = run_cli(["transfer", "--function", "exp",
                             "--tmin", "1.5", "--tmax", "2.0",
                             "--tstep", "0.5", "--out", str(tmp_path)],
                            capsys)
        assert code == 0
        csv = (tmp_path / "transfer.csv").read_text()
        assert csv.splitlines()[0] == "t,value,terms,tail"
        assert len(csv.splitlines()) == 3

    def test_pressure_outputs(self, tmp_path, capsys):
        code, _ = run_cli(["pressure", "--function", "quarter",
                           "--tmin", "1.5", "--tmax", "2.0",
                           "--tstep", "0.5", "--branch-budget", "64",
                           "--out", str(tmp_path)], capsys)
        assert code == 0
        lines = (tmp_path / "pressure.csv").read_text().splitlines()
        assert lines[0] == "t,pressure,residual"
        assert float(lines[1].split(",")[1]) > float(lines[2].split(",")[1])

    def test_hypdim_poly(self, tmp_path, capsys):
        code, out = run_cli(["hypdim", "--poly", "z^2", "--function", "exp",
                             "--out", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out)["result"]["bowen_zero"] == pytest.approx(
            1.0, abs=0.01)
        # the polynomial side needs no --function and reads none given
        argv = ["hypdim", "--poly", "z^2-1", "--out", str(tmp_path)]
        alone = run_cli(argv, capsys)
        assert alone[0] == 0
        assert run_cli(argv + ["--function", "exp"], capsys) == alone

    def test_hypdim_poly_builds_no_handle(self, tmp_path, capsys):
        # koenigs:z^2+0.25 exits 3 (NotRepelling) and a kappa of 0.5 exits 2
        # when built, but the polynomial side reads no entire-side function
        argv = ["hypdim", "--poly", "z^2", "--out", str(tmp_path)]
        alone = run_cli(argv, capsys)
        assert alone[0] == 0
        assert run_cli(argv + ["--function", "koenigs:z^2+0.25"],
                       capsys) == alone
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"function": dict(BASILICA, kappa=[0.5, 0])}))
        assert run_cli(argv + ["--config", str(config)], capsys) == alone

    def test_hypdim_poly_imaginary_coefficient(self, tmp_path, capsys):
        # z^2 + 0.05i: a quasicircle near the unit circle, dimension near 1
        code, out = run_cli(["hypdim", "--poly", "z^2+0.05i",
                             "--out", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out)["result"]["bowen_zero"] == pytest.approx(
            1.0, abs=0.01)

    def test_hypdim_koenigs_cross_check(self, tmp_path, capsys):
        # a Koenigs handle's hypdim also reports its polynomial's Bowen zero
        code, out = run_cli(["hypdim", "--function", "koenigs:z^2+0.2i",
                             "--out", str(tmp_path)], capsys)
        assert code == 0
        handle = cli.function_from_spec("koenigs:z^2+0.2i")
        got = json.loads(out)["result"]["diagnostics"]["poly_bowen_zero"]
        assert got == poly.bowen_zero_poly(handle.p, 12).value

    def test_hypdim_poly_refuses_entire_flags(self, tmp_path, capsys):
        # the polynomial side reads only --node-budget; --function stays
        # accepted (and ignored), every entire-side flag is named and refused
        base = ["hypdim", "--poly", "z^2", "--function", "exp",
                "--out", str(tmp_path)]
        code, _ = run_cli(base + ["--node-budget", "100000"], capsys)
        assert code == 0
        flags = ["--radius", "2", "--Tjmin", "5", "--Tjmax", "12",
                 "--branch-budget", "64"]
        for i in range(0, len(flags), 2):
            code, out = run_cli(base + flags[i:i + 2], capsys)
            assert code == 2
            err = json.loads(out)
            assert err["error"] == "ConfigError"
            assert flags[i] in err["detail"]
        code, out = run_cli(base + flags, capsys)
        assert code == 2
        assert all(f in json.loads(out)["detail"] for f in flags[::2])

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--function", "exp"],
        ["hypdim", "--function", "quarter"],
    ], ids=["spectrum", "hypdim"])
    def test_one_node_table_per_T(self, argv, tmp_path, capsys, monkeypatch):
        # every t of the curve and of the bisection reads one table set
        Ts = []
        build = sp._node_table

        def counting(branch, T, r):
            Ts.append(T)
            return build(branch, T, r)

        monkeypatch.setattr(sp, "_node_table", counting)
        code, _ = run_cli(argv + ["--out", str(tmp_path)], capsys)
        assert code == 0
        assert Ts == RunConfig().T_grid()

    def test_hypdim_quarter(self, tmp_path, capsys):
        code, out = run_cli(["hypdim", "--function", "quarter",
                             "--out", str(tmp_path)], capsys)
        assert code == 0
        res = json.loads(out)["result"]
        assert 1.0 < res["bowen_zero"] < 2.0
        assert res["bowen_zero"] > res["theta_hat"]

    @pytest.mark.parametrize("function,theta,zero,lowered", [
        ("square", 1.000390625, 1.0048690795898438, True),
        ("quarter", 1.003515625, 1.0591659545898438, False),
        ("exp", 0.999609375, 1.0404525756835938, True),
    ])
    def test_hypdim_pinned(self, function, theta, zero, lowered, tmp_path,
                           capsys):
        code, out = run_cli(["hypdim", "--function", function,
                             "--out", str(tmp_path)], capsys)
        assert code == 0
        res = json.loads(out)["result"]
        assert (res["theta_hat"], res["bowen_zero"]) == (theta, zero)
        assert res["diagnostics"]["bracket_lowered"] is lowered

    def test_pressure_pinned(self, tmp_path, capsys):
        code, _ = run_cli(["pressure", "--function", "quarter",
                           "--tmin", "1.5", "--out", str(tmp_path)], capsys)
        assert code == 0
        rows = (tmp_path / "pressure.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[1]) for r in rows] == [
            -1.0783597064377868, -2.0918765529925887]

    def test_config_file(self, tmp_path, capsys):
        cfg = {"function": {"family": "exp_power", "lambda": [1.0, 0.0],
                            "d": 1}, "tmin": 1.5, "tmax": 2.0, "tstep": 0.5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _ = run_cli(["transfer", "--config", str(path),
                           "--out", str(tmp_path)], capsys)
        assert code == 0

    def test_settings_only_config_with_poly(self, tmp_path, capsys):
        # hypdim --poly reads no function, so its config needs none
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"node_budget": 100000}))
        argv = ["hypdim", "--poly", "z^2", "--out", str(tmp_path)]
        flagged = run_cli(argv + ["--node-budget", "100000"], capsys)
        assert flagged[0] == 0
        assert run_cli(argv + ["--config", str(path)], capsys) == flagged

    def test_settings_only_config_with_function(self, tmp_path, capsys):
        # --function names the function; the file brings only settings
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tstep": 0.25}))
        flag_dir, file_dir = tmp_path / "flag", tmp_path / "file"
        base = ["spectrum", "--function", "exp", "--out"]
        code, _ = run_cli(base + [str(flag_dir), "--tstep", "0.25"], capsys)
        assert code == 0
        code, _ = run_cli(base + [str(file_dir), "--config", str(path)],
                          capsys)
        assert code == 0
        names = sorted(os.listdir(flag_dir))
        assert names == ["spectrum.csv", "spectrum.json"]
        assert sorted(os.listdir(file_dir)) == names
        for name in names:
            assert ((file_dir / name).read_bytes()
                    == (flag_dir / name).read_bytes())


def _count_builds(monkeypatch):
    builds = []
    make_koenigs = lz.make_koenigs

    def counted(*args, **kwargs):
        builds.append(args)
        return make_koenigs(*args, **kwargs)

    monkeypatch.setattr(lz, "make_koenigs", counted)
    return builds


class TestOneBuild:
    def test_function_builds_its_linearizer_once(self, tmp_path, capsys,
                                                 monkeypatch):
        builds = _count_builds(monkeypatch)
        code, _ = run_cli(["spectrum", "--function", "koenigs:z^2-1",
                           "--out", str(tmp_path)], capsys)
        assert code == 0
        assert len(builds) == 1

    def test_config_descriptor_builds_its_handle(self, tmp_path, capsys,
                                                 monkeypatch):
        want = cli.function_from_spec("koenigs:z^2-1")
        desc = {"family": "koenigs",
                "poly": {"coeffs": [[-1, 0], [0, 0], [1, 0]]},
                "z0": [want.z0.real, want.z0.imag],
                "kappa": [want.kappa.real, want.kappa.imag]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"function": desc}))
        builds = _count_builds(monkeypatch)
        args = cli.build_parser().parse_args(
            ["spectrum", "--config", str(path)])
        _, handle = cli.load_config(args)
        assert len(builds) == 1
        assert handle == want


class TestVerify:
    def test_single_check(self, tmp_path, capsys):
        code, out = run_cli(["verify", "--only", "1",
                             "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "PASS   1" in out
        assert (tmp_path / "verify.txt").read_text() == out

    def test_seconds_file_lists_checks_run(self, tmp_path, capsys):
        code, out = run_cli(["verify", "--only", "6,1",
                             "--out", str(tmp_path)], capsys)
        assert code == 0
        text = (tmp_path / "verify_seconds.json").read_text()
        seconds = json.loads(text)
        assert list(seconds) == ["1", "6"]
        assert all(isinstance(v, float) and v >= 0 for v in seconds.values())
        assert "seconds" not in out
        assert (tmp_path / "verify.txt").read_text() == out

    def test_check_error_is_a_fail_line(self, tmp_path, capsys,
                                        monkeypatch):
        # a check that raises a TractdimError fails, and its line names it
        def over_budget():
            raise BudgetExceeded("2^14 nodes exceed budget 1")

        monkeypatch.setattr(checks, "CHECKS", tuple(
            (cid, name, over_budget if cid == 4 else fn)
            for cid, name, fn in checks.CHECKS))
        code, out = run_cli(["verify", "--only", "1,4",
                             "--out", str(tmp_path)], capsys)
        assert code == 1
        lines = out.splitlines()
        assert lines[1].startswith("PASS   1")
        assert lines[2].startswith("FAIL   4  tree-pressure")
        assert lines[2].endswith("BudgetExceeded: 2^14 nodes exceed budget 1")
        assert lines[3] == "1/2 checks passed"


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_main_runs_the_command_the_module_holds(command, tmp_path, capsys,
                                                monkeypatch):
    # perfbench/tracer.py wraps cli.cmd_* with setattr after import, so
    # main must look each command up when it is called
    calls = []

    def stub(cfg, handle, args):
        calls.append(args.command)
        return 1 if command == "verify" else {"stub": command}

    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), stub)
    function = [] if command == "verify" else ["--function", "exp"]
    code, out = run_cli([command, *function, "--out", str(tmp_path)], capsys)
    assert calls == [command]
    if command == "verify":  # its return value is the exit code
        assert (code, out) == (1, "")
    else:
        assert (code, json.loads(out)) == (0, {"stub": command})


def test_cli_import_leaves_scipy_out():
    """numpy is the only runtime dependency; nothing may pull scipy in."""
    code = "import sys, tractdim.cli; print('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
