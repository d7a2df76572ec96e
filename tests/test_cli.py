"""Configuration, exporters, and exit codes of the command-line front end."""

import json
import math
import os
import subprocess
import sys

import pytest

import tractdim.cli as cli
import tractdim.linearizer as lz
import tractdim.spectrum as sp
from tractdim.cli import ConfigError, RunConfig
from tractdim.errors import InvalidGrid, NoSignChange


def run_cli(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


class TestRunConfig:
    def test_round_trip_bit_exact(self):
        cfg = RunConfig(function={"family": "exp_power",
                                  "lambda": [0.25, 0.0], "d": 1},
                        radius=2.718281828459045, tstep=0.1, seed=42)
        text = cfg.to_json()
        assert RunConfig.from_json(text).to_json() == text

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_json('{"function": {}, "bogus": 1}')

    def test_function_required(self):
        with pytest.raises(ConfigError):
            RunConfig.from_json('{"radius": 3.0}')

    def test_t_grid(self):
        cfg = RunConfig(function={}, tmin=0.5, tmax=2.0, tstep=0.5)
        assert cfg.t_grid() == [0.5, 1.0, 1.5, 2.0]

    def test_T_grid_sampled_cap(self):
        cfg = RunConfig(function={}, Tjmin=3, Tjmax=14)
        assert cfg.T_grid()[-1] == 2.0 ** 14
        assert cfg.T_grid(sampled=True)[-1] == 2.0 ** sp.SAMPLED_TJ_CAP

    def test_validation(self):
        with pytest.raises(InvalidGrid):
            RunConfig(function={}, Tjmin=5, Tjmax=3).validate()
        with pytest.raises(InvalidGrid):
            RunConfig(function={}, tstep=0.0).validate()
        with pytest.raises(ConfigError):
            RunConfig(function={}, node_budget=0).validate()

    @pytest.mark.parametrize("field", ["radius", "tmin", "tmax", "tstep"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        # an infinite tstep would give an empty t grid
        with pytest.raises(ConfigError, match=field):
            RunConfig(function={}, **{field: value}).validate()


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
        code, out = run_cli(["tract-plot", "--function", "exp",
                             "--Tlist", "0", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "InvalidGrid"


class TestExitCodes:
    def test_missing_function_exits_2(self, tmp_path, capsys):
        code, out = run_cli(["spectrum", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "ConfigError"

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--function", "koenigs:z^2-2", "--radius", "1.5"],
        ["verify", "--only", "99"],
        ["verify", "--only", "x"],
        ["tract-plot", "--function", "exp", "--Tlist", "a"],
    ], ids=["radius-below-singular", "unknown-check", "bad-only",
            "bad-Tlist"])
    def test_bad_input_exits_2(self, argv, tmp_path, capsys):
        code, out = run_cli(argv + ["--out", str(tmp_path)], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "ConfigError"

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
        err = json.loads(out)
        assert err["error"] == "ConfigError"
        assert "closed-form" in err["detail"]

    @pytest.mark.parametrize("key", ["threads", "quad_tol"])
    def test_removed_config_key_refused(self, key, tmp_path, capsys):
        cfg = json.loads(RunConfig(function={"family": "exp_power"}).to_json())
        cfg[key] = 1
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
    ], ids=["malformed-json", "string-radius", "null-tstep", "top-level-list"])
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

    def test_divergence_exits_3(self, tmp_path, capsys):
        code, out = run_cli(["transfer", "--function", "exp",
                             "--tmin", "0.5", "--tmax", "0.5",
                             "--tstep", "1", "--out", str(tmp_path)], capsys)
        assert code == 3
        assert json.loads(out)["error"] == "DivergenceDetected"

    def test_empty_t_grid_exits_2(self, tmp_path, capsys):
        code, out = run_cli(["spectrum", "--function", "exp",
                             "--tmin", "2", "--tmax", "1",
                             "--out", str(tmp_path)], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "InvalidGrid"

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
        def no_zero(branch, T_grid):
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

    def test_hypdim_quarter(self, tmp_path, capsys):
        code, out = run_cli(["hypdim", "--function", "quarter",
                             "--out", str(tmp_path)], capsys)
        assert code == 0
        res = json.loads(out)["result"]
        assert 1.0 < res["bowen_zero"] < 2.0
        assert res["bowen_zero"] > res["theta_hat"]

    def test_config_file(self, tmp_path, capsys):
        cfg = RunConfig(function={"family": "exp_power",
                                  "lambda": [1.0, 0.0], "d": 1},
                        tmin=1.5, tmax=2.0, tstep=0.5)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        code, _ = run_cli(["transfer", "--config", str(path),
                           "--out", str(tmp_path)], capsys)
        assert code == 0


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

    def test_budget_one_fails(self, tmp_path, capsys):
        code, out = run_cli(["verify", "--only", "4", "--node-budget", "1",
                             "--out", str(tmp_path)], capsys)
        assert code == 1
        assert "FAIL   4" in out and "BudgetExceeded" in out

    def test_node_budget_reaches_every_tree(self, tmp_path, capsys):
        # the depth-14 tree of check 4 has 16,384 nodes
        code, out = run_cli(["verify", "--only", "4", "--node-budget",
                             "10000", "--out", str(tmp_path)], capsys)
        assert code == 1
        assert "FAIL   4" in out and "BudgetExceeded" in out


def test_cli_import_leaves_scipy_out():
    """numpy is the only runtime dependency; nothing may pull scipy in."""
    code = "import sys, tractdim.cli; print('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
