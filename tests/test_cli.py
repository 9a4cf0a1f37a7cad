"""End-to-end CLI behavior: commands, exit codes, config handling."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hfstab import hill
from hfstab.cli import build_parser, main
from hfstab.collisions import LAMBDA_TOL
from hfstab.config import apply_flags, build_model, load_config
from hfstab.krein import run_pipeline, screen
from hfstab.models import ModelError, TravelingWave, bifurcation_speed, \
    eval_Omega, make_model
from hfstab.report import csv_lines
from hfstab.waves import solve_wave_collocation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_stdout_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--model", "water-waves",
                           "--n-max", "4")
        assert code == 0
        data = json.loads(out)
        assert data["model"] == "water-waves"
        assert data["overall"] == "HF-instability-possible"
        assert data["events"]

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", "--model", "gkdv",
                           "--n-max", "5", "--out", str(out_path))
        assert code == 0 and out == ""
        data = json.loads(out_path.read_text())
        assert data["overall"] == "HF-instability-excluded"

    def test_unknown_model(self, capsys):
        code, _, err = run(capsys, "analyze", "--model", "nope")
        assert code == 2
        assert "configuration error" in err

    @pytest.mark.parametrize("target", ["missing/r.json", "."])
    def test_unwritable_output_is_a_configuration_error(self, capsys,
                                                        tmp_path, target):
        # a missing directory and a directory itself: a message, no traceback
        path = str(tmp_path / target)
        code, out, err = run(capsys, "analyze", "--model", "kdv",
                             "--n-max", "3", "--out", path)
        assert (code, out) == (2, "")
        assert err.startswith("configuration error: cannot write output file")
        assert repr(path) in err


class TestCollide:
    """The collision screen's events, through analyze."""

    def test_deep_water_anchor(self, capsys):
        code, out, _ = run(capsys, "analyze", "--model", "water-waves-deep",
                           "--n-max", "3")
        assert code == 0
        data = json.loads(out)
        assert data["speed"] == pytest.approx(1.0)
        hits = [e for e in data["events"]
                if abs(e["mu"] - 0.25) < 1e-9
                and abs(e["lambda_im"] - 0.75) < 1e-9]
        assert len(hits) == 1

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "water-waves", "h": 2.0,
                                   "n_max": 3}))
        code, out, _ = run(capsys, "analyze", "--config", str(cfg),
                           "--h", "100.0")
        assert code == 0
        # deep-water speed sqrt(tanh(100)) ~ 1, not sqrt(tanh(2))
        assert json.loads(out)["speed"] == pytest.approx(1.0, abs=1e-10)

    def test_config_only(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "sine-gordon", "n_max": 4}))
        code, out, _ = run(capsys, "analyze", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["speed"] == pytest.approx(math.sqrt(2.0))

    def test_inline_custom_model(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "model": {"kind": "scalar", "omega1": "k^3",
                      "params": {"sigma": 1.0}},
            "n_max": 5}))
        code, out, _ = run(capsys, "analyze", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["model"] == "custom-scalar"


    @pytest.mark.parametrize("model", [
        "water-waves", "water-waves-deep", "sine-gordon", "boussinesq-whitham",
        "fifth-order-scalar",
        # a scalar branch must be its own mirror under k -> -k, and k^2 + k
        # is not: analyze refuses it
        pytest.param({"kind": "scalar", "omega1": "k^2+k"},
                     id="non-dispersive"),
    ])
    def test_events_match_analyze(self, capsys, tmp_path, model):
        # the report never writes the origin event's lambda_im as -0, and
        # spectrum screens as analyze does, so it refuses what analyze refuses
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": model, "n_max": 5}))
        cli = lambda command: run(capsys, command, "--config", str(cfg),
                                  "--out", str(tmp_path / command))
        code, _, err = cli("analyze")
        if code:
            assert code == 2
            assert "no branch mirrors branch 1 under k -> -k" in err
            assert cli("spectrum") == (2, "", err)
            return
        text = (tmp_path / "analyze").read_text()
        assert not re.search(r"-0(?![.\de])", text)
        events = json.loads(text)["events"]
        assert all(e["signature_product"] is not None for e in events)
        assert any(not e["at_origin"] for e in events)


    def test_model_not_closed_under_reflection_is_refused(self, capsys,
                                                           tmp_path):
        # +-omega1 with an omega1 that is not even: no mirror for the mu < 0
        # spectra and no lambda -> -lambda mirror for the collision events
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": {
            "kind": "canonical", "omega1": "sqrt(1+k^2)+0.1*k"}, "n_max": 5}))
        results = {run(capsys, command, "--config", str(cfg),
                       "--out", str(tmp_path / command))
                   for command in ("analyze", "wave", "spectrum", "curves")}
        assert len(results) == 1
        code, out, err = results.pop()
        assert (code, out) == (2, "")
        assert "no branch mirrors branch 1 under k -> -k" in err
        assert not list(tmp_path.glob("analyze*"))


class TestConfigErrors:
    @pytest.mark.parametrize("argv, out, blocked", [
        (["spectrum", "--model", "kdv", "--M", "8", "--mu-count", "8",
          "--n-max", "3"], "s.csv", "s.csv.bubbles.json"),
        (["curves", "--model", "water-waves"], "c.csv", "c.csv.depth.csv")])
    def test_refused_second_output_leaves_no_first(self, capsys, tmp_path,
                                                   argv, out, blocked):
        # a directory where the second output goes: every output is opened
        # before any is written, so the refused run leaves no partial file
        (tmp_path / blocked).mkdir()
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / out))
        assert code == 2
        assert err.startswith("configuration error: cannot write output file")
        assert sorted(p.name for p in tmp_path.iterdir()) == [blocked]

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "kdv", "bogus": 1}))
        code, _, err = run(capsys, "analyze", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_malformed_json_reports_offset(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"model": "kdv",,}')
        code, _, err = run(capsys, "analyze", "--config", str(cfg))
        assert code == 2
        assert "offset" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "--config",
                           str(tmp_path / "absent.json"))
        assert code == 2

    def test_bad_flag_value(self, capsys):
        code, _, _ = run(capsys, "analyze", "--model", "kdv",
                         "--n-max", "not-a-number")
        assert code == 2

    def test_nonpositive_n_max(self, capsys):
        code, _, err = run(capsys, "analyze", "--model", "kdv",
                           "--n-max", "0")
        assert code == 2
        assert "n_max" in err

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2
        # collide is no command: analyze writes the collision events
        assert run(capsys, "collide", "--model", "kdv")[0] == 2

    @pytest.mark.parametrize("flag", ["--refine", "--no-refine"])
    def test_refine_flags_are_gone(self, capsys, flag):
        # refinement around predicted collisions is always on
        assert run(capsys, "spectrum", "--model", "kdv", flag)[0] == 2

    @pytest.mark.parametrize("config, message", [
        # the collision scan has no options: its grid and tolerances are
        # constants of hfstab.collisions
        ({"model": "water-waves", "collision": {"grid_points": 512}},
         "unknown config key(s): ['collision']"),
        # numbers must be JSON numbers, not strings or booleans; a model
        # parameter is checked by models, in its words
        ({"model": "water-waves", "h": "2", "n_max": 3},
         "parameter 'h' must be a number, got '2'"),
        ({"model": "water-waves", "wave": {"amplitude": True}, "n_max": 3},
         "wave.amplitude must be float"),
        ({"model": "water-waves", "params": {"h": "2"}},
         "parameter 'h' must be a number, got '2'"),
        ({"model": "kdv", "wave": {"mean": False}}, "wave.mean"),
        ({"model": {"kind": "scalar", "omega1": "a*k^3",
                    "params": {"a": True}}},
         "parameter 'a' must be a number, got True"),
        ({"model": {"kind": "noncanonical-bw", "omega1": "k",
                    "c_squared": "tanh(k)/k", "at_zero": "1"}},
         "custom model 'at_zero' must be a number, got '1'"),
        ({"model": "kdv", "N": math.inf}, "N must be int"),
        ({"model": "kdv", "wave": [1, 2]}, "'wave' must be"),
        ({"model": {"kind": "scalar", "omega1": "a*k^3", "params": 5}},
         "model parameters must be an object, got 5"),
        # a list of pairs is no object, though dict() would read it
        ({"model": {"kind": "scalar", "omega1": "a*k^3",
                    "params": [["a", 1.0]]}},
         "model parameters must be an object, got [['a', 1.0]]"),
        ({"model": {"kind": "scalar", "omega1": "a*k^3",
                    "params": [["a", 1.0]]}, "h": 2.0},
         "model parameters must be an object, got [['a', 1.0]]"),
        ({"model": {"kind": "scalar", "omega1": "a*k^3",
                    "params": {"a": "x"}}},
         "parameter 'a' must be a number, got 'x'"),
        ({"model": {"kind": "noncanonical-bw", "omega1": "k",
                    "c_squared": "tanh(k)/k", "at_zero": "zz"}},
         "custom model 'at_zero' must be a number, got 'zz'"),
        # settings are read before the model is built, so a bad setting is
        # reported before a bad parameter
        ({"model": "water-waves", "h": "2", "N": 1.5},
         "N must be int, got 1.5"),
        # a custom canonical Hamiltonian (B = 1, C = omega1^2) has only the
        # branches +-omega1
        ({"model": {"kind": "canonical", "omega1": "sqrt(1+k^2)",
                    "omega2": "-sqrt(4+k^2)"}, "n_max": 10},
         "'omega2' must equal -omega1"),
        # expressions must be strings
        ({"model": {"kind": "scalar", "omega1": 5}},
         "'omega1' must be an expression string"),
        ({"model": {"kind": "canonical", "omega1": "sqrt(1+k^2)",
                    "omega2": -1.0}}, "'omega2' must be an expression string"),
        ({"model": {"kind": "noncanonical-bw", "omega1": "k",
                    "c_squared": 1}}, "'c_squared' must be an expression string"),
        ({"model": "kdv", "wave": {"amplitude": math.nan}}, "wave.amplitude"),
        # refinement around predicted collisions is always on
        ({"model": "kdv", "hill": {"refine": False}}, "'refine'"),
        # an expression's names are k, pi and its params, checked when it
        # is compiled, not when the collision scan first evaluates it
        ({"model": {"kind": "scalar", "omega1": "q*k^3"}},
         "parse error at offset 0: expected k, pi or a parameter, not 'q'"),
        # numbers are ASCII decimal
        ({"model": {"kind": "scalar", "omega1": "k^²"}},
         "parse error at offset 2: expected a token"),
        # a custom canonical model has no symbol singular at k = 0
        ({"model": {"kind": "canonical", "omega1": "sqrt(1+k^2)",
                    "at_zero": 1.0}}, "drop 'at_zero'"),
        # a branch that cannot be evaluated on the sample grid is refused
        # when the model is built
        ({"model": {"kind": "noncanonical-bw",
                    "omega1": "sign(k)*sqrt(k*tanh(k))",
                    "c_squared": "tanh(k)/k"}},
         "model 'custom-bw': division by zero at k=0.0"),
        ({"model": {"kind": "scalar", "omega1": "k^3 + 1/0"}},
         "model 'custom-scalar': division by zero at k=0.0"),
        # so is one that fails in the checks of its stated symbols
        ({"model": {"kind": "noncanonical-bw", "omega1": "sqrt(k-1)",
                    "c_squared": "k^2"}},
         "model 'custom-bw': sqrt of a negative value at k=0.3"),
        ({"model": {"kind": "canonical", "omega1": "k",
                    "omega2": "-sqrt(k-1)"}},
         "model 'custom-canonical': sqrt of a negative value at k=0.3"),
        ({"model": {"kind": "noncanonical-bw", "omega1": "k*sqrt(c)",
                    "c_squared": "c", "params": {"c": -1.0}}},
         "model 'custom-bw': sqrt of a negative value at k=0.3"),
        # a parameter pi would silently replace the constant
        ({"model": {"kind": "scalar", "omega1": "pi*k^3",
                    "params": {"pi": 3.0}}}, "parameter 'pi' is reserved"),
        # nesting deeper than the parser's recursion reaches
        ({"model": {"kind": "scalar",
                    "omega1": "(" * 2000 + "k^3" + ")" * 2000}},
         "expected an expression nested less deeply"),
        ({"model": {"kind": "scalar", "omega1": "-" * 3000 + "k^3"}},
         "expected an expression nested less deeply"),
    ])
    def test_malformed_config_is_a_configuration_error(self, capsys, tmp_path,
                                                       config, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run(capsys, "analyze", "--config", str(cfg))
        assert code == 2
        assert "configuration error" in err and message in err

    @pytest.mark.parametrize("depth", [150, 300])
    def test_nested_parentheses_give_the_unnested_report(self, capsys,
                                                         tmp_path, depth):
        reports = []
        for omega1 in ("k^3", "(" * depth + "k^3" + ")" * depth):
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({
                "model": {"kind": "scalar", "omega1": omega1}, "n_max": 5}))
            code, out, _ = run(capsys, "analyze", "--config", str(cfg))
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]

    @staticmethod
    def _analyze_in_fresh_interpreter(tmp_path, model):
        # a fresh interpreter, as pytest would capture a RuntimeWarning
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": model}))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH", "")])))
        return subprocess.run(
            [sys.executable, "-m", "hfstab.cli", "analyze", "--config",
             str(cfg)], env=env, capture_output=True, text=True, timeout=300)

    def test_negative_c_squared_prints_only_the_error(self, tmp_path):
        proc = self._analyze_in_fresh_interpreter(tmp_path, {
            "kind": "noncanonical-bw", "omega1": "k*sqrt(1+0.1*k)",
            "c_squared": "1+0.1*k"})
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr == ("configuration error: model 'custom-bw': "
                               "omega_1(-25.0) is not finite\n")

    def test_c_squared_negative_where_omega1_is_checked_is_refused(
            self, tmp_path):
        # omega1 = k*sqrt(c_squared) is checked at k = 0.3, 1, 2.7 and 5,
        # where sqrt(-1) once printed numpy's RuntimeWarning and a nan gap
        proc = self._analyze_in_fresh_interpreter(tmp_path, {
            "kind": "noncanonical-bw", "omega1": "k", "c_squared": "-1"})
        assert proc.returncode == 2
        assert proc.stderr == (
            "configuration error: custom noncanonical-bw 'c_squared' is "
            "negative at k=0.3, so its branches +-k*sqrt(c_squared(k)) are "
            "not real\n")

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--model", "kdv", "--amplitude", "nan"], "wave.amplitude"),
        (["wave", "--model", "kdv", "--amplitude", "nan"], "wave.amplitude"),
        (["wave", "--model", "kdv", "--amplitude", "inf"], "wave.amplitude"),
        (["wave", "--model", "kdv", "--amplitude", "0.01", "--mean=-inf"],
         "wave.mean"),
        (["wave", "--model", "whitham", "--sigma", "nan", "--amplitude",
          "0.01"], "parameter 'sigma' must be finite, got nan"),
        (["analyze", "--model", "whitham", "--sigma", "inf"],
         "parameter 'sigma' must be finite, got inf"),
        (["analyze", "--config", {"kind": "scalar", "omega1": "-k^3",
                                  "params": {"sigma": math.nan}}],
         "parameter 'sigma' must be finite, got nan"),
        (["analyze", "--config", {"kind": "scalar", "omega1": "-k^3",
                                  "at_zero": math.nan}],
         "'at_zero' must be finite, got nan"),
    ])
    def test_non_finite_flag_is_a_configuration_error(self, capsys, tmp_path,
                                                      argv, message):
        # a dict is an inline model, written as a config file: json writes
        # nan as the literal NaN, which json.load reads back
        argv = list(argv)
        for i, a in enumerate(argv):
            if isinstance(a, dict):
                path = tmp_path / "run.json"
                path.write_text(json.dumps({"model": a}))
                argv[i] = str(path)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "configuration error" in err and message in err

    @pytest.mark.parametrize("argv, config, key", [
        (["analyze", "--N", str(10**400)], {}, "N"),
        (["analyze", "--n-max", str(10**400)], {}, "n_max"),
        (["wave", "--modes", str(10**400)], {}, "wave.modes"),
        (["wave", "--steps", str(10**400)], {}, "wave.steps"),
        (["spectrum", "--mu-count", str(10**400)], {}, "hill.mu_count"),
        (["spectrum", "--M", str(10**400)], {}, "hill.M"),
        (["analyze"], {"N": 10**400}, "N"),
        (["wave"], {"wave": {"modes": 10**400}}, "wave.modes"),
        (["wave"], {"wave": {"steps": 10**400}}, "wave.steps"),
    ])
    def test_int_too_large_for_a_double_is_a_configuration_error(
            self, capsys, tmp_path, argv, config, key):
        # 10**400 is an int no double holds; argparse and json read it exactly
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"model": "kdv", "wave": {
            "amplitude": 0.01}, **config}))
        code, _, err = run(capsys, *argv, "--config", str(path))
        assert code == 2
        assert err.startswith(f"configuration error: {key} must be finite, "
                              f"got 1000")

    @pytest.mark.parametrize("field, section, in_config, flag, in_flag", [
        ("N", None, 2, "--N", 3),
        ("n_max", None, 4, "--n-max", 7),
        ("amplitude", "wave", 0.01, "--amplitude", 0.02),
        ("mean", "wave", 0.1, "--mean", 0.2),
        ("modes", "wave", 40, "--modes", 48),
        ("steps", "wave", 3, "--steps", 5),
        ("mu_count", "hill", 10, "--mu-count", 12),
        ("M", "hill", 16, "--M", 24),
        ("output", None, "a.csv", "--out", "b.csv"),
    ])
    def test_config_key_sets_each_setting_and_its_flag_wins(
            self, tmp_path, field, section, in_config, flag, in_flag):
        # a RunConfig field's name is its config key and its flag's dest
        path = tmp_path / "run.json"
        data = {field: in_config}
        path.write_text(json.dumps({section: data} if section else data))
        parser = build_parser()
        argv = ["spectrum", "--config", str(path)]
        for argv, expected in ((argv, in_config),
                               (argv + [flag, str(in_flag)], in_flag)):
            cfg = apply_flags(load_config(str(path)), parser.parse_args(argv))
            assert getattr(cfg, field) == expected
            assert type(getattr(cfg, field)) is type(expected)

    def test_parameter_values_reach_the_model_as_given(self, tmp_path):
        # the config reader checks settings only; models checks parameters
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"model": "water-waves",
                                    "params": {"h": "2"}}))
        cfg = load_config(str(path))
        assert cfg.params == {"h": "2"}
        with pytest.raises(ModelError, match="^parameter 'h' must be a "
                                             "number, got '2'$"):
            build_model(cfg)

    def test_explicit_omega2_equal_to_minus_omega1_runs(self, capsys,
                                                        tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "model": {"kind": "canonical", "omega1": "sqrt(1+k^2)",
                      "omega2": "-sqrt(1+k^2)"}, "n_max": 5}))
        code, out, _ = run(capsys, "analyze", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["overall"] == "HF-instability-possible"


class TestWave:
    def test_wave_artifact(self, capsys, tmp_path):
        out_path = tmp_path / "wave.json"
        code, _, _ = run(capsys, "wave", "--model", "whitham",
                         "--amplitude", "0.01", "--modes", "32",
                         "--steps", "3", "--out", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["model"] == "whitham"
        assert data["coefficients"][1] == pytest.approx(0.01)
        assert data["residual"] < 1e-9

    def test_negative_mean_refused_without_force(self, capsys):
        code, _, err = run(capsys, "wave", "--model", "boussinesq-whitham",
                           "--amplitude", "0.001", "--modes", "16",
                           "--mean", "-0.01")
        assert code == 2
        assert "nonnegative mean" in err

    def test_negative_mean_forced(self, capsys):
        code, out, _ = run(capsys, "wave", "--model", "boussinesq-whitham",
                           "--amplitude", "0.001", "--modes", "16",
                           "--mean", "-0.0001", "--force")
        assert code == 0
        assert json.loads(out)["coefficients"][0] == pytest.approx(-1e-4)

    @pytest.mark.parametrize("alpha, mean, code", [
        ("-1", "0.01", 2), ("-1", "-0.01", 0), ("0", "-0.01", 0)])
    def test_mean_refused_by_the_flat_state_cutoff(self, capsys, alpha,
                                                   mean, code):
        # 2*alpha*mean + c^2(k) < 0 beyond k = 50 at alpha = -1, mean = 0.01;
        # the sign of alpha*mean decides, not the sign of the mean
        got, _, err = run(capsys, "wave", "--model", "boussinesq-whitham",
                          "--alpha", alpha, "--amplitude", "0.001",
                          "--modes", "16", "--mean", mean)
        assert got == code
        if code:
            assert "ill-posed beyond k = 50 " in err
            assert "nonpositive mean" in err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--model", "kdv", "--amplitude", "1e300"],
        ["wave", "--model", "kdv", "--amplitude", "1e200"]])
    def test_overflowing_amplitude_is_a_numerical_failure(self, capsys, argv):
        # the Stokes seed squares the amplitude; that overflowed to a
        # traceback where a merely large amplitude already exits 3
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure: ") and "amplitude" in err

    def test_allocation_too_large_is_a_numerical_failure(self, capsys):
        # 29 TiB of collocation matrix: a request every host refuses at once
        code, out, err = run(capsys, "wave", "--model", "kdv", "--amplitude",
                             "0.01", "--modes", "1000000")
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure: Unable to allocate ")
        assert err.count("\n") == 1

    def test_steps_beyond_the_bound_exit_at_once(self):
        # a fresh interpreter with a timeout: an unbounded continuation would
        # run until it is killed
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH", "")])))
        proc = subprocess.run(
            [sys.executable, "-m", "hfstab.cli", "wave", "--model", "kdv",
             "--amplitude", "0.01", "--modes", "16", "--steps",
             str(10**12)], env=env, capture_output=True, text=True,
            timeout=30)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("configuration error: steps must be in "
                               "[1, 10000], got 1000000000000\n")

    def test_non_finite_newton_residual_stops_at_once(self, capsys,
                                                      monkeypatch):
        # the seed of amplitude 1e149 overflows its cos(3x) harmonic; the
        # solver once took all 50 Newton steps on NaNs, printing numpy's
        # RuntimeWarnings, before it gave up
        solve = np.linalg.solve
        calls = []
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *a: calls.append(1) or solve(*a))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "wave", "--model", "kdv",
                                 "--amplitude", "1e150")
        assert (code, out) == (3, "")
        assert err == ("numerical failure: non-finite Newton residual at "
                       "step 1 of target amplitude 1e+149\n")
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert len(calls) <= 1

    @pytest.mark.parametrize("model", ["kdv", "boussinesq-whitham"])
    def test_zero_amplitude_with_a_mean_is_refused(self, capsys, model):
        code, out, err = run(capsys, "wave", "--model", model, "--amplitude",
                             "0", "--mean", "0.1", "--modes", "16")
        assert code == 2 and out == ""
        assert "configuration error" in err and "mean" in err

    @pytest.mark.parametrize("amplitude", ["0", "0.01"])
    def test_harmonic_other_than_one_is_refused(self, capsys, tmp_path,
                                                amplitude):
        # from the flag and from the config file alike
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "kdv", "N": 2}))
        for argv in (["--model", "kdv", "--N", "2"], ["--config", str(cfg)]):
            code, out, err = run(capsys, "wave", *argv, "--amplitude",
                                 amplitude, "--modes", "16")
            assert code == 2 and out == ""
            assert "configuration error" in err and "N = 2" in err

    def test_canonical_model_has_no_wave(self, capsys):
        code, _, err = run(capsys, "wave", "--model", "sine-gordon",
                           "--amplitude", "0.01")
        assert code == 2

    def test_every_command_refuses_a_non_reversible_model(self, capsys,
                                                           tmp_path):
        # k^3 + k^2 is not odd, so no branch mirrors it under k -> -k; the
        # model is refused when it is built, by wave as by the rest
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "model": {"kind": "scalar", "omega1": "k^3+k^2"}, "n_max": 5,
            "wave": {"amplitude": 0.01, "modes": 16}}))
        results = {command: run(capsys, command, "--config", str(cfg),
                                "--out", str(tmp_path / command))
                   for command in ("analyze", "wave", "spectrum", "curves")}
        assert len(set(results.values())) == 1
        code, out, err = results["wave"]
        assert (code, out) == (2, "")
        assert err.startswith("configuration error: model 'custom-scalar': "
                              "no branch mirrors branch 1 under k -> -k")
        assert not list(tmp_path.glob("[!r]*"))


class TestSpectrum:
    def test_ill_posed_mean_refusal_names_no_option(self, capsys):
        # spectrum has no --force, so its refusal must not suggest one
        code, out, err = run(capsys, "spectrum", "--model",
                             "boussinesq-whitham", "--amplitude", "0.001",
                             "--mean", "-0.5", "--M", "16")
        assert (code, out) == (2, "")
        assert "ill-posed beyond k = 0 " in err
        assert "force" not in err

    def test_forced_wave_file(self, capsys, tmp_path):
        # what wave --force is for: a wave about an ill-posed BW mean,
        # written once and then read by spectrum
        wave = str(tmp_path / "w.json")
        code, _, _ = run(capsys, "wave", "--model", "boussinesq-whitham",
                         "--amplitude", "0.001", "--modes", "16",
                         "--mean", "-0.0001", "--force", "--out", wave)
        assert code == 0
        code, _, err = run(capsys, "spectrum", "--model",
                           "boussinesq-whitham", "--wave", wave, "--M", "16",
                           "--mu-count", "8", "--out",
                           str(tmp_path / "s.csv"))
        assert (code, err) == (0, "")

    def test_zero_amplitude_spectrum(self, capsys, tmp_path):
        out_path = tmp_path / "spec.csv"
        code, _, _ = run(capsys, "spectrum", "--model", "kdv",
                         "--n-max", "3", "--mu-count", "16", "--M", "8",
                         "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "mu,re_lambda,im_lambda"
        assert len(lines) == 1 + 16 * 17
        report = json.loads((tmp_path / "spec.csv.bubbles.json").read_text())
        assert report["bubbles"] == []
        assert report["max_re_lambda"] == 0.0
        assert "zero_amplitude_deviation" not in report

    def test_zero_amplitude_with_a_mean_is_refused(self, capsys, tmp_path):
        out_path = tmp_path / "spec.csv"
        code, _, err = run(capsys, "spectrum", "--model", "kdv", "--mean",
                           "0.1", "--mu-count", "4", "--M", "8",
                           "--out", str(out_path))
        assert code == 2 and not out_path.exists()
        assert "configuration error" in err and "wave.mean" in err

    def test_zero_amplitude_spectrum_at_harmonic_two(self, capsys, tmp_path):
        # the zero wave at omega(N)/N needs no wave solve
        out_path = tmp_path / "spec.csv"
        code, _, _ = run(capsys, "spectrum", "--model", "kdv", "--N", "2",
                         "--n-max", "3", "--mu-count", "4", "--M", "8",
                         "--out", str(out_path))
        assert code == 0
        report = json.loads((tmp_path / "spec.csv.bubbles.json").read_text())
        assert report["max_re_lambda"] == 0.0
        assert "zero_amplitude_deviation" not in report

    def test_harmonic_other_than_one_is_refused(self, capsys, tmp_path):
        # whenever a wave is solved or read
        wave_path = tmp_path / "wave.json"
        run(capsys, "wave", "--model", "kdv", "--amplitude", "0.01",
            "--modes", "16", "--out", str(wave_path))
        out_path = tmp_path / "spec.csv"
        for argv in (["--amplitude", "0.01", "--modes", "16"],
                     ["--wave", str(wave_path)]):
            code, _, err = run(capsys, "spectrum", "--model", "kdv", "--N",
                               "2", *argv, "--mu-count", "4", "--M", "8",
                               "--out", str(out_path))
            assert code == 2 and not out_path.exists()
            assert "configuration error" in err and "N = 2" in err

    def test_wave_file_roundtrip(self, capsys, tmp_path):
        wave_path = tmp_path / "wave.json"
        run(capsys, "wave", "--model", "whitham", "--amplitude", "0.01",
            "--modes", "32", "--steps", "3", "--out", str(wave_path))
        out_path = tmp_path / "spec.csv"
        code, _, _ = run(capsys, "spectrum", "--model", "whitham",
                         "--wave", str(wave_path), "--n-max", "3",
                         "--mu-count", "12", "--M", "16",
                         "--out", str(out_path))
        assert code == 0
        report = json.loads((tmp_path / "spec.csv.bubbles.json").read_text())
        assert report["amplitude"] == pytest.approx(0.01)

    def test_wave_with_only_higher_harmonics_is_not_zero(self, capsys,
                                                         tmp_path):
        # a_1 = 0: U(x) = 4 u(2x) solves KdV at speed 4c for a solution u
        # at speed c, with the integration constant times 16
        u = solve_wave_collocation(make_model("kdv"), 0.05, M=16, steps=3)
        coefficients = [0.0] * (2 * len(u.coefficients) - 1)
        coefficients[::2] = [4.0 * a for a in u.coefficients]
        wave_path = tmp_path / "wave.json"
        wave_path.write_text(json.dumps(
            {"model": "kdv", "c": 4.0 * u.c, "coefficients": coefficients,
             "constant": 16.0 * u.constant}))
        out_path = tmp_path / "spec.csv"
        code, _, _ = run(capsys, "spectrum", "--model", "kdv",
                         "--wave", str(wave_path), "--n-max", "3",
                         "--mu-count", "4", "--M", "8",
                         "--out", str(out_path))
        assert code == 0
        report = json.loads((tmp_path / "spec.csv.bubbles.json").read_text())
        assert "zero_amplitude_deviation" not in report

    @pytest.mark.parametrize("key, value", [
        ("c", math.nan), ("constant", math.inf),
        ("coefficients", [0.0, math.nan]), ("c", None), ("coefficients", 5),
        pytest.param("c", 10**400, id="c-huge-int"),
        pytest.param("constant", 10**400, id="constant-huge-int"),
        pytest.param("coefficients", [0.0, 10**400],
                     id="coefficients-huge-int")])
    def test_non_finite_wave_file_is_a_configuration_error(self, capsys,
                                                           tmp_path, key,
                                                           value):
        data = {"model": "kdv", "c": -1.0, "coefficients": [0.0, 0.01]}
        data[key] = value
        wave_path = tmp_path / "wave.json"
        wave_path.write_text(json.dumps(data))
        code, _, err = run(capsys, "spectrum", "--model", "kdv",
                           "--wave", str(wave_path), "--n-max", "3",
                           "--mu-count", "2", "--M", "4")
        assert code == 2
        assert "configuration error" in err and f"wave {key}" in err

    def test_wave_file_that_is_not_an_object_is_a_configuration_error(
            self, capsys, tmp_path):
        wave_path = tmp_path / "wave.json"
        wave_path.write_text(json.dumps([1, 2]))
        code, _, err = run(capsys, "spectrum", "--model", "kdv",
                           "--wave", str(wave_path))
        assert code == 2
        assert "configuration error: a wave must be an object" in err

    def test_fifth_order_defaults_report_only_the_genuine_bubbles(
            self, capsys, tmp_path):
        # CLI defaults (M = 64, 200 mu plus refinement windows): eigensolver
        # roundoff opens no bubble, only the opposite-signature pair does
        out_path = tmp_path / "spec.csv"
        code, _, _ = run(capsys, "spectrum", "--model", "fifth-order-scalar",
                         "--amplitude", "0.02", "--out", str(out_path))
        assert code == 0
        report = json.loads((tmp_path / "spec.csv.bubbles.json").read_text())
        bubbles = report["bubbles"]
        assert len(bubbles) == 2
        assert sorted(b["center_im"] for b in bubbles) == [
            pytest.approx(-0.2277, abs=5e-3), pytest.approx(0.2277, abs=5e-3)]
        for b in bubbles:
            assert b["max_growth"] == pytest.approx(1.5465e-4, rel=1e-2)
        assert report["max_re_lambda"] == max(b["max_growth"] for b in bubbles)

    def test_mirrored_bubbles_are_exact_pairs(self, capsys, tmp_path):
        # the mu < 0 slices are the mu > 0 slices negated, so the bubble at
        # Im lambda < 0 is the exact mirror of the one at Im lambda > 0
        # (roundoff used to give 1.8437261e-4 against 1.8437091e-4)
        out_path = tmp_path / "spec.csv"
        code, _, _ = run(capsys, "spectrum", "--model", "fifth-order-scalar",
                         "--amplitude", "0.02186", "--out", str(out_path))
        assert code == 0
        report = json.loads((tmp_path / "spec.csv.bubbles.json").read_text())
        bubbles = sorted(report["bubbles"], key=lambda b: b["center_im"])
        assert len(bubbles) == 2
        low, high = bubbles
        assert low["max_growth"] == high["max_growth"]
        assert low["mu_support"] == [-mu for mu in high["mu_support"][::-1]]
        assert low["im_support"] == [-im for im in high["im_support"][::-1]]
        assert low["center_im"] == -high["center_im"]

    @pytest.mark.parametrize("model, amplitude", [
        ("kdv", 0.02), ("gkdv", 0.02), ("mkdv-focusing", 0.02),
        ("mkdv-defocusing", 0.02), ("whitham", 0.02),
        ("fifth-order-scalar", 0.02), ("boussinesq-whitham", 0.01)])
    def test_windows_only_around_collisions_off_the_origin(
            self, capsys, tmp_path, model, amplitude):
        # the wave's speed c0 + O(eps^2) splits the origin collision into
        # near-origin events; only the non-origin collisions at c0 (none for
        # the KdV family) get a window and its mirror, of 3 points at 20 mu
        out_path = tmp_path / "spec.csv"
        code, _, _ = run(capsys, "spectrum", "--model", model,
                         "--amplitude", str(amplitude), "--modes", "16",
                         "--M", "8", "--mu-count", "20",
                         "--out", str(out_path))
        assert code == 0
        mus = {row.split(",")[0]
               for row in out_path.read_text().splitlines()[1:]}
        genuine = run_pipeline(make_model(model)).counts["non_origin"]
        assert len(mus) == 20 + 3 * 2 * genuine

    def test_fifth_order_windows_are_the_kept_wave_speed_collisions(
            self, capsys, tmp_path):
        # the CSV is the spectrum on the windows of the events at the wave's
        # speed whose modes do not both sit at the origin at c0
        wave_path, out_path = tmp_path / "w.json", tmp_path / "spec.csv"
        assert run(capsys, "wave", "--model", "fifth-order-scalar",
                   "--amplitude", "0.02", "--modes", "16",
                   "--out", str(wave_path))[0] == 0
        assert run(capsys, "spectrum", "--model", "fifth-order-scalar",
                   "--wave", str(wave_path), "--M", "8", "--mu-count", "20",
                   "--out", str(out_path))[0] == 0
        model = make_model("fifth-order-scalar")
        wave = TravelingWave.from_dict(json.loads(wave_path.read_text()))
        c0 = bifurcation_speed(model, 1, 1)
        at_origin = lambda n, l: abs(eval_Omega(model, l, n, c0)) < LAMBDA_TOL
        events = screen(model, wave.c, 10)
        kept = [e.mu for e in events
                if not (at_origin(e.n1, e.l1) and at_origin(e.n2, e.l2))]
        assert len(kept) < len(events)
        spectrum = hill.full_spectrum(
            model, wave, hill.MuGridSpec(count=20, windows=tuple(kept)), 8)
        assert out_path.read_text() == csv_lines(
            ["mu", "re_lambda", "im_lambda"],
            hill.spectrum_to_csv_rows(spectrum))

    def test_modulational_bubbles_link_to_no_event(self, capsys, tmp_path):
        # focusing mKdV has no collision off the origin at c0: its three
        # near-origin bubbles are modulational, and no prediction names them
        out_path = tmp_path / "spec.csv"
        code, _, _ = run(capsys, "spectrum", "--model", "mkdv-focusing",
                         "--amplitude", "0.02", "--M", "32",
                         "--out", str(out_path))
        assert code == 0
        report = json.loads((tmp_path / "spec.csv.bubbles.json").read_text())
        assert len(report["bubbles"]) == 3
        for b in report["bubbles"]:
            assert b["nearest_event"] is None and b["event_distance"] is None

    def test_boussinesq_whitham_window_still_samples_its_narrow_bubble(
            self, capsys, tmp_path):
        # the 1e-4 wide bubble at |Im lambda| 0.4855 is seen at one sample of
        # the window centred on the wave-speed collision; a window centred
        # on the c0 collision would miss it
        out_path = tmp_path / "spec.csv"
        code, _, _ = run(capsys, "spectrum", "--model", "boussinesq-whitham",
                         "--amplitude", "0.01", "--M", "32",
                         "--out", str(out_path))
        assert code == 0
        report = json.loads((tmp_path / "spec.csv.bubbles.json").read_text())
        top = max(report["bubbles"], key=lambda b: b["center_im"])
        assert top["center_im"] == pytest.approx(0.4855, abs=1e-4)
        assert top["mu_support"] == [0.2607998962090069, 0.2607998962090069]

    def test_odd_mu_count_writes_mu_zero_as_0(self, capsys, tmp_path):
        # mu = 0 is its own mirror: one slice, written 0, never -0
        out_path = tmp_path / "spec.csv"
        code, _, _ = run(capsys, "spectrum", "--model", "kdv",
                         "--n-max", "3", "--mu-count", "201", "--M", "4",
                         "--out", str(out_path))
        assert code == 0
        mus = [row.split(",")[0]
               for row in out_path.read_text().splitlines()[1:]]
        assert "-0" not in mus
        assert mus.count("0") == 9

    def test_zero_amplitude_real_parts_are_exact_zeros(self, capsys, tmp_path):
        # two-component spectra at zero amplitude: every re_lambda cell is
        # written as 0, none as -0 or roundoff
        out_path = tmp_path / "spec.csv"
        code, _, _ = run(capsys, "spectrum", "--model", "boussinesq-whitham",
                         "--amplitude", "0", "--M", "8", "--mu-count", "6",
                         "--out", str(out_path))
        assert code == 0
        rows = out_path.read_text().splitlines()[1:]
        assert len(rows) % 34 == 0 and rows
        assert {row.split(",")[1] for row in rows} == {"0"}

    @pytest.mark.parametrize("model, flags", [
        ("boussinesq-whitham", ["--h", "2"]), ("kdv", ["--sigma", "5"])])
    def test_wave_file_that_does_not_solve_the_model_is_refused(
            self, capsys, tmp_path, model, flags):
        # the wave was solved at the default parameters, and the spectrum
        # run changes one: its traveling equation no longer holds
        wave_path = tmp_path / "wave.json"
        assert run(capsys, "wave", "--model", model, "--amplitude", "0.01",
                   "--modes", "32", "--out", str(wave_path))[0] == 0
        out_path = tmp_path / "spec.csv"
        argv = ["spectrum", "--model", model, "--wave", str(wave_path),
                "--n-max", "3", "--mu-count", "4", "--M", "8",
                "--out", str(out_path)]
        assert run(capsys, *argv)[0] == 0
        out_path.unlink()
        code, out, err = run(capsys, *argv, *flags)
        assert (code, out) == (2, "") and not out_path.exists()
        assert "configuration error" in err
        assert f"does not solve {model!r}" in err
        assert "traveling-equation residual is" in err

    @pytest.mark.parametrize("flag, value", [
        ("--amplitude", "0.05"), ("--mean", "0.3"), ("--modes", "40"),
        ("--steps", "4")])
    def test_wave_solve_flags_beside_a_wave_file_are_refused(
            self, capsys, tmp_path, flag, value):
        # they describe a wave solve, which the file replaces; the config
        # file's wave section may be the one the file was solved with
        wave_path = tmp_path / "wave.json"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "kdv", "wave": {
            "amplitude": 0.01, "modes": 32, "steps": 3}}))
        run(capsys, "wave", "--config", str(cfg), "--out", str(wave_path))
        argv = ["spectrum", "--config", str(cfg), "--wave", str(wave_path),
                "--n-max", "3", "--mu-count", "4", "--M", "8"]
        assert run(capsys, *argv)[0] == 0
        code, out, err = run(capsys, *argv, flag, value)
        assert (code, out) == (2, "")
        assert err == ("configuration error: --wave reads a solved wave: "
                       f"drop ['{flag}']\n")

    def test_wave_model_mismatch(self, capsys, tmp_path):
        wave_path = tmp_path / "wave.json"
        run(capsys, "wave", "--model", "whitham", "--amplitude", "0.01",
            "--modes", "32", "--steps", "3", "--out", str(wave_path))
        code, _, err = run(capsys, "spectrum", "--model", "kdv",
                           "--wave", str(wave_path))
        assert code == 2
        assert "whitham" in err

    def test_canonical_model_refused(self, capsys):
        # no finite-amplitude canonical wave: the wave solve refuses it
        code, _, err = run(capsys, "spectrum", "--model", "sine-gordon",
                           "--amplitude", "0.01")
        assert code == 2
        assert "canonical" in err

    def test_canonical_zero_amplitude_spectrum_runs(self, capsys, tmp_path):
        out_path = tmp_path / "spec.csv"
        code, _, _ = run(capsys, "spectrum", "--model", "sine-gordon",
                         "--M", "8", "--mu-count", "6", "--out", str(out_path))
        assert code == 0
        rows = out_path.read_text().splitlines()[1:]
        assert rows and {row.split(",")[1] for row in rows} == {"0"}
        report = json.loads((tmp_path / "spec.csv.bubbles.json").read_text())
        assert report["bubbles"] == []
        assert report["max_re_lambda"] == 0.0
        assert "zero_amplitude_deviation" not in report

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        paths = []
        for tag in ("a", "b"):
            out_path = tmp_path / f"spec_{tag}.csv"
            code, _, _ = run(capsys, "spectrum", "--model", "kdv",
                             "--n-max", "3", "--mu-count", "12", "--M", "8",
                             "--out", str(out_path))
            assert code == 0
            paths.append(out_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestCurves:
    def test_scalar_curves(self, capsys):
        code, out, _ = run(capsys, "curves", "--model", "gkdv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "l,n,k,Omega"
        assert len(lines) == 1 + 7 * 201

    def test_refuses_what_analyze_refuses(self, capsys, tmp_path):
        # the branch is finite on the plotted |k| <= 3.5 but not on the
        # dispersion check's grid: curves checks the model as analyze does
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": {
            "kind": "noncanonical-bw", "omega1": "k*sqrt(1+0.1*k)",
            "c_squared": "1+0.1*k"}}))
        results = {run(capsys, command, "--config", str(cfg),
                       "--out", str(tmp_path / command))
                   for command in ("analyze", "curves")}
        assert results == {(2, "", "configuration error: model 'custom-bw': "
                                   "omega_1(-25.0) is not finite\n")}
        assert not list(tmp_path.glob("curves*"))

    def test_water_waves_depth_trace(self, capsys, tmp_path):
        out_path = tmp_path / "curves.csv"
        code, _, _ = run(capsys, "curves", "--model", "water-waves",
                         "--n-max", "3", "--out", str(out_path))
        assert code == 0
        depth = (tmp_path / "curves.csv.depth.csv").read_text().splitlines()
        assert depth[0] == "h,im_lambda"
        last = float(depth[-1].split(",")[1])
        assert abs(last - 0.75) < 1e-2
