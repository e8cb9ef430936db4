"""End-to-end command-line runs in subprocesses: files, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from nbfsir import __version__, cli


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "nbfsir.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=180)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestBasicInvocation:
    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == __version__

    def test_unknown_subcommand(self, tmp_path):
        proc = run_cli("frobnicate", "--config", "example3", "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "UsageError"

    def test_missing_required_argument(self):
        proc = run_cli("simulate", "--config", "example3")
        assert proc.returncode == 2


class TestSimulate:
    def test_writes_the_expected_files(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("simulate", "--config", "example3", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        names = {p.name for p in out.iterdir()}
        assert names == {"trajectory.csv", "summary.json",
                         "config_resolved.json", "metadata.json"}
        summary = read_json(out / "summary.json")
        assert summary["terminal"] == "converged"
        assert summary["samples"] > 10
        assert summary["x_star"] is not None
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,x_1,x_2,y_1,y_2,ybar"

    def test_reruns_are_byte_identical_except_metadata(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", "example3",
                       "--out", str(out1)).returncode == 0
        assert run_cli("simulate", "--config", "example3",
                       "--out", str(out2)).returncode == 0
        for name in ("trajectory.csv", "summary.json", "config_resolved.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        meta1 = read_json(out1 / "metadata.json")
        meta2 = read_json(out2 / "metadata.json")
        assert meta1["command"] == meta2["command"] == "simulate"
        assert meta1["version"] == __version__
        assert meta1["timing"]["total_s"] > 0

    def test_json_format(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("simulate", "--config", "example3", "--out", str(out),
                       "--format", "json")
        assert proc.returncode == 0, proc.stderr
        doc = read_json(out / "trajectory.json")
        assert doc["terminal"] == "converged"
        assert len(doc["times"]) == len(doc["y"])

    def test_resolved_config_replays_identically(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", "example3",
                       "--out", str(out1)).returncode == 0
        proc = run_cli("simulate",
                       "--config", str(out1 / "config_resolved.json"),
                       "--out", str(out2))
        assert proc.returncode == 0, proc.stderr
        assert ((out1 / "trajectory.csv").read_bytes()
                == (out2 / "trajectory.csv").read_bytes())

    def test_missing_initial_section_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"n": 2, "gamma": 1.0,
                      "interaction": {"kind": "constant",
                                      "matrix": [[1.0, 1.0], [1.0, 1.0]]}}}))
        out = tmp_path / "run"
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        diag = json.loads(proc.stderr)
        assert diag["error"] == "UsageError"
        assert "initial" in diag["message"]
        assert read_json(out / "error.json") == diag


class TestStability:
    def test_pinned_equilibrium(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"n": 2, "gamma": 1.0,
                      "interaction": {"kind": "constant",
                                      "matrix": [[1.5, 1.5], [1.5, 1.5]]}},
            "analysis": {"x_star": [0.5, 0.5]}}))
        out = tmp_path / "run"
        proc = run_cli("stability", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        doc = read_json(out / "stability.json")
        assert doc["x_star"] == [0.5, 0.5]
        assert doc["lambda_max"] == pytest.approx(1.5, abs=1e-9)
        assert doc["classification"] == "U"
        assert doc["label"] == "Unstable"
        assert doc["irreducible"] is True
        assert sum(doc["perron_vector"]) == pytest.approx(1.0, abs=1e-9)

    def test_equilibrium_from_the_trajectory_limit(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("stability", "--config", "example3", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        doc = read_json(out / "stability.json")
        assert doc["classification"] == "S"
        assert doc["lambda_max"] < 1.0


class TestRegion:
    def test_grid_override_and_svg(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("region", "--config", "example2c", "--out", str(out),
                       "--grid", "51", "--svg")
        assert proc.returncode == 0, proc.stderr
        doc = read_json(out / "region.json")
        assert doc["resolution"] == 51
        assert len(doc["classes"]) == 51 * 51
        assert doc["boundary"]
        svg = (out / "region.svg").read_text()
        assert svg.startswith("<svg")
        resolved = read_json(out / "config_resolved.json")
        assert resolved["analysis"]["grid_resolution"] == 51


class TestTransient:
    def test_curve_and_report(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("transient", "--config", "example3", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        report = read_json(out / "transient.json")
        assert report["shape"] == "Unimodal"
        assert report["n_maxima"] == 1
        assert report["peak_time"] > 0
        lines = (out / "aggregate.csv").read_text().splitlines()
        assert lines[0] == "t,ybar"
        assert "verification" not in report
        assert "search" not in report

    def test_verification_and_search_sections(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"n": 2, "gamma": 1.0,
                      "interaction": {"kind": "rank1_local", "n": 2,
                                      "g": "1 + u",
                                      "f": "1 / (1 + 1.5 * u)"}},
            "initial": {"x": [0.9, 0.9], "y": [0.05, 0.05]},
            "analysis": {"trials": 3, "budget": 20, "seed": 1}}))
        out = tmp_path / "run"
        proc = run_cli("transient", "--config", str(cfg), "--out", str(out),
                       "--format", "json")
        assert proc.returncode == 0, proc.stderr
        assert (out / "aggregate.json").is_file()
        report = read_json(out / "transient.json")
        assert report["verification"]["all_unimodal"] is True
        assert report["verification"]["trials"] == 3
        assert report["search"]["budget"] == 20
        assert report["search"]["n_maxima"] <= 1


    def test_one_node_search(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"n": 1, "gamma": 1.0,
                      "interaction": {"kind": "rank1_local", "n": 1,
                                      "g": "1 + u",
                                      "f": "1 / (1 + 1.5 * u)"}},
            "initial": {"x": [0.9], "y": [0.05]},
            "analysis": {"trials": 5, "budget": 5, "seed": 1}}))
        out = tmp_path / "run"
        assert cli.main(["transient", "--config", str(cfg),
                         "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = read_json(out / "transient.json")
        # both samplers draw at n = 1: the verification's and the search's
        assert report["verification"]["trials"] == 5
        assert report["verification"]["all_unimodal"] is True
        assert report["search"]["budget"] == 5
        assert len(report["search"]["best_ic"]["x"]) == 1

class TestCheck:
    def test_saturating_feedback_passes_all_checks(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("check", "--config", "example3", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        doc = read_json(out / "check.json")
        assert doc["monotonicity"]["holds"] is True
        assert doc["monotonicity"]["violations"] == []
        assert doc["unimodality_hypotheses"]["holds"] is True

    def test_fatigue_kernel_fails_the_positivity_hypothesis(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("check", "--config", "example5", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        doc = read_json(out / "check.json")
        assert doc["unimodality_hypotheses"]["holds"] is False
        failures = {f["hypothesis"]
                    for f in doc["unimodality_hypotheses"]["failures"]}
        assert "g_positive" in failures

    def test_unfactored_interaction_reports_no_hypotheses(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("check", "--config", "example2a", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        doc = read_json(out / "check.json")
        assert doc["unimodality_hypotheses"] is None


class TestFailureModes:
    @pytest.mark.parametrize("interaction, where", [
        ({"kind": "rank1_local", "n": 1, "g": "+".join(["u"] * 1000), "f": "1"},
         "interaction.g"),
        ({"kind": "rank1_local", "g": ["1 + u", "1 +"], "f": "1"}, "interaction.g[1]"),
        ({"kind": "scalar_scaled", "numerator": ["1", "u)"], "denominator": "1"},
         "interaction.numerator[1]"),
        ({"kind": "scalar_scaled", "numerator": "1", "n": 2, "denominator": "1 + y3"},
         "interaction.denominator"),
        ({"kind": "expression_matrix", "entries": [["1", "2"], ["x1 *", "1"]]},
         "interaction.entries[1][0]"),
    ])
    def test_a_syntax_error_names_its_field(self, tmp_path, capsys, interaction, where):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"n": interaction.get("n", 2), "gamma": 1.0,
                                             "interaction": interaction}}))
        status = cli.main(["check", "--config", str(cfg), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert status == 2
        assert len(err.splitlines()) == 1
        diag = json.loads(err)
        assert diag["error"] == "ExpressionSyntaxError"
        assert diag["message"].startswith(f"{where}: ")
        assert "(offset " in diag["message"]

    def test_missing_config_file(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("simulate", "--config", "nowhere.json",
                       "--out", str(out))
        assert proc.returncode == 2
        diag = json.loads(proc.stderr)
        assert diag["error"] == "ConfigurationError"
        assert diag["exit_status"] == 2
        assert read_json(out / "error.json") == diag

    def test_malformed_json_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        proc = run_cli("simulate", "--config", str(cfg),
                       "--out", str(tmp_path / "run"))
        assert proc.returncode == 2
        assert "line 1" in json.loads(proc.stderr)["message"]

    def test_unknown_field_in_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"n": 2, "gamma": 1.0, "R0": 3.0,
                      "interaction": {"kind": "constant",
                                      "matrix": [[1.0, 1.0], [1.0, 1.0]]}}}))
        proc = run_cli("simulate", "--config", str(cfg),
                       "--out", str(tmp_path / "run"))
        assert proc.returncode == 2
        assert "R0" in json.loads(proc.stderr)["message"]

    def test_malformed_interaction_is_a_configuration_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"n": 2, "gamma": 1.0,
                      "interaction": {"kind": "scalar_scaled",
                                      "numerator": "2 - u", "denominator": 2}}}))
        out = tmp_path / "run"
        proc = run_cli("check", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        diag = json.loads(proc.stderr)
        assert diag["error"] == "ConfigurationError"
        assert "interaction.denominator" in diag["message"]
        assert read_json(out / "error.json") == diag

    def test_over_deep_expression_is_a_configuration_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"n": 1, "gamma": 1.0,
                      "interaction": {"kind": "rank1_local", "n": 1,
                                      "g": "+".join(["u"] * 1000), "f": "1"}}}))
        out = tmp_path / "run"
        proc = run_cli("check", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        diag = json.loads(proc.stderr)
        assert diag["error"] == "ExpressionSyntaxError"
        assert "nested too deeply" in diag["message"]
        assert read_json(out / "error.json") == diag

    def test_non_finite_coefficient_is_a_configuration_error(self, tmp_path):
        # Python's json reads NaN; t_max: Infinity stays a valid horizon
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"model": {"n": 3, "gamma": 1.0, "interaction": {"kind": '
            '"outer_product", "n": 3, "scale": NaN}}, "initial": {"x": '
            '[0.9, 0.9, 0.9], "y": [0.05, 0.05, 0.05]}, '
            '"integrator": {"t_max": Infinity}}')
        out = tmp_path / "run"
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        diag = json.loads(proc.stderr)
        assert diag["error"] == "ConfigurationError"
        assert "outer-product form needs finite" in diag["message"]
        assert read_json(out / "error.json") == diag

    @pytest.mark.parametrize("source", ["override", "config"])
    def test_negative_seed_is_a_configuration_error(self, tmp_path, source):
        if source == "override":
            args = ("transient", "--config", "example5", "--seed", "-1")
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({
                "model": {"n": 2, "gamma": 1.0,
                          "interaction": {"kind": "outer_product", "n": 2,
                                          "scale": 1.0}},
                "initial": {"x": [0.9, 0.9], "y": [0.05, 0.05]},
                "analysis": {"trials": 3, "seed": -5}}))
            args = ("transient", "--config", str(cfg))
        out = tmp_path / "run"
        proc = run_cli(*args, "--out", str(out))
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        diag = json.loads(proc.stderr)
        assert diag["error"] == "ConfigurationError"
        assert "analysis.seed" in diag["message"]
        assert read_json(out / "error.json") == diag

    def test_format_is_only_for_tabular_outputs(self, tmp_path):
        proc = run_cli("region", "--config", "example2a", "--format", "json",
                       "--out", str(tmp_path / "run"))
        assert proc.returncode == 2
        assert "--format" in proc.stderr

    def test_an_argument_error_is_one_json_line(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("check", "--config", "example3", "--out", str(out),
                       "--grid", "abc")
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert json.loads(proc.stderr) == {
            "error": "UsageError", "exit_status": 2,
            "message": "nbfsir check: argument --grid: invalid int value: 'abc'"}
        # no output directory is known yet, so none is made
        assert not out.exists()

    def test_grid_below_the_region_bound_is_a_configuration_error(self, tmp_path):
        proc = run_cli("simulate", "--config", "example2a", "--grid", "10",
                       "--out", str(tmp_path / "run"))
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        diag = json.loads(proc.stderr)
        assert diag["error"] == "ConfigurationError"
        assert "analysis.grid_resolution" in diag["message"]

    def test_negative_interaction_is_a_model_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"n": 2, "gamma": 1.0,
                      "interaction": {"kind": "rank1_local", "n": 2,
                                      "g": "1", "f": "u - 2"}},
            "initial": {"x": [0.9, 0.9], "y": [0.05, 0.05]}}))
        out = tmp_path / "run"
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 1
        diag = json.loads(proc.stderr)
        assert diag["error"] == "ModelValidityError"
        assert diag["exit_status"] == 1
        assert (out / "error.json").is_file()

    def test_non_finite_spectral_input_is_a_numerical_error(self, tmp_path):
        # exp(1000 x) overflows to inf, so diag(x*) A(x*, 0) has no
        # Perron root; the failure is one line of JSON, exit status 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"n": 2, "gamma": 1.0,
                      "interaction": {"kind": "rank1_local", "n": 2,
                                      "g": "exp(1000*u)", "f": "1"}},
            "analysis": {"x_star": [0.9, 0.9]}}))
        out = tmp_path / "run"
        proc = run_cli("stability", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        diag = json.loads(proc.stderr)
        assert diag["error"] == "NumericalError"
        assert "non-finite" in diag["message"]
        assert read_json(out / "error.json") == diag
