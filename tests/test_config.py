"""Scenario loading: strict schema, presets, resolved-echo round trips."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from nbfsir import (
    PRESET_NAMES,
    config_from_dict,
    load_config,
    preset,
    with_overrides,
)
from nbfsir.config import AnalysisOptions
from nbfsir.errors import ConfigurationError, ModelValidityError, UsageError


def _minimal(n: int = 2, **extra) -> dict:
    cfg = {
        "model": {
            "n": n,
            "gamma": 1.0,
            "interaction": {"kind": "constant",
                            "matrix": [[1.0] * n for _ in range(n)]},
        },
    }
    cfg.update(extra)
    return cfg


class TestStrictSchema:
    def test_minimal_config_fills_defaults(self):
        cfg = config_from_dict(_minimal())
        assert cfg.n == 2
        assert cfg.gamma == 1.0
        assert cfg.initial is None
        assert cfg.integrator.rel_tol == 1e-8
        assert cfg.analysis.grid_resolution == 201

    def test_unknown_top_level_section(self):
        with pytest.raises(ConfigurationError, match="unknown field.*config"):
            config_from_dict(_minimal(extra_section={}))

    def test_missing_model(self):
        with pytest.raises(ConfigurationError, match="missing field.*model"):
            config_from_dict({"initial": {"x": [1.0], "y": [0.0]}})

    def test_unknown_model_field(self):
        bad = _minimal()
        bad["model"]["beta"] = 2.0
        with pytest.raises(ConfigurationError, match=r"model.*beta"):
            config_from_dict(bad)

    def test_missing_model_fields_are_named(self):
        with pytest.raises(ConfigurationError,
                           match=r"missing.*\['gamma', 'interaction', 'n'\]"):
            config_from_dict({"model": {}})

    def test_gamma_must_be_positive_finite(self):
        for gamma in (0.0, -1.0, float("inf"), float("nan")):
            bad = _minimal()
            bad["model"]["gamma"] = gamma
            with pytest.raises(ConfigurationError, match="gamma"):
                config_from_dict(bad)

    def test_n_must_be_a_positive_integer(self):
        for n in (0, -2, 1.5):
            bad = _minimal()
            bad["model"]["n"] = n
            with pytest.raises(ConfigurationError, match="model.n"):
                config_from_dict(bad)

    def test_booleans_are_not_numbers(self):
        bad = _minimal()
        bad["model"]["gamma"] = True
        with pytest.raises(ConfigurationError, match="gamma"):
            config_from_dict(bad)
        bad = _minimal()
        bad["model"]["n"] = True
        with pytest.raises(ConfigurationError, match="model.n"):
            config_from_dict(bad)

    def test_initial_vector_lengths_match_n(self):
        bad = _minimal(initial={"x": [0.5, 0.5, 0.5], "y": [0.1, 0.1]})
        with pytest.raises(ConfigurationError, match=r"initial.x.*length n=2"):
            config_from_dict(bad)

    def test_initial_must_be_feasible(self):
        bad = _minimal(initial={"x": [0.9, 0.9], "y": [0.3, 0.05]})
        with pytest.raises(ModelValidityError, match="feasible"):
            config_from_dict(bad)

    def test_initial_entries_must_be_numbers(self):
        bad = _minimal(initial={"x": [0.5, "a"], "y": [0.1, 0.1]})
        with pytest.raises(ConfigurationError, match=r"initial.x\[1\]"):
            config_from_dict(bad)

    def test_unknown_integrator_field(self):
        bad = _minimal(integrator={"reltol": 1e-6})
        with pytest.raises(ConfigurationError, match="integrator.*reltol"):
            config_from_dict(bad)

    def test_integrator_values_flow_through(self):
        cfg = config_from_dict(_minimal(integrator={"rel_tol": 1e-6,
                                                    "t_max": 12.5}))
        assert cfg.integrator.rel_tol == 1e-6
        assert cfg.integrator.t_max == 12.5

    def test_unknown_analysis_field(self):
        bad = _minimal(analysis={"resolution": 51})
        with pytest.raises(ConfigurationError, match="analysis.*resolution"):
            config_from_dict(bad)

    def test_analysis_validation(self):
        with pytest.raises(ConfigurationError, match="grid_resolution"):
            AnalysisOptions(grid_resolution=1)
        # the region scan's lower bound, so a config cannot load and then
        # fail in `nbfsir region`
        with pytest.raises(ConfigurationError, match="grid_resolution.*>= 11"):
            AnalysisOptions(grid_resolution=10)
        with pytest.raises(ConfigurationError, match="tie_tol"):
            AnalysisOptions(tie_tol=0.0)
        with pytest.raises(ConfigurationError, match="marginal_band"):
            AnalysisOptions(marginal_band=-1e-9)
        with pytest.raises(ConfigurationError, match="trials"):
            AnalysisOptions(trials=-1)
        with pytest.raises(ConfigurationError, match="analysis.seed"):
            AnalysisOptions(seed=-1)
        with pytest.raises(ConfigurationError, match="analysis.seed"):
            config_from_dict(_minimal(analysis={"trials": 3, "seed": -5}))
        with pytest.raises(ConfigurationError, match="x_star"):
            AnalysisOptions(x_star=(0.5, 1.5))

    def test_interaction_nonnegativity_is_sampled_at_load(self):
        bad = _minimal()
        bad["model"]["interaction"] = {"kind": "rank1_local", "n": 2,
                                       "g": "1 - 2*u", "f": "1"}
        with pytest.raises(Exception, match="at x="):
            config_from_dict(bad)

    def test_section_must_be_an_object(self):
        with pytest.raises(ConfigurationError, match="model must be an object"):
            config_from_dict({"model": [1, 2, 3]})

    @pytest.mark.parametrize("n, interaction", [
        (2, {"kind": "rank1_local", "f": "1",
             "g": {"form": "affine", "p": "one", "q": 0.5}}),
        (2, {"kind": "outer_product", "scale": "big"}),
        (2, {"kind": "constant", "matrix": [[1.0, 1.0], [1.0]]}),
        (2, {"kind": "scalar_scaled", "numerator": "2 - u", "denominator": 2}),
        (2, {"kind": "expression_matrix", "entries": [["1", 2], ["1", "1"]]}),
        (2, {"kind": "outer_product", "scale": 0.8, "n": 2.5}),
        (1, {"kind": "outer_product", "scale": 0.8, "n": True}),
        (2, {"kind": "outer_product", "scale": True}),
        (2, {"kind": "outer_product", "scale": 0.8, "n": "2"}),
        (2, {"kind": "rank1_local", "n": 3, "g": ["1", "1"], "f": ["1", "1"]}),
    ], ids=["string_coefficient", "string_scale", "ragged_matrix",
            "numeric_denominator", "numeric_entry", "fractional_n", "bool_n",
            "bool_scale", "string_n", "n_unlike_the_lists"])
    def test_malformed_interaction_is_a_configuration_error(self, n, interaction):
        bad = _minimal(n)
        bad["model"]["interaction"] = interaction
        with pytest.raises(ConfigurationError, match="interaction"):
            config_from_dict(bad)

    @pytest.mark.parametrize("section", [
        {"integrator": {"rel_tol": None}},
        {"integrator": {"t_max": "10"}},
        {"analysis": {"seed": 1.5}},
        {"analysis": {"trials": True}},
        {"analysis": {"x_star": [0.5]}},
    ], ids=["null_rel_tol", "string_t_max", "fractional_seed", "bool_trials",
            "short_x_star"])
    def test_option_values_are_strict(self, section):
        name = next(iter(section))
        field = next(iter(section[name]))
        with pytest.raises(ConfigurationError, match=f"{name}.{field}"):
            config_from_dict(_minimal(**section))

    def test_null_keeps_a_none_default(self):
        cfg = config_from_dict(_minimal(integrator={"t_max": None},
                                        analysis={"x_star": None}))
        assert cfg.integrator.t_max is None
        assert cfg.analysis.x_star is None
        assert "x_star" not in cfg.as_dict()["analysis"]


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESET_NAMES))
    def test_every_preset_loads(self, name):
        cfg = preset(name)
        assert cfg.initial is not None
        assert cfg.gamma == 1.0
        assert cfg.params().n == cfg.n

    def test_preset_contents(self):
        cfg = preset("example2b")
        assert np.array_equal(cfg.interaction.matrix,
                              [[1.0, 2.0], [1.0, 2.0]])
        assert np.array_equal(cfg.initial.x, [0.9, 0.9])
        assert np.array_equal(cfg.initial.y, [0.05, 0.05])
        cfg5 = preset("example5")
        assert cfg5.n == 5
        assert cfg5.analysis.budget == 10000
        assert cfg5.analysis.seed == 7

    def test_unknown_preset_lists_the_choices(self):
        with pytest.raises(ConfigurationError, match="example2a"):
            preset("exampleZZ")


class TestLoadConfig:
    def test_loading_a_preset_imports_no_scipy(self):
        # validation draws its quasi-random states with numpy alone
        code = ("import sys, nbfsir; nbfsir.load_config('example3'); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_loading_a_preset_imports_no_multiprocessing(self):
        # only a screen of more than one block on more than one core needs it
        code = ("import sys, nbfsir; nbfsir.load_config('example3'); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in "
                "('multiprocessing', 'concurrent')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_accepts_dict_preset_and_path(self, tmp_path):
        from_dict = load_config(_minimal())
        assert from_dict.n == 2
        from_preset = load_config("example3")
        assert from_preset.interaction.kind == "rank1_local"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_minimal(n=3)))
        from_path = load_config(str(path))
        assert from_path.n == 3

    def test_missing_file(self):
        with pytest.raises(ConfigurationError, match="neither a preset"):
            load_config("no_such_scenario.json")

    def test_malformed_json_reports_the_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"model": {\n  "n": 2,,\n}}')
        with pytest.raises(ConfigurationError, match="line 2, column"):
            load_config(str(path))

    def test_resolved_echo_round_trips(self):
        for name in sorted(PRESET_NAMES):
            cfg = preset(name)
            again = config_from_dict(cfg.as_dict())
            assert again.as_dict() == cfg.as_dict()

    def test_round_trip_preserves_custom_settings(self):
        cfg = config_from_dict(_minimal(
            initial={"x": [0.8, 0.7], "y": [0.1, 0.2]},
            integrator={"rel_tol": 1e-7, "max_step": 0.25},
            analysis={"grid_resolution": 51, "seed": 12,
                      "x_star": [0.4, 0.6]}))
        again = config_from_dict(cfg.as_dict())
        assert again.as_dict() == cfg.as_dict()
        assert again.analysis.x_star == (0.4, 0.6)
        assert again.integrator.max_step == 0.25


class TestOverrides:
    def test_overrides_replace_only_what_was_given(self):
        cfg = preset("example2a")
        out = with_overrides(cfg, grid_resolution=51)
        assert out.analysis.grid_resolution == 51
        assert out.analysis.seed == cfg.analysis.seed
        assert out.interaction is cfg.interaction

    def test_no_overrides_returns_the_same_object(self):
        cfg = preset("example2a")
        assert with_overrides(cfg) is cfg

    def test_require_initial(self):
        cfg = config_from_dict(_minimal())
        with pytest.raises(UsageError, match="initial"):
            cfg.require_initial()
