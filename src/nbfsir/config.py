"""Scenario configuration: strict schema validation, defaults, presets.

A scenario is one JSON object with up to four sections:

    {
      "model":      {"n": 2, "gamma": 1.0, "interaction": {...}},
      "initial":    {"x": [...], "y": [...]},            (optional)
      "integrator": {"rel_tol": 1e-8, ...},              (optional)
      "analysis":   {"grid_resolution": 201, ...}        (optional)
    }

Unknown fields are rejected at every level so a typo cannot silently
fall back to a default.  Loading validates the interaction's
nonnegativity by sampling, and the fully resolved configuration
round-trips: feeding the echo back through the loader reproduces the
identical scenario.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import EpidemicState, ModelParams
from .errors import ConfigurationError, UsageError
from .integrate import IntegratorOptions
from .interaction import InteractionSpec, interaction_from_config
from .stability import _MIN_RESOLUTION

__all__ = [
    "AnalysisOptions",
    "ScenarioConfig",
    "PRESET_NAMES",
    "preset",
    "config_from_dict",
    "load_config",
    "with_overrides",
]


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs for the stability, region, and transient analyses."""

    grid_resolution: int = 201
    boundary_tol: float = 1e-9
    tie_tol: float = 1e-6
    marginal_band: float = 1e-9
    noise_tol: float = 1e-6
    trials: int = 0
    seed: int = 0
    budget: int = 0
    x_star: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.grid_resolution < _MIN_RESOLUTION:
            raise ConfigurationError(
                f"analysis.grid_resolution must be >= {_MIN_RESOLUTION}, "
                f"got {self.grid_resolution}")
        for name in ("boundary_tol", "tie_tol", "noise_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigurationError(
                    f"analysis.{name} must be positive, got {value}")
        if self.marginal_band < 0 or not np.isfinite(self.marginal_band):
            raise ConfigurationError(
                f"analysis.marginal_band must be >= 0, got {self.marginal_band}")
        for name in ("trials", "budget"):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"analysis.{name} must be >= 0, got {getattr(self, name)}")
        if self.x_star is not None:
            object.__setattr__(self, "x_star", tuple(float(v) for v in self.x_star))
            if any(not (0.0 <= v <= 1.0) for v in self.x_star):
                raise ConfigurationError(
                    f"analysis.x_star components must lie in [0,1], got {self.x_star}")


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    n: int
    gamma: float
    interaction: InteractionSpec
    initial: EpidemicState | None
    integrator: IntegratorOptions = field(default_factory=IntegratorOptions)
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)

    def params(self) -> ModelParams:
        return ModelParams(gamma=self.gamma, interaction=self.interaction)

    def require_initial(self) -> EpidemicState:
        if self.initial is None:
            raise UsageError(
                "this command needs an 'initial' section in the config")
        return self.initial

    def as_dict(self) -> dict:
        """Fully resolved echo; load_config(as_dict()) reproduces self."""
        out: dict = {
            "model": {
                "n": self.n,
                "gamma": self.gamma,
                "interaction": self.interaction.to_config(),
            },
            "integrator": {
                "rel_tol": self.integrator.rel_tol,
                "abs_tol": self.integrator.abs_tol,
                "max_step": self.integrator.max_step,
                "clamp_eps": self.integrator.clamp_eps,
                "y_converged_threshold": self.integrator.y_converged_threshold,
                "t_max": self.integrator.t_max,
            },
            "analysis": {
                "grid_resolution": self.analysis.grid_resolution,
                "boundary_tol": self.analysis.boundary_tol,
                "tie_tol": self.analysis.tie_tol,
                "marginal_band": self.analysis.marginal_band,
                "noise_tol": self.analysis.noise_tol,
                "trials": self.analysis.trials,
                "seed": self.analysis.seed,
                "budget": self.analysis.budget,
            },
        }
        if self.analysis.x_star is not None:
            out["analysis"]["x_star"] = list(self.analysis.x_star)
        if self.initial is not None:
            out["initial"] = {"x": self.initial.x.tolist(),
                              "y": self.initial.y.tolist()}
        return out


# ---------------------------------------------------------------------------
# strict parsing helpers
# ---------------------------------------------------------------------------

def _check_fields(obj: dict, where: str, allowed: set[str],
                  required: set[str] = frozenset()) -> None:
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where} must be an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown field(s) in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigurationError(
            f"missing field(s) in {where}: {sorted(missing)}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{where} must be an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ConfigurationError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{where} must be a number, got {value!r}")
    return float(value)


def _as_vector(value, n: int, where: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{where} must be an array, got {type(value).__name__}")
    if len(value) != n:
        raise ConfigurationError(
            f"{where} must have length n={n}, got {len(value)}")
    return np.array([_as_float(v, f"{where}[{k}]") for k, v in enumerate(value)])


_INTEGRATOR_FIELDS = {"rel_tol", "abs_tol", "max_step", "clamp_eps",
                      "y_converged_threshold", "t_max"}
_ANALYSIS_FIELDS = {"grid_resolution", "boundary_tol", "tie_tol",
                    "marginal_band", "noise_tol", "trials", "seed",
                    "budget", "x_star"}


def config_from_dict(obj: dict) -> ScenarioConfig:
    """Validate a parsed scenario object and fill every default."""
    _check_fields(obj, "config", {"model", "initial", "integrator", "analysis"},
                  {"model"})
    model = obj["model"]
    _check_fields(model, "model", {"n", "gamma", "interaction"},
                  {"n", "gamma", "interaction"})
    n = _as_int(model["n"], "model.n")
    if n < 1:
        raise ConfigurationError(f"model.n must be >= 1, got {n}")
    gamma = _as_float(model["gamma"], "model.gamma")
    if not (np.isfinite(gamma) and gamma > 0):
        raise ConfigurationError(f"model.gamma must be positive, got {gamma}")
    spec = interaction_from_config(model["interaction"], n)
    spec.validate()

    initial = None
    if "initial" in obj:
        section = obj["initial"]
        _check_fields(section, "initial", {"x", "y"}, {"x", "y"})
        initial = EpidemicState(_as_vector(section["x"], n, "initial.x"),
                                _as_vector(section["y"], n, "initial.y"))

    integ_kwargs = {}
    if "integrator" in obj:
        section = obj["integrator"]
        _check_fields(section, "integrator", _INTEGRATOR_FIELDS)
        for name in _INTEGRATOR_FIELDS:
            if name in section:
                value = section[name]
                if name == "t_max" and value is None:
                    integ_kwargs[name] = None
                else:
                    integ_kwargs[name] = _as_float(value, f"integrator.{name}")
    integrator = IntegratorOptions(**integ_kwargs)

    analysis_kwargs = {}
    if "analysis" in obj:
        section = obj["analysis"]
        _check_fields(section, "analysis", _ANALYSIS_FIELDS)
        for name in ("grid_resolution", "trials", "seed", "budget"):
            if name in section:
                analysis_kwargs[name] = _as_int(section[name], f"analysis.{name}")
        for name in ("boundary_tol", "tie_tol", "marginal_band", "noise_tol"):
            if name in section:
                analysis_kwargs[name] = _as_float(section[name], f"analysis.{name}")
        if "x_star" in section and section["x_star"] is not None:
            analysis_kwargs["x_star"] = tuple(
                _as_vector(section["x_star"], n, "analysis.x_star").tolist())
    analysis = AnalysisOptions(**analysis_kwargs)

    return ScenarioConfig(n=n, gamma=gamma, interaction=spec,
                          initial=initial, integrator=integrator,
                          analysis=analysis)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _constant_two_node(matrix: list[list[float]]) -> dict:
    return {
        "model": {"n": 2, "gamma": 1.0,
                  "interaction": {"kind": "constant", "matrix": matrix}},
        "initial": {"x": [0.9, 0.9], "y": [0.05, 0.05]},
    }


def _preset_dict(name: str) -> dict:
    if name == "example2a":
        return _constant_two_node([[1.5, 1.5], [1.5, 1.5]])
    if name == "example2b":
        return _constant_two_node([[1.0, 2.0], [1.0, 2.0]])
    if name == "example2c":
        return _constant_two_node([[3.0, 2.0], [1.0, 2.0]])
    if name == "example2d":
        return _constant_two_node([[1.0, 2.0], [3.0, 2.0]])
    if name == "example3":
        return {
            "model": {"n": 2, "gamma": 1.0,
                      "interaction": {"kind": "rank1_local", "n": 2,
                                      "g": "1 + u",
                                      "f": "1 / (1 + 1.5 * u)"}},
            "initial": {"x": [0.9, 0.9], "y": [0.05, 0.05]},
        }
    if name == "example4":
        return {
            "model": {"n": 2, "gamma": 1.0,
                      "interaction": {"kind": "scalar_scaled", "n": 2,
                                      "numerator": "2 - u",
                                      "denominator": "1 + y1 + y2"}},
            "initial": {"x": [0.9, 0.9], "y": [0.05, 0.05]},
        }
    if name == "example5":
        return {
            "model": {"n": 5, "gamma": 1.0,
                      "interaction": {"kind": "outer_product",
                                      "scale": 0.8, "n": 5}},
            "initial": {"x": [0.9] * 5, "y": [0.05] * 5},
            "analysis": {"budget": 10000, "seed": 7},
        }
    raise ConfigurationError(
        f"unknown preset {name!r}; available: {sorted(PRESET_NAMES)}")


PRESET_NAMES = frozenset({
    "example2a", "example2b", "example2c", "example2d",
    "example3", "example4", "example5",
})


def preset(name: str) -> ScenarioConfig:
    """Built-in scenario by name, routed through the normal loader."""
    return config_from_dict(_preset_dict(name))


def load_config(source) -> ScenarioConfig:
    """Load a scenario from a preset name, a JSON file path, or a dict."""
    if isinstance(source, dict):
        return config_from_dict(source)
    if isinstance(source, str) and source in PRESET_NAMES:
        return preset(source)
    path = Path(source)
    if not path.is_file():
        raise ConfigurationError(
            f"config {str(source)!r} is neither a preset name nor a file")
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config {path} is not valid JSON: {exc.msg} at line {exc.lineno}, "
            f"column {exc.colno}") from exc
    return config_from_dict(obj)


def with_overrides(config: ScenarioConfig, *, grid_resolution: int | None = None,
                   seed: int | None = None) -> ScenarioConfig:
    """Apply command-line overrides onto a loaded scenario."""
    analysis = config.analysis
    if grid_resolution is not None:
        analysis = replace(analysis, grid_resolution=grid_resolution)
    if seed is not None:
        analysis = replace(analysis, seed=seed)
    if analysis is config.analysis:
        return config
    return replace(config, analysis=analysis)
