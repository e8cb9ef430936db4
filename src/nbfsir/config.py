"""Scenario configuration: strict schema validation, defaults, presets.

A scenario is one JSON object with up to four sections:

    {
      "model":      {"n": 2, "gamma": 1.0, "interaction": {...}},
      "initial":    {"x": [...], "y": [...]},            (optional)
      "integrator": {"rel_tol": 1e-8, ...},              (optional)
      "analysis":   {"grid_resolution": 201, ...}        (optional)
    }

Unknown fields are rejected at every level so a typo cannot silently
fall back to a default, and numbers are strict in every section: a
boolean or a string is not a number, and an integer must be whole.  The
integrator and analysis sections are read by their options dataclasses,
which name each field ``<section>.<field>``.  Loading validates the
interaction's nonnegativity by sampling, and the fully resolved
configuration round-trips: feeding the echo back through the loader reproduces the
identical scenario.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .core import EpidemicState, ModelParams
from .errors import ConfigurationError, UsageError
from .integrate import IntegratorOptions
from .interaction import (_MAX_SIDE, InteractionSpec, _as_float, _as_int,
                          _check_fields, interaction_from_config)
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
        # (field, reader, lower bound[, bound excluded])
        for name, read, *bound in (
                ("grid_resolution", partial(_as_int, high=_MAX_SIDE), _MIN_RESOLUTION),
                ("boundary_tol", _as_float, 0, True), ("tie_tol", _as_float, 0, True),
                ("marginal_band", _as_float, 0), ("noise_tol", _as_float, 0, True),
                ("trials", _as_int, 0), ("seed", _as_int, 0), ("budget", _as_int, 0)):
            object.__setattr__(self, name, read(getattr(self, name),
                                                f"analysis.{name}", *bound))
        if self.x_star is not None:
            object.__setattr__(self, "x_star", tuple(
                _as_float(v, f"analysis.x_star[{k}]") for k, v in enumerate(self.x_star)))
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
            "integrator": asdict(self.integrator),
            "analysis": asdict(self.analysis),
        }
        if self.analysis.x_star is None:
            del out["analysis"]["x_star"]
        if self.initial is not None:
            out["initial"] = {"x": self.initial.x.tolist(),
                              "y": self.initial.y.tolist()}
        return out


# ---------------------------------------------------------------------------
# strict parsing helpers
# ---------------------------------------------------------------------------

def _check_length(value, n: int, where: str):
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{where} must be an array, got {type(value).__name__}")
    if len(value) != n:
        raise ConfigurationError(
            f"{where} must have length n={n}, got {len(value)}")


def _as_vector(value, n: int, where: str) -> np.ndarray:
    _check_length(value, n, where)
    return np.array([_as_float(v, f"{where}[{k}]") for k, v in enumerate(value)])


def _section(obj: dict, where: str, cls) -> dict:
    """The optional section obj[where], holding only fields of cls."""
    section = obj.get(where, {})
    _check_fields(section, where, {f.name for f in fields(cls)})
    return section


def config_from_dict(obj: dict) -> ScenarioConfig:
    """Validate a parsed scenario object and fill every default."""
    _check_fields(obj, "config", {"model", "initial", "integrator", "analysis"},
                  {"model"})
    model = obj["model"]
    _check_fields(model, "model", {"n", "gamma", "interaction"},
                  {"n", "gamma", "interaction"})
    n = _as_int(model["n"], "model.n", 1, high=_MAX_SIDE)
    gamma = _as_float(model["gamma"], "model.gamma", 0, above=True)
    spec = interaction_from_config(model["interaction"], n)
    spec.validate()

    initial = None
    if "initial" in obj:
        section = obj["initial"]
        _check_fields(section, "initial", {"x", "y"}, {"x", "y"})
        initial = EpidemicState(_as_vector(section["x"], n, "initial.x"),
                                _as_vector(section["y"], n, "initial.y"))

    # each options dataclass reads its own fields; x_star's length is
    # checked here, against n
    integrator = IntegratorOptions(**_section(obj, "integrator", IntegratorOptions))
    section = _section(obj, "analysis", AnalysisOptions)
    if section.get("x_star") is not None:
        _check_length(section["x_star"], n, "analysis.x_star")
    analysis = AnalysisOptions(**section)

    return ScenarioConfig(n=n, gamma=gamma, interaction=spec,
                          initial=initial, integrator=integrator,
                          analysis=analysis)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _two_node(interaction: dict) -> dict:
    return {
        "model": {"n": 2, "gamma": 1.0, "interaction": interaction},
        "initial": {"x": [0.9, 0.9], "y": [0.05, 0.05]},
    }


def _constant_two_node(matrix: list[list[float]]) -> dict:
    return _two_node({"kind": "constant", "matrix": matrix})


_PRESETS = {
    "example2a": _constant_two_node([[1.5, 1.5], [1.5, 1.5]]),
    "example2b": _constant_two_node([[1.0, 2.0], [1.0, 2.0]]),
    "example2c": _constant_two_node([[3.0, 2.0], [1.0, 2.0]]),
    "example2d": _constant_two_node([[1.0, 2.0], [3.0, 2.0]]),
    "example3": _two_node({"kind": "rank1_local", "n": 2, "g": "1 + u",
                           "f": "1 / (1 + 1.5 * u)"}),
    "example4": _two_node({"kind": "scalar_scaled", "n": 2,
                           "numerator": "2 - u", "denominator": "1 + y1 + y2"}),
    "example5": {
        "model": {"n": 5, "gamma": 1.0,
                  "interaction": {"kind": "outer_product", "scale": 0.8, "n": 5}},
        "initial": {"x": [0.9] * 5, "y": [0.05] * 5},
        "analysis": {"budget": 10000, "seed": 7},
    },
}
PRESET_NAMES = frozenset(_PRESETS)


def preset(name: str) -> ScenarioConfig:
    """Built-in scenario by name, routed through the normal loader."""
    if name not in _PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {sorted(PRESET_NAMES)}")
    return config_from_dict(_PRESETS[name])


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
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config {path} is not valid JSON: {exc.msg} at line {exc.lineno}, "
            f"column {exc.colno}") from exc
    except RecursionError:
        raise ConfigurationError(
            f"config {path} nests its arrays or objects too deeply to read") from None
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
