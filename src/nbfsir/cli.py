"""Command-line front end.

    nbfsir <subcommand> --config <path-or-preset> --out <dir>
                        [--grid N] [--seed S]

Subcommands: simulate, stability, region, transient, check.  Only
simulate and transient take --format csv|json, and only region takes
--svg.  Every run writes the fully resolved configuration
(config_resolved.json) and a metadata file (metadata.json, the only
file holding a timestamp or a wall time) next to its results, so reruns
with the same config and seed are byte-identical except for the
metadata.

Exit status: 0 success, 1 model-validity or numerical failure,
2 usage or configuration error.  Failures print one JSON line, and
leave an error.json in the output directory once --out is parsed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .config import (PRESET_NAMES, ScenarioConfig, load_config,
                     with_overrides)
from .errors import ConfigurationError, NBFSIRError, UsageError
from .integrate import integrate, limit_equilibrium, trajectory_to_csv
from .interaction import (Rank1Local, check_monotonicity_conditions,
                          check_unimodality_hypotheses)
from .stability import classify_equilibrium, region_to_json, region_to_svg, scan_region
from .transient import (aggregate_curve, curve_to_csv, search_multimodal_ic,
                        verify_unimodality)

__all__ = ["main", "build_parser", "run_subcommand"]


class _Parser(argparse.ArgumentParser):
    """argparse whose errors raise UsageError, which main reports like any
    other; add_subparsers makes its subparsers of this class too."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nbfsir",
        description="Simulation and spectral analysis of epidemics whose "
                    "contact structure reacts to the epidemic state.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="JSON scenario file or preset name "
                            f"({', '.join(sorted(PRESET_NAMES))})")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--grid", type=int, default=None,
                       help="override analysis.grid_resolution")
        p.add_argument("--seed", type=int, default=None,
                       help="override analysis.seed")
        if name in ("simulate", "transient"):
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="tabular output format (default csv)")
        if name == "region":
            p.add_argument("--svg", action="store_true",
                           help="also render the region as SVG")
    return parser


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _terminal_message(traj) -> str:
    if len(traj) == 1:
        return "at equilibrium"
    if traj.terminal.value == "converged":
        return "converged to a disease-free equilibrium"
    return "reached t_max before converging"


def _cmd_simulate(config: ScenarioConfig, fmt: str, svg: bool) -> dict[str, str]:
    params = config.params()
    traj = integrate(params, config.require_initial(), config.integrator)
    if fmt == "csv":
        files = {"trajectory.csv": trajectory_to_csv(traj, params.interaction)}
    else:
        payload = {
            "times": traj.times.tolist(),
            "x": traj.x.tolist(),
            "y": traj.y.tolist(),
            "terminal": traj.terminal.value,
        }
        files = {"trajectory.json": _json_text(payload)}
    converged = traj.terminal.value == "converged"
    summary = {
        "terminal": traj.terminal.value,
        "message": _terminal_message(traj),
        "samples": len(traj),
        "t_final": traj.t_final,
        "x_final": traj.x[-1].tolist(),
        "y_final": traj.y[-1].tolist(),
        "x_star": limit_equilibrium(traj).x.tolist() if converged else None,
        "n_accepted": traj.n_accepted,
        "n_rejected": traj.n_rejected,
        "n_evaluations": traj.n_evaluations,
    }
    files["summary.json"] = _json_text(summary)
    return files


def _cmd_stability(config: ScenarioConfig, fmt: str, svg: bool) -> dict[str, str]:
    params = config.params()
    if config.analysis.x_star is not None:
        x_star = list(config.analysis.x_star)
    else:
        traj = integrate(params, config.require_initial(), config.integrator)
        x_star = limit_equilibrium(traj).x.tolist()
    report = classify_equilibrium(params, x_star,
                                  marginal_band=config.analysis.marginal_band)
    payload = {
        "x_star": report.x_star.tolist(),
        "lambda_max": report.lambda_max,
        "gamma": report.gamma,
        "classification": report.classification.value,
        "label": report.classification.name.title(),
        "perron_vector": (None if report.perron_vector is None
                          else report.perron_vector.tolist()),
        "irreducible": report.irreducible,
    }
    return {"stability.json": _json_text(payload)}


def _cmd_region(config: ScenarioConfig, fmt: str, svg: bool) -> dict[str, str]:
    scan = scan_region(
        config.params(),
        resolution=config.analysis.grid_resolution,
        boundary_tol=config.analysis.boundary_tol,
        tie_tol=config.analysis.tie_tol,
        marginal_band=config.analysis.marginal_band,
    )
    files = {"region.json": region_to_json(scan)}
    if svg:
        files["region.svg"] = region_to_svg(scan)
    return files


def _cmd_transient(config: ScenarioConfig, fmt: str, svg: bool) -> dict[str, str]:
    params = config.params()
    analysis = config.analysis
    traj = integrate(params, config.require_initial(), config.integrator)
    curve = aggregate_curve(traj, params.interaction, analysis.noise_tol)
    if fmt == "csv":
        files = {"aggregate.csv": curve_to_csv(curve)}
    else:
        files = {"aggregate.json": _json_text({
            "times": curve.times.tolist(),
            "values": curve.values.tolist(),
        })}
    report: dict = {**curve.as_dict(), "n_maxima": curve.n_maxima}
    if analysis.trials > 0:
        verification = verify_unimodality(
            params.interaction, params.gamma, analysis.trials,
            analysis.seed, analysis.noise_tol, config.integrator)
        report["verification"] = verification.as_dict()
    if analysis.budget > 0:
        search = search_multimodal_ic(
            params.interaction, params.gamma, analysis.budget,
            analysis.seed, analysis.noise_tol, config.integrator)
        report["search"] = search.as_dict()
    return {**files, "transient.json": _json_text(report)}


def _cmd_check(config: ScenarioConfig, fmt: str, svg: bool) -> dict[str, str]:
    spec = config.interaction
    payload = {"monotonicity": asdict(check_monotonicity_conditions(spec)),
               "unimodality_hypotheses": None}
    if isinstance(spec, Rank1Local):
        payload["unimodality_hypotheses"] = asdict(
            check_unimodality_hypotheses(spec))
    return {"check.json": _json_text(payload)}


# name -> (help text, handler(config, fmt, svg) -> {filename: text})
_SUBCOMMANDS = {
    "simulate": ("integrate the model and write the trajectory", _cmd_simulate),
    "stability": ("classify a disease-free equilibrium", _cmd_stability),
    "region": ("map the stable/unstable split over [0,1]^2", _cmd_region),
    "transient": ("aggregate infection curve, shape report, searches",
                  _cmd_transient),
    "check": ("structural checks on the interaction spec", _cmd_check),
}


def run_subcommand(command: str, config: ScenarioConfig,
                   fmt: str = "csv", svg: bool = False) -> dict[str, str]:
    """Run one subcommand and return {filename: text} of its results."""
    if command not in _SUBCOMMANDS:
        raise UsageError(
            f"unknown subcommand {command!r}; expected one of {tuple(_SUBCOMMANDS)}")
    return _SUBCOMMANDS[command][1](config, fmt, svg)


def _write_files(out_dir: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        (out_dir / name).write_text(text, newline="\n")


def main(argv=None) -> int:
    start = time.perf_counter()
    out_dir = None  # until the arguments are parsed
    try:
        args = build_parser().parse_args(argv)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot create output directory {out_dir}: {exc}") from exc
        config = load_config(args.config)
        config = with_overrides(config, grid_resolution=args.grid,
                                seed=args.seed)
        files = run_subcommand(args.command, config,
                               fmt=getattr(args, "format", "csv"),
                               svg=getattr(args, "svg", False))
        files["config_resolved.json"] = _json_text(config.as_dict())
        files["metadata.json"] = _json_text({
            "command": args.command,
            "version": __version__,
            "created_utc": datetime.datetime.now(
                datetime.timezone.utc).isoformat(),
            "timing": {"total_s": time.perf_counter() - start},
        })
        _write_files(out_dir, files)
    except NBFSIRError as exc:
        status = 2 if isinstance(exc, ConfigurationError) else 1
        diagnostic = {
            "error": type(exc).__name__,
            "message": str(exc),
            "exit_status": status,
        }
        sys.stderr.write(json.dumps(diagnostic, sort_keys=True) + "\n")
        if out_dir is not None:
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / "error.json").write_text(_json_text(diagnostic),
                                                    newline="\n")
            except OSError:
                pass
        return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
