"""Per-layer metrics of the traced run.

The traced run makes one pass over every workload with spans around each
call into the package, then calls single public functions of each module
many times over, one span per call.  Every per-layer metric is read off
those spans, except the integrator's counts, which come from the public
fields of the Trajectory it returns.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np

from workloads import CLI_COMMANDS, TWO_NODE_PRESETS

SINGLE_CALLS = 2000   # per-call probes of microsecond-scale functions
REPEATS = 10          # per-call probes of millisecond-scale functions

# A fresh interpreter, timing the CLI's import and its first config load;
# spans come back as JSON on stdout.
_FRESH_PROCESS = """
import json, time
t0 = time.perf_counter()
import nbfsir.cli
t1 = time.perf_counter()
from nbfsir import load_config
load_config("example3")
t2 = time.perf_counter()
print(json.dumps([["cli.import", t0, t1, {}],
                  ["config.load", t1, t2, {"preset": "example3", "first": True}]]))
"""


def fresh_process_spans(tracer) -> None:
    out = subprocess.run([sys.executable, "-c", _FRESH_PROCESS], check=True,
                         capture_output=True, text=True).stdout
    for name, start, end, attrs in json.loads(out.splitlines()[-1]):
        tracer.add(name, start, end, **attrs)


def _repeat(tracer, name: str, count: int, call, **attrs):
    for _ in range(count):
        with tracer.span(name, **attrs):
            result = call()
    return result


def probe(tracer, seed: int, region: dict, region_ctx: dict) -> dict:
    """Call each module's public functions on fixed inputs, one span per call."""
    from nbfsir import (OuterProduct, aggregate_curve, aggregate_values,
                        check_monotonicity_conditions,
                        check_unimodality_hypotheses, curve_to_csv,
                        dominant_eigen, integrate, load_config,
                        region_to_json, region_to_svg, trajectory_to_csv,
                        vector_field)
    from nbfsir.config import PRESET_NAMES

    _repeat(tracer, "trace.empty", SINGLE_CALLS, lambda: None)

    configs = {}
    for name in sorted(PRESET_NAMES):
        configs[name] = _repeat(tracer, "config.load", REPEATS,
                                lambda: load_config(name), preset=name, case="warm")
        _repeat(tracer, "interaction.validate", REPEATS,
                configs[name].interaction.validate, preset=name)

    cfg3 = configs["example3"]
    spec3, params3, start3 = cfg3.interaction, cfg3.params(), cfg3.initial
    x, y = start3.x, start3.y
    _repeat(tracer, "interaction.evaluate", SINGLE_CALLS,
            lambda: spec3.evaluate(x, y), case="one")
    for k, fn in enumerate(spec3.g[:1] + spec3.f[:1]):
        _repeat(tracer, "expr.call", SINGLE_CALLS, lambda: fn(x[0]), function=k)
    _repeat(tracer, "core.vector_field", SINGLE_CALLS,
            lambda: vector_field(params3, x, y, check=False))
    traj = _repeat(tracer, "integrate.integrate", REPEATS,
                   lambda: integrate(params3, start3, cfg3.integrator), case="probe")
    curve = _repeat(tracer, "transient.aggregate_curve", REPEATS,
                    lambda: aggregate_curve(traj, spec3))
    _repeat(tracer, "integrate.trajectory_to_csv", REPEATS,
            lambda: trajectory_to_csv(traj, spec3))
    _repeat(tracer, "transient.curve_to_csv", REPEATS, lambda: curve_to_csv(curve))

    axis = np.linspace(0.0, 1.0, 201)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([g1.reshape(-1), g2.reshape(-1)], axis=-1)
    _repeat(tracer, "interaction.evaluate", REPEATS,
            lambda: spec3.evaluate(grid, np.zeros_like(grid)), case="grid")

    rng = np.random.default_rng(seed)
    strong = OuterProduct(8.0, 5)
    xs = rng.uniform(0.0, 1.0, size=(10_000, 5))
    ys = rng.uniform(0.0, 1.0, size=(10_000, 5)) * (1.0 - xs)
    _repeat(tracer, "interaction.evaluate", REPEATS,
            lambda: strong.evaluate(xs, ys, check=False), case="batch")
    _repeat(tracer, "transient.aggregate_values", REPEATS,
            lambda: aggregate_values(strong, ys))

    for _, xv, a in region["pairs"]:
        with tracer.span("stability.dominant_eigen"):
            dominant_eigen(xv[:, None] * a)

    spec5 = configs["example5"].interaction
    for _ in range(REPEATS):
        with tracer.span("interaction.check", preset="example5"):
            check_monotonicity_conditions(spec5)
            check_unimodality_hypotheses(spec5)

    scan = region_ctx["scans"]["example2b"]
    _repeat(tracer, "stability.region_to_json", REPEATS, lambda: region_to_json(scan))
    _repeat(tracer, "stability.region_to_svg", REPEATS, lambda: region_to_svg(scan))
    return {"trajectory": traj}


def metrics(tracer, info: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit)."""
    med = tracer.median
    traj = info["trajectory"]
    call_s = med("integrate.integrate", case="probe")
    rhs_s = med("core.vector_field")
    steps = traj.n_accepted + traj.n_rejected
    out = {
        "config.load_first_s": (med("config.load", first=True), "s"),
        "config.load_ms": (1e3 * med("config.load", case="warm"), "ms"),
        "interaction.validate_ms": (1e3 * med("interaction.validate"), "ms"),
        "cli.import_s": (med("cli.import"), "s"),
        "interaction.evaluate_us": (1e6 * med("interaction.evaluate", case="one"), "us"),
        "expr.call_us": (1e6 * med("expr.call"), "us"),
        "core.vector_field_us": (1e6 * rhs_s, "us"),
        "integrate.call_ms": (1e3 * call_s, "ms"),
        "integrate.step_overhead_us":
            (1e6 * (call_s - traj.n_evaluations * rhs_s) / steps, "us"),
        "integrate.rhs_evals": (traj.n_evaluations, "count"),
        "integrate.steps_accepted": (traj.n_accepted, "count"),
        "integrate.steps_rejected": (traj.n_rejected, "count"),
        "transient.verify_s": (tracer.total("transient.verify_unimodality"), "s"),
        "transient.aggregate_curve_ms": (1e3 * med("transient.aggregate_curve"), "ms"),
        "interaction.evaluate_grid_ms":
            (1e3 * med("interaction.evaluate", case="grid"), "ms"),
    }
    for name in TWO_NODE_PRESETS:
        out[f"stability.scan_{name}_s"] = (med("stability.scan_region", preset=name), "s")
    out.update({
        "stability.dominant_eigen_us": (1e6 * med("stability.dominant_eigen"), "us"),
        "stability.classify_us": (1e6 * med("stability.classify_equilibrium"), "us"),
        "interaction.evaluate_batch_ms":
            (1e3 * med("interaction.evaluate", case="batch"), "ms"),
        "transient.aggregate_values_ms": (1e3 * med("transient.aggregate_values"), "ms"),
        "transient.search_strong_s":
            (med("transient.search_multimodal_ic", kernel="strong"), "s"),
        "transient.search_example5_s":
            (med("transient.search_multimodal_ic", kernel="example5"), "s"),
        "interaction.check_ms": (1e3 * med("interaction.check"), "ms"),
        "integrate.trajectory_to_csv_ms": (1e3 * med("integrate.trajectory_to_csv"), "ms"),
        "transient.curve_to_csv_ms": (1e3 * med("transient.curve_to_csv"), "ms"),
        "stability.region_to_json_ms": (1e3 * med("stability.region_to_json"), "ms"),
        "stability.region_to_svg_ms": (1e3 * med("stability.region_to_svg"), "ms"),
    })
    for command, preset in CLI_COMMANDS:
        out[f"cli.{command}_{preset}_s"] = (
            med("cli.main", command=command, preset=preset), "s")
    out["trace.span_us"] = (1e6 * med("trace.empty"), "us")
    return out
