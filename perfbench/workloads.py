"""The four workloads: seeded inputs, one timed pass, and its checks.

Each workload has
  setup(seed, tracer)   -> inputs   the package import, config loading and
                                    validation, and the inputs drawn from
                                    the seed (what setup_s times);
  prepare(inputs, dir)  -> context  the benchmark's own references and
                                    scratch state, never timed;
  run(inputs, ctx, tracer, p)       one pass: every operation of the
                                    workload, each timed alone and checked
                                    right after, outside its timing.
The package is imported inside setup, so a fresh process that runs only
setup pays for the import.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
import traceback
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import oracles

TWO_NODE_PRESETS = ("example2a", "example2b", "example2c", "example2d",
                    "example3", "example4")
RESOLUTION = 201
CLASSIFY_PAIRS = 500

GAMMA = 1.0
EXAMPLE3_TRIALS = 60
FAMILY_SIZES = (1, 2, 3, 5)
FAMILY_SPECS_PER_SIZE = 3
FAMILY_TRIALS = 10
RK4_STEP = 0.01
MONOTONE_TOL = 1e-10   # IntegratorOptions.abs_tol default

STRONG_SCALE = 8.0
RECOUNT_STEP = 0.002

CLI_COMMANDS = (("check", "example3"), ("check", "example5"),
                ("simulate", "example3"), ("stability", "example2a"),
                ("transient", "example3"), ("region", "example2b"))


class Op(NamedTuple):
    index: int      # position among the pass's attempted operations
    name: str
    seconds: float
    units: int      # units of work, for throughput_per_s


@dataclass
class Pass:
    """Timings and outcomes of one pass over a workload's operations."""

    ops: list[Op] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    child_rss_mb: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def items(self) -> int:
        return sum(op.units for op in self.ops)

    def seconds_of(self, name: str) -> list[float]:
        return [op.seconds for op in self.ops if op.name == name]

    def units_of(self, name: str) -> int:
        return sum(op.units for op in self.ops if op.name == name)

    def attempt(self, tracer, name: str, attrs: dict, units: int,
                call: Callable, check: Callable):
        """Time one call into the package inside a span, then check the
        result outside the timing.  A raise or a failed check fails the
        operation; a failed check also marks the run incorrect."""
        index = self.attempted
        self.attempted += 1
        try:
            with tracer.span(name, **attrs):
                t0 = time.perf_counter()
                result = call()
                seconds = time.perf_counter() - t0
        except Exception:
            self.failed += 1
            print(f"operation {name} {attrs} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        self.ops.append(Op(index, name, seconds, units))
        try:
            problems = check(result)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            problems = [f"check raised {exc!r}"]
        if problems:
            self.failed += 1
            self.wrong += 1
            print(f"check failed: {name} {attrs}: {'; '.join(problems)}",
                  file=sys.stderr)
        return result


def _load(tracer, names):
    from nbfsir import load_config
    configs = {}
    for name in names:
        with tracer.span("config.load", preset=name):
            configs[name] = load_config(name)
    return configs


# ---------------------------------------------------------------------------
# region-scan: stability maps of the six two-node presets, plus single
# classifications of seeded random constant 2x2 models
# ---------------------------------------------------------------------------

def setup_region(seed: int, tracer) -> dict:
    from nbfsir import Constant, ModelParams
    configs = _load(tracer, TWO_NODE_PRESETS)
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(CLASSIFY_PAIRS):
        a = rng.uniform(0.0, 3.0, size=(2, 2))
        x = rng.uniform(0.0, 1.0, size=2)
        pairs.append((ModelParams(gamma=GAMMA, interaction=Constant(a)), x, a))
    return {"configs": configs, "pairs": pairs}


def prepare_region(inputs: dict, run_dir: Path) -> dict:
    axis = np.linspace(0.0, 1.0, RESOLUTION)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    refs = {}
    for name, cfg in inputs["configs"].items():
        lam = oracles.threshold_function(name, getattr(cfg.interaction, "matrix", None))
        refs[name] = {"lam": lam, "gamma": cfg.gamma, "grid": lam(g1, g2),
                      "best_mean": oracles.best_stable_mean(lam, cfg.gamma)}
    return {"refs": refs, "scans": {}}


def check_scan(scan, ref: dict) -> list[str]:
    lam_fn, gamma = ref["lam"], ref["gamma"]
    problems = []
    classes = np.array([c.value for c in scan.classes.reshape(-1)])
    if classes.shape != (RESOLUTION * RESOLUTION,):
        return [f"class grid has {classes.size} cells"]
    lam = ref["grid"].reshape(-1)
    decided = np.abs(lam - gamma) > 1e-6
    wrong = decided & (classes != np.where(lam < gamma, "S", "U"))
    if wrong.any():
        problems.append(f"{int(wrong.sum())} grid classes disagree with the "
                        "sign of the closed-form lambda - gamma")
    pts = scan.boundary_points
    if len(pts) == 0:
        problems.append("no boundary traced")
    else:
        resid = float(np.abs(lam_fn(pts[:, 0], pts[:, 1]) - gamma).max())
        if not resid < 1e-4:
            problems.append(f"boundary residual {resid:.3g} >= 1e-4")
    xs = scan.x_star_set
    if len(xs) == 0:
        problems.append("empty optimal set")
    else:
        resid = float(np.abs(lam_fn(xs[:, 0], xs[:, 1]) - gamma).max())
        if not resid < 1e-4:
            problems.append(f"optimal point off the boundary by {resid:.3g}")
        gap = float(np.abs(xs.mean(axis=1) - ref["best_mean"]).max())
        if not gap < 1.5e-3:
            problems.append(f"optimal mean {gap:.3g} from the fine-grid best")
    return problems


def check_classification(report, a, x) -> list[str]:
    lam = float(oracles.lam_2x2(a, x[0], x[1]))
    problems = []
    if not abs(report.lambda_max - lam) <= 1e-9:
        problems.append(f"lambda {report.lambda_max!r} vs closed form {lam!r}")
    if abs(lam - GAMMA) > 1e-6:
        expected = "S" if lam < GAMMA else "U"
        if report.classification.value != expected:
            problems.append(f"class {report.classification.value} for lambda {lam}")
    return problems


def run_region(inputs: dict, ctx: dict, tracer, p: Pass) -> None:
    from nbfsir import classify_equilibrium, scan_region
    for name, cfg in inputs["configs"].items():
        scan = p.attempt(tracer, "stability.scan_region", {"preset": name},
                         RESOLUTION * RESOLUTION,
                         lambda: scan_region(cfg.params(), resolution=RESOLUTION),
                         lambda s: check_scan(s, ctx["refs"][name]))
        ctx["scans"][name] = scan
    for params, x, a in inputs["pairs"]:
        p.attempt(tracer, "stability.classify_equilibrium", {}, 1,
                  lambda: classify_equilibrium(params, x),
                  lambda r: check_classification(r, a, x))


# ---------------------------------------------------------------------------
# unimodality-ensemble: many small sequential adaptive integrations
# ---------------------------------------------------------------------------

def _strata(rng, lo: float, hi: float, k: int, n: int) -> np.ndarray:
    """k draws per node from [lo, hi), one in each of k equal strata
    (Latin hypercube), so k specs span the range on every seed."""
    u = (rng.permuted(np.tile(np.arange(k), (n, 1)), axis=1).T
         + rng.uniform(size=(k, n))) / k
    return lo + (hi - lo) * u


def setup_unimodality(seed: int, tracer) -> dict:
    from nbfsir import (Affine, EpidemicState, ModelParams, Rank1Local,
                        ReciprocalAffine)
    cfg = _load(tracer, ["example3"])["example3"]
    rng = np.random.default_rng(seed)
    cases = [("example3", cfg.interaction, EXAMPLE3_TRIALS,
              int(rng.integers(2**31)))]
    direct = []
    k = FAMILY_SPECS_PER_SIZE
    for n in FAMILY_SIZES:
        # g = p + q u with p > 0, q >= 0; f = p / (1 + alpha u) with alpha >= 0
        coeffs = zip(_strata(rng, 0.5, 2.0, k, n), _strata(rng, 0.0, 2.0, k, n),
                     _strata(rng, 0.5, 2.0, k, n), _strata(rng, 0.0, 3.0, k, n))
        for j, (gp, gq, fp, fa) in enumerate(coeffs):
            spec = Rank1Local(
                tuple(Affine(float(a), float(b)) for a, b in zip(gp, gq)),
                tuple(ReciprocalAffine(float(a), float(b)) for a, b in zip(fp, fa)))
            cases.append((f"rank1-n{n}-{j}", spec, FAMILY_TRIALS,
                          int(rng.integers(2**31))))
            if j == 0:
                x = rng.uniform(0.05, 0.95, n)
                y = rng.uniform(0.01, 1.0, n) * (1.0 - x)
                direct.append((f"rank1-n{n}", ModelParams(gamma=GAMMA, interaction=spec),
                               EpidemicState(x, y), (gp, gq, fp, fa)))
    return {"cases": cases, "direct": direct}


def prepare_unimodality(inputs: dict, run_dir: Path) -> dict:
    return {"rk4": {}}


def check_verification(report, trials: int) -> list[str]:
    problems = []
    if not report.all_unimodal:
        problems.append(f"{len(report.counterexamples)} multi-wave curves")
    if report.trials != trials or sum(report.shape_counts.values()) != trials:
        problems.append(f"shape counts {report.shape_counts} for {trials} trials")
    return problems


def check_direct(traj, state, coeffs, cache: dict) -> list[str]:
    problems = oracles.feasibility_problems(traj.x, traj.y)
    if traj.terminal.value != "converged":
        problems.append(f"ended {traj.terminal.value}")
    # exact flows have dx <= 0 and d(x + y) = -gamma y dt <= 0; the sampled
    # ones may wobble by the integrator's absolute tolerance near y = 0
    if np.diff(traj.x, axis=0).max(initial=0.0) > MONOTONE_TOL:
        problems.append("x increased")
    if np.diff(traj.x + traj.y, axis=0).max(initial=0.0) > MONOTONE_TOL:
        problems.append("x + y increased")
    if not traj.y.min() > 0.0:
        problems.append("y reached 0")
    key = (state.x.tobytes(), state.y.tobytes(), traj.t_final)
    if key not in cache:
        xs, ys = oracles.rk4(oracles.rank1_rhs(*coeffs, GAMMA), state.x,
                             state.y, traj.t_final, RK4_STEP)
        cache[key] = (xs[-1], ys[-1])
    x_ref, y_ref = cache[key]
    err = max(np.abs(traj.x[-1] - x_ref).max(), np.abs(traj.y[-1] - y_ref).max())
    if not err <= 1e-6:
        problems.append(f"final state {err:.3g} from RK4")
    return problems


def run_unimodality(inputs: dict, ctx: dict, tracer, p: Pass) -> None:
    from nbfsir import integrate, verify_unimodality
    for label, spec, trials, seed in inputs["cases"]:
        p.attempt(tracer, "transient.verify_unimodality", {"case": label}, trials,
                  lambda: verify_unimodality(spec, GAMMA, trials, seed),
                  lambda r: check_verification(r, trials))
    for label, params, state, coeffs in inputs["direct"]:
        p.attempt(tracer, "integrate.integrate", {"case": label}, 1,
                  lambda: integrate(params, state),
                  lambda t: check_direct(t, state, coeffs, ctx["rk4"]))


# ---------------------------------------------------------------------------
# multiwave-search: one wide batch per search instead of many narrow runs
# ---------------------------------------------------------------------------

def setup_multiwave(seed: int, tracer) -> dict:
    from nbfsir import OuterProduct
    cfg = _load(tracer, ["example5"])["example5"]
    return {"gamma": cfg.gamma, "budget": cfg.analysis.budget,
            "noise_tol": cfg.analysis.noise_tol,
            "seed": int(np.random.default_rng(seed).integers(2**31)),
            "kernels": [("strong", OuterProduct(STRONG_SCALE, cfg.n)),
                        ("example5", cfg.interaction)]}


def prepare_multiwave(inputs: dict, run_dir: Path) -> dict:
    return {"recount": {}}


def check_search(report, label: str, spec, inputs: dict, cache: dict) -> list[str]:
    gamma = inputs["gamma"]
    best = report.best_state
    problems = oracles.feasibility_problems(best.x, best.y)
    if report.budget != inputs["budget"]:
        problems.append(f"budget {report.budget}")
    if label == "strong":
        if report.n_maxima < 2:
            problems.append(f"{report.n_maxima} maxima on the strong kernel")
        key = (best.x.tobytes(), best.y.tobytes(), float(report.curve.times[-1]))
        if key not in cache:
            _, ys = oracles.rk4(oracles.outer_rhs(spec.scale, gamma), best.x,
                                best.y, key[2], RECOUNT_STEP)
            cache[key] = oracles.count_maxima((ys * ys).sum(axis=1),
                                              inputs["noise_tol"])
        if cache[key] < 2:
            problems.append(f"RK4 recount finds {cache[key]} maxima")
    else:
        # ybar = sum y_j^2 and y_j <= 1 - x_j give dybar/dt <= 2 ybar (4cn/27 - gamma)
        bound = 4.0 * spec.scale * spec.size / 27.0
        if not bound < gamma:
            problems.append(f"4cn/27 = {bound} does not force a falling curve")
        if report.n_maxima != 0 or report.curve.shape.value != "MonotoneDecreasing":
            problems.append(f"{report.n_maxima} maxima, shape "
                            f"{report.curve.shape.value} below the bound")
    return problems


def run_multiwave(inputs: dict, ctx: dict, tracer, p: Pass) -> None:
    from nbfsir import search_multimodal_ic
    for label, spec in inputs["kernels"]:
        p.attempt(tracer, "transient.search_multimodal_ic", {"kernel": label},
                  inputs["budget"],
                  lambda: search_multimodal_ic(spec, inputs["gamma"], inputs["budget"],
                                               inputs["seed"], inputs["noise_tol"]),
                  lambda r: check_search(r, label, spec, inputs, ctx["recount"]))


# ---------------------------------------------------------------------------
# cli-cold: fresh `python -m nbfsir.cli` processes, one after another
# ---------------------------------------------------------------------------

def setup_cli(seed: int, tracer) -> dict:
    import nbfsir.cli  # noqa: F401  (the import every invocation pays)
    configs = _load(tracer, sorted({preset for _, preset in CLI_COMMANDS}))
    return {"configs": configs,
            "seed": int(np.random.default_rng(seed).integers(2**31))}


def prepare_cli(inputs: dict, run_dir: Path) -> dict:
    return {"dir": run_dir, "pass": 0, "first": {}, "rk4": {}}


@dataclass
class Invocation:
    returncode: int
    rss_mb: float
    out: Path
    stderr: str


def invoke(argv: list[str], out: Path) -> Invocation:
    """Run one CLI process to completion and read its peak RSS."""
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out.parent / f"{out.name}.stderr", "w+") as err:
        child = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Invocation(child.returncode, usage.ru_maxrss / 1024.0, out, err.read())


def _parse_outputs(out: Path) -> tuple[dict, list[str]]:
    parsed, problems = {}, []
    for path in sorted(out.iterdir()):
        text = path.read_text()
        try:
            if path.suffix == ".json":
                parsed[path.name] = json.loads(text)
            elif path.suffix == ".csv":
                lines = text.splitlines()
                rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
                parsed[path.name] = (lines[0].split(","), np.array(rows))
            elif path.suffix == ".svg":
                parsed[path.name] = ElementTree.fromstring(text)
        except (ValueError, ElementTree.ParseError) as exc:
            problems.append(f"{path.name} does not parse: {exc}")
    return parsed, problems


_EXPECTED_FILES = {
    "check": {"check.json"},
    "simulate": {"trajectory.csv", "summary.json"},
    "stability": {"stability.json"},
    "transient": {"aggregate.csv", "transient.json"},
    "region": {"region.json", "region.svg"},
}


def check_invocation(res: Invocation, command: str, preset: str, ctx: dict,
                     inputs: dict) -> list[str]:
    if res.returncode != 0:
        return [f"exit status {res.returncode}: {res.stderr.strip()[:300]}"]
    parsed, problems = _parse_outputs(res.out)
    expected = _EXPECTED_FILES[command] | {"config_resolved.json", "metadata.json"}
    if set(parsed) != expected:
        return problems + [f"files {sorted(parsed)}, expected {sorted(expected)}"]
    if problems:
        return problems

    if command == "check":
        report = parsed["check.json"]
        hyp = report["unimodality_hypotheses"]
        if not report["monotonicity"]["holds"]:
            problems.append("monotonicity fails")
        if preset == "example3" and not hyp["holds"]:
            # g = 1 + u > 0, u g increasing, u f = u / (1 + 1.5u) increasing, concave
            problems.append(f"hypotheses fail: {hyp['failures'][:1]}")
        if preset == "example5":
            # g_i(u) = 0.8 (1 - u) vanishes at u = 1 on every node
            n = inputs["configs"]["example5"].n
            at_one = {f["node"] for f in hyp["failures"]
                      if f["hypothesis"] == "g_positive" and f["u"] == 1.0}
            if hyp["holds"] or at_one != set(range(n)):
                problems.append(f"g_positive at u = 1 reported for nodes {sorted(at_one)}")
    elif command == "simulate":
        summary = parsed["summary.json"]
        header, rows = parsed["trajectory.csv"]
        x_final = np.array(summary["x_final"])
        if not np.array_equal(rows[-1, 1:3], x_final):
            problems.append("trajectory.csv and summary.json disagree")
        cfg = inputs["configs"][preset]
        key = summary["t_final"]
        if key not in ctx["rk4"]:
            # example3: g = 1 + u, f = 1 / (1 + 1.5 u) on both nodes
            rhs = oracles.rank1_rhs([1, 1], [1, 1], [1, 1], [1.5, 1.5], cfg.gamma)
            xs, _ = oracles.rk4(rhs, cfg.initial.x, cfg.initial.y, key, RK4_STEP)
            ctx["rk4"][key] = xs[-1]
        err = float(np.abs(x_final - ctx["rk4"][key]).max())
        if not err <= 1e-6:
            problems.append(f"final x {err:.3g} from RK4")
    elif command == "stability":
        report = parsed["stability.json"]
        # example2a: A = 1.5 * ones, so diag(x) A has rank one and trace 1.5 (x1 + x2)
        lam = 1.5 * sum(report["x_star"])
        if not abs(report["lambda_max"] - lam) <= 1e-9:
            problems.append(f"lambda {report['lambda_max']} vs 1.5(x1 + x2) = {lam}")
        if abs(lam - report["gamma"]) > 1e-6 and \
                report["classification"] != ("S" if lam < report["gamma"] else "U"):
            problems.append(f"class {report['classification']} for lambda {lam}")
    elif command == "transient":
        report = parsed["transient.json"]
        if report["shape"] not in ("Unimodal", "MonotoneDecreasing") or report["n_maxima"] > 1:
            problems.append(f"shape {report['shape']} with {report['n_maxima']} maxima")
        if parsed["aggregate.csv"][0] != ["t", "ybar"]:
            problems.append("aggregate.csv header")
    elif command == "region":
        report = parsed["region.json"]
        if len(report["classes"]) != report["resolution"] ** 2:
            problems.append("class grid size")
        # example2b: A has rank one, so lambda = x1 + 2 x2 and the boundary is x1 + 2 x2 = 1
        pts = np.array(report["boundary"] + report["x_star_set"]).reshape(-1, 2)
        if len(report["boundary"]) == 0:
            problems.append("no boundary")
        elif not np.abs(pts[:, 0] + 2.0 * pts[:, 1] - 1.0).max() < 1e-4:
            problems.append("boundary off x1 + 2 x2 = 1")

    outputs = {p.name: p.read_bytes() for p in res.out.iterdir()
               if p.name != "metadata.json"}
    first = ctx["first"].setdefault((command, preset), outputs)
    if first is not outputs and first != outputs:
        changed = sorted(k for k in set(first) | set(outputs)
                         if first.get(k) != outputs.get(k))
        problems.append(f"rerun differs in {changed}")
    return problems


def run_cli(inputs: dict, ctx: dict, tracer, p: Pass) -> None:
    ctx["pass"] += 1
    for command, preset in CLI_COMMANDS:
        out = ctx["dir"] / f"pass{ctx['pass']}" / f"{command}_{preset}"
        argv = [sys.executable, "-m", "nbfsir.cli", command, "--config", preset,
                "--out", str(out), "--seed", str(inputs["seed"])]
        if command == "region":
            argv.append("--svg")
        res = p.attempt(tracer, "cli.main", {"command": command, "preset": preset}, 1,
                        lambda: invoke(argv, out),
                        lambda r: check_invocation(r, command, preset, ctx, inputs))
        if res is not None:
            p.child_rss_mb.append(res.rss_mb)


# ---------------------------------------------------------------------------

def typical_pass(passes: list[Pass]) -> Pass:
    """A pass in which every operation takes its median time over the
    run's passes.  Other tenants of the host slow single operations now
    and then; such a slow-down drops out here, where it would stay in the
    sum of the pass it hit."""
    times: dict[int, list[float]] = {}
    first: dict[int, Op] = {}
    for p in passes:
        for op in p.ops:
            times.setdefault(op.index, []).append(op.seconds)
            first.setdefault(op.index, op)
    return Pass(ops=[first[i]._replace(seconds=statistics.median(times[i]))
                     for i in sorted(times)])


@dataclass(frozen=True)
class Workload:
    setup: Callable
    prepare: Callable
    run: Callable
    latency: Callable[[Pass], float]   # seconds a user waits per operation
    min_passes: int = 1
    in_children: bool = False   # peak RSS is the CLI processes', not ours


def _mean(name: str) -> Callable[[Pass], float]:
    return lambda p: statistics.mean(p.seconds_of(name))


# op_latency_s is the mean call on the in-process workloads, since single
# calls vary by about 10 % on a shared host, and the median command on
# cli-cold.  Three passes at least where a pass is short.
WORKLOADS = {
    "region-scan": Workload(
        setup_region, prepare_region, run_region, _mean("stability.scan_region")),
    "unimodality-ensemble": Workload(
        setup_unimodality, prepare_unimodality, run_unimodality,
        lambda p: (sum(p.seconds_of("transient.verify_unimodality"))
                   / p.units_of("transient.verify_unimodality")),
        min_passes=3),
    "multiwave-search": Workload(
        setup_multiwave, prepare_multiwave, run_multiwave,
        _mean("transient.search_multimodal_ic")),
    # every run also checks that reruns are byte-identical
    "cli-cold": Workload(
        setup_cli, prepare_cli, run_cli,
        lambda p: statistics.median(p.seconds_of("cli.main")),
        min_passes=3, in_children=True),
}
