#!/usr/bin/env python3
"""Benchmark of the nbfsir toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from ./src.
Workloads: region-scan, unimodality-ensemble, multiwave-search, cli-cold
(see perfbench/README.md).  With --trace 0 the run repeats whole passes of
the workload until S seconds have gone by and reports the end-to-end
metrics; with --trace 1 it makes one pass over every workload with spans
around each call into the package and reports the per-layer metrics.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exits 2 without a result when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="run the workload's setup, print 'ready' and exit")
    return parser.parse_args(argv)


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Time from starting a fresh interpreter until it has the workload's
    inputs ready: imports, config loading and validation, seeded inputs."""
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True)
    line = child.stdout.readline()
    seconds = time.perf_counter() - t0
    child.communicate()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup process exited {child.returncode}")
    return seconds


def measure(name: str, seed: int, seconds: float, run_dir: Path):
    from tracing import Tracer
    from workloads import WORKLOADS, Pass, typical_pass

    wl = WORKLOADS[name]
    setup_s = statistics.median(
        fresh_setup_seconds(name, seed) for _ in range(SETUP_SAMPLES))
    tracer = Tracer(enabled=False)
    inputs = wl.setup(seed, tracer)
    ctx = wl.prepare(inputs, run_dir)
    passes = []
    start = time.perf_counter()
    while len(passes) < wl.min_passes or time.perf_counter() - start < seconds:
        p = Pass()
        wl.run(inputs, ctx, tracer, p)
        passes.append(p)
    if wl.in_children:
        rss = statistics.median(max(p.child_rss_mb) for p in passes)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    typical = typical_pass(passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (typical.wall_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "throughput_per_s": (typical.items / typical.wall_s, "1/s"),
        "op_latency_s": (wl.latency(typical), "s"),
    }
    return passes, metrics


def trace(name: str, seed: int, run_dir: Path):
    import layers
    from tracing import Tracer
    from workloads import WORKLOADS, Pass

    tracer = Tracer(enabled=True)
    layers.fresh_process_spans(tracer)
    inputs, ctxs, passes = {}, {}, []
    for wname, wl in WORKLOADS.items():
        inputs[wname] = wl.setup(seed, tracer)
        ctxs[wname] = wl.prepare(inputs[wname], run_dir / wname)

    untraced = Pass()
    WORKLOADS[name].run(inputs[name], ctxs[name], Tracer(enabled=False), untraced)
    passes.append(untraced)
    traced = {}
    for wname, wl in WORKLOADS.items():
        traced[wname] = Pass()
        with tracer.span("pass", workload=wname):
            wl.run(inputs[wname], ctxs[wname], tracer, traced[wname])
        passes.append(traced[wname])

    info = layers.probe(tracer, seed, inputs["region-scan"], ctxs["region-scan"])
    metrics = layers.metrics(tracer, info)
    metrics["trace.overhead_s"] = (traced[name].wall_s - untraced.wall_s, "s")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{name}-seed{seed}.json")
    return passes, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nbfsir" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {SRC}", file=sys.stderr)
        return 2
    # Cap BLAS threads at the cores this process may use, before numpy loads;
    # children inherit the cap and import the package from this tree.
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        from tracing import Tracer
        WORKLOADS[args.workload].setup(args.seed, Tracer(enabled=False))
        print("ready", flush=True)
        return 0

    run_dir = OUT / f"run-{os.getpid()}"
    try:
        if args.trace:
            passes, metrics = trace(args.workload, args.seed, run_dir)
        else:
            passes, metrics = measure(args.workload, args.seed, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for key, (value, unit) in metrics.items():
        print(f"{key:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not any(p.wrong for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
