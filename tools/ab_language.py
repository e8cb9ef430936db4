"""Compare two source trees on the scenario input language and the CLI.

    python tools/ab_language.py --base OLD/src [--head src]
                                [--sources 150000] [--evals 60000]

Each tree runs in its own process (this script with ``--worker``), on
the same seeded cases:

- generated sources, valid and broken, through ``parse_expression`` at
  n = 1, 2, 3 and ``parse_scalar``: the AST's repr, or the error's type,
  message and offset;
- generated valid expressions over n = 2, evaluated on states of shape
  (7, 2) and (2,) and on the zero state: the result's dtype, shape and
  bytes, or the ``EvaluationError`` message;
- ``cli.main`` for every subcommand, preset and format, ``region --svg``,
  and a few configs that the loader refuses: every file's bytes but
  ``metadata.json``, the exit status and stderr;
- library results over every interaction kind: ``search_multimodal_ic``
  on five kernels at four seeds, with each reported curve;
  ``verify_unimodality`` on six specs at five seeds; ``_screen`` over
  400 mixture starts; ``integrate_batch`` on a spec of each kind, with
  starts above and below the threshold; the ``_dfe_roots`` roots and
  verdicts of the same specs; and, last, budget-10 000 searches at seeds
  1-5 (the benchmark's ``OuterProduct(8.0, 5)`` and ``example5``, and the
  closed-form ``reciprocal`` spec of the verifications), once on the pool
  and once with the worker pinned to one core, where the rows that
  ``_unsure`` sends back to be integrated again and the step attempts
  (``BatchRuns.counts``) are counted.

Every result is compared as a digest, except the curves of the searches
and screens: their times and values are kept whole, so one curve can be
checked to be the other's first samples.

It prints, per check, how many cases are equal and lists the ones that
differ.  Four kinds of difference are intended and counted apart: a
source whose infinite literal the head refuses, where the base read it
as inf or failed later in the source; a source with trailing
whitespace, on which the base's tokenizer raised IndexError; a refused
config whose syntax error the head names by its field, where the base
gave the same error bare; and a search or screen whose report is the
same but whose curves end sooner or later, each a prefix of the other.
It also prints, per tree, how many rows ``_unsure`` named and how many
steps were attempted, accepted or rejected, in each one-core search.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

_NUMBERS = ["0", "1", "2", "3", "10", ".5", "2.", "0.1", "1e3", "2.5E-2",
            "1e999", "1e-999", "1.7976931348623157e308"]
_NAMES = ["x1", "x2", "x3", "y1", "y2", "y3", "x0", "x4", "u", "x", "y", "foo"]
_FUNCS = ["exp", "log", "sqrt", "abs", "min", "max"]
_OPS = list("+-*/^(),")
_ODD = ["@", "#", "!", "1e", "e5", "3x1"]


def _tree(rng: random.Random, depth: int, names) -> str:
    """A random well-formed expression, spaced and parenthesized at random."""
    sp = lambda: rng.choice(["", "", " "])  # noqa: E731
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return rng.choice(_NUMBERS[:10] + names)
    if roll < 0.4:
        return f"-{sp()}{_tree(rng, depth - 1, names)}"
    if roll < 0.55:
        func = rng.choice(_FUNCS)
        args = [_tree(rng, depth - 1, names)
                for _ in range(2 if func in ("min", "max") else 1)]
        return f"{func}({sp()}{f',{sp()}'.join(args)})"
    if roll < 0.65:
        return f"({_tree(rng, depth - 1, names)})"
    op = rng.choice("+-*/^")
    return f"{_tree(rng, depth - 1, names)}{sp()}{op}{sp()}{_tree(rng, depth - 1, names)}"


def _source(rng: random.Random) -> str:
    if rng.random() < 0.4:
        vocab = _NUMBERS + _NAMES + _FUNCS + _OPS * 3 + _ODD
        return rng.choice(["", " "]).join(rng.choice(vocab)
                                          for _ in range(rng.randint(0, 12)))
    text = _tree(rng, rng.randint(0, 5), _NAMES[:6] + ["u", "x", "y"])
    if text and rng.random() < 0.3:  # drop or replace one character
        k = rng.randrange(len(text))
        text = text[:k] + rng.choice(["", rng.choice(_OPS + ["1", "x1"])]) + text[k + 1:]
    return text


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _library(lines: list) -> None:
    """Digests of library results, one line each, on every interaction kind."""
    import numpy as np

    from nbfsir import (Affine, Constant, ExpressionFunction, ExpressionMatrix,
                        IntegratorOptions, ModelParams, OuterProduct, Rank1Local,
                        ReciprocalAffine, ScalarScaled, preset,
                        search_multimodal_ic, transient, verify_unimodality)
    from nbfsir.integrate import integrate_batch
    from nbfsir.stability import _dfe_roots
    from nbfsir.transient import DEFAULT_NOISE_TOL, _sample_mixture, _screen

    def digest(*parts) -> str:
        sha = hashlib.sha256()
        for part in parts:
            if isinstance(part, np.ndarray):
                part = f"{part.dtype} {part.shape} {part.tobytes().hex()}"
            sha.update(str(part).encode())
        return sha.hexdigest()[:16]

    def add(label: str, *parts) -> None:
        lines.append(("library", label, digest(*parts)))

    def add_curves(label: str, curves, *parts) -> None:
        """parts as a digest, and each curve's times and values whole."""
        lines.append(("library", label, json.dumps({
            "digest": digest(*parts, *(json.dumps(c.as_dict(), sort_keys=True)
                                       for c in curves)),
            "curves": [[c.times.tobytes().hex(), c.values.tobytes().hex()]
                       for c in curves]})))

    # every node function meets the unimodality hypotheses
    mixed = Rank1Local(
        (Affine(1.2, 0.5), ReciprocalAffine(2.0, 0.7), ExpressionFunction("1 + u^2")),
        (ReciprocalAffine(1.0, 1.5), ReciprocalAffine(0.5, 0.2),
         ExpressionFunction("1/(1 + u)")))
    # both closed forms in each factor, with a concave g and a falling
    # affine f: every constant of the closed-form bounds is in play
    closed = Rank1Local((Affine(1.0, -0.4), ReciprocalAffine(1.5, 0.5)),
                        (Affine(1.0, -0.3), ReciprocalAffine(1.0, 0.5)))
    kernels = {"strong": OuterProduct(8.0, 5), "example5": preset("example5").interaction,
               "example3": preset("example3").interaction, "mixed": mixed,
               "closed": closed}
    for name, spec in kernels.items():
        for seed in range(1, 5):
            report = search_multimodal_ic(spec, 1.0, 2100, seed)
            add_curves(f"search {name} seed {seed}", [report.curve], report.best_state.x,
                       report.best_state.y, json.dumps(report.as_dict(), sort_keys=True))
    checked = {
        "example3": kernels["example3"], "mixed": mixed, "closed": closed,
        "affine": Rank1Local((Affine(1.0, 1.0),) * 2, (Affine(1.0, 0.0),) * 2),
        "reciprocal": Rank1Local((Affine(0.5, 2.0),) * 3, (ReciprocalAffine(2.0, 1.0),) * 3),
        "expression": Rank1Local((ExpressionFunction("2 - u"),) * 2,
                                 (ExpressionFunction("exp(-u)"),) * 2)}
    for name, spec in checked.items():
        for seed in range(5):
            report = verify_unimodality(spec, 1.0, 100, seed)
            add(f"verify {name} seed {seed}", json.dumps(report.as_dict(), sort_keys=True))
    for name in ("strong", "mixed"):
        spec = kernels[name]
        xs, ys = _sample_mixture(np.random.default_rng(11), 400, spec.n)
        codes, top = _screen(ModelParams(gamma=1.0, interaction=spec),
                             np.hstack([xs, np.minimum(ys, 1.0 - xs)]),
                             DEFAULT_NOISE_TOL, IntegratorOptions(), 8)
        add_curves(f"screen {name}", list(top.values()), codes, *top)
    kinds = {
        "constant": Constant(np.random.default_rng(1).uniform(0.0, 2.0, size=(3, 3))),
        "rank1_local": mixed,
        "scalar_scaled": ScalarScaled((ExpressionFunction("2 - u"), Affine(1.0, 0.5),
                                       ReciprocalAffine(1.0, 1.0)), "1 + y1 + y2*y3"),
        "outer_product": OuterProduct(8.0, 3),
        "expression_matrix": ExpressionMatrix([["1 + x1", "y2", "x3*y1"],
                                               ["x2", "2", "1 / (1 + y3)"],
                                               ["y1 + y2", "x1*x2", "exp(-y3)"]]),
    }
    for name, spec in kinds.items():
        params = ModelParams(gamma=1.0, interaction=spec)
        rng = np.random.default_rng(5)
        xs, ys = _sample_mixture(rng, 40, 3)
        # low susceptible fractions put most of these below the epidemic
        # threshold, and some infections start below the convergence one
        low = rng.uniform(0.0, 0.2, size=(20, 3))
        starts = np.vstack([np.hstack([xs, np.minimum(ys, 1.0 - xs)]),
                            np.hstack([low, 10.0 ** rng.uniform(-14.0, -6.0, size=(20, 3))])])
        runs = integrate_batch(params, starts)
        add(f"integrate_batch {name}", runs.times, runs.samples, runs.offsets,
            runs.converged, runs.counts)
        y = starts[:, 3:] * (rng.uniform(size=(60, 3)) < 0.7)
        roots = _dfe_roots(params, starts[:, :3], y)
        add(f"_dfe_roots {name}", roots, roots <= params.gamma)
    # searches whose 10 000 starts make several blocks: on the pool, then
    # pinned to one core, where they screen in process, so the rows
    # _unsure names and the step attempts of every batch can be counted
    named, attempts = [0], [0]
    unsure, batch_runs = transient._unsure, transient.integrate_batch

    def counted(batch, retired):
        rows = unsure(batch, retired)
        named[0] += len(rows)
        return rows

    def stepped(*args, **kwargs):
        runs = batch_runs(*args, **kwargs)
        # accepted steps and the three kinds of rejected ones
        attempts[0] += int(runs.counts[[0, 2, 3, 4]].sum())
        return runs

    wide = {"strong": kernels["strong"], "example5": kernels["example5"],
            "reciprocal": checked["reciprocal"]}
    for cores in ("pool", "one core"):
        if cores == "one core":
            os.sched_setaffinity(0, {0})
            transient._unsure, transient.integrate_batch = counted, stepped
        for name, spec in wide.items():
            for seed in range(1, 6):
                named[0] = attempts[0] = 0
                report = search_multimodal_ic(spec, 1.0, 10_000, seed)
                label = f"search {name} budget 10000 seed {seed} {cores}"
                add_curves(label, [report.curve], report.best_state.x,
                           report.best_state.y,
                           json.dumps(report.as_dict(), sort_keys=True))
                if cores == "one core":
                    lines.append(("unsure", label, named[0]))
                    lines.append(("steps", label, attempts[0]))


def _worker(src: str, n_sources: int, n_evals: int, out: str) -> None:
    sys.path.insert(0, src)
    import numpy as np

    from nbfsir import cli
    from nbfsir.errors import EvaluationError, NBFSIRError
    from nbfsir.expr import evaluate, parse_expression, parse_scalar

    lines = []

    def parsed(call, text):
        try:
            return repr(call(text))
        except NBFSIRError as exc:
            return f"{type(exc).__name__}: {exc}"
        except (RecursionError, IndexError) as exc:
            return type(exc).__name__

    rng = random.Random(2026)
    for k in range(n_sources):
        text = _source(rng)
        for label, call in (("n1", lambda s: parse_expression(s, 1)),
                            ("n2", lambda s: parse_expression(s, 2)),
                            ("n3", lambda s: parse_expression(s, 3)),
                            ("scalar", parse_scalar)):
            lines.append(("parse", f"{k}.{label} {text!r}", parsed(call, text)))

    rng = random.Random(7)
    state = np.random.default_rng(7)
    states = [(state.uniform(0, 1, (7, 2)), state.uniform(0, 1, (7, 2))),
              (state.uniform(0, 1, 2), state.uniform(0, 1, 2)),
              (np.zeros(2), np.zeros(2))]
    names = ["x1", "x2", "y1", "y2"]
    for k in range(n_evals):
        text = _tree(rng, rng.randint(1, 5), names)
        node = parse_expression(text, 2)
        for j, (x, y) in enumerate(states):
            try:
                out_ = evaluate(node, x, y)
                result = f"{out_.dtype} {out_.shape} {out_.tobytes().hex()}"
            except EvaluationError as exc:
                result = f"EvaluationError: {exc}"
            lines.append(("eval", f"{k}.{j} {text!r}", _digest(result)))

    refused = [
        {"integrator": {"rel_tol": -1.0}}, {"integrator": {"t_max": 0}},
        {"integrator": {"abs_tol": "x"}}, {"analysis": {"seed": "x"}},
        {"analysis": {"x_star": [True, 0.5]}},
        {"model": {"n": 1, "gamma": 1.0, "interaction": {
            "kind": "rank1_local", "n": 1, "g": "1 + u/1e999", "f": "1"}}},
        {"model": {"n": 1, "gamma": 1.0, "interaction": {
            "kind": "rank1_local", "n": 1, "g": "+".join(["u"] * 1000), "f": "1"}}},
    ]
    runs = [[cmd, "--config", preset, *extra]
            for preset in sorted(cli.PRESET_NAMES)
            for cmd, extra in (("simulate", ["--format", "csv"]),
                               ("simulate", ["--format", "json"]),
                               ("transient", ["--format", "csv"]),
                               ("transient", ["--format", "json"]),
                               ("stability", []), ("region", []),
                               ("region", ["--svg"]), ("check", []))]
    with tempfile.TemporaryDirectory() as tmp:
        for k, change in enumerate(refused):
            scenario = {"model": {"n": 1, "gamma": 1.0, "interaction": {
                "kind": "constant", "matrix": [[1.0]]}}, **change}
            path = Path(tmp) / f"refused{k}.json"
            path.write_text(json.dumps(scenario))
            runs.append(["check", "--config", str(path)])
        for k, argv in enumerate(runs):
            out_dir = Path(tmp) / f"run{k}"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                status = cli.main([*argv, "--out", str(out_dir)])
            files = {p.name: _digest(p.read_text())
                     for p in sorted(out_dir.iterdir()) if p.name != "metadata.json"}
            label = " ".join(a if "/" not in a else Path(a).name for a in argv)
            lines.append(("cli", label, json.dumps(
                {"status": status, "stderr": err.getvalue(), "files": files},
                sort_keys=True)))
    _library(lines)
    Path(out).write_text(json.dumps(lines))


def _offset(result: str) -> int:
    match = re.search(r"\(offset (\d+)\)$", result)
    return int(match.group(1)) if match else -1


def _refused_literal(base: str, head: str) -> bool:
    """The head refuses an infinite literal where the base read it as inf,
    or failed later in the source."""
    return "beyond the float range" in head and (
        "value=inf" in base or _offset(base) > _offset(head))


def _named_field(base: str, head: str) -> bool:
    """A cli run whose syntax error the head names by its config field,
    where the base reported it bare; only error.json may differ."""
    try:
        base, head = json.loads(base), json.loads(head)
        bare, named = (json.loads(run["stderr"]) for run in (base, head))
    except (ValueError, KeyError):
        return False
    where = re.match(r"interaction\.[\w\[\]]+: ", named.get("message", ""))
    others = [name for name in {**base["files"], **head["files"]}
              if name != "error.json" and base["files"].get(name) != head["files"].get(name)]
    return bool(where and bare["error"] == named["error"] == "ExpressionSyntaxError"
                and named["message"] == where.group() + bare["message"]
                and base["status"] == head["status"] and not others)


def _curves_prefix(base: str, head: str) -> bool:
    """A search or screen with the same report, whose every curve is the
    other tree's first samples, or starts with them, and one differs."""
    try:
        base, head = json.loads(base), json.loads(head)
        curves = list(zip(base["curves"], head["curves"], strict=True))
    except (ValueError, KeyError, TypeError):
        return False
    return (base["digest"] == head["digest"]
            and all(b.startswith(h) or h.startswith(b)
                    for pair in curves for b, h in zip(*pair))
            and base["curves"] != head["curves"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent's src directory")
    parser.add_argument("--head", default="src", help="the change's src directory")
    parser.add_argument("--sources", type=int, default=150_000)
    parser.add_argument("--evals", type=int, default=60_000)
    parser.add_argument("--worker", nargs=2, metavar=("SRC", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        _worker(args.worker[0], args.sources, args.evals, args.worker[1])
        return 0
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, src in enumerate((args.base, args.head)):
            out = str(Path(tmp) / f"{k}.json")
            subprocess.run([sys.executable, __file__, "--base", args.base, "--worker",
                            str(Path(src).resolve()), out, "--sources",
                            str(args.sources), "--evals", str(args.evals)],
                           check=True)
            results.append(json.loads(Path(out).read_text()))
    base, head = results
    assert [(c, k) for c, k, _ in base] == [(c, k) for c, k, _ in head]
    for check in ("parse", "eval", "cli", "library"):
        pairs = [(k, b, h) for (c, k, b), (_, _, h) in zip(base, head) if c == check]
        differ = [(k, b, h) for k, b, h in pairs if b != h]
        overflow = [d for d in differ if _refused_literal(*d[1:])]
        crashed = [d for d in differ if d[1] == "IndexError"]
        named = [d for d in differ if check == "cli" and _named_field(*d[1:])]
        prefix = [d for d in differ if check == "library" and _curves_prefix(*d[1:])]
        other = [d for d in differ if d not in overflow + crashed + named + prefix]
        print(f"{check}: {len(pairs)} cases, {len(pairs) - len(differ)} equal, "
              f"{len(overflow)} infinite literals now refused, {len(crashed)} "
              f"base IndexErrors on trailing whitespace, {len(named)} syntax errors "
              f"now named by field, {len(prefix)} same reports whose curves end "
              f"sooner or later, {len(other)} other differences")
        for k, b, h in other[:40]:
            print(f"  {k}\n    base: {b[:300]}\n    head: {h[:300]}")
    for name, lines in (("base", base), ("head", head)):
        runs = {k: d for c, k, d in lines if c == "library"}
        pooled = [k for k in runs if k.endswith(" pool")]
        same = sum(runs[k] == runs[k[:-len("pool")] + "one core"] for k in pooled)
        print(f"{name}: {same} of {len(pooled)} searches equal on the pool and on one core")
        for kernel in ("strong", "example5", "reciprocal"):
            for kind, what in (("unsure", "rows _unsure named"), ("steps", "step attempts")):
                counts = [count for c, k, count in lines
                          if c == kind and k.startswith(f"search {kernel} ")]
                print(f"{name}: {what} per one-core {kernel} search: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
