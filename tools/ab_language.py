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
  ``metadata.json``, the exit status and stderr.

It prints, per check, how many cases are equal and lists the ones that
differ.  Two kinds of difference are intended and counted apart: a
source whose infinite literal the head refuses, where the base read it
as inf or failed later in the source; and a source with trailing
whitespace, on which the base's tokenizer raised IndexError.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
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
    Path(out).write_text(json.dumps(lines))


def _offset(result: str) -> int:
    match = re.search(r"\(offset (\d+)\)$", result)
    return int(match.group(1)) if match else -1


def _refused_literal(base: str, head: str) -> bool:
    """The head refuses an infinite literal where the base read it as inf,
    or failed later in the source."""
    return "beyond the float range" in head and (
        "value=inf" in base or _offset(base) > _offset(head))


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
    for check in ("parse", "eval", "cli"):
        pairs = [(k, b, h) for (c, k, b), (_, _, h) in zip(base, head) if c == check]
        differ = [(k, b, h) for k, b, h in pairs if b != h]
        overflow = [d for d in differ if _refused_literal(*d[1:])]
        crashed = [d for d in differ if d[1] == "IndexError"]
        other = [d for d in differ if d not in overflow and d not in crashed]
        print(f"{check}: {len(pairs)} cases, {len(pairs) - len(differ)} equal, "
              f"{len(overflow)} infinite literals now refused, {len(crashed)} "
              f"base IndexErrors on trailing whitespace, {len(other)} other differences")
        for k, b, h in other[:40]:
            print(f"  {k}\n    base: {b}\n    head: {h}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
