"""List the lines of the package that no test runs: a pytest plugin.

    PYTHONPATH=src:tools python -m pytest -p linetrace [pytest args]

It records every line of ``src/nbfsir`` that runs while the suite runs,
with ``sys.settrace`` for the main thread and ``threading.settrace`` for
threads started later, and at the end prints each line of source that no
test ran, as ``path:line: source``.  The lines that count are those the
compiler gives an instruction, so blank lines, comments and docstrings
never show, and neither does a line that is only ``...``.  It needs
nothing beyond the standard library.  The suite takes about twice as
long under it, so it is not part of the tests.

The search's screen runs on forked workers, which inherit the tracer and
leave through ``os._exit``, skipping every exit hook.  So the plugin
wraps ``os._exit``: a forked process writes its hits to a file first,
and the pytest process reads them all at the end.  Other subprocesses,
such as the few CLI tests that start ``python -m nbfsir.cli``, are not
traced: a line that only they reach is listed as not run.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "src" / "nbfsir"

_hits: set[tuple[str, int]] = set()
_traced: dict[types.CodeType, str | None] = {}  # code -> its file, if in ROOT
_parent = os.getpid()
_spool = tempfile.mkdtemp(prefix="linetrace-")
_real_exit = os._exit


def _file(code: types.CodeType) -> str | None:
    path = _traced.get(code, "")
    if path == "":
        path = os.path.realpath(code.co_filename)
        path = _traced[code] = path if path.startswith(str(ROOT) + os.sep) else None
    return path


def _local(frame, event, arg):
    if event == "line":
        _hits.add((_traced[frame.f_code], frame.f_lineno))
    return _local


def _global(frame, event, arg):
    path = _file(frame.f_code)
    if path is None:
        return None
    _hits.add((path, frame.f_lineno))
    return _local


def _exit(status):
    # a forked worker: hand its hits to the pytest process before leaving
    if os.getpid() != _parent:
        sys.settrace(None)
        with open(os.path.join(_spool, f"{os.getpid()}.txt"), "w") as fh:
            fh.writelines(f"{path}\t{line}\n" for path, line in _hits)
    _real_exit(status)


def _lines(code: types.CodeType) -> set[int]:
    """The lines of code and of the code objects nested in it."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            out |= _lines(const)
    return out


# installed as pytest loads the plugin, before the conftest files that
# import the package
os._exit = _exit
threading.settrace(_global)
sys.settrace(_global)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)
    os._exit = _real_exit
    shutil.rmtree(_spool, ignore_errors=True)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    hits = set(_hits)
    for name in os.listdir(_spool):
        with open(os.path.join(_spool, name)) as fh:
            for row in fh:
                path, line = row.rstrip("\n").split("\t")
                hits.add((path, int(line)))
    write = terminalreporter.write_line
    write("")
    write("lines of src/nbfsir that no test ran (linetrace)")
    total = 0
    for path in sorted(ROOT.rglob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        # a line that is only ..., an abstract method's body, never runs
        missed = sorted(line for line in _lines(compile(source, str(path), "exec"))
                        if (str(path), line) not in hits and 0 < line <= len(text)
                        and text[line - 1].strip() != "...")
        total += len(missed)
        for line in missed:
            write(f"{path.relative_to(ROOT.parent.parent)}:{line}: {text[line - 1].strip()}")
    write(f"{total} lines not run")
