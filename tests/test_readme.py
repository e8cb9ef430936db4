"""The README's Python quick start runs and prints what it says, and its
configuration schema loads with the documented defaults."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from nbfsir import AnalysisOptions, IntegratorOptions, config_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (Python)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_python_quick_start_numbers(capsys):
    source = _quick_start()
    scope: dict = {}
    exec(compile(source, str(README), "exec"), scope)
    capsys.readouterr()
    traj, report = scope["traj"], scope["report"]
    curve, region = scope["curve"], scope["region"]
    # each printed line, at the precision the README shows it
    expected = [
        f"# {traj.terminal} {traj.times[-1]:.2f} {np.round(traj.x[-1], 3)}",
        f"# {report.classification} {report.lambda_max:.3f}",
        f"# {curve.shape} {curve.peak_time:.3f}",
        f"# {region.classes.shape} {len(region.x_star_set)}",
    ]
    assert expected == [
        "# TerminalStatus.CONVERGED 40.73 [0.146 0.146]",
        "# Classification.STABLE 0.335",
        "# Shape.UNIMODAL 1.611",
        "# (201, 201) 1",
    ]
    comments = [line for line in source.splitlines() if line.startswith("# ")]
    for line in expected:
        assert any(c.startswith(line) for c in comments), line


def test_configuration_schema_shows_the_defaults():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Configuration schema", 1)[1]
    block = re.search(r"```jsonc\n(.*?)```", section, re.S).group(1)
    cfg = config_from_dict(json.loads(re.sub(r"//.*", "", block)))
    assert cfg.integrator == IntegratorOptions()
    assert cfg.analysis == AnalysisOptions()
