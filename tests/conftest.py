"""Shared oracles for the test suite.

Every helper here is an independent route to a quantity the package
computes internally: a closed-form 2x2 dominant eigenvalue, a textbook
fixed-step RK4 integrator, and a bisection solver for the scalar
final-size equation.  Tests compare package output against these, never
against the package's own machinery.  The helpers are deliberately
simple and slow."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from nbfsir import ModelParams

# pythonpath = ["src"] in pyproject.toml puts the checkout's package on
# this process's path; the subprocess tests (`python -m nbfsir.cli`) get
# it through PYTHONPATH, so a plain `python -m pytest` runs from a checkout
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                  os.environ.get("PYTHONPATH")]))

# One line per acceptance criterion, filled in by the acceptance tests as
# they run and echoed after the run summary, where output capture cannot
# swallow them.
ACCEPTANCE_LINES: dict[int, str] = {}


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for number in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(ACCEPTANCE_LINES[number])


def lam_2x2(a_matrix: np.ndarray, x: np.ndarray) -> float:
    """Closed-form dominant eigenvalue of diag(x) @ A for 2x2 nonnegative A.

    With A = [[a, b], [c, d]] and determinant D = a*d - b*c, the matrix
    diag(x) A has trace a*x1 + d*x2 and determinant D*x1*x2, so its
    dominant root is s/2 + sqrt((s/2)^2 - D*x1*x2) with s the trace.
    The radicand (a*x1 - d*x2)^2 + 4*b*c*x1*x2 is nonnegative for
    nonnegative entries, so the root is always real.
    """
    (a, b), (c, d) = np.asarray(a_matrix, dtype=float)
    x1, x2 = np.asarray(x, dtype=float)
    half_trace = 0.5 * (a * x1 + d * x2)
    det = (a * d - b * c) * x1 * x2
    return half_trace + np.sqrt(max(half_trace * half_trace - det, 0.0))


def rk4_path(params: ModelParams, x0: np.ndarray, y0: np.ndarray,
             t_end: float, n_steps: int
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-step classical RK4 on the susceptible/infected flow.

    Returns the sample times and the (x, y) state at every step, each
    with n_steps + 1 rows.  No clamping, no adaptivity - a plain
    textbook reference route for cross-checking the adaptive integrator.
    """
    spec = params.interaction
    gamma = params.gamma

    def rhs(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a = spec.evaluate(x, y, check=False)
        v = x * (a @ y)
        return -v, v - gamma * y

    h = t_end / n_steps
    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float)
    xs = [x]
    ys = [y]
    for _ in range(n_steps):
        k1x, k1y = rhs(x, y)
        k2x, k2y = rhs(x + 0.5 * h * k1x, y + 0.5 * h * k1y)
        k3x, k3y = rhs(x + 0.5 * h * k2x, y + 0.5 * h * k2y)
        k4x, k4y = rhs(x + h * k3x, y + h * k3y)
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        xs.append(x)
        ys.append(y)
    return h * np.arange(n_steps + 1), np.array(xs), np.array(ys)


def rk4_reference(params: ModelParams, x0: np.ndarray, y0: np.ndarray,
                  t_end: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The final (x, y) of rk4_path."""
    _, xs, ys = rk4_path(params, x0, y0, t_end, n_steps)
    return xs[-1], ys[-1]


def scalar_final_size(x0: float, y0: float, beta: float, gamma: float) -> float:
    """Root of x* = x0 * exp(-(beta/gamma) * (x0 + y0 - x*)) by bisection.

    This is the classical single-population final-size relation; the
    root is unique in (0, x0) when beta/gamma * x0 > 1.
    """
    r0 = beta / gamma

    def func(x_star: float) -> float:
        return x_star - x0 * np.exp(-r0 * (x0 + y0 - x_star))

    lo, hi = 1e-12, x0
    if func(lo) > 0 or func(hi) < 0:
        raise AssertionError("final-size bracket failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if func(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
