"""Reference computations for the benchmark's correctness checks.

None of these call into nbfsir: the closed-form Perron roots, the
fixed-step RK4 and the hysteresis counter are written out here from the
model equations, so a check compares the package against an independent
route and never against a stored copy of the package's own output.
"""

from __future__ import annotations

import numpy as np


def lam_2x2(matrix, x1, x2):
    """Dominant eigenvalue of diag(x) A for a nonnegative 2x2 A.

    diag(x) A has trace a*x1 + d*x2 and determinant (ad - bc) x1 x2; the
    radicand is (a*x1 - d*x2)^2 + 4bc x1 x2 >= 0, so the root is real.
    """
    (a, b), (c, d) = np.asarray(matrix, dtype=float)
    half = 0.5 * (a * np.asarray(x1) + d * np.asarray(x2))
    det = (a * d - b * c) * np.asarray(x1) * np.asarray(x2)
    return half + np.sqrt(np.maximum(half * half - det, 0.0))


def threshold_function(name: str, matrix=None):
    """lambda(x1, x2) of a two-node preset in closed form.

    example3 (A_ij = (1 + x_i) f_j(y_j), f_j(0) = 1) is rank one with
    Perron root sum x_i (1 + x_i); example4 (A_ij = (2 - x_i) / (1 + y1 + y2))
    likewise gives sum x_i (2 - x_i).  The constant presets use lam_2x2.
    """
    if name == "example3":
        return lambda x1, x2: x1 * (1.0 + x1) + x2 * (1.0 + x2)
    if name == "example4":
        return lambda x1, x2: x1 * (2.0 - x1) + x2 * (2.0 - x2)
    return lambda x1, x2: lam_2x2(matrix, x1, x2)


def best_stable_mean(lam_fn, gamma: float, resolution: int = 2001,
                     rows: int = 128) -> float:
    """Largest mean(x) over grid points with lambda(x) <= gamma, evaluated
    a block of rows at a time so the check adds little to peak memory."""
    axis = np.linspace(0.0, 1.0, resolution)
    best = -np.inf
    for lo in range(0, resolution, rows):
        x1, x2 = np.meshgrid(axis[lo:lo + rows], axis, indexing="ij")
        feasible = lam_fn(x1, x2) <= gamma + 1e-9
        if feasible.any():
            best = max(best, float((0.5 * (x1 + x2))[feasible].max()))
    return best


def rank1_rhs(gp, gq, fp, falpha, gamma: float):
    """Flow for A_ij = (gp_i + gq_i x_i) * fp_j / (1 + falpha_j y_j).

    The incidence of node i is x_i g_i(x_i) * sum_j f_j(y_j) y_j.
    """
    gp, gq, fp, falpha = (np.asarray(v, dtype=float) for v in (gp, gq, fp, falpha))

    def rhs(x, y):
        v = x * (gp + gq * x) * np.sum(fp * y / (1.0 + falpha * y))
        return -v, v - gamma * y
    return rhs


def outer_rhs(scale: float, gamma: float):
    """Flow for A = scale (1 - x) y^T: incidence x_i scale (1 - x_i) sum_j y_j^2."""

    def rhs(x, y):
        v = scale * x * (1.0 - x) * np.dot(y, y)
        return -v, v - gamma * y
    return rhs


def rk4(rhs, x0, y0, t_end: float, h_max: float):
    """Classical fixed-step RK4 from 0 to t_end with steps of at most h_max.

    Returns the states at every step as two (steps + 1, n) arrays.
    """
    steps = max(1, int(np.ceil(t_end / h_max)))
    h = t_end / steps
    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float)
    xs = np.empty((steps + 1, len(x)))
    ys = np.empty((steps + 1, len(y)))
    xs[0], ys[0] = x, y
    for k in range(1, steps + 1):
        k1x, k1y = rhs(x, y)
        k2x, k2y = rhs(x + 0.5 * h * k1x, y + 0.5 * h * k1y)
        k3x, k3y = rhs(x + 0.5 * h * k2x, y + 0.5 * h * k2y)
        k4x, k4y = rhs(x + h * k3x, y + h * k3y)
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        xs[k], ys[k] = x, y
    return xs, ys


def count_maxima(values, noise_tol: float) -> int:
    """Local maxima that rise from the preceding low and fall to the
    following low by more than noise_tol * max(values)."""
    values = np.asarray(values, dtype=float)
    theta = noise_tol * max(float(values.max()), 0.0)
    count = 0
    rising = False
    lo = hi = values[0]
    for v in values[1:]:
        if rising:
            if v > hi:
                hi = v
            elif hi - v > theta:
                count += 1
                rising = False
                lo = v
        elif v < lo:
            lo = v
        elif v - lo > theta:
            rising = True
            hi = v
    return count


def feasibility_problems(x, y, tol: float = 1e-12) -> list[str]:
    """Violations of x >= 0, y >= 0, x + y <= 1 over a set of states."""
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    out = []
    if x.min() < -tol:
        out.append(f"x < 0 (min {x.min():.3g})")
    if y.min() < -tol:
        out.append(f"y < 0 (min {y.min():.3g})")
    if (x + y).max() > 1.0 + tol:
        out.append(f"x + y > 1 (max {(x + y).max():.17g})")
    return out
