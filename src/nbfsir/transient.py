"""Aggregate infection curve, unimodality detection, and wave search.

For rank-1 local feedback the network-wide infection burden is the
scalar curve ybar(t) = sum_j f_j(y_j(t)) y_j(t).  When each node's
susceptibility gain u*g_i(u) increases and its transmission load
u*f_j(u) increases concavely, every trajectory's curve either falls
from the start or rises to a single peak and then falls.

detect_unimodality classifies sampled curves with a hysteresis rule so
integrator ripple is not mistaken for a second wave; it is the one-curve
case of classify_curves, which scans a stack of curves at once.
verify_unimodality stress-tests the single-peak dichotomy over random
initial conditions, and search_multimodal_ic hunts for initial
conditions whose curve shows repeated waves.  Both integrate their
starts in adaptive batches (integrate_batch) that record only ybar, the
search in blocks of fixed size, and re-check every multi-wave verdict
they report once at tenfold tighter tolerance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .core import EpidemicState, ModelParams
from .errors import UsageError
from .integrate import IntegratorOptions, Trajectory, integrate_batch
from .interaction import (InteractionSpec, _require_rank1_local, _ybar,
                          aggregate_values, check_unimodality_hypotheses)

__all__ = [
    "Shape",
    "Extremum",
    "AggregateCurve",
    "UnimodalityReport",
    "SearchReport",
    "aggregate_values",
    "aggregate_curve",
    "force_of_infection",
    "detect_unimodality",
    "classify_curves",
    "verify_unimodality",
    "search_multimodal_ic",
    "curve_to_csv",
]

DEFAULT_NOISE_TOL = 1e-6
# leaders of the multimodality search whose multi-wave verdicts are re-checked
_SEARCH_LEADERS = 8
# rows of the multimodality search integrated at once; bounds the memory
# of the step records, whatever the budget
_SEARCH_BLOCK = 2048


class Shape(enum.Enum):
    MONOTONE_DECREASING = "MonotoneDecreasing"
    UNIMODAL = "Unimodal"
    MULTIMODAL = "Multimodal"
    MONOTONE_INCREASING_TRUNCATED = "MonotoneIncreasingTruncated"


@dataclass(frozen=True)
class Extremum:
    kind: str  # "max" or "min"
    index: int
    time: float
    value: float

    def as_dict(self) -> dict:
        return {"kind": self.kind, "index": self.index,
                "time": self.time, "value": self.value}


@dataclass(frozen=True, eq=False)
class AggregateCurve:
    times: np.ndarray
    values: np.ndarray
    shape: Shape
    peak_time: float | None
    extrema: tuple[Extremum, ...]

    @property
    def n_maxima(self) -> int:
        return _maxima(self.extrema)

    def as_dict(self) -> dict:
        return {
            "shape": self.shape.value,
            "peak_time": self.peak_time,
            "extrema": [e.as_dict() for e in self.extrema],
        }


def _maxima(extrema) -> int:
    return sum(1 for e in extrema if e.kind == "max")


def _check_noise_tol(noise_tol: float) -> None:
    if not (np.isfinite(noise_tol) and noise_tol >= 0):
        raise UsageError(f"noise_tol must be finite and >= 0, got {noise_tol}")


# ---------------------------------------------------------------------------
# curve evaluation
# ---------------------------------------------------------------------------

def force_of_infection(spec: InteractionSpec, x, y) -> np.ndarray:
    """Per-pair infection pressure h_ij = x_i g_i(x_i) f_j(y_j) y_j.

    Row sums recover the incidence term of the flow, so dy/dt equals
    the row sums minus gamma*y.
    """
    _require_rank1_local(spec, "the force of infection")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rows = x * spec._gains(x)
    cols = spec._infectivities(y) * y
    return rows[..., :, None] * cols[..., None, :]


# ---------------------------------------------------------------------------
# shape detection
# ---------------------------------------------------------------------------

def _refine_peak(times: np.ndarray, values: np.ndarray, idx: int) -> float:
    """Vertex of the parabola through the three samples around idx."""
    if idx <= 0 or idx >= len(times) - 1:
        return float(times[idx])
    t0, t1, t2 = times[idx - 1], times[idx], times[idx + 1]
    v0, v1, v2 = values[idx - 1], values[idx], values[idx + 1]
    s1 = (v1 - v0) / (t1 - t0)
    s2 = (v2 - v1) / (t2 - t1)
    c = (s2 - s1) / (t2 - t0)
    if not np.isfinite(c) or c >= 0.0:
        return float(t1)
    t_star = 0.5 * (t0 + t1) - s1 / (2.0 * c)
    return float(min(max(t_star, t0), t2))


def detect_unimodality(times, values, noise_tol: float = DEFAULT_NOISE_TOL
                       ) -> tuple[Shape, float | None, tuple[Extremum, ...]]:
    """Classify a sampled curve as falling, single-peaked, multi-wave,
    or still rising when the record ends.

    Direction changes must move by more than noise_tol times the curve
    maximum before they count (hysteresis); each surviving change is
    reported as an interior extremum.  A single surviving maximum means
    a single peak, whose time is refined by a local quadratic fit.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape:
        raise UsageError(
            f"times and values must be matching vectors, got {times.shape} "
            f"and {values.shape}")
    if len(times) < 3:
        raise UsageError(f"need at least 3 samples, got {len(times)}")
    if not (np.diff(times) > 0).all():
        raise UsageError("times must be strictly increasing")
    if not np.isfinite(values).all():
        raise UsageError("values must be finite")
    _check_noise_tol(noise_tol)

    return classify_curves(times, values[None], noise_tol)[0]


def classify_curves(times, values, noise_tol: float = DEFAULT_NOISE_TOL
                    ) -> list[tuple[Shape, float | None, tuple[Extremum, ...]]]:
    """The rule of detect_unimodality run over a (B, T) stack of curves
    at once, without input checks; times is (T,) or (B, T).

    A row shorter than T is padded with its last value, which adds no
    extremum.  Rows of one or two samples are classified by their
    endpoints: rising by more than the noise margin means still rising.
    """
    values = np.asarray(values, dtype=float)
    times = np.broadcast_to(np.asarray(times, dtype=float), values.shape)
    rows, size = values.shape
    theta = noise_tol * np.clip(values.max(axis=1), 0.0, None)
    direction = np.zeros(rows, dtype=np.int64)  # 0 unknown, +1 rising, -1 falling
    hi = np.zeros(rows, dtype=np.intp)  # running maximum since the last turn
    lo = np.zeros(rows, dtype=np.intp)  # running minimum since the last turn
    top = values[:, 0].copy()
    bottom = values[:, 0].copy()
    extrema: list[list[Extremum]] = [[] for _ in range(rows)]
    for k in range(1, size):
        v = values[:, k]
        hi = np.where(v > top, k, hi)
        top = np.maximum(top, v)
        lo = np.where(v < bottom, k, lo)
        bottom = np.minimum(bottom, v)
        up = (direction != 1) & (v - bottom > theta)
        down = ~up & (direction != -1) & (top - v > theta)
        turned = up | down
        if not turned.any():
            continue
        # a turn after an earlier one closes the extremum between them
        for r in np.flatnonzero(turned & (direction != 0)):
            kind, i = ("min", int(lo[r])) if up[r] else ("max", int(hi[r]))
            extrema[r].append(
                Extremum(kind, i, float(times[r, i]), float(values[r, i])))
        direction = np.where(up, 1, np.where(down, -1, direction))
        hi = np.where(up, k, hi)
        top = np.where(up, v, top)
        lo = np.where(down, k, lo)
        bottom = np.where(down, v, bottom)

    out = []
    for r in range(rows):
        found = tuple(extrema[r])
        if not found:
            if direction[r] == 1:
                out.append((Shape.MONOTONE_INCREASING_TRUNCATED, None, ()))
            else:
                out.append((Shape.MONOTONE_DECREASING, float(times[r, 0]), ()))
        elif len(found) == 1 and found[0].kind == "max":
            out.append((Shape.UNIMODAL,
                        _refine_peak(times[r], values[r], found[0].index), found))
        else:
            out.append((Shape.MULTIMODAL, None, found))
    return out


def aggregate_curve(traj: Trajectory, spec: InteractionSpec,
                    noise_tol: float = DEFAULT_NOISE_TOL) -> AggregateCurve:
    """Evaluate ybar along a trajectory and classify its shape.

    peak_time is the refined interior peak for a single-peaked curve
    and the initial time for a falling one; short records (fewer than
    three samples, e.g. an initially disease-free run) are classified
    by their endpoints alone.
    """
    _check_noise_tol(noise_tol)
    values = aggregate_values(spec, traj.y)
    [verdict] = classify_curves(traj.times, values[None], noise_tol)
    return AggregateCurve(traj.times, values, *verdict)


# ---------------------------------------------------------------------------
# randomized verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class UnimodalityReport:
    all_unimodal: bool
    counterexamples: tuple[EpidemicState, ...]
    trials: int
    shape_counts: dict[str, int]

    def as_dict(self) -> dict:
        return {
            "all_unimodal": self.all_unimodal,
            "trials": self.trials,
            "shape_counts": dict(self.shape_counts),
            "counterexamples": [
                {"x": s.x.tolist(), "y": s.y.tolist()}
                for s in self.counterexamples],
        }


def _aggregate_curves(params: ModelParams, starts: np.ndarray, noise_tol: float,
                      options: IntegratorOptions) -> tuple:
    """Integrate every row [x, y] of starts in one batch, recording only
    ybar, and classify each curve.  Returns (times, values, lengths,
    verdicts): the curves as (B, T) arrays, each row padded past its
    own length with its last sample, which adds no extremum, and one
    classify_curves verdict per row."""
    spec = params.interaction
    n = params.n
    runs = integrate_batch(params, starts, options,
                           observe=lambda u: _ybar(spec, u[:, n:]))
    lengths = np.diff(runs.offsets)
    # the record holds the rows one after another, which is the row-major
    # order of the held entries
    held = np.arange(lengths.max()) < lengths[:, None]
    last = runs.offsets[1:] - 1
    times = np.repeat(runs.times[last, None], held.shape[1], axis=1)
    values = np.repeat(runs.samples[last, None], held.shape[1], axis=1)
    times[held], values[held] = runs.times, runs.samples
    del runs
    return times, values, lengths, classify_curves(times, values, noise_tol)


def _curve(batch: tuple, r: int) -> AggregateCurve:
    """Row r of an _aggregate_curves result, with its own copies."""
    times, values, lengths, verdicts = batch
    return AggregateCurve(times[r, :lengths[r]].copy(), values[r, :lengths[r]].copy(),
                          *verdicts[r])


def _recheck(params: ModelParams, starts: np.ndarray, curves, rows,
             noise_tol: float, options: IntegratorOptions) -> None:
    """Re-integrate the multi-wave curves among rows once at tenfold
    tighter tolerance; the tighter verdict replaces the looser one in
    curves (a list or a dict indexed by row)."""
    multi = [r for r in rows if curves[r].shape is Shape.MULTIMODAL]
    if multi:
        tight = replace(options, rel_tol=options.rel_tol / 10.0,
                        abs_tol=options.abs_tol / 10.0)
        batch = _aggregate_curves(params, starts[multi], noise_tol, tight)
        for i, r in enumerate(multi):
            curves[r] = _curve(batch, i)


def _random_state(rng: np.random.Generator, n: int) -> EpidemicState:
    while True:
        x = rng.uniform(0.0, 1.0, size=n)
        y = rng.uniform(0.0, 1.0, size=n) * (1.0 - x)
        if x.any() and y.any():
            return EpidemicState(x, y)


def verify_unimodality(spec: InteractionSpec, gamma: float, trials: int,
                       seed: int, noise_tol: float = DEFAULT_NOISE_TOL,
                       options: IntegratorOptions | None = None
                       ) -> UnimodalityReport:
    """Integrate random feasible initial conditions and check that every
    aggregate curve is falling or single-peaked.

    Requires the monotone-gain and concave-transmission hypotheses to
    hold for the spec; initial conditions have nonzero susceptible and
    infected mass, and draws are deterministic for a given seed.  All
    trials run in one batch; a multi-wave verdict is re-checked once at
    tenfold tighter tolerance before it counts.
    """
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    _check_noise_tol(noise_tol)
    hyp = check_unimodality_hypotheses(spec)
    if not hyp.holds:
        f = hyp.failures[0]
        raise UsageError(
            f"unimodality hypotheses fail for this spec: {f.hypothesis} "
            f"at node {f.node}, u={f.u:.6g}, value={f.value:.6g}")
    params = ModelParams(gamma=gamma, interaction=spec)
    options = options or IntegratorOptions()
    states = [_random_state(np.random.default_rng(child), spec.n)
              for child in np.random.SeedSequence(seed).spawn(trials)]
    starts = np.array([np.concatenate([s.x, s.y]) for s in states])
    batch = _aggregate_curves(params, starts, noise_tol, options)
    curves = [_curve(batch, r) for r in range(trials)]
    _recheck(params, starts, curves, range(trials), noise_tol, options)
    counts: dict[str, int] = {s.value: 0 for s in Shape}
    bad: list[EpidemicState] = []
    for state, curve in zip(states, curves):
        counts[curve.shape.value] += 1
        if curve.shape not in (Shape.MONOTONE_DECREASING, Shape.UNIMODAL):
            bad.append(state)
    return UnimodalityReport(
        all_unimodal=not bad,
        counterexamples=tuple(bad),
        trials=trials,
        shape_counts={k: v for k, v in counts.items() if v},
    )


# ---------------------------------------------------------------------------
# multimodality search
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SearchReport:
    budget: int
    best_state: EpidemicState
    curve: AggregateCurve
    n_maxima: int

    def as_dict(self) -> dict:
        return {
            "budget": self.budget,
            "n_maxima": self.n_maxima,
            "best_ic": {"x": self.best_state.x.tolist(),
                        "y": self.best_state.y.tolist()},
            **self.curve.as_dict(),
        }


def _sample_mixture(rng: np.random.Generator, budget: int, n: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Candidate initial conditions: uniform draws, active/dormant node
    splits with tiny seeded infections, and power-skewed infection sizes."""
    xs = np.empty((budget, n))
    ys = np.empty((budget, n))
    thirds = np.array_split(np.arange(budget), 3)

    idx = thirds[0]
    xs[idx] = rng.uniform(0.0, 1.0, size=(len(idx), n))
    ys[idx] = rng.uniform(0.0, 1.0, size=(len(idx), n)) * (1.0 - xs[idx])

    idx = thirds[1]
    active = rng.uniform(size=(len(idx), n)) < rng.uniform(
        1.0 / n, 0.6, size=(len(idx), 1))
    x_act = rng.uniform(0.1, 0.7, size=(len(idx), n))
    x_dor = rng.uniform(0.8, 1.0, size=(len(idx), n))
    xs[idx] = np.where(active, x_act, x_dor)
    y_act = rng.uniform(0.3, 1.0, size=(len(idx), n))
    y_dor = 10.0 ** rng.uniform(-5.0, -1.0, size=(len(idx), n))
    ys[idx] = np.where(active, y_act, y_dor) * (1.0 - xs[idx])

    idx = thirds[2]
    xs[idx] = rng.uniform(0.0, 1.0, size=(len(idx), n))
    power = rng.uniform(1.0, 6.0, size=(len(idx), 1))
    ys[idx] = (1.0 - xs[idx]) * rng.uniform(size=(len(idx), n)) ** power

    return xs, ys


def search_multimodal_ic(spec: InteractionSpec, gamma: float, budget: int,
                         seed: int, noise_tol: float = DEFAULT_NOISE_TOL,
                         options: IntegratorOptions | None = None
                         ) -> SearchReport:
    """Randomized hunt for an initial condition whose aggregate curve
    has the most noise-surviving local maxima.

    Draws `budget` candidates from a mixture of uniform and skewed
    samplers and integrates them in adaptive batches of at most 2048
    rows, keeping only each row's maxima count and peak height plus the
    curves of the eight leaders by (maxima, peak); the multi-wave
    verdicts among the leaders are re-checked in one more batch at
    tenfold tighter tolerance than `options` (the defaults when None).
    Deterministic for a given seed, and the same whatever the block
    size; returns the best candidate found even when no curve has more
    than one maximum.
    """
    _require_rank1_local(spec, "multimodality search")
    if budget < 1:
        raise UsageError(f"budget must be >= 1, got {budget}")
    _check_noise_tol(noise_tol)
    params = ModelParams(gamma=gamma, interaction=spec)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    xs, ys = _sample_mixture(rng, budget, spec.n)
    starts = np.concatenate([xs, np.minimum(ys, 1.0 - xs)], axis=1)

    options = options or IntegratorOptions()
    n_max = np.empty(budget, dtype=np.int64)
    peaks = np.empty(budget)
    curves: dict[int, AggregateCurve] = {}
    for lo in range(0, budget, _SEARCH_BLOCK):
        hi = min(lo + _SEARCH_BLOCK, budget)
        block = _aggregate_curves(params, starts[lo:hi], noise_tol, options)
        _, values, _, verdicts = block
        n_max[lo:hi] = [_maxima(extrema) for _, _, extrema in verdicts]
        peaks[lo:hi] = values.max(axis=1)
        # a row among the leaders of all rows is among the leaders of every
        # prefix that holds it, so only the running leaders' curves are kept
        leaders = np.lexsort((-peaks[:hi], -n_max[:hi]))[:_SEARCH_LEADERS]
        curves = {int(r): curves[r] if r < lo else _curve(block, r - lo)
                  for r in leaders}
    _recheck(params, starts, curves, leaders, noise_tol, options)
    best = max(leaders, key=lambda r: (curves[r].n_maxima,
                                       float(curves[r].values.max())))
    return SearchReport(budget=budget,
                        best_state=EpidemicState(starts[best, :spec.n],
                                                 starts[best, spec.n:]),
                        curve=curves[best], n_maxima=curves[best].n_maxima)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def curve_to_csv(curve: AggregateCurve) -> str:
    lines = ["t,ybar"]
    for t, v in zip(curve.times, curve.values):
        lines.append(f"{t:.17g},{v:.17g}")
    return "\n".join(lines) + "\n"
