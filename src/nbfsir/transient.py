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
conditions whose curve shows repeated waves.  Both screen their starts
in adaptive batches that record only ybar (_screen): the fewest equal
blocks of at most _BLOCK rows, as many as a multiple of the workers when
forked workers spread them over the usable cores.  Both re-check every
multi-wave verdict they report once, by the same screen, at tenfold
tighter tolerance.  No result depends on the blocks or the cores.

A screened row leaves its batch once a proven tail bound settles its
verdict.  The flow is dy_i/dt = a_i(x) ybar - gamma y_i, with
a_i(x) = x_i g_i(x_i), and x only falls.  With S = sum_j y_j,
abar = sum_i sup over [0, x_i] of u g_i(u) and F = max_j sup over [0, S]
of f_j (Rank1Local._tail_bound, in closed form for affine and
reciprocal-affine nodes and for OuterProduct): if abar F < gamma, then
dS/dt <= (abar F - gamma) S while S has not grown, so S only falls, and
every later ybar is at most F S.  If also F S < noise_tol times the
row's running maximum of ybar, no later sample can make a turn that the
hysteresis rule counts, except the fall that closes the maximum of a
curve still rising.  So the row retires there (_tail_rule).

A falling certificate settles most rows sooner (Rank1Local._fall_bound).
ybar = sum_j phi_j(y_j) with phi_j(u) = u f_j(u), and from a step end on x_j
and x_j + y_j only fall, so a_j(x) <= abar_j, the sup of u g_j(u) over
[0, x_j], and y_j stays in [0, m_j] with m_j = min(x_j + y_j, 1).  With
P_j the sup of phi_j' over [0, m_j] and kappa_j the inf of phi_j'(u) u /
phi_j(u) there, dybar/dt <= ybar (sum_j P_j abar_j - gamma min_j
kappa_j).  So if B = sum_j P_j abar_j / min_j kappa_j, in closed form for
affine and reciprocal-affine nodes, is below gamma, ybar falls at every
later time, and no later sample can open a turn.  OuterProduct has a
tighter B (OuterProduct._fall_bound): its ybar = sum_j y_j^2 has
dybar/dt = 2 ybar (c sum_j x_j (1 - x_j) y_j - gamma), and B = c sum_j of
the sup of u (1 - u) (m_j - u) over [0, x_j], a cubic's maximum.  The
row retires there too, where noise_tol > 0 and its step ends have not
risen since its start, or have fallen by more than the margin from
their last crest, two or more step ends after it.  A step end starts a
crest if it is above the last one, or above the lowest step end since
it by more than the margin: the hysteresis rule may count such a rise,
so the row must be seen to fall from it before it retires.

A retired row that was still rising, or whose single peak has fewer
than two samples after it, is integrated once more in full (_unsure).
So every shape code, maximum, extremum and peak time is the one of the
row's full run.  Specs with expression functions have neither bound
and run to the end.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .core import EpidemicState, ModelParams
from .errors import UsageError
from .integrate import IntegratorOptions, Trajectory, _csv, integrate_batch
from .interaction import (InteractionSpec, _as_float, _as_int,
                          _require_rank1_local, _ybar, aggregate_values,
                          check_unimodality_hypotheses)

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
# the most rows screened in one block; bounds the memory of the step
# records, whatever the number of trials or the budget
_BLOCK = 2048
# shape codes of _scan_turns: the positions of the shapes in tuple(Shape)
_DECREASING, _UNIMODAL, _MULTIMODAL, _TRUNCATED = range(4)


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
        return sum(1 for e in self.extrema if e.kind == "max")

    def as_dict(self) -> dict:
        return {
            "shape": self.shape.value,
            "peak_time": self.peak_time,
            "extrema": [e.as_dict() for e in self.extrema],
        }


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
    """Time of the peak at sample idx: the local maximum of the quartic
    through the five samples around idx, inside their span, the largest
    if there are two.  With fewer than two samples on a side, or no such
    maximum, the vertex of the parabola through the three around idx, or
    idx's own time where its slopes overflow or its curvature underflows.
    A row that classify_curves padded repeats its last time, so the
    quartic never reaches past the row's own samples.  A maximum that
    classify_curves found has a sample on each side: a turn opened it, and
    a later one closed it."""
    if 2 <= idx <= len(times) - 3:
        t, v = times[idx - 2:idx + 3], values[idx - 2:idx + 3]
        if (np.diff(t) > 0.0).all() and np.isfinite(v).all():
            half = 0.5 * (t[4] - t[0])
            # in s = (t - t[idx]) / half the span is about [-1, 1]
            s = (t - t[2]) / half
            quartic = np.linalg.solve(np.vander(s), v)
            slope = np.polyder(quartic)
            roots = np.roots(slope)
            roots = roots.real[(roots.imag == 0.0) & (roots.real >= s[0])
                               & (roots.real <= s[4])]
            roots = roots[np.polyval(np.polyder(slope), roots) < 0.0]
            if len(roots):
                return float(t[2] + half * roots[np.argmax(np.polyval(quartic, roots))])
    t0, t1, t2 = times[idx - 1], times[idx], times[idx + 1]
    v0, v1, v2 = values[idx - 1], values[idx], values[idx + 1]
    with np.errstate(over="ignore"):
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
    a single peak, whose time is refined by a local quartic fit.
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
    noise_tol = _as_float(noise_tol, "noise_tol", 0, error=UsageError)

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
    turns = _scan_turns(values, noise_tol)
    return [_verdict(times[r], values[r], turns, r) for r in range(len(values))]


def _scan_turns(values: np.ndarray, noise_tol: float) -> tuple:
    """The hysteresis scan of classify_curves over a (B, T) stack, with
    its extrema as flat arrays: (offsets, index, is_max, rising, codes,
    maxima).  Row r's extrema, in time order, are entries
    offsets[r]:offsets[r + 1] of index (the sample of a minimum or
    maximum closed by a later turn) and is_max; rising (B,) says whether
    each curve was last seen rising by more than the margin.  codes (B,)
    holds each row's shape code: with no extremum, still rising or
    falling; with one maximum and nothing else, single-peaked; else
    multi-wave.  maxima (B,) counts each row's maxima.  Building no
    per-row object lets _screen read the shape of every row and classify
    only the rows it keeps."""
    rows, size = values.shape
    theta = noise_tol * np.clip(values.max(axis=1), 0.0, None)
    direction = np.zeros(rows, dtype=np.int64)  # 0 unknown, +1 rising, -1 falling
    hi = np.zeros(rows, dtype=np.intp)  # running maximum since the last turn
    lo = np.zeros(rows, dtype=np.intp)  # running minimum since the last turn
    top = values[:, 0].copy()
    bottom = values[:, 0].copy()
    empty = np.zeros(0, dtype=np.intp)
    found_row, found_index, found_max = [empty], [empty], [empty.astype(bool)]
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
        closed = np.flatnonzero(turned & (direction != 0))
        found_row.append(closed)
        found_index.append(np.where(up[closed], lo[closed], hi[closed]))
        found_max.append(down[closed])
        direction = np.where(up, 1, np.where(down, -1, direction))
        hi = np.where(up, k, hi)
        top = np.where(up, v, top)
        lo = np.where(down, k, lo)
        bottom = np.where(down, v, bottom)
    row, is_max = np.concatenate(found_row), np.concatenate(found_max)
    extrema = np.bincount(row, minlength=rows)
    maxima = np.bincount(row[is_max], minlength=rows)
    rising = direction == 1
    codes = np.where(extrema == 0, np.where(rising, _TRUNCATED, _DECREASING),
                     np.where((extrema == 1) & (maxima == 1), _UNIMODAL, _MULTIMODAL))
    # a stable sort keeps each row's extrema in scan order
    order = np.argsort(row, kind="stable")
    return (np.concatenate([[0], np.cumsum(extrema)]), np.concatenate(found_index)[order],
            is_max[order], rising, codes, maxima)


def _verdict(times: np.ndarray, values: np.ndarray, turns: tuple, r: int
             ) -> tuple[Shape, float | None, tuple[Extremum, ...]]:
    """The classify_curves verdict of row r, whose curve is times and
    values, from a _scan_turns result."""
    offsets, index, is_max, _, codes, _ = turns
    own = slice(offsets[r], offsets[r + 1])
    idx = index[own]
    kinds = ["max" if m else "min" for m in is_max[own].tolist()]
    found = tuple(map(Extremum, kinds, idx.tolist(), times[idx].tolist(),
                      values[idx].tolist()))
    peak = None
    if codes[r] == _UNIMODAL:
        peak = _refine_peak(times, values, found[0].index)
    elif codes[r] == _DECREASING:
        peak = float(times[0])
    return tuple(Shape)[codes[r]], peak, found


def aggregate_curve(traj: Trajectory, spec: InteractionSpec,
                    noise_tol: float = DEFAULT_NOISE_TOL) -> AggregateCurve:
    """Evaluate ybar along a trajectory and classify its shape.

    peak_time is the refined interior peak for a single-peaked curve
    and the initial time for a falling one; short records (fewer than
    three samples, e.g. an initially disease-free run) are classified
    by their endpoints alone.
    """
    noise_tol = _as_float(noise_tol, "noise_tol", 0, error=UsageError)
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


def _tail_rule(params: ModelParams, starts: np.ndarray, noise_tol: float) -> tuple:
    """The settled callback of integrate_batch for the rows of starts, and
    the (B,) mask of the rows it retired; the callback is None when the
    spec has no closed-form bounds (its _fall is None: some node is not
    one of the closed forms), or at noise_tol 0, where F S < 0 never
    holds and every ripple of a falling tail would count as a turn.

    A row retires at a step end by the rules of the module docstring:
    where abar F < gamma and F S < noise_tol M, with M its running
    maximum of ybar over its start and step ends (the samples inside
    steps only raise the curve's maximum, and so the scan's margin), or
    where the falling certificate (Rank1Local._fall_bound), which every
    spec with the tail bound has, gives B < gamma and the crest rule
    allows it, under the margin min(noise_tol, 1) M."""
    spec, n = params.interaction, params.n
    retired = np.zeros(len(starts), dtype=bool)
    if noise_tol == 0 or spec._fall is None:
        return None, retired
    peak = _ybar(spec, starts[:, n:])
    # below 1, so no later sample can raise the curve's maximum, and the margin
    margin = min(noise_tol, 1.0)
    # per row: its crest, the highest step end since its last rise, the
    # lowest step end since that crest, and the step ends after the crest,
    # -1 while that is its start with no rise since
    crest, trough = peak.copy(), peak.copy()
    after = np.full(len(starts), -1)

    def settled(ids: np.ndarray, u: np.ndarray) -> np.ndarray:
        ybar = _ybar(spec, u[:, n:])
        top = np.maximum(peak[ids], ybar)
        peak[ids] = top
        limit = margin * top
        done = np.zeros(len(ids), dtype=bool)
        # ybar <= F S, so only a row whose ybar is below the limit can settle
        low = np.flatnonzero(ybar < limit)
        if len(low):
            s = u[low, n:].sum(axis=1)
            abar, f = spec._tail_bound(u[low, :n], s)
            done[low] = (abar * f < params.gamma) & (f * s < limit[low])
        # limit changes only with M, and a new M is a rise
        rise = (ybar > crest[ids]) | (ybar - trough[ids] > limit)
        crest[ids] = np.where(rise, ybar, crest[ids])
        trough[ids] = np.where(rise, ybar, np.minimum(trough[ids], ybar))
        since = np.where(rise, 0, after[ids] + (after[ids] >= 0))
        after[ids] = since
        shut = crest[ids] - trough[ids] > limit
        ready = np.flatnonzero(~done & ((since < 0) | (shut & (since >= 2))))
        if len(ready):
            done[ready] = spec._fall_bound(u[ready, :n], u[ready, n:]) < params.gamma
        retired[ids[done]] = True
        return done

    return settled, retired


def _padded(times: np.ndarray, samples: np.ndarray, first: np.ndarray,
            lengths: np.ndarray, noise_tol: float) -> tuple:
    """Row r's samples, entries first[r]:first[r] + lengths[r] of the flat
    times and samples, as one row of a (B, T) matrix, padded past its
    length with its last sample, which adds no extremum.  Returns (times,
    values, lengths, turns), with the _scan_turns result of the matrix."""
    at = first[:, None] + np.minimum(np.arange(lengths.max()), lengths[:, None] - 1)
    values = samples[at]
    return times[at], values, lengths, _scan_turns(values, noise_tol)


def _unsure(batch: tuple, retired: np.ndarray) -> np.ndarray:
    """The retired rows of a _padded result whose verdict may differ from
    their full runs': a row still rising when it retired, whose pending
    maximum its full run may or may not count, and a single peak with
    fewer than two samples after it, which _refine_peak needs."""
    _, _, lengths, (offsets, index, _, rising, codes, _) = batch
    short = np.zeros(len(retired), dtype=bool)
    single = np.flatnonzero(retired & (codes == _UNIMODAL))
    short[single] = index[offsets[single]] + 2 >= lengths[single]
    return np.flatnonzero(retired & (rising | short))


def _aggregate_curves(params: ModelParams, starts: np.ndarray, noise_tol: float,
                      options: IntegratorOptions) -> tuple:
    """Integrate every row [x, y] of starts in one batch, recording only
    ybar, and scan each curve for turns.  Returns (times, values,
    lengths, turns): the curves as (B, T) arrays (see _padded) and the
    _scan_turns result of the stack.  A row's curve ends where _tail_rule
    retired it; the rows _unsure names are integrated once more in full,
    so every verdict is the one of the row's full run."""
    spec, n = params.interaction, params.n

    def observe(u):
        return _ybar(spec, u[:, n:])

    settled, retired = _tail_rule(params, starts, noise_tol)
    runs = integrate_batch(params, starts, options, observe, settled=settled)
    first, lengths = runs.offsets[:-1].copy(), np.diff(runs.offsets)
    batch = _padded(runs.times, runs.samples, first, lengths, noise_tol)
    rows = _unsure(batch, retired)
    if not len(rows):
        return batch
    again = integrate_batch(params, starts[rows], options, observe)
    first[rows] = len(runs.times) + again.offsets[:-1]
    lengths[rows] = np.diff(again.offsets)
    return _padded(np.concatenate([runs.times, again.times]),
                   np.concatenate([runs.samples, again.samples]), first, lengths,
                   noise_tol)


def _curve(batch: tuple, r: int) -> AggregateCurve:
    """Row r of an _aggregate_curves result, classified, with its own
    copies."""
    times, values, lengths, turns = batch
    return AggregateCurve(times[r, :lengths[r]].copy(), values[r, :lengths[r]].copy(),
                          *_verdict(times[r], values[r], turns, r))


def _screen_block(params: ModelParams, starts: np.ndarray, noise_tol: float,
                  options: IntegratorOptions, keep: int, span: tuple[int, int]) -> tuple:
    """_screen's work on the rows lo:hi of starts, span = (lo, hi): their
    shape codes and maxima, their peaks, and the curves of their own top
    keep rows by (maxima, peak), keyed by row of starts."""
    lo, hi = span
    block = _aggregate_curves(params, starts[lo:hi], noise_tol, options)
    codes, maxima = block[3][4:]
    peaks = block[1].max(axis=1)
    leaders = np.lexsort((-peaks, -maxima))[:keep]
    return codes, maxima, peaks, {lo + int(r): _curve(block, r) for r in leaders}


def _screen(params: ModelParams, starts: np.ndarray, noise_tol: float,
            options: IntegratorOptions, keep: int) -> tuple:
    """Integrate the rows of starts in the blocks of _spans, spread over
    the usable cores by _blocks; return every row's shape code and the
    curves of the top keep rows by (maxima, peak), keyed by row in that
    order.  A top row of all rows is a top row of its own block, so the
    result depends neither on the blocks nor on the cores.  Rows that
    fit in one block run in this process, with no look at the cores."""
    rows = len(starts)
    codes, maxima = np.empty((2, rows), dtype=np.int64)
    peaks = np.empty(rows)
    curves: dict[int, AggregateCurve] = {}
    workers = _workers() if rows > _BLOCK else 1
    spans = _spans(rows, workers)
    task = partial(_screen_block, params, starts, noise_tol, options, keep)
    for (lo, hi), (c, m, p, top) in zip(spans, _blocks(task, spans, workers)):
        codes[lo:hi], maxima[lo:hi], peaks[lo:hi] = c, m, p
        curves.update(top)
    return codes, {int(r): curves[r] for r in np.lexsort((-peaks, -maxima))[:keep]}


def _spans(rows: int, workers: int) -> list[tuple[int, int]]:
    """The (lo, hi) blocks of _screen: the fewest equal contiguous blocks
    of at most _BLOCK rows, their sizes a row apart at most, as many as a
    multiple of the workers, so every worker screens as many blocks and
    none is left alone on the last one: 10 000 rows on 2 workers are 6
    blocks of 1666 or 1667 rows."""
    count = -(-rows // _BLOCK)
    count = -(-count // workers) * workers
    return [(rows * k // count, rows * (k + 1) // count) for k in range(count)]


def _workers() -> int:
    """The forked workers of _blocks: one per usable core, or 1, meaning
    this process, without fork or in a daemonic process, which may not
    have children.  multiprocessing is imported only when a pool may
    start."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    if cores > 1 and hasattr(os, "fork"):
        import multiprocessing
        if not multiprocessing.current_process().daemon:
            return cores
    return 1


# in a pool worker of _blocks: the task the fork handed it
_task = None


def _adopt(task) -> None:
    global _task
    _task = task


def _run_adopted(span: tuple[int, int]):
    return _task(span)


def _blocks(task, spans: list[tuple[int, int]], workers: int) -> list:
    """[task(span) for span in spans], in that order.

    With more than one worker (_workers), the blocks run on that many
    forked workers; _spans gives each worker as many blocks.  The fork
    hands task to every worker, so only the spans and the results are
    pickled; a failing block raises its own exception here.  With one,
    the blocks run in this process."""
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                 _adopt, (task,)) as pool:
            return list(pool.map(_run_adopted, spans))
    return list(map(task, spans))


def _tighter(options: IntegratorOptions) -> IntegratorOptions:
    return replace(options, rel_tol=options.rel_tol / 10.0,
                   abs_tol=options.abs_tol / 10.0)


def _uniform_starts(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """count feasible starts [x, y]: x ~ U[0,1)^n and y ~ U[0,1)^n * (1 - x)."""
    x = rng.uniform(0.0, 1.0, size=(count, n))
    return np.hstack([x, rng.uniform(0.0, 1.0, size=(count, n)) * (1.0 - x)])


def verify_unimodality(spec: InteractionSpec, gamma: float, trials: int,
                       seed: int, noise_tol: float = DEFAULT_NOISE_TOL,
                       options: IntegratorOptions | None = None
                       ) -> UnimodalityReport:
    """Integrate random feasible initial conditions and check that every
    aggregate curve is falling or single-peaked.

    Requires the monotone-gain and concave-transmission hypotheses to
    hold for the spec.  Every trial is drawn from one generator seeded
    with seed, with x ~ U[0,1)^n and y ~ U[0,1)^n * (1 - x); a draw
    without susceptible or infected mass is drawn again.  The trials run
    in batches of at most 2048 rows, spread over the usable cores, and a
    multi-wave verdict is re-checked once at tenfold tighter tolerance
    before it counts.
    """
    trials = _as_int(trials, "trials", 1, error=UsageError)
    seed = _as_int(seed, "seed", 0, error=UsageError)
    noise_tol = _as_float(noise_tol, "noise_tol", 0, error=UsageError)
    hyp = check_unimodality_hypotheses(spec)
    if not hyp.holds:
        f = hyp.failures[0]
        raise UsageError(
            f"unimodality hypotheses fail for this spec: {f.hypothesis} "
            f"at node {f.node}, u={f.u:.6g}, value={f.value:.6g}")
    params = ModelParams(gamma=gamma, interaction=spec)
    options = options or IntegratorOptions()
    n = spec.n
    rng = np.random.default_rng(seed)
    starts = _uniform_starts(rng, trials, n)
    while (void := ~(starts[:, :n].any(axis=1) & starts[:, n:].any(axis=1))).any():
        starts[void] = _uniform_starts(rng, int(void.sum()), n)
    codes, _ = _screen(params, starts, noise_tol, options, 0)
    multi = np.flatnonzero(codes == _MULTIMODAL)
    codes[multi], _ = _screen(params, starts[multi], noise_tol, _tighter(options), 0)
    bad = np.flatnonzero(~np.isin(codes, (_DECREASING, _UNIMODAL)))
    return UnimodalityReport(
        all_unimodal=not len(bad),
        counterexamples=tuple(EpidemicState(starts[r, :n], starts[r, n:]) for r in bad),
        trials=trials,
        shape_counts={s.value: int(c) for s, c in
                      zip(Shape, np.bincount(codes, minlength=len(Shape))) if c},
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
    splits with tiny seeded infections, and power-skewed infection sizes.
    Every sampler draws y as 1 - x times a factor below 1, so y <= 1 - x."""
    xs = np.empty((budget, n))
    ys = np.empty((budget, n))
    thirds = np.array_split(np.arange(budget), 3)

    idx = thirds[0]
    xs[idx], ys[idx] = np.hsplit(_uniform_starts(rng, len(idx), n), 2)

    idx = thirds[1]
    # the share of active nodes is drawn from [1/n, 0.6]; at n = 1 that
    # range is the point 0.6
    active = rng.uniform(size=(len(idx), n)) < rng.uniform(
        min(1.0 / n, 0.6), 0.6, size=(len(idx), 1))
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
    samplers (its uniform third is the sampler of verify_unimodality)
    and screens them in adaptive batches of at most 2048 rows, spread over
    the usable cores, keeping only each row's shape plus the curves of
    the eight leaders by (maxima, peak); the multi-wave verdicts among
    the leaders are re-checked by the same screen at tenfold tighter
    tolerance than `options` (the defaults when None).  Deterministic
    for a given seed, and the same whatever the block size or the number
    of cores; returns the best candidate found even when no curve has
    more than one maximum.  For a spec with closed-form node functions
    the reported curve ends where its verdict is settled, after its last
    extremum: once the falling certificate B < gamma proves that the
    curve falls for good, or the tail bound settles it (see the module
    docstring); a row run again in full keeps its whole curve.
    """
    _require_rank1_local(spec, "multimodality search")
    budget = _as_int(budget, "budget", 1, error=UsageError)
    seed = _as_int(seed, "seed", 0, error=UsageError)
    noise_tol = _as_float(noise_tol, "noise_tol", 0, error=UsageError)
    params = ModelParams(gamma=gamma, interaction=spec)
    xs, ys = _sample_mixture(np.random.default_rng(seed), budget, spec.n)
    starts = np.concatenate([xs, ys], axis=1)

    options = options or IntegratorOptions()
    codes, curves = _screen(params, starts, noise_tol, options, _SEARCH_LEADERS)
    multi = [r for r in curves if codes[r] == _MULTIMODAL]
    _, tight = _screen(params, starts[multi], noise_tol, _tighter(options), len(multi))
    curves.update((r, tight[i]) for i, r in enumerate(multi))
    best = max(curves, key=lambda r: (curves[r].n_maxima,
                                      float(curves[r].values.max())))
    return SearchReport(budget=budget,
                        best_state=EpidemicState(starts[best, :spec.n],
                                                 starts[best, spec.n:]),
                        curve=curves[best], n_maxima=curves[best].n_maxima)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def curve_to_csv(curve: AggregateCurve) -> str:
    return _csv(["t", "ybar"], curve.times, curve.values)
