"""Adaptive integration of the epidemic flow with feasibility guards.

An explicit embedded Runge-Kutta 5(4) pair drives the state forward
with per-component error control.  After every accepted step, tiny
negative components (inside (-clamp_eps, 0)) are clamped to zero and
the state is re-checked against the feasible set; leaving it beyond
clamp_eps is an integration failure.  The run terminates when every
infected fraction drops below y_converged_threshold (converged to a
disease-free equilibrium) or when t_max is reached.

Output sampling uses the pair's fourth-order dense interpolant so that
consecutive samples are never more than max_step apart in time even
when the accepted steps grow large.

One loop steps a whole batch of starts at once (integrate_batch), each
row with its own step size, error norm and counters; integrate is its
one-row case, and every row's run is bit-for-bit the run it would have
alone.  The batch comes back as one flat record, its rows one after
another, with row offsets and one (5, B) array of counters.

The running state is held component-major: u, the stage slopes and the
dense samples are C-contiguous (2n, B) arrays, one column per row.  An
elementwise op then runs along B, which is wide in a search, instead of
along 2n, which is a handful of components; per-row scalars such as h
broadcast along the last axis.  The reductions across components whose
rounding depends on the memory order (the error norm and the starting
step's norms) run on a row-major copy, where a contiguous axis of 8 or
more terms is summed pairwise, exactly as a (B, 2n) array would be.

A step makes no throwaway (stages, 2n, B) array.  Each stage sum is one
einsum over the stage axis, which adds the products of every element in
order from +0.0, the bits of multiply-then-reduce; each stage argument is
built in place on its sum.  By first-same-as-last the fifth-order end of
the step is the last stage's argument, so it is not summed again.  einsum
raises no floating-point warning, so an overflow in a stage sum shows up
at the next ufunc that meets the inf, if any.
"""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass

import numpy as np

from .core import EpidemicState, ModelParams, is_feasible
from .errors import (
    ConfigurationError,
    EvaluationError,
    IntegrationFailureError,
    ModelValidityError,
    StiffnessError,
    UsageError,
)
from .interaction import InteractionSpec, Rank1Local, _as_float, aggregate_values

__all__ = [
    "BatchRuns",
    "IntegratorOptions",
    "TerminalStatus",
    "Trajectory",
    "integrate",
    "integrate_batch",
    "limit_equilibrium",
    "trajectory_to_csv",
]

# Dormand-Prince 5(4) tableau; the flow is autonomous, so the stage
# times are not needed
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# fifth-order minus embedded fourth-order weights
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])
# dense-output weights for the quartic continuous extension
_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
               -10690763975 / 1880347072, 701980252875 / 199316789632,
               -1453857185 / 822651844, 69997945 / 29380423])


@dataclass(frozen=True)
class IntegratorOptions:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = 1.0
    clamp_eps: float = 1e-12
    y_converged_threshold: float = 1e-10
    t_max: float | None = None  # default 1e4 / gamma, resolved at run time

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_step", "clamp_eps",
                     "y_converged_threshold"):
            object.__setattr__(self, name, _as_float(getattr(self, name), name,
                                                     0, above=True))
        if self.rel_tol > 1e-3 or self.abs_tol > 1e-3:
            raise ConfigurationError(
                "tolerances above 1e-3 give unreliable trajectories: "
                f"rel_tol={self.rel_tol}, abs_tol={self.abs_tol}")
        if self.t_max is not None:
            # no lower bound to _as_float, which would refuse an infinite horizon
            object.__setattr__(self, "t_max", _as_float(self.t_max, "t_max"))
            if not self.t_max > 0:
                raise ConfigurationError(f"t_max must be positive, got {self.t_max}")

    def resolved_t_max(self, gamma: float) -> float:
        return self.t_max if self.t_max is not None else 1e4 / gamma


class TerminalStatus(enum.Enum):
    CONVERGED = "converged"
    REACHED_T_MAX = "reached_t_max"


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution; x and y are (T, n) arrays aligned with times."""

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    terminal: TerminalStatus
    n_accepted: int
    n_rejected: int
    n_evaluations: int
    n_rejected_fault: int  # a trial stage left the interaction's domain
    n_rejected_error: int  # the error norm exceeded 1
    n_rejected_gate: int   # the feasibility/positivity gate failed

    @property
    def n(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    def state(self, k: int) -> EpidemicState:
        return EpidemicState(self.x[k], self.y[k])

    @property
    def states(self) -> tuple[EpidemicState, ...]:
        return tuple(self.state(k) for k in range(len(self)))

    @property
    def final_state(self) -> EpidemicState:
        return self.state(len(self) - 1)


@dataclass(frozen=True, eq=False)
class BatchRuns:
    """Results of integrate_batch as one flat record.  Row r's sample
    times and recorded samples are times[offsets[r]:offsets[r + 1]] and
    the same slice of samples; converged[r] is False for a row that
    reached t_max instead.  The rows of counts are accepted steps, RHS
    evaluations, and rejected steps by cause: a domain fault in a trial
    stage, else an error norm above 1, else a failed feasibility gate."""

    times: np.ndarray      # (N,)
    samples: np.ndarray    # (N, ...), what observe recorded
    offsets: np.ndarray    # (B + 1,), offsets[0] == 0 and offsets[-1] == N
    converged: np.ndarray  # (B,) bool
    counts: np.ndarray     # (5, B) int64


def _rhs(params: ModelParams, u: np.ndarray, out: np.ndarray | None = None
         ) -> np.ndarray:
    """The flow at every column [x; y] of the (2n, B) state u, written
    into out: the incidence v once, then -v and v - gamma*y, as in
    vector_field.  The interaction sees the (B, n) views u[:n].T and
    u[n:].T, so its per-node ops run along the batch.  The state shapes
    are checked once, when integrate_batch takes its starts."""
    n = u.shape[0] // 2
    if out is None:
        out = np.empty_like(u)
    v = params.interaction._incidence(u[:n].T, u[n:].T).T
    np.negative(v, out=out[:n])
    np.subtract(v, params.gamma * u[n:], out=out[n:])
    return out


def _stages(params: ModelParams, u: np.ndarray, h: np.ndarray, k0: np.ndarray,
            tableau) -> tuple[np.ndarray, np.ndarray | int, np.ndarray, np.ndarray]:
    """Trial stages k[s] = f(u + h * sum_j tableau[s-1][j] k[j]) after
    k[0] = k0, for every column of the (2n, B) state u, with the number
    of evaluations each row made (one int for all when no stage faulted),
    whether a domain fault stopped it there, and the last stage's
    argument; with the Dormand-Prince tableau that argument is the
    step's fifth-order end (first-same-as-last).  A row that faulted
    gets the argument of the stage that faulted instead.  k is (stages,
    2n, B), so each stage slot is a contiguous (2n, B) block.  Each
    argument is built in place on its stage sum, which this function
    owns: (sum * h) + u has the bits of u + h * sum.

    A faulting block is split in halves until the fault is pinned to
    single rows.  Each row's arithmetic is its own, so a row's stages do
    not depend on which rows share the batch."""
    k = np.zeros((len(tableau) + 1,) + u.shape)
    k[0] = k0
    for s, weights in enumerate(tableau, start=1):
        arg = _combo(weights, k)
        arg *= h
        arg += u
        try:
            _rhs(params, arg, k[s])
        except EvaluationError:
            if len(h) == 1:
                return k, np.array([s]), np.array([True]), arg
            mid = len(h) // 2
            parts = (_stages(params, u[:, :mid], h[:mid], k0[:, :mid], tableau),
                     _stages(params, u[:, mid:], h[mid:], k0[:, mid:], tableau))
            return (np.concatenate([p[0] for p in parts], axis=2),
                    np.concatenate([np.broadcast_to(p[1], p[2].shape)
                                    for p in parts]),
                    np.concatenate([p[2] for p in parts]),
                    np.concatenate([p[3] for p in parts], axis=1))
    return k, len(tableau), np.zeros(len(h), dtype=bool), arg


def _combo(weights: np.ndarray, k: np.ndarray) -> np.ndarray:
    """sum_j weights[j] * k[j], a new array.  einsum adds the products
    of each element in order, ((0 + w0 k0) + w1 k1) + ..., as a
    reduction over the leading axis does, so each row's sum is the same
    whatever the batch size; unlike multiply-then-reduce it builds no
    (s, 2n, B) temporary.  tests/test_integrator.py pins these bits, so a
    numpy whose einsum fuses the multiply-add fails there.  einsum
    reports no floating-point warning: an overflow in the sum shows up
    at the next ufunc that meets the inf."""
    return np.einsum("s,s...->...", weights, k[:len(weights)])


def _rms(a: np.ndarray) -> np.ndarray:
    """Root mean square of each column of a (2n, B) array.  The sum runs
    along a row-major copy: numpy adds a contiguous axis pairwise from 8
    terms on and a strided one in plain order, so the copy keeps the
    grouping, and the bits, of a (B, 2n) state."""
    a = np.ascontiguousarray(a.T)
    return np.sqrt(np.add.reduce(a * a, axis=1) / a.shape[1])


def _gate(u: np.ndarray, y_from: np.ndarray, n: int, clamp_eps: float
          ) -> tuple[np.ndarray, np.ndarray | None]:
    """Zero tiny negatives (inside (-clamp_eps, 0)) in each column of the
    (2n, B) state u and grade it: 0 feasible, 1 outside the feasible set
    beyond clamp_eps, 2 an infected component positive in the (n, B)
    y_from (the step's start) driven to zero.  A batch with every entry
    positive and every x_i + y_i within 1 + clamp_eps is returned as it
    is, with grade None; a nan fails both tests.  Column-major like the
    running state, so each test runs along the batch."""
    x, y = u[:n], u[n:]
    mass = x + y
    if u.min() > 0.0 and mass.max() <= 1.0 + clamp_eps:
        return u, None
    low = u.min(axis=0)
    if (low < 0.0).any():
        u = np.where((u < 0.0) & (u > -clamp_eps), 0.0, u)
        low = u.min(axis=0)
        x, y = u[:n], u[n:]
        mass = x + y
    # with no entry below zero, x_i + y_i bounds both x_i and y_i
    infeasible = (low < 0.0) | (mass.max(axis=0) > 1.0 + clamp_eps)
    extinct = ((y_from > 0.0) & (y <= 0.0)).any(axis=0)
    return u, np.where(infeasible, 1, np.where(extinct, 2, 0))


def _gate_error(grade: int, t: float, u: np.ndarray, n: int
                ) -> IntegrationFailureError:
    if grade == 1:
        return IntegrationFailureError(
            f"state left the feasible set beyond clamp_eps at t={t:.6g}: "
            f"x={u[:n].tolist()}, y={u[n:].tolist()}")
    return IntegrationFailureError(
        f"an infected component crossed zero from positive mass at t={t:.6g}")


def _initial_step(params: ModelParams, u0: np.ndarray, f0: np.ndarray,
                  scale: np.ndarray, t_span: float) -> np.ndarray:
    """Standard starting-step heuristic from the norms of u0, f0 and one
    Euler probe, per column."""
    d0 = _rms(u0 / scale)
    d1 = _rms(f0 / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d1 < 1e-5) | (d0 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, 0.1 * t_span)
    k, _, fault, _ = _stages(params, u0, h0, f0, [np.ones(1)])
    d2 = _rms((k[1] - f0) / scale) / h0
    d = np.maximum(d1, d2)
    with np.errstate(divide="ignore"):
        h1 = np.where(d <= 1e-15, np.maximum(1e-6, h0 * 1e-3), (0.01 / d) ** 0.2)
    return np.where(fault, np.minimum(h0, t_span),
                    np.minimum(np.minimum(100 * h0, h1), t_span))


def _dense(u: np.ndarray, u_new: np.ndarray, k: np.ndarray, h: np.ndarray,
           t: np.ndarray, rows: np.ndarray, max_step: float
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Samples inside the steps of the given rows, at most max_step
    apart, from the pair's quartic dense interpolant: the row each
    sample belongs to, its time and its state.  The states come as a
    (2n, m) array, one column per sample, so the interpolant's ops run
    along the samples and the gate takes them as it takes the state."""
    parts = np.ceil(h[rows] / max_step).astype(np.int64) - 1
    owner = np.repeat(rows, parts)
    idx = np.arange(len(owner)) - np.repeat(np.cumsum(parts) - parts, parts) + 1
    theta = idx / np.repeat(parts + 1, parts)
    hh = h[owner]
    u0 = u[:, owner]
    ydiff = u_new[:, owner] - u0
    bspl = hh * k[0][:, owner] - ydiff
    r4 = ydiff - hh * k[6][:, owner] - bspl
    r5 = hh * _combo(_D, k[:, :, owner])
    states = u0 + theta * (ydiff + (1.0 - theta)
                           * (bspl + theta * (r4 + (1.0 - theta) * r5)))
    return owner, t[owner] + theta * hh, states


def integrate_batch(params: ModelParams, starts,
                    options: IntegratorOptions | None = None,
                    observe=None) -> BatchRuns:
    """Run the flow from every row [x, y] of a (B, 2n) array of starts.

    Each row is stepped exactly as integrate steps it alone: it keeps
    its own step size, error norm, rejections and counters, and leaves
    the batch when it converges or reaches t_max.  observe maps an
    (m, 2n) block of states to the m samples recorded for them, one per
    entry of its first axis; by default the states themselves are
    recorded.  A start that is not finite and feasible within
    FEASIBILITY_TOL raises ModelValidityError, as EpidemicState does;
    the first row that fails later raises its error for the whole batch.
    The running state is stepped as a (2n, B) array (see the module
    docstring); observe still sees rows.  The samples come back as one
    flat record, row after row (see BatchRuns).
    """
    if options is None:
        options = IntegratorOptions()
    n = params.n
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != 2 * n:
        raise ConfigurationError(
            f"starts must have shape (B, {2 * n}), got {starts.shape}")
    # is_feasible rejects a nan or an infinity too
    if not is_feasible(starts[:, :n], starts[:, n:]):
        r = next(r for r, u in enumerate(starts) if not is_feasible(u[:n], u[n:]))
        raise ModelValidityError(
            f"start {r} outside the feasible set: x={starts[r, :n].tolist()}, "
            f"y={starts[r, n:].tolist()}")
    if observe is None:
        observe = np.ascontiguousarray
    t_max = options.resolved_t_max(params.gamma)
    eps = options.clamp_eps
    size = len(starts)
    # per start: accepted steps, evaluations, and rejections by cause
    # (domain fault, error control, feasibility gate)
    totals = np.zeros((5, size), dtype=np.int64)
    converged = np.ones(size, dtype=bool)
    rec_ids = [np.arange(size, dtype=np.int32)]
    rec_t = [np.zeros(size)]
    rec_v = [observe(starts)]

    # the arrays below hold the running rows only; ids maps them to
    # starts, and count holds their counters until they leave
    ids = np.flatnonzero(starts[:, n:].max(axis=1)
                         >= options.y_converged_threshold).astype(np.int32)
    u = starts[ids].T.copy()
    t = np.zeros(len(ids))
    k0 = _rhs(params, u)
    h = _initial_step(params, u, k0, options.abs_tol + options.rel_tol * np.abs(u),
                      t_max)
    count = np.zeros((5, len(ids)), dtype=np.int64)
    count[1] = 2  # the first slope and the starting-step probe
    # no running row has t >= t_max, so a step above this bound is above
    # each row's own underflow bound too
    tiny_bound = 1e-14 * max(1.0, t_max)

    while len(ids):
        h = np.minimum(h, t_max - t)
        if h.min() < tiny_bound:
            tiny = h < 1e-14 * np.maximum(1.0, t)
            if tiny.any():
                r = int(np.argmax(tiny))
                raise StiffnessError(
                    f"step size underflowed at t={t[r]:.6g} (h={h[r]:.3g})",
                    t=float(t[r]), state=(u[:n, r].copy(), u[n:, r].copy()))

        # first-same-as-last: _B is _A[6] and a zero weight, so the last
        # stage's argument is the step's fifth-order end
        k, tried, fault, u_new = _stages(params, u, h, k0, _A[1:])
        # a trial stage that wandered outside the interaction's domain is
        # treated like an oversized step
        count[1] += tried
        if fault.any():
            # a faulted row is rejected whatever its end holds; give it
            # the full sum over the stages it reached all the same
            u_new = np.where(fault, u + h * _combo(_B, k), u_new)
        err = _combo(_E, k)
        err *= h
        scale = np.maximum(np.abs(u), np.abs(u_new))
        scale *= options.rel_tol
        scale += options.abs_tol
        err /= scale
        err_norm = _rms(err)
        # an err_norm below 1e-300 (or 0) gets the capped growth 10 either
        # way; a non-finite one gives nan or 0, which fmax turns into 0.2
        factor = 0.9 * np.maximum(err_norm, 1e-300) ** -0.2
        ok = ~fault & (err_norm <= 1.0)
        all_ok = bool(ok.all())
        if not all_ok:
            h = np.where(ok, h, h * np.where(fault, 0.2, np.fmax(0.2, factor)))

        # accepted by the error controller; feasibility and positivity
        # gate acceptance too.  A tolerance-sized excursion below zero
        # (possible when some y_i sits near the convergence threshold),
        # or an infected component driven from positive mass to zero,
        # is cured by a shorter, more accurate step, not a failure: the
        # exact flow keeps both properties, and the local error shrinks
        # as h^5 while the true value does not.  Steps longer than
        # max_step are gated at their dense samples as well.
        end, grade = _gate(u_new, u[n:], n, eps)
        failed = np.zeros(len(ok), dtype=bool) if grade is None else ok & (grade > 0)
        dense = (np.flatnonzero(ok & (h > options.max_step))
                 if h.max() > options.max_step else ())
        if len(dense):
            owner, t_in, inner = _dense(u, u_new, k, h, t, dense, options.max_step)
            inner, inner_grade = _gate(inner, u[n:, owner], n, eps)
            if inner_grade is not None:
                failed[owner[inner_grade > 0]] = True
        any_failed = bool(failed.any())
        if any_failed:
            hopeless = failed & (h < 1e-13 * np.maximum(1.0, t))
            if hopeless.any():
                r = int(np.argmax(hopeless))
                if grade is not None and grade[r]:
                    raise _gate_error(int(grade[r]), float(t[r] + h[r]), end[:, r], n)
                i = np.flatnonzero((owner == r) & (inner_grade > 0))[0]
                raise _gate_error(int(inner_grade[i]), float(t_in[i]), inner[:, i], n)
            h = np.where(failed, 0.5 * h, h)
        acc = ok & ~failed if any_failed else ok

        if len(dense):
            keep = acc[owner]
            rec_ids.append(ids[owner[keep]])
            rec_t.append(t_in[keep])
            rec_v.append(observe(inner[:, keep].T))
        if all_ok and not any_failed:
            # every row accepted: plain updates, no masks
            count[0] += 1
            t = t + h
            k0 = k[6]  # first-same-as-last
            u = end
            rec_ids.append(ids)
            rec_t.append(t)
            rec_v.append(observe(u.T))
            conv = u[n:].max(axis=0) < options.y_converged_threshold
            done = conv | (t >= t_max)
            h = h * np.minimum(10.0, np.maximum(0.2, factor))
        else:
            count[0] += acc
            count[2] += fault
            count[3] += ~ok & ~fault
            count[4] += failed
            t = np.where(acc, t + h, t)
            k0 = np.where(acc, k[6], k0)
            u = np.where(acc, end, u)
            rec_ids.append(ids[acc])
            rec_t.append(t[acc])
            rec_v.append(observe(u[:, acc].T))
            conv = acc & (u[n:].max(axis=0) < options.y_converged_threshold)
            done = conv | (acc & (t >= t_max))
            h = np.where(acc, h * np.minimum(10.0, np.maximum(0.2, factor)), h)
        if end is not u_new:  # the gate clamped: the last stage is stale
            fresh = acc & (end != u_new).any(axis=0)
            if fresh.any():
                count[1, fresh] += 1
                k0[:, fresh] = _rhs(params, u[:, fresh])
        if done.any():
            gone = ids[done]
            converged[gone] = conv[done]
            totals[:, gone] = count[:, done]
            stay = ~done
            ids, u, t, h, k0 = ids[stay], u[:, stay], t[stay], h[stay], k0[:, stay]
            count = count[:, stay]

    # each row's records in time order; a stable sort keeps the step order
    row_of = np.concatenate(rec_ids)
    order = np.argsort(row_of, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(np.bincount(row_of, minlength=size))])

    def flat(chunks: list) -> np.ndarray:
        records = np.concatenate(chunks)
        chunks.clear()  # free the step records before the sorted copy
        return records[order]

    return BatchRuns(times=flat(rec_t), samples=flat(rec_v), offsets=offsets,
                     converged=converged, counts=totals)


def integrate(params: ModelParams, initial: EpidemicState,
              options: IntegratorOptions | None = None) -> Trajectory:
    """Run the flow from an initial state until convergence or t_max."""
    if initial.n != params.n:
        raise ConfigurationError(
            f"initial state has n={initial.n} but the model has n={params.n}")
    runs = integrate_batch(params, np.concatenate([initial.x, initial.y])[None],
                           options)
    accepted, evaluations, fault, error, gate = runs.counts[:, 0].tolist()
    return Trajectory(
        times=runs.times, x=runs.samples[:, :params.n], y=runs.samples[:, params.n:],
        terminal=(TerminalStatus.CONVERGED if runs.converged[0]
                  else TerminalStatus.REACHED_T_MAX),
        n_accepted=accepted, n_rejected=fault + error + gate, n_evaluations=evaluations,
        n_rejected_fault=fault, n_rejected_error=error, n_rejected_gate=gate)


def limit_equilibrium(trajectory: Trajectory,
                      initial: EpidemicState | None = None) -> EpidemicState:
    """The disease-free equilibrium a converged run settled into.

    Guarantees 0 <= x* <= x(0) componentwise and y* = 0 exactly.  The
    initial state defaults to the trajectory's first sample.
    """
    if trajectory.terminal is not TerminalStatus.CONVERGED:
        raise UsageError(
            "limit equilibrium is defined only for converged runs; this one "
            f"ended with {trajectory.terminal.value!r}")
    x0 = trajectory.x[0] if initial is None else initial.x
    x_star = np.clip(trajectory.x[-1], 0.0, x0)
    return EpidemicState(x_star, np.zeros_like(x_star))


def _fmt(value: float) -> str:
    return format(value, ".17g")


def trajectory_to_csv(trajectory: Trajectory,
                      interaction: InteractionSpec | None = None) -> str:
    """CSV rendering: t, x_1..x_n, y_1..y_n, and a trailing ybar column
    (aggregate_values) when the interaction is a Rank1Local."""
    n = trajectory.n
    with_ybar = isinstance(interaction, Rank1Local)
    header = ["t"] + [f"x_{i + 1}" for i in range(n)] + [f"y_{i + 1}" for i in range(n)]
    if with_ybar:
        header.append("ybar")
        ybar = aggregate_values(interaction, trajectory.y)
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for row_idx in range(len(trajectory)):
        cells = [_fmt(trajectory.times[row_idx])]
        cells += [_fmt(v) for v in trajectory.x[row_idx]]
        cells += [_fmt(v) for v in trajectory.y[row_idx]]
        if with_ybar:
            cells.append(_fmt(ybar[row_idx]))
        out.write(",".join(cells) + "\n")
    return out.getvalue()
