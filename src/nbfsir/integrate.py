"""Adaptive integration of the epidemic flow with feasibility guards.

An explicit embedded Runge-Kutta pair, Dormand and Prince's DOP853,
drives the state forward with per-component error control: an
eighth-order step whose error norm combines the pair's fifth- and
third-order estimates.  After every accepted step, tiny negative
components (inside (-clamp_eps, 0)) are clamped to zero and the state is
re-checked against the feasible set; leaving it beyond clamp_eps is an
integration failure.  The run terminates when every infected fraction
is below y_converged_threshold at a disease-free state that is not
unstable, lambda(diag(x) A(x, 0)) <= gamma over the nodes the infection
can reach (converged to a disease-free equilibrium), or when t_max is
reached.  Below the threshold with lambda > gamma the infection still
grows, so the run keeps stepping; a start with y = 0 exactly is an
equilibrium whatever its x.

Output sampling uses the pair's seventh-order dense interpolant, which
costs three more stages on each step longer than max_step, so that
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
rounding depends on the memory order (the error norms and the starting
step's norms) run on a row-major copy, where a contiguous axis of 8 or
more terms is summed pairwise, exactly as a (B, 2n) array would be.

A step makes no throwaway (stages, 2n, B) array.  Each stage sum is one
einsum over the stage axis, which adds the products of every element in
order from +0.0, the bits of multiply-then-reduce; each stage argument is
built in place on its sum.  By first-same-as-last the eighth-order end of
the step is the last stage's argument, so it is not summed again.  einsum
raises no floating-point warning, so an overflow in a stage sum shows up
at the next ufunc that meets the inf, if any.
"""

from __future__ import annotations

import enum
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
from .stability import _dfe_roots

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

def _weights(length: int, entries: dict[int, float]) -> np.ndarray:
    """A weight vector over the slopes k[0..length-1], zero where unset."""
    w = np.zeros(length)
    w[list(entries)] = list(entries.values())
    return w


# The DOP853 pair (Hairer, Norsett and Wanner, Solving Ordinary
# Differential Equations I, 2nd ed., II.10).  _A[s] weights the slopes
# k[0..s-1] in stage s's argument.  Stages 1-11 are the step's; stage
# 12's weights are _B, the eighth-order weights, so its argument is the
# step's end and its slope the next step's k[0] (first-same-as-last);
# stages 13-15 feed the seventh-order dense output only.  The flow is
# autonomous, so the stage times are not needed.
_A = [np.zeros(0)] + [_weights(s, entries) for s, entries in enumerate([
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
], start=1)]
_B = _A[12]
# weights of the fifth-order and third-order error estimates
_E5 = _weights(12, {
    0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e1,
    6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e1,
    8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1})
_E3 = _B - _weights(12, {0: 0.244094488188976377952755905512,
                         8: 0.733846688281611857341361741547,
                         11: 0.220588235294117647058823529412e-1})
# the dense output's last four coefficients, over all 16 slopes
_D = [_weights(16, entries) for entries in [
    {0: -0.84289382761090128651353491142e1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e1, 7: 0.23846676565120698287728149680e1,
     8: 0.21170345824450282767155149946e1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e2,
     14: -0.91946323924783554000451984436e1, 15: -0.44360363875948939664310572000e1},
    {0: 0.10427508642579134603413151009e2, 5: 0.24228349177525818288430175319e3,
     6: 0.16520045171727028198505394887e3, 7: -0.37454675472269020279518312152e3,
     8: -0.22113666853125306036270938578e2, 9: 0.77334326684722638389603898808e1,
     10: -0.30674084731089398182061213626e2, 11: -0.93321305264302278729567221706e1,
     12: 0.15697238121770843886131091075e2, 13: -0.31139403219565177677282850411e2,
     14: -0.93529243588444783865713862664e1, 15: 0.35816841486394083752465898540e2},
    {0: 0.19985053242002433820987653617e2, 5: -0.38703730874935176555105901742e3,
     6: -0.18917813819516756882830838328e3, 7: 0.52780815920542364900561016686e3,
     8: -0.11573902539959630126141871134e2, 9: 0.68812326946963000169666922661e1,
     10: -0.10006050966910838403183860980e1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e1, 13: -0.60196695231264120758267380846e2,
     14: 0.84320405506677161018159903784e2, 15: 0.11992291136182789328035130030e2},
    {0: -0.25693933462703749003312586129e2, 5: -0.15418974869023643374053993627e3,
     6: -0.23152937917604549567536039109e3, 7: 0.35763911791061412378285349910e3,
     8: 0.93405324183624310003907691704e2, 9: -0.37458323136451633156875139351e2,
     10: 0.10409964950896230045147246184e3, 11: 0.29840293426660503123344363579e2,
     12: -0.43533456590011143754432175058e2, 13: 0.96324553959188282948394950600e2,
     14: -0.39177261675615439165231486172e2, 15: -0.14972683625798562581422125276e3},
]]


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
            object.__setattr__(self, name, _as_float(
                getattr(self, name), f"integrator.{name}", 0, above=True))
        if self.rel_tol > 1e-3 or self.abs_tol > 1e-3:
            raise ConfigurationError(
                "tolerances above 1e-3 give unreliable trajectories: "
                f"integrator.rel_tol={self.rel_tol}, integrator.abs_tol={self.abs_tol}")
        if self.t_max is not None:
            # no lower bound to _as_float, which would refuse an infinite horizon
            object.__setattr__(self, "t_max", _as_float(self.t_max, "integrator.t_max"))
            if not self.t_max > 0:
                raise ConfigurationError(
                    f"integrator.t_max must be positive, got {self.t_max}")

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
    reached t_max instead, or that a settled callback retired.  The rows
    of counts are accepted steps, RHS evaluations, and rejected steps by
    cause: a domain fault in a trial stage, else an error norm above 1,
    else a failed feasibility gate."""

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


def _stages(params: ModelParams, u: np.ndarray, h: np.ndarray, known: np.ndarray,
            tableau) -> tuple[np.ndarray, np.ndarray | int, np.ndarray, np.ndarray]:
    """Trial stages k[s] = f(u + h * sum_j tableau[s-1][j] k[j]) for the
    slots s after the given slopes k[:len(known)] = known, for every
    column of the (2n, B) state u, with the number of evaluations each
    row made (one int for all when no stage faulted), whether a domain
    fault stopped it there, and the last stage's argument; with the
    step's rows of _A that argument is the step's eighth-order end
    (first-same-as-last).  A row that faulted gets the argument of the
    stage that faulted instead.  k is (stages, 2n, B), so each stage slot
    is a contiguous (2n, B) block.  Each argument is built in place on
    its stage sum, which this function owns: (sum * h) + u has the bits
    of u + h * sum.

    A faulting block is split in halves until the fault is pinned to
    single rows.  Each row's arithmetic is its own, so a row's stages do
    not depend on which rows share the batch."""
    first = len(known)
    k = np.zeros((len(tableau) + 1,) + u.shape)
    k[:first] = known
    for s in range(first, len(tableau) + 1):
        arg = _combo(tableau[s - 1], k)
        arg *= h
        arg += u
        try:
            _rhs(params, arg, k[s])
        except EvaluationError:
            if len(h) == 1:
                return k, np.array([s - first + 1]), np.array([True]), arg
            mid = len(h) // 2
            parts = (_stages(params, u[:, :mid], h[:mid], known[:, :, :mid], tableau),
                     _stages(params, u[:, mid:], h[mid:], known[:, :, mid:], tableau))
            return (np.concatenate([p[0] for p in parts], axis=2),
                    np.concatenate([np.broadcast_to(p[1], p[2].shape)
                                    for p in parts]),
                    np.concatenate([p[2] for p in parts]),
                    np.concatenate([p[3] for p in parts], axis=1))
    return k, len(tableau) - first + 1, np.zeros(len(h), dtype=bool), arg


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


def _mean_square(a: np.ndarray) -> np.ndarray:
    """Mean square of each column of a (2n, B) array.  The sum runs along
    a row-major copy: numpy adds a contiguous axis pairwise from 8 terms
    on and a strided one in plain order, so the copy keeps the grouping,
    and the bits, of a (B, 2n) state."""
    a = np.ascontiguousarray(a.T)
    return np.add.reduce(a * a, axis=1) / a.shape[1]


def _rms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_mean_square(a))


def _error_norm(h: np.ndarray, err5: np.ndarray, err3: np.ndarray) -> np.ndarray:
    """DOP853's error norm per column, from the fifth- and third-order
    estimates already divided by the scale: h e5 / sqrt(e5 + 0.01 e3)
    with e the mean squares, and 0 where both are 0.  A non-finite
    estimate gives inf or nan."""
    e5 = _mean_square(err5)
    denom = _mean_square(err3)
    denom *= 0.01
    denom += e5
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom == 0.0, 0.0, h * e5 / np.sqrt(denom))


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
    what = ("state left the feasible set beyond clamp_eps" if grade == 1
            else "an infected component crossed zero from positive mass")
    return IntegrationFailureError(
        f"{what} at t={t:.6g}: x={u[:n].tolist()}, y={u[n:].tolist()}")


def _initial_step(params: ModelParams, u0: np.ndarray, f0: np.ndarray,
                  scale: np.ndarray, t_span: float) -> np.ndarray:
    """Standard starting-step heuristic from the norms of u0, f0 and one
    Euler probe, per column."""
    d0 = _rms(u0 / scale)
    d1 = _rms(f0 / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d1 < 1e-5) | (d0 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, 0.1 * t_span)
    k, _, fault, _ = _stages(params, u0, h0, f0[None], [np.ones(1)])
    d2 = _rms((k[1] - f0) / scale) / h0
    d = np.maximum(d1, d2)
    with np.errstate(divide="ignore"):
        h1 = np.where(d <= 1e-15, np.maximum(1e-6, h0 * 1e-3), (0.01 / d) ** 0.125)
    return np.where(fault, np.minimum(h0, t_span),
                    np.minimum(np.minimum(100 * h0, h1), t_span))


def _dense(u: np.ndarray, u_new: np.ndarray, k: np.ndarray, h: np.ndarray,
           t: np.ndarray, rows: np.ndarray, max_step: float
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Samples inside the steps of the given rows, at most max_step
    apart: the row each sample belongs to, its time and its state.  k
    holds those rows' 16 slopes, one column per row.  The states come as
    a (2n, m) array, one column per sample, so the gate takes them as it
    takes the state."""
    hr = h[rows]
    parts = np.ceil(hr / max_step).astype(np.int64) - 1
    local = np.repeat(np.arange(len(rows)), parts)
    idx = np.arange(len(local)) - np.repeat(np.cumsum(parts) - parts, parts) + 1
    theta = idx / np.repeat(parts + 1, parts)
    owner = rows[local]
    states = _interpolate(u[:, rows], u_new[:, rows], k, hr, local, theta)
    return owner, t[owner] + theta * h[owner], states


def _interpolate(u0: np.ndarray, u1: np.ndarray, k: np.ndarray, h: np.ndarray,
                 local: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The pair's seventh-order dense interpolant of the steps from the
    columns of u0 to those of u1, with lengths h and their 16 slopes k
    (the step's 13 and three more), at the fractions theta of the steps
    local: one column per sample, so its ops run along the samples."""
    ydiff = u1 - u0
    f0, f1, f2, f3, f4, f5, f6 = (
        c[:, local] for c in [ydiff, h * k[0] - ydiff, 2.0 * ydiff - h * (k[12] + k[0]),
                              *(h * _combo(d, k) for d in _D)])
    s = 1.0 - theta
    return u0[:, local] + theta * (f0 + s * (f1 + theta * (f2 + s * (
        f3 + theta * (f4 + s * (f5 + theta * f6))))))


def _at_rest(params: ModelParams, u: np.ndarray, options: IntegratorOptions,
             rows: np.ndarray | None = None) -> np.ndarray:
    """The columns of the (2n, B) state u, or of those in the (B,) mask
    rows, where a run ends: every y_i is below y_converged_threshold and
    the disease-free state there is not unstable for the nodes the
    infection can reach, lambda(diag(x) A(x, 0)) <= gamma
    (stability._dfe_roots).  Below the threshold with lambda > gamma the
    infection still grows, so such a row keeps stepping.  One Perron root
    per row below the threshold."""
    n = params.n
    rest = u[n:].max(axis=0) < options.y_converged_threshold
    if rows is not None:
        rest &= rows
    if rest.any():
        below = np.flatnonzero(rest)
        rest[below] = _dfe_roots(params, u[:n, below].T, u[n:, below].T) <= params.gamma
    return rest


def integrate_batch(params: ModelParams, starts,
                    options: IntegratorOptions | None = None,
                    observe=None, *, settled=None) -> BatchRuns:
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

    settled, when given, is called after each step with the rows that
    accepted it and are still running: settled(ids, u), with ids their
    rows of starts and u their (m, 2n) states, returns an (m,) mask of
    the rows to retire.  A retired row leaves the batch there, its record
    ending at that step, with converged False; its step records and
    counters are the ones of its full run up to that step.  The other
    rows do not change.
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
    # a start with y = 0 exactly reaches no node: an equilibrium, whatever its x
    ids = np.flatnonzero(~_at_rest(params, starts.T, options)).astype(np.int32)
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
        # a clipped step ends on t_max, which t + (t_max - t) can miss by an ulp
        rest = t_max - t
        h = np.minimum(h, rest)
        if h.min() < tiny_bound:
            tiny = h < 1e-14 * np.maximum(1.0, t)
            if tiny.any():
                r = int(np.argmax(tiny))
                raise StiffnessError(
                    f"step size underflowed at t={t[r]:.6g} (h={h[r]:.3g})",
                    t=float(t[r]), state=(u[:n, r].copy(), u[n:, r].copy()))

        # first-same-as-last: _B is _A[12], so the last stage's argument
        # is the step's eighth-order end
        k, tried, fault, u_new = _stages(params, u, h, k0[None], _A[1:13])
        # a trial stage that wandered outside the interaction's domain is
        # treated like an oversized step
        count[1] += tried
        scale = np.maximum(np.abs(u), np.abs(u_new))
        scale *= options.rel_tol
        scale += options.abs_tol
        err5 = _combo(_E5, k)
        err5 /= scale
        err3 = _combo(_E3, k)
        err3 /= scale
        err_norm = _error_norm(h, err5, err3)
        # an err_norm below 1e-300 (or 0) gets the capped growth 10 either
        # way; a non-finite one gives nan or 0, which fmax turns into 0.2
        factor = 0.9 * np.maximum(err_norm, 1e-300) ** -0.125
        ok = ~fault & (err_norm <= 1.0)
        # steps longer than max_step are sampled inside by the dense
        # output, whose three extra stages can fault like the step's
        dense = (np.flatnonzero(ok & (h > options.max_step))
                 if h.max() > options.max_step else ())
        if len(dense):
            k_dense, tried, dense_fault, _ = _stages(params, u[:, dense], h[dense],
                                                     k[:, :, dense], _A[1:])
            count[1, dense] += tried
            if dense_fault.any():
                fault[dense[dense_fault]] = True
                ok[dense[dense_fault]] = False
                dense, k_dense = dense[~dense_fault], k_dense[:, :, ~dense_fault]
        all_ok = bool(ok.all())
        if not all_ok:
            h = np.where(ok, h, h * np.where(fault, 0.2, np.fmax(0.2, factor)))

        # accepted by the error controller; feasibility and positivity
        # gate acceptance too.  A tolerance-sized excursion below zero
        # (possible when some y_i sits near the convergence threshold),
        # or an infected component driven from positive mass to zero,
        # is cured by a shorter, more accurate step, not a failure: the
        # exact flow keeps both properties, and the local error shrinks
        # with a high power of h while the true value does not.  Steps
        # longer than max_step are gated at their dense samples as well.
        end, grade = _gate(u_new, u[n:], n, eps)
        failed = np.zeros(len(ok), dtype=bool) if grade is None else ok & (grade > 0)
        if len(dense):
            owner, t_in, inner = _dense(u, u_new, k_dense, h, t, dense, options.max_step)
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
            t = np.where(h == rest, t_max, t + h)
            k0 = k[12]  # first-same-as-last
            u = end
            rec_ids.append(ids)
            rec_t.append(t)
            rec_v.append(observe(u.T))
            conv = _at_rest(params, u, options)
            done = conv | (t >= t_max)
            h = h * np.minimum(10.0, np.maximum(0.2, factor))
        else:
            count[0] += acc
            count[2] += fault
            count[3] += ~ok & ~fault
            count[4] += failed
            t = np.where(acc, np.where(h == rest, t_max, t + h), t)
            k0 = np.where(acc, k[12], k0)
            u = np.where(acc, end, u)
            rec_ids.append(ids[acc])
            rec_t.append(t[acc])
            rec_v.append(observe(u[:, acc].T))
            conv = _at_rest(params, u, options, acc)
            done = conv | (acc & (t >= t_max))
            h = np.where(acc, h * np.minimum(10.0, np.maximum(0.2, factor)), h)
        if settled is not None:
            going = np.flatnonzero(acc & ~done)
            if len(going):
                done[going] = settled(ids[going], u[:, going].T)
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


def _csv(header: list[str], *columns: np.ndarray) -> str:
    """A header line, then one line per row of the float columns, side by
    side, each value in the .17g form that reads back to the same float."""
    rows = np.column_stack(columns).tolist()
    lines = [",".join(header)] + [",".join(format(v, ".17g") for v in row)
                                  for row in rows]
    return "\n".join(lines) + "\n"


def trajectory_to_csv(trajectory: Trajectory,
                      interaction: InteractionSpec | None = None) -> str:
    """CSV rendering: t, x_1..x_n, y_1..y_n, and a trailing ybar column
    (aggregate_values) when the interaction is a Rank1Local."""
    n = trajectory.n
    header = ["t"] + [f"x_{i + 1}" for i in range(n)] + [f"y_{i + 1}" for i in range(n)]
    columns = [trajectory.times, trajectory.x, trajectory.y]
    if isinstance(interaction, Rank1Local):
        header.append("ybar")
        columns.append(aggregate_values(interaction, trajectory.y))
    return _csv(header, *columns)
