"""State-dependent interaction matrices and their structural checks.

An interaction spec describes how the n-by-n contact matrix A(x, y)
responds to the epidemic state.  Five families are supported:

* ``Constant``          -- a fixed nonnegative matrix.
* ``Rank1Local``        -- A_ij = g_i(x_i) * f_j(y_j), node-local feedback.
* ``ScalarScaled``      -- A_ij = num_i(x_i) / denom(y), one scalar
                           denominator expression over the full y vector.
* ``OuterProduct``      -- A = c * (1 - x) y^T; rank-one local with
                           g_i(u) = c*(1-u) and f_j(v) = v.
* ``ExpressionMatrix``  -- every entry its own expression in x and y.

Node functions (the g's and f's) come in three forms: the two closed
forms of the one table _FORMS, affine ``p + q*u`` and reciprocal-affine
``p / (1 + alpha*u)``, and a parsed expression over the scalar ``u``.
A spec groups its node functions once, when it is built: one vectorised
call covers all nodes of each closed form, and one each set of equal
expressions, with the same floating-point operations per element as
per-node calls.  Other FunctionSpec subclasses are called node by node.

All evaluation is batched: state arrays of shape (..., n) produce
matrices of shape (..., n, n).  The flow needs only the incidence
x * (A(x, y) y), shape (..., n); the rank-one and scalar-scaled kinds
compute it without building A.  The integrator passes F-ordered (B, n)
states, and every kind gives the same bits for every memory order: the
rank-one sum runs column by column, Constant and ScalarScaled sum a
C-ordered copy of y, and the generic sum runs over a product laid out
like A(x, y), which ExpressionMatrix builds C-ordered.
"""

from __future__ import annotations

import abc
import functools
import itertools
import math
import numbers
import reprlib
from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

from . import expr as _expr
from .errors import (
    ConfigurationError,
    EvaluationError,
    ExpressionSyntaxError,
    ModelValidityError,
    UsageError,
)

__all__ = [
    "FunctionSpec",
    "Affine",
    "ReciprocalAffine",
    "ExpressionFunction",
    "function_from_config",
    "InteractionSpec",
    "Constant",
    "Rank1Local",
    "ScalarScaled",
    "OuterProduct",
    "ExpressionMatrix",
    "interaction_from_config",
    "aggregate_values",
    "check_monotonicity_conditions",
    "MonotonicityReport",
    "MonotonicityViolation",
    "check_unimodality_hypotheses",
    "HypothesesReport",
    "HypothesisFailure",
]

# entries this far below zero are treated as genuinely negative; smaller
# excursions are roundoff from states that sit on the feasible boundary
_NONNEG_TOL = 1e-9
# the most entries of A that an evaluation over a point set holds at once:
# 8 MB of doubles, or 250 000 two-node points
_ENTRIES = 1_000_000
# the most nodes a spec, or points a side of a grid, may have: past it one
# A(x, y) or one grid holds over _ENTRIES entries, the cap of _row_blocks
_MAX_SIDE = math.isqrt(_ENTRIES)


# ---------------------------------------------------------------------------
# node functions
# ---------------------------------------------------------------------------

def _coefficients(what: str, **values) -> dict[str, float]:
    """values read by the number rule, as floats.  A NaN coefficient
    passes every sign check, so a non-finite one is refused up front."""
    values = {k: _as_float(v, f"{what} {k}") for k, v in values.items()}
    if not np.isfinite(list(values.values())).all():
        raise ConfigurationError(
            f"{what} needs finite coefficients, got {list(values.values())}")
    return values


class FunctionSpec(abc.ABC):
    """A scalar function of one state component, vectorized over arrays.
    It must pickle, for a screen's workers: module level, with no lambda."""

    @abc.abstractmethod
    def __call__(self, u):
        ...

    @abc.abstractmethod
    def to_config(self):
        ...


@dataclass(frozen=True)
class Affine(FunctionSpec):
    """p + q*u."""

    p: float
    q: float

    def __post_init__(self):
        for k, v in _coefficients("affine form", p=self.p, q=self.q).items():
            object.__setattr__(self, k, v)

    @staticmethod
    def _formula(p, q, u):
        return p + q * u

    def __call__(self, u):
        return self._formula(self.p, self.q, np.asarray(u, dtype=float))

    def _ratio(self) -> tuple[float, float, float]:
        return self.p, self.q, 0.0

    def to_config(self):
        return {"form": "affine", "p": self.p, "q": self.q}


@dataclass(frozen=True)
class ReciprocalAffine(FunctionSpec):
    """p / (1 + alpha*u); requires alpha > -1 so the denominator stays
    positive on [0, 1]."""

    p: float
    alpha: float

    def __post_init__(self):
        for k, v in _coefficients("reciprocal-affine form", p=self.p,
                                  alpha=self.alpha).items():
            object.__setattr__(self, k, v)
        if not self.alpha > -1.0:
            raise ConfigurationError(
                f"reciprocal-affine form needs alpha > -1, got {self.alpha}"
            )

    @staticmethod
    def _formula(p, alpha, u):
        return p / (1.0 + alpha * u)

    def __call__(self, u):
        return self._formula(self.p, self.alpha, np.asarray(u, dtype=float))

    def _ratio(self) -> tuple[float, float, float]:
        return self.p, 0.0, self.alpha

    def to_config(self):
        return {"form": "reciprocal_affine", "p": self.p, "alpha": self.alpha}


# the closed node forms by config tag, each (p + q*u) / (1 + alpha*u) with
# q*alpha = 0: _ratio() is (p, q, alpha), and _formula(*fields, u) its values
_FORMS = {"affine": Affine, "reciprocal_affine": ReciprocalAffine}


@dataclass(frozen=True)
class ExpressionFunction(FunctionSpec):
    """A scalar expression over the variable u, held as its printed
    source; parse(pretty(a)) == a, so equal sources are equal trees."""

    source: str

    def __post_init__(self):
        node = _expr.parse_scalar(self.source)
        object.__setattr__(self, "source", _expr.pretty(node))
        object.__setattr__(self, "_node", node)

    def __call__(self, u):
        return _expr.evaluate_scalar(self._node, u)

    def to_config(self):
        return self.source


def _scatter(families: list, u):
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    for cols, fn in families:
        out[..., cols] = fn(u[..., cols])
    return out


def _grouped(funcs: Sequence[FunctionSpec]):
    """One callable from (..., n) to (..., n) that applies funcs[i] to
    column i, built once per spec from module-level functions, so specs
    still pickle.

    The nodes of each closed form (_FORMS) become one call of its
    _formula over coefficient vectors; equal expressions are evaluated
    once on all the columns that share them.  Every element sees the
    same IEEE operations as in its own node's call, so the result is
    bit-for-bit the per-node stack.  Any other FunctionSpec is called
    once per node on its 1-D column."""
    # (columns, callable on those columns); a lone int column is a 1-D slice
    families: list = []
    for form in _FORMS.values():
        cols = [i for i, fn in enumerate(funcs) if type(fn) is form]
        if cols:
            families.append((cols, functools.partial(form._formula, *(
                np.array([getattr(funcs[i], f.name) for i in cols])
                for f in fields(form)))))
    shared: dict[ExpressionFunction, list[int]] = {}
    for i, fn in enumerate(funcs):
        if type(fn) is ExpressionFunction:
            shared.setdefault(fn, []).append(i)
    families += [(cols, fn) for fn, cols in shared.items()]
    families += [(i, fn) for i, fn in enumerate(funcs)
                 if type(fn) not in (*_FORMS.values(), ExpressionFunction)]
    if len(families) == 1 and families[0][0] == list(range(len(funcs))):
        return families[0][1]  # one family over every node: no gather
    # first node first, so faults and side effects come in node order
    families.sort(key=lambda fam: np.min(fam[0]))
    return functools.partial(_scatter, families)


# ---------------------------------------------------------------------------
# strict readers for config fields and library arguments
# ---------------------------------------------------------------------------

def _check_fields(obj, where: str, allowed, required=frozenset()) -> None:
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where} must be an object, got {type(obj).__name__}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigurationError(f"unknown fields in {where}: {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigurationError(f"missing fields in {where}: {sorted(missing)}")


class _Echo(reprlib.Repr):
    """A refused value as a message echoes it: its repr if short, else cut
    by reprlib, which reads no more than it prints, to 200 characters."""

    def repr(self, x):
        text = super().repr(x)
        return text if len(text) <= 200 else text[:197] + "..."

    def repr_dict(self, x, level):
        pieces = [f"{self.repr1(k, level - 1)}: {self.repr1(v, level - 1)}"
                  for k, v in itertools.islice(x.items(), self.maxdict * (level > 0))]
        return "{" + ", ".join(pieces + ["..."] * (len(pieces) < len(x))) + "}"


_echo = _Echo().repr


# The one number rule, for config fields and library arguments alike: a
# bool or a non-number is refused, numpy scalars are read, and with low
# given the value must be finite and >= low (> low when above is set), so
# a NaN cannot slip past a range check; with high given an integer must
# be <= high.  error is the exception raised: ConfigurationError for
# config fields, UsageError for library arguments.

def _as_int(value, where: str, low: int | None = None,
            error=ConfigurationError, high: int | None = None) -> int:
    whole = (isinstance(value, numbers.Integral)
             or isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not whole or low is not None and value < low:
        bound = "" if low is None else f" >= {low}"
        raise error(f"{where} must be an integer{bound}, got {_echo(value)}")
    if high is not None and value > high:
        raise error(f"{where} must be an integer <= {high}, got {_echo(value)}")
    return int(value)


def _as_float(value, where: str, low: float | None = None, above: bool = False,
              error=ConfigurationError) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{where} must be a number, got {_echo(value)}")
    try:
        value = float(value)
    except OverflowError:  # a huge integer reads as JSON reads 1e400
        value = math.inf if value > 0 else -math.inf
    if low is not None and not (math.isfinite(value)
                                and (value > low if above else value >= low)):
        raise error(f"{where} must be a finite number {'>' if above else '>='} "
                    f"{low}, got {_echo(value)}")
    return value


def _as_text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{where} must be an expression string, got {_echo(value)}")
    return value


def _as_square(value, where: str, read, n: int | None) -> list[list]:
    """A square JSON array of arrays, n rows if n is given, each entry read."""
    if not isinstance(value, list) or any(
            not isinstance(row, list) or len(row) != len(value) for row in value):
        raise ConfigurationError(f"{where} must be a square array of arrays")
    if n is not None and len(value) != n:
        raise ConfigurationError(
            f"interaction size {len(value)} does not match model n={n}")
    return [[read(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(value)]


def _within(where: str, build, *args):
    """build(*args), with a syntax error in it named as met in where."""
    try:
        return build(*args)
    except ExpressionSyntaxError as exc:
        raise exc.within(where) from None


def _functions(values, where: str) -> tuple[FunctionSpec, ...]:
    """values as a tuple of node functions; where names the field."""
    if not isinstance(values, Iterable):
        raise ConfigurationError(
            f"{where} must be a sequence of node functions, got {_echo(values)}")
    values = tuple(values)
    for k, fn in enumerate(values):
        if not isinstance(fn, FunctionSpec):
            raise ConfigurationError(f"{where}[{k}] must be a FunctionSpec, got {_echo(fn)}")
    return values


def function_from_config(obj, where: str = "function") -> FunctionSpec:
    """Build a node function from its config form (string or tagged dict);
    where names it in error messages."""
    if isinstance(obj, str):
        return _within(where, ExpressionFunction, obj)
    if not isinstance(obj, dict):
        raise ConfigurationError(
            f"{where} must be a string or a tagged object, got {type(obj).__name__}")
    form = obj.get("form")
    if not isinstance(form, str) or form not in _FORMS:
        raise ConfigurationError(f"unknown function form {_echo(form)}")
    names = [f.name for f in fields(_FORMS[form])]
    _check_fields(obj, f"{where} ({form})", {"form", *names}, names)
    return _FORMS[form](*(_as_float(obj[k], f"{where}.{k}") for k in names))


# ---------------------------------------------------------------------------
# interaction specs
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _halton(count: int, dim: int) -> np.ndarray:
    """The first count points of the Halton sequence in [0, 1)^dim: the
    radical inverse of 0, 1, ..., count - 1 in each of the first dim
    primes.  Read-only, and kept for the next call: every validation of
    an n-node spec asks for the same set, and keeping only the last one
    bounds what the cache holds."""
    primes: list[int] = []
    k = 2
    while len(primes) < dim:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    pts = np.zeros((count, dim))
    for d, base in enumerate(primes):
        index = np.arange(count)
        digit_value = 1.0
        while index.any():
            digit_value /= base
            pts[:, d] += digit_value * (index % base)
            index //= base
    pts.setflags(write=False)
    return pts


def _corners(n: int) -> np.ndarray:
    """Vertices [x, y] of the feasible set, node i at (0, 0), (0, 1) or
    (1, 0), digit 0, 1 or 2: all 3^n up to n = 10, else 3^10 whose digits
    are GF(3) sums of ten free ones, weighted so that any two nodes meet
    in all nine pairs.  Ordered as itertools.product((0, 1), repeat=2n)
    first meets them once y is clamped to 1 - x."""
    m = min(n, 10)
    free = np.arange(3 ** m)[:, None] // 3 ** np.arange(m) % 3  # all of GF(3)^m
    # one weight per line through 0 (lowest nonzero digit 1), units first
    weights = free[free[np.arange(len(free)), (free != 0).argmax(axis=1)] == 1]
    weights = weights[np.argsort((weights != 0).sum(axis=1) > 1, kind="stable")]
    digits = free @ np.resize(weights, (n, m)).T % 3
    u = np.hstack([digits == 2, digits == 1]).astype(float)
    return u[np.lexsort(u.T[::-1])]


def _row_blocks(count: int, n: int) -> list[slice]:
    """count points in consecutive slices, each few enough that their
    (rows, n, n) stack of A holds at most _ENTRIES entries."""
    step = max(1, _ENTRIES // (n * n))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _check_nonnegative(a: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Raise ModelValidityError when an entry of a = A(x, y), a (..., n, n)
    stack, lies below -_NONNEG_TOL, naming the most negative entry and the
    state it was found at."""
    if a.min() < -_NONNEG_TOL:
        n, k = a.shape[-1], int(np.argmin(a))
        state, (i, j) = k // (n * n), divmod(k % (n * n), n)
        raise ModelValidityError(
            f"interaction entry A[{i + 1},{j + 1}] = {a.flat[k]:.6g} is negative "
            f"at x={x.reshape(-1, n)[state].tolist()}, "
            f"y={y.reshape(-1, n)[state].tolist()}")


class InteractionSpec(abc.ABC):
    """Common protocol for the interaction matrix families."""

    n: int
    kind: str
    _nonnegative = False  # the constructor refuses a negative A: validate samples none

    @abc.abstractmethod
    def _evaluate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        ...

    def _incidence(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x * (self._evaluate(x, y) * y[..., None, :]).sum(axis=-1)

    def _states(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape or x.shape[-1] != self.n:
            raise ConfigurationError(
                f"state shape mismatch: x {x.shape}, y {y.shape}, n={self.n}")
        return x, y

    def evaluate(self, x, y, *, check: bool = True) -> np.ndarray:
        """A(x, y) for state arrays of shape (..., n) -> (..., n, n)."""
        x, y = self._states(x, y)
        a = self._evaluate(x, y)
        if check:
            _check_nonnegative(a, x, y)
        return a

    def incidence(self, x, y, *, check: bool = True) -> np.ndarray:
        """x * (A(x, y) y) for state arrays of shape (..., n) -> (..., n).

        Each state's sum is its own, so a state's result does not depend
        on the batch it is in.  check=True also builds A to test its
        entries for negativity, as evaluate does."""
        x, y = self._states(x, y)
        if check:
            _check_nonnegative(self._evaluate(x, y), x, y)
        return self._incidence(x, y)

    @abc.abstractmethod
    def to_config(self) -> dict:
        ...

    def validate(self, samples: int = 8192) -> None:
        """Check nonnegativity, unless the spec is _nonnegative, over
        quasi-random feasible states plus the vertices of the feasible set
        (_corners), in the blocks of _row_blocks; raises ModelValidityError
        on failure, with the most negative entry of all blocks as the witness."""
        samples = _as_int(samples, "samples", 1, error=UsageError)
        if self._nonnegative:
            return
        m = max(2, int(np.ceil(np.log2(samples))))
        pts = _halton(2 ** m, 2 * self.n)
        u = np.vstack([pts, _corners(self.n)])  # a copy: the set is cached
        u[:len(pts), self.n:] *= 1.0 - pts[:, : self.n]
        x, y = u[:, : self.n], u[:, self.n:]
        worst = None  # (A, rows) of the block with the lowest entry so far
        for rows in _row_blocks(len(u), self.n):
            a = self.evaluate(x[rows], y[rows], check=False)
            if worst is None or a.min() < worst[0].min():
                worst = a, rows
        _check_nonnegative(worst[0], x[worst[1]], y[worst[1]])


@dataclass(frozen=True)
class Constant(InteractionSpec):
    """A fixed matrix; the classic network SIR with no feedback."""

    matrix: np.ndarray
    kind: str = field(default="constant", init=False)
    _nonnegative = True  # a negative entry is refused

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigurationError(f"constant matrix must be square, got {m.shape}")
        if not m.size:
            raise ConfigurationError(f"constant matrix needs at least one node, got {m.shape}")
        if not np.isfinite(m).all():
            raise ConfigurationError("constant matrix has a non-finite entry")
        if m.min() < 0:
            raise ModelValidityError(
                f"constant interaction matrix has a negative entry ({m.min()})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def _evaluate(self, x, y):
        return np.broadcast_to(self.matrix, x.shape[:-1] + (self.n, self.n)).copy()

    def _incidence(self, x, y):
        # numpy sums a contiguous axis pairwise from 8 terms on and a
        # strided one in plain order; with a C-ordered y the product is
        # C-ordered too, so the node sum is grouped alike for every layout
        y = np.ascontiguousarray(y)
        return x * (self.matrix * y[..., None, :]).sum(axis=-1)

    def to_config(self):
        return {"kind": "constant", "matrix": self.matrix.tolist()}

    def __eq__(self, other):
        return isinstance(other, Constant) and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash(self.matrix.tobytes())


@dataclass(frozen=True)
class Rank1Local(InteractionSpec):
    """A_ij = g_i(x_i) * f_j(y_j): susceptibility times infectivity,
    each responding only to its own node."""

    g: tuple[FunctionSpec, ...]
    f: tuple[FunctionSpec, ...]
    kind: str = field(default="rank1_local", init=False)

    def __post_init__(self):
        object.__setattr__(self, "g", _functions(self.g, "g"))
        object.__setattr__(self, "f", _functions(self.f, "f"))
        if len(self.g) != len(self.f) or not self.g:
            raise ConfigurationError(
                f"rank-1 spec needs matching g/f lists, got {len(self.g)}/{len(self.f)}")
        # g_i(x_i) and f_j(y_j) for every node, (..., n) -> (..., n)
        object.__setattr__(self, "_gains", _grouped(self.g))
        object.__setattr__(self, "_infectivities", _grouped(self.f))
        # the bounds' constants when every node has a closed form: where
        # u g_i(u) peaks, -p / 2q if it is concave (q < 0), else inf as it
        # peaks at an end, and the f_j's (p, q, alpha) as a (3, n) array;
        # both None otherwise
        vertex = fall = None
        if all(type(fn) in _FORMS.values() for fn in self.g + self.f):
            p, q, _ = np.array([fn._ratio() for fn in self.g]).T
            # -p / 2q, as 2q can overflow; a vertex too large for a float is inf
            with np.errstate(over="ignore"):
                vertex = np.divide(-0.5 * p, q, out=np.full_like(p, np.inf), where=q < 0.0)
            fall = np.array([fn._ratio() for fn in self.f]).T
        object.__setattr__(self, "_vertex", vertex)
        object.__setattr__(self, "_fall", fall)

    @property
    def n(self) -> int:
        return len(self.g)

    def _evaluate(self, x, y):
        return self._gains(x)[..., :, None] * self._infectivities(y)[..., None, :]

    def _incidence(self, x, y):
        return x * self._gains(x) * _ybar(self, y)[..., None]

    def _gain_sups(self, x: np.ndarray) -> np.ndarray:
        """The (m, n) sups of u g_i(u) over [0, x_i], or 0 where 0 is larger,
        for (m, n) susceptible fractions x; needs _vertex."""
        u = np.clip(self._vertex, 0.0, x)
        return np.maximum(u * self._gains(u), 0.0)

    def _tail_bound(self, x: np.ndarray, s: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """(abar, F) for (m, n) susceptible fractions x and (m,) infected
        totals s: abar = sum_i sup of u g_i(u) over [0, x_i], and F = max_j
        sup of f_j over [0, s], in closed form; needs _fall.  F is inf
        where s >= 1, and where some f_j is negative on [0, s], as
        ybar <= F s needs ybar >= 0."""
        f_0 = self._fall[0]
        abar = self._gain_sups(x).sum(axis=-1)
        # f_j is monotone and has no pole on [0, 1] (alpha > -1), so its
        # range over [0, s] lies between f_j(0) and f_j(s)
        f_s = self._infectivities(np.broadcast_to(np.minimum(s, 1.0)[:, None], x.shape))
        low = np.minimum(f_s, f_0).min(axis=-1)
        top = np.maximum(f_s, f_0).max(axis=-1)
        return abar, np.where((s < 1.0) & (low >= 0.0), top, np.inf)

    def _fall_bound(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """B = sum_j P_j abar_j / min_j kappa_j for (m, n) states x, y, such
        that B < gamma proves ybar falls at every later time of the flow;
        inf where the proof fails.  Needs _fall.

        The proof: ybar = sum_j phi_j(y_j) with phi_j(u) = u f_j(u), and
        dy_j/dt = a_j(x) ybar - gamma y_j with a_j(x) = x_j g_j(x_j), so
        dybar/dt = ybar sum_j phi_j'(y_j) a_j(x) - gamma sum_j phi_j'(y_j) y_j.
        From the state (x, y) on, x_j only falls, so a_j(x) <= abar_j =
        max(sup of u g_j(u) over [0, x_j], 0) (_gain_sups); and x_j + y_j
        only falls, so y_j stays in [0, m_j], m_j = min(x_j + y_j, 1).  Where
        0 <= phi_j' <= P_j and phi_j'(u) u >= kappa_j phi_j(u) on [0, m_j]
        (_fall_terms), with every kappa_j > 0, phi_j >= 0 there, and so
        dybar/dt <= ybar (sum_j P_j abar_j - gamma min_j kappa_j).  Where
        B < gamma that is below 0: ybar falls for good."""
        slope, kappa = self._fall_terms(np.minimum(x + y, 1.0))
        load = (slope * self._gain_sups(x)).sum(axis=-1)
        kappa = kappa.min(axis=-1)
        return np.divide(load, kappa, out=np.full_like(load, np.inf), where=kappa > 0.0)

    def _fall_terms(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(P, kappa) for (k, n) bounds m: P_j, the sup of phi_j' over
        [0, m_j], and kappa_j, the inf of phi_j'(u) u / phi_j(u) over
        (0, m_j]; kappa_j is 0 where phi_j' < 0 somewhere on [0, m_j],
        which _fall_bound's proof cannot pass.  Needs _fall.

        Each f_j is (p + q u) / (1 + alpha u) with q alpha = 0, so with
        d = 1 + alpha u, phi_j'(u) = (p + 2 q u) / d^2, which is monotone
        on [0, m_j] (linear in u, or p over a monotone square).  So phi_j'
        >= 0 there iff p >= 0 and phi_j'(m_j) >= 0, and P_j = max(p,
        phi_j'(m_j)), which for a ReciprocalAffine is p, or p / d^2 where
        alpha < 0.  And phi_j'(u) u / phi_j(u) = (p + 2 q u) / ((p + q u) d)
        is 1 + q u / (p + q u) or 1 / d, monotone too, so its inf over (0, m_j] is
        kappa_j = min(its limit at 0+, its value at m_j).  That limit is 1
        for p > 0 and 2 for an Affine with p = 0 < q.  Where p + q m_j =
        0, phi_j is 0 on all of [0, m_j] (p = 0 and q m_j = 0), so any
        kappa_j holds and the value at m_j is taken as inf."""
        p, q, alpha = self._fall
        d = 1.0 + alpha * m
        rate = p + 2.0 * q * m  # phi_j'(m_j) d^2
        mean = (p + q * m) * d  # phi_j(m_j) d^2 / m_j
        kappa = np.minimum(np.where(p > 0.0, 1.0, 2.0),
                           np.divide(rate, mean, out=np.full_like(m, np.inf),
                                     where=mean > 0.0))
        return (np.maximum(p, rate / (d * d)),
                np.where((p >= 0.0) & (rate >= 0.0), kappa, 0.0))

    def to_config(self):
        return {
            "kind": "rank1_local",
            "g": [gi.to_config() for gi in self.g],
            "f": [fj.to_config() for fj in self.f],
        }


def _complement(scale: float, x):
    return scale * (1.0 - x)


def _identity(y):
    return y


def _require_rank1_local(spec: InteractionSpec, what: str) -> None:
    if not isinstance(spec, Rank1Local):
        raise UsageError(
            f"{what} needs per-node transmission functions "
            f"(rank-1 local feedback), got a {spec.kind} spec")


def aggregate_values(spec: InteractionSpec, y) -> np.ndarray:
    """ybar = sum_j f_j(y_j) y_j for a batch of infection vectors, summed
    left to right over the nodes."""
    _require_rank1_local(spec, "the aggregate infection curve")
    return _ybar(spec, np.asarray(y, dtype=float))


def _ybar(spec: Rank1Local, y: np.ndarray) -> np.ndarray:
    """aggregate_values without its checks, for the integrator's float
    (..., n) states.  Left to right from +0.0 whatever the memory order,
    so the sum does not depend on how y is laid out."""
    load = spec._infectivities(y) * y
    total = 0.0 + load[..., 0]
    for j in range(1, spec.n):
        total += load[..., j]
    return total


@dataclass(frozen=True, init=False)
class OuterProduct(Rank1Local):
    """A = scale * (1 - x) y^T: contact effort falls with depletion of
    the susceptible pool and rises with local prevalence; the rank-one
    local spec with g_i(u) = scale * (1 - u) and f_j(v) = v.

    The aggregate curve is ybar = sum_j y_j^2, with
    dybar/dt = 2 ybar (scale * sum_j x_j (1 - x_j) y_j - gamma).  As
    y_j <= 1 - x_j and u (1 - u)^2 <= 4/27, for scale < 27 gamma / (4 n)
    the aggregate curve falls strictly from every feasible start with
    infection present."""

    scale: float
    size: int
    _nonnegative = True  # scale >= 0, so c (1 - x_i) y_j >= 0 where feasible

    def __init__(self, scale: float, size: int):
        scale = _coefficients("outer-product form", scale=scale)["scale"]
        if scale < 0:
            raise ModelValidityError(f"outer-product scale must be >= 0, got {scale}")
        size = _as_int(size, "outer-product size", 1, high=_MAX_SIDE)
        super().__init__((Affine(scale, -scale),) * size, (Affine(0.0, 1.0),) * size)
        object.__setattr__(self, "kind", "outer_product")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "size", size)
        # closed forms that skip the n per-node Affine calls; c*(1 - x), not
        # Affine's c + (-c)*x: the last bits differ and would move trajectories
        object.__setattr__(self, "_gains", functools.partial(_complement, scale))
        object.__setattr__(self, "_infectivities", _identity)

    def _tail_bound(self, x, s):
        # c u (1 - u) peaks at u = 1/2, and f(v) = v peaks at v = s
        m = np.minimum(x, 0.5)
        return self.scale * (m * (1.0 - m)).sum(axis=-1), s

    def _fall_bound(self, x, y):
        """B = c sum_j h_j(min(x_j, r_j)), with h_j(u) = u (1 - u) (m_j - u),
        m_j = min(x_j + y_j, 1) and r_j the smaller root of h_j'.

        The proof: dybar/dt = 2 ybar (c sum_j x_j (1 - x_j) y_j - gamma).
        From the state (x, y) on, x_j only falls and d(x_j + y_j)/dt =
        -gamma y_j <= 0, so y_j(t) <= m_j - x_j(t) with x_j(t) in
        [0, x_j].  Each term is then at most the sup of h_j over [0, x_j].
        h_j has roots 0 <= m_j <= 1, so it rises on [0, r_j] to its
        maximum over [0, m_j] and falls after it, and that sup is
        h_j(min(x_j, r_j)).  So where B < gamma, dybar/dt <= 2 ybar
        (B - gamma) at every later time: ybar falls for good.

        h_j'(u) = 3u^2 - 2(1 + m_j) u + m_j, whose smaller root
        ((1 + m_j) - sqrt(1 - m_j + m_j^2)) / 3 is taken as m_j over
        (1 + m_j) + sqrt(...), the product of the roots over the larger
        one, which does not cancel when m_j is small."""
        m = np.minimum(x + y, 1.0)
        u = np.minimum(x, m / ((1.0 + m) + np.sqrt(1.0 - m + m * m)))
        return self.scale * (u * (1.0 - u) * (m - u)).sum(axis=-1)

    def to_config(self):
        return {"kind": "outer_product", "scale": self.scale, "n": self.size}


@dataclass(frozen=True)
class ScalarScaled(InteractionSpec):
    """A_ij = num_i(x_i) / denom(y): per-row numerators divided by one
    scalar expression of the full infected vector."""

    numerators: tuple[FunctionSpec, ...]
    denominator: str
    kind: str = field(default="scalar_scaled", init=False)

    def __post_init__(self):
        object.__setattr__(self, "numerators", _functions(self.numerators, "numerators"))
        if not self.numerators:
            raise ConfigurationError("scalar-scaled spec needs at least one node, got 0")
        den = _within("denominator", _expr.parse_expression, self.denominator,
                      len(self.numerators))
        bad = [v for v in _expr.variables(den) if v[0] != "y"]
        if bad:
            raise ConfigurationError(
                f"scalar denominator may reference only y variables, got {sorted(bad)}")
        object.__setattr__(self, "denominator", _expr.pretty(den))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_num_all", _grouped(self.numerators))

    @property
    def n(self) -> int:
        return len(self.numerators)

    def _factors(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """num_i(x_i), shape (..., n), and denom(y), shape (...)."""
        num = self._num_all(x)
        den = np.asarray(_expr.evaluate(self._den, x, y))
        if np.any(den == 0.0):
            raise EvaluationError("scalar denominator evaluated to zero")
        return num, den

    def _evaluate(self, x, y):
        num, den = self._factors(x, y)
        out = num[..., :, None] / den[..., None, None]
        return np.broadcast_to(out, x.shape[:-1] + (self.n, self.n)).copy()

    def _incidence(self, x, y):
        num, den = self._factors(x, y)
        y = np.ascontiguousarray(y)  # the node sum's grouping, as in Constant
        return x * num * y.sum(axis=-1)[..., None] / den[..., None]

    def to_config(self):
        return {
            "kind": "scalar_scaled",
            "numerator": [ni.to_config() for ni in self.numerators],
            "denominator": self.denominator,
        }


@dataclass(frozen=True)
class ExpressionMatrix(InteractionSpec):
    """Every entry its own expression over x1..xn, y1..yn, held as its
    printed source, row by row."""

    entries: tuple[tuple[str, ...], ...]
    kind: str = field(default="expression_matrix", init=False)

    def __post_init__(self):
        # a non-string entry is refused, and named, by the parser
        if isinstance(self.entries, str) or not isinstance(self.entries, Sequence):
            raise ConfigurationError(
                f"entries must be a sequence of rows, got {_echo(self.entries)}")
        for i, row in enumerate(self.entries):
            if isinstance(row, str) or not isinstance(row, Sequence):
                raise ConfigurationError(
                    f"entries[{i}] must be a sequence of expression strings, got {_echo(row)}")
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise ConfigurationError("expression matrix must be square and nonempty")
        nodes = tuple(tuple(_within(f"entries[{i}][{j}]", _expr.parse_expression, e, n)
                            for j, e in enumerate(row))
                      for i, row in enumerate(self.entries))
        object.__setattr__(self, "entries",
                           tuple(tuple(map(_expr.pretty, row)) for row in nodes))
        object.__setattr__(self, "_nodes", nodes)

    @property
    def n(self) -> int:
        return len(self.entries)

    def _evaluate(self, x, y):
        out = np.empty(x.shape[:-1] + (self.n, self.n), dtype=float)
        for i, row in enumerate(self._nodes):
            for j, node in enumerate(row):
                try:
                    out[..., i, j] = _expr.evaluate(node, x, y)
                except EvaluationError as exc:
                    raise EvaluationError(
                        f"entry A[{i + 1},{j + 1}]: {exc}") from exc
        return out

    def to_config(self):
        return {"kind": "expression_matrix", "entries": [list(row) for row in self.entries]}


# kind -> (required fields, optional fields)
_KIND_FIELDS = {
    "constant": ({"matrix"}, set()),
    "rank1_local": ({"g", "f"}, {"n"}),
    "scalar_scaled": ({"numerator", "denominator"}, {"n"}),
    "outer_product": ({"scale"}, {"n"}),
    "expression_matrix": ({"entries"}, set()),
}


def _broadcast_functions(obj, n: int, what: str) -> list[FunctionSpec]:
    where = f"interaction.{what}"
    if isinstance(obj, list):
        if len(obj) != n:
            raise ConfigurationError(
                f"{where} list has length {len(obj)}, expected n={n}")
        return [function_from_config(o, f"{where}[{k}]") for k, o in enumerate(obj)]
    return [function_from_config(obj, where)] * n


def interaction_from_config(obj: dict, n: int | None = None) -> InteractionSpec:
    """Build an interaction spec from its tagged config object."""
    if not isinstance(obj, dict):
        raise ConfigurationError("interaction must be a tagged object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _KIND_FIELDS:
        raise ConfigurationError(
            f"unknown interaction kind {_echo(kind)}; expected one of {sorted(_KIND_FIELDS)}")
    required, optional = _KIND_FIELDS[kind]
    where = f"{kind} interaction"
    _check_fields(obj, where, required | optional | {"kind"}, required)
    # the node count, decided before anything is built: the model's n,
    # else interaction.n, else the length of the per-node list
    if n is not None:
        n = _as_int(n, "model.n", 1, high=_MAX_SIDE)
    if "n" in obj:
        # compared as written, before the bound that the model's n meets
        count = _as_int(obj["n"], "interaction.n")
        if n is not None and count != n:
            raise ConfigurationError(
                f"interaction.n = {_echo(obj['n'])} does not match model n={n}")
        n = _as_int(obj["n"], "interaction.n", 1, high=_MAX_SIDE)
    elif n is None and "n" in optional:
        listed = obj.get("g" if kind == "rank1_local" else "numerator")
        if not isinstance(listed, list):  # outer_product lists no nodes
            raise ConfigurationError(f"missing fields in {where}: ['n']")
        n = len(listed)

    if kind == "constant":
        return Constant(_as_square(obj["matrix"], "interaction.matrix", _as_float, n))
    if kind == "rank1_local":
        return Rank1Local(_broadcast_functions(obj["g"], n, "g"),
                          _broadcast_functions(obj["f"], n, "f"))
    if kind == "scalar_scaled":
        return _within("interaction", ScalarScaled,
                       _broadcast_functions(obj["numerator"], n, "numerator"),
                       _as_text(obj["denominator"], "interaction.denominator"))
    if kind == "outer_product":
        return OuterProduct(_as_float(obj["scale"], "interaction.scale"), n)
    return _within("interaction", ExpressionMatrix,
                   _as_square(obj["entries"], "interaction.entries", _as_text, n))


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityViolation:
    condition: str  # "self_term" or "cross_derivative"
    i: int          # row (0-based)
    j: int          # column (0-based)
    k: int          # differentiation axis (0-based)
    x: tuple
    value: float


@dataclass(frozen=True)
class MonotonicityReport:
    holds: bool
    violations: tuple[MonotonicityViolation, ...]
    n_points: int
    tol: float


def _monotonicity_grid(n: int, resolution: int) -> np.ndarray:
    # keep the total point count near resolution**2 as n grows
    if n <= 2:
        per_axis = resolution
    else:
        per_axis = max(2, int(round(resolution ** (2.0 / n))))
    axes = [np.linspace(0.0, 1.0, per_axis)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def check_monotonicity_conditions(
    spec: InteractionSpec,
    grid_resolution: int = 101,
    fd_step: float = 1e-6,
    tol: float = 1e-7,
    max_violations: int = 100,
) -> MonotonicityReport:
    """Test the two sufficient conditions for threshold monotonicity at
    the disease-free slice y = 0:

    * self term:       A_ij + x_i * dA_ij/dx_i >= -tol
    * cross derivative: dA_ij/dx_k >= -tol for every k != i

    Derivatives are central differences with the stencil clipped to
    [0, 1] (one-sided at the edges).  The grid is evaluated in the blocks
    of _row_blocks; violations are listed by axis k, self terms before
    cross terms, then in grid order, the first max_violations of them.
    """
    grid_resolution = _as_int(grid_resolution, "grid_resolution", 2, error=UsageError,
                              high=_MAX_SIDE)
    fd_step = _as_float(fd_step, "fd_step", 0, above=True, error=UsageError)
    if fd_step > 1e-3:
        raise UsageError(f"fd_step must be in (0, 1e-3], got {fd_step}")
    max_violations = _as_int(max_violations, "max_violations", 1, error=UsageError)
    tol = _as_float(tol, "tol", -math.inf, error=UsageError)
    n = spec.n
    X = _monotonicity_grid(n, grid_resolution)
    # axis k's self-term violations at 2k and cross-term ones at 2k + 1
    found: list[list[MonotonicityViolation]] = [[] for _ in range(2 * n)]

    def room(part: int) -> int:
        # how many more of found[part] can reach the report
        return max(max_violations - sum(map(len, found[:part + 1])), 0)

    for rows in _row_blocks(len(X), n):
        x = X[rows]
        zero = np.zeros_like(x)
        A = spec.evaluate(x, zero, check=False)
        for k in range(n):
            xp = x.copy()
            xm = x.copy()
            xp[:, k] = np.minimum(x[:, k] + fd_step, 1.0)
            xm[:, k] = np.maximum(x[:, k] - fd_step, 0.0)
            width = (xp[:, k] - xm[:, k])[:, None, None]
            dA = spec.evaluate(xp, zero, check=False)
            dA -= spec.evaluate(xm, zero, check=False)
            dA /= width
            self_vals = A[:, k, :] + x[:, k, None] * dA[:, k, :]
            for s, j in np.argwhere(self_vals < -tol)[:room(2 * k)]:
                found[2 * k].append(MonotonicityViolation(
                    "self_term", k, int(j), k, tuple(x[s].tolist()), float(self_vals[s, j])))
            dA[:, k, :] = 0.0  # row i == k is the self term, not a cross term
            for s, i, j in np.argwhere(dA < -tol)[:room(2 * k + 1)]:
                found[2 * k + 1].append(MonotonicityViolation(
                    "cross_derivative", int(i), int(j), k, tuple(x[s].tolist()), float(dA[s, i, j])))
            if not room(2 * k + 1):
                break

    violations = tuple(v for part in found for v in part)[:max_violations]
    return MonotonicityReport(
        holds=not violations,
        violations=violations,
        n_points=len(X),
        tol=tol,
    )


@dataclass(frozen=True)
class HypothesisFailure:
    hypothesis: str  # g_positive, f_positive, u_g_increasing, u_f_increasing, u_f_concave
    node: int        # 0-based node index
    u: float         # witness point
    value: float


@dataclass(frozen=True)
class HypothesesReport:
    holds: bool
    failures: tuple[HypothesisFailure, ...]
    samples: int
    tol: float


def check_unimodality_hypotheses(
    spec: InteractionSpec,
    samples: int = 1001,
    tol: float = 1e-9,
) -> HypothesesReport:
    """Sampled test of the hypotheses that guarantee a single-peaked
    aggregate infection curve for rank-one local feedback:

    * g_i > 0 and f_j > 0 on [0, 1]
    * u * g_i(u) strictly increasing
    * u * f_j(u) increasing and concave

    Monotonicity and concavity are checked through first and second
    differences with slack tol.
    """
    _require_rank1_local(spec, "the unimodality hypothesis check")
    samples = _as_int(samples, "samples", 3, error=UsageError)
    tol = _as_float(tol, "tol", -math.inf, error=UsageError)
    u = np.linspace(0.0, 1.0, samples)
    mid = 0.5 * (u[:-1] + u[1:])
    failures: list[HypothesisFailure] = []

    def record(name: str, node: int, mask: np.ndarray, grid: np.ndarray, vals: np.ndarray):
        if mask.any():
            w = int(np.argmax(mask))
            failures.append(HypothesisFailure(name, node, float(grid[w]), float(vals[w])))

    for i, gi in enumerate(spec.g):
        gv = np.asarray(gi(u), dtype=float) + np.zeros_like(u)
        record("g_positive", i, gv <= tol, u, gv)
        d = np.diff(u * gv)
        record("u_g_increasing", i, d < -tol, mid, d)

    for j, fj in enumerate(spec.f):
        fv = np.asarray(fj(u), dtype=float) + np.zeros_like(u)
        record("f_positive", j, fv <= tol, u, fv)
        uf = u * fv
        d = np.diff(uf)
        record("u_f_increasing", j, d < -tol, mid, d)
        d2 = uf[2:] - 2.0 * uf[1:-1] + uf[:-2]
        record("u_f_concave", j, d2 > tol, u[1:-1], d2)

    return HypothesesReport(
        holds=not failures,
        failures=tuple(failures),
        samples=samples,
        tol=tol,
    )
