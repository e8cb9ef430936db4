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

Node functions (the g's and f's) come in three forms: affine
``p + q*u``, reciprocal-affine ``p / (1 + alpha*u)``, and a parsed
expression over the scalar ``u``.  A spec groups its node functions
once, when it is built: one vectorised call covers all affine nodes,
one all reciprocal-affine nodes, and one each set of equal expressions,
with the same floating-point operations per element as per-node calls.
Other FunctionSpec subclasses are still called node by node.

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
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from . import expr as _expr
from .errors import (
    ConfigurationError,
    EvaluationError,
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


# ---------------------------------------------------------------------------
# node functions
# ---------------------------------------------------------------------------

class FunctionSpec(abc.ABC):
    """A scalar function of one state component, vectorized over arrays."""

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

    def __call__(self, u):
        return self.p + self.q * np.asarray(u, dtype=float)

    def to_config(self):
        return {"form": "affine", "p": self.p, "q": self.q}


@dataclass(frozen=True)
class ReciprocalAffine(FunctionSpec):
    """p / (1 + alpha*u); requires alpha > -1 so the denominator stays
    positive on [0, 1]."""

    p: float
    alpha: float

    def __post_init__(self):
        if not self.alpha > -1.0:
            raise ConfigurationError(
                f"reciprocal-affine form needs alpha > -1, got {self.alpha}"
            )

    def __call__(self, u):
        return self.p / (1.0 + self.alpha * np.asarray(u, dtype=float))

    def to_config(self):
        return {"form": "reciprocal_affine", "p": self.p, "alpha": self.alpha}


class ExpressionFunction(FunctionSpec):
    """A parsed scalar expression over the variable u."""

    def __init__(self, source: str):
        self.node = _expr.parse_scalar(source)
        self.source = _expr.pretty(self.node)

    def __call__(self, u):
        return _expr.evaluate_scalar(self.node, u)

    def to_config(self):
        return self.source

    def __eq__(self, other):
        return isinstance(other, ExpressionFunction) and self.node == other.node

    def __hash__(self):
        return hash(self.node)

    def __repr__(self):
        return f"ExpressionFunction({self.source!r})"


def _affine(p: np.ndarray, q: np.ndarray, u):
    return p + q * u


def _reciprocal(p: np.ndarray, alpha: np.ndarray, u):
    return p / (1.0 + alpha * u)


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

    Affine nodes become one p + q*u over coefficient vectors and
    reciprocal-affine nodes one p / (1 + alpha*u); equal expressions are
    evaluated once on all the columns that share them.  Every element
    sees the same IEEE operations as in its own node's call, so the
    result is bit-for-bit the per-node stack.  Any other FunctionSpec is
    called once per node on its 1-D column."""
    # (columns, callable on those columns); a lone int column is a 1-D slice
    families: list = []
    affine = [i for i, fn in enumerate(funcs) if type(fn) is Affine]
    if affine:
        families.append((affine, functools.partial(
            _affine, np.array([funcs[i].p for i in affine]),
            np.array([funcs[i].q for i in affine]))))
    recip = [i for i, fn in enumerate(funcs) if type(fn) is ReciprocalAffine]
    if recip:
        families.append((recip, functools.partial(
            _reciprocal, np.array([funcs[i].p for i in recip]),
            np.array([funcs[i].alpha for i in recip]))))
    shared: dict[ExpressionFunction, list[int]] = {}
    for i, fn in enumerate(funcs):
        if type(fn) is ExpressionFunction:
            shared.setdefault(fn, []).append(i)
    families += [(cols, fn) for fn, cols in shared.items()]
    families += [(i, fn) for i, fn in enumerate(funcs)
                 if type(fn) not in (Affine, ReciprocalAffine, ExpressionFunction)]
    if len(families) == 1 and families[0][0] == list(range(len(funcs))):
        return families[0][1]  # one family over every node: no gather
    # first node first, so faults and side effects come in node order
    families.sort(key=lambda fam: np.min(fam[0]))
    return functools.partial(_scatter, families)


# ---------------------------------------------------------------------------
# strict config readers, shared with the config module
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


def _as_int(value, where: str) -> int:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ConfigurationError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{where} must be a number, got {value!r}")
    return float(value)


def _as_text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{where} must be an expression string, got {value!r}")
    return value


def _as_square(value, where: str, read) -> list[list]:
    """A square JSON array of arrays, each entry passed through read."""
    if not isinstance(value, list) or any(
            not isinstance(row, list) or len(row) != len(value) for row in value):
        raise ConfigurationError(f"{where} must be a square array of arrays")
    return [[read(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(value)]


# tagged function form -> the dataclass whose fields are its numbers
_FORMS = {"affine": Affine, "reciprocal_affine": ReciprocalAffine}


def function_from_config(obj, where: str = "function") -> FunctionSpec:
    """Build a node function from its config form (string or tagged dict);
    where names it in error messages."""
    if isinstance(obj, str):
        return ExpressionFunction(obj)
    if not isinstance(obj, dict):
        raise ConfigurationError(
            f"{where} must be a string or a tagged object, got {type(obj).__name__}")
    form = obj.get("form")
    if form not in _FORMS:
        raise ConfigurationError(f"unknown function form {form!r}")
    names = [f.name for f in fields(_FORMS[form])]
    _check_fields(obj, f"{where} ({form})", {"form", *names}, names)
    return _FORMS[form](*(_as_float(obj[k], f"{where}.{k}") for k in names))


# ---------------------------------------------------------------------------
# interaction specs
# ---------------------------------------------------------------------------

def _halton(count: int, dim: int) -> np.ndarray:
    """The first count points of the Halton sequence in [0, 1)^dim: the
    radical inverse of 0, 1, ..., count - 1 in each of the first dim
    primes."""
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
    return pts


def _check_nonnegative(a: np.ndarray, context: str):
    amin = a.min()
    if amin < -_NONNEG_TOL:
        idx = np.unravel_index(int(np.argmin(a)), a.shape)
        i, j = idx[-2], idx[-1]
        raise ModelValidityError(
            f"negative interaction entry A[{i + 1},{j + 1}] = {float(amin)} in {context}"
        )


class InteractionSpec(abc.ABC):
    """Common protocol for the interaction matrix families."""

    n: int
    kind: str

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
            _check_nonnegative(a, f"{self.kind} spec")
        return a

    def incidence(self, x, y, *, check: bool = True) -> np.ndarray:
        """x * (A(x, y) y) for state arrays of shape (..., n) -> (..., n).

        Each state's sum is its own, so a state's result does not depend
        on the batch it is in.  check=True also builds A to test its
        entries for negativity, as evaluate does."""
        x, y = self._states(x, y)
        if check:
            _check_nonnegative(self._evaluate(x, y), f"{self.kind} spec")
        return self._incidence(x, y)

    @abc.abstractmethod
    def to_config(self) -> dict:
        ...

    def validate(self, samples: int = 8192) -> None:
        """Check nonnegativity over quasi-random feasible states plus the
        corners of the feasible set; raises ModelValidityError with a
        witness state on failure."""
        m = max(2, int(np.ceil(np.log2(samples))))
        pts = _halton(2 ** m, 2 * self.n)
        xs = pts[:, : self.n]
        ys = pts[:, self.n:] * (1.0 - xs)
        corners = np.array(
            list(itertools.product((0.0, 1.0), repeat=2 * self.n)), dtype=float
        )
        cx = corners[:, : self.n]
        cy = np.minimum(corners[:, self.n:], 1.0 - cx)
        xs = np.vstack([xs, cx])
        ys = np.vstack([ys, cy])
        a = self.evaluate(xs, ys, check=False)
        flat = a.reshape(len(xs), -1)
        mins = flat.min(axis=1)
        worst = int(np.argmin(mins))
        if mins[worst] < -_NONNEG_TOL:
            i, j = divmod(int(np.argmin(flat[worst])), self.n)
            raise ModelValidityError(
                f"interaction entry A[{i + 1},{j + 1}] = {mins[worst]:.6g} is "
                f"negative at x={xs[worst].tolist()}, y={ys[worst].tolist()}"
            )


@dataclass(frozen=True)
class Constant(InteractionSpec):
    """A fixed matrix; the classic network SIR with no feedback."""

    matrix: np.ndarray
    kind: str = field(default="constant", init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigurationError(f"constant matrix must be square, got {m.shape}")
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
        object.__setattr__(self, "g", tuple(self.g))
        object.__setattr__(self, "f", tuple(self.f))
        if len(self.g) != len(self.f) or not self.g:
            raise ConfigurationError(
                f"rank-1 spec needs matching g/f lists, got {len(self.g)}/{len(self.f)}")
        object.__setattr__(self, "_g_all", _grouped(self.g))
        object.__setattr__(self, "_f_all", _grouped(self.f))

    @property
    def n(self) -> int:
        return len(self.g)

    def _gains(self, x):
        """g_i(x_i) for every node, shape (..., n)."""
        return self._g_all(x)

    def _infectivities(self, y):
        """f_j(y_j) for every node, shape (..., n)."""
        return self._f_all(y)

    def _evaluate(self, x, y):
        return self._gains(x)[..., :, None] * self._infectivities(y)[..., None, :]

    def _incidence(self, x, y):
        return x * self._gains(x) * _ybar(self, y)[..., None]

    def to_config(self):
        return {
            "kind": "rank1_local",
            "g": [gi.to_config() for gi in self.g],
            "f": [fj.to_config() for fj in self.f],
        }


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

    def __init__(self, scale: float, size: int):
        if scale < 0:
            raise ModelValidityError(f"outer-product scale must be >= 0, got {scale}")
        if size < 1:
            raise ConfigurationError(f"outer-product size must be >= 1, got {size}")
        super().__init__((Affine(scale, -scale),) * size, (Affine(0.0, 1.0),) * size)
        object.__setattr__(self, "kind", "outer_product")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "size", size)

    # closed forms that skip the n per-node Affine calls; c*(1 - x), not
    # Affine's c + (-c)*x: the last bits differ and would move trajectories
    def _gains(self, x):
        return self.scale * (1.0 - x)

    def _infectivities(self, y):
        return y

    def to_config(self):
        return {"kind": "outer_product", "scale": self.scale, "n": self.size}


@dataclass(frozen=True)
class ScalarScaled(InteractionSpec):
    """A_ij = num_i(x_i) / denom(y): per-row numerators divided by one
    scalar expression of the full infected vector."""

    numerators: tuple[FunctionSpec, ...]
    denominator: "_expr.Node"
    kind: str = field(default="scalar_scaled", init=False)

    def __post_init__(self):
        object.__setattr__(self, "numerators", tuple(self.numerators))
        node = self.denominator
        if isinstance(node, str):
            node = _expr.parse_expression(node, len(self.numerators))
            object.__setattr__(self, "denominator", node)
        object.__setattr__(self, "_num_all", _grouped(self.numerators))
        bad = [v for v in _expr.variables(node) if v[0] != "y"]
        if bad:
            raise ConfigurationError(
                f"scalar denominator may reference only y variables, got {sorted(bad)}")
        out_of_range = [v for v in _expr.variables(node) if v[1] > len(self.numerators)]
        if out_of_range:
            raise ConfigurationError(
                f"denominator references {sorted(out_of_range)} beyond n={len(self.numerators)}")

    @property
    def n(self) -> int:
        return len(self.numerators)

    def _factors(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """num_i(x_i), shape (..., n), and denom(y), shape (...)."""
        num = self._num_all(x)
        den = np.asarray(_expr.evaluate(self.denominator, x, y))
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
            "denominator": _expr.pretty(self.denominator),
        }


class ExpressionMatrix(InteractionSpec):
    """Every entry its own expression over x1..xn, y1..yn."""

    kind = "expression_matrix"

    def __init__(self, entries: Sequence[Sequence]):
        rows = list(entries)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ConfigurationError("expression matrix must be square and nonempty")
        self._n = n
        parsed = []
        for row in rows:
            parsed.append(tuple(
                e if not isinstance(e, str) else _expr.parse_expression(e, n)
                for e in row
            ))
        self.entries = tuple(parsed)

    @property
    def n(self) -> int:
        return self._n

    def _evaluate(self, x, y):
        out = np.empty(x.shape[:-1] + (self._n, self._n), dtype=float)
        for i, row in enumerate(self.entries):
            for j, node in enumerate(row):
                try:
                    out[..., i, j] = _expr.evaluate(node, x, y)
                except EvaluationError as exc:
                    raise EvaluationError(
                        f"entry A[{i + 1},{j + 1}]: {exc}") from exc
        return out

    def to_config(self):
        return {
            "kind": "expression_matrix",
            "entries": [[_expr.pretty(e) for e in row] for row in self.entries],
        }

    def __eq__(self, other):
        return isinstance(other, ExpressionMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"ExpressionMatrix(n={self._n})"


# kind -> (required fields, optional fields)
_KIND_FIELDS = {
    "constant": ({"matrix"}, set()),
    "rank1_local": ({"g", "f"}, {"n"}),
    "scalar_scaled": ({"numerator", "denominator"}, {"n"}),
    "outer_product": ({"scale"}, {"n"}),
    "expression_matrix": ({"entries"}, set()),
}


def _size(values, n: int | None, where: str) -> int:
    """The node count: n if given, else the length of a per-node list."""
    if n is not None:
        return n
    if isinstance(values, list):
        return len(values)
    raise ConfigurationError(f"missing fields in {where}: ['n']")


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
    if kind not in _KIND_FIELDS:
        raise ConfigurationError(
            f"unknown interaction kind {kind!r}; expected one of {sorted(_KIND_FIELDS)}")
    required, optional = _KIND_FIELDS[kind]
    where = f"{kind} interaction"
    _check_fields(obj, where, required | optional | {"kind"}, required)
    n_local = _as_int(obj["n"], "interaction.n") if "n" in obj else n

    if kind == "constant":
        spec = Constant(_as_square(obj["matrix"], "interaction.matrix", _as_float))
    elif kind == "rank1_local":
        size = _size(obj["g"], n_local, where)
        spec = Rank1Local(
            tuple(_broadcast_functions(obj["g"], size, "g")),
            tuple(_broadcast_functions(obj["f"], size, "f")),
        )
    elif kind == "scalar_scaled":
        size = _size(obj["numerator"], n_local, where)
        spec = ScalarScaled(
            tuple(_broadcast_functions(obj["numerator"], size, "numerator")),
            _as_text(obj["denominator"], "interaction.denominator"),
        )
    elif kind == "outer_product":
        spec = OuterProduct(_as_float(obj["scale"], "interaction.scale"),
                            _size(None, n_local, where))
    else:
        spec = ExpressionMatrix(
            _as_square(obj["entries"], "interaction.entries", _as_text))

    if n is not None and spec.n != n:
        raise ConfigurationError(
            f"interaction size {spec.n} does not match model n={n}")
    return spec


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
    [0, 1] (one-sided at the edges).
    """
    if grid_resolution < 2:
        raise UsageError(f"grid_resolution must be >= 2, got {grid_resolution}")
    if not 0 < fd_step <= 1e-3:
        raise UsageError(f"fd_step must be in (0, 1e-3], got {fd_step}")
    n = spec.n
    X = _monotonicity_grid(n, grid_resolution)
    Y = np.zeros_like(X)
    A = spec.evaluate(X, Y, check=False)
    violations: list[MonotonicityViolation] = []

    for k in range(n):
        xp = X.copy()
        xm = X.copy()
        xp[:, k] = np.minimum(X[:, k] + fd_step, 1.0)
        xm[:, k] = np.maximum(X[:, k] - fd_step, 0.0)
        width = (xp[:, k] - xm[:, k])[:, None, None]
        dA = (spec.evaluate(xp, Y, check=False) - spec.evaluate(xm, Y, check=False)) / width
        self_vals = A[:, k, :] + X[:, k, None] * dA[:, k, :]
        bad = np.argwhere(self_vals < -tol)
        for s, j in bad[: max_violations - len(violations)]:
            violations.append(MonotonicityViolation(
                "self_term", k, int(j), k, tuple(X[s].tolist()), float(self_vals[s, j])))
        cross = dA.copy()
        cross[:, k, :] = 0.0  # row i == k is the self term, not a cross term
        badc = np.argwhere(cross < -tol)
        for s, i, j in badc[: max_violations - len(violations)]:
            violations.append(MonotonicityViolation(
                "cross_derivative", int(i), int(j), k, tuple(X[s].tolist()), float(cross[s, i, j])))
        if len(violations) >= max_violations:
            break

    return MonotonicityReport(
        holds=not violations,
        violations=tuple(violations),
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
    if samples < 3:
        raise UsageError(f"samples must be >= 3, got {samples}")
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
