"""Spectral stability of disease-free equilibria and region mapping.

Every state with y = 0 is an equilibrium (x*, 0).  Its stability is
decided by the dominant eigenvalue of diag(x*) A(x*, 0) against the
recovery rate: strictly below gamma means stable, strictly above means
unstable, and a narrow band around gamma is reported as marginal.

The dominant eigenvalue is the Perron root: by Perron-Frobenius it is
the largest real part among the eigenvalues of the nonnegative matrix.
A 2x2 matrix has it in closed form, computed for a whole stack at once;
larger matrices go to LAPACK, also a whole stack per call.  For
two-node models, scan_region maps the classification over a grid on
[0,1]^2, traces the threshold level set by marching squares with
false-position refinement, and extracts the set of boundary points
maximizing the surviving susceptible mass.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams
from .errors import NumericalError, UsageError
from .interaction import Rank1Local, _as_float, _as_int

__all__ = [
    "Classification",
    "DominantEigen",
    "StabilityReport",
    "RegionScan",
    "dominant_eigen",
    "classify_equilibrium",
    "jacobian_at_equilibrium",
    "scan_region",
    "region_to_json",
    "region_to_svg",
]


class Classification(enum.Enum):
    STABLE = "S"
    UNSTABLE = "U"
    MARGINAL = "M"


# ---------------------------------------------------------------------------
# dominant eigenvalue machinery
# ---------------------------------------------------------------------------

def _check_finite(mats: np.ndarray) -> None:
    if not np.isfinite(mats).all():
        raise NumericalError(
            "matrix has non-finite entries; its Perron root is undefined")


def _perron_roots(mats: np.ndarray) -> np.ndarray:
    """Perron roots of one nonnegative matrix or of a stack of them.

    By Perron-Frobenius the spectral radius of a nonnegative matrix is
    one of its eigenvalues and no eigenvalue has a larger real part, so
    the root is the largest real part of the spectrum.  For [[a, b],
    [c, d]] the eigenvalues are m +- sqrt(g^2 + bc), with m the mean and
    g the half difference of the diagonal.  When bc >= 0 the largest is
    m + hypot(g, sqrt|b| sqrt|c|), which neither overflows nor cancels
    for nonnegative entries.  Entries a hair below zero pass the
    interaction checks, so bc < 0 can occur: then the largest real part
    is m + sqrt(max(g - k, 0)) sqrt(g + k) with k = sqrt|bc|, which is m
    alone when the pair is complex.  Larger matrices take the largest
    real part of the LAPACK spectrum.  Rounding can put the root a hair
    below zero (nilpotent input), hence the clip.
    """
    _check_finite(mats)
    if mats.shape[-1] != 2:
        return np.maximum(np.linalg.eigvals(mats).real.max(axis=-1), 0.0)
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    # a root beyond the float range reads inf, as LAPACK's does
    with np.errstate(over="ignore"):
        g = np.abs(0.5 * a - 0.5 * d)
        k = np.sqrt(np.abs(b)) * np.sqrt(np.abs(c))
        spread = np.where(np.sign(b) * np.sign(c) < 0,
                          np.sqrt(np.maximum(g - k, 0.0)) * np.sqrt(g + k),
                          np.hypot(g, k))
        return np.maximum(0.5 * a + 0.5 * d + spread, 0.0)


def _dfe_roots(params: ModelParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """lambda(diag(x) A(x, 0)) over the nodes an infection y can reach,
    for (m, n) stacks x and y, without the input checks of
    _next_generation: the Perron root of the principal submatrix on the
    nodes reachable from those with y_j > 0 along the positive entries of
    diag(x) A(x, y).  No other node's y can leave 0, so a block that the
    infection cannot reach does not count, however unstable.  For a
    Rank1Local, A(x, 0) = g(x) f(0)^T has rank one, so the root is the sum
    of f_i(0) x_i g_i(x_i) over the reachable nodes, at any n; other
    specs take one stacked _perron_roots call."""
    spec = params.interaction
    free = np.zeros_like(x)
    reach = y > 0.0
    if isinstance(spec, Rank1Local):
        gain = x * spec._gains(x)
        # one infected node with f_j(y_j) > 0 reaches every node with a gain
        spread = (reach & (spec._infectivities(y) > 0.0)).any(axis=-1)
        reach |= spread[..., None] & (gain > 0.0)
        return np.maximum((reach * gain * spec._infectivities(free)).sum(axis=-1), 0.0)
    infects = x[..., :, None] * spec._evaluate(x, y) > 0.0
    for _ in range(x.shape[-1] - 1):
        reach = reach | (infects & reach[..., None, :]).any(axis=-1)
    block = reach[..., :, None] & reach[..., None, :]
    return _perron_roots(np.where(block, x[..., :, None] * spec._evaluate(x, free), 0.0))


def _is_irreducible(mat: np.ndarray) -> bool:
    """Strong connectivity of the sparsity pattern via boolean closure."""
    n = mat.shape[0]
    if n == 1:
        return bool(mat[0, 0] > 0.0)
    reach = (mat > 0.0) | np.eye(n, dtype=bool)
    for _ in range(int(np.ceil(np.log2(n))) + 1):
        reach = reach @ reach
    return bool(reach.all())


@dataclass(frozen=True, eq=False)
class DominantEigen:
    value: float
    left_vector: np.ndarray | None  # normalized to sum 1; None when reducible
    irreducible: bool


def dominant_eigen(mat: np.ndarray) -> DominantEigen:
    """Dominant eigenvalue (spectral radius) of a nonnegative matrix and,
    when the matrix is irreducible, the positive left eigenvector.

    A 2x2 matrix needs no LAPACK call, and a larger one at most one.
    Raises NumericalError when the matrix has non-finite entries.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise UsageError(
            f"dominant_eigen needs a nonempty square matrix, got {mat.shape}")
    _check_finite(mat)
    if mat.min() < 0:
        raise UsageError(
            f"dominant_eigen applies to nonnegative matrices; min entry {mat.min()}")
    if not _is_irreducible(mat):
        return DominantEigen(value=float(_perron_roots(mat)), left_vector=None,
                             irreducible=False)
    # the Perron root is simple here and its eigenvector has one sign
    if mat.shape[0] == 2:
        lam = float(_perron_roots(mat))
        (a, b), (c, d) = mat
        # the left vector is (lam - d, b), or equally (c, lam - a); with
        # g = |a - d| / 2, lam - min(a, d) is g + hypot(g, sqrt(bc)), in
        # which nothing cancels, whereas lam - max(a, d) can
        rise = abs(0.5 * a - 0.5 * d)
        rise += math.hypot(rise, math.sqrt(b) * math.sqrt(c))
        vt = np.array([rise, b] if a >= d else [c, rise])
    else:
        vals, vecs = np.linalg.eig(mat.T)
        top = np.argmax(vals.real)
        lam = max(float(vals.real[top]), 0.0)
        vt = np.abs(vecs[:, top])
    return DominantEigen(value=lam, left_vector=vt / vt.sum(), irreducible=True)


# ---------------------------------------------------------------------------
# equilibrium classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StabilityReport:
    x_star: np.ndarray
    lambda_max: float
    gamma: float
    classification: Classification
    perron_vector: np.ndarray | None
    irreducible: bool


# indexed by 1 + (lam above gamma + band) - (lam below gamma - band)
_CLASSES = np.array([Classification.STABLE, Classification.MARGINAL,
                     Classification.UNSTABLE], dtype=object)


def _classify(lam, gamma: float, band: float):
    """The class of an eigenvalue, or an object array of them for an array:
    unstable above gamma + band, stable below gamma - band, else marginal."""
    return _CLASSES[1 + (lam > gamma + band) - (lam < gamma - band)]


def _next_generation(params: ModelParams, x, *, stacked: bool = False
                     ) -> np.ndarray:
    """diag(x) A(x, 0) for one x of shape (n,), or for a (K, n) stack."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 + stacked or x.shape[-1] != params.n:
        raise UsageError(
            f"x_star must have shape ({params.n},), got {x.shape}")
    if not ((x >= 0) & (x <= 1)).all():  # NaN included
        raise UsageError(f"x_star must lie in [0,1]^n, got {x.tolist()}")
    return x[..., :, None] * params.interaction.evaluate(x, np.zeros_like(x))


def classify_equilibrium(params: ModelParams, x_star,
                         marginal_band: float = 1e-9) -> StabilityReport:
    """Stability of the disease-free equilibrium (x*, 0)."""
    x_star = np.asarray(x_star, dtype=float)
    marginal_band = _as_float(marginal_band, "marginal_band", 0, error=UsageError)
    eig = dominant_eigen(_next_generation(params, x_star))
    return StabilityReport(
        x_star=x_star,
        lambda_max=eig.value,
        gamma=params.gamma,
        classification=_classify(eig.value, params.gamma, marginal_band),
        perron_vector=eig.left_vector,
        irreducible=eig.irreducible,
    )


def jacobian_at_equilibrium(params: ModelParams, x_star) -> np.ndarray:
    """Linearization of the flow at (x*, 0), ordered (x, y).

    The x block rows vanish except for the coupling to y, giving

        [[ 0, -M ],
         [ 0,  M - gamma*I ]]     with M = diag(x*) A(x*, 0).

    Its spectrum is {0 (n-fold)} plus the spectrum of M - gamma*I.
    """
    n = params.n
    m = _next_generation(params, x_star)
    jac = np.zeros((2 * n, 2 * n))
    jac[:n, n:] = -m
    jac[n:, n:] = m - params.gamma * np.eye(n)
    return jac


# ---------------------------------------------------------------------------
# region scan (two-node models)
# ---------------------------------------------------------------------------

_LAMBDA_CHUNK = 250_000
_MIN_RESOLUTION = 11  # also bounds analysis.grid_resolution in config


def _lambda_at(params: ModelParams, pts: np.ndarray) -> np.ndarray:
    """Dominant eigenvalue of diag(x) A(x, 0) for a stack of x points."""
    out = np.empty(len(pts))
    for lo in range(0, len(pts), _LAMBDA_CHUNK):
        out[lo:lo + _LAMBDA_CHUNK] = _perron_roots(
            _next_generation(params, pts[lo:lo + _LAMBDA_CHUNK], stacked=True))
    return out


@dataclass(frozen=True, eq=False)
class RegionScan:
    resolution: int
    gamma: float
    axis: np.ndarray                 # shared grid coordinates per axis
    classes: np.ndarray              # (R, R) of Classification, rows index x1
    lambda_grid: np.ndarray          # (R, R) dominant eigenvalues
    boundary: tuple[np.ndarray, ...]  # polylines, each (K, 2)
    x_star_set: np.ndarray           # (K, 2) optimal boundary points

    @property
    def boundary_points(self) -> np.ndarray:
        if not self.boundary:
            return np.zeros((0, 2))
        return np.vstack(self.boundary)


def _edge_roots(params: ModelParams, lo: np.ndarray, hi: np.ndarray,
                s_lo: np.ndarray, s_hi: np.ndarray, gamma: float,
                band: float) -> np.ndarray:
    """Roots of lambda(x) - gamma along straight edges by false position.

    lo/hi are (E, 2) endpoint stacks and s_lo/s_hi the values of
    lambda - gamma there, of opposite signs.  Each round evaluates only
    the edges still open, at the secant point of their bracket, or at its
    midpoint when that point is not finite or not strictly inside.  An
    end kept twice in a row has its value halved (the Illinois variant),
    which keeps the convergence superlinear.  An edge closes when its
    value is within band of zero or its bracket is narrower than
    1e-15.
    """
    lo, hi = lo.copy(), hi.copy()
    f_lo, f_hi = s_lo.copy(), s_hi.copy()
    root = np.where((np.abs(f_lo) <= band)[:, None], lo, hi)
    todo = np.flatnonzero((np.abs(f_lo) > band) & (np.abs(f_hi) > band))
    kept = np.zeros(len(lo), dtype=np.int8)  # +1 lo, -1 hi kept last round
    for _ in range(80):
        if not todo.size:
            break
        a, b, fa, fb = lo[todo], hi[todo], f_lo[todo], f_hi[todo]
        t = fa / (fa - fb)
        t = np.where(np.isfinite(t) & (t > 0.0) & (t < 1.0), t, 0.5)
        pt = a + t[:, None] * (b - a)
        stuck = (pt == a).all(axis=1) | (pt == b).all(axis=1)
        pt[stuck] = 0.5 * (a[stuck] + b[stuck])
        f = _lambda_at(params, pt) - gamma
        root[todo] = pt
        move_lo = (f < 0) == (fa < 0)
        keep = np.where(move_lo, -1, 1)
        halve = kept[todo] == keep
        f_hi[todo[move_lo & halve]] *= 0.5
        f_lo[todo[~move_lo & halve]] *= 0.5
        kept[todo] = keep
        lo[todo[move_lo]], f_lo[todo[move_lo]] = pt[move_lo], f[move_lo]
        hi[todo[~move_lo]], f_hi[todo[~move_lo]] = pt[~move_lo], f[~move_lo]
        width = np.abs(hi[todo] - lo[todo]).max(axis=1)
        todo = todo[(np.abs(f) > band) & (width >= 1e-15)]
    return root


def _trace_boundary(params: ModelParams, axis: np.ndarray, s: np.ndarray,
                    gamma: float, band: float
                    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Marching squares over the sign grid s = lambda - gamma.

    Returns (polylines, isolated_points).  Crossing locations on cell
    edges are refined by false position (_edge_roots) against the true
    eigenvalue; grid nodes that sit on the level set within band become
    crossing points directly.  Array masks find the crossing edges
    and count them per cell, so only cells holding two or more crossing
    points reach the Python segment logic.
    """
    zero = np.abs(s) <= band
    nodes = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)

    # edges are keyed ("h", i, j), joining nodes (i, j) and (i + 1, j), and
    # ("v", i, j), joining (i, j) and (i, j + 1).  A crossing point inside
    # an edge is keyed by the edge; an on-level node by itself, ("n", i, j),
    # so that every cell beside it joins its segments at the same key
    points: dict[tuple, np.ndarray] = {}
    side: dict[tuple, tuple] = {}  # crossed edge -> key of its point
    edge_keys: list[tuple] = []
    edge_lo, edge_hi, edge_slo, edge_shi, crossed = [], [], [], [], []
    for o, step, a, b in (("h", (1, 0), np.s_[:-1], np.s_[1:]),
                          ("v", (0, 1), np.s_[:, :-1], np.s_[:, 1:])):
        # an edge with both ends on the level set is left to its nodes
        at_node = zero[a] != zero[b]
        ends = np.argwhere(at_node)
        on_level = ends + np.outer(~zero[a][at_node], step)
        for (i, j), (p, q) in zip(ends.tolist(), on_level.tolist()):
            side[(o, i, j)] = ("n", p, q)
            points[("n", p, q)] = nodes[p, q]
        strict = ~zero[a] & ~zero[b] & ((s[a] < 0) != (s[b] < 0))
        edge_keys += [(o, i, j) for i, j in np.argwhere(strict).tolist()]
        edge_lo.append(nodes[a][strict])
        edge_hi.append(nodes[b][strict])
        edge_slo.append(s[a][strict])
        edge_shi.append(s[b][strict])
        crossed.append((at_node | strict).astype(int))

    if edge_keys:
        roots = _edge_roots(
            params, np.concatenate(edge_lo), np.concatenate(edge_hi),
            np.concatenate(edge_slo), np.concatenate(edge_shi), gamma, band)
        points.update(zip(edge_keys, roots))
        side.update(zip(edge_keys, edge_keys))

    # assemble per-cell segments between crossing points; two sides that
    # reach the same on-level node share its key, so three crossed sides
    # can hold two points, hence >= 2
    h, v = crossed
    count = h[:, :-1] + v[1:] + h[:, 1:] + v[:-1]
    segments: list[tuple[tuple, tuple]] = []
    ambiguous: list[tuple[int, int, list]] = []
    for i, j in np.argwhere(count >= 2).tolist():
        sides = [("h", i, j), ("v", i + 1, j), ("h", i, j + 1), ("v", i, j)]
        uniq = list(dict.fromkeys(side[e] for e in sides if e in side))
        if len(uniq) == 2:
            segments.append((uniq[0], uniq[1]))
        elif len(uniq) == 4:
            ambiguous.append((i, j, uniq))

    if ambiguous:
        centers = np.array([
            (0.5 * (axis[i] + axis[i + 1]), 0.5 * (axis[j] + axis[j + 1]))
            for i, j, _ in ambiguous])
        s_centers = _lambda_at(params, centers) - gamma
        for (i, j, uniq), sc in zip(ambiguous, s_centers):
            bottom, right, top, left = uniq
            if (sc < 0) == (s[i, j] < 0):
                segments.append((bottom, right))
                segments.append((top, left))
            else:
                segments.append((bottom, left))
                segments.append((top, right))

    # chain segments into polylines: open ends first, then the remaining
    # cycles; a start whose segments are all used yields a lone point
    adjacency: dict[tuple, list[tuple]] = {}
    for a, b in segments:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)

    used = set()
    polylines: list[np.ndarray] = []
    ends = [k for k, nb in adjacency.items() if len(nb) == 1]
    for start in ends + list(adjacency):
        chain = [start]
        while True:
            cur = chain[-1]
            nxt = next((c for c in adjacency[cur]
                        if (min(cur, c), max(cur, c)) not in used), None)
            if nxt is None:
                break
            used.add((min(cur, nxt), max(cur, nxt)))
            chain.append(nxt)
        if len(chain) > 1:
            polylines.append(np.array([points[k] for k in chain]))

    chained = {k for a, b in segments for k in (a, b)}
    isolated = [points[k] for k in points if k not in chained]
    return polylines, isolated


def _fd_gradient(params: ModelParams, pts: np.ndarray,
                 step: float = 1e-7) -> np.ndarray:
    # (K, 2, 2) stencils: row a of each point shifts its coordinate a
    up = np.minimum(pts[:, None] + step * np.eye(2), 1.0)
    dn = np.maximum(pts[:, None] - step * np.eye(2), 0.0)
    width = up.diagonal(axis1=1, axis2=2) - dn.diagonal(axis1=1, axis2=2)
    width = np.where(width == 0.0, 1.0, width)
    lam = _lambda_at(params, np.concatenate([up, dn]).reshape(-1, 2))
    lam_up, lam_dn = lam.reshape(2, -1, 2)
    return (lam_up - lam_dn) / width


def _project_to_level(params: ModelParams, pts: np.ndarray, gamma: float,
                      directions: np.ndarray, reach: float,
                      band: float) -> tuple[np.ndarray, np.ndarray]:
    """Pull points back onto the level set along unit gradient directions.

    A point off the level set is probed once, at distance reach, downhill
    where lambda > gamma and uphill where lambda < gamma; a probe that
    brackets the root hands the bracket to _edge_roots.  Returns
    (projected_points, success_mask); points already on the level set come
    back unchanged and flagged, those whose probe brackets nothing come
    back unchanged and unflagged.
    """
    s0 = _lambda_at(params, pts) - gamma
    found = np.abs(s0) <= band
    out = pts.copy()
    off = np.flatnonzero(~found)
    if off.size:
        probe = np.clip(pts[off] - reach * np.sign(s0[off])[:, None]
                        * directions[off], 0.0, 1.0)
        s_p = _lambda_at(params, probe) - gamma
        bracket = (s_p < 0) != (s0[off] < 0)
        idx = off[bracket]
        out[idx] = _edge_roots(params, pts[idx], probe[bracket], s0[idx],
                               s_p[bracket], gamma, band)
        found[idx] = True
    return out, found


def _refine_max_mean(params: ModelParams, candidates: np.ndarray,
                     gamma: float, cell: float, band: float,
                     weights: np.ndarray) -> np.ndarray:
    """Slide tied candidates along the level set toward a larger weighted
    mean of x.

    Projected tangent ascent with a shrinking step.  A move is accepted
    only when it raises the mean by more than the projection can be off:
    each end of the move is a root placed within band of gamma, so
    within band / |grad lambda| of the level set, which moves the mean by
    up to 2 band |w| / |grad lambda|.  To first
    order a step gains (c - p) . w, with c the tangent move from p
    clipped to the unit square: a wall can shorten the move, or turn it
    along the wall, where it may gain nothing.  A candidate whose step
    cannot gain more than that bound retires, as a rejected step only
    shrinks.  So candidates pinned by the domain walls or on a flat
    objective retire at once and stay in place.
    """
    pts = candidates.copy()
    step = np.full(len(pts), 0.5 * cell)
    active = np.arange(len(pts))
    for _ in range(36):
        grads = _fd_gradient(params, pts[active])
        norms = np.linalg.norm(grads, axis=1)
        norms[norms == 0.0] = 1.0
        unit = grads / norms[:, None]
        tangent = np.stack([-unit[:, 1], unit[:, 0]], axis=1)
        slope = tangent @ weights
        direction = tangent * np.sign(slope)[:, None]
        cand = np.clip(pts[active] + step[active, None] * direction, 0.0, 1.0)
        noise = 2.0 * band * np.linalg.norm(weights) / norms
        live = (cand - pts[active]) @ weights > noise
        if not live.any():
            break
        active, cand, unit, noise = active[live], cand[live], unit[live], noise[live]
        proj, ok = _project_to_level(params, cand, gamma, unit,
                                     4.0 * step[active].max(), band)
        better = ok & (proj @ weights > pts[active] @ weights + noise)
        pts[active[better]] = proj[better]
        step[active] = np.where(better, step[active] * 1.5, step[active] * 0.5)
    return pts


def scan_region(params: ModelParams, resolution: int = 201,
                boundary_tol: float = 1e-9, tie_tol: float = 1e-6,
                marginal_band: float = 1e-9,
                weights: object = None) -> RegionScan:
    """Map equilibrium stability over the unit square of (x1, x2).

    Only defined for two-node models (boundary tracing is 2-D).  The
    optimal set collects boundary points whose mean susceptible mass
    ties the maximum within tie_tol, after a local refinement that
    slides candidates along the true level set.  boundary_tol is relative
    to gamma: a point where |lambda - gamma| <= boundary_tol * gamma lies
    on the level set.  With no boundary point the optimal set is (1, 1)
    if lambda < gamma at every grid node, and otherwise empty, which
    needs boundary_tol >= 1, so that every node lies within the band.
    The mean is uniform by default; pass `weights` (length 2,
    nonnegative, not all zero) to rank boundary points by a weighted mean
    instead, e.g. for unequal subpopulation sizes.
    """
    if params.n != 2:
        raise UsageError(
            f"scan_region requires a two-node model, got n={params.n}")
    resolution = _as_int(resolution, "resolution", _MIN_RESOLUTION, error=UsageError)
    boundary_tol = _as_float(boundary_tol, "boundary_tol", 0, error=UsageError)
    tie_tol = _as_float(tie_tol, "tie_tol", 0, error=UsageError)
    marginal_band = _as_float(marginal_band, "marginal_band", 0, error=UsageError)
    if weights is None:
        w = np.full(2, 0.5)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (2,) or not np.isfinite(w).all() or w.min() < 0 or w.sum() <= 0:
            raise UsageError(
                "weights must be two finite nonnegative numbers, not all zero")
        w = w / w.sum()
    axis = np.linspace(0.0, 1.0, resolution)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([g1.reshape(-1), g2.reshape(-1)], axis=-1)
    lam = _lambda_at(params, pts).reshape(resolution, resolution)
    gamma = params.gamma
    band = boundary_tol * gamma

    classes = _classify(lam, gamma, marginal_band)
    s = lam - gamma
    polylines, isolated = _trace_boundary(params, axis, s, gamma, band)

    all_points = [pt for line in polylines for pt in line] + list(isolated)
    if not all_points:
        # s(0, 0) = -gamma < 0, so with no crossing point either s < 0 at
        # every node, or every node is within band of the level set
        if (s < 0).all():
            x_star = np.array([[1.0, 1.0]])
        else:
            x_star = np.zeros((0, 2))
        return RegionScan(resolution, gamma, axis, classes, lam,
                          tuple(polylines), x_star)

    stacked = np.array(all_points)
    means = stacked @ w
    best = means.max()
    tied = stacked[means >= best - tie_tol]
    cell = axis[1] - axis[0]
    refined = _refine_max_mean(params, tied, gamma, cell, band, w)

    # re-evaluate ties after refinement, then deduplicate collapsed points
    r_means = refined @ w
    r_best = r_means.max()
    keep = refined[r_means >= r_best - tie_tol]
    keep = keep[np.lexsort((keep[:, 1], keep[:, 0]))]
    # in lexicographic order, a point is kept unless it lies within 1e-4
    # of a point kept before it
    close = np.linalg.norm(keep[:, None] - keep[None], axis=-1) <= 1e-4
    kept = np.zeros(len(keep), dtype=bool)
    for i, near in enumerate(close):
        kept[i] = not (near & kept).any()
    x_star = keep[kept]

    return RegionScan(resolution, gamma, axis, classes, lam,
                      tuple(polylines), x_star)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def region_to_json(scan: RegionScan) -> str:
    """JSON rendering with a row-major class grid (rows index x1)."""
    payload = {
        "resolution": scan.resolution,
        "gamma": scan.gamma,
        # _value_ is the member's plain attribute; the value property costs
        # a Python-level descriptor call per cell
        "classes": [c._value_ for c in scan.classes.reshape(-1)],
        "boundary": [[float(p[0]), float(p[1])]
                     for line in scan.boundary for p in line],
        "x_star_set": [[float(p[0]), float(p[1])] for p in scan.x_star_set],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


_SVG_COLORS = {
    Classification.STABLE: "#7db8e8",
    Classification.UNSTABLE: "#e87d7d",
    Classification.MARGINAL: "#e8d27d",
}


def region_to_svg(scan: RegionScan) -> str:
    """A 1000x1000 heatmap of the class grid with the traced boundary
    overlaid; x1 runs right, x2 runs up."""
    size = 1000.0
    r = scan.resolution
    cell = size / r
    rows: list[str] = []
    for i in range(r):
        j = 0
        while j < r:
            j0 = j
            cls = scan.classes[i, j]
            while j < r and scan.classes[i, j] is cls:
                j += 1
            rows.append(
                f'<rect x="{i * cell:.2f}" y="{size - j * cell:.2f}" '
                f'width="{cell:.2f}" height="{(j - j0) * cell:.2f}" '
                f'fill="{_SVG_COLORS[cls]}"/>')
    paths = []
    for line in scan.boundary:
        coords = " ".join(
            f"{p[0] * size:.2f},{(1.0 - p[1]) * size:.2f}" for p in line)
        paths.append(
            f'<polyline points="{coords}" fill="none" stroke="#222" stroke-width="3"/>')
    stars = [
        f'<circle cx="{p[0] * size:.2f}" cy="{(1.0 - p[1]) * size:.2f}" r="7" '
        f'fill="#111"/>' for p in scan.x_star_set]
    body = "\n".join(rows + paths + stars)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size:.0f} {size:.0f}">\n'
        f"{body}\n</svg>\n")
