"""Pointwise and region-level verification of the gain-witness condition.

For input-affine systems the inner maximization over u has the exact closed form

    residual(x, zeta) = zeta.g0(x) + (1/(4 gamma)) sum_i (zeta.g_i(x))^2 + |x|^2,

and the witness condition at (x, zeta) is ``residual <= 0``.  Power-affine
systems have an exact sup too (channel by channel; +inf for p > 2 wherever a
channel coefficient does not vanish).  For general systems the sup over u is
lower-bounded by sampling a u-grid.  Box subdifferentials are handled by vertex
enumeration (the residual is convex in zeta); unbounded box coordinates are
admissible only where their dynamic coefficient vanishes identically in u.

:func:`residuals` is the one batched kernel behind region sweeps; the scalar
functions (:func:`point_residual` and the closed forms it calls) are the
reference it is tested against.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, HjikitError
from .expr import _KINK_SNAP
from .storage import StorageCandidate
from .systems import AffineSystem, System


class EmptyRegionError(HjikitError):
    pass


DEFAULT_TOL_EXACT = 1e-9    # exact-oracle affine checks
DEFAULT_TOL_SAMPLED = 1e-6  # sampled-sup general checks
_COEFF_ZERO_TOL = 1e-12     # "vanishes identically" threshold for unbounded axes
_CHUNK_ROWS = 200_000       # (point, u) rows per dynamics call on the sampled path


def tensor_grid(axes: Sequence[np.ndarray]) -> np.ndarray:
    """The tensor grid spanned by ``axes`` as rows (N, n), first axis slowest; (1, 0) if none."""
    if not len(axes):
        return np.zeros((1, 0))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The integral of samples ``y`` from ``x[0]`` to each of the increasing ``x`` (>= 3
    points), operation for operation scipy 1.17's ``cumulative_simpson(y, x=x, initial=0)``:
    each interval takes the Simpson quadratic through it and the next sample, the odd
    ones and the last through it and the previous sample (Cartwright's unequal-step rule)."""
    def first_intervals(f, d):
        x21, x32 = d[:-1], d[1:]
        x21_x31 = x21 / (x21 + x32)
        x21x21_x31x32 = x21_x31 * (x21 / x32)
        return x21 / 6 * ((3 - x21_x31) * f[:-2] + (3 + x21x21_x31x32 + x21_x31) * f[1:-1]
                          - x21x21_x31x32 * f[2:])

    dx = np.diff(x)
    ahead, behind = first_intervals(y, dx), first_intervals(y[::-1], dx[::-1])[::-1]
    pieces = np.empty(len(y) - 1)
    pieces[:-1:2], pieces[1::2], pieces[-1] = ahead[::2], behind[::2], behind[-1]
    return np.concatenate([[0.0], np.cumsum(pieces) + 0.0])    # + 0.0: -0.0 reads as 0.0


@dataclass(frozen=True)
class Region:
    """A sampling box; grid points with |x| below ``exclude_radius`` are omitted."""

    box: tuple                 # n pairs (lo, hi)
    points_per_dim: int = 41
    exclude_radius: float = 1e-9

    def __post_init__(self):
        if self.exclude_radius <= 0:
            raise ValueError("exclude_radius must be positive (the origin is never checked)")
        if self.points_per_dim < 2:
            raise ValueError("points_per_dim must be at least 2")

    @property
    def dim(self) -> int:
        return len(self.box)

    def grid(self, kinks=()) -> np.ndarray:
        """The grid points; each (axis, value) in ``kinks`` inside the box becomes a node.

        A kink coordinate is inserted into its axis unless a node already lies
        within the candidates' snapping distance of it.
        """
        axes = [np.linspace(lo, hi, self.points_per_dim) for lo, hi in self.box]
        for k, v in kinks:
            lo, hi = self.box[k]
            if lo <= v <= hi and not np.any(np.abs(axes[k] - v) <= _KINK_SNAP):
                axes[k] = np.sort(np.append(axes[k], v))
        X = tensor_grid(axes)
        keep = np.linalg.norm(X, axis=1) >= self.exclude_radius
        return X[keep]


@dataclass
class WitnessReport:
    verdict: str                      # 'pass' | 'fail'
    max_residual: float
    worst_x: Optional[np.ndarray]
    worst_zeta: Optional[np.ndarray]
    worst_u: Optional[np.ndarray]
    points_checked: int
    gamma: float = 0.0
    tolerance: float = 0.0
    mode: str = "exact"               # 'exact' | 'sampled'
    # per-point arrays behind the verdict: grid (Q, n), residuals (Q,), worst u (Q, m)
    grid: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    point_residuals: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    point_u: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        def arr(a):
            return None if a is None else [float(v) for v in np.atleast_1d(a)]
        return {
            "verdict": self.verdict,
            "max_residual": float(self.max_residual),
            "worst_x": arr(self.worst_x),
            "worst_zeta": arr(self.worst_zeta),
            "worst_u": arr(self.worst_u),
            "points_checked": self.points_checked,
            "gamma": float(self.gamma),
            "tolerance": float(self.tolerance),
            "mode": self.mode,
        }


def supply(x, u, gamma: float) -> float:
    """The supply rate gamma|u|^2 - |x|^2."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    return float(gamma * np.dot(u, u) - np.dot(x, x))


def affine_residual(sys: AffineSystem, x, zeta, gamma: float) -> float:
    """Exact sup_u [zeta.F(x,u) - supply(x,u,gamma)] for an input-affine system (p = 1)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    g0 = sys.drift(x)
    fields = sys.input_fields(x)
    quad = sum(float(np.dot(zeta, fields[i])) ** 2 for i in range(sys.m))
    return float(np.dot(zeta, g0)) + quad / (4.0 * gamma) + float(np.dot(x, x))


def power_residual(sys: AffineSystem, x, zeta, gamma: float) -> float:
    """Exact sup over u for an :class:`AffineSystem` of any p and phi."""
    return _power_sup(sys, x, zeta, gamma)[0]


def _power_sup(sys: AffineSystem, x, zeta, gamma: float):
    """Exact sup over u for a power-affine system and a maximizer (None if p >= 2 gives +inf).

    Channels separate:  sup_r c phi(r) - gamma r^2 is gamma (2-p)/p r*^2 at
    r* = (p c / (2 gamma))^(1/(2-p)) for p < 2 (+inf once r* overflows); for
    p = 2 it is 0 when the effective coefficient is at most gamma and +inf
    otherwise; for p > 2 it is +inf unless the effective coefficient vanishes.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    g0 = sys.drift(x)
    fields = sys.input_fields(x)
    total = float(np.dot(zeta, g0)) + float(np.dot(x, x))
    u = np.zeros(sys.m)
    p = sys.p
    for i in range(sys.m):
        c = float(np.dot(zeta, fields[i]))
        ceff = abs(c) if sys.phi == "signed_pow" else max(c, 0.0)
        if ceff == 0.0:
            continue
        if p >= 2:
            if ceff > (gamma if p == 2 else _COEFF_ZERO_TOL):
                return math.inf, None
            continue
        if p == 1:
            r = ceff / (2.0 * gamma)
            total += ceff * ceff / (4.0 * gamma)
        else:
            with np.errstate(over="ignore"):          # p near 2: r and the sup overflow to inf
                r = float(np.float64(p * ceff / (2.0 * gamma)) ** (1.0 / (2.0 - p)))
            total += gamma * (2.0 - p) / p * r * r      # c r^p - gamma r^2 at r
        u[i] = math.copysign(r, c) if sys.phi == "signed_pow" else r
    return total, u


def general_residual(sys: System, x, zeta, gamma: float,
                     u_box: Optional[Sequence] = None, u_points: int = 41,
                     warn_on_boundary: bool = True):
    """Sampled lower bound on sup_u [zeta.F(x,u) - supply]; also returns the argmax u."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    if u_box is None:
        u_box = _default_u_box(x, sys.m)
    U = _u_grid_from_box(u_box, u_points)
    F = sys.dynamics(np.broadcast_to(x, (U.shape[0], x.size)), U)
    vals = F @ zeta - gamma * np.sum(U * U, axis=1) + float(np.dot(x, x))
    k = int(np.argmax(vals))
    if warn_on_boundary and _on_boundary(U[k], u_box):
        warnings.warn(
            "sup over the u-grid attained on the box boundary; enlarge u_box",
            stacklevel=2)
    return float(vals[k]), U[k].copy()


def _u_grid_from_box(u_box, u_points: int) -> np.ndarray:
    return tensor_grid([np.linspace(lo, hi, u_points) for lo, hi in u_box])


def _default_u_box(X, m: int) -> list:
    """The u-box [-4 max|x_i|, 4 max|x_i|]^m over the given state(s)."""
    half = 4.0 * float(np.max(np.abs(X)))
    return [(-half, half)] * m


def _on_boundary(u: np.ndarray, u_box) -> bool:
    lo, hi = np.asarray(u_box, dtype=float).T
    return bool(np.any(((u <= lo) | (u >= hi)) & (hi > lo)))


# ---------------------------------------------------------------------------
# Region sweep
# ---------------------------------------------------------------------------

def residuals(sys: System, lo, hi, X, gamma: float,
              u_box: Optional[Sequence] = None, u_points: int = 41):
    """Worst residual over each point's box subdifferential: arrays (res, zeta, u).

    Row q of ``lo``/``hi`` (Q, n) bounds the subdifferential at ``X[q]``.  The
    sup over zeta is taken over the box vertices (the residual is convex in
    zeta); a vertex takes a coordinate's finite side, or 0 on a coordinate
    unbounded on both sides.  A point with an unbounded coordinate whose dynamic
    coefficient does not vanish gets +inf, as does a point whose sup is NaN;
    an empty row (lo > hi) gets -inf.
    The sup over u is exact for (power-)affine systems and taken over the
    u-grid of ``u_box`` (default: the u-box of the whole of X) for general
    systems.  ``res`` has shape (Q,), the worst ``zeta`` (Q, n) and the worst
    ``u`` (Q, m); both are NaN where no finite maximizer exists.
    """
    X = np.asarray(X, dtype=float)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    Q, n = X.shape
    zlo = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    zhi = np.where(np.isfinite(hi), hi, zlo)
    unbounded = ~(np.isfinite(lo) & np.isfinite(hi))
    flips = [k for k in range(n) if np.any(zhi[:, k] != zlo[:, k])]
    vertices = [zlo]                 # lexicographic order, first axis slowest
    for k in reversed(flips):
        vertices += [np.where(np.arange(n) == k, zhi, Z) for Z in vertices]

    if isinstance(sys, AffineSystem):
        step, parts = max(Q, 1), (lambda s: _affine_parts(sys, X[s], gamma))
    else:
        U = _u_grid_from_box(_default_u_box(X, sys.m) if u_box is None else u_box, u_points)
        step = max(1, _CHUNK_ROWS // U.shape[0])
        parts = (lambda s: _sampled_parts(sys, X[s], gamma, U))

    res = np.full(Q, -math.inf)
    zeta = np.full((Q, n), math.nan)
    worst_u = np.full((Q, sys.m), math.nan)
    for start in range(0, Q, step):
        s = slice(start, start + step)
        coef, sup = parts(s)
        r, z, w = res[s], zeta[s], worst_u[s]        # views into the outputs
        for Z in vertices:
            val, u = sup(Z[s])
            val = np.where(np.isnan(val), math.inf, val)     # an undefined sup fails
            better = val > r
            r[better], z[better], w[better] = val[better], Z[s][better], u[better]
        bad = np.any(unbounded[s] & (coef > _COEFF_ZERO_TOL), axis=1)
        r[bad], z[bad], w[bad] = math.inf, math.nan, math.nan
    empty = np.any(lo > hi, axis=1)
    res[empty], zeta[empty], worst_u[empty] = -math.inf, math.nan, math.nan
    return res, zeta, worst_u


def _affine_parts(sys, X, gamma):
    """Per-point dynamic coefficients (Q, n) and the exact sup over u at a vertex array."""
    p, signed = sys.p, sys.phi == "signed_pow"
    G0 = sys.drift(X)
    GI = sys.input_fields(X)                              # (m, Q, n)
    xx = np.sum(X * X, axis=1)

    def sup(Z):
        ceff = np.einsum("iqn,qn->qi", GI, Z)             # channel coefficients (Q, m)
        sgn = np.sign(ceff) if signed else 1.0
        ceff = np.abs(ceff) if signed else np.maximum(ceff, 0.0)
        if p >= 2:
            val = np.where(ceff > (gamma if p == 2 else _COEFF_ZERO_TOL), math.inf, 0.0)
            r = np.zeros_like(ceff)
        elif p == 1:
            val, r = ceff * ceff / (4.0 * gamma), ceff / (2.0 * gamma)
        else:
            with np.errstate(over="ignore"):          # p near 2: r and val overflow to inf
                r = (p * ceff / (2.0 * gamma)) ** (1.0 / (2.0 - p))
                val = gamma * (2.0 - p) / p * r * r   # c r^p - gamma r^2 at r
        u = np.where(np.isinf(val), math.nan, sgn * r)
        return np.sum(Z * G0, axis=1) + xx + np.sum(val, axis=1), u

    return np.max(np.abs(np.concatenate([G0[None], GI])), axis=0), sup


def _sampled_parts(sys, X, gamma, U):
    """Per-point dynamic coefficients over the u-grid and the sampled sup at a vertex array."""
    B, K = X.shape[0], U.shape[0]
    F = sys.dynamics(np.repeat(X, K, axis=0), np.tile(U, (B, 1))).reshape(B, K, -1)
    base = np.sum(X * X, axis=1)[:, None] - gamma * np.sum(U * U, axis=1)

    def sup(Z):
        vals = np.einsum("bkn,bn->bk", F, Z) + base
        j = np.argmax(vals, axis=1)
        return vals[np.arange(B), j], U[j]

    return np.max(np.abs(F), axis=1), sup


def check_witness(sys: System, V: StorageCandidate, gamma: float, region: Region,
                  tol: Optional[float] = None,
                  u_box: Optional[Sequence] = None, u_points: int = 41) -> WitnessReport:
    """Sweep the region grid and verify the witness condition at every point.

    The grid visits the candidate's kink loci.  At each grid point the
    candidate's subdifferential is maximized over: a box maximum is attained at
    a vertex (the residual is convex in zeta).  An unbounded box coordinate k is
    admissible only if the coefficient that multiplies zeta_k vanishes
    identically in u (for affine-structured systems: the k-th component of g0
    and of every g_i is zero at x); otherwise the point is recorded with +inf
    residual.  General systems sample one u-grid over ``u_box`` (default: the
    u-box of the whole grid) at every point.  The report carries the per-point
    arrays that :func:`residuals` returns.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    exact = isinstance(sys, AffineSystem)
    if tol is None:
        tol = DEFAULT_TOL_EXACT if exact else DEFAULT_TOL_SAMPLED
    if region.dim != sys.n:
        raise ValueError(f"region dimension {region.dim} does not match system n={sys.n}")
    if V.dim is not None and V.dim != sys.n:
        raise DimensionError(f"candidate {V.name!r} has dimension {V.dim}, system n={sys.n}")
    X = region.grid(V.kinks)
    if X.shape[0] == 0:
        raise EmptyRegionError("region grid is empty")
    if not exact and u_box is None:
        u_box = _default_u_box(X, sys.m)

    res, Z, U = residuals(sys, *V.subdiff_batch(X), X, gamma, u_box, u_points)
    k = int(np.argmax(res))
    best = float(res[k])
    worst_zeta = None if np.isnan(Z[k]).any() else Z[k].copy()
    worst_u = None if np.isnan(U[k]).any() else U[k].copy()
    verdict = "pass" if best <= tol else "fail"
    if not exact and verdict == "pass" and worst_u is not None \
            and _on_boundary(worst_u, u_box):
        # a fail is conclusive even if truncated; a pass with the max on the
        # u-box boundary may be hiding a larger sup outside the box
        warnings.warn("worst sampled u lies on the u-box boundary; the sup may be larger",
                      stacklevel=2)
    return WitnessReport(verdict, best, X[k].copy(), worst_zeta, worst_u,
                         X.shape[0], gamma, tol, "exact" if exact else "sampled",
                         grid=X, point_residuals=res, point_u=U)


def point_residual(sys: System, V: StorageCandidate, gamma: float, x,
                   u_box: Optional[Sequence] = None, u_points: int = 41):
    """Worst residual over the subdifferential at one point: (residual, zeta, u).

    Returns +inf with zeta = None when an unbounded subdifferential coordinate
    multiplies a non-vanishing dynamic coefficient, and +inf where the sup at a
    vertex is NaN.  This is the scalar reference for :func:`residuals`.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    S = V.subdiff(x)
    if S.is_empty:
        return -math.inf, None, None
    if S.unbounded_axes:
        if isinstance(sys, AffineSystem):
            g0 = sys.drift(x)
            gi = sys.input_fields(x)
            ok = all(abs(g0[k]) <= _COEFF_ZERO_TOL
                     and (sys.m == 0 or np.all(np.abs(gi[:, k]) <= _COEFF_ZERO_TOL))
                     for k in S.unbounded_axes)
        else:
            U = _u_grid_from_box(_default_u_box(x, sys.m) if u_box is None else u_box,
                                 u_points)
            F = sys.dynamics(np.broadcast_to(x, (U.shape[0], x.size)), U)
            ok = all(np.max(np.abs(F[:, k])) <= _COEFF_ZERO_TOL for k in S.unbounded_axes)
        if not ok:
            return math.inf, None, None
    best, best_z, best_u = -math.inf, None, None
    for zeta in S.finite_vertices():
        if isinstance(sys, AffineSystem):
            res, u = _power_sup(sys, x, zeta, gamma)
        else:
            res, u = general_residual(sys, x, zeta, gamma, u_box=u_box,
                                      u_points=u_points, warn_on_boundary=False)
        if math.isnan(res):
            res = math.inf
        if res > best:
            best, best_z, best_u = res, zeta, u
    return best, best_z, best_u


def min_gain_scan(sys: System, V: StorageCandidate, region: Region,
                  gamma_grid: Sequence[float], tol: Optional[float] = None) -> Optional[float]:
    """Smallest grid gamma whose witness check passes; None if every gamma fails.

    The residual is nonincreasing in gamma at a fixed u-grid, so once a grid
    gamma passes every larger one does: the scan bisects the grid, and finds
    the same gamma as a linear scan in about log2(len(grid)) sweeps.
    """
    gammas = list(gamma_grid)
    if not gammas or any(g <= 0 for g in gammas) or gammas != sorted(gammas):
        raise ValueError("gamma_grid must be positive and increasing")
    first, last = 0, len(gammas)      # gammas[:first] fail; gammas[last:] pass
    while first < last:
        mid = (first + last) // 2
        if check_witness(sys, V, gammas[mid], region, tol=tol).passed:
            last = mid
        else:
            first = mid + 1
    return gammas[first] if first < len(gammas) else None


def gamma_range(start: float, stop: float, step: float) -> list:
    """An inclusive gamma grid built with integer stepping to avoid float drift."""
    k = int(round((stop - start) / step))
    return [round(start + i * step, 12) for i in range(k + 1)]
