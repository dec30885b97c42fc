"""Pointwise and region-level verification of the gain-witness condition.

For input-affine systems the inner maximization over u has the exact closed form

    residual(x, zeta) = zeta.g0(x) + (1/(4 gamma)) sum_i (zeta.g_i(x))^2 + |x|^2,

and the witness condition at (x, zeta) is ``residual <= 0``.  Power-affine
systems have an exact sup too (channel by channel; +inf for p > 2 wherever a
channel coefficient does not vanish).  For general systems the sup over u is
lower-bounded by sampling a u-grid.  Box subdifferentials are handled by vertex
enumeration (the residual is convex in zeta); unbounded box coordinates are
admissible only where their dynamic coefficient vanishes identically in u.

A :class:`Sweep` builds a region's grid, boxes, box vertices and (for
(power-)affine systems) each vertex's gamma-free parts once.  Its residuals at
any gamma are the one batched kernel; the scalar functions (:func:`point_residual`
and the closed forms it calls) are the reference it is tested against.  Its
needed gains solve the same exact sup for gamma.  :func:`check_witness`,
:func:`residuals` and :func:`needed_gains` are each one use of a sweep.  The
minimal-gain scan reads one sweep: it takes the first grid gamma at or above the
largest needed gain, confirms it with two checks (it passes, the grid gamma
below fails) and bisects the grid where they disagree and for general systems.
"""
from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

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

class Sweep:
    """A region sweep prepared once for any gamma: points, boxes and box vertices.

    Row q of ``lo``/``hi`` (Q, n) bounds the subdifferential at ``X[q]``.  The
    sup over zeta is taken over the box vertices (the residual is convex in
    zeta); a vertex takes a coordinate's finite side, or 0 on a coordinate
    unbounded on both sides.  A point with an unbounded coordinate whose dynamic
    coefficient does not vanish gets +inf, as does a point whose sup is NaN;
    an empty row (lo > hi) gets -inf.  The sup over u is exact for
    (power-)affine systems, from each vertex's gamma-free parts built here;
    general systems sample it on the u-grid of ``u_box`` (default: the u-box of
    the whole of X), evaluating the dynamics in chunks at each gamma.
    """

    def __init__(self, sys: System, X, lo, hi,
                 u_box: Optional[Sequence] = None, u_points: int = 41):
        self.sys, self.X = sys, np.asarray(X, dtype=float)
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        n = self.X.shape[1]
        zlo = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        zhi = np.where(np.isfinite(hi), hi, zlo)
        self._unbounded = ~(np.isfinite(lo) & np.isfinite(hi))
        self._empty = np.any(lo > hi, axis=1)
        flips = [k for k in range(n) if np.any(zhi[:, k] != zlo[:, k])]
        self.vertices = [zlo]            # lexicographic order, first axis slowest
        for k in reversed(flips):
            self.vertices += [np.where(np.arange(n) == k, zhi, Z) for Z in self.vertices]
        self.exact = isinstance(sys, AffineSystem)
        if self.exact:
            signed = sys.phi == "signed_pow"
            G0, GI = sys.drift(self.X), sys.input_fields(self.X)     # (Q, n), (m, Q, n)
            coef = np.max(np.abs(np.concatenate([G0[None], GI])), axis=0)
            self._bad = np.any(self._unbounded & (coef > _COEFF_ZERO_TOL), axis=1)
            xx = np.sum(self.X * self.X, axis=1)
            self._parts = []             # per vertex: A (Q,), c_eff (Q, m), sign of c
            for Z in self.vertices:
                c = np.einsum("iqn,qn->qi", GI, Z)
                self._parts.append((np.sum(Z * G0, axis=1) + xx,
                                    np.abs(c) if signed else np.maximum(c, 0.0),
                                    np.sign(c) if signed else 1.0))
        else:
            self.u_box = _default_u_box(self.X, sys.m) if u_box is None else u_box
            self._U = _u_grid_from_box(self.u_box, u_points)

    @classmethod
    def of(cls, sys: System, V: StorageCandidate, region: Region,
           u_box: Optional[Sequence] = None, u_points: int = 41) -> "Sweep":
        """The sweep of ``V``'s subdifferential over the region grid (kink loci included)."""
        if region.dim != sys.n:
            raise ValueError(f"region dimension {region.dim} does not match system n={sys.n}")
        if V.dim is not None and V.dim != sys.n:
            raise DimensionError(f"candidate {V.name!r} has dimension {V.dim}, system n={sys.n}")
        X = region.grid(V.kinks)
        if X.shape[0] == 0:
            raise EmptyRegionError("region grid is empty")
        return cls(sys, X, *V.subdiff_batch(X), u_box, u_points)

    def residuals(self, gamma: float):
        """Worst residual over each point's box at ``gamma``: arrays res (Q,), zeta
        (Q, n) and u (Q, m); zeta and u are NaN where no finite maximizer exists."""
        if self.exact:
            return self._vertex_max((_affine_sup(self.sys.p, gamma, *parts)
                                     for parts in self._parts), self._bad)
        X, U = self.X, self._U
        K, uu = len(U), np.sum(U * U, axis=1)
        step = max(1, _CHUNK_ROWS // K)
        vals = np.empty((len(self.vertices), len(X)))
        best = np.empty(vals.shape, dtype=int)          # the u-grid row of each sup
        bad = np.empty(len(X), dtype=bool)
        for start in range(0, len(X), step):
            s = slice(start, start + step)
            B = len(X[s])
            F = self.sys.dynamics(np.repeat(X[s], K, axis=0), np.tile(U, (B, 1))).reshape(B, K, -1)
            base = np.sum(X[s] * X[s], axis=1)[:, None] - gamma * uu
            for v, Z in enumerate(self.vertices):      # the sampled sup at each vertex
                at_u = np.einsum("bkn,bn->bk", F, Z[s]) + base
                best[v, s] = np.argmax(at_u, axis=1)
                vals[v, s] = at_u[np.arange(B), best[v, s]]
            bad[s] = np.any(self._unbounded[s] & (np.max(np.abs(F), axis=1) > _COEFF_ZERO_TOL),
                            axis=1)
        return self._vertex_max(zip(vals, U[best]), bad)

    def needed_gains(self, tol: float) -> np.ndarray:
        """The least gain at which each point's residual is at most ``tol``, shape (Q,):
        +inf if none, -inf for an empty row.  (Power-)affine systems only.

        At a vertex the residual is A + S gamma^(-p/(2-p)) for p < 2, with
        S = sum_i (2-p)/p (p c_i/2)^(2/(2-p)) (sum c_i^2/4 at p = 1), so it needs
        (S/(tol - A))^((2-p)/p), 0 if S = 0; p = 2 needs max c_i, p > 2 0 or +inf
        (a c_i > 0).  A > tol, or A = tol with S > 0, needs +inf.
        """
        if not self.exact:
            raise TypeError("needed gains are closed-form for (power-)affine systems only")
        no_u = np.full((len(self.X), self.sys.m), math.nan)
        return self._vertex_max(((_needed_gain(self.sys.p, tol, A, ceff), no_u)
                                 for A, ceff, _ in self._parts), self._bad)[0]

    def check(self, gamma: float, tol: Optional[float] = None) -> WitnessReport:
        """The witness verdict at ``gamma``: pass iff no residual exceeds ``tol``
        (default by mode).  The report carries the arrays of :meth:`residuals`."""
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if tol is None:
            tol = DEFAULT_TOL_EXACT if self.exact else DEFAULT_TOL_SAMPLED
        res, Z, U = self.residuals(gamma)
        k = int(np.argmax(res))
        best = float(res[k])
        worst_zeta = None if np.isnan(Z[k]).any() else Z[k].copy()
        worst_u = None if np.isnan(U[k]).any() else U[k].copy()
        verdict = "pass" if best <= tol else "fail"
        if not self.exact and verdict == "pass" and worst_u is not None \
                and _on_boundary(worst_u, self.u_box):
            # a fail is conclusive even if truncated; a pass with the max on the
            # u-box boundary may be hiding a larger sup outside the box
            warnings.warn("worst sampled u lies on the u-box boundary; the sup may be larger",
                          stacklevel=2)
        return WitnessReport(verdict, best, self.X[k].copy(), worst_zeta, worst_u,
                             len(self.X), gamma, tol, "exact" if self.exact else "sampled",
                             grid=self.X, point_residuals=res, point_u=U)

    def _vertex_max(self, sups, bad: np.ndarray) -> tuple:
        """Each row's largest (value, maximizer) in ``sups``, one pair per vertex, as (res,
        zeta, u); an undefined (NaN) value and a ``bad`` row are +inf, an empty row -inf."""
        Q, n = self.X.shape
        res, zeta, u = (np.full(Q, -math.inf), np.full((Q, n), math.nan),
                        np.full((Q, self.sys.m), math.nan))
        for Z, (val, w) in zip(self.vertices, sups):
            val = np.where(np.isnan(val), math.inf, val)
            better = val > res
            res[better], zeta[better], u[better] = val[better], Z[better], w[better]
        res[bad], res[self._empty] = math.inf, -math.inf
        zeta[bad | self._empty], u[bad | self._empty] = math.nan, math.nan
        return res, zeta, u


def _affine_sup(p, gamma, A, ceff, sgn):
    """The exact sup over u at gamma, A + sum_i sup_r c_i phi(r) - gamma r^2, and its maximizer."""
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
    return A + np.sum(val, axis=1), u


def _needed_gain(p, tol, A, ceff):
    """The least gamma at which A + sum_i sup_r c_i phi(r) - gamma r^2 is at most tol."""
    if p >= 2:
        top = np.fmax.reduce(ceff, axis=1, initial=0.0)   # the sup adds 0 for a NaN c_i
        top = np.where(top > _COEFF_ZERO_TOL, math.inf, 0.0) if p > 2 else top
        return np.where(A <= tol, top, math.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        S = np.sum((2.0 - p) / p * (p * ceff / 2.0) ** (2.0 / (2.0 - p)), axis=1)
        slack = tol - A
        return np.where(S == 0.0, np.where(slack >= 0.0, 0.0, math.inf), np.where(
            slack > 0.0, (S / slack) ** ((2.0 - p) / p), math.inf))


def residuals(sys: System, lo, hi, X, gamma: float,
              u_box: Optional[Sequence] = None, u_points: int = 41):
    """Worst residual over each point's box subdifferential: arrays (res, zeta, u),
    by the rules of :class:`Sweep`; one use of a sweep."""
    return Sweep(sys, X, lo, hi, u_box, u_points).residuals(gamma)


def needed_gains(sys: AffineSystem, lo, hi, X, tol: float) -> np.ndarray:
    """The least gain at which each point passes (:meth:`Sweep.needed_gains`)."""
    return Sweep(sys, X, lo, hi).needed_gains(tol)


def check_witness(sys: System, V: StorageCandidate, gamma: float, region: Region,
                  tol: Optional[float] = None,
                  u_box: Optional[Sequence] = None, u_points: int = 41) -> WitnessReport:
    """Verify the witness condition at every point of the region grid, which visits
    the candidate's kink loci, by the rules of :class:`Sweep`; one use of a sweep."""
    return Sweep.of(sys, V, region, u_box, u_points).check(gamma, tol)


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
                     and np.all(np.abs(gi[:, k]) <= _COEFF_ZERO_TOL)
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


class GainScan(NamedTuple):
    """A scan's smallest passing grid gamma (None if none passes); in exact mode also
    the largest needed gain on the region grid (maybe +inf) and the point needing it."""

    min_gamma: Optional[float]
    gamma_star: Optional[float] = None
    gamma_star_x: Optional[np.ndarray] = None


def min_gain_scan(sys: System, V: StorageCandidate, region: Region,
                  gamma_grid: Sequence[float], tol: Optional[float] = None) -> GainScan:
    """Smallest grid gamma whose witness check passes (``min_gamma``, None if all fail).

    One :class:`Sweep` of the region serves every pass below.  Exact mode (affine
    systems) takes the first grid gamma at or above the largest needed gain
    (:meth:`Sweep.needed_gains`), ``gamma_star``, and confirms it with two checks:
    it passes and the grid gamma below it fails.  If either disagrees, and in
    sampled mode, the scan bisects the grid: the residual is nonincreasing in
    gamma at a fixed u-grid, so bisection finds the same gamma as a linear scan
    in about log2(len(grid)) checks.
    """
    gammas = list(gamma_grid)
    if not gammas or any(g <= 0 for g in gammas) or gammas != sorted(gammas):
        raise ValueError("gamma_grid must be positive and increasing")
    sweep = Sweep.of(sys, V, region)
    passes = (lambda g: sweep.check(g, tol).passed)
    first, last = 0, len(gammas)      # gammas[:first] fail; gammas[last:] pass
    star = star_x = None
    if sweep.exact:
        need = sweep.needed_gains(DEFAULT_TOL_EXACT if tol is None else tol)
        k = int(np.argmax(need))
        star, star_x = max(float(need[k]), 0.0), sweep.X[k].copy()
        k = bisect.bisect_left(gammas, star)
        if (k == last or passes(gammas[k])) and (k == 0 or not passes(gammas[k - 1])):
            first = last = k          # confirmed: no bisection
    while first < last:
        mid = (first + last) // 2
        if passes(gammas[mid]):
            last = mid
        else:
            first = mid + 1
    return GainScan(gammas[first] if first < len(gammas) else None, star, star_x)


def gamma_range(start: float, stop: float, step: float) -> list:
    """An inclusive gamma grid built with integer stepping to avoid float drift."""
    k = int(round((stop - start) / step))
    return [round(start + i * step, 12) for i in range(k + 1)]
