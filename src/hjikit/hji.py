"""Pointwise and region-level verification of the gain-witness condition.

For input-affine systems the inner maximization over u has the exact closed form

    residual(x, zeta) = zeta.g0(x) + (1/(4 gamma)) sum_i (zeta.g_i(x))^2 + |x|^2,

and the witness condition at (x, zeta) is ``residual <= 0``.  Power-affine
systems have an exact sup too (channel by channel; +inf for p > 2 wherever a
channel coefficient does not vanish).  For general systems the sup over u is
lower-bounded on one fixed input grid, the tensor grid of u = d/sqrt(1 - d^2)
(:func:`decompactify`) at 79 nodes d: every 0.05 in [-0.95, 0.95] and 20 per side
with 1 - |d| geometric from 0.05 to 1e-6, so |u_i| <= 707 at a ratio of 1.31.  Box subdifferentials are handled by vertex enumeration (the
residual is convex in zeta); unbounded box coordinates are admissible only where
their dynamic coefficient vanishes identically in u.

A :class:`Sweep` builds a region's grid, boxes, box vertices (vertex 0 for every
row; the others of a box row's own axes for that row only) and, for
(power-)affine systems, each vertex's gamma-free parts once.  Its residuals at
any gamma are the one batched kernel; the scalar functions (:func:`point_residual`
and the closed forms it calls) are the reference it is tested against.  Its
needed gains solve the same sup for gamma, exactly or over the fixed input grid.
:func:`check_witness` is one use of a sweep, and the minimal-gain scan reads one
sweep: it takes the first grid gamma at or above the largest needed gain,
confirms it with two checks (it passes, the grid gamma below fails) and bisects
the grid only where they disagree.
"""
from __future__ import annotations

import bisect
import functools
import math
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
_MAX_GAMMAS = 10 ** 6       # points of a gamma grid, at most
_U_TAIL = 20                # tail nodes per side of the fixed input grid's axis


def _row_sum(A: np.ndarray) -> np.ndarray:
    """``np.add.reduce(A, axis=1)`` in A's dtype (``np.any`` for booleans).  Fewer than 8
    columns, which numpy adds in order, are added column by column from 0 (faster): only
    the sign of a zero sum can differ, and no caller's terms let it matter."""
    if A.shape[1] < 8:
        return sum(A.T, np.zeros(len(A), dtype=A.dtype))
    return np.add.reduce(A, axis=1, dtype=A.dtype)


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
    grid: Optional[np.ndarray] = field(default=None, repr=False, compare=False,
                                       metadata={"report": False})
    point_residuals: Optional[np.ndarray] = field(default=None, repr=False, compare=False,
                                                  metadata={"report": False})
    point_u: Optional[np.ndarray] = field(default=None, repr=False, compare=False,
                                          metadata={"report": False})

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


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


def general_residual(sys: System, x, zeta, gamma: float):
    """Sampled lower bound on sup_u [zeta.F(x,u) - supply] on the fixed input grid, and u."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    U = _u_grid(sys.m)
    F = sys.dynamics(np.broadcast_to(x, (U.shape[0], x.size)), U)
    # Sweep's order of terms: at the outer nodes they cancel from |u|^2 = 5e5 to rounding
    vals = F @ zeta + (float(np.dot(x, x)) - gamma * np.sum(U * U, axis=1))
    k = int(np.argmax(vals))
    return float(vals[k]), U[k].copy()


def compactify(u) -> np.ndarray:
    """d_i = u_i / sqrt(1 + |u|^2); maps R^m onto the open unit ball."""
    u = np.asarray(u, dtype=float)
    return u / np.sqrt(1.0 + np.sum(u * u, axis=-1, keepdims=True))


def decompactify(d) -> np.ndarray:
    """Inverse map u = d / sqrt(1 - |d|^2); requires |d| < 1."""
    d = np.asarray(d, dtype=float)
    rad = np.sum(d * d, axis=-1, keepdims=True)
    if np.any(rad >= 1.0):
        raise ValueError("decompactify requires |d| < 1")
    return d / np.sqrt(1.0 - rad)


@functools.lru_cache(maxsize=None)
def _u_grid(m: int) -> np.ndarray:
    """The fixed input grid of every sampled sup, (79^m, m), read-only: the tensor grid of
    the axis u = decompactify(d), d = linspace(-1, 1, 41) without its ends (|u| <= 3.04),
    and a tail per side with 1 - |d| = geomspace(0.05, 1e-6, 21)[1:] (|u| to 707)."""
    tail = 1.0 - np.geomspace(0.05, 1e-6, _U_TAIL + 1)[1:]
    d = np.concatenate([-tail[::-1], np.linspace(-1.0, 1.0, 41)[1:-1], tail])
    U = tensor_grid([decompactify(d[:, None])[:, 0]] * m)
    U.flags.writeable = False
    return U


# ---------------------------------------------------------------------------
# Region sweep
# ---------------------------------------------------------------------------

# a sweep's row counts by kind (see Sweep)
RowKinds = NamedTuple("RowKinds", [(k, int) for k in ("singleton", "box", "unbounded", "empty")])


class Sweep:
    """A region sweep prepared once for any gamma: points, boxes and box vertices.

    Row q of ``lo``/``hi`` (Q, n) bounds the subdifferential at ``X[q]``.  The
    sup over zeta is taken over the box vertices (the residual is convex in
    zeta); a vertex takes a coordinate's finite side, or 0 on a coordinate
    unbounded on both sides.  Every row takes vertex 0; a box row (lo < hi, both
    finite, on some axes) also takes the others of its own axes, grouped with the
    rows that flip the same axes and folded in the order of all 2^n, so the first
    maximum wins a tie.  ``row_kinds`` counts the rows by kind: empty, else box,
    else unbounded (an infinite or NaN bound), else singleton.  A point with an
    unbounded coordinate whose dynamic coefficient does not vanish gets +inf, as
    does a point whose sup is NaN; an empty row (lo > hi) gets -inf.  The sup over
    u is exact for (power-)affine systems, from each vertex's gamma-free parts;
    general systems sample it on the fixed input grid, so a point's results do not
    depend on the other rows, evaluating the dynamics in chunks at each call, or
    once for every call where all (point, u) rows fit in one chunk.  The bounds are
    read as C-ordered copies, so the results depend on their values, not their layout.
    """

    def __init__(self, sys: System, X, lo, hi):
        self.sys, self.X = sys, np.asarray(X, dtype=float)
        lo, hi = np.ascontiguousarray(lo, dtype=float), np.ascontiguousarray(hi, dtype=float)
        Q, n = self.X.shape
        zlo = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        zhi = np.where(np.isfinite(hi), hi, zlo)
        self._unbounded = ~(np.isfinite(lo) & np.isfinite(hi))
        self._empty = _row_sum(lo > hi)
        flips = zhi != zlo                                 # the axes each box row flips
        box = np.flatnonzero(_row_sum(flips) & ~self._empty)
        code = flips[box] @ (1 << np.arange(n))
        self.vertices = [(slice(None), zlo)]       # (rows, zeta), in folding order
        for c in np.flatnonzero(np.bincount(code)):    # not np.unique: it imports numpy.ma
            rows = box[code == c]
            group = [zlo[rows]]
            for k in np.flatnonzero(flips[rows[0]])[::-1]:
                group += [np.where(np.arange(n) == k, zhi[rows], Z) for Z in group]
            self.vertices += [(rows, Z) for Z in group[1:]]
        kind = np.where(self._empty, 3, 2 * _row_sum(self._unbounded))
        kind[box] = 1
        self.row_kinds = RowKinds(*np.bincount(kind, minlength=4).tolist())
        self.exact = isinstance(sys, AffineSystem)
        self.tol = DEFAULT_TOL_EXACT if self.exact else DEFAULT_TOL_SAMPLED   # the default
        xx = _row_sum(self.X * self.X)
        if self.exact:
            signed = sys.phi == "signed_pow"
            G0, GI = sys.drift(self.X), sys.input_fields(self.X)     # (Q, n), (m, Q, n)
            coef = np.maximum(np.abs(G0), np.max(np.abs(GI), axis=0, initial=0.0))
            self._bad = _row_sum(self._unbounded & (coef > _COEFF_ZERO_TOL))
            self._parts = []             # per vertex: A, c_eff (rows, m), sign of c
            for rows, Z in self.vertices:
                c = np.einsum("iqn,qn->qi", GI[:, rows], Z)
                self._parts.append((_row_sum(Z * G0[rows]) + xx[rows],
                                    np.abs(c) if signed else np.maximum(c, 0.0),
                                    np.sign(c) if signed else 1.0))
        else:
            self._xx, self._U = xx, _u_grid(sys.m)
            self._uu = np.sum(self._U * self._U, axis=1)
            self._F = None               # the dynamics of all rows, if they fit in one chunk

    @classmethod
    def of(cls, sys: System, V: StorageCandidate, region: Region) -> "Sweep":
        """The sweep of ``V``'s subdifferential over the region grid (kink loci included)."""
        if region.dim != sys.n:
            raise ValueError(f"region dimension {region.dim} does not match system n={sys.n}")
        if V.dim is not None and V.dim != sys.n:
            raise DimensionError(f"candidate {V.name!r} has dimension {V.dim}, system n={sys.n}")
        X = region.grid(V.kinks)
        if X.shape[0] == 0:
            raise EmptyRegionError("region grid is empty")
        return cls(sys, X, *V.subdiff_batch(X))

    def residuals(self, gamma: float):
        """Worst residual over each point's box at ``gamma``: arrays res (Q,), zeta
        (Q, n) and u (Q, m); zeta and u are NaN where no finite maximizer exists."""
        if self.exact:
            return self._vertex_max((_affine_sup(self.sys.p, gamma, *parts)
                                     for parts in self._parts), self._bad)

        def sup(S, rows):                # the sampled sup at a vertex and its grid u
            at_u = S + (self._xx[rows, None] - gamma * self._uu)
            arg = np.argmax(at_u, axis=1)
            return at_u[np.arange(len(rows)), arg], self._U[arg]
        return self._sampled(sup)

    def needed_gains(self, tol: Optional[float] = None) -> np.ndarray:
        """The least gain at which each point's residual is at most ``tol`` (default by
        mode), shape (Q,): +inf if none, -inf for an empty row.

        An affine vertex's residual is A + S gamma^(-p/(2-p)) for p < 2, with S = sum_i
        (2-p)/p (p c_i/2)^(2/(2-p)), so it needs (S/(tol - A))^((2-p)/p), 0 if S = 0 (+inf
        if A > tol, or A = tol < A + S); p = 2 needs max c_i, p > 2 0 or +inf (a c_i > 0).
        Sampled, it is max_k B_k - gamma |u_k|^2, B_k = zeta.F(x, u_k) + |x|^2, so it
        needs the largest (B_k - tol)/|u_k|^2 (at least 0), or +inf if B_k > tol at u_k = 0.
        """
        tol = self.tol if tol is None else tol
        no_u = np.full((len(self.X), self.sys.m), math.nan)
        if self.exact:
            return self._vertex_max(((_needed_gain(self.sys.p, tol, A, ceff), no_u[:len(A)])
                                     for A, ceff, _ in self._parts), self._bad)[0]

        def need(S, rows):               # u = 0 is the node of least |u|
            B = S + self._xx[rows, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = np.max((B - tol) / self._uu, axis=1, where=self._uu > 0.0, initial=0.0)
            return np.where(B[:, np.argmin(self._uu)] <= tol, gain, math.inf), no_u[:len(rows)]
        return self._sampled(need)[0]

    def check(self, gamma: float, tol: Optional[float] = None) -> WitnessReport:
        """The witness verdict at ``gamma``: pass iff no residual exceeds ``tol``
        (default by mode).  The report carries the arrays of :meth:`residuals`."""
        if not gamma > 0:
            raise ValueError("gamma must be positive")
        tol = self.tol if tol is None else tol
        res, Z, U = self.residuals(gamma)
        k = int(np.argmax(res))
        best = float(res[k])
        worst_zeta = None if np.isnan(Z[k]).any() else Z[k].copy()
        worst_u = None if np.isnan(U[k]).any() else U[k].copy()
        return WitnessReport("pass" if best <= tol else "fail", best, self.X[k].copy(),
                             worst_zeta, worst_u, len(self.X), float(gamma), float(tol),
                             "exact" if self.exact else "sampled",
                             grid=self.X, point_residuals=res, point_u=U)

    def _sampled(self, reduce) -> tuple:
        """:meth:`_vertex_max` over ``reduce(S, rows)``, a (value, u) pair per row of a
        vertex, where S (rows, K) holds zeta.F(x, u_k) at those rows and every grid u_k.
        The dynamics are evaluated per chunk of rows, and kept where all rows fit in one."""
        X, U, K = self.X, self._U, len(self._U)
        step = max(1, _CHUNK_ROWS // K)
        index = [np.arange(len(X))[rows] for rows, _ in self.vertices]
        sups = [[] for _ in index]                 # per vertex: its (value, u) per chunk
        bad = np.empty(len(X), dtype=bool)
        for start in range(0, len(X), step):
            s = slice(start, start + step)
            B = len(X[s])
            F = self._F if self._F is not None else self.sys.dynamics(
                np.repeat(X[s], K, axis=0), np.tile(U, (B, 1))).reshape(B, K, -1)
            if B == len(X):              # F does not depend on gamma
                self._F = F
            for rows, (_, Z), sup in zip(index, self.vertices, sups):
                i, j = np.searchsorted(rows, (start, start + B))
                sup.append(reduce(np.einsum("bkn,bn->bk", F[rows[i:j] - start], Z[i:j]),
                                  rows[i:j]))
            bad[s] = np.any(self._unbounded[s] & (np.max(np.abs(F), axis=1) > _COEFF_ZERO_TOL),
                            axis=1)
        return self._vertex_max((map(np.concatenate, zip(*sup)) for sup in sups), bad)

    def _vertex_max(self, sups, bad: np.ndarray) -> tuple:
        """Each row's largest (value, maximizer) in ``sups``, a pair per entry of ``vertices``,
        as (res, zeta, u); a NaN value and a ``bad`` row are +inf, an empty row -inf."""
        Q, n = self.X.shape
        res, zeta, u = (np.full(Q, -math.inf), np.full((n, Q), math.nan),
                        np.full((self.sys.m, Q), math.nan))     # (n, Q): wheres over rows
        for (rows, Z), (val, w) in zip(self.vertices, sups):
            val, top = np.where(np.isnan(val), math.inf, val), res[rows]
            better = val > top
            res[rows] = np.where(better, val, top)
            zeta[:, rows] = np.where(better, Z.T, zeta[:, rows])
            u[:, rows] = np.where(better, w.T, u[:, rows])
        drop = bad | self._empty
        return (np.where(self._empty, -math.inf, np.where(bad, math.inf, res)),
                np.where(drop, math.nan, zeta).T, np.where(drop, math.nan, u).T)


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
    return A + _row_sum(val), u


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


def check_witness(sys: System, V: StorageCandidate, gamma: float, region: Region,
                  tol: Optional[float] = None) -> WitnessReport:
    """Verify the witness condition at every point of the region grid, which visits
    the candidate's kink loci, by the rules of :class:`Sweep`; one use of a sweep."""
    return Sweep.of(sys, V, region).check(gamma, tol)


def point_residual(sys: System, V: StorageCandidate, gamma: float, x):
    """Worst residual over the subdifferential at one point: (residual, zeta, u).

    Returns +inf with zeta = None when an unbounded subdifferential coordinate
    multiplies a non-vanishing dynamic coefficient, and +inf where the sup at a
    vertex is NaN.  This is the scalar reference for :meth:`Sweep.residuals`.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    S = V.subdiff(x)
    if S.is_empty:
        return -math.inf, None, None
    if S.unbounded_axes:            # their coefficients: g0 and each g_i, or F on the grid
        U = _u_grid(sys.m)
        coef = (np.vstack([sys.drift(x), sys.input_fields(x)]) if isinstance(sys, AffineSystem)
                else sys.dynamics(np.broadcast_to(x, (len(U), x.size)), U))
        if not np.all(np.abs(coef[:, list(S.unbounded_axes)]) <= _COEFF_ZERO_TOL):
            return math.inf, None, None
    best, best_z, best_u = -math.inf, None, None
    for zeta in S.finite_vertices():
        if isinstance(sys, AffineSystem):
            res, u = _power_sup(sys, x, zeta, gamma)
        else:
            res, u = general_residual(sys, x, zeta, gamma)
        if math.isnan(res):
            res = math.inf
        if res > best:
            best, best_z, best_u = res, zeta, u
    return best, best_z, best_u


class GainScan(NamedTuple):
    """A scan's smallest passing grid gamma (None if none passes), the largest needed
    gain on the region grid (maybe +inf) and the point needing it (None when no point
    needs a positive gain)."""

    min_gamma: Optional[float]
    gamma_star: Optional[float] = None
    gamma_star_x: Optional[np.ndarray] = None


def min_gain_scan(sys: System, V: StorageCandidate, region: Region,
                  gamma_grid: Sequence[float], tol: Optional[float] = None) -> GainScan:
    """Smallest grid gamma whose witness check passes (``min_gamma``, None if all fail).

    One :class:`Sweep` of the region serves every pass below.  The scan takes the
    first grid gamma at or above the largest needed gain (:meth:`Sweep.needed_gains`),
    ``gamma_star``, and confirms it with two checks: it passes and the grid gamma
    below it fails.  If either disagrees, the scan bisects the grid: the residual is
    nonincreasing in gamma, so bisection finds the same gamma as a linear scan in
    about log2(len(grid)) checks.
    """
    gammas = list(gamma_grid)
    if not gammas or any(g <= 0 for g in gammas) or gammas != sorted(gammas):
        raise ValueError("gamma_grid must be positive and increasing")
    sweep = Sweep.of(sys, V, region)
    passes = (lambda g: sweep.check(g, tol).passed)
    first, last = 0, len(gammas)      # gammas[:first] fail; gammas[last:] pass
    need = sweep.needed_gains(tol)
    k = int(np.argmax(need))
    star = max(float(need[k]), 0.0)
    star_x = sweep.X[k].copy() if need[k] > 0 else None    # else every point ties
    k = bisect.bisect_left(gammas, star)
    if (k == last or passes(gammas[k])) and (k == 0 or not passes(gammas[k - 1])):
        first = last = k              # confirmed: no bisection
    while first < last:
        mid = (first + last) // 2
        if passes(gammas[mid]):
            last = mid
        else:
            first = mid + 1
    return GainScan(gammas[first] if first < len(gammas) else None, star, star_x)


def gamma_range(start: float, stop: float, step: float) -> list:
    """An inclusive gamma grid of at most 10^6 points, built with integer stepping."""
    span = (stop - start) / step if step > 0 else math.nan     # round(span) + 1 points
    if not (all(map(math.isfinite, (start, stop, step, span))) and span < _MAX_GAMMAS - 0.5):
        raise ValueError("a gamma grid needs finite bounds, a finite positive step and at "
                         f"most {_MAX_GAMMAS} points")
    return [round(start + i * step, 12) for i in range(int(round(span)) + 1)]
