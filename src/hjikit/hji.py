"""Pointwise and region-level verification of the gain-witness condition.

For input-affine systems the inner maximization over u has the exact closed form

    residual(x, zeta) = zeta.g0(x) + (1/(4 gamma)) sum_i (zeta.g_i(x))^2 + |x|^2,

and the witness condition at (x, zeta) is ``residual <= 0``.  Power-affine
systems have an exact sup too (channel by channel; +inf for p > 2 wherever a
channel coefficient does not vanish).  For general systems the sup over u is
lower-bounded on one fixed input grid (:func:`_u_grid`: 79 nodes per axis to
|u_i| = 707, the tail at a ratio of 1.31).  Box subdifferentials are handled by
vertex enumeration (the residual is convex in zeta); unbounded box coordinates
are admissible only where their dynamic coefficient vanishes identically in u.

A :class:`Sweep` builds a region's grid, boxes and box vertices once, and chooses
its sup over u once, in ``Sweep.__init__``: :func:`_exact_sup` or :func:`_sampled_sup`,
builders of one interface; another sup (refined between nodes, or exact for fields
piecewise quadratic in u) is one more builder there.  Its residuals at any gamma are
the one batched kernel, tested against ``point_residual`` and its closed forms in
``tests/reference.py``; its needed gains solve the same sup for gamma.
:func:`check_witness` is one use of a sweep, and the minimal-gain scan reads one
sweep: it takes the first grid gamma at or above the largest needed gain, confirms
it with two checks (it passes, the grid gamma below fails) and bisects the grid only
where they disagree.

Two rules live here alone: every witness verdict is a :meth:`Sweep.check` report (its
``point_passed`` per point), and :func:`annulus_grid` decides which tensor-grid points lie
in r_min <= |x| <= r_max (Region grids, the smoothing certificate's and the audits' scans).
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionError, HjikitError
from .expr import _KINK_SNAP, _row_sum
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


def tensor_grid(axes: Sequence[np.ndarray]) -> np.ndarray:
    """The tensor grid spanned by ``axes`` as rows (N, n), first axis slowest; (1, 0) if none."""
    if not len(axes):
        return np.zeros((1, 0))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def annulus_grid(axes: Sequence[np.ndarray], r_min: float, r_max: float = math.inf):
    """The mask over the ravelled tensor grid of ``axes`` (first axis slowest) of its points
    with r_min <= |x| <= r_max, and those points (K, n) in grid order; the norms add the
    squares in axis order, as np.linalg.norm does on a row of the grid.  r_min > 0."""
    if not len(axes):          # the one point of R^0 is the origin
        return np.zeros(1, dtype=bool), np.zeros((0, 0))
    norms = np.sqrt(functools.reduce(np.add.outer, [a * a for a in axes]))
    keep = (norms >= r_min) & (norms <= r_max)
    return keep.ravel(), np.stack([a[j] for a, j in zip(axes, np.nonzero(keep))], axis=1)


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
        for k, (lo, hi) in enumerate(self.box):       # a reversed or flat axis skips kinks
            if not -math.inf < lo < hi < math.inf:      # or repeats its grid points
                raise ValueError(f"box axis {k} needs finite lo < hi, got ({lo}, {hi})")

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
        return annulus_grid(axes, self.exclude_radius)[1]


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

    @property
    def point_passed(self) -> np.ndarray:
        """Per grid point, whether its residual is at most the tolerance."""
        return self.point_residuals <= self.tolerance


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
    """A region sweep prepared once for any gamma: points, boxes, box vertices and its sup.

    Row q of ``lo``/``hi`` (Q, n) bounds the subdifferential at ``X[q]``.  The
    sup over zeta is taken over the box vertices (the residual is convex in
    zeta); a vertex takes a coordinate's finite side, or 0 on a coordinate
    unbounded on both sides.  Every row takes vertex 0; a box row (lo < hi, both
    finite, on some axes) also takes the others of its own axes, grouped with the
    rows that flip the same axes and folded in the order of all 2^n, so the first
    maximum wins a tie.  ``row_kinds`` counts the rows by kind: empty, else box,
    else unbounded (an infinite or NaN bound), else singleton.  A point with an
    unbounded coordinate whose dynamic coefficient does not vanish gets +inf, as
    does a point whose sup is NaN; an empty row (lo > hi) gets -inf.  The bounds are
    read as C-ordered copies, so the results depend on their values, not their layout.

    The sup over u is chosen here alone, in ``__init__``: ``mode`` 'exact' (:func:`_exact_sup`)
    for (power-)affine systems, else 'sampled' (:func:`_sampled_sup`), with its default ``tol``.
    Each maps a gamma to (value, maximizer u) per vertex and a tol to (needed gain, NaN), with
    the rows it rules out; it keeps the sweep's arrays, never the sweep (no reference cycle).
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
        self.mode, self.tol, self._values, self._gains = (      # the one choice of the sup
            _exact_sup if isinstance(sys, AffineSystem) else _sampled_sup)(
                sys, self.X, self.vertices, self._unbounded)

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
        return self._vertex_max(*self._values(gamma))

    def needed_gains(self, tol: Optional[float] = None) -> np.ndarray:
        """The least gain at which each point's residual is at most ``tol`` (default by
        mode), shape (Q,): +inf if none, -inf for an empty row."""
        return self._vertex_max(*self._gains(self.tol if tol is None else tol))[0]

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
                             self.mode, grid=self.X, point_residuals=res, point_u=U)

    def _vertex_max(self, sups, bad: np.ndarray) -> tuple:
        """Each row's largest (value, u) in ``sups``, a pair per entry of ``vertices`` (u is
        (rows, m) or NaN), as (res, zeta, u); a NaN value or ``bad`` row is +inf, empty -inf."""
        Q, n = self.X.shape
        res, zeta, u = (np.full(Q, -math.inf), np.full((n, Q), math.nan),
                        np.full((self.sys.m, Q), math.nan))     # (n, Q): wheres over rows
        for (rows, Z), (val, w) in zip(self.vertices, sups):
            val, top = np.where(np.isnan(val), math.inf, val), res[rows]
            better = val > top
            res[rows] = np.where(better, val, top)
            zeta[:, rows] = np.where(better, Z.T, zeta[:, rows])
            u[:, rows] = np.where(better, np.transpose(w), u[:, rows])
        drop = bad | self._empty
        return (np.where(self._empty, -math.inf, np.where(bad, math.inf, res)),
                np.where(drop, math.nan, zeta).T, np.where(drop, math.nan, u).T)


def _exact_sup(sys: AffineSystem, X, vertices, unbounded):
    """The exact sup as :class:`Sweep` reads it, from each vertex's gamma-free parts: A =
    zeta.g0 + |x|^2, c_eff (rows, m) and the sign of c = zeta.g_i.  It is A + S gamma^(-p/(2-p))
    for p < 2, S = sum_i (2-p)/p (p c_i/2)^(2/(2-p)), so it needs (S/(tol - A))^((2-p)/p), 0 if
    S = 0 (+inf if A > tol, or A = tol < A + S); p = 2 needs max c_i, p > 2 0 or +inf (a c_i > 0).
    It rules out a row where an unbounded coordinate's g0 or g_i does not vanish."""
    signed = sys.phi == "signed_pow"
    G0, GI = sys.drift(X), sys.input_fields(X)     # (Q, n), (m, Q, n)
    coef = np.maximum(np.abs(G0), np.max(np.abs(GI), axis=0, initial=0.0))
    bad, xx = _row_sum(unbounded & (coef > _COEFF_ZERO_TOL)), _row_sum(X * X)
    parts = []                       # per vertex: A, c_eff (rows, m), sign of c
    for rows, Z in vertices:
        c = np.einsum("iqn,qn->qi", GI[:, rows], Z)
        parts.append((_row_sum(Z * G0[rows]) + xx[rows],
                      np.abs(c) if signed else np.maximum(c, 0.0), np.sign(c) if signed else 1.0))
    return ("exact", DEFAULT_TOL_EXACT,
            lambda gamma: ((_affine_sup(sys.p, gamma, *part) for part in parts), bad),
            lambda tol: (((_needed_gain(sys.p, tol, A, c), math.nan) for A, c, _ in parts), bad))


def _sampled_sup(sys: System, X, vertices, unbounded):
    """The sup on the fixed input grid as :class:`Sweep` reads it: max_k B_k - gamma |u_k|^2,
    B_k = zeta.F(x, u_k) + |x|^2, so it needs the largest (B_k - tol)/|u_k|^2 (at least 0),
    or +inf if B_k > tol at u_k = 0.  It rules out a row where an unbounded coordinate of F
    does not vanish at some u_k.  A point's results do not depend on the other rows: the
    dynamics are evaluated in chunks of rows at each call, or once for all calls if they fit."""
    U, xx = _u_grid(sys.m), _row_sum(X * X)
    uu, K, step = np.sum(U * U, axis=1), len(U), max(1, _CHUNK_ROWS // len(U))
    index = [np.arange(len(X))[rows] for rows, _ in vertices]   # each vertex's row numbers
    F_all = None                     # the dynamics of all rows, if they fit in one chunk

    def sup(S, rows, gamma):         # the sampled sup at a vertex and its grid u
        at_u = S + (xx[rows, None] - gamma * uu)
        arg = np.argmax(at_u, axis=1)
        return at_u[np.arange(len(rows)), arg], U[arg]

    def need(S, rows, tol):          # u = 0 is the node of least |u|
        B = S + xx[rows, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = np.max((B - tol) / uu, axis=1, where=uu > 0.0, initial=0.0)
        return (np.where(B[:, np.argmin(uu)] <= tol, gain, math.inf),
                np.full((len(rows), sys.m), math.nan))

    def scan(reduce, arg):           # per vertex, reduce(S, rows, arg), S = zeta.F(x, U)
        nonlocal F_all
        sups = [[] for _ in index]                 # per vertex: its (value, u) per chunk
        bad = np.empty(len(X), dtype=bool)
        for start in range(0, len(X), step):
            s = slice(start, start + step)
            B = len(X[s])
            F = F_all if F_all is not None else sys.dynamics(
                np.repeat(X[s], K, axis=0), np.tile(U, (B, 1))).reshape(B, K, -1)
            if B == len(X):              # F does not depend on gamma
                F_all = F
            for rows, (_, Z), chunks in zip(index, vertices, sups):
                i, j = np.searchsorted(rows, (start, start + B))
                chunks.append(reduce(np.einsum("bkn,bn->bk", F[rows[i:j] - start], Z[i:j]),
                                     rows[i:j], arg))
            bad[s] = _row_sum(unbounded[s] & (np.max(np.abs(F), axis=1) > _COEFF_ZERO_TOL))
        return (map(np.concatenate, zip(*chunks)) for chunks in sups), bad
    return "sampled", DEFAULT_TOL_SAMPLED, lambda g: scan(sup, g), lambda t: scan(need, t)


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
