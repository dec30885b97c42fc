"""Gain-relaxed smoothing of continuous witnesses, with a-posteriori certification.

The pipeline compactifies inputs onto the open unit ball, transports the
dynamics to the transformed field f(x, d), and replaces the non-constructive
smooth-approximation step by kernel mollification of the sampled candidate,
followed by certification of the two output bounds on a declared grid:

    (19)  |V(x) - W(x)| <= V(x)/2
    (20)  grad W(x) . (g0(x) + sum_i phi(u_i) g_i(x)) <= -|x|^2 + [(1+eps)gamma + eps]|u|^2

The certified object is the kernel-convolution function itself (smooth by
construction for any positive radius profile); exported grid dumps are
evaluations of it, not the function.  Certificates are statements about the
declared grids only.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import HjikitError
from .expr import _row_sum
from .hji import Region, Sweep, _cumulative_simpson, annulus_grid, check_witness, tensor_grid
from .hji import compactify, decompactify      # the input map, also exported from here
from .storage import StorageCandidate
from .systems import AffineSystem, System


class BoundaryRadiusError(HjikitError):
    """The mollification radius reaches outside the sampled hull at some query."""


_EVAL_CHUNK = 4096      # query rows per gathered window block in MollifiedFunction.evaluate
_HYPOTHESIS_PPD = 41    # grid points per axis of smooth_witness's hypothesis check
_GRID_RATIO = 1.1       # node ratio of smooth_witness's mirrored geometric sample axis
_CASE1_EPS = (1.0, 0.5, 0.25, 0.125, 0.0625)   # check_case1_p2's decreasing eps sequence


# ---------------------------------------------------------------------------
# The transformed field of the input compactification (:func:`hji.compactify`)
# ---------------------------------------------------------------------------

def transformed_field(sys: AffineSystem, x, d) -> np.ndarray:
    """f(x, d) = (1-|d|^2) g0(x) + sum_i phi(d_i) (1-|d|^2)^(1-p/2) g_i(x).

    For p = 2 the coefficient of g_i is plainly phi(d_i); for p < 2 the field
    vanishes on the unit sphere |d| = 1.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    one_minus = max(0.0, 1.0 - float(np.dot(d, d)))
    out = one_minus * sys.drift(x)
    coeff = 1.0 if sys.p == 2 else one_minus ** (1.0 - sys.p / 2.0)
    fields = sys.input_fields(x)
    phid = sys.phi_apply(d)
    for i in range(sys.m):
        out = out + phid[i] * coeff * fields[i]
    return out


def theta(x, d, alpha: Callable, beta: Callable) -> float:
    """Theta(x, d) = -(1 - |d|^2) alpha(x) + |d|^2 beta(x)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    dsq = float(np.dot(d, d))
    return -(1.0 - dsq) * float(alpha(x)) + dsq * float(beta(x))


def default_alpha(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return _row_sum(x * x)


def check_case1_p2(sys: AffineSystem, x, zeta, beta_val: float, d) -> bool:
    """The unit-sphere boundary inequality for p = 2 at subgradient zeta.

    Verifies sum_i phi(d_i) zeta.g_i(x) <= beta + 1e-9 by evaluating the
    eps^2-scaled witness inequality (alpha = |x|^2) along a decreasing eps
    sequence (inputs of the form d/eps) and confirming the limit value.
    """
    if sys.p != 2:
        raise ValueError("this check applies to p = 2 systems")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    if abs(float(np.dot(d, d)) - 1.0) > 1e-9:
        raise ValueError("d must be a unit vector")
    fields = sys.input_fields(x)
    g0 = sys.drift(x)
    phid = sys.phi_apply(d)
    limit_lhs = sum(float(phid[i]) * float(np.dot(zeta, fields[i])) for i in range(sys.m))
    a = float(default_alpha(x))
    zg0 = float(np.dot(zeta, g0))
    # scaled members: [eps^2 zeta.g0 + limit] - [-eps^2 alpha + beta]; linear in eps^2,
    # so the sequence converges monotonically onto the boundary inequality.
    gaps = [eps * eps * (zg0 + a) + (limit_lhs - beta_val) for eps in _CASE1_EPS]
    steps = np.diff(gaps)
    if steps.size and not (np.all(steps <= 1e-12) or np.all(steps >= -1e-12)):
        raise RuntimeError("scaled sequence failed to converge monotonically")
    return limit_lhs <= beta_val + 1e-9


def choose_delta(eps: float) -> float:
    """delta = m/(1+m) with m = min(eps, 1/4); satisfies both bookkeeping bounds.

    1/(1-delta) = 1 + m <= 1 + eps  and  delta/(1-delta) = m <= min(eps, 1/4).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    m = min(eps, 0.25)
    return m / (1.0 + m)


def upsilons(V: StorageCandidate, alpha: Callable, delta: float, x):
    """(Upsilon_1, Upsilon_2) = ((1-delta)/4 V(x), delta min(1, alpha(x)))."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u1 = (1.0 - delta) / 4.0 * V.value(x)
    u2 = delta * min(1.0, float(alpha(x)))
    return u1, u2


# ---------------------------------------------------------------------------
# Bump kernel and the radius profile
# ---------------------------------------------------------------------------

def kernel_cdf(s: np.ndarray) -> np.ndarray:
    """The closed-form C-infinity CDF 1/(1 + exp(-2s/(1-s^2))) saturating at |s| = 1.

    Its derivative is the mollification kernel: symmetric, unit mass, compactly
    supported on [-1, 1], with all derivatives vanishing at the support ends.
    """
    s = np.asarray(s, dtype=float)
    out = np.where(s >= 1.0, 1.0, 0.0)
    inside = np.abs(s) < 1.0
    si = s[inside]
    with np.errstate(over="ignore"):
        out[inside] = 1.0 / (1.0 + np.exp(-2.0 * si / (1.0 - si * si)))
    return out


def kernel(s: np.ndarray) -> np.ndarray:
    """k = d/ds kernel_cdf: sigma (1-sigma) 2(1+s^2)/(1-s^2)^2 inside |s| < 1."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    with np.errstate(over="ignore"):
        sg = 1.0 / (1.0 + np.exp(-2.0 * si / (1.0 - si * si)))
    out[inside] = sg * (1.0 - sg) * 2.0 * (1.0 + si * si) / (1.0 - si * si) ** 2
    return out


# First-moment antiderivative I1(s) = int_{-1}^s t k(t) dt, tabulated once and
# read back with cubic Hermite interpolation (the exact derivative s k(s) is
# available), giving ~1e-14 accuracy.
_I1_GRID = np.linspace(-1.0, 1.0, 8193)


@functools.cache
def _build_i1_table() -> np.ndarray:
    return _cumulative_simpson(_I1_GRID * kernel(_I1_GRID), _I1_GRID)


_I1_STEP = _I1_GRID[1] - _I1_GRID[0]
_I1_SLOPES = _I1_GRID * kernel(_I1_GRID) * _I1_STEP   # Hermite end slopes per unit cell


def kernel_moment(s: np.ndarray) -> np.ndarray:
    """I1(s) above; clamps to the (zero) saturated values outside [-1, 1]."""
    s = np.asarray(s, dtype=float)
    sc = np.clip(s, -1.0, 1.0)
    pos = (sc + 1.0) / _I1_STEP
    idx = np.clip(pos.astype(int), 0, _I1_GRID.size - 2)
    t = pos - idx
    y0 = _build_i1_table()[idx]
    y1 = _build_i1_table()[idx + 1]
    d0 = _I1_SLOPES[idx]
    d1 = _I1_SLOPES[idx + 1]
    h00 = (1 + 2 * t) * (1 - t) ** 2
    h10 = t * (1 - t) ** 2
    h01 = t * t * (3 - 2 * t)
    h11 = t * t * (t - 1)
    return h00 * y0 + h10 * d0 + h01 * y1 + h11 * d1


@dataclass(frozen=True)
class GeometricRadius:
    """Smooth radius profile matched to a mirrored geometric node layout.

    r(t) = scale * (delta + slope * sqrt(t^2 + delta^2)) tracks a local node
    spacing of about ``delta`` near 0 and ``slope * |t|`` away from it, and is
    real-analytic, so the mollified function stays smooth.  ``slope = 0`` and
    ``scale = 1`` give the constant radius ``delta``, exactly.
    """

    delta: float
    slope: float
    scale: float

    def value(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.scale * (self.delta + self.slope * np.sqrt(t * t + self.delta ** 2))

    def deriv(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.scale * self.slope * t / np.sqrt(t * t + self.delta ** 2)


# ---------------------------------------------------------------------------
# Mollified function (normalized moving-weight kernel sum over a tensor grid)
# ---------------------------------------------------------------------------

class MollifiedFunction:
    """Exact convolution of the multilinear interpolant of grid samples with the kernel.

    W(x) = integral of hat-interpolant(y) * prod_i (1/r(x_i)) k((x_i - y_i)/r(x_i)) dy.
    The samples lie on the tensor grid of one sample ``axis`` in each of the n
    coordinates (``values`` has shape (axis.size,) * n), and one ``radius``
    profile r serves every coordinate.  The hat basis separates per axis, and
    each 1-D factor has the closed form (cell by cell) in the kernel CDF and its
    first moment, so both weights and their derivatives (chain rule through the
    radius profile included) are analytic.  Exact on constants and on linear
    data, gradients included; smooth for any positive smooth radius profile.
    The sample values are contracted with the weights one axis at a time.
    ``evaluate`` (the exported W) and ``evaluate_grid`` (the certified one) compute
    the same sums in different orders, so they agree up to rounding, not bit for bit.
    """

    def __init__(self, axis: np.ndarray, values: np.ndarray, radius: GeometricRadius):
        self.axis = np.asarray(axis, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.ndim = self.values.ndim
        if self.values.shape != (self.axis.size,) * self.ndim:
            raise ValueError("values shape does not match the axis")
        self.radius = radius

    # -- 1-D weight construction -------------------------------------------
    def _axis_weights(self, q: np.ndarray):
        """Node indices, hat-convolution weights, their x-derivatives, and each row's
        window width (the columns past it are padding with zero weight) at coordinates q.

        For every grid cell [y_c, y_{c+1}] met by the kernel support, with
        A_c = int_cell k_r(x - y) dy and B_c = int_cell s k_r(x - y) dy, the
        interpolant contributes ((y_{c+1}-x) A + r B)/h to the left node and
        ((x-y_c) A - r B)/h to the right one.
        """
        nodes = self.axis
        with np.errstate(over="ignore", invalid="ignore"):     # a far q: r is inf or nan
            r, dr = self.radius.value(q), self.radius.deriv(q)
        if np.any(q - r < nodes[0]) or np.any(q + r > nodes[-1]):
            raise BoundaryRadiusError("kernel support leaves the sampled hull; "
                                      "extend the sample grid or shrink the radius")
        if not np.all(r > 0):                                  # also nan
            raise BoundaryRadiusError("nonpositive radius")
        lo = np.searchsorted(nodes, q - r, side="right") - 1   # left node of first cell
        hi = np.searchsorted(nodes, q + r, side="left") + 1    # one past the last node
        lo = np.maximum(lo, 0)
        hi = np.minimum(hi, nodes.size)
        M = int(np.max(hi - lo))                               # nodes per window
        idx = lo[:, None] + np.arange(M)[None, :]
        node_mask = idx < hi[:, None]
        idx = np.minimum(idx, nodes.size - 1)
        y = nodes[idx]                                         # (Q, M)
        rq = r[:, None]
        drq = dr[:, None]
        s = (q[:, None] - y) / rq
        ds = (1.0 - s * drq) / rq                              # dS/dx per node edge
        I0 = kernel_cdf(s)
        I1 = kernel_moment(s)
        k = kernel(s)
        dI0 = k * ds
        dI1 = s * k * ds
        # cell c spans window nodes c..c+1 (c = 0..M-2); masked-out cells drop
        cell_mask = node_mask[:, 1:]
        h = np.where(cell_mask, y[:, 1:] - y[:, :-1], 1.0)
        A = (I0[:, :-1] - I0[:, 1:]) * cell_mask
        B = (I1[:, :-1] - I1[:, 1:]) * cell_mask
        dA = (dI0[:, :-1] - dI0[:, 1:]) * cell_mask
        dB = (dI1[:, :-1] - dI1[:, 1:]) * cell_mask
        xl = q[:, None] - y[:, :-1]                            # x - y_c
        xr = y[:, 1:] - q[:, None]                             # y_{c+1} - x
        CL = (xr * A + rq * B) / h
        CR = (xl * A - rq * B) / h
        dCL = (-A + xr * dA + drq * B + rq * dB) / h
        dCR = (A + xl * dA - drq * B - rq * dB) / h
        w = np.zeros_like(y)
        dw = np.zeros_like(y)
        w[:, :-1] += CL
        w[:, 1:] += CR
        dw[:, :-1] += dCL
        dw[:, 1:] += dCR
        return idx, w, dw, hi - lo

    def evaluate(self, X: np.ndarray):
        """Values and gradients at query points X of shape (Q, ndim), in chunks of rows.

        Weights are computed in one pass per chunk, once per distinct coordinate (bit
        pattern) on any axis, and rows are contracted in groups of window widths rounded
        up to a power of two, each trimmed to its widest row.  Windows are summed in order,
        and trailing zero weights leave such a sum as it is, so a point's W and grad W do
        not depend on its batch."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if bad.size:
            raise ValueError(f"query row {bad[0]} ({X[bad[0]].tolist()}) is not finite")
        Q, n = X.shape[0], self.ndim
        vals = np.empty(Q)
        grads = np.empty((Q, n))
        for start in range(0, Q, _EVAL_CHUNK):
            chunk = np.ascontiguousarray(X[start:start + _EVAL_CHUNK])
            bits, inv = np.unique(chunk.view(np.uint64), return_inverse=True)
            inv = inv.reshape(chunk.shape)      # column i: row -> its coordinate on axis i
            idx, w, dw, width = self._axis_weights(bits.view(float))
            widths = width[inv]
            # a row's group: its widths' log2 ceilings, one base-64 digit per axis
            of_row = np.unique(np.ceil(np.log2(widths)).astype(np.int64) @ 64 ** np.arange(n),
                               return_inverse=True)[1]
            N, dN = np.empty(len(widths)), np.empty((n, len(widths)))
            for g in range(of_row.max() + 1):
                rows = np.flatnonzero(of_row == g)
                ms = widths[rows].max(axis=0)
                ix, a, da = ([x[inv[rows, i], :m] for i, m in enumerate(ms)] for x in (idx, w, dw))
                # gather each row's window block (rows, m_1, ..., m_n)
                blk = self.values[tuple(
                    j.reshape((-1,) + (1,) * i + j.shape[1:] + (1,) * (n - 1 - i))
                    for i, j in enumerate(ix))]
                partial = _chain(blk, a, _window_step)
                N[rows], dN[:, rows] = partial[-1], _gradient_numerators(
                    partial, a, da, _window_step)
            D, dD = (_ordered_rowsum(a)[inv].T for a in (w, dw))
            sl = slice(start, start + len(chunk))
            vals[sl] = _values(N, D)
            grads[sl] = _gradients(vals[sl], dN, D, dD)
        return vals, grads

    def evaluate_grid(self, coords: Sequence[np.ndarray]):
        """Values and gradients on the tensor grid of per-axis query coordinates.

        Returns W of shape (Q_1, ..., Q_n) and its gradient (Q_1, ..., Q_n, n)
        at the points (coords[0][j_1], ..., coords[n-1][j_n]).  Each axis's
        weights become one dense (Q_i, nodes) matrix, so the work is n
        contractions of the sample values instead of one window per point.
        """
        W, gradient = self._grid_stages(coords)
        return W, gradient(np.ones(W.shape, dtype=bool)).reshape(W.shape + (W.ndim,))

    def _grid_stages(self, coords: Sequence[np.ndarray]):
        """W on the tensor grid of ``coords``, and a function building grad W at masked
        grid points from the same weights and partial contractions.  Axes whose coordinate
        arrays hold the same bytes share one pair of weight matrices."""
        coords = [np.asarray(q, dtype=float) for q in coords]
        mats = {}
        for q in coords:
            if q.tobytes() not in mats:
                idx, w, dw, _ = self._axis_weights(q)
                flat = (np.arange(q.size)[:, None] * self.axis.size + idx).ravel()
                shape = (q.size, self.axis.size)
                mats[q.tobytes()] = tuple(
                    np.bincount(flat, a.ravel(), shape[0] * shape[1]).reshape(shape)
                    for a in (w, dw))
        A, dA = zip(*(mats[q.tobytes()] for q in coords))
        step = (lambda T, a: np.tensordot(T, a, axes=([0], [1])))
        partial = _chain(self.values, A, step)
        # np.ix_ shapes each axis's row sums to broadcast along that axis
        D = np.ix_(*(a.sum(axis=1) for a in A))
        W = _values(partial[-1], D)

        def gradient(mask):
            """grad W (K, n) at the K grid points where ``mask`` (W's shape) holds: the
            quotient rule is elementwise, so masking its operands first keeps its bits."""
            dN = _gradient_numerators(partial, A, dA, step)
            dD = np.ix_(*(a.sum(axis=1) for a in dA))
            return _gradients(W[mask], [g[mask] for g in dN],
                              *([np.broadcast_to(d, W.shape)[mask] for d in ds] for ds in (D, dD)))
        return W, gradient


def _ordered_rowsum(A: np.ndarray) -> np.ndarray:
    """Row sums of A (Q, M), added column by column (np.sum's pairwise order depends on M)."""
    out = A[:, 0].copy()
    for j in range(1, A.shape[1]):
        out += A[:, j]
    return out


def _window_step(T: np.ndarray, a: np.ndarray) -> np.ndarray:
    """T (Q, M, ...) contracted with the window weights a (Q, M) along M, in order."""
    if T.ndim > 2:      # M is not the innermost axis: einsum adds along it in order
        return np.einsum("qm...,qm->q...", T, a)
    return _ordered_rowsum(T * a)


def _chain(T: np.ndarray, w, step) -> list:
    """T and its partial contractions with w_0, w_1, ... by ``step``; the last is N."""
    partial = [T]
    for a in w:
        partial.append(step(partial[-1], a))
    return partial


def _gradient_numerators(partial: list, w, dw, step) -> list:
    """dN_i: ``_chain``'s contraction with dw_i in place of w_i, from its partials."""
    dN = []
    for i, da in enumerate(dw):
        t = step(partial[i], da)
        for a in w[i + 1:]:
            t = step(t, a)
        dN.append(t)
    return dN


def _values(N, D):
    """W = N / prod D_i."""
    if any(np.any(d <= 0) for d in D):
        raise BoundaryRadiusError("empty kernel support at a query point")
    return N / math.prod(D)


def _gradients(W, dN, D, dD):
    """The quotient rule dW_i = dN_i / prod D - W dD_i / D_i, stacked on a last axis."""
    Dprod = math.prod(D)
    return np.stack([g / Dprod - W * dd / d for g, dd, d in zip(dN, dD, D)], axis=-1)


# ---------------------------------------------------------------------------
# Grid synthesis
# ---------------------------------------------------------------------------

def mirrored_geometric_axis(delta_min: float, ratio: float, extent: float) -> np.ndarray:
    """0 plus +/- delta_min * ratio^k, extended until the last node reaches extent."""
    vals = [delta_min]
    while vals[-1] < extent:
        vals.append(vals[-1] * ratio)
    pos = np.array(vals)
    return np.concatenate([-pos[::-1], [0.0], pos])


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CertifiedSmooth:
    W: StorageCandidate = field(metadata={"report": False})   # mollified / (1 - delta)
    verdict: str                    # 'pass' | 'fail'
    epsilon: float
    delta: float
    gamma_eff: float                # (1+eps) gamma + eps, the certified u-coefficient
    max_relative_approx_error: float
    max_eq20_residual: float
    radius_schedule: list
    grids: dict
    worst_point: Optional[list] = None
    failure_reason: Optional[str] = None
    mollified: Optional[MollifiedFunction] = field(default=None, metadata={"report": False})

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def evaluate(self, X: np.ndarray):
        """W and its gradient at points X (Q, n) away from the origin, in one pass."""
        vals, grads = self.mollified.evaluate(X)
        scale = 1.0 / (1.0 - self.delta)
        return scale * vals, scale * grads


def smooth_witness(sys: System, V: StorageCandidate, gamma: float, gamma_prime: float,
                   r_min: float = 0.05, r_max: float = 2.0,
                   max_refinements: int = 6) -> CertifiedSmooth:
    """Mollify a witness and certify the relaxed-gain bounds on the annulus.

    Invalid inputs raise ValueError before any work.  The hypothesis, that V
    witnesses ``gamma`` on the box of half-width ``r_max`` outside radius
    ``r_min`` (the annulus stands in for the punctured space), is checked
    next.  The radius schedule
    starts at four local grid spacings and halves once; reaching one grid
    spacing counts as failure at that grid, upon which the sample grid is
    refined (geometric floor, first ``r_min / 40``, divided by 8) and the
    schedule rerun, up to ``max_refinements``.  The returned report carries the
    worst point on failure instead of raising.
    """
    if not isinstance(sys, AffineSystem):
        raise ValueError("smoothing applies to (power-)affine systems")
    if sys.p > 2:
        raise ValueError("smoothing requires a power-affine system with p <= 2")
    if not 0 < gamma < gamma_prime:
        raise ValueError("need 0 < gamma < gamma_prime")
    if not (0 < r_min < r_max and max_refinements >= 0):
        raise ValueError("need 0 < r_min < r_max and max_refinements >= 0")
    eps = ((gamma + gamma_prime) / 2.0 - gamma) / (gamma + 1.0)
    dlt = choose_delta(eps)
    gamma_eff = (1.0 + eps) * gamma + eps

    region = Region(box=((-r_max, r_max),) * sys.n, points_per_dim=_HYPOTHESIS_PPD,
                    exclude_radius=r_min)
    base = check_witness(sys, V, gamma, region)
    if not base.passed:
        raise ValueError(
            f"hypothesis fails: {V.name!r} does not witness gain {gamma:g} "
            f"on the region (max residual {base.max_residual:.3e})")

    delta_min = r_min / 40.0
    slope = _GRID_RATIO - 1.0
    schedule_trace = []

    for refinement in range(max_refinements + 1):
        # the sample axis, with enough padding for the largest scheduled radius
        pad_radius = 4.0 * (delta_min + slope * math.sqrt(r_max ** 2 + delta_min ** 2)
                            + delta_min)
        axis = mirrored_geometric_axis(delta_min, _GRID_RATIO, (r_max + pad_radius) * 1.05)
        values = V.value_batch(tensor_grid([axis] * sys.n)).reshape((axis.size,) * sys.n)

        coords = _with_midpoints(axis, r_max)
        keep, Pc = annulus_grid([coords] * sys.n, r_min, r_max)
        Vc = V.value_batch(Pc)
        grids = {"sample_axis_nodes": int(axis.size), "certification_points": int(Pc.shape[0])}

        for scale in (4.0, 2.0):
            moll = MollifiedFunction(axis, values, GeometricRadius(delta_min, slope, scale))
            failed, worst, rel, eq20 = _certify(sys, moll, coords, keep, Pc, Vc, dlt, gamma_eff)
            schedule_trace.append({"refinement": refinement, "delta_min": delta_min, "scale": scale,
                                   "outcome": f"fail ({failed})" if failed else "pass"})
            if not failed:
                break
        if not failed:
            break
        delta_min /= 8.0

    return CertifiedSmooth(
        W=_wrap_candidate(moll, dlt, V.name), verdict="fail" if failed else "pass",
        epsilon=eps, delta=dlt, gamma_eff=gamma_eff, max_relative_approx_error=rel,
        max_eq20_residual=eq20, radius_schedule=schedule_trace, grids=grids,
        worst_point=[float(v) for v in worst] if failed else None, failure_reason=failed,
        mollified=moll)


def _with_midpoints(axis: np.ndarray, r_max: float) -> np.ndarray:
    """The nodes and midpoints c of ``axis`` with |c| <= r_max, in order."""
    coords = np.sort(np.concatenate([axis, 0.5 * (axis[:-1] + axis[1:])]))
    return coords[np.abs(coords) <= r_max]


def dump_points(n: int, r_min: float, r_max: float) -> np.ndarray:
    """The annulus points at which ``smooth`` dumps V and W: an axis from r_min/4, ratio 1.25."""
    return annulus_grid([mirrored_geometric_axis(r_min / 4, 1.25, r_max)] * n, r_min, r_max)[1]


def _certify(sys: AffineSystem, moll: MollifiedFunction, coords: np.ndarray,
             keep: np.ndarray, Pc: np.ndarray, Vc: np.ndarray, dlt: float,
             gamma_eff: float):
    """Check the Upsilon_1 bound, the relative bound (19), and the residual (20).

    W is evaluated on the tensor grid of ``coords`` and masked by ``keep`` to
    the certification points ``Pc``; grad W is built only once W passes both
    value bounds, and (20) is a sweep's verdict at ``gamma_eff`` with tolerance 0.
    Returns the bound that failed (None if all hold), the worst point of the last
    bound checked, and the max relative error and residual (NaN if not reached).
    """
    Wg, gradient = moll._grid_stages([coords] * sys.n)
    Wh = Wg.ravel()[keep]
    ups1 = (1.0 - dlt) / 4.0 * Vc
    approx_gap = np.abs(Vc - Wh) - ups1
    k = int(np.argmax(approx_gap))
    if approx_gap[k] > 0:
        return "approximation bound", Pc[k], math.nan, math.nan

    Wv = Wh / (1.0 - dlt)
    rel = np.abs(Vc - Wv) / Vc
    rk = int(np.argmax(rel))
    if rel[rk] > 0.5:
        return "relative bound", Pc[rk], float(rel[rk]), math.nan

    Z = gradient(keep.reshape(Wg.shape)) / (1.0 - dlt)
    gain = Sweep(sys, Pc, Z, Z).check(gamma_eff, 0.0)
    return (None if gain.passed else "gain residual", gain.worst_x, float(rel[rk]),
            gain.max_residual)


def _wrap_candidate(moll: MollifiedFunction, dlt: float, base_name: str) -> StorageCandidate:
    scale = 1.0 / (1.0 - dlt)

    def value(X):
        X = np.asarray(X, dtype=float)
        Xb = X.reshape(-1, X.shape[-1])
        out = np.zeros(Xb.shape[0])        # extension by fiat at the origin
        away = np.any(Xb != 0.0, axis=1)
        if np.any(away):
            out[away] = scale * moll.evaluate(Xb[away])[0]
        return out.reshape(X.shape[:-1])

    def subdiff_batch(X):
        g = scale * moll.evaluate(X)[1]
        return g, g

    return StorageCandidate(f"smoothed({base_name})", value, "smooth", moll.ndim, subdiff_batch)
