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
from typing import Optional, Sequence

import numpy as np

from .errors import HjikitError
from .hji import Region, Sweep, _cumulative_simpson, annulus_grid, check_witness, tensor_grid
from .hji import compactify, decompactify      # the input map, also exported from here
from .storage import StorageCandidate
from .systems import AffineSystem, System


class BoundaryRadiusError(HjikitError):
    """The mollification radius reaches outside the sampled hull at some query."""


_EVAL_CHUNK = 4096      # query rows per gathered window block in MollifiedFunction.evaluate
_HYPOTHESIS_PPD = 41    # grid points per axis of smooth_witness's hypothesis check
_GRID_RATIO = 1.1       # node ratio of smooth_witness's mirrored geometric sample axis


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


def choose_delta(eps: float) -> float:
    """delta = m/(1+m) with m = min(eps, 1/4); satisfies both bookkeeping bounds.

    1/(1-delta) = 1 + m <= 1 + eps  and  delta/(1-delta) = m <= min(eps, 1/4).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    m = min(eps, 0.25)
    return m / (1.0 + m)


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
    radius profile included) are analytic.  Normalized by their row sums, once per
    coordinate, the weights w_i give W = sum v prod_i w_i and d_i W = sum v dw_i
    prod_{j != i} w_j as contractions of the sample values, one axis at a time.  Exact on
    constants and linear data, gradients included; smooth for any positive smooth radius.
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
        """Node indices, normalized hat-convolution weights (each row sums to 1), each row's
        window width (the columns past it are padding with zero weight), and a function
        building the weights' x-derivatives (each row sums to 0) at coordinates q.

        For every grid cell [y_c, y_{c+1}] met by the kernel support, with
        A_c = int_cell k_r(x - y) dy and B_c = int_cell s k_r(x - y) dy, the
        interpolant contributes ((y_{c+1}-x) A + r B)/h to the left node and
        ((x-y_c) A - r B)/h to the right one.  These weights w with row sums D give
        w/D, and their derivatives dw with row sums dD give (dw - (w/D) dD)/D.
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
        s = (q[:, None] - y) / rq
        # cell c spans window nodes c..c+1 (c = 0..M-2); masked-out cells drop
        cell_mask = node_mask[:, 1:]
        h = np.where(cell_mask, y[:, 1:] - y[:, :-1], 1.0)
        xl = q[:, None] - y[:, :-1]                            # x - y_c
        xr = y[:, 1:] - q[:, None]                             # y_{c+1} - x

        def cells(I0, I1):          # A and B per cell from their antiderivatives at the nodes
            return (I0[:, :-1] - I0[:, 1:]) * cell_mask, (I1[:, :-1] - I1[:, 1:]) * cell_mask

        def to_nodes(left, right):
            out = np.zeros_like(y)
            out[:, :-1] += left
            out[:, 1:] += right
            return out

        A, B = cells(kernel_cdf(s), kernel_moment(s))
        w = to_nodes((xr * A + rq * B) / h, (xl * A - rq * B) / h)
        D = _ordered_rowsum(w)[:, None]
        if np.any(D <= 0):
            raise BoundaryRadiusError("empty kernel support at a query point")
        w /= D

        def derivatives():
            drq = dr[:, None]
            k = kernel(s)
            ds = (1.0 - s * drq) / rq                          # dS/dx per node edge
            dA, dB = cells(k * ds, s * k * ds)
            dw = to_nodes((-A + xr * dA + drq * B + rq * dB) / h,
                          (A + xl * dA - drq * B - rq * dB) / h)
            return (dw - w * _ordered_rowsum(dw)[:, None]) / D
        return idx, w, hi - lo, derivatives

    def evaluate(self, X: np.ndarray):
        """Values and gradients at query points X of shape (Q, ndim), in chunks of rows.

        Weights are computed in one pass per chunk, once per distinct coordinate (bit
        pattern) on any axis, and rows are contracted in groups of window widths rounded
        up to a power of two, each trimmed to its widest row.  Windows are summed in order,
        and trailing zero weights leave such a sum as it is, so a point's W and grad W do
        not depend on its batch."""
        return self._evaluate(X, True)

    def _evaluate(self, X: np.ndarray, gradient: bool):
        """``evaluate``'s W, and grad W if ``gradient`` (else None: no derivative weights)."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if bad.size:
            raise ValueError(f"query row {bad[0]} ({X[bad[0]].tolist()}) is not finite")
        Q, n = X.shape[0], self.ndim
        vals = np.empty(Q)
        grads = np.empty((Q, n)) if gradient else None
        for start in range(0, Q, _EVAL_CHUNK):
            chunk = np.ascontiguousarray(X[start:start + _EVAL_CHUNK])
            bits, inv = np.unique(chunk.view(np.uint64), return_inverse=True)
            inv = inv.reshape(chunk.shape)      # column i: row -> its coordinate on axis i
            idx, w, width, derivatives = self._axis_weights(bits.view(float))
            dw = derivatives() if gradient else None
            widths = width[inv]
            # a row's group: its widths' log2 ceilings, one base-64 digit per axis
            of_row = np.unique(np.ceil(np.log2(widths)).astype(np.int64) @ 64 ** np.arange(n),
                               return_inverse=True)[1]
            for g in range(of_row.max() + 1):
                rows = np.flatnonzero(of_row == g)
                ms = widths[rows].max(axis=0)
                ix, a = ([x[inv[rows, i], :m] for i, m in enumerate(ms)] for x in (idx, w))
                # gather each row's window block (rows, m_1, ..., m_n)
                blk = self.values[tuple(
                    j.reshape((-1,) + (1,) * i + j.shape[1:] + (1,) * (n - 1 - i))
                    for i, j in enumerate(ix))]
                partial = _chain(blk, a, _window_step)
                vals[start + rows] = partial[-1]
                if gradient:
                    da = [dw[inv[rows, i], :m] for i, m in enumerate(ms)]
                    grads[start + rows] = np.transpose(
                        _gradient_numerators(partial, a, da, _window_step))
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
        arrays hold the same bytes share one weight matrix, and one derivative matrix,
        which only that function builds."""
        coords = [np.asarray(q, dtype=float) for q in coords]
        mats = {}
        for q in coords:
            if q.tobytes() not in mats:
                idx, w, _, derivatives = self._axis_weights(q)
                dense = functools.partial(_dense, idx, self.axis.size)
                mats[q.tobytes()] = dense(w), dense, derivatives
        A = [mats[q.tobytes()][0] for q in coords]
        step = (lambda T, a: np.tensordot(T, a, axes=([0], [1])))
        partial = _chain(self.values, A, step)

        def gradient(mask):
            """grad W (K, n) at the K grid points where ``mask`` (W's shape) holds."""
            dA = {key: to_dense(derivatives()) for key, (_, to_dense, derivatives) in mats.items()}
            dW = _gradient_numerators(partial, A, [dA[q.tobytes()] for q in coords], step)
            return np.stack([g[mask] for g in dW], axis=-1)
        return partial[-1], gradient


def _dense(idx: np.ndarray, nodes: int, a: np.ndarray) -> np.ndarray:
    """Window weights a (Q, M) at node indices idx as a dense (Q, nodes) matrix."""
    flat = (np.arange(len(a))[:, None] * nodes + idx).ravel()
    return np.bincount(flat, a.ravel(), len(a) * nodes).reshape(len(a), nodes)


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
    """T and its partial contractions with w_0, w_1, ... by ``step``; the last is W."""
    partial = [T]
    for a in w:
        partial.append(step(partial[-1], a))
    return partial


def _gradient_numerators(partial: list, w, dw, step) -> list:
    """d_i W: ``_chain``'s contraction with dw_i in place of w_i, from its partials."""
    dW = []
    for i, da in enumerate(dw):
        t = step(partial[i], da)
        for a in w[i + 1:]:
            t = step(t, a)
        dW.append(t)
    return dW


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

    def dump(self, r_min: float, r_max: float):
        """The annulus points of the tensor grid of ``dump_axis``, where ``smooth`` dumps V and W,
        and W and grad W there by the grid path, masked and divided by 1 - delta as certified."""
        axes = [dump_axis(r_min, r_max)] * self.mollified.ndim
        keep, P = annulus_grid(axes, r_min, r_max)
        W, gradient = self.mollified._grid_stages(axes)
        mask = keep.reshape(W.shape)
        return P, W[mask] / (1.0 - self.delta), gradient(mask) / (1.0 - self.delta)


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


def dump_axis(r_min: float, r_max: float) -> np.ndarray:
    """The axis of the grid whose annulus points ``smooth`` dumps V and W at: from r_min/4,
    ratio 1.25, cut to |c| <= r_max (a coordinate past r_max has no annulus point)."""
    axis = mirrored_geometric_axis(r_min / 4, 1.25, r_max)
    return axis[np.abs(axis) <= r_max]


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
            out[away] = scale * moll._evaluate(Xb[away], False)[0]
        return out.reshape(X.shape[:-1])

    def subdiff_batch(X):
        g = scale * moll.evaluate(X)[1]
        return g, g

    return StorageCandidate(f"smoothed({base_name})", value, "smooth", moll.ndim, subdiff_batch)
