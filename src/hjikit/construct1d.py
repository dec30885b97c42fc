"""Constructive upgrade of a locally Lipschitz 1-D witness to a C1-away-from-zero one.

For a scalar input-affine system with stabilizing drift (g0 < 0 on x > 0), the
admissible slopes at x form the sublevel set of the quadratic

    Delta(p) = a p^2 + b p + c,   a = sum_i g_i(x)^2,  b = 4 gamma g0(x),  c = 4 gamma x^2,

and ``p in F(x) <=> Delta(p) <= 0``.  The selector takes the envelope-clamped
larger root, and W(x) = integral_0^x p(s) ds inherits the witness property;
``construct_w`` reports whether W >= V on its grid.  The mirrored half-line uses
the sign-flipped quadratic, and one array pass covers both (see ``_selector``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import HjikitError
from .expr import _row_sum
from .hji import Sweep, _cumulative_simpson
from .storage import StorageCandidate
from .systems import AffineSystem


class DriftSignError(HjikitError):
    """The drift does not have the required sign (g0(x) < 0 for x > 0, > 0 for x < 0)."""


class InfeasibleAtError(HjikitError):
    """Delta has no real root at x: no admissible slope exists, so no gain-gamma witness."""

    def __init__(self, x: float, disc: float):
        super().__init__(f"no admissible slope at x={x:g} (discriminant {disc:.3e} < 0)")
        self.x = x
        self.disc = disc


class WitnessHypothesisError(HjikitError):
    """The supplied V fails the witness check on the construction grid."""


_DISC_CLAMP = 1e-10     # discriminants in [-_DISC_CLAMP, 0) count as a double root
_H_FLOOR = 1e-9
_DELTA_TOL = 1e-9       # construct_w's bound on Delta(p) of the selector
_W_OVER_V_TOL = 1e-7    # construct_w's slack in W >= V


@dataclass(frozen=True)
class QuadCoeffs:
    a: float
    b: float
    c: float

    @staticmethod
    def at(sys: AffineSystem, gamma: float, x, sign=1.0) -> "QuadCoeffs":
        """Delta's coefficients with b = sign * 4 gamma g0(x): floats at a scalar x,
        arrays at an array of x (``sign`` a float, or one per x)."""
        xs = np.asarray(x, dtype=float)
        X = xs.reshape(-1, 1)
        fields = sys.input_fields(X)                      # (m, Q, 1)
        a = _row_sum(fields[..., 0].T ** 2)
        b = sign * 4.0 * gamma * sys.drift(X)[:, 0]
        c = 4.0 * gamma * X[:, 0] * X[:, 0]
        if xs.ndim == 0:
            return QuadCoeffs(float(a[0]), float(b[0]), float(c[0]))
        return QuadCoeffs(a, b, c)


def delta(q: QuadCoeffs, p: float) -> float:
    """The admissibility quadratic a p^2 + b p + c."""
    return q.a * p * p + q.b * p + q.c


def p_of_x(sys: AffineSystem, gamma: float, h, x: float) -> float:
    """The slope selector: h(x) when a = 0, else min(h(x), larger root of Delta).

    ``h`` maps an array of abscissae to an array of positive slope bounds.
    Raises :class:`DriftSignError` if g0(x) >= 0 and :class:`InfeasibleAtError`
    if the discriminant is below -1e-10 (the quadratic has no real root, so
    the gain-gamma hypothesis fails at x).  Discriminants in [-1e-10, 0) are
    clamped to zero to absorb the double-root case against rounding.
    """
    if x <= 0:
        raise ValueError("the selector is defined for x > 0")
    return float(_selector(sys, gamma, h, np.array([float(x)]))[0][0])


def _selector(sys: AffineSystem, gamma: float, h, x: np.ndarray) -> tuple:
    """The selector at nonzero abscissae x: p(x) of :func:`p_of_x` for x > 0;
    for x < 0 the slope q <= 0 with q*(g0 + sum u_i g_i) <= gamma|u|^2 - x^2,
    whose |q| solves the same quadratic with b' = -4 gamma g0(x) (g0 > 0 there).
    Returned with Delta at |p|, which the contract bounds.

    h is read once, at |x|.  The first x, in array order, where g0 has the wrong
    sign, Delta has no real root or h is not positive raises."""
    sign = np.sign(x)
    q = QuadCoeffs.at(sys, gamma, x, sign)
    disc = q.b * q.b - 4.0 * q.a * q.c
    hv = np.broadcast_to(np.asarray(h(np.abs(x)), dtype=float), x.shape)
    # where a = 0, disc = b^2 and the root is +inf: those x take h(|x|)
    bad = np.flatnonzero((q.b >= 0) | (disc < -_DISC_CLAMP) | (hv <= 0))
    if bad.size:
        k = int(bad[0])
        xk = float(x[k])
        if q.b[k] >= 0:
            raise DriftSignError(
                f"g0({xk:g}) = {float(sign[k] * q.b[k] / (4 * gamma)):g} must be "
                + ("negative for x > 0" if xk > 0 else "positive for x < 0"))
        if disc[k] < -_DISC_CLAMP:
            raise InfeasibleAtError(xk, float(disc[k]))
        raise ValueError(f"envelope must be positive, got h({abs(xk):g}) = {hv[k]:g}")
    with np.errstate(divide="ignore", invalid="ignore"):
        root = (-q.b + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * q.a)
    slope = np.where(root < hv, root, hv)
    return sign * slope, delta(q, slope)


def h_from_v(V: StorageCandidate, grid: Sequence[float], window: Optional[float] = None,
             margin: float = 0.1):
    """Envelope from windowed difference quotients of V, as a map of arrays of |x|.

    h(x) = 2 (1 + margin) * max adjacent difference quotient of V over 17
    samples of [x - window, x + window] and of its mirror [-x - window, -x + window],
    linearly interpolated between grid points and floored at a tiny positive
    constant so the envelope stays positive where V is locally constant.
    ``margin`` must exceed -1: at -1 only the floor is left.
    """
    if not margin > -1:
        raise ValueError(f"margin must be > -1, got {margin!r}")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be increasing positive abscissae")
    if window is None:
        window = 0.5 * float(np.min(np.diff(grid)))
    if window <= 0:
        raise ValueError("degenerate window")
    S = np.linspace(grid - window, grid + window, 17, axis=1)   # one window per row
    both = np.stack([S, -S])                                     # and its mirror
    vals = V.value_batch(both.reshape(-1, 1)).reshape(both.shape)
    quot = np.abs(np.diff(vals, axis=2)) / np.diff(S, axis=1)
    hv = np.maximum(2.0 * (1.0 + margin) * np.max(quot, axis=(0, 2)), _H_FLOOR)
    return lambda x: np.interp(x, grid, hv)


@dataclass(frozen=True, eq=False)
class ConstructedW:
    """The selector values, their cumulative quadrature on a mirrored grid, and the
    contract's outcomes.

    ``grid`` holds the positive abscissae; the negative half-line mirrors them.
    ``p_values``/``w_values`` belong to the positive side and
    ``q_values``/``w_neg_values`` to the mirrored one (W > 0 there as well).
    ``max_delta`` is the largest Delta(p) of the selector on both half-lines;
    ``w_dominates_v`` says whether W >= V - 1e-7 at every point of both, and
    ``w_strictly_increasing`` whether W rises strictly from W(0) = 0 along each.
    """

    grid: np.ndarray
    p_values: np.ndarray
    w_values: np.ndarray
    q_values: np.ndarray
    w_neg_values: np.ndarray
    gamma: float
    max_delta: float
    w_dominates_v: bool
    w_strictly_increasing: bool

    def w_at(self, x) -> np.ndarray:
        """W by interpolation (W(0) = 0, linear beyond the grid ends)."""
        x = np.asarray(x, dtype=float)
        xs = np.concatenate([[0.0], self.grid])
        wp = np.concatenate([[0.0], self.w_values])
        wn = np.concatenate([[0.0], self.w_neg_values])
        pos = np.interp(np.abs(x), xs, wp)
        neg = np.interp(np.abs(x), xs, wn)
        return np.where(x >= 0, pos, neg)

    def slope_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pos = np.interp(np.abs(x), self.grid, self.p_values)
        neg = -np.interp(np.abs(x), self.grid, -self.q_values)
        return np.where(x >= 0, pos, neg)

    def to_storage(self) -> StorageCandidate:
        """The constructed function as a candidate with slope oracle = the selector.

        Exact at the construction abscissae; in between, value and slope are
        interpolated, so region checks should reuse this grid.
        """
        def value(X):
            X = np.asarray(X, dtype=float)
            return self.w_at(X[..., 0])

        def slopes(X):
            s = self.slope_at(X)
            return s, s

        return StorageCandidate("constructed_w", value, "c1_away_from_origin", 1, slopes)


def construct_w(sys: AffineSystem, gamma: float, V: StorageCandidate,
                grid: Sequence[float], h=None, margin: float = 0.1,
                check_hypothesis: bool = True) -> ConstructedW:
    """Run the construction on a positive grid mirrored to the negative side, in one
    array pass over both half-lines.

    Raised: the witness hypothesis for (sys, V, gamma) on the mirrored grid, the
    drift sign pattern, a nonpositive envelope, and Delta(p(x)) <= 1e-9 at every
    grid point, positive side first (Delta / (4 gamma) is the witness residual of
    W with slope p; a Delta that is not a number violates the bound too).
    Reported on :class:`ConstructedW`: whether W >= V - 1e-7 and whether W is
    strictly increasing in |x|, each on both half-lines.
    """
    if not (isinstance(sys, AffineSystem) and sys.input_affine):
        raise ValueError("the construction applies to input-affine systems (p = 1, signed)")
    if sys.n != 1:
        raise ValueError("the construction applies to 1-D systems")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3 or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be increasing positive abscissae (>= 3 points)")

    if check_hypothesis:      # V witnesses gamma on the mirrored grid (the exact-mode check)
        X = np.concatenate([-grid[::-1], grid])[:, None]
        report = Sweep(sys, X, *V.subdiff_batch(X)).check(gamma)
        if not report.passed:
            raise WitnessHypothesisError(f"V={V.name!r} fails the gain-{gamma:g} witness "
                                         f"check at x={report.worst_x[0]:g}")

    x = np.concatenate([grid, -grid])
    slopes, d = _selector(sys, gamma, h_from_v(V, grid, margin=margin) if h is None else h, x)
    # written as not (Delta <= tol) so that a NaN Delta is a violation
    bad = np.flatnonzero(~(d <= _DELTA_TOL))
    if bad.size:
        xk = x[bad[0]]
        raise HjikitError("selector violates "
                          + ("Delta(p) <= 0" if xk > 0 else "the mirrored quadratic")
                          + f" at x={xk:g}")
    p_vals, q_vals = np.split(slopes, 2)
    # W at x and at -x: the integral of q from 0 to -x is that of -q from 0 to x
    W = np.stack([_cumulative_from_zero(grid, p_vals), _cumulative_from_zero(grid, -q_vals)])
    return ConstructedW(
        grid, p_vals, W[0], q_vals, W[1], gamma, float(np.max(d)),
        w_dominates_v=bool(np.all(W.ravel() >= V.value_batch(x[:, None]) - _W_OVER_V_TOL)),
        w_strictly_increasing=bool(np.all(np.diff(W, axis=1, prepend=0.0) > 0)))


def _cumulative_from_zero(grid: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Cumulative integral of vals over the grid, plus the head piece on [0, grid[0]].

    Composite Simpson over the grid; the head uses a trapezoid against the
    linear extrapolation of the first two selector values clamped at 0.
    """
    p0 = vals[0] - (vals[1] - vals[0]) / (grid[1] - grid[0]) * grid[0]
    p0 = max(0.0, min(float(p0), float(vals[0])))
    head = 0.5 * grid[0] * (p0 + vals[0])
    return head + _cumulative_simpson(vals, grid)
