"""Scalar second implementations the tests hold hjikit's batched paths to, and the proof's
bookkeeping (Theta, Upsilon, the p = 2 check): no verdict of the package reads them."""
import math
import operator
from typing import Callable, Sequence

import numpy as np

from hjikit import AffineSystem, HjikitError, QuadCoeffs, StorageCandidate, SubdiffSet, delta
from hjikit.expr import Expr, Num, Var, _row_sum, fold
from hjikit.hji import _COEFF_ZERO_TOL, _u_grid, tensor_grid
from hjikit.systems import System

_CASE1_EPS = (1.0, 0.5, 0.25, 0.125, 0.0625)   # check_case1_p2's decreasing eps sequence


class EvalError(HjikitError):
    """Raised on domain errors during evaluation (division by zero, sqrt of a negative)."""


def evaluate(e: Expr, x: Sequence[float] = (), u: Sequence[float] = ()) -> float:
    """Evaluate an AST at the point (x, u) in IEEE double precision; raises
    :class:`EvalError` on a domain error: division by zero, sqrt of a negative number,
    and pow or spow of 0 to a negative power or past the float range."""
    def rule(node, *args):
        if isinstance(node, Var):
            return float((x if node.kind == "x" else u)[node.index])
        if isinstance(node, Num):
            return node.value
        try:
            return _EVAL[node.tag](*args)
        except (ArithmeticError, ValueError) as err:
            raise EvalError(f"{node.tag}({', '.join(map(repr, args))}): {err.args[-1]}") from None
    return fold((e,), rule)[e]


def _unit(v: float) -> float:
    """sign(v) as numpy gives it: 0.0 at either zero, nan at nan."""
    return 0.0 if v == 0 else v if math.isnan(v) else math.copysign(1.0, v)


_EVAL = {"neg": operator.neg, "+": operator.add, "-": operator.sub, "*": operator.mul,
         "/": operator.truediv, "abs": abs, "sign": _unit, "sqrt": math.sqrt, "min": min,
         "max": max, "pow": lambda a, p: abs(a) ** p, "spow": lambda a, p: _unit(a) * abs(a) ** p,
         # math.cbrt only exists on 3.11+; copysign keeps the real-root reading
         "cbrt": lambda v: math.copysign(abs(v) ** (1.0 / 3.0), v)}


def finite_vertices(S: SubdiffSet) -> np.ndarray:
    """All vertices of S over the finite interval coordinates, shape (K, n).  Unbounded
    coordinates are pinned at 0; callers must separately enforce that their residual
    coefficients vanish (see :func:`point_residual`)."""
    if S.empty:
        return np.zeros((0, S.dim))
    choices = []
    for lo, hi in S.intervals:
        vals = sorted({v for v in (lo, hi) if not math.isinf(v)})
        choices.append(vals if vals else [0.0])
    return np.array(np.meshgrid(*choices, indexing="ij")).reshape(S.dim, -1).T \
        if S.dim else np.zeros((1, 0))


def _directions(n: int) -> np.ndarray:
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        ang = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rng = np.random.default_rng(0)
    d = rng.standard_normal((4 * n * n, n))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def verify_subgradient(V: StorageCandidate, x, zeta,
                       radii: Sequence[float] = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)) -> bool:
    """One-sided numeric test of the subgradient quotient at x.

    For each radius r the quotient ``[V(x+h) - V(x) - zeta.h]/|h|`` is minimized over
    sampled h with |h| in [r/2, r] (dense directional sampling).  The defining condition
    is a liminf as h -> 0: the running minima must stay above -1e-7 as r shrinks, judged
    by extrapolating the two smallest-radius minima linearly in r to r = 0 (coarse radii
    may legitimately dip negative while the limit is clean, e.g. under one-sided
    curvature or where the quotient diverges only as h -> 0).  Rejection is conclusive
    up to sampling; acceptance is evidence, not proof.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    radii = list(radii)
    if radii != sorted(radii, reverse=True) or min(radii) <= 0:
        raise ValueError("radii must be strictly decreasing and positive")
    dirs = _directions(x.size)
    mags = np.array([0.5, 0.75, 1.0])
    vx = V.value(x)
    minima = []
    for r in radii:
        H = (dirs[:, None, :] * (r * mags)[None, :, None]).reshape(-1, x.size)
        vals = V.value_batch(x[None, :] + H)
        quot = (vals - vx - H @ zeta) / np.linalg.norm(H, axis=1)
        minima.append(float(np.min(quot)))
    if len(minima) == 1:
        return minima[0] >= -1e-7
    r1, r2 = radii[-2], radii[-1]
    m1, m2 = minima[-2], minima[-1]
    intercept = (r1 * m2 - r2 * m1) / (r1 - r2)
    return intercept >= -1e-7


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


def point_residual(sys: System, V: StorageCandidate, gamma: float, x):
    """Worst residual over the subdifferential at one point: (residual, zeta, u).

    Returns +inf with zeta = None when an unbounded subdifferential coordinate
    multiplies a non-vanishing dynamic coefficient, and +inf where the sup at a
    vertex is NaN.  This is the scalar reference for ``hji.Sweep.residuals``.
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
    for zeta in finite_vertices(S):
        if isinstance(sys, AffineSystem):
            res, u = _power_sup(sys, x, zeta, gamma)
        else:
            res, u = general_residual(sys, x, zeta, gamma)
        if math.isnan(res):
            res = math.inf
        if res > best:
            best, best_z, best_u = res, zeta, u
    return best, best_z, best_u


def recheck_violation(sys: System, V: StorageCandidate, gamma: float,
                      x, u) -> float:
    """Re-evaluate a reported violation point independently through the residual."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    zeta = V.gradient(x)
    F = sys.dynamics(x, u)
    return float(np.dot(zeta, F)) - (gamma * float(np.dot(u, u)) - float(np.dot(x, x)))


def f_membership(sys: AffineSystem, gamma: float, x: float, p: float,
                 mode: str = "quadratic", u_points: int = 1001) -> bool:
    """Whether slope p is admissible at x > 0.

    'quadratic' checks Delta(p) <= 0 exactly; 'direct' checks
    p*(g0 + sum u_i g_i) <= gamma|u|^2 - x^2 on a dense u grid (so it can accept
    marginal cases within the grid slack 1e-6).  The two must agree away from the
    boundary Delta(p) = 0.
    """
    if x <= 0:
        raise ValueError("membership is defined for x > 0")
    if p < 0:
        raise ValueError("slopes are nonnegative on the positive half-line")
    q = QuadCoeffs.at(sys, gamma, x)
    if mode == "quadratic":
        return delta(q, p) <= 1e-12
    if mode != "direct":
        raise ValueError("mode must be 'direct' or 'quadratic'")
    xv = np.array([x])
    g0 = float(sys.drift(xv)[0])
    gvals = sys.input_fields(xv)[:, 0] if sys.m else np.zeros(0)
    half = float(2.0 * np.max(np.abs(p * gvals)) / (2 * gamma) + 1.0) if sys.m else 1.0
    U = tensor_grid([np.linspace(-half, half, u_points)] * sys.m)
    lhs = p * (g0 + U @ gvals)
    rhs = gamma * _row_sum(U * U) - x * x
    return bool(np.max(lhs - rhs) <= 1e-6)


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


def upsilons(V: StorageCandidate, alpha: Callable, delta: float, x):
    """(Upsilon_1, Upsilon_2) = ((1-delta)/4 V(x), delta min(1, alpha(x)))."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u1 = (1.0 - delta) / 4.0 * V.value(x)
    u2 = delta * min(1.0, float(alpha(x)))
    return u1, u2


def phi_clip(s, t):
    """sign(s) * max(min((|s| - t)/2, |s|), 0); vanishes for t >= |s|, equals s for t <= -|s|."""
    return np.sign(s) * np.maximum(np.minimum((np.abs(s) - t) / 2.0, np.abs(s)), 0.0)


def psi_blend(a, b):
    """(phi(b - a, b + a - 2) + (b - a)) / 2 for a, b >= 0."""
    return 0.5 * (phi_clip(b - a, b + a - 2.0) + (b - a))


def f_scalar(x, u):
    """(|u| + x) * psi(x, |u|) for x >= 0 and x^2 + |u| * psi(0, |u|) for x < 0."""
    pos = (np.abs(u) + x) * psi_blend(x, np.abs(u))
    neg = x * x + np.abs(u) * psi_blend(0.0, np.abs(u))
    return np.where(x >= 0, pos, neg)
