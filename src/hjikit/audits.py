"""Numeric auditors derived from the nonexistence arguments.

Each audit turns the checkable inequalities of one impossibility argument into
a falsifier for a concrete candidate.  ``violation_found`` always carries a
point where a stated inequality fails beyond tolerance; ``obstruction_verified``
means the argument's derived inequalities hold numerically for this candidate
(packaged with a plain-language annotation of the conclusion), never that a
theorem was proved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .hji import residuals, tensor_grid
from .storage import GradientUndefinedError, StorageCandidate
from .systems import (System, f_scalar, make_sigma1, make_sigma3_scalar, make_sigma_p,
                      phi_clip, psi_blend)

VIOLATION = "violation_found"
OBSTRUCTION = "obstruction_verified"
INCONCLUSIVE = "inconclusive"


@dataclass
class AuditReport:
    kind: str                       # violation_found | obstruction_verified | inconclusive
    claim: str                      # what inequality chain the audit mechanizes
    witness_point: Optional[tuple] = None
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        def conv(v):
            if isinstance(v, np.ndarray):
                return [float(x) for x in np.atleast_1d(v)]
            if isinstance(v, (np.floating, np.integer)):
                return float(v)
            if isinstance(v, (list, tuple)):
                return [conv(x) for x in v]
            if isinstance(v, dict):
                return {k: conv(x) for k, x in v.items()}
            return v
        return {"kind": self.kind, "claim": self.claim,
                "witness_point": conv(self.witness_point),
                "detail": conv(self.detail)}


def _log_axis(lo: float, hi: float, per_decade: int = 12) -> np.ndarray:
    count = max(2, int(math.log10(hi / lo) * per_decade) + 1)
    return np.geomspace(lo, hi, count)


def _scan_grid_2d(extent: float, inner: float = 1e-3) -> np.ndarray:
    """Axis-refined scan points: log-spaced magnitudes in each quadrant plus the axes."""
    mags = _log_axis(inner, extent)
    vals = np.concatenate([-mags[::-1], [0.0], mags])
    P = tensor_grid([vals, vals])
    return P[np.linalg.norm(P, axis=1) > 0]


def _first_violation(sys: System, lo, hi, X: np.ndarray, tol: float, **kwargs):
    """(x, u, residual) at the first row of X whose gain-1 residual exceeds tol, or None."""
    res, _, u = residuals(sys, lo, hi, X, 1.0, **kwargs)
    bad = np.flatnonzero(res > tol)
    if not bad.size:
        return None
    k = bad[0]
    return tuple(X[k].tolist()), tuple(u[k].tolist()), float(res[k])


# ---------------------------------------------------------------------------
# Axis obstruction for the first 2-D system
# ---------------------------------------------------------------------------

_SIGMA1_CLAIM = (
    "any C1-away-from-origin witness of gain 1 for sigma1 satisfies both one-sided "
    "limits W_x1(a,0) -/+ W_x2(a,0) <= 0, hence W_x1(a,0) <= 0 for all a > 0: W is "
    "nonincreasing along the positive x1-axis, so it cannot be proper, and W(0)=0 "
    "would force W(a,0)=0, killing positive definiteness")


def audit_sigma1_axis(W: StorageCandidate, a_samples: Sequence[float] = (0.5, 1.0, 1.5, 2.0),
                      limit_tol: float = 1e-6, scan_tol: float = 1e-6,
                      scan: bool = True, scan_extent: float = 2.0) -> AuditReport:
    """Scan the witness condition, then probe the axis-derivative obstruction.

    The candidate must carry a gradient oracle.  The scan reports the first
    point, in scan order, whose exact residual exceeds ``scan_tol``; points
    without a singleton subdifferential (kinks) are skipped.  One-sided limits
    at x2 -> 0 use gradient samples at x2 = +/-10^-k (k = 3..6) with
    Richardson-style extrapolation; non-monotone sequences yield ``inconclusive``.
    """
    sys = make_sigma1()
    if W.gradient_fn is None:
        raise GradientUndefinedError(f"candidate {W.name!r} has no gradient oracle")

    if scan:
        X = _scan_grid_2d(scan_extent)
        lo, hi = W.subdiff_batch(X)
        smooth = np.all(lo == hi, axis=1)
        hit = _first_violation(sys, lo[smooth], hi[smooth], X[smooth], scan_tol)
        if hit is not None:
            x, u, res = hit
            return AuditReport(VIOLATION, _SIGMA1_CLAIM, witness_point=(x, u),
                               detail={"residual": res})

    hs = np.array([1e-3, 1e-4, 1e-5, 1e-6])
    worst = -math.inf
    for a in a_samples:
        for sign in (1.0, -1.0):
            seq = []
            for h in hs:
                g = W.gradient(np.array([a, sign * h]))
                seq.append(float(g[0] - sign * g[1]))
            lim, monotone = _extrapolate(seq, hs)
            if not monotone:
                return AuditReport(INCONCLUSIVE, _SIGMA1_CLAIM,
                                   detail={"a": a, "side": sign, "sequence": seq})
            worst = max(worst, lim)
            if lim > limit_tol:
                return AuditReport(
                    INCONCLUSIVE, _SIGMA1_CLAIM,
                    detail={"a": a, "side": sign, "limit": lim,
                            "note": "one-sided limit exceeds tolerance but no scan "
                                    "violation was found"})
    return AuditReport(OBSTRUCTION, _SIGMA1_CLAIM,
                       detail={"max_onesided_limit": worst, "a_samples": list(a_samples)})


def _extrapolate(seq, hs):
    """Richardson-style limit from a decreasing-h sequence; flags non-monotone tails."""
    diffs = np.abs(np.diff(seq))
    monotone = bool(np.all(diffs[1:] <= diffs[:-1] * 1.5 + 1e-12))
    # leading error is O(h); eliminate it with the last two samples
    h1, h2 = hs[-2], hs[-1]
    f1, f2 = seq[-2], seq[-1]
    lim = (h1 * f2 - h2 * f1) / (h1 - h2)
    return float(lim), monotone


# ---------------------------------------------------------------------------
# Orbit-curve audits for the cusp system
# ---------------------------------------------------------------------------

def curve_point(a: float, t) -> np.ndarray:
    """gamma(t) = (a t, (a^2 - (a t)^2)^(3/2)), an orbit of the drift reaching (a, 0)."""
    t = np.asarray(t, dtype=float)
    return np.stack([a * t, (a * a - (a * t) ** 2) ** 1.5], axis=-1)


def curve_velocity(a: float, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return np.stack([np.full_like(t, a),
                     -3.0 * a * a * t * np.sqrt(a * a - (a * t) ** 2)], axis=-1)


def curve_speed_factor(a: float, t) -> np.ndarray:
    """beta(t) = (a^2 - (a t)^2)^(3/2) / a, positive for t < 1."""
    t = np.asarray(t, dtype=float)
    return (a * a - (a * t) ** 2) ** 1.5 / a


def drift_field(x) -> np.ndarray:
    """The undriven cusp field g(x) = (x2, -3 x1 x2^(4/3)) (real-root reading)."""
    x = np.asarray(x, dtype=float)
    return np.stack([x[..., 1], -3.0 * x[..., 0] * np.cbrt(x[..., 1]) ** 4], axis=-1)


_CURVE_CLAIM = (
    "for any continuous candidate satisfying zeta.g <= 0 along the cusp drift, the "
    "value along the orbit curve t -> (a t, (a^2-(a t)^2)^(3/2)) is nonincreasing; an "
    "increase falsifies membership in the gain-1 witness class of sigma2")


def audit_curve_monotone(V: StorageCandidate, a: float,
                         t_grid: Sequence[float] = None,
                         tol: float = 1e-9) -> AuditReport:
    """Check V(gamma(t)) for an increase; report the largest rise over the running min."""
    if a <= 0:
        raise ValueError("a must be positive")
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.0, 101)
    t = np.asarray(t_grid, dtype=float)
    if t.size < 2:
        return AuditReport(INCONCLUSIVE, _CURVE_CLAIM,
                           detail={"note": "degenerate t-grid"})
    vals = V.value_batch(curve_point(a, t))
    rises = vals - np.minimum.accumulate(vals)
    k = int(np.argmax(rises))
    if rises[k] > tol:
        return AuditReport(VIOLATION, _CURVE_CLAIM, witness_point=(a, float(t[k])),
                           detail={"increase": float(rises[k]),
                                   "value": float(vals[k]),
                                   "running_min": float(vals[k] - rises[k])})
    return AuditReport(OBSTRUCTION, _CURVE_CLAIM,
                       detail={"endpoint_comparison":
                               {"V(a,0)": float(vals[-1]), "V(0,a^3)": float(vals[0])},
                               "max_increase": float(rises[k])})


def audit_curve_tangency(a: float, t_grid: Sequence[float] = None) -> float:
    """max_t |g(gamma(t)) - beta(t) gamma'(t)|: the curve is a reparameterized orbit."""
    if a <= 0:
        raise ValueError("a must be positive")
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.0, 101)
    t = np.asarray(t_grid, dtype=float)
    lhs = drift_field(curve_point(a, t))
    rhs = curve_speed_factor(a, t)[..., None] * curve_velocity(a, t)
    return float(np.max(np.linalg.norm(lhs - rhs, axis=-1)))


# ---------------------------------------------------------------------------
# Falsifier for super-quadratic input powers
# ---------------------------------------------------------------------------

_SIGMAP_CLAIM = (
    "for input powers p > 2, any C1-away-from-origin candidate V with gradient "
    "somewhere non-orthogonal to the oscillator field g admits an explicit input "
    "violating the gain inequality (|u|^p growth beats gamma|u|^2); if instead "
    "grad V . g vanishes identically, the axis limits force grad V(a,0) = 0, "
    "contradicting the u = 0 requirement grad V . g0 <= -|x|^2")


def audit_sigmap(V: StorageCandidate, p: float, gamma: float,
                 xi_samples: Sequence = ((2.0, 1.0), (1.0, 0.5), (0.5, 1.5)),
                 search_u_max: float = 1e3, u_points: int = 64,
                 tol: float = 1e-9, axis_a: float = 1.0) -> AuditReport:
    """Probe the u -> infinity argument for the two-channel p > 2 system.

    For each sample xi with c = grad V(xi).g(xi) != 0, the audit searches the
    matching input channel (u1 for c > 0, u2 for c < 0) for a violating input
    and reports the largest-residual grid input.  If c vanishes at every
    sample, the audit tests the axis point (a, 0) for the forced zero gradient.
    """
    if p <= 2:
        raise ValueError("this falsifier applies to input powers p > 2")
    if V.gradient_fn is None:
        raise GradientUndefinedError(f"candidate {V.name!r} has no gradient oracle")
    sp = make_sigma_p(p)
    for xi in xi_samples:
        xi = np.asarray(xi, dtype=float)
        grad = V.gradient(xi)
        c = float(np.dot(grad, sp.input_fields(xi)[0]))
        if abs(c) <= tol:
            continue
        base = float(np.dot(grad, sp.drift(xi))) + float(np.dot(xi, xi))
        u_mag = np.linspace(0.0, search_u_max, u_points + 1)[1:]
        # channel u1 enters with +|u|^p g, channel u2 with -|u|^p g
        signed = u_mag ** p * c if c > 0 else u_mag ** p * (-c)
        residuals = base + signed - gamma * u_mag ** 2
        k = int(np.argmax(residuals))
        if residuals[k] > tol:
            u = (float(u_mag[k]), 0.0) if c > 0 else (0.0, float(u_mag[k]))
            return AuditReport(
                VIOLATION, _SIGMAP_CLAIM, witness_point=(tuple(xi), u),
                detail={"residual": float(residuals[k]), "grad_dot_g": c})
        return AuditReport(
            INCONCLUSIVE, _SIGMAP_CLAIM,
            detail={"note": "grad V . g nonzero but no grid violation; enlarge "
                            "search_u_max", "xi": tuple(xi), "grad_dot_g": c})

    # grad V . g vanished at every sample: probe the forced-zero-gradient axis step
    axis = np.array([axis_a, 0.0])
    grad = V.gradient(axis)
    gnorm = float(np.linalg.norm(grad))
    u0_residual = float(np.dot(grad, sp.drift(axis))) + float(np.dot(axis, axis))
    if gnorm <= 1e-6:
        return AuditReport(
            OBSTRUCTION, _SIGMAP_CLAIM,
            detail={"axis_gradient_norm": gnorm,
                    "u0_requirement_residual": u0_residual,
                    "note": "grad V . g vanished at all samples and the axis gradient "
                            "is numerically zero, so the u = 0 requirement "
                            "grad V . g0 <= -|x|^2 cannot hold"})
    return AuditReport(INCONCLUSIVE, _SIGMAP_CLAIM,
                       detail={"axis_gradient_norm": gnorm,
                               "note": "grad V . g vanished at the samples but the axis "
                                       "gradient is nonzero; sample more points"})


# ---------------------------------------------------------------------------
# Scalar straddle audit
# ---------------------------------------------------------------------------

_STRADDLE_CLAIM = (
    "any gain-1 witness of the scalar non-affine system has left difference quotients "
    "at x = 1 bounded by 1 and right quotients bounded below by 2 (slopes forced by "
    "u = 1), so it cannot be differentiable at 1")


def audit_scalar_straddle(W: StorageCandidate,
                          h_seq: Sequence[float] = tuple(2.0 ** -k for k in range(10, 21)),
                          tol: float = 1e-9, scan_points: int = 201,
                          scan_tol: float = 1e-6) -> AuditReport:
    """Verify gain-1 membership on a scalar grid, then the kink-straddle quotients."""
    sys = make_sigma3_scalar()
    xs = np.linspace(-3.0, 3.0, scan_points)
    X = xs[np.abs(xs) > 1e-9][:, None]
    hit = _first_violation(sys, *W.subdiff_batch(X), X, scan_tol,
                           u_box=[(-4.0, 4.0)], u_points=161)
    if hit is not None:
        (x,), (u,), res = hit
        return AuditReport(VIOLATION, _STRADDLE_CLAIM, witness_point=(x, u),
                           detail={"residual": res})

    h = np.asarray(h_seq, dtype=float)
    w1 = W.value(np.array([1.0]))
    left = (W.value_batch((1.0 - h)[:, None]) - w1) / (-h)
    right = (W.value_batch((1.0 + h)[:, None]) - w1) / h
    left_ok = bool(np.max(left) <= 1.0 + tol)
    right_ok = bool(np.min(right) >= 2.0 - tol)
    detail = {"left_quotients": left.tolist(), "right_quotients": right.tolist(),
              "limsup_left": float(np.max(left)), "liminf_right": float(np.min(right))}
    if left_ok and right_ok:
        return AuditReport(OBSTRUCTION, _STRADDLE_CLAIM, detail=detail)
    return AuditReport(INCONCLUSIVE, _STRADDLE_CLAIM, detail=detail)


# ---------------------------------------------------------------------------
# Piecewise-identity audit of the scalar system
# ---------------------------------------------------------------------------

def verify_sigma3_pieces(x_grid: Sequence[float] = None,
                         u_grid: Sequence[float] = None) -> dict:
    """Max defect of each structural identity of the scalar system's pieces.

    Cases 1 and 4 are equalities (defect is an absolute difference); cases 2-3
    and the range facts are one-sided (defect is the amount of violation, so a
    nonpositive value means the inequality held with margin).
    """
    x = np.linspace(0.0, 3.0, 301) if x_grid is None else np.asarray(x_grid, dtype=float)
    u = np.linspace(-3.0, 3.0, 301) if u_grid is None else np.asarray(u_grid, dtype=float)
    XX, UU = np.meshgrid(x, u, indexing="ij")
    F = f_scalar(XX, UU)
    Q = UU * UU - XX * XX

    out = {}
    m1 = (XX <= 1) & (np.abs(UU) <= 1)
    out["case1_equality"] = float(np.max(np.abs(F - Q)[m1]))
    m2 = (XX <= 1) & (np.abs(UU) >= 1)
    out["case2_inequality"] = float(np.max((F - Q)[m2]))
    m3 = (XX >= 1) & (np.abs(UU) <= 1)
    out["case3_inequality"] = float(np.max((F - 0.5 * Q)[m3]))
    m4 = (XX >= 1) & (np.abs(UU) >= 1)
    out["case4_equality"] = float(np.max(np.abs(F - 0.5 * Q)[m4]))

    s = np.linspace(-3.0, 3.0, 301)
    t = np.linspace(-3.0, 3.0, 301)
    SS, TT = np.meshgrid(s, t, indexing="ij")
    PH = phi_clip(SS, TT)
    out["phi_range"] = float(np.max(np.abs(PH) - np.abs(SS)))
    zero_mask = TT >= np.abs(SS)
    out["phi_zero_regime"] = float(np.max(np.abs(PH[zero_mask])))
    id_mask = TT <= -np.abs(SS)
    out["phi_identity_regime"] = float(np.max(np.abs(PH - SS)[id_mask]))

    aa = np.linspace(0.0, 3.0, 301)
    bb = np.linspace(0.0, 3.0, 301)
    AA, BB = np.meshgrid(aa, bb, indexing="ij")
    PS = psi_blend(AA, BB)
    diff = BB - AA
    m_hi = (AA >= 1) & (BB >= 1)
    out["psi_half_regime"] = float(np.max(np.abs(PS - 0.5 * diff)[m_hi]))
    m_lo = (AA <= 1) & (BB <= 1)
    out["psi_full_regime"] = float(np.max(np.abs(PS - diff)[m_lo]))
    m_ge = AA >= BB   # bracketing: diff <= psi <= diff/2 (both nonpositive)
    out["psi_bracket_a_ge_b"] = float(np.max(np.maximum(diff - PS, PS - 0.5 * diff)[m_ge]))
    m_le = AA <= BB   # bracketing: diff/2 <= psi <= diff
    out["psi_bracket_a_le_b"] = float(np.max(np.maximum(0.5 * diff - PS, PS - diff)[m_le]))
    return out


def sigma3_pieces_pass(defects: dict) -> bool:
    """The pass rule of the piece audit: the four case identities hold to 1e-12."""
    return all(defects[k] <= 1e-12 for k in
               ("case1_equality", "case2_inequality", "case3_inequality", "case4_equality"))


# ---------------------------------------------------------------------------
# Cross-checks shared by reports
# ---------------------------------------------------------------------------

def recheck_violation(sys: System, V: StorageCandidate, gamma: float,
                      x, u) -> float:
    """Re-evaluate a reported violation point independently through the residual."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    zeta = V.gradient(x)
    F = sys.dynamics(x, u)
    return float(np.dot(zeta, F)) - (gamma * float(np.dot(u, u)) - float(np.dot(x, x)))
