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

from .expr import compile_evaluator, parse
from .hji import Sweep, annulus_grid
from .storage import GradientUndefinedError, StorageCandidate
from .systems import (System, _phi_src, _psi_src, make_sigma1, make_sigma2, make_sigma3_scalar,
                      make_sigma_p)

VIOLATION = "violation_found"
OBSTRUCTION = "obstruction_verified"
INCONCLUSIVE = "inconclusive"

# the audits' fixed sample sets and tolerances
_SCAN_TOL = 1e-6                          # residual above which a scanned point violates
_TOL = 1e-9                               # slack of the derived inequalities
_AXIS_SAMPLES = (0.5, 1.0, 1.5, 2.0)      # abscissae a of the sigma1 axis limits
_CURVE_T = np.linspace(0.0, 1.0, 101)     # orbit-curve parameters t
_STRADDLE_STEPS = np.array([2.0 ** -k for k in range(10, 21)])   # quotient steps h at x = 1


@dataclass
class AuditReport:
    kind: str                       # violation_found | obstruction_verified | inconclusive
    claim: str                      # what inequality chain the audit mechanizes
    witness_point: Optional[tuple] = None
    detail: dict = field(default_factory=dict)


def _log_axis(lo: float, hi: float, per_decade: int = 12) -> np.ndarray:
    count = max(2, int(math.log10(hi / lo) * per_decade) + 1)
    return np.geomspace(lo, hi, count)


def _scan_grid_2d(extent: float, inner: float = 1e-3) -> np.ndarray:
    """Axis-refined scan points: log-spaced magnitudes in each quadrant plus the axes."""
    mags = _log_axis(inner, extent)
    vals = np.concatenate([-mags[::-1], [0.0], mags])
    return annulus_grid([vals, vals], inner / 2)[1]      # all but the origin


def _first_violation(sys: System, lo, hi, X: np.ndarray, tol: float):
    """(x, u, residual) at the first row of X, in scan order, that fails the gain-1
    check at tolerance tol, or None (also for no rows)."""
    report = Sweep(sys, X, lo, hi).check(1.0, tol) if len(X) else None
    if report is None or report.passed:
        return None
    k = int(np.argmin(report.point_passed))     # the first False
    return (tuple(X[k].tolist()), tuple(report.point_u[k].tolist()),
            float(report.point_residuals[k]))


# ---------------------------------------------------------------------------
# Axis obstruction for the first 2-D system
# ---------------------------------------------------------------------------

_SIGMA1_CLAIM = (
    "any C1-away-from-origin witness of gain 1 for sigma1 satisfies both one-sided "
    "limits W_x1(a,0) -/+ W_x2(a,0) <= 0, hence W_x1(a,0) <= 0 for all a > 0: W is "
    "nonincreasing along the positive x1-axis, so it cannot be proper, and W(0)=0 "
    "would force W(a,0)=0, killing positive definiteness")


def audit_sigma1_axis(W: StorageCandidate, scan: bool = True) -> AuditReport:
    """Scan the witness condition, then probe the axis-derivative obstruction.

    The candidate must carry a gradient oracle.  The scan over [-2, 2]^2 reports
    the first point, in scan order, whose exact residual exceeds 1e-6; points
    without a singleton subdifferential (kinks) are skipped.  One-sided limits
    at x2 -> 0 use gradient samples at x2 = +/-10^-k (k = 3..6) with
    Richardson-style extrapolation; non-monotone sequences, or a limit above
    1e-6, yield ``inconclusive``.
    """
    sys = make_sigma1()
    if not W.has_oracle:
        raise GradientUndefinedError(f"candidate {W.name!r} has no gradient oracle")

    if scan:
        X = _scan_grid_2d(2.0)
        lo, hi = W.subdiff_batch(X)
        smooth = np.all(lo == hi, axis=1)
        hit = _first_violation(sys, lo[smooth], hi[smooth], X[smooth], _SCAN_TOL)
        if hit is not None:
            x, u, res = hit
            return AuditReport(VIOLATION, _SIGMA1_CLAIM, witness_point=(x, u),
                               detail={"residual": res})

    hs = np.array([1e-3, 1e-4, 1e-5, 1e-6])
    probes = [(a, sign) for a in _AXIS_SAMPLES for sign in (1.0, -1.0)]
    X = np.array([[a, sign * h] for a, sign in probes for h in hs])
    lo, hi = W.subdiff_batch(X)      # one oracle call; its rows are read in probe order
    worst = -math.inf
    for k, (a, sign) in enumerate(probes):
        seq = []
        for j in range(k * hs.size, (k + 1) * hs.size):
            if np.any(lo[j] != hi[j]):
                raise GradientUndefinedError(
                    f"the gradient of {W.name!r} is undefined at {X[j].tolist()}")
            seq.append(float(lo[j, 0] - sign * lo[j, 1]))
        lim, monotone = _extrapolate(seq, hs)
        if not monotone:
            return AuditReport(INCONCLUSIVE, _SIGMA1_CLAIM,
                               detail={"a": a, "side": sign, "sequence": seq})
        worst = max(worst, lim)
        if lim > 1e-6:
            return AuditReport(
                INCONCLUSIVE, _SIGMA1_CLAIM,
                detail={"a": a, "side": sign, "limit": lim,
                        "note": "one-sided limit exceeds tolerance but no scan "
                                "violation was found"})
    return AuditReport(OBSTRUCTION, _SIGMA1_CLAIM,
                       detail={"max_onesided_limit": worst, "a_samples": list(_AXIS_SAMPLES)})


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


_CURVE_CLAIM = (
    "for any continuous candidate satisfying zeta.g <= 0 along the cusp drift, the "
    "value along the orbit curve t -> (a t, (a^2-(a t)^2)^(3/2)) is nonincreasing; an "
    "increase falsifies membership in the gain-1 witness class of sigma2")


def audit_curve_monotone(V: StorageCandidate, a: float,
                         t_grid: Sequence[float] = _CURVE_T) -> AuditReport:
    """Check V(gamma(t)) for an increase; report the largest rise over the running min."""
    if not 0 < a < math.inf:
        raise ValueError("a must be positive and finite")
    t = np.asarray(t_grid, dtype=float)
    if t.size < 2:
        return AuditReport(INCONCLUSIVE, _CURVE_CLAIM,
                           detail={"note": "degenerate t-grid"})
    vals = V.value_batch(curve_point(a, t))
    rises = vals - np.minimum.accumulate(vals)
    k = int(np.argmax(rises))
    if rises[k] > _TOL:
        return AuditReport(VIOLATION, _CURVE_CLAIM, witness_point=(a, float(t[k])),
                           detail={"increase": float(rises[k]),
                                   "value": float(vals[k]),
                                   "running_min": float(vals[k] - rises[k])})
    return AuditReport(OBSTRUCTION, _CURVE_CLAIM,
                       detail={"endpoint_comparison":
                               {"V(a,0)": float(vals[-1]), "V(0,a^3)": float(vals[0])},
                               "max_increase": float(rises[k])})


def audit_curve_tangency(a: float) -> float:
    """max_t |f(gamma(t), gamma(t)) - beta(t) gamma'(t)|, f being the zoo's sigma2 under the
    feedback u = x, whose field is (x2, -3 x1 x2^(4/3)): the curve is a reparameterized orbit."""
    if not 0 < a < math.inf:
        raise ValueError("a must be positive and finite")
    t = _CURVE_T
    x = curve_point(a, t)
    lhs = make_sigma2().dynamics(x, x)
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
                 search_u_max: float = 1e3, u_points: int = 64) -> AuditReport:
    """Probe the u -> infinity argument for the two-channel p > 2 system.

    For each sample xi with c = grad V(xi).g(xi) != 0, the audit searches the
    matching input channel (u1 for c > 0, u2 for c < 0) for a violating input
    and reports the largest-residual grid input; the residuals
    grad V(xi).f(xi, u) + |xi|^2 - gamma|u|^2 evaluate the zoo's field
    ``make_sigma_p(p).dynamics``.  If c vanishes at every sample, the audit
    tests the axis point (1, 0) for the forced zero gradient.
    """
    if not 2 < p < math.inf:
        raise ValueError("this falsifier applies to finite input powers p > 2")
    if not (gamma > 0 and search_u_max > 0):
        raise ValueError("gamma and search_u_max must be positive")
    if not V.has_oracle:
        raise GradientUndefinedError(f"candidate {V.name!r} has no gradient oracle")
    sp = make_sigma_p(p)
    for xi in xi_samples:
        xi = np.asarray(xi, dtype=float)
        grad = V.gradient(xi)
        c = float(np.dot(grad, sp.input_fields(xi)[0]))
        if abs(c) <= _TOL:
            continue
        # the channel whose |u|^p term raises grad V . f: u1 (+|u1|^p g) for c > 0, else u2
        U = np.zeros((u_points, 2))
        U[:, 0 if c > 0 else 1] = np.linspace(0.0, search_u_max, u_points + 1)[1:]
        residuals = (sp.dynamics(xi, U) @ grad + float(np.dot(xi, xi))
                     - gamma * np.sum(U * U, axis=1))
        k = int(np.argmax(residuals))
        if residuals[k] > _TOL:
            return AuditReport(
                VIOLATION, _SIGMAP_CLAIM, witness_point=(tuple(xi), tuple(U[k].tolist())),
                detail={"residual": float(residuals[k]), "grad_dot_g": c})
        return AuditReport(
            INCONCLUSIVE, _SIGMAP_CLAIM,
            detail={"note": "grad V . g nonzero but no grid violation; enlarge "
                            "search_u_max", "xi": tuple(xi), "grad_dot_g": c})

    # grad V . g vanished at every sample: probe the forced-zero-gradient axis step
    axis = np.array([1.0, 0.0])
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


def audit_scalar_straddle(W: StorageCandidate) -> AuditReport:
    """Verify gain-1 membership on a scalar grid, then the kink-straddle quotients."""
    sys = make_sigma3_scalar()
    xs = np.linspace(-3.0, 3.0, 201)
    X = xs[np.abs(xs) > 1e-9][:, None]
    hit = _first_violation(sys, *W.subdiff_batch(X), X, _SCAN_TOL)
    if hit is not None:
        (x,), (u,), res = hit
        return AuditReport(VIOLATION, _STRADDLE_CLAIM, witness_point=(x, u),
                           detail={"residual": res})

    h = _STRADDLE_STEPS
    w1 = W.value(np.array([1.0]))
    left = (W.value_batch((1.0 - h)[:, None]) - w1) / (-h)
    right = (W.value_batch((1.0 + h)[:, None]) - w1) / h
    left_ok = bool(np.max(left) <= 1.0 + _TOL)
    right_ok = bool(np.min(right) >= 2.0 - _TOL)
    detail = {"left_quotients": left.tolist(), "right_quotients": right.tolist(),
              "limsup_left": float(np.max(left)), "liminf_right": float(np.min(right))}
    if left_ok and right_ok:
        return AuditReport(OBSTRUCTION, _STRADDLE_CLAIM, detail=detail)
    return AuditReport(INCONCLUSIVE, _STRADDLE_CLAIM, detail=detail)


# ---------------------------------------------------------------------------
# Piecewise-identity audit of the scalar system
# ---------------------------------------------------------------------------

_PIECE_BLOCK = 32   # grid rows per pass: each (32, 301) temporary (77 KB) stays in L2


def verify_sigma3_pieces(x_grid: Sequence[float] = None,
                         u_grid: Sequence[float] = None) -> dict:
    """Max defect of each structural identity of the scalar system's pieces.

    The field is the zoo system's own (``make_sigma3_scalar().dynamics``), and phi(s, t)
    and psi(a, b) are compiled from the source builders that field is written with.
    Grids: (x, u) for the field (default 301 x 301 on [0, 3] x [-3, 3]), and 301 x 301
    grids (s, t) on [-3, 3]^2 for phi and (a, b) on [0, 3]^2 for psi, each evaluated by
    blocks of rows broadcast against its column axis.  Cases 1 and 4 are
    equalities (defect is an absolute difference); cases 2-3 and the range facts are
    one-sided (defect is the amount of violation, so a nonpositive value means the
    inequality held with margin).  A ValueError names each case the x/u axes leave empty.
    """
    x = np.linspace(0.0, 3.0, 301) if x_grid is None else np.asarray(x_grid, dtype=float)
    u = np.linspace(-3.0, 3.0, 301) if u_grid is None else np.asarray(u_grid, dtype=float)
    x_le, x_ge, u_le, u_ge = x <= 1, x >= 1, np.abs(u) <= 1, np.abs(u) >= 1
    cases = {"case1_equality": (x_le, u_le), "case2_inequality": (x_le, u_ge),
             "case3_inequality": (x_ge, u_le), "case4_equality": (x_ge, u_ge)}
    empty = [k for k, (mx, mu) in cases.items() if not (mx.any() and mu.any())]
    if empty:
        raise ValueError(f"the x/u grid has no point in {', '.join(empty)}")
    s, a, uu, out = np.linspace(-3.0, 3.0, 301), np.linspace(0.0, 3.0, 301), u * u, {}
    field = make_sigma3_scalar().dynamics
    phi, psi = (compile_evaluator(parse(src("x1", "u1"), 1, 1)) for src in (_phi_src, _psi_src))
    u_col, s_col, a_col = u[None, :, None], s[None, :, None], a[None, :, None]

    def fold(key, v, where=True):
        out[key] = max(out.get(key, -math.inf), float(np.max(v, initial=-math.inf, where=where)))

    # one pass over row blocks of all three grids; a block past a grid's last row is empty
    for i in range(0, max(x.size, s.size), _PIECE_BLOCK):
        r = slice(i, i + _PIECE_BLOCK)
        xb, sb, ab = x[r, None], s[r, None], a[r, None]
        F, Q = field(xb[..., None], u_col)[..., 0], uu - xb * xb
        D, H = F - Q, F - 0.5 * Q      # the defects of the x <= 1 and the x >= 1 identities
        for (key, (mx, mu)), v in zip(cases.items(), (np.abs(D), D, H, np.abs(H))):
            fold(key, v, mx[r, None] & mu)
        PH, s_abs = phi(sb[..., None], s_col), np.abs(sb)
        fold("phi_range", np.abs(PH) - s_abs)
        fold("phi_zero_regime", np.abs(PH), s >= s_abs)
        fold("phi_identity_regime", np.abs(PH - sb), s <= -s_abs)
        PS, diff = psi(ab[..., None], a_col), a - ab
        fold("psi_half_regime", np.abs(PS - 0.5 * diff), (ab >= 1) & (a >= 1))
        fold("psi_full_regime", np.abs(PS - diff), (ab <= 1) & (a <= 1))
        fold("psi_bracket_a_ge_b", np.maximum(diff - PS, PS - 0.5 * diff), ab >= a)
        fold("psi_bracket_a_le_b", np.maximum(0.5 * diff - PS, PS - diff), ab <= a)
    return out


def sigma3_pieces_pass(defects: dict) -> bool:
    """The pass rule of the piece audit: the four case identities hold to 1e-12."""
    return all(defects[k] <= 1e-12 for k in
               ("case1_equality", "case2_inequality", "case3_inequality", "case4_equality"))

