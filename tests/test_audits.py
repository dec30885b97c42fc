import numpy as np
import pytest

from hjikit import audits as au
from hjikit import hji
from hjikit import storage as stg
from hjikit import systems as sy


def _candidate(name, value, grad):
    return stg.from_callables(name, value, gradient_fn=grad, dim=2)


# ---------------------------------------------------------------------------
# axis obstruction audit
# ---------------------------------------------------------------------------

def test_axis_audit_finds_violation_for_growing_candidate():
    W = _candidate("lin_quad",
                   lambda X: 2 * np.asarray(X)[..., 0] + np.asarray(X)[..., 1] ** 2,
                   lambda x: np.array([2.0, 2 * x[1]]))
    report = au.audit_sigma1_axis(W)
    assert report.kind == au.VIOLATION
    # the hand-checkable point: at ((-1, 0), u = 0) the inequality fails by 3
    s1 = sy.make_sigma1()
    assert au.recheck_violation(s1, W, 1.0, [-1.0, 0.0], [0.0, 0.0]) == pytest.approx(3.0)
    # and the reported point is itself a sound violation
    (x, u) = report.witness_point
    assert au.recheck_violation(s1, W, 1.0, x, u) > 1e-6


def test_axis_audit_constant_candidate():
    W = _candidate("const", lambda X: np.full(np.asarray(X).shape[:-1], 3.0),
                   lambda x: np.zeros(2))
    report = au.audit_sigma1_axis(W)
    assert report.kind == au.VIOLATION


def test_axis_audit_smoothed_witness_fails_at_original_gain(smoothed_sigma1):
    """The smoothed function only witnesses the relaxed gain, and the audit sees it."""
    report = au.audit_sigma1_axis(smoothed_sigma1.W)
    assert report.kind == au.VIOLATION
    s1 = sy.make_sigma1()
    (x, u) = report.witness_point
    assert au.recheck_violation(s1, smoothed_sigma1.W, 1.0, x, u) > 1e-6


def test_axis_audit_obstruction_branch():
    """A candidate satisfying both one-sided limits reports the obstruction."""
    W = _candidate("decaying",
                   lambda X: np.exp(-np.asarray(X)[..., 0]) + np.asarray(X)[..., 1] ** 2,
                   lambda x: np.array([-np.exp(-x[0]), 2 * x[1]]))
    report = au.audit_sigma1_axis(W, scan=False)
    assert report.kind == au.OBSTRUCTION
    assert report.detail["max_onesided_limit"] <= 1e-6


def test_axis_audit_requires_gradient():
    with pytest.raises(stg.GradientUndefinedError):
        au.audit_sigma1_axis(stg.from_expression("x1*x1+x2*x2", 2))


# ---------------------------------------------------------------------------
# orbit-curve audits
# ---------------------------------------------------------------------------

def test_curve_monotone_examples():
    r = au.audit_curve_monotone(stg.builtin("v2"), 1.0)
    assert r.kind == au.OBSTRUCTION
    assert r.detail["max_increase"] <= 1e-12
    assert r.detail["endpoint_comparison"]["V(a,0)"] <= \
        r.detail["endpoint_comparison"]["V(0,a^3)"] + 1e-12

    r = au.audit_curve_monotone(stg.builtin("v1"), 1.0, t_grid=[0.0, 0.5, 1.0])
    assert r.kind == au.VIOLATION
    assert r.witness_point == (1.0, 0.5)
    expected = 0.5 + 0.75 ** 1.5 - 1.0
    assert r.detail["increase"] == pytest.approx(expected, abs=1e-12)

    r = au.audit_curve_monotone(stg.builtin("v2"), 1.0, t_grid=[0.5])
    assert r.kind == au.INCONCLUSIVE
    with pytest.raises(ValueError):
        au.audit_curve_monotone(stg.builtin("v2"), -1.0)


def test_curve_tangency_examples():
    for a in (0.5, 1.0, 2.0):
        assert au.audit_curve_tangency(a) <= 1e-9
    # endpoint identity gamma(1) = gamma'(1) = (a, 0)
    a = 1.3
    assert np.allclose(au.curve_point(a, 1.0), [a, 0.0])
    assert np.allclose(au.curve_velocity(a, 1.0), [a, 0.0])


def test_curve_tangency_matches_drift_field():
    s2 = sy.make_sigma2()
    t = np.linspace(0, 1, 11)
    pts = au.curve_point(1.0, t)
    undriven = s2.dynamics(pts, np.stack([pts[:, 0], pts[:, 1]], axis=-1))
    assert np.max(np.abs(undriven - au.drift_field(pts))) <= 1e-12


# ---------------------------------------------------------------------------
# super-quadratic falsifier
# ---------------------------------------------------------------------------

def test_sigmap_falsifies_square_norm():
    report = au.audit_sigmap(stg.builtin("sq_norm"), 3.0, 1.0,
                             xi_samples=[(2.0, 1.0)], search_u_max=2.0, u_points=8)
    assert report.kind == au.VIOLATION
    xi, u = report.witness_point
    assert xi == (2.0, 1.0) and u == (2.0, 0.0)
    assert report.detail["residual"] == pytest.approx(15.0, abs=1e-9)
    # soundness: the reported input violates the full inequality
    sp = sy.make_sigma_p(3.0)
    assert au.recheck_violation(sp, stg.builtin("sq_norm"), 1.0, xi, u) == \
        pytest.approx(15.0, abs=1e-9)


def test_sigmap_negative_channel():
    """grad V . g < 0 at the sample routes the search to the second channel."""
    W = _candidate("swapped", lambda X: np.sum(np.asarray(X) ** 2, axis=-1),
                   lambda x: np.array([2 * x[0], 2 * x[1]]))
    report = au.audit_sigmap(W, 3.0, 1.0, xi_samples=[(1.0, 2.0)], search_u_max=3.0)
    assert report.kind == au.VIOLATION
    _, u = report.witness_point
    assert u[0] == 0.0 and u[1] > 0.0


def test_sigmap_error_and_axis_paths():
    with pytest.raises(stg.GradientUndefinedError):
        au.audit_sigmap(stg.builtin("v1"), 3.0, 1.0)
    with pytest.raises(ValueError):
        au.audit_sigmap(stg.builtin("sq_norm"), 2.0, 1.0)
    # orthogonal-everywhere candidate with vanishing axis gradient: obstruction
    const = _candidate("flat", lambda X: np.full(np.asarray(X).shape[:-1], 1.0),
                       lambda x: np.zeros(2))
    report = au.audit_sigmap(const, 3.0, 1.0)
    assert report.kind == au.OBSTRUCTION
    assert report.detail["u0_requirement_residual"] > 0
    # orthogonal at samples but nonzero axis gradient: inconclusive
    pseudo = _candidate(
        "radial_l1",
        lambda X: (np.abs(np.asarray(X)[..., 0]) + np.abs(np.asarray(X)[..., 1])) ** 2,
        lambda x: 2 * (abs(x[0]) + abs(x[1])) * np.array([np.sign(x[0]), np.sign(x[1])]))
    report = au.audit_sigmap(pseudo, 3.0, 1.0, xi_samples=[(2.0, 1.0), (1.0, 0.5)])
    assert report.kind == au.INCONCLUSIVE


# ---------------------------------------------------------------------------
# scalar straddle audit
# ---------------------------------------------------------------------------

def test_straddle_v3():
    report = au.audit_scalar_straddle(stg.builtin("v3_scalar"))
    assert report.kind == au.OBSTRUCTION
    assert report.detail["limsup_left"] == pytest.approx(1.0, abs=1e-12)
    assert report.detail["liminf_right"] == pytest.approx(2.0, abs=1e-12)


def test_straddle_translation_invariance():
    v3 = stg.builtin("v3_scalar")
    shifted = stg.from_callables("v3+c", lambda X: v3.value_batch(X) + 2.5,
                                 gradient_fn=v3.gradient_fn,
                                 subdiff_fn=v3.subdiff_fn, dim=1)
    report = au.audit_scalar_straddle(shifted)
    assert report.kind == au.OBSTRUCTION
    assert report.detail["limsup_left"] == pytest.approx(1.0, abs=1e-12)


def test_straddle_falsifies_square():
    report = au.audit_scalar_straddle(stg.builtin("sq_norm"))
    assert report.kind == au.VIOLATION
    x, u = report.witness_point
    s3 = sy.make_sigma3_scalar()
    res = au.recheck_violation(s3, stg.builtin("sq_norm"), 1.0, [x], [u])
    assert res > 1e-6


def test_straddle_violation_is_first_in_scan_order():
    """The batched scan reports the first violating x and its worst residual and u."""
    sq = stg.builtin("sq_norm")
    s3 = sy.make_sigma3_scalar()
    report = au.audit_scalar_straddle(sq)
    xs = np.linspace(-3.0, 3.0, 201)
    for x in xs[np.abs(xs) > 1e-9]:
        res, _, u = hji.point_residual(s3, sq, 1.0, [x], u_box=[(-4.0, 4.0)], u_points=161)
        if res > 1e-6:
            break
    assert report.witness_point == (float(x), float(u[0]))
    assert report.detail["residual"] == pytest.approx(res, rel=1e-12)


# ---------------------------------------------------------------------------
# scalar-system piece identities
# ---------------------------------------------------------------------------

def test_sigma3_pieces():
    d = au.verify_sigma3_pieces()
    assert d["case1_equality"] <= 1e-12
    assert d["case4_equality"] <= 1e-12
    assert d["case2_inequality"] <= 1e-12
    assert d["case3_inequality"] <= 1e-12
    assert d["phi_range"] <= 1e-12
    assert d["phi_zero_regime"] <= 1e-12
    assert d["phi_identity_regime"] <= 1e-12
    assert d["psi_half_regime"] <= 1e-12
    assert d["psi_full_regime"] <= 1e-12
    assert d["psi_bracket_a_ge_b"] <= 1e-12
    assert d["psi_bracket_a_le_b"] <= 1e-12


def test_phi_psi_point_values():
    assert sy.phi_clip(1.0, 2.0) == 0.0
    assert sy.phi_clip(1.0, -2.0) == 1.0
    assert sy.phi_clip(-1.5, -2.0) == -1.5
    assert sy.psi_blend(2.0, 3.0) == pytest.approx(0.5)
    assert sy.psi_blend(0.5, 0.25) == pytest.approx(-0.25)


def test_supply_pivot_on_special_input():
    """With u = (x1, |x2|) the supply vanishes identically: |u| = |x|."""
    s1 = sy.make_sigma1()
    rng = np.random.default_rng(6)
    X = rng.uniform(-2, 2, (300, 2))
    U = np.stack([X[:, 0], np.abs(X[:, 1])], axis=-1)
    assert np.all(np.sum(U * U, axis=1) == np.sum(X * X, axis=1))


def test_report_serialization():
    report = au.audit_curve_monotone(stg.builtin("v1"), 1.0, t_grid=[0, 0.5, 1])
    d = report.to_dict()
    assert d["kind"] == au.VIOLATION and isinstance(d["detail"]["increase"], float)
    assert isinstance(d["claim"], str) and d["claim"]
