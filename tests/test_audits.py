import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjikit import audits as au
from hjikit import cli
from hjikit import hji
from hjikit import storage as stg
from hjikit import systems as sy
from reference import f_scalar, phi_clip, point_residual, psi_blend, recheck_violation


def _candidate(name, value, grad):
    """A candidate outside the expression grammar: ``grad`` maps states (Q, 2) to gradients."""
    def batch(X):
        g = grad(X)
        return g, g

    return stg.StorageCandidate(name, value, "smooth", 2, batch)


# ---------------------------------------------------------------------------
# axis obstruction audit
# ---------------------------------------------------------------------------

def test_axis_audit_finds_violation_for_growing_candidate():
    W = stg.from_expression("2*x1 + x2*x2", 2)
    report = au.audit_sigma1_axis(W)
    assert report.kind == au.VIOLATION
    # the hand-checkable point: at ((-1, 0), u = 0) the inequality fails by 3
    s1 = sy.make_sigma1()
    assert recheck_violation(s1, W, 1.0, [-1.0, 0.0], [0.0, 0.0]) == pytest.approx(3.0)
    # and the reported point is itself a sound violation
    (x, u) = report.witness_point
    assert recheck_violation(s1, W, 1.0, x, u) > 1e-6


def test_axis_audit_constant_candidate():
    report = au.audit_sigma1_axis(stg.from_expression("3", 2))
    assert report.kind == au.VIOLATION


def test_axis_audit_smoothed_witness_fails_at_original_gain(smoothed_sigma1):
    """The smoothed function only witnesses the relaxed gain, and the audit sees it."""
    report = au.audit_sigma1_axis(smoothed_sigma1.W)
    assert report.kind == au.VIOLATION
    s1 = sy.make_sigma1()
    (x, u) = report.witness_point
    assert recheck_violation(s1, smoothed_sigma1.W, 1.0, x, u) > 1e-6


def _axis_candidate(name, request):
    if name == "lin_quad":
        return stg.from_expression("2*x1 + x2*x2", 2)
    if name == "const":
        return stg.from_expression("3", 2)
    if name == "smoothed":
        return request.getfixturevalue("smoothed_sigma1").W
    return stg.builtin(name)


@pytest.mark.parametrize("name", ["lin_quad", "const", "v1", "sq_norm", "smoothed"])
def test_axis_scan_matches_pointwise_reference(name, request):
    """The batched scan reports the first scan point whose scalar reference residual
    exceeds the tolerance, skipping the gradient's kink points, with its worst u."""
    W = _axis_candidate(name, request)
    s1 = sy.make_sigma1()
    for x in au._scan_grid_2d(2.0):
        try:
            W.gradient(x)
        except stg.GradientUndefinedError:
            continue
        res, _, u = point_residual(s1, W, 1.0, x)
        if res > 1e-6:
            break
    report = au.audit_sigma1_axis(W)
    assert report.kind == au.VIOLATION
    got_x, got_u = report.witness_point
    assert got_x == tuple(x)
    assert got_u == pytest.approx(tuple(u), rel=1e-12)
    assert report.detail["residual"] == pytest.approx(res, rel=1e-12)


def test_axis_scan_skips_kink_points():
    """Only singleton subdifferentials are scanned: a box that fails at the kinks is ignored."""
    v = stg.builtin("v1_scaled")

    def wide_at_kinks(X):
        lo, hi = v.subdiff_batch(X)
        kink = np.any(lo != hi, axis=1, keepdims=True)
        return np.where(kink, -100.0, lo), np.where(kink, 100.0, hi)

    W = stg.StorageCandidate("wide_kinks", v.value_fn, "lipschitz", 2, wide_at_kinks)
    X = np.array([[1.0, 0.0]])
    assert hji.Sweep(sy.make_sigma1(), X, *W.subdiff_batch(X)).residuals(1.0)[0][0] > 1.0
    assert au.audit_sigma1_axis(W).kind == au.OBSTRUCTION


def test_gradient_only_candidate_is_unbounded_at_its_kinks():
    """A candidate that knows only its gradient gives the unbounded box where the
    gradient is undefined: the residual there is +inf (the coefficients do not
    vanish), and the sweep and the axis audit reach verdicts."""
    v = stg.builtin("v1_scaled")

    def unbounded_at_kinks(X):
        lo, hi = v.subdiff_batch(X)
        kink = np.any(lo != hi, axis=1, keepdims=True)
        return np.where(kink, -np.inf, lo), np.where(kink, np.inf, hi)

    W = stg.StorageCandidate("grad_only", v.value_fn, "lipschitz", 2, unbounded_at_kinks)
    s1 = sy.make_sigma1()
    assert W.subdiff([1.0, 0.0]).intervals == ((-np.inf, np.inf),) * 2
    assert point_residual(s1, W, 1.0, [1.0, 0.0]) == (np.inf, None, None)
    lo, hi = W.subdiff_batch([[1.0, 0.0], [1.0, 1.0]])
    assert lo.tolist() == [[-np.inf, -np.inf], [2.0, 2.0]]
    assert hi.tolist() == [[np.inf, np.inf], [2.0, 2.0]]

    region = hji.Region(box=((-2.0, 2.0), (-2.0, 2.0)), points_per_dim=21)
    report = hji.check_witness(s1, W, 1.0, region)
    assert report.verdict == "fail" and report.max_residual == np.inf
    kink = np.any(report.grid == 0.0, axis=1)
    assert np.all(report.point_residuals[kink] == np.inf)
    builtin = hji.check_witness(s1, v, 1.0, region)
    assert np.array_equal(report.point_residuals[~kink], builtin.point_residuals[~kink])
    assert au.audit_sigma1_axis(W).kind == au.OBSTRUCTION   # the scan skips the kinks


def test_axis_audit_obstruction_branch():
    """A candidate satisfying both one-sided limits reports the obstruction."""
    W = _candidate("decaying",
                   lambda X: np.exp(-np.asarray(X)[..., 0]) + np.asarray(X)[..., 1] ** 2,
                   lambda X: np.stack([-np.exp(-X[:, 0]), 2 * X[:, 1]], axis=1))
    report = au.audit_sigma1_axis(W, scan=False)
    assert report.kind == au.OBSTRUCTION
    assert report.detail["max_onesided_limit"] <= 1e-6


def _kinked_from_1_5(name, grad, calls):
    """A candidate whose box is not a singleton at x1 >= 1.5 (the last two axis samples);
    ``calls`` collects the row count of each oracle call."""
    def batch(X):
        calls.append(len(X))
        g = grad(X)
        return g, g + (X[:, :1] >= 1.5)

    return stg.StorageCandidate(name, lambda X: np.zeros(np.shape(X)[:-1]), "lipschitz", 2,
                                batch)


def test_axis_probe_reads_its_rows_in_probe_order():
    """The 32 probe rows come from one oracle call, but a non-singleton row raises only
    when the probe reaches it: after the passing samples a = 0.5 and 1, not after an
    inconclusive one."""
    calls = []
    decaying = _kinked_from_1_5(
        "decaying", lambda X: np.stack([-np.exp(-X[:, 0]), 2 * X[:, 1]], axis=1), calls)
    with pytest.raises(stg.GradientUndefinedError,
                       match=r"'decaying' is undefined at \[1\.5, 0\.001\]$"):
        au.audit_sigma1_axis(decaying, scan=False)
    rising = _kinked_from_1_5(
        "rising", lambda X: np.stack([np.ones(len(X)), 0 * X[:, 1]], axis=1), calls)
    report = au.audit_sigma1_axis(rising, scan=False)
    assert report.kind == au.INCONCLUSIVE and report.detail["a"] == 0.5
    assert calls == [32, 32]


def test_axis_audit_requires_gradient():
    with pytest.raises(stg.GradientUndefinedError):
        au.audit_sigma1_axis(stg.StorageCandidate("values_only", lambda X: np.sum(X * X, -1)))


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


def test_audits_evaluate_the_zoo_fields(monkeypatch):
    """The tangency audit and the p > 2 falsifier evaluate the zoo's sigma2 and sigma_p, not
    copies: one changed g0 term moves the tangency defect past 1e-9, and adding 1 to
    sigma_p's first drift component moves the residual at xi = (2, 1) by grad V_1 = 4."""
    s2, sp = sy.make_sigma2(), sy.make_sigma_p(3.0)
    monkeypatch.setattr(au, "make_sigma2",
                        lambda: dataclasses.replace(s2, g0=("-x1+2*x2", s2.g0[1])))
    assert au.audit_curve_tangency(1.0) > 1e-9
    args = (stg.builtin("sq_norm"), 3.0, 1.0, [(2.0, 1.0)], 2.0, 8)
    before = au.audit_sigmap(*args).detail["residual"]
    monkeypatch.setattr(au, "make_sigma_p",
                        lambda p: dataclasses.replace(sp, p=p, g0=(f"{sp.g0[0]} + 1", sp.g0[1])))
    assert au.audit_sigmap(*args).detail["residual"] == pytest.approx(before + 4.0, abs=1e-9)


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
    assert recheck_violation(sp, stg.builtin("sq_norm"), 1.0, xi, u) == \
        pytest.approx(15.0, abs=1e-9)


def test_sigmap_negative_channel():
    """grad V . g < 0 at the sample routes the search to the second channel."""
    W = stg.from_expression("x1*x1 + x2*x2", 2)
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
    report = au.audit_sigmap(stg.from_expression("1", 2), 3.0, 1.0)
    assert report.kind == au.OBSTRUCTION
    assert report.detail["u0_requirement_residual"] > 0
    # orthogonal at samples but nonzero axis gradient: inconclusive
    pseudo = _candidate(
        "radial_l1",
        lambda X: (np.abs(np.asarray(X)[..., 0]) + np.abs(np.asarray(X)[..., 1])) ** 2,
        lambda X: 2 * np.sum(np.abs(X), axis=1, keepdims=True) * np.sign(X))
    report = au.audit_sigmap(pseudo, 3.0, 1.0, xi_samples=[(2.0, 1.0), (1.0, 0.5)])
    assert report.kind == au.INCONCLUSIVE


@pytest.mark.parametrize("p, gamma, u_max", [
    (3.0, 0.0, 1e3), (3.0, -1.0, 1e3), (3.0, math.nan, 1e3), (3.0, 1.0, -3.0),
    (3.0, 1.0, 0.0), (3.0, 1.0, math.nan), (math.inf, 1.0, 1e3), (math.nan, 1.0, 1e3)])
def test_sigmap_rejects_nonpositive_gains_and_ranges(p, gamma, u_max):
    """A gain or search range that is not positive, or a power outside (2, inf), is an
    error, not a verdict: a zero gain finds a violation and a negative range decides nothing."""
    with pytest.raises(ValueError):
        au.audit_sigmap(stg.builtin("sq_norm"), p, gamma, search_u_max=u_max)


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
def test_curve_audits_reject_a_nonpositive_or_infinite_a(a):
    with pytest.raises(ValueError, match="a must be positive and finite"):
        au.audit_curve_monotone(stg.builtin("v2"), a)
    with pytest.raises(ValueError, match="a must be positive and finite"):
        au.audit_curve_tangency(a)


# ---------------------------------------------------------------------------
# scalar straddle audit
# ---------------------------------------------------------------------------

def test_straddle_v3():
    report = au.audit_scalar_straddle(stg.builtin("v3_scalar"))
    assert report.kind == au.OBSTRUCTION
    assert report.detail["limsup_left"] == pytest.approx(1.0, abs=1e-12)
    assert report.detail["liminf_right"] == pytest.approx(2.0, abs=1e-12)


def test_straddle_translation_invariance():
    shifted = stg.from_expression("max(abs(x1), 2*x1 - 1) + 2.5", 1)
    report = au.audit_scalar_straddle(shifted)
    assert report.kind == au.OBSTRUCTION
    assert report.detail["limsup_left"] == pytest.approx(1.0, abs=1e-12)


def test_straddle_falsifies_square():
    report = au.audit_scalar_straddle(stg.builtin("sq_norm"))
    assert report.kind == au.VIOLATION
    x, u = report.witness_point
    s3 = sy.make_sigma3_scalar()
    res = recheck_violation(s3, stg.builtin("sq_norm"), 1.0, [x], [u])
    assert res > 1e-6


def test_straddle_violation_is_first_in_scan_order():
    """The batched scan reports the first violating x and its worst residual and u."""
    sq = stg.builtin("sq_norm")
    s3 = sy.make_sigma3_scalar()
    report = au.audit_scalar_straddle(sq)
    xs = np.linspace(-3.0, 3.0, 201)
    for x in xs[np.abs(xs) > 1e-9]:
        res, _, u = point_residual(s3, sq, 1.0, [x])
        if res > 1e-6:
            break
    assert report.witness_point == (float(x), float(u[0]))
    assert report.detail["residual"] == pytest.approx(res, rel=1e-12)


def test_straddle_reports_the_first_violation_not_the_worst():
    """sq_norm violates from x = -0.48 on in scan order; the worst row is x = 3, near 1e6."""
    report = au.audit_scalar_straddle(stg.builtin("sq_norm"))
    assert report.witness_point == (-0.48, 0.0)
    assert report.detail["residual"] == 0.009216000000000002
    xs = np.linspace(-3.0, 3.0, 201)[:, None]
    worst = hji.Sweep(sy.make_sigma3_scalar(), xs, *stg.builtin("sq_norm").subdiff_batch(xs)
                      ).check(1.0, 1e-6)
    assert worst.worst_x.tolist() == [3.0] and worst.max_residual > 1e5


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


def test_sigma3_pieces_pass_rule():
    d = au.verify_sigma3_pieces()
    assert au.sigma3_pieces_pass(d)
    for case in ("case1_equality", "case2_inequality", "case3_inequality", "case4_equality"):
        assert not au.sigma3_pieces_pass({**d, case: 2e-12})
    assert au.sigma3_pieces_pass({**d, "phi_range": 1.0})   # only the four cases count


def test_sigma3_pieces_read_the_zoo_field(monkeypatch):
    """The audit evaluates make_sigma3_scalar's field: off by 1e-9, it fails the pass rule."""
    shifted = sy.GeneralSystem(1, 1, (f"{sy._scalar_system_src()} + 1e-9",))
    monkeypatch.setattr(au, "make_sigma3_scalar", lambda: shifted)
    assert not au.sigma3_pieces_pass(au.verify_sigma3_pieces())


def _dense_sigma3_pieces(x_grid=None, u_grid=None):
    """The reference: every defect masked out of dense meshgrid arrays."""
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
    m_ge = AA >= BB
    out["psi_bracket_a_ge_b"] = float(np.max(np.maximum(diff - PS, PS - 0.5 * diff)[m_ge]))
    m_le = AA <= BB
    out["psi_bracket_a_le_b"] = float(np.max(np.maximum(0.5 * diff - PS, PS - diff)[m_le]))
    return out


def _bits(d):
    return [(k, float(v).hex()) for k, v in d.items()]


def test_sigma3_pieces_match_dense_reference():
    """Same keys in the same order and bitwise the same values as the dense grids."""
    assert _bits(au.verify_sigma3_pieces()) == _bits(_dense_sigma3_pieces())
    # more rows than the fixed grids, and the largest defects (x < 0) in the last block
    x = np.linspace(3.0, -1.0, 333)
    assert _bits(au.verify_sigma3_pieces(x)) == _bits(_dense_sigma3_pieces(x))


_edge = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -2.0, 3.0, 1e-300, 5e-324])


@settings(max_examples=40, deadline=None)
@given(x=st.lists(st.one_of(_edge, st.floats(-3.0, 3.5)), max_size=90),
       u=st.lists(st.one_of(_edge, st.floats(-4.0, 4.0)), max_size=90),
       x_at=st.integers(0, 90), u_at=st.integers(0, 90), pad=st.integers(0, 400))
def test_sigma3_pieces_match_dense_reference_on_custom_grids(x, u, x_at, u_at, pad):
    """Custom axes with the case boundaries x = 1 and u = +/-1 placed anywhere in
    them.  ``pad`` leading copies of x = 1 push the drawn rows into the last row
    blocks, up to past the fixed grids' 301 rows; the x length is never a
    multiple of the row block."""
    x.insert(x_at % (len(x) + 1), 1.0)
    x = [1.0] * pad + x
    if len(x) % au._PIECE_BLOCK == 0:
        x.append(3.0)
    u[u_at % (len(u) + 1):u_at % (len(u) + 1)] = [-1.0, 1.0]
    assert _bits(au.verify_sigma3_pieces(x, u)) == _bits(_dense_sigma3_pieces(x, u))


def test_sigma3_pieces_name_empty_cases():
    """A case the axes leave without a point is an error naming it, never a -inf defect."""
    with pytest.raises(ValueError, match="case1_equality, case2_inequality$"):
        au.verify_sigma3_pieces(x_grid=[2.0, 3.0])
    with pytest.raises(ValueError, match="no point in case2_inequality, case4_equality$"):
        au.verify_sigma3_pieces(u_grid=[-0.5, 0.5])
    with pytest.raises(ValueError, match="case1_equality, case2_inequality, case3_inequality"):
        au.verify_sigma3_pieces(x_grid=[])
    d = au.verify_sigma3_pieces(x_grid=[1.0], u_grid=[1.0])   # one point meets every case
    assert all(np.isfinite(list(d.values())))


def test_phi_psi_point_values():
    assert phi_clip(1.0, 2.0) == 0.0
    assert phi_clip(1.0, -2.0) == 1.0
    assert phi_clip(-1.5, -2.0) == -1.5
    assert psi_blend(2.0, 3.0) == pytest.approx(0.5)
    assert psi_blend(0.5, 0.25) == pytest.approx(-0.25)


def test_supply_pivot_on_special_input():
    """With u = (x1, |x2|) the supply vanishes identically: |u| = |x|."""
    s1 = sy.make_sigma1()
    rng = np.random.default_rng(6)
    X = rng.uniform(-2, 2, (300, 2))
    U = np.stack([X[:, 0], np.abs(X[:, 1])], axis=-1)
    assert np.all(np.sum(U * U, axis=1) == np.sum(X * X, axis=1))


def test_report_serialization():
    report = au.audit_curve_monotone(stg.builtin("v1"), 1.0, t_grid=[0, 0.5, 1])
    d = cli._plain(report)
    assert d["kind"] == au.VIOLATION and isinstance(d["detail"]["increase"], float)
    assert isinstance(d["claim"], str) and d["claim"]
