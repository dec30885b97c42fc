import itertools
import math
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjikit import hji
from hjikit import storage as stg
from hjikit import systems as sy


@pytest.fixture(scope="module")
def sigma1():
    return sy.make_sigma1()


@pytest.fixture(scope="module")
def region2():
    return hji.Region(box=((-2, 2), (-2, 2)), points_per_dim=41)


def test_supply_examples():
    assert hji.supply([1, 1], [1, 1], 1.0) == 0.0
    assert hji.supply([0, 0], [2, 0], 1.0) == 4.0
    assert hji.supply([3, 4], [0, 0], 5.0) == -25.0


def test_affine_residual_examples(sigma1):
    assert hji.affine_residual(sigma1, [1, 1], [2, 2], 1.0) == 0.0
    assert hji.affine_residual(sigma1, [1, 1], [2, 2], 0.5) == 2.0
    s2 = sy.make_sigma2()
    assert hji.affine_residual(s2, [1, 1], [2, 2 / 3], 1.0) == pytest.approx(0.0, abs=1e-14)
    # zeta = 0 leaves only |x|^2
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-2, 2, 2)
        assert hji.affine_residual(sigma1, x, [0, 0], 2.0) == pytest.approx(x @ x)


def test_general_residual_examples():
    s3 = sy.make_sigma3_scalar()
    res, u = hji.general_residual(s3, [0.5], [1.0], 1.0, u_box=[(-3, 3)], u_points=241)
    assert res == pytest.approx(0.0, abs=1e-9)
    sp = sy.make_sigma_p(3.0)
    res, _ = hji.general_residual(sp, [1, 1], [1, 1], 0.01, warn_on_boundary=False)
    assert res <= 1e-12


def test_affine_general_cross_check(sigma1):
    exact = hji.affine_residual(sigma1, [1, 1], [2, 2], 1.0)
    approx, u = hji.general_residual(sigma1, [1, 1], [2, 2], 1.0,
                                     u_box=[(-4, 4), (-4, 4)], u_points=81)
    assert abs(exact - approx) <= 1e-3
    assert np.allclose(u, [1, 1], atol=0.11)
    # off-grid maximizer: the gap is bounded by the quadratic grid error
    exact = hji.affine_residual(sigma1, [1, 1], [2, 2], 0.7)
    approx, _ = hji.general_residual(sigma1, [1, 1], [2, 2], 0.7,
                                     u_box=[(-4, 4), (-4, 4)], u_points=81)
    spacing = 8 / 80
    assert 0 <= exact - approx <= 0.7 * 2 * spacing ** 2


def test_boundary_warning():
    s1 = sy.make_sigma1()
    with pytest.warns(UserWarning, match="boundary"):
        hji.general_residual(s1, [1, 1], [2, 2], 1.0, u_box=[(-0.5, 0.5)] * 2)


def test_power_residual_matches_affine_at_p1(sigma1):
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(-2, 2, 2)
        z = rng.uniform(-3, 3, 2)
        gamma = rng.uniform(0.2, 3)
        assert hji.power_residual(sigma1, x, z, gamma) == pytest.approx(
            hji.affine_residual(sigma1, x, z, gamma), rel=1e-12, abs=1e-12)


def test_power_residual_p2_and_fractional():
    ps = sy.AffineSystem(1, 1, ("-x1",), (("1",),), p=2.0, phi="abs_pow")
    assert hji.power_residual(ps, [1.0], [0.5], 1.0) == pytest.approx(-0.5 + 1.0)
    assert hji.power_residual(ps, [1.0], [2.0], 1.0) == math.inf
    # p = 1.5: cross-check the closed form against a dense grid sup
    ps = sy.AffineSystem(1, 1, ("-x1",), (("1",),), p=1.5, phi="abs_pow")
    closed = hji.power_residual(ps, [1.0], [1.2], 1.0)
    r = np.linspace(-10, 10, 200001)
    grid = np.max(1.2 * np.abs(r) ** 1.5 - r * r) + (-1.2 + 1.0)
    assert closed == pytest.approx(grid, abs=1e-6)


def test_tensor_grid_is_the_product_in_row_major_order():
    axes = [np.linspace(-1.0, 1.0, 3), np.array([0.5, 2.0]), np.geomspace(1e-3, 2.0, 4)]
    for k in range(len(axes) + 1):
        ref = np.array(list(itertools.product(*axes[:k])), dtype=float)
        got = hji.tensor_grid(axes[:k])
        assert got.shape == ref.shape and np.array_equal(got, ref)


def test_region_grid_excludes_origin():
    reg = hji.Region(box=((-1, 1),), points_per_dim=5, exclude_radius=0.1)
    pts = reg.grid()
    assert 0.0 not in pts[:, 0]
    with pytest.raises(ValueError):
        hji.Region(box=((-1, 1),), points_per_dim=5, exclude_radius=0.0)
    with pytest.raises(hji.EmptyRegionError):
        hji.check_witness(sy.make_scalar_linear(), stg.builtin("sq_norm"), 1.0,
                          hji.Region(box=((-0.01, 0.01),), points_per_dim=3,
                                     exclude_radius=10.0))


def test_check_witness_worked_examples(sigma1, region2):
    rep = hji.check_witness(sigma1, stg.builtin("v1_scaled"), 1.0, region2)
    assert rep.passed and rep.max_residual <= 1e-9
    assert rep.mode == "exact"
    rep9 = hji.check_witness(sigma1, stg.builtin("v1_scaled"), 0.9, region2)
    assert not rep9.passed
    assert hji.affine_residual(sigma1, [1, 1], [2, 2], 0.9) == pytest.approx(
        2 / 0.9 - 2, abs=1e-12)


def test_check_witness_zero_coefficient_rule(region2):
    """x2 = 0 rows pass because the unbounded coordinate multiplies zero fields."""
    s2 = sy.make_sigma2()
    rep = hji.check_witness(s2, stg.builtin("v2"), 1.0, region2)
    assert rep.passed
    grid = region2.grid()
    assert np.any(grid[:, 1] == 0.0)  # the rule was actually exercised
    # a system whose second field does not vanish at x2 = 0 must be rejected
    bad = sy.AffineSystem(2, 2, ("-x1", "-x2+0.5"), (("1", "0"), ("0", "1")))
    rep = hji.check_witness(bad, stg.builtin("v2"), 1.0, region2)
    assert not rep.passed and math.isinf(rep.max_residual)


def test_check_witness_requires_oracle(region2, sigma1):
    e = stg.StorageCandidate("values_only", lambda X: np.sum(X * X, axis=-1))
    with pytest.raises(stg.MissingOracleError):
        hji.check_witness(sigma1, e, 1.0, region2)


def test_point_residual_matches_check(sigma1):
    res, zeta, u = hji.point_residual(sigma1, stg.builtin("v1_scaled"), 1.0, [1, 1])
    assert res == 0.0 and np.allclose(zeta, [2, 2]) and np.allclose(u, [1, 1])


def test_min_gain_scan_examples(sigma1, region2):
    g = hji.min_gain_scan(sigma1, stg.builtin("v1_scaled"), region2,
                          hji.gamma_range(0.5, 2.0, 0.01)).min_gamma
    assert g == pytest.approx(1.0, abs=1e-12)
    sp = sy.make_sigma_p(3.0)
    g = hji.min_gain_scan(sp, stg.builtin("v1"), region2, [0.01, 0.1, 1.0]).min_gamma
    assert g == 0.01
    # an unattainable gain comes back as None
    assert hji.min_gain_scan(sigma1, stg.builtin("v1_scaled"), region2,
                             [0.1, 0.2]).min_gamma is None
    with pytest.raises(ValueError):
        hji.min_gain_scan(sigma1, stg.builtin("v1_scaled"), region2, [2.0, 1.0])


def test_residual_monotone_in_gamma(sigma1):
    rng = np.random.default_rng(2)
    for _ in range(30):
        x = rng.uniform(0.2, 2, 2)
        z = rng.uniform(-3, 3, 2)
        r1 = hji.affine_residual(sigma1, x, z, 0.8)
        r2 = hji.affine_residual(sigma1, x, z, 1.6)
        fields = sigma1.input_fields(np.asarray(x))
        if any(abs(float(z @ fields[i])) > 1e-12 for i in range(2)):
            assert r1 > r2
        else:
            assert r1 == r2


def test_box_maximum_attained_at_vertices():
    """Convexity in zeta: dense box sampling never beats the vertex maximum."""
    rng = np.random.default_rng(3)
    for _ in range(25):
        coeffs = rng.uniform(-2, 2, 6)
        sysr = sy.AffineSystem(
            2, 2,
            (f"{coeffs[0]}*x1+{coeffs[1]}*x2", f"{coeffs[2]}*x2"),
            ((f"{coeffs[3]}", "0"), (f"{coeffs[4]}*x1", f"{coeffs[5]}")))
        x = rng.uniform(-2, 2, 2)
        lo = rng.uniform(-3, 0, 2)
        hi = lo + rng.uniform(0, 3, 2)
        gamma = rng.uniform(0.3, 2)
        verts = stg.SubdiffSet.box(list(zip(lo, hi))).finite_vertices()
        vmax = max(hji.affine_residual(sysr, x, v, gamma) for v in verts)
        t = rng.uniform(0, 1, (80, 2))
        samples = lo + t * (hi - lo)
        smax = max(hji.affine_residual(sysr, x, s, gamma) for s in samples)
        assert smax <= vmax + 1e-9


def test_zoo_regression_claims():
    """Every zoo claim passes at its gamma; specific-gamma claims fail at 0.9 gamma."""
    for entry in sy.zoo():
        n = entry.system.n
        reg = hji.Region(box=((-2.0, 2.0),) * n,
                         points_per_dim=41 if n > 1 else 81)
        gamma = entry.gamma_for_checks
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = hji.check_witness(entry.system, entry.claimed_witness, gamma, reg)
            assert rep.passed, entry.name
            if entry.has_specific_gamma:
                rep = hji.check_witness(entry.system, entry.claimed_witness,
                                        0.9 * gamma, reg)
                assert not rep.passed, entry.name


def test_report_serialization(sigma1, region2):
    rep = hji.check_witness(sigma1, stg.builtin("v1_scaled"), 1.0, region2)
    d = rep.to_dict()
    assert d["verdict"] == "pass" and isinstance(d["worst_x"], list)
    assert d["points_checked"] == 1680


# ---------------------------------------------------------------------------
# the batched kernel against the scalar reference
# ---------------------------------------------------------------------------

_BAD_V2 = sy.AffineSystem(2, 2, ("-x1", "-x2+0.5"), (("1", "0"), ("0", "1")), name="bad")
_P2 = sy.AffineSystem(2, 1, ("-x1", "-x2"), (("x2", "x1"),), p=2.0, phi="abs_pow",
                      name="p2")
_P1999 = sy.AffineSystem(1, 1, ("-x1",), (("1",),), p=1.999, phi="abs_pow",
                         name="p1.999")
# sigma2 and the "bad" system written without structure: the sampled path's
# zero-coefficient rule on v2's unbounded axis
_SIGMA2_GENERAL = sy.GeneralSystem(
    2, 2, ("-x1+x2+u1", "3*pow(cbrt(x2),4)*(-x1-x2+u2)"), name="sigma2_general")
_BAD_V2_GENERAL = sy.GeneralSystem(2, 2, ("-x1+u1", "-x2+0.5+u2"), name="bad_general")
_KERNEL_CASES = {
    "sigma1/v1_scaled": (sy.make_sigma1(), "v1_scaled"),
    "bad/v1_scaled": (_BAD_V2, "v1_scaled"),
    "p2/v1": (_P2, "v1"),
    "sigma1/v1": (sy.make_sigma1(), "v1"),
    "sigma2/v2": (sy.make_sigma2(), "v2"),
    "bad/v2": (_BAD_V2, "v2"),
    "sigma1_c1/v1_scaled": (sy.make_sigma1_c1(), "v1_scaled"),
    "sigma_p(1.5)/v1": (sy.make_sigma_p(1.5), "v1"),
    "sigma_p(1.5)/sq_norm": (sy.make_sigma_p(1.5), "sq_norm"),
    "sigma_p(3)/v1": (sy.make_sigma_p(3.0), "v1"),
    "sigma_p(3)/sq_norm": (sy.make_sigma_p(3.0), "sq_norm"),
    "sigma_p_signed(3)/v1": (sy.make_sigma_p_signed(3.0), "v1"),
    "sigma_p_signed(3)/sq_norm": (sy.make_sigma_p_signed(3.0), "sq_norm"),
    "p2/sq_norm": (_P2, "sq_norm"),
    "sigma3_scalar/v3_scalar": (sy.make_sigma3_scalar(), "v3_scalar"),
    "scalar_linear/v3_scalar": (sy.make_scalar_linear(), "v3_scalar"),
    "p1.999/sq_norm": (_P1999, "sq_norm"),
    "sigma2_general/v2": (_SIGMA2_GENERAL, "v2"),
    "bad_general/v2": (_BAD_V2_GENERAL, "v2"),
}


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
@settings(max_examples=15, deadline=None)
@given(gamma=st.floats(0.2, 3.0), data=st.data())
def test_residuals_match_point_residual(case, gamma, data):
    """One kernel call equals point_residual at every point, kink loci included.

    The two paths sum the same terms in different orders, so finite values
    agree to 1e-12, relative to the residual's size once it exceeds 1.
    """
    sysm, name = _KERNEL_CASES[case]
    V = stg.builtin(name)
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    drawn = data.draw(st.lists(st.lists(coord, min_size=sysm.n, max_size=sysm.n),
                               min_size=1, max_size=6))
    X = np.concatenate([np.array(drawn),
                        np.random.default_rng(len(drawn)).uniform(-2, 2, (10, sysm.n))])
    copies = [X]
    for axis, value in V.kinks:
        Y = X.copy()
        Y[:, axis] = value + data.draw(st.floats(-1e-12, 1e-12))
        copies.append(Y)
    X = np.concatenate(copies)
    X = X[np.linalg.norm(X, axis=1) > 0.0]
    u_box = [(-4.0, 4.0)] * sysm.m
    res, zeta, u = hji.residuals(sysm, *V.subdiff_batch(X), X, gamma, u_box=u_box)
    for q, x in enumerate(X):
        ref, ref_zeta, _ = hji.point_residual(sysm, V, gamma, x, u_box=u_box)
        if math.isinf(ref):
            assert res[q] == ref, (x, res[q], ref)
        else:
            assert abs(res[q] - ref) <= 1e-12 * max(1.0, abs(ref)), (x, res[q], ref)
        if ref_zeta is None:
            assert np.all(np.isnan(zeta[q]))


def test_power_affine_exact_for_every_p():
    """p > 2: +inf where a channel coefficient is nonzero, the drift terms where it vanishes."""
    sp = sy.make_sigma_p(3.0)
    assert hji.power_residual(sp, [1.0, 0.5], [2.0, 1.0], 1.0) == math.inf
    # the L1 gradient annihilates the oscillator channel: only zeta.g0 + |x|^2 remains
    x, z = np.array([1.0, 0.5]), np.array([1.0, 1.0])
    assert hji.power_residual(sp, x, z, 0.01) == pytest.approx(
        float(z @ sp.drift(x)) + float(x @ x), abs=1e-15)
    rep = hji.check_witness(sp, stg.builtin("v1"), 0.01,
                            hji.Region(box=((-2, 2), (-2, 2)), points_per_dim=21))
    assert rep.passed and rep.mode == "exact" and rep.tolerance == hji.DEFAULT_TOL_EXACT


def test_power_affine_near_p2_overflow_fails():
    """p = 1.999: the maximizing r overflows from c ~ 1.5 on; the sup is +inf, never NaN."""
    x, zeta = np.array([1.0]), np.array([2.0])            # channel coefficient 2
    assert hji.power_residual(_P1999, x, zeta, 1.0) == math.inf
    # the sampled sup at u = 8 is already about +63
    assert 2 * 8 ** 1.999 - 64 + float(zeta @ _P1999.drift(x)) + 1 > 60
    V = stg.builtin("sq_norm")
    X = np.array([[0.5], [1.0], [2.0]])
    res, _, _ = hji.residuals(_P1999, *V.subdiff_batch(X), X, 1.0)
    assert not np.any(np.isnan(res)) and np.all(np.isinf(res[1:])) and res[0] < 0
    rep = hji.check_witness(_P1999, V, 1.0, hji.Region(box=((-2, 2),), points_per_dim=41))
    assert rep.mode == "exact" and not rep.passed and math.isinf(rep.max_residual)


def test_grid_visits_kink_loci():
    even = hji.Region(box=((-2, 2), (-2, 2)), points_per_dim=40)
    assert not np.any(even.grid()[:, 1] == 0.0)
    v2 = stg.builtin("v2")
    rep = hji.check_witness(sy.make_sigma2(), v2, 1.0, even)
    assert rep.passed and rep.points_checked == 40 * 41
    assert np.count_nonzero(rep.grid[:, 1] == 0.0) == 40   # the zero-coefficient rows
    rep = hji.check_witness(_BAD_V2, v2, 1.0, even)
    assert not rep.passed and math.isinf(rep.max_residual) and rep.worst_x[1] == 0.0
    # odd symmetric grids already visit the loci and keep their point counts
    odd = hji.Region(box=((-2, 2), (-2, 2)), points_per_dim=41)
    assert odd.grid(v2.kinks).shape == odd.grid().shape
    line = hji.Region(box=((-3, 3),), points_per_dim=8)
    pts = line.grid(stg.builtin("v3_scalar").kinks)[:, 0]
    assert 1.0 in pts and pts.size == 9       # x = 1 added; x = 0 added, then excluded


_SCANS = {
    "sigma1/v1_scaled": (sy.make_sigma1(), "v1_scaled", 2, hji.gamma_range(0.5, 2.0, 0.01)),
    "sigma2/v2": (sy.make_sigma2(), "v2", 2, hji.gamma_range(0.5, 2.0, 0.01)),
    "power p=1.5": (sy.AffineSystem(1, 1, ("-x1",), (("1",),), p=1.5, phi="abs_pow"),
                    "sq_norm", 1, hji.gamma_range(0.5, 3.0, 0.01)),
    "sigma3_scalar/v3_scalar": (sy.make_sigma3_scalar(), "v3_scalar", 1,
                                hji.gamma_range(0.8, 1.2, 0.01)),
    "none passes": (sy.make_sigma1(), "v1_scaled", 2, hji.gamma_range(0.1, 0.5, 0.01)),
}


def test_min_gain_bisection_finds_every_threshold(monkeypatch):
    """Against a pass/fail threshold at every grid position, bisection returns that gamma."""
    gammas = hji.gamma_range(0.5, 2.0, 0.01)
    for t in range(len(gammas) + 1):
        threshold = gammas[t] if t < len(gammas) else math.inf
        sweep = types.SimpleNamespace(exact=False, check=lambda g, tol: hji.WitnessReport(
            "pass" if g >= threshold else "fail", 0.0, None, None, None, 1))
        monkeypatch.setattr(hji.Sweep, "of", staticmethod(lambda *a, sweep=sweep: sweep))
        assert hji.min_gain_scan(None, None, None, gammas).min_gamma == (
            gammas[t] if t < len(gammas) else None)


@pytest.mark.parametrize("case", sorted(_SCANS))
def test_min_gain_bisection_matches_linear_scan(case, monkeypatch):
    sysm, name, n, gammas = _SCANS[case]
    V = stg.builtin(name)
    region = hji.Region(box=((-1.5, 1.5),) * n, points_per_dim=13 if n > 1 else 61)
    linear = next((g for g in gammas
                   if hji.check_witness(sysm, V, g, region).passed), None)
    sweeps = []
    check = hji.Sweep.check
    monkeypatch.setattr(hji.Sweep, "check", lambda *a, **k: sweeps.append(1) or check(*a, **k))
    assert hji.min_gain_scan(sysm, V, region, gammas).min_gamma == linear
    assert len(sweeps) <= math.ceil(math.log2(len(gammas) + 1))
    if case == "none passes":
        assert linear is None


# ---------------------------------------------------------------------------
# The closed-form minimal gain: one needed-gain pass, two confirming checks
# ---------------------------------------------------------------------------

def _bisected(sysm, V, region, gammas):
    """The reference answer: bisection over the grid with real witness checks."""
    first, last = 0, len(gammas)
    while first < last:
        mid = (first + last) // 2
        if hji.check_witness(sysm, V, gammas[mid], region).passed:
            last = mid
        else:
            first = mid + 1
    return gammas[first] if first < len(gammas) else None


def _scan_counted(sysm, V, region, gammas):
    """min_gain_scan and the witness checks it made on its sweep."""
    with mock.patch.object(hji.Sweep, "check", autospec=True,
                           side_effect=hji.Sweep.check) as check:
        scan = hji.min_gain_scan(sysm, V, region, gammas)
    return scan, check.call_count


_EXACT_CASES = {
    **{case: (sysm, stg.builtin(name),
              hji.Region(box=((-1.5, 1.5),) * n, points_per_dim=13 if n > 1 else 61), gammas)
       for case, (sysm, name, n, gammas) in _SCANS.items()},
    **{f"zoo {e.name}": (e.system, e.claimed_witness,
                         hji.Region(box=((-2.0, 2.0),) * e.system.n, points_per_dim=21),
                         hji.gamma_range(0.5, 2.0, 0.01))
       for e in sy.zoo()},
}


@pytest.mark.parametrize("case", sorted(_EXACT_CASES))
def test_exact_scan_equals_bisection(case):
    """On every zoo entry and scan case the scan returns bisection's answer; an exact
    scan makes at most 2 witness checks and reports the largest needed gain."""
    sysm, V, region, gammas = _EXACT_CASES[case]
    scan, calls = _scan_counted(sysm, V, region, gammas)
    assert scan.min_gamma == _bisected(sysm, V, region, gammas)
    if isinstance(sysm, sy.AffineSystem):
        assert calls <= 2
        X = region.grid(V.kinks)
        need = hji.needed_gains(sysm, *V.subdiff_batch(X), X, hji.DEFAULT_TOL_EXACT)
        assert scan.gamma_star == need.max() and scan.gamma_star_x.tolist() == \
            X[np.argmax(need)].tolist()
    else:
        assert scan.gamma_star is None and scan.gamma_star_x is None
        assert calls <= math.ceil(math.log2(len(gammas) + 1))


@pytest.mark.parametrize("case", ["sigma1/v1_scaled", "power p=1.5", "none passes",
                                  "zoo sigma_p(3)"])
def test_confirmation_mismatch_falls_back_to_bisection(case, monkeypatch):
    """A confirming check that disagrees with the closed form (here: the first one,
    its verdict flipped) sends the scan to bisection, which gives its answer."""
    sysm, V, region, gammas = _EXACT_CASES[case]
    expected = _bisected(sysm, V, region, gammas)
    check, calls = hji.Sweep.check, []

    def flip_first(*a, **k):
        rep = check(*a, **k)
        calls.append(rep)
        if len(calls) == 1:
            rep.verdict = "fail" if rep.passed else "pass"
        return rep
    monkeypatch.setattr(hji.Sweep, "check", flip_first)
    assert hji.min_gain_scan(sysm, V, region, gammas).min_gamma == expected
    assert len(calls) > 2


@pytest.mark.parametrize("case", ["sigma1/v1_scaled", "sigma3_scalar/v3_scalar"])
def test_min_gain_scan_builds_one_sweep(case):
    """A scan builds the region grid and the candidate's boxes once: the exact scan's
    needed gains and both confirmations, and every sampled bisection step, read one
    sweep."""
    sysm, V, region, gammas = _EXACT_CASES[case]
    with mock.patch.object(hji.Region, "grid", autospec=True,
                           side_effect=hji.Region.grid) as grid, \
            mock.patch.object(stg.StorageCandidate, "subdiff_batch", autospec=True,
                              side_effect=stg.StorageCandidate.subdiff_batch) as boxes:
        scan = hji.min_gain_scan(sysm, V, region, gammas)
    assert scan.min_gamma == _bisected(sysm, V, region, gammas)
    assert grid.call_count == 1 and boxes.call_count == 1


_MONOMIALS = ("0", "1", "x1", "x2", "x1*x2", "abs(x1)", "x1*x1", "abs(x2)*x1")


@st.composite
def _power_affine_scans(draw):
    """A random 2-D (power-)affine system with a dissipative drift, a quadratic or
    L1-type candidate, and an 8-point gamma grid placed below, around or above the
    largest needed gain (or around 1 where that is 0 or +inf)."""
    p = draw(st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(1.05, 1.9)))
    phi = draw(st.sampled_from(["abs_pow", "signed_pow"]))
    m = draw(st.integers(1, 2))
    coef = st.integers(-2, 2)

    def field(j):
        extra = " + ".join(f"({draw(coef)})*{draw(st.sampled_from(_MONOMIALS[2:]))}"
                           for _ in range(2))
        return f"-{draw(st.sampled_from([0.5, 2, 4]))}*x{j} + 0.1*({extra})"
    g0 = (field(1), field(2))
    g = tuple(tuple(f"{draw(coef)}*{draw(st.sampled_from(_MONOMIALS))}" for _ in range(2))
              for _ in range(m))
    sysm = sy.AffineSystem(2, m, g0, g, p=p, phi=phi)
    a, b = draw(st.sampled_from([0.5, 1.0, 2.5])), draw(st.sampled_from([0.5, 1.0, 2.5]))
    if draw(st.booleans()):
        V = stg.from_expression(f"{a}*x1*x1 + {b}*x2*x2", 2)
    else:
        V = stg.from_expression(f"{a}*abs(x1) + {b}*abs(x2)", 2, kinks=((0, 0.0), (1, 0.0)))
    region = hji.Region(box=((-1.5, 1.3), (-1.2, 1.5)), points_per_dim=6)
    X = region.grid(V.kinks)
    star = hji.needed_gains(sysm, *V.subdiff_batch(X), X, hji.DEFAULT_TOL_EXACT).max()
    center = draw(st.sampled_from([0.25, 0.9, 1.0, 1.1, 4.0]))
    if 0 < star < math.inf:
        center *= star
    return sysm, V, region, [center * (0.7 + 0.6 * i / 7) for i in range(8)], star


@settings(max_examples=80, deadline=None)
@given(_power_affine_scans())
def test_exact_scan_equals_bisection_on_generated_systems(case):
    """p = 1, 1 < p < 2, p = 2 and p > 2, both phis: the exact scan returns bisection's
    answer with at most 2 witness checks, none passes when the whole grid lies below
    the largest needed gain, and all do when it lies above."""
    sysm, V, region, gammas, star = case
    scan, calls = _scan_counted(sysm, V, region, gammas)
    assert scan.min_gamma == _bisected(sysm, V, region, gammas)
    assert calls <= 2 and scan.gamma_star == star
    if gammas[-1] < star:
        assert scan.min_gamma is None
    if gammas[0] > star:
        assert scan.min_gamma == gammas[0]
    if 0 < star < math.inf:      # the needed gain is the threshold, not just on the grid
        X = region.grid(V.kinks)
        lo, hi = V.subdiff_batch(X)
        assert hji.residuals(sysm, lo, hi, X, star * 1.01)[0].max() <= hji.DEFAULT_TOL_EXACT
        assert hji.residuals(sysm, lo, hi, X, star / 1.01)[0].max() > hji.DEFAULT_TOL_EXACT


def _sweep_step(sweep, step):
    """One use of a sweep as comparable bytes: a check and the residuals at a gamma, or
    the needed gains."""
    if step == "needed gains":
        return sweep.needed_gains(hji.DEFAULT_TOL_EXACT).tobytes()
    report = sweep.check(step)
    return repr(report.to_dict()), *(a.tobytes() for a in sweep.residuals(step))


def _assert_sweep_keeps_no_state(sysm, V, region):
    """One sweep reused across gammas and a needed-gain pass gives, at every step,
    bitwise what a fresh sweep gives."""
    reused = hji.Sweep.of(sysm, V, region)
    for step in (0.9, 1.3, 0.9, "needed gains", 1.0):
        if step == "needed gains" and not reused.exact:
            with pytest.raises(TypeError):
                reused.needed_gains(hji.DEFAULT_TOL_EXACT)
            continue
        assert _sweep_step(reused, step) == _sweep_step(hji.Sweep.of(sysm, V, region), step)


@settings(max_examples=40, deadline=None)
@given(_power_affine_scans())
def test_sweep_keeps_no_state_between_gammas(case):
    """p = 1, 1 < p < 2, p = 2 and p > 2, both phis."""
    sysm, V, region, _, _ = case
    _assert_sweep_keeps_no_state(sysm, V, region)


def test_sampled_sweep_keeps_no_state_between_gammas():
    sysm, V, region, _ = _EXACT_CASES["sigma3_scalar/v3_scalar"]
    _assert_sweep_keeps_no_state(sysm, V, region)


# ---------------------------------------------------------------------------
# The numpy Simpson rule is scipy's, bit for bit (scipy is a test dependency only)
# ---------------------------------------------------------------------------

def test_cumulative_simpson_matches_scipy_on_the_i1_grid():
    from scipy.integrate import cumulative_simpson

    from hjikit import smoothing as sm
    y = sm._I1_GRID * sm.kernel(sm._I1_GRID)
    assert sm._build_i1_table().tobytes() == \
        cumulative_simpson(y, x=sm._I1_GRID, initial=0.0).tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 1001), seed=st.integers(0, 2 ** 32 - 1),
       start=st.floats(-1e3, 1e3), spread=st.floats(0.0, 6.0),
       zeros=st.floats(0.0, 1.0))
def test_cumulative_simpson_matches_scipy_on_unequal_grids(n, seed, start, spread, zeros):
    """Steps spread over `spread` decades; a share `zeros` of the samples is +-0.0."""
    from scipy.integrate import cumulative_simpson
    rng = np.random.default_rng(seed)
    x = start + np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(-spread, 0.0, n - 1))])
    y = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
    y[rng.random(n) < zeros] = 0.0
    y = np.copysign(y, rng.normal(size=n))
    assert hji._cumulative_simpson(y, x).tobytes() == \
        cumulative_simpson(y, x=x, initial=0.0).tobytes()
