import gc
import itertools
import math
import types
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hjikit import cli, hji
from hjikit import storage as stg
from hjikit import systems as sy
from reference import (affine_residual, finite_vertices, general_residual, point_residual,
                       power_residual, supply)


@pytest.fixture(scope="module")
def sigma1():
    return sy.make_sigma1()


@pytest.fixture(scope="module")
def region2():
    return hji.Region(box=((-2, 2), (-2, 2)), points_per_dim=41)


def test_supply_examples():
    assert supply([1, 1], [1, 1], 1.0) == 0.0
    assert supply([0, 0], [2, 0], 1.0) == 4.0
    assert supply([3, 4], [0, 0], 5.0) == -25.0


def test_affine_residual_examples(sigma1):
    assert affine_residual(sigma1, [1, 1], [2, 2], 1.0) == 0.0
    assert affine_residual(sigma1, [1, 1], [2, 2], 0.5) == 2.0
    s2 = sy.make_sigma2()
    assert affine_residual(s2, [1, 1], [2, 2 / 3], 1.0) == pytest.approx(0.0, abs=1e-14)
    # zeta = 0 leaves only |x|^2
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-2, 2, 2)
        assert affine_residual(sigma1, x, [0, 0], 2.0) == pytest.approx(x @ x)


def test_general_residual_examples():
    s3 = sy.make_sigma3_scalar()
    res, u = general_residual(s3, [0.5], [1.0], 1.0)
    assert res == pytest.approx(0.0, abs=1e-9)
    sp = sy.make_sigma_p(3.0)
    res, _ = general_residual(sp, [1, 1], [1, 1], 0.01)
    assert res <= 1e-12


def test_affine_general_cross_check(sigma1):
    exact = affine_residual(sigma1, [1, 1], [2, 2], 1.0)
    approx, u = general_residual(sigma1, [1, 1], [2, 2], 1.0)
    assert abs(exact - approx) <= 1e-3
    assert np.allclose(u, [1, 1], atol=0.11)
    # off-grid maximizer u* = (1/0.7, 1/0.7): the gap is bounded by the quadratic grid
    # error at the nearest node, gamma sum_i (h_i/2)^2 with h_i the fixed grid's spacing
    # around u*_i
    exact = affine_residual(sigma1, [1, 1], [2, 2], 0.7)
    approx, _ = general_residual(sigma1, [1, 1], [2, 2], 0.7)
    axis = hji._u_grid(1)[:, 0]
    k = np.searchsorted(axis, 1 / 0.7)
    assert 0 <= exact - approx <= 0.7 * 2 * ((axis[k] - axis[k - 1]) / 2) ** 2


def test_fixed_input_grid():
    """79^m nodes, the tensor grid of one axis u = d/sqrt(1-d^2): d every 0.05 in
    [-0.95, 0.95] and 20 tail nodes per side with 1 - |d| geometric from 0.05 to 1e-6, so
    u = 0 is a node, |u_i| <= 707, and beyond |u| = 3.04 each node is 1.31 times the one
    before (up to 1.34); one read-only array per m."""
    for m in (0, 1, 2):
        U = hji._u_grid(m)
        assert U.shape == (79 ** m, m) and not U.flags.writeable and U is hji._u_grid(m)
        assert np.count_nonzero(np.all(U == 0.0, axis=1)) == 1
    axis = hji._u_grid(1)[:, 0]
    tail = 1 - np.geomspace(0.05, 1e-6, 21)[1:]
    d = np.concatenate([-tail[::-1], np.linspace(-1.0, 1.0, 41)[1:-1], tail])
    assert axis.tolist() == hji.decompactify(d[:, None])[:, 0].tolist()
    assert np.all(np.diff(axis) > 0) and 707.1 < -axis[0] and axis[-1] < 707.2
    ratio = axis[59:] / axis[58:-1]
    assert axis[58] == pytest.approx(3.04, abs=0.01) and np.all((1.3 < ratio) & (ratio < 1.34))
    assert hji._u_grid(2)[:79].tolist() == [[axis[0], u] for u in axis]


@pytest.mark.parametrize("F, gamma, half, ppd, least, reach", [
    ("-x1 + x1*pow(max(abs(u1)-10, 0), 2)", 1.0, 2.0, 81, 1e6, (700, 708)),
    ("-100*x1 + 20*u1", 2.0, 10.0, 41, 1.0, (3.1, 700)),
    ("-5000*x1 + 100*u1", 1.0, 2.0, 41, 1.0, (3.1, 700))])
def test_growth_beyond_the_region_fails(F, gamma, half, ppd, least, reach):
    """With sq_norm the first system's residual is +inf at every x != 0 (F grows like
    x u^2 beyond |u| = 10); a u-box scaled to the region (|u| <= 8 on [-2, 2]) passed it,
    and the grid's outer node finds the growth.  The others' residual is
    x^2 - gamma (u - u*)^2, u* = 10 x and 100 x: > 0 at every x != 0.  Both passed an axis
    without nodes between |u| = 3.04 and 707 (max residual -7.4 and -48, at |u| = 3.04);
    the tail nodes come close enough to u*."""
    rep = hji.check_witness(sy.GeneralSystem(1, 1, (F,)), stg.builtin("sq_norm"), gamma,
                            hji.Region(box=((-half, half),), points_per_dim=ppd))
    assert not rep.passed and rep.max_residual > least
    assert reach[0] < abs(rep.worst_u[0]) < reach[1]


_QUADRATIC = ("1", "x1", "x2", "x1*x2", "x1*x1", "x2*x2")


@st.composite
def _affine_as_general(draw):
    """A random input-affine system with fields of degree at most 2, written both as an
    AffineSystem and as a GeneralSystem, with a point, a zeta and a gamma."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    terms = st.sampled_from([t for t in _QUADRATIC if n == 2 or "x2" not in t])
    coef = st.floats(-2.0, 2.0, allow_nan=False)

    def field():
        return " + ".join(f"({draw(coef)!r})*{draw(terms)}" for _ in range(2))
    g0 = tuple(field() for _ in range(n))
    g = tuple(tuple(field() for _ in range(n)) for _ in range(m))
    F = tuple(" + ".join([f"({g0[j]})"] + [f"u{i + 1}*({g[i][j]})" for i in range(m)])
              for j in range(n))
    vec = lambda k, bound: np.array(draw(st.lists(st.floats(-bound, bound), min_size=k,
                                                  max_size=k)))
    affine, x, zeta = sy.AffineSystem(n, m, g0, g), vec(n, 2.0), vec(n, 3.0)
    # gamma puts the largest |u*_i| = |c_i| / (2 gamma) at a log-uniform draw in
    # [0.01, 700], so many draws land in the grid's tail (|u| > 3.04)
    top = float(np.max(np.abs(affine.input_fields(x) @ zeta)))
    reach = 10.0 ** draw(st.floats(-2.0, math.log10(700.0)))
    gamma = top / (2.0 * reach) if top > 1e-3 else draw(st.floats(0.2, 3.0))
    return affine, sy.GeneralSystem(n, m, F), x, zeta, gamma


@settings(max_examples=200, deadline=None)
@given(_affine_as_general())
def test_sampled_sup_brackets_the_exact_sup(case):
    """On the fixed grid the sampled sup never exceeds the exact one (beyond rounding,
    1e-12 of the terms' size), and lies at most gamma sum_i h_i^2 below it, h_i the
    grid spacing around the exact maximizer u*_i (|u*| <= 700), and h_i <= 0.06 + |u*_i|/2,
    so the bound binds in the grid's tail too."""
    affine, general, x, zeta, gamma = case
    c = affine.input_fields(x) @ zeta
    u_star = c / (2.0 * gamma)
    assume(np.all(np.abs(u_star) <= 700.0))
    exact = affine_residual(affine, x, zeta, gamma)
    sampled, _ = general_residual(general, x, zeta, gamma)
    size = abs(float(zeta @ affine.drift(x))) + float(c @ c) / (4.0 * gamma) + float(x @ x)
    assert sampled <= exact + 1e-12 * max(1.0, size)
    axis = hji._u_grid(1)[:, 0]
    k = np.searchsorted(axis, u_star)
    h = axis[k] - axis[k - 1]
    assert np.all(h <= 0.06 + 0.5 * np.abs(u_star))     # the grid's reach, up to 707
    assert sampled >= exact - gamma * float(h @ h)


def test_power_residual_matches_affine_at_p1(sigma1):
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(-2, 2, 2)
        z = rng.uniform(-3, 3, 2)
        gamma = rng.uniform(0.2, 3)
        assert power_residual(sigma1, x, z, gamma) == pytest.approx(
            affine_residual(sigma1, x, z, gamma), rel=1e-12, abs=1e-12)


def test_power_residual_p2_and_fractional():
    ps = sy.AffineSystem(1, 1, ("-x1",), (("1",),), p=2.0, phi="abs_pow")
    assert power_residual(ps, [1.0], [0.5], 1.0) == pytest.approx(-0.5 + 1.0)
    assert power_residual(ps, [1.0], [2.0], 1.0) == math.inf
    # p = 1.5: cross-check the closed form against a dense grid sup
    ps = sy.AffineSystem(1, 1, ("-x1",), (("1",),), p=1.5, phi="abs_pow")
    closed = power_residual(ps, [1.0], [1.2], 1.0)
    r = np.linspace(-10, 10, 200001)
    grid = np.max(1.2 * np.abs(r) ** 1.5 - r * r) + (-1.2 + 1.0)
    assert closed == pytest.approx(grid, abs=1e-6)


def test_tensor_grid_is_the_product_in_row_major_order():
    axes = [np.linspace(-1.0, 1.0, 3), np.array([0.5, 2.0]), np.geomspace(1e-3, 2.0, 4)]
    for k in range(len(axes) + 1):
        ref = np.array(list(itertools.product(*axes[:k])), dtype=float)
        got = hji.tensor_grid(axes[:k])
        assert got.shape == ref.shape and np.array_equal(got, ref)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_annulus_grid_is_the_masked_tensor_grid(n, seed, data):
    """The mask and points equal, bit for bit, the tensor grid's row norms
    (np.linalg.norm) masked to [r_min, r_max], with a different coordinate array per
    axis.  The radii are norms of grid points, and [r_max, r_max] keeps exactly the
    points of that norm, so a norm one bit off the reference's changes the mask;
    r_max defaults to inf, as a Region grid takes it."""
    rng = np.random.default_rng(seed)
    axes = [np.sort(rng.uniform(-1.0, 1.0, data.draw(st.integers(1, 30)))) for _ in range(n)]
    grid = hji.tensor_grid(axes)
    norms = np.linalg.norm(grid, axis=1)
    r_min, r_max = sorted(data.draw(st.lists(st.sampled_from(norms), min_size=2, max_size=2)))
    for bounds in ((r_min, r_max), (r_max, r_max), (r_min,), (r_min, math.inf)):
        keep, P = hji.annulus_grid(axes, *bounds)
        lo, hi = (bounds + (math.inf,))[:2]
        assert keep.tobytes() == ((norms >= lo) & (norms <= hi)).tobytes()
        assert P.shape == (int(keep.sum()), n) and P.tobytes() == grid[keep].tobytes()


def test_region_grid_excludes_origin():
    reg = hji.Region(box=((-1, 1),), points_per_dim=5, exclude_radius=0.1)
    pts = reg.grid()
    assert 0.0 not in pts[:, 0]
    assert hji.Region(box=()).grid().shape == (0, 0)      # R^0 holds only the origin
    with pytest.raises(ValueError):
        hji.Region(box=((-1, 1),), points_per_dim=5, exclude_radius=0.0)
    with pytest.raises(hji.EmptyRegionError):
        hji.check_witness(sy.make_scalar_linear(), stg.builtin("sq_norm"), 1.0,
                          hji.Region(box=((-0.01, 0.01),), points_per_dim=3,
                                     exclude_radius=10.0))


@pytest.mark.parametrize("box, axis", [
    (((2, -2), (2, -2)), 0),        # reversed: it would skip the x = 0 kink rows
    (((1, 1), (-2, 2)), 0),         # flat: it would check 41 distinct points 1,640 times
    (((-2, 2), (0.5, 0.5)), 1),
    (((-2, 2), (-math.inf, 2)), 1),
    (((math.nan, 2), (-2, 2)), 0)])
def test_region_needs_finite_increasing_axes(box, axis):
    with pytest.raises(ValueError, match=f"box axis {axis} needs finite lo < hi"):
        hji.Region(box=box, points_per_dim=40)


def test_check_witness_worked_examples(sigma1, region2):
    rep = hji.check_witness(sigma1, stg.builtin("v1_scaled"), 1.0, region2)
    assert rep.passed and rep.max_residual <= 1e-9
    assert rep.mode == "exact"
    rep9 = hji.check_witness(sigma1, stg.builtin("v1_scaled"), 0.9, region2)
    assert not rep9.passed
    assert affine_residual(sigma1, [1, 1], [2, 2], 0.9) == pytest.approx(
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
    res, zeta, u = point_residual(sigma1, stg.builtin("v1_scaled"), 1.0, [1, 1])
    assert res == 0.0 and np.allclose(zeta, [2, 2]) and np.allclose(u, [1, 1])


@pytest.mark.parametrize("start, stop, step", [
    (0.5, 2.0, 0.0), (0.5, 2.0, -0.1), (0.5, 2.0, math.nan), (0.5, 2.0, math.inf),
    (0.5, math.inf, 0.1), (-math.inf, 2.0, 0.1), (math.nan, 2.0, 0.1), (0.5, 2.0, 1e-300),
    (0.5, 2.0, 1e-6), (1.0, 1e6 + 1, 1.0), (-1e308, 1e308, 1.0)])
def test_gamma_range_rejects_bad_grids(start, stop, step):
    """Non-finite bounds, a step that is not finite and positive, and grids of more
    than 10^6 points raise ValueError before any list is built."""
    with pytest.raises(ValueError, match="gamma grid"):
        hji.gamma_range(start, stop, step)


def test_gamma_range_examples():
    assert hji.gamma_range(0.5, 0.53, 0.01) == [0.5, 0.51, 0.52, 0.53]
    assert hji.gamma_range(2.0, 0.5, 0.1) == []
    assert len(hji.gamma_range(1.0, 1e6, 1.0)) == 10 ** 6


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
        r1 = affine_residual(sigma1, x, z, 0.8)
        r2 = affine_residual(sigma1, x, z, 1.6)
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
        verts = finite_vertices(stg.SubdiffSet(tuple(zip(lo.tolist(), hi.tolist()))))
        vmax = max(affine_residual(sysr, x, v, gamma) for v in verts)
        t = rng.uniform(0, 1, (80, 2))
        samples = lo + t * (hi - lo)
        smax = max(affine_residual(sysr, x, s, gamma) for s in samples)
        assert smax <= vmax + 1e-9


def test_zoo_regression_claims():
    """Every zoo claim passes at its gamma; specific-gamma claims fail at 0.9 gamma."""
    for entry in sy.zoo():
        n = entry.system.n
        reg = hji.Region(box=((-2.0, 2.0),) * n,
                         points_per_dim=41 if n > 1 else 81)
        gamma = entry.gamma_for_checks
        rep = hji.check_witness(entry.system, entry.claimed_witness, gamma, reg)
        assert rep.passed, entry.name
        if entry.has_specific_gamma:
            rep = hji.check_witness(entry.system, entry.claimed_witness, 0.9 * gamma, reg)
            assert not rep.passed, entry.name


def test_report_serialization(sigma1, region2):
    rep = hji.check_witness(sigma1, stg.builtin("v1_scaled"), 1.0, region2)
    d = cli._plain(rep)
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
    res, zeta, u = hji.Sweep(sysm, X, *V.subdiff_batch(X)).residuals(gamma)
    for q, x in enumerate(X):
        ref, ref_zeta, _ = point_residual(sysm, V, gamma, x)
        if math.isinf(ref):
            assert res[q] == ref, (x, res[q], ref)
        else:
            assert abs(res[q] - ref) <= 1e-12 * max(1.0, abs(ref)), (x, res[q], ref)
        if ref_zeta is None:
            assert np.all(np.isnan(zeta[q]))


def test_power_affine_exact_for_every_p():
    """p > 2: +inf where a channel coefficient is nonzero, the drift terms where it vanishes."""
    sp = sy.make_sigma_p(3.0)
    assert power_residual(sp, [1.0, 0.5], [2.0, 1.0], 1.0) == math.inf
    # the L1 gradient annihilates the oscillator channel: only zeta.g0 + |x|^2 remains
    x, z = np.array([1.0, 0.5]), np.array([1.0, 1.0])
    assert power_residual(sp, x, z, 0.01) == pytest.approx(
        float(z @ sp.drift(x)) + float(x @ x), abs=1e-15)
    rep = hji.check_witness(sp, stg.builtin("v1"), 0.01,
                            hji.Region(box=((-2, 2), (-2, 2)), points_per_dim=21))
    assert rep.passed and rep.mode == "exact" and rep.tolerance == hji.DEFAULT_TOL_EXACT


def test_power_affine_near_p2_overflow_fails():
    """p = 1.999: the maximizing r overflows from c ~ 1.5 on; the sup is +inf, never NaN."""
    x, zeta = np.array([1.0]), np.array([2.0])            # channel coefficient 2
    assert power_residual(_P1999, x, zeta, 1.0) == math.inf
    # the sampled sup at u = 8 is already about +63
    assert 2 * 8 ** 1.999 - 64 + float(zeta @ _P1999.drift(x)) + 1 > 60
    V = stg.builtin("sq_norm")
    X = np.array([[0.5], [1.0], [2.0]])
    res, _, _ = hji.Sweep(_P1999, X, *V.subdiff_batch(X)).residuals(1.0)
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
    """Against a pass/fail threshold at every grid position, bisection returns that gamma
    (a needed gain of 0 is confirmed only where the first grid gamma passes)."""
    gammas = hji.gamma_range(0.5, 2.0, 0.01)
    for t in range(len(gammas) + 1):
        threshold = gammas[t] if t < len(gammas) else math.inf
        sweep = types.SimpleNamespace(
            X=np.zeros((1, 1)), needed_gains=lambda tol: np.zeros(1),
            check=lambda g, tol: hji.WitnessReport(
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
    """On every zoo entry and scan case the scan returns bisection's answer, makes at
    most 2 witness checks and reports the largest needed gain (exact or sampled)."""
    sysm, V, region, gammas = _EXACT_CASES[case]
    scan, calls = _scan_counted(sysm, V, region, gammas)
    assert scan.min_gamma == _bisected(sysm, V, region, gammas)
    assert calls <= 2
    X = region.grid(V.kinks)
    need = hji.Sweep(sysm, X, *V.subdiff_batch(X)).needed_gains()
    assert scan.gamma_star == need.max()
    if need.max() > 0:
        assert scan.gamma_star_x.tolist() == X[np.argmax(need)].tolist()
    else:                              # every point ties at 0: no point is named
        assert scan.gamma_star_x is None


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
    """A scan builds the region grid and the candidate's boxes once: its needed gains
    and both confirmations read one sweep."""
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
    star = hji.Sweep(sysm, X, *V.subdiff_batch(X)).needed_gains(hji.DEFAULT_TOL_EXACT).max()
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
        sweep = hji.Sweep(sysm, X, lo, hi)
        assert sweep.residuals(star * 1.01)[0].max() <= hji.DEFAULT_TOL_EXACT
        assert sweep.residuals(star / 1.01)[0].max() > hji.DEFAULT_TOL_EXACT


def _sweep_step(sweep, step):
    """One use of a sweep as comparable bytes: a check and the residuals at a gamma, or
    the needed gains."""
    if step == "needed gains":
        return sweep.needed_gains(hji.DEFAULT_TOL_EXACT).tobytes()
    report = sweep.check(step)
    return repr(cli._plain(report)), *(a.tobytes() for a in sweep.residuals(step))


def _assert_sweep_keeps_no_state(sysm, V, region):
    """One sweep reused across gammas and a needed-gain pass gives, at every step,
    bitwise what a fresh sweep gives."""
    reused = hji.Sweep.of(sysm, V, region)
    for step in (0.9, 1.3, 0.9, "needed gains", 1.0):
        assert _sweep_step(reused, step) == _sweep_step(hji.Sweep.of(sysm, V, region), step)


@pytest.mark.parametrize("case", ["zoo sigma1", "sigma3_scalar/v3_scalar"])
def test_sweep_is_freed_without_the_cycle_collector(case):
    """The sup a sweep chooses keeps the sweep's arrays, not the sweep: with the cycle
    collector off, a sweep that was checked and asked for its needed gains is freed as
    soon as its last reference goes (exact on sigma1/v1_scaled, sampled on sigma3_scalar)."""
    sysm, V, region, _ = _EXACT_CASES[case]
    gc.collect()
    gc.disable()
    try:
        sweep = hji.Sweep.of(sysm, V, region)
        sweep.check(1.0)
        sweep.needed_gains()
        ref = weakref.ref(sweep)
        del sweep
        assert ref() is None
    finally:
        gc.enable()


@settings(max_examples=40, deadline=None)
@given(_power_affine_scans())
def test_sweep_keeps_no_state_between_gammas(case):
    """p = 1, 1 < p < 2, p = 2 and p > 2, both phis."""
    sysm, V, region, _, _ = case
    _assert_sweep_keeps_no_state(sysm, V, region)


def test_sampled_sweep_keeps_no_state_between_gammas():
    sysm, V, region, _ = _EXACT_CASES["sigma3_scalar/v3_scalar"]
    _assert_sweep_keeps_no_state(sysm, V, region)


def test_sampled_scan_evaluates_the_dynamics_once(monkeypatch):
    """F does not depend on gamma: where every (point, u) row fits in one chunk, a
    sampled scan makes one dynamics call for its needed gains and both checks; with a
    chunk per point, each pass evaluates every point.  Both give bisection's answer
    and the same needed gain."""
    sysm, V, region, gammas = _EXACT_CASES["sigma3_scalar/v3_scalar"]
    expected = _bisected(sysm, V, region, gammas)
    points = len(region.grid(V.kinks))
    stars = []
    for chunk_rows in (hji._CHUNK_ROWS, 1):
        monkeypatch.setattr(hji, "_CHUNK_ROWS", chunk_rows)
        with mock.patch.object(type(sysm), "dynamics", autospec=True,
                               side_effect=type(sysm).dynamics) as dyn, \
                mock.patch.object(hji.Sweep, "check", autospec=True,
                                  side_effect=hji.Sweep.check) as check:
            scan = hji.min_gain_scan(sysm, V, region, gammas)
        assert scan.min_gamma == expected and check.call_count <= 2
        assert dyn.call_count == (1 if chunk_rows > 1 else (check.call_count + 1) * points)
        stars.append(scan.gamma_star)
    assert stars[0] == stars[1] < math.inf


# ---------------------------------------------------------------------------
# Rows by kind: the partitioned sweep against every row x every vertex, bit for bit
# ---------------------------------------------------------------------------

def _dense_affine_sup(p, gamma, A, ceff, sgn):
    """The exact sup over u as the sweep summed it over all rows: ``np.sum`` of the channels."""
    if p >= 2:
        val, r = np.where(ceff > (gamma if p == 2 else hji._COEFF_ZERO_TOL), math.inf, 0.0), 0.0
    elif p == 1:
        val, r = ceff * ceff / (4.0 * gamma), ceff / (2.0 * gamma)
    else:
        with np.errstate(over="ignore"):
            r = (p * ceff / (2.0 * gamma)) ** (1.0 / (2.0 - p))
            val = gamma * (2.0 - p) / p * r * r
    return A + np.sum(val, axis=1), np.where(np.isinf(val), math.nan, sgn * r)


def _dense_sweep(sysm, X, lo, hi, gamma=None, tol=None):
    """The reference: every row takes every vertex of the axes that any row flips, each
    vertex's parts are built over all rows, and a boolean-scatter fold keeps the first
    maximum.  Residuals (res, zeta, u) at ``gamma``, or the needed gains at ``tol``."""
    Q, n = X.shape
    zlo = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    zhi = np.where(np.isfinite(hi), hi, zlo)
    unbounded, empty = ~(np.isfinite(lo) & np.isfinite(hi)), np.any(lo > hi, axis=1)
    vertices = [zlo]
    for k in reversed([k for k in range(n) if np.any(zhi[:, k] != zlo[:, k])]):
        vertices += [np.where(np.arange(n) == k, zhi, Z) for Z in vertices]
    if isinstance(sysm, sy.AffineSystem):
        signed = sysm.phi == "signed_pow"
        G0, GI = sysm.drift(X), sysm.input_fields(X)
        coef = np.max(np.abs(np.concatenate([G0[None], GI])), axis=0)
        bad = np.any(unbounded & (coef > hji._COEFF_ZERO_TOL), axis=1)
        sups = []
        for Z in vertices:
            c = np.einsum("iqn,qn->qi", GI, Z)
            A = np.sum(Z * G0, axis=1) + np.sum(X * X, axis=1)
            ceff = np.abs(c) if signed else np.maximum(c, 0.0)
            sups.append(_dense_affine_sup(sysm.p, gamma, A, ceff, np.sign(c) if signed else 1.0)
                        if tol is None else (hji._needed_gain(sysm.p, tol, A, ceff),
                                             np.full((Q, sysm.m), math.nan)))
    else:
        U = hji._u_grid(sysm.m)
        F = sysm.dynamics(np.repeat(X, len(U), axis=0), np.tile(U, (Q, 1))).reshape(Q, len(U), -1)
        xx, uu = np.sum(X * X, axis=1)[:, None], np.sum(U * U, axis=1)
        sups = []
        for Z in vertices:
            S = np.einsum("bkn,bn->bk", F, Z)
            if tol is None:
                at_u = S + (xx - gamma * uu)
                best = np.argmax(at_u, axis=1)
                sups.append((at_u[np.arange(Q), best], U[best]))
            else:                   # the largest (B_k - tol)/|u_k|^2, +inf if B_0 > tol
                B = S + xx
                with np.errstate(divide="ignore", invalid="ignore"):
                    need = np.max(np.where(uu > 0, (B - tol) / uu, 0.0), axis=1)
                sups.append((np.where(B[:, uu == 0][:, 0] <= tol, need, math.inf),
                             np.full((Q, sysm.m), math.nan)))
        bad = np.any(unbounded & (np.max(np.abs(F), axis=1) > hji._COEFF_ZERO_TOL), axis=1)
    res, zeta, u = np.full(Q, -math.inf), np.full((Q, n), math.nan), np.full((Q, sysm.m), math.nan)
    for Z, (val, w) in zip(vertices, sups):
        val = np.where(np.isnan(val), math.inf, val)
        better = val > res
        res[better], zeta[better], u[better] = val[better], Z[better], w[better]
    res[bad], res[empty] = math.inf, -math.inf
    zeta[bad | empty], u[bad | empty] = math.nan, math.nan
    return res if gamma is None else (res, zeta, u)


def _assert_bitwise(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


# every kind of bound a row can have on one axis: (lo, hi) up to the value v
_BOUNDS = (lambda v, w: (v, v), lambda v, w: (v, v + w), lambda v, w: (-math.inf, v),
           lambda v, w: (v, math.inf), lambda v, w: (-math.inf, math.inf),
           lambda v, w: (v + w, v), lambda v, w: (math.nan, v), lambda v, w: (v, math.nan),
           lambda v, w: (-0.0, 0.0))


def _random_sweep_input(n, m, p, phi, seed, fortran):
    """A random (power-)affine system whose fields round, or are constants (so that
    vertices tie), or vanish; grid rows with bounds of every kind; and rows with the box
    [0, 1] on each subset of the axes."""
    rng = np.random.default_rng(seed)
    terms = ["1", *(f"x{k}" for k in range(1, n + 1)), "x1*x1", f"x1*x{n}", f"abs(x{n})"]

    def field():
        if rng.random() < 0.5:
            return str(rng.choice(["0", "1", "-1", "2"]))
        return " + ".join(f"({rng.uniform(-2, 2)!r})*{rng.choice(terms)}" for _ in range(3))
    sysm = sy.AffineSystem(n, m, tuple(field() for _ in range(n)),
                           tuple(tuple(field() for _ in range(n)) for _ in range(m)),
                           p=p, phi=phi)
    subsets = list(itertools.product([False, True], repeat=n))
    X = rng.uniform(-2, 2, (24 + len(subsets), n))
    X[rng.random(X.shape) < 0.2] = 0.0
    v, w = rng.uniform(-3, 3, X.shape), rng.uniform(0.1, 2, X.shape)
    kind = rng.choice(len(_BOUNDS), X.shape, p=[0.35, 0.25] + [0.4 / 7] * 7)
    kind[24:], v[24:], w[24:] = subsets, 0.0, 1.0      # 1: a box, 0: a singleton
    lo, hi = np.array([[_BOUNDS[k](a, b) for k, a, b in zip(*row)]
                       for row in zip(kind, v, w)]).transpose(2, 0, 1)
    if fortran:                  # the layout of the bounds an expression candidate returns
        lo, hi = np.asfortranarray(lo), np.asfortranarray(hi)
    return sysm, X, lo, hi


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(0, 2), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       phi=st.sampled_from(["abs_pow", "signed_pow"]), seed=st.integers(0, 2 ** 32 - 1),
       fortran=st.booleans(), gammas=st.lists(st.floats(0.2, 3.0), min_size=1, max_size=3),
       tol=st.sampled_from([hji.DEFAULT_TOL_EXACT, 0.5]))
def test_partitioned_sweep_matches_dense_reference(n, m, p, phi, seed, fortran, gammas, tol):
    """Residuals, zeta and u at several gammas, and the needed gains, keep every bit of
    the dense reference: singleton rows, boxes on every subset of the axes, rows
    unbounded on one side or both, empty rows and NaN bounds, in either layout."""
    sysm, X, lo, hi = _random_sweep_input(n, m, p, phi, seed, fortran)
    sweep = hji.Sweep(sysm, X, lo, hi)
    lo, hi = np.ascontiguousarray(lo), np.ascontiguousarray(hi)     # the layout it sweeps
    for gamma in gammas:
        _assert_bitwise(sweep.residuals(gamma), _dense_sweep(sysm, X, lo, hi, gamma))
    assert sweep.needed_gains(tol).tobytes() == _dense_sweep(sysm, X, lo, hi, tol=tol).tobytes()
    assert sum(sweep.row_kinds) == len(X)


_SAMPLED_BOXES = {
    "sigma3_scalar/v3_scalar": (sy.make_sigma3_scalar(), stg.builtin("v3_scalar"), 1),
    "sigma2_general/v1_scaled": (_SIGMA2_GENERAL, stg.builtin("v1_scaled"), 2),
    "3-D general": (sy.GeneralSystem(3, 1, ("-x1+0.3*x2*u1", "-x2+0.7*x3+u1",
                                           "-x3+0.1*x1*x2-0.2*u1")),
                    stg.from_expression("abs(x1)+abs(x2-0.5)+0.3*abs(x3)+x1*x2", 3,
                                        kinks=((0, 0.0), (1, 0.5), (2, 0.0))),
                    3),
}


@pytest.mark.parametrize("chunk_rows", [hji._CHUNK_ROWS, 100])
@pytest.mark.parametrize("case", sorted(_SAMPLED_BOXES))
def test_sampled_sweep_matches_dense_reference(case, chunk_rows, monkeypatch):
    """The sampled sup at each box row's own vertices, gathered per chunk, and the
    sampled needed gains keep every bit of the dense reference (sigma3_scalar's grid
    holds its x = 1 kink row)."""
    sysm, V, n = _SAMPLED_BOXES[case]
    monkeypatch.setattr(hji, "_CHUNK_ROWS", chunk_rows)
    region = hji.Region(box=((-1.3, 1.1),) * n, points_per_dim={1: 81, 2: 13, 3: 7}[n])
    X = region.grid(V.kinks)
    sweep = hji.Sweep(sysm, X, *V.subdiff_batch(X))
    assert sweep.row_kinds.box > 0 and sweep.mode == "sampled"
    lo, hi = map(np.ascontiguousarray, V.subdiff_batch(X))      # the layout it sweeps
    for gamma in (0.5, 1.0, 2.0):
        _assert_bitwise(sweep.residuals(gamma), _dense_sweep(sysm, X, lo, hi, gamma))
    for tol in (hji.DEFAULT_TOL_SAMPLED, 0.5):
        assert sweep.needed_gains(tol).tobytes() == _dense_sweep(sysm, X, lo, hi, tol=tol).tobytes()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(0, 2), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       phi=st.sampled_from(["abs_pow", "signed_pow"]), seed=st.integers(0, 2 ** 32 - 1),
       gammas=st.lists(st.floats(0.2, 3.0), min_size=1, max_size=3),
       tol=st.sampled_from([hji.DEFAULT_TOL_EXACT, 0.5]))
def test_sweep_does_not_depend_on_the_bound_layout(n, m, p, phi, seed, gammas, tol):
    """F-ordered bounds (an expression candidate's) and C-ordered ones (the other
    candidates') of the same values give the same bits: residuals, zeta and u at
    several gammas, and the needed gains."""
    sysm, X, lo, hi = _random_sweep_input(n, m, p, phi, seed, fortran=False)
    for k, bounds in enumerate(_BOUNDS):          # a row of each kind on the first axis
        lo[k, 0], hi[k, 0] = bounds(0.5, 1.0)
    c_order = hji.Sweep(sysm, X, np.ascontiguousarray(lo), np.ascontiguousarray(hi))
    f_order = hji.Sweep(sysm, X, np.asfortranarray(lo), np.asfortranarray(hi))
    for gamma in gammas:
        _assert_bitwise(f_order.residuals(gamma), c_order.residuals(gamma))
    assert f_order.needed_gains(tol).tobytes() == c_order.needed_gains(tol).tobytes()


def test_sampled_sweep_does_not_depend_on_the_bound_layout():
    sysm, V, n = _SAMPLED_BOXES["3-D general"]
    X = hji.Region(box=((-1.3, 1.1),) * n, points_per_dim=7).grid(V.kinks)
    lo, hi = V.subdiff_batch(X)
    c_order = hji.Sweep(sysm, X, np.ascontiguousarray(lo), np.ascontiguousarray(hi))
    f_order = hji.Sweep(sysm, X, np.asfortranarray(lo), np.asfortranarray(hi))
    assert c_order.row_kinds.box > 0
    for gamma in (0.5, 1.0, 2.0):
        _assert_bitwise(f_order.residuals(gamma), c_order.residuals(gamma))


@pytest.mark.parametrize("case", sorted(_SAMPLED_BOXES))
def test_sampled_needed_gain_is_each_rows_threshold(case):
    """Each row passes at a gamma above its sampled needed gain and fails below it (a
    relative margin of 1e-6 either side); +inf rows fail at every gamma."""
    sysm, V, n = _SAMPLED_BOXES[case]
    X = hji.Region(box=((-1.3, 1.1),) * n, points_per_dim={1: 81, 2: 13, 3: 7}[n]).grid(V.kinks)
    sweep = hji.Sweep(sysm, X, *V.subdiff_batch(X))
    need = sweep.needed_gains()
    assert np.all(need >= 0.0)
    for gamma in (0.25, 0.5, 1.0, 2.0, 4.0):
        res = sweep.residuals(gamma)[0]
        assert np.all(res[need * (1 + 1e-6) < gamma] <= hji.DEFAULT_TOL_SAMPLED)
        assert np.all(res[need > gamma * (1 + 1e-6)] > hji.DEFAULT_TOL_SAMPLED)
        assert np.all(res[np.isinf(need)] > hji.DEFAULT_TOL_SAMPLED)


@pytest.mark.parametrize("case", sorted(_SAMPLED_BOXES))
def test_sampled_point_does_not_depend_on_the_other_rows(case):
    """The input grid is fixed, so a general system's residual, zeta and u at a point
    keep their bits whether it is swept alone, in a subset of the grid or in the full
    grid (box rows included)."""
    sysm, V, n = _SAMPLED_BOXES[case]
    X = hji.Region(box=((-1.3, 1.1),) * n, points_per_dim={1: 81, 2: 13, 3: 7}[n]).grid(V.kinks)

    def swept(rows):
        return hji.Sweep(sysm, X[rows], *V.subdiff_batch(X[rows])).residuals(1.0)
    full = swept(slice(None))
    subset = np.flatnonzero(np.linalg.norm(X, axis=1) < 1.0)     # without the far rows
    _assert_bitwise(swept(subset), [a[subset] for a in full])
    box = np.flatnonzero(~np.all(np.equal(*V.subdiff_batch(X)), axis=1))
    for q in [*box[:3], 0, len(X) // 2, len(X) - 1]:
        _assert_bitwise(swept([q]), [a[[q]] for a in full])


_CUBE = sy.AffineSystem(3, 3, ("-x1", "-x2", "-x3"),
                        (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")), name="cube")
_L1_CUBE = stg.from_expression("abs(x1)+abs(x2)+abs(x3)", 3,
                               kinks=((0, 0.0), (1, 0.0), (2, 0.0)))


def test_row_kinds_on_the_kink_planes(sigma1):
    """sigma1 / v1_scaled at ppd 201: the two kink lines hold the 400 box rows.  The
    3-D cube at ppd 41: a row on one kink plane takes 2 vertices and a row on two takes
    4, not 8; the counts sum to the grid size."""
    sweep = hji.Sweep.of(sigma1, stg.builtin("v1_scaled"),
                         hji.Region(box=((-2, 2), (-2, 2)), points_per_dim=201))
    assert sweep.row_kinds == (40_000, 400, 0, 0) == hji.RowKinds(40_000, 400, 0, 0)
    assert sweep.row_kinds.box == 400
    with pytest.raises(AttributeError):
        sweep.row_kinds.box = 0
    sweep = hji.Sweep.of(_CUBE, _L1_CUBE, hji.Region(box=((-2, 2),) * 3, points_per_dim=41))
    assert sum(sweep.row_kinds) == len(sweep.X) == 41 ** 3 - 1
    assert sweep.row_kinds == (40 ** 3, 41 ** 3 - 1 - 40 ** 3, 0, 0)
    on_planes, on_lines = 3 * 40 ** 2, 3 * 40          # rows with one or two zero coordinates
    assert sum(len(Z) for _, Z in sweep.vertices) == len(sweep.X) + on_planes + 3 * on_lines


def test_row_kinds_count_unbounded_and_empty_rows():
    """A box row that is unbounded on another axis counts as a box; an empty row as
    empty, whatever its other bounds."""
    inf, nan = math.inf, math.nan
    lo = np.array([[1.0, 2.0], [0.0, 2.0], [-inf, 2.0], [0.0, -inf], [nan, 1.0], [3.0, 0.0],
                   [3.0, -inf]])
    hi = np.array([[1.0, 2.0], [1.0, 2.0], [inf, 2.0], [1.0, inf], [1.0, 1.0], [2.0, 0.0],
                   [2.0, inf]])
    X = np.ones_like(lo)
    assert hji.Sweep(sy.make_sigma1(), X, lo, hi).row_kinds == (1, 2, 2, 2)
    v2 = hji.Sweep.of(sy.make_sigma2(), stg.builtin("v2"),
                      hji.Region(box=((-2, 2), (-2, 2)), points_per_dim=41))
    assert v2.row_kinds == (41 * 41 - 1 - 40, 0, 40, 0)       # x2 = 0: cbrt's slope


@settings(max_examples=100, deadline=None)
@given(k=st.integers(0, 10), seed=st.integers(0, 2 ** 32 - 1), fortran=st.booleans(),
       rows=st.sampled_from([(37,), (5, 8)]))
def test_row_sum_is_numpys_sum_over_a_short_axis(k, seed, fortran, rows):
    """By columns, the sums over the last axis are np.sum's up to the sign of a zero sum
    (so its bits once a nonnegative term joins them), and np.any's for booleans."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=rows + (k,)) * 10.0 ** rng.integers(-8, 8, rows + (k,))
    A[rng.random(A.shape) < 0.3] = -0.0
    A[rng.random(A.shape) < 0.05] = rng.choice([math.inf, -math.inf, math.nan])
    A = np.asfortranarray(A) if fortran else A
    nonneg = rng.uniform(0, 1, rows) * (rng.random(rows) < 0.5)
    assert (hji._row_sum(A) + nonneg).tobytes() == (np.sum(A, axis=-1) + nonneg).tobytes()
    assert hji._row_sum(A > 0).tobytes() == np.any(A > 0, axis=-1).tobytes()


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
