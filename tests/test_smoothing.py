import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hjikit as hk
from hjikit import cli, hji
from hjikit import smoothing as sm
from hjikit import storage as stg
from hjikit import systems as sy
from reference import check_case1_p2, default_alpha, theta, upsilons


# ---------------------------------------------------------------------------
# compactification
# ---------------------------------------------------------------------------

def test_compactify_examples():
    assert np.allclose(sm.compactify([0.0, 0.0]), [0, 0])
    d = sm.compactify([3.0, 4.0])
    assert np.allclose(d, [3 / np.sqrt(26), 4 / np.sqrt(26)])
    rng = np.random.default_rng(0)
    U = rng.uniform(-10, 10, (200, 3))
    assert np.max(np.abs(sm.decompactify(sm.compactify(U)) - U)) <= 1e-10
    with pytest.raises(ValueError):
        sm.decompactify([1.0, 0.0])


def test_compactification_identity_suite():
    """|u|^2 = |d|^2/(1-|d|^2), 1-|d|^2 = 1/(1+|u|^2), and the phi transport."""
    rng = np.random.default_rng(1)
    U = rng.uniform(-5, 5, (10_000, 2))
    D = sm.compactify(U)
    usq = np.sum(U * U, axis=1)
    dsq = np.sum(D * D, axis=1)
    assert np.max(np.abs(usq - dsq / (1 - dsq)) / (1 + usq)) <= 1e-12
    assert np.max(np.abs((1 - dsq) - 1 / (1 + usq))) <= 1e-12
    for p in (1.0, 1.5, 2.0):
        for signed in (True, False):
            phi_u = (np.sign(U) * np.abs(U) ** p) if signed else np.abs(U) ** p
            phi_d = (np.sign(D) * np.abs(D) ** p) if signed else np.abs(D) ** p
            coeff = 1.0 if p == 2.0 else (1 - dsq)[:, None] ** (1 - p / 2)
            lhs = phi_d * coeff
            rhs = phi_u / (1 + usq)[:, None]
            assert np.max(np.abs(lhs - rhs)) <= 1e-12, (p, signed)


def test_transformed_field_examples():
    s1 = sy.make_sigma1()
    d = sm.compactify(np.array([1.0, 0.0]))
    f = sm.transformed_field(s1, [1, 1], d)
    assert np.allclose(f, [0.5, -1.0])
    assert np.allclose(2 * f, s1.dynamics([1, 1], [1, 0]))
    assert np.allclose(sm.transformed_field(s1, [1, 1], [0, 0]),
                       s1.drift(np.array([1.0, 1.0])))
    # p < 2 vanishes on the unit sphere
    assert np.allclose(sm.transformed_field(s1, [1, 1], [1.0, 0.0]), [0, 0])


def test_field_correspondence_over_zoo():
    """(1 + |u|^2) f(x, compactify(u)) = dynamics(x, u) for power-affine entries."""
    rng = np.random.default_rng(2)
    systems = [sy.zoo_entry("sigma_p(3)").system,
               sy.zoo_entry("sigma_p_signed(3)").system,
               sy.zoo_entry("sigma1").system,
               sy.AffineSystem(2, 2, sy.make_sigma1().g0, sy.make_sigma1().g,
                               p=1.5, phi="abs_pow")]
    for ps in systems:
        for _ in range(60):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-3, 3, ps.m)
            d = sm.compactify(u)
            lhs = (1 + float(u @ u)) * sm.transformed_field(ps, x, d)
            rhs = ps.dynamics(x, u)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9, (ps.name, x, u)


def test_theta_examples():
    beta_one = lambda x: 1.0
    assert theta([1, 0], [0, 0], default_alpha, beta_one) == -1.0
    assert theta([1, 0], [1, 0], default_alpha, beta_one) == 1.0
    assert theta([1, 0], [math.sqrt(0.5), 0], default_alpha, beta_one) == pytest.approx(0.0)


def test_check_case1_p2():
    # zeta.g_i identically zero: the boundary inequality holds with 0 <= beta
    zero_g = sy.AffineSystem(2, 2, ("-abs(x1)*x1", "-abs(x2)*x2"),
                             (("abs(x1)*x2", "-abs(x2)*x1"),
                              ("-abs(x1)*x2", "abs(x2)*x1")),
                             p=2.0, phi="abs_pow")
    assert check_case1_p2(zero_g, [1, 1], [1, 1], 1.0, [1, 0])
    # a gain-1 claim at p = 2 fails the boundary test at this point
    s1 = sy.make_sigma1()
    p2 = sy.AffineSystem(2, 2, s1.g0, s1.g, p=2.0, phi="abs_pow")
    assert not check_case1_p2(p2, [1, 1], [2, 2], 1.0, [1, 0])
    with pytest.raises(ValueError):
        check_case1_p2(p2, [1, 1], [2, 2], 1.0, [0.5, 0])
    with pytest.raises(ValueError):
        check_case1_p2(s1, [1, 1], [2, 2], 1.0, [1, 0])


def test_choose_delta_examples():
    assert sm.choose_delta(1.0) == pytest.approx(0.2)
    assert sm.choose_delta(0.1) == pytest.approx(1 / 11)
    for eps in (0.01, 0.1, 1.0, 7.0):
        d = sm.choose_delta(eps)
        assert 1 / (1 - d) <= 1 + eps + 1e-12
        assert d / (1 - d) <= min(eps, 0.25) + 1e-12
    with pytest.raises(ValueError):
        sm.choose_delta(0.0)


def test_upsilons_examples():
    four = stg.from_expression("4", 2)
    u1, u2 = upsilons(four, default_alpha, 0.2, [3.0, 0.0])
    assert u1 == pytest.approx(0.8) and u2 == pytest.approx(0.2)
    _, u2 = upsilons(four, default_alpha, 0.2, [0.5, 0.0])
    assert u2 == pytest.approx(0.2 * 0.25)
    with pytest.raises(ValueError):
        upsilons(four, default_alpha, 1.5, [1.0, 0.0])


def test_final_inequality_algebra():
    """(beta + delta)/(1 - delta) <= (1 + eps) beta + eps for the chosen delta."""
    rng = np.random.default_rng(3)
    for eps in (0.025, 0.1, 1.0, 4.0):
        d = sm.choose_delta(eps)
        beta = rng.uniform(0, 1e6, 200)
        assert np.all((beta + d) / (1 - d) <= (1 + eps) * beta + eps + 1e-9)


# ---------------------------------------------------------------------------
# mollifier
# ---------------------------------------------------------------------------

def test_kernel_properties():
    s = np.linspace(-1.2, 1.2, 2001)
    k = sm.kernel(s)
    assert np.all(k >= 0)
    assert np.all(k[np.abs(s) >= 1] == 0)
    assert np.max(np.abs(k - k[::-1])) <= 1e-12  # even up to rounding
    cdf = sm.kernel_cdf(s)
    assert cdf[0] == 0.0 and cdf[-1] == 1.0
    assert np.all(np.diff(cdf) >= 0)
    assert sm.kernel_moment(np.array([-1.0]))[0] == 0.0
    assert abs(sm.kernel_moment(np.array([1.0]))[0]) <= 1e-15


def _constant(r):
    """The radius profile of constant value r (exactly r at every coordinate)."""
    return sm.GeometricRadius(r, 0.0, 1.0)


def test_mollify_exact_on_affine_data():
    ax = np.linspace(-1, 1, 81)
    X1, X2 = np.meshgrid(ax, ax, indexing="ij")
    m = sm.MollifiedFunction(ax, 3.0 * X1 - 0.5 * X2 + 2.0, _constant(0.1))
    rng = np.random.default_rng(4)
    q = rng.uniform(-0.7, 0.7, (200, 2))
    w, g = m.evaluate(q)
    assert np.max(np.abs(w - (3 * q[:, 0] - 0.5 * q[:, 1] + 2))) <= 1e-12
    assert np.max(np.abs(g - [3.0, -0.5])) <= 1e-12


def test_mollify_kink_bounds():
    """Smoothed |x|: values within c * radius of |x|, slopes inside [-1, 1]."""
    ax = np.linspace(-1, 1, 201)
    r = 0.05
    m = sm.MollifiedFunction(ax, np.abs(ax), _constant(r))
    q = np.linspace(-0.5, 0.5, 401)[:, None]
    w, g = m.evaluate(q)
    assert np.max(np.abs(w - np.abs(q[:, 0]))) <= r
    assert np.all(np.abs(g[:, 0]) <= 1.0 + 1e-12)
    assert abs(m.evaluate(np.array([[0.0]]))[0][0]) <= r


def test_mollify_refinement_convergence():
    """|mollified V - V| -> 0 on continuity points as the radius shrinks."""
    ax = np.linspace(-1, 1, 1601)
    vals = np.abs(ax) + 0.3 * ax * ax
    q = np.linspace(-0.6, 0.6, 101)[:, None]
    target = np.abs(q[:, 0]) + 0.3 * q[:, 0] ** 2
    errs = []
    for r in (0.2, 0.1, 0.05, 0.025):
        m = sm.MollifiedFunction(ax, vals, _constant(r))
        w, _ = m.evaluate(q)
        errs.append(float(np.max(np.abs(w - target))))
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    assert errs[-1] <= 0.02


def test_mollify_boundary_guard():
    ax = np.linspace(-1, 1, 51)
    m = sm.MollifiedFunction(ax, np.abs(ax), _constant(0.2))
    with pytest.raises(sm.BoundaryRadiusError):
        m.evaluate(np.array([[0.95]]))


@pytest.mark.parametrize("q, error, message", [
    ([[0.2], [np.nan]], ValueError, r"^query row 1 \(\[nan\]\) is not finite$"),
    ([[np.inf], [0.2]], ValueError, r"^query row 0 \(\[inf\]\) is not finite$"),
    ([[1e200]], sm.BoundaryRadiusError, "^nonpositive radius$"),   # r = 0 * sqrt(inf) is nan
])
def test_mollify_rejects_a_non_finite_query_or_radius(q, error, message):
    """A non-finite query row is named before the hull check, and a radius that is not
    positive (nan included) is rejected as nonpositive, without numpy warnings."""
    ax = np.linspace(-1, 1, 51)
    m = sm.MollifiedFunction(ax, np.abs(ax), _constant(0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            m.evaluate(np.array(q))


def test_mollify_variable_radius_stays_exact_on_linears():
    ax = sm.mirrored_geometric_axis(1e-3, 1.1, 2.5)
    rad = sm.GeometricRadius(1e-3, 0.1, 2.0)
    m = sm.MollifiedFunction(ax, 2.5 * ax, rad)
    q = np.geomspace(0.01, 1.5, 60)[:, None]
    w, g = m.evaluate(q)
    assert np.max(np.abs(w - 2.5 * q[:, 0])) <= 1e-12
    assert np.max(np.abs(g[:, 0] - 2.5)) <= 1e-12


def _grid_points(coords):
    mesh = np.meshgrid(*coords, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


# per dimension: geometric floor and ratio ranges that keep the sample grid small
_AXIS_RANGES = {1: ((1e-3, 0.05), (1.05, 1.5)), 2: ((3e-3, 0.05), (1.1, 1.5)),
                3: ((1e-2, 0.05), (1.2, 1.5))}


def _draw_mollifier(n, data):
    """A mollifier on the n-fold tensor grid of one drawn sample axis, with one drawn
    radius profile (geometric or constant) and random sample values, and the rng."""
    (dlo, dhi), (qlo, qhi) = _AXIS_RANGES[n]
    delta, ratio = data.draw(st.floats(dlo, dhi)), data.draw(st.floats(qlo, qhi))
    if data.draw(st.booleans()):
        radius = sm.GeometricRadius(delta, ratio - 1.0, data.draw(st.floats(1.0, 4.0)))
    else:
        radius = _constant(data.draw(st.floats(0.01, 0.3)))
    # queries in [-0.5, 0.5]; the largest radius there is about 1.2
    ax = sm.mirrored_geometric_axis(delta, ratio, 2.0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    return sm.MollifiedFunction(ax, rng.standard_normal((ax.size,) * n), radius), rng


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from(sorted(_AXIS_RANGES)), data=st.data())
def test_evaluate_grid_matches_scattered_evaluate(n, data):
    """The per-axis contraction on a tensor grid equals the windowed evaluation."""
    m, _ = _draw_mollifier(n, data)
    coords = [np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=6)))
              for _ in range(n)]
    Wg, Gg = m.evaluate_grid(coords)
    assert Wg.shape == tuple(c.size for c in coords)
    assert Gg.shape == Wg.shape + (n,)
    W, G = m.evaluate(_grid_points(coords))
    assert np.all(np.abs(Wg.ravel() - W) <= 1e-12 * (1.0 + np.abs(W)))
    assert np.all(np.abs(Gg.reshape(-1, n) - G) <= 1e-9 * (1.0 + np.abs(G)))


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from(sorted(_AXIS_RANGES)), data=st.data())
def test_grid_gradient_on_a_mask_is_the_masked_grid_gradient(n, data):
    """grad W on a mask of the grid, as the certificate takes it on the annulus points,
    is at every kept point the bits of the whole grid's grad W (``evaluate_grid``): a
    point's gradient does not depend on which other points are masked out."""
    m, rng = _draw_mollifier(n, data)
    coords = [np.sort(rng.uniform(-0.5, 0.5, data.draw(st.integers(1, 8)))) for _ in range(n)]
    W, gradient = m._grid_stages(coords)
    keep = rng.random(W.shape) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    full = m.evaluate_grid(coords)[1]
    assert full.shape == W.shape + (n,)
    assert gradient(keep).tobytes() == full[keep].tobytes()


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from(sorted(_AXIS_RANGES)), data=st.data())
def test_normalized_weights_sum_to_one_and_w_is_exact_on_constants(n, data):
    """Each axis's weight rows sum to 1 and its derivative rows to 0, within a few ulp (of
    the row's absolute sum), so W and grad W of constant data are the constant and 0.  The
    constant is a normal float: a subnormal one has fewer significant bits than the
    relative bound assumes (at c = 2.2e-311 the bound is below the subnormal spacing)."""
    m, rng = _draw_mollifier(n, data)
    q = np.concatenate([rng.uniform(-0.5, 0.5, 6), rng.uniform(-0.02, 0.02, 3), [0.0, -0.0]])
    _, w, _, derivatives = m._axis_weights(q)
    dw = derivatives()
    eps = np.finfo(float).eps
    assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 8 * eps)
    assert np.all(np.abs(dw.sum(axis=1)) <= 8 * eps * np.abs(dw).sum(axis=1))
    c = data.draw(st.floats(-1e3, 1e3, allow_subnormal=False).filter(bool))
    const = sm.MollifiedFunction(m.axis, np.full(m.values.shape, c), m.radius)
    coords = [q[:4]] * n
    for W, G in (const.evaluate_grid(coords), const.evaluate(_grid_points(coords))):
        assert np.all(np.abs(W - c) <= 16 * n * eps * abs(c))
        assert np.all(np.abs(G) <= 16 * n * eps * abs(c) * np.abs(dw).sum(axis=1).max())


# a query coordinate: anywhere, next to the origin (where geometric windows are
# widest), or a signed zero
_COORD = st.one_of(st.floats(-0.5, 0.5), st.floats(-0.02, 0.02), st.sampled_from([0.0, -0.0]))


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from(sorted(_AXIS_RANGES)), data=st.data())
def test_evaluate_row_equals_its_batch_row(n, data):
    """A point's W and grad W do not depend on the other points of its batch, bit for bit:
    rows share the weights of a repeated coordinate, on any axis, and rows of other
    window widths are contracted in other groups or padded with zero weights."""
    m, _ = _draw_mollifier(n, data)
    pools = [data.draw(st.lists(_COORD, min_size=1, max_size=4)) for _ in range(n)]
    X = np.array(data.draw(st.lists(st.tuples(*(st.sampled_from(p) for p in pools)),
                                    min_size=1, max_size=12)))
    W, G = m.evaluate(X)
    for q in range(X.shape[0]):
        w, g = m.evaluate(X[q:q + 1])
        assert w.tobytes() == W[q:q + 1].tobytes(), X[q]
        assert g.tobytes() == G[q:q + 1].tobytes(), X[q]


@pytest.mark.parametrize("n", [2, 3])
def test_evaluate_grid_reuses_the_weights_of_a_repeated_axis(n, monkeypatch):
    """``evaluate`` takes one weight pass per chunk of rows, over the distinct coordinates
    of all axes.  ``evaluate_grid`` takes one per distinct coordinate array: a shared
    array and an equal copy of it take one, with the same bytes; a different one adds one."""
    ax = sm.mirrored_geometric_axis(1e-2, 1.2, 2.0)
    q = np.array([-0.4, -0.01, 0.0, 0.003, 0.25])
    values = np.random.default_rng(6).standard_normal((ax.size,) * n)
    m = sm.MollifiedFunction(ax, values, sm.GeometricRadius(1e-2, 0.2, 2.0))
    calls, weights = [], sm.MollifiedFunction._axis_weights
    monkeypatch.setattr(sm.MollifiedFunction, "_axis_weights",
                        lambda self, c: calls.append(c.size) or weights(self, c))

    def grid(coords):
        calls.clear()
        W, G = m.evaluate_grid(coords)
        return W.tobytes() + G.tobytes(), len(calls)

    shared = grid([q] * n)
    assert shared[1] == 1
    assert grid([q.copy() for _ in range(n)]) == shared
    coords = [q] * (n - 1) + [q[::-1]]
    assert grid(coords)[1] == 2
    Wg, Gg = m.evaluate_grid(coords)
    P = _grid_points(coords)
    calls.clear()
    W, G = m.evaluate(np.tile(P, (sm._EVAL_CHUNK // len(P) + 1, 1)))
    assert calls == [q.size, q.size]        # two chunks, each over the 5 distinct coordinates
    W, G = W[:len(P)], G[:len(P)]
    assert np.all(np.abs(Wg.ravel() - W) <= 1e-12 * (1.0 + np.abs(W)))
    assert np.all(np.abs(Gg.reshape(-1, n) - G) <= 1e-9 * (1.0 + np.abs(G)))


def test_mollify_exact_on_linear_data_3d():
    ax = np.linspace(-1, 1, 41)
    X1, X2, X3 = np.meshgrid(ax, ax, ax, indexing="ij")
    m = sm.MollifiedFunction(ax, 3.0 * X1 - 0.5 * X2 + 2.0 * X3 + 1.0, _constant(0.1))
    slope = np.array([3.0, -0.5, 2.0])
    q = np.random.default_rng(5).uniform(-0.7, 0.7, (200, 3))
    w, g = m.evaluate(q)
    assert np.max(np.abs(w - (q @ slope + 1.0))) <= 1e-12
    assert np.max(np.abs(g - slope)) <= 1e-12
    coords = [np.linspace(-0.7, 0.7, 7), np.array([-0.3, 0.0, 0.45]), np.array([0.2])]
    wg, gg = m.evaluate_grid(coords)
    assert np.max(np.abs(wg.ravel() - (_grid_points(coords) @ slope + 1.0))) <= 1e-12
    assert np.max(np.abs(gg - slope)) <= 1e-12


def test_evaluate_grid_boundary_guard():
    ax = np.linspace(-1, 1, 51)
    m = sm.MollifiedFunction(ax, np.abs(ax), _constant(0.2))
    with pytest.raises(sm.BoundaryRadiusError):
        m.evaluate_grid([np.array([0.0, 0.95])])


# ---------------------------------------------------------------------------
# end-to-end smoothing
# ---------------------------------------------------------------------------

def test_smooth_witness_sigma1(smoothed_sigma1):
    cert = smoothed_sigma1
    assert cert.passed
    assert cert.epsilon == pytest.approx(0.025)
    assert cert.gamma_eff == pytest.approx(1.05)
    assert cert.max_relative_approx_error <= 0.5
    assert cert.max_eq20_residual <= 0.0
    # the output is itself a checkable candidate at the relaxed gain
    s1 = sy.zoo_entry("sigma1").system
    reg = hk.Region(box=((-2, 2), (-2, 2)), points_per_dim=21, exclude_radius=0.07)
    rep = hk.check_witness(s1, cert.W, 1.1, reg, tol=1e-9)
    assert rep.passed
    # origin extension and small-sphere continuity
    assert cert.W.value(np.zeros(2)) == 0.0
    for r in (0.05, 0.02):
        ang = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        ring = r * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        vals = np.array([cert.W.value(p) for p in ring])
        assert np.max(vals) <= 6 * r  # shrinks with the sphere radius


def test_smooth_witness_sigma2_schedule():
    """sigma2/v2 on [0.1, 0.3]: four approximation-bound failures, then a pass."""
    s2 = sy.zoo_entry("sigma2").system
    cert = sm.smooth_witness(s2, stg.builtin("v2"), 1.0, 1.1, r_min=0.1, r_max=0.3)
    assert cert.passed
    assert [r["outcome"] for r in cert.radius_schedule] == \
        ["fail (approximation bound)"] * 4 + ["pass"]
    assert cert.grids == {"sample_axis_nodes": 199, "certification_points": 32776}
    # the batched gradient is the scalar one and the derivative of W's values
    P = np.array([[0.2, 0.1], [-0.15, 0.0], [0.05, -0.25]])
    lo, hi = cert.W.subdiff_batch(P)
    assert np.array_equal(lo, hi)
    h = 1e-6
    for x, g in zip(P, lo):
        assert np.allclose(cert.W.gradient(x), g, rtol=1e-9, atol=1e-9)
        fd = [(cert.W.value(x + h * e) - cert.W.value(x - h * e)) / (2 * h) for e in np.eye(2)]
        assert np.allclose(fd, g, rtol=1e-6, atol=1e-6)


def test_failed_value_bounds_build_no_gradient(monkeypatch):
    """The certificate contracts grad W only for an attempt whose W passes both value
    bounds: sigma2/v2 on [0.1, 0.3] fails the approximation bound four times, then
    passes, and builds the gradient stage once."""
    stages = []
    numerators = sm._gradient_numerators
    monkeypatch.setattr(sm, "_gradient_numerators",
                        lambda *a: stages.append(len(a[0])) or numerators(*a))
    cert = sm.smooth_witness(sy.zoo_entry("sigma2").system, stg.builtin("v2"), 1.0, 1.1,
                             r_min=0.1, r_max=0.3)
    assert [r["outcome"] for r in cert.radius_schedule] == \
        ["fail (approximation bound)"] * 4 + ["pass"]
    assert stages == [3]          # one grid gradient: the sample values and two partials


def test_derivative_weights_are_built_only_for_the_gradient(monkeypatch):
    """sigma2/v2 on [0.1, 0.3] builds derivative weights (the one caller of ``kernel`` once
    the moment table is built) once, for its passing attempt's one coordinate array, and a
    run out of refinements on the approximation bound none.  The smoothed W's values build
    none, at one point or many; its subdifferential builds them once per call."""
    sm._build_i1_table()
    built, kernel = [], sm.kernel
    monkeypatch.setattr(sm, "kernel", lambda s: built.append(s.shape) or kernel(s))
    s2, v2 = sy.zoo_entry("sigma2").system, stg.builtin("v2")
    passed = sm.smooth_witness(s2, v2, 1.0, 1.1, r_min=0.1, r_max=0.3)
    assert passed.passed
    assert len(built) == 1
    built.clear()
    X = np.array([[0.2, 0.1], [-0.15, 0.05], [0.0, 0.0]])
    one, many = passed.W.value(X[0]), passed.W.value_batch(X)
    assert built == []
    assert passed.W.subdiff_batch(X)[0].shape == (3, 2) and len(built) == 1
    w, g = passed.mollified.evaluate(X[:2])
    w, g = w / (1.0 - passed.delta), g / (1.0 - passed.delta)
    assert one == w[0] and np.array_equal(many, np.append(w, 0.0))
    assert np.array_equal(passed.W.subdiff_batch(X[:2])[0], g)
    built.clear()
    cert = sm.smooth_witness(s2, v2, 1.0, 1.1, max_refinements=0)
    assert cert.failure_reason == "approximation bound" and built == []


def test_smooth_witness_failure_report():
    """Exhausting the schedule yields a fail report with the worst point, not a raise."""
    s2 = sy.zoo_entry("sigma2").system
    cert = sm.smooth_witness(s2, stg.builtin("v2"), 1.0, 1.1, max_refinements=0)
    assert not cert.passed
    assert cert.failure_reason
    assert cert.worst_point is not None
    import json
    json.dumps(cli._plain(cert))  # JSON-safe even with missing metrics


def test_smooth_witness_rejects_superquadratic_powers():
    with pytest.raises(ValueError, match="p <= 2"):
        sm.smooth_witness(sy.make_sigma_p(3.0), stg.builtin("v1"), 1.0, 1.1)


def test_smooth_witness_precondition_errors():
    s1 = sy.zoo_entry("sigma1").system
    with pytest.raises(ValueError, match="gamma_prime"):
        sm.smooth_witness(s1, stg.builtin("v1_scaled"), 1.0, 0.9)
    with pytest.raises(ValueError, match="hypothesis"):
        sm.smooth_witness(s1, stg.builtin("v1_scaled"), 0.5, 0.6)


@pytest.mark.parametrize("kwargs, match", [
    ({"sys": sy.make_sigma_p(3.0), "V": stg.builtin("v1")}, "p <= 2"),
    ({"gamma": -1.0, "gamma_prime": 0.0}, "0 < gamma < gamma_prime"),
    ({"gamma": 0.0}, "0 < gamma < gamma_prime"),
    ({"r_min": 2.0, "r_max": 0.05}, "0 < r_min < r_max"),
    ({"r_min": 0.0}, "0 < r_min < r_max"),
    ({"max_refinements": -1}, "max_refinements >= 0"),
], ids=["p-above-2", "gamma-negative", "gamma-zero", "annulus-reversed", "r_min-zero",
        "negative-budget"])
def test_smooth_witness_input_validation(kwargs, match, monkeypatch):
    """Invalid inputs raise ValueError before any work: the hypothesis check never runs."""
    monkeypatch.setattr(sm, "check_witness", None)
    args = {"sys": sy.make_sigma1(), "V": stg.builtin("v1_scaled"), "gamma": 1.0,
            "gamma_prime": 1.1, **kwargs}
    with pytest.raises(ValueError, match=match):
        sm.smooth_witness(**args)
