import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjikit import construct1d as c1
from hjikit import expr as ex
from hjikit import hji
from hjikit import storage as stg
from hjikit import systems as sy


# ---------------------------------------------------------------------------
# SubdiffSet representation
# ---------------------------------------------------------------------------

def test_subdiffset_forms():
    s = stg.SubdiffSet.singleton([1.0, -2.0])
    assert s.is_singleton and np.allclose(s.vector, [1, -2])
    b = stg.SubdiffSet.box([(-2, 2), (2, 2)])
    assert not b.is_singleton and b.contains([0.5, 2.0]) and not b.contains([2.5, 2.0])
    assert b.unbounded_axes == ()
    ub = stg.SubdiffSet.box([(0, 0), (-math.inf, math.inf)])
    assert ub.unbounded_axes == (1,)
    assert ub.contains([0.0, 1e9])
    e = stg.SubdiffSet.empty_set()
    assert e.is_empty and not e.contains([0.0])
    with pytest.raises(ValueError):
        stg.SubdiffSet.box([(2, 1)])


def test_finite_vertices():
    b = stg.SubdiffSet.box([(-2, 2), (3, 3)])
    v = b.finite_vertices()
    assert sorted(map(tuple, v)) == [(-2.0, 3.0), (2.0, 3.0)]
    ub = stg.SubdiffSet.box([(1, 1), (-math.inf, math.inf)])
    v = ub.finite_vertices()
    assert v.shape == (1, 2) and v[0, 0] == 1.0 and v[0, 1] == 0.0


# ---------------------------------------------------------------------------
# built-in oracles
# ---------------------------------------------------------------------------

def test_v1_scaled_oracle():
    v = stg.builtin("v1_scaled")
    assert v.value([1, -2]) == 6.0
    s = v.subdiff([0, 3])
    assert s.intervals == ((-2.0, 2.0), (2.0, 2.0))
    s = v.subdiff([-1.5, 0])
    assert s.intervals == ((-2.0, -2.0), (-2.0, 2.0))
    assert v.subdiff([1, 1]).vector.tolist() == [2.0, 2.0]
    assert v.subdiff([0, 0]).intervals == ((-2.0, 2.0), (-2.0, 2.0))
    with pytest.raises(stg.GradientUndefinedError):
        v.gradient([0, 1])
    # snap within 1e-12 of the kink locus
    assert v.subdiff([5e-13, 1]).intervals[0] == (-2.0, 2.0)


def test_v2_oracle():
    v = stg.builtin("v2")
    assert v.value([1, 8]) == pytest.approx(1 + 4.0)
    s = v.subdiff([1, 8])
    assert np.allclose(s.vector, [2.0, 1.0 / 3.0])
    s0 = v.subdiff([1.5, 0])
    assert s0.intervals[0] == (3.0, 3.0)
    assert s0.unbounded_axes == (1,)
    # negative x2 keeps the real-root reading of the gradient
    g = v.gradient([0.5, -8])
    assert np.allclose(g, [1.0, (2 / 3) / np.cbrt(-8)])
    with pytest.raises(stg.GradientUndefinedError):
        v.gradient([1, 0])


def test_v3_oracle():
    v = stg.builtin("v3_scalar")
    assert v.value([0.5]) == 0.5
    assert v.value([2.0]) == 3.0
    assert v.subdiff([1.0]).intervals == ((1.0, 2.0),)
    assert v.subdiff([0.0]).intervals == ((-1.0, 1.0),)
    assert v.subdiff([-2.0]).vector.tolist() == [-1.0]
    assert v.subdiff([0.5]).vector.tolist() == [1.0]
    assert v.subdiff([3.0]).vector.tolist() == [2.0]


def test_sq_norm_any_dimension():
    v = stg.builtin("sq_norm")
    assert v.value([3, 4]) == 25.0
    assert v.value([2]) == 4.0
    assert np.allclose(v.gradient([1, 2, 3]), [2, 4, 6])


def test_nonnegativity_on_samples():
    rng = np.random.default_rng(0)
    for name in ("v1_scaled", "v1", "v2", "sq_norm"):
        v = stg.builtin(name)
        X = rng.uniform(-5, 5, (500, 2))
        assert np.all(v.value_batch(X) >= 0)
    v3 = stg.builtin("v3_scalar")
    assert np.all(v3.value_batch(rng.uniform(-5, 5, (500, 1))) >= 0)


def test_missing_oracle_paths():
    e = stg.StorageCandidate("values_only", stg.from_expression("x1*x1 + abs(x2)", 2).value_fn)
    with pytest.raises(stg.MissingOracleError):
        e.subdiff([1, 1])
    with pytest.raises(stg.MissingOracleError):
        e.gradient([1, 1])
    assert e.value([2, -3]) == 7.0 and not e.has_oracle


_INF = math.inf


@pytest.mark.parametrize("src, x, box", [
    ("abs(x1)", [0.0], ((-1, 1),)),
    ("abs(x1)", [5e-13], ((-1, 1),)),                  # within 1e-12 of the kink
    ("abs(x1)", [-2.0], ((-1, -1),)),
    ("-abs(x1)", [0.0], ((-1, 1),)),                   # Clarke's box; no subgradient exists
    ("max(x1, x2)", [1.0, 1.0], ((0, 1), (0, 1))),     # a tie: the hull of both
    ("max(x1, x2)", [2.0, 1.0], ((1, 1), (0, 0))),
    ("min(x1, 2*x1)", [0.0], ((1, 2),)),
    ("sign(x2)", [1.0, 0.0], ((0, 0), (-_INF, _INF))),
    ("sign(x1)", [3.0], ((0, 0),)),
    ("sqrt(x1)", [4.0], ((0.25, 0.25),)),
    ("sqrt(x1)", [0.0], ((-_INF, _INF),)),
    ("sqrt(x1*x1)", [0.0], ((-_INF, _INF),)),          # a zero tangent under an infinite slope
    ("cbrt(x1)", [8.0], ((1 / 12, 1 / 12),)),
    ("cbrt(x2)", [1.0, 0.0], ((0, 0), (-_INF, _INF))),
    ("pow(x1, 0.5)", [0.0], ((-_INF, _INF),)),
    ("pow(x1, 1)", [0.0], ((-1, 1),)),
    ("pow(x1, 2)", [0.0], ((0, 0),)),
    ("pow(x1, 3)", [-2.0], ((-12, -12),)),
    ("spow(x1, 1)", [0.0], ((1, 1),)),
    ("spow(x1, 3)", [-2.0], ((12, 12),)),
    ("0*sign(x1)", [0.0], ((-_INF, _INF),)),           # 0 x unbounded is unbounded
    ("x2*sign(x1)", [0.0, 0.0], ((-_INF, _INF), (0, 0))),
    ("x1/x2", [1.0, 2.0], ((0.5, 0.5), (-0.25, -0.25))),
    ("5", [1.0, 2.0], ((0, 0), (0, 0))),
    ("pow(x2, x1)", [2.0, 3.0], ((9 * math.log(3), 9 * math.log(3)), (6, 6))),
])
def test_generated_oracle_rules(src, x, box):
    """Worked examples of the derivative table's rules at and off the kinks."""
    got = stg.from_expression(src, len(x)).subdiff(x).intervals
    assert np.allclose(got, box, rtol=1e-15, atol=0.0), (src, x, got)


_x_leaves = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 0.5, -1.0, 3.0]).map(ex.Num),
                      st.builds(ex.Var, st.just("x"), st.integers(0, 1)))


def _x_extend(kids):
    return st.one_of(
        kids.map(ex.Neg),
        st.builds(ex.Bin, st.sampled_from("+-*/"), kids, kids),
        st.builds(lambda fn, a: ex.Call(fn, (a,)),
                  st.sampled_from(["abs", "sign", "sqrt", "cbrt"]), kids),
        st.builds(lambda fn, a, b: ex.Call(fn, (a, b)),
                  st.sampled_from(["min", "max", "pow", "spow"]), kids, kids),
        st.builds(lambda fn, a, k: ex.Call(fn, (a, ex.Num(k))), st.sampled_from(["pow", "spow"]),
                  kids, st.sampled_from([2.0, 0.5, 1.0, 3.0, -1.0])))


@settings(max_examples=300, deadline=None)
@given(ast=st.recursive(_x_leaves, _x_extend, max_leaves=8), seed=st.integers(0, 2**32 - 1))
def test_generated_oracle_bounds_one_sided_slopes(ast, seed):
    """Where V is finite around x, its one-sided difference quotients along each axis
    lie in the generated box: (V(x + h e_k) - V(x))/h <= hi_k and
    (V(x) - V(x - h e_k))/h >= lo_k, up to the quotients' own drift between
    h = 1e-7 and 1e-9.  Half the points lie on a grid of halves, where many kinks of
    the random expressions lie."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, (64, 2))
    X[::2] = np.round(2 * X[::2]) / 2
    V = stg.from_expression(ex.to_source(ast), 2)
    lo, hi = V.subdiff_batch(X)
    with np.errstate(all="ignore"):
        fx = V.value_batch(X)
        for k, e in enumerate(np.eye(2)):
            (fwd, bwd), (fwd2, bwd2) = [((V.value_batch(X + h * e) - fx) / h,
                                          (fx - V.value_batch(X - h * e)) / h)
                                         for h in (1e-7, 1e-9)]
            tol = 4 * np.maximum(np.abs(fwd - fwd2), np.abs(bwd - bwd2)) + 1e-6 * (1 + np.abs(fx))
            seen = np.isfinite(fwd) & np.isfinite(bwd) & np.isfinite(tol)
            assert np.all(fwd[seen] <= hi[seen, k] + tol[seen]), ex.to_source(ast)
            assert np.all(bwd[seen] >= lo[seen, k] - tol[seen]), ex.to_source(ast)


def test_storage_config_round_trip():
    for name in stg.builtins():
        v = stg.from_config({"kind": "builtin", "name": name})
        assert v.name == name
    cfg = {"kind": "expr", "expr": "x1*x1", "n": 1, "regularity": "smooth"}
    v = stg.from_config(cfg)
    assert v.value([3]) == 9.0
    assert stg.to_config(v)["expr"] == "x1*x1"
    with pytest.raises(KeyError):
        stg.builtin("nope")
    with pytest.raises(ValueError):
        stg.from_config({"kind": "weird"})
    # an expression config may declare its kinks as [axis, value] pairs, axis 0 for x1
    v = stg.from_config({"kind": "expr", "expr": "max(abs(x1), 2*x1 - 1)", "n": 1,
                         "kinks": [[0, 0], [0, 1]]})
    assert v.kinks == stg.builtin("v3_scalar").kinks
    assert stg.to_config(v)["kinks"] == [[0, 0.0], [0, 1.0]]
    with pytest.raises(ValueError, match="kink axis"):
        stg.from_config({"kind": "expr", "expr": "abs(x1)", "n": 1, "kinks": [[1, 0.0]]})


def test_to_config_round_trips_or_raises(smoothed_sigma1):
    """Built-ins and expressions load back from their config; a smoothed or a
    constructed candidate has no config, so writing one is an error, not a bad file."""
    X = np.array([[0.5], [-1.25]])
    for V in [*stg.builtins().values(),
              stg.from_expression("x1*x1 + abs(x2)", 2, "lipschitz", ((1, 0.0),))]:
        back = stg.from_config(stg.to_config(V))
        assert (back.name, back.regularity, back.dim, back.kinks) == \
            (V.name, V.regularity, V.dim, V.kinks)
        Y = np.hstack([X, -X]) if V.dim == 2 else X
        assert back.value_batch(Y).tobytes() == V.value_batch(Y).tobytes()
    built = c1.construct_w(sy.zoo_entry("scalar_linear").system, 1.0, stg.builtin("sq_norm"),
                           np.linspace(0.01, 2.0, 50))
    for V in (smoothed_sigma1.W, built.to_storage()):
        with pytest.raises(ValueError, match="neither a built-in nor an expression"):
            stg.to_config(V)


# ---------------------------------------------------------------------------
# numeric subgradient verification
# ---------------------------------------------------------------------------

def test_verify_subgradient_worked_examples():
    v1s = stg.builtin("v1_scaled")
    assert stg.verify_subgradient(v1s, [0, 1], [0, 2])
    assert not stg.verify_subgradient(v1s, [0, 1], [3, 2])
    v3 = stg.builtin("v3_scalar")
    assert stg.verify_subgradient(v3, [1.0], [1.5])


def test_verify_subgradient_radii_validation():
    v = stg.builtin("sq_norm")
    with pytest.raises(ValueError):
        stg.verify_subgradient(v, [1, 1], [2, 2], radii=(1e-6, 1e-2))


def test_oracle_numeric_agreement_random_points():
    """Sampled subdifferential members pass on 10^3 points; displacements fail."""
    rng = np.random.default_rng(7)
    for name in ("v1_scaled", "v1", "v2", "sq_norm"):
        v = stg.builtin(name)
        X = rng.uniform(-2, 2, (250, 2))
        for i, x in enumerate(X):
            s = v.subdiff(x)
            verts = s.finite_vertices()
            zeta = verts[rng.integers(0, len(verts))].astype(float)
            for k in s.unbounded_axes:
                zeta[k] = rng.uniform(-5, 5)
            assert stg.verify_subgradient(v, x, zeta), (name, x, zeta)
            if i % 5:
                continue
            # displace beyond a finite face in its normal direction
            for k, (lo, hi) in enumerate(s.intervals):
                if math.isinf(lo) or math.isinf(hi):
                    continue
                bad = zeta.copy()
                bad[k] = hi + 0.1
                assert not stg.verify_subgradient(v, x, bad), (name, x, bad)
                bad[k] = lo - 0.1
                assert not stg.verify_subgradient(v, x, bad), (name, x, bad)
                break


def test_singleton_matches_finite_differences():
    """Away from kinks the oracle equals the central-difference gradient."""
    rng = np.random.default_rng(9)
    h = 1e-6
    for name in ("v1_scaled", "v2", "sq_norm"):
        v = stg.builtin(name)
        count = 0
        while count < 30:
            x = rng.uniform(0.3, 2, 2) * rng.choice([-1, 1], 2)
            s = v.subdiff(x)
            if not s.is_singleton:
                continue
            fd = np.array([
                (v.value(x + h * e) - v.value(x - h * e)) / (2 * h)
                for e in np.eye(2)])
            assert np.allclose(s.vector, fd, atol=1e-6), (name, x)
            count += 1


def test_v2_constant_on_orbit_curve():
    """x1^2 + x2^(2/3) telescopes to a^2 along (at, (a^2 - (at)^2)^(3/2))."""
    v2 = stg.builtin("v2")
    for a in (0.5, 1.0, 2.0):
        t = np.linspace(0, 1, 41)
        pts = np.stack([a * t, (a * a - (a * t) ** 2) ** 1.5], axis=-1)
        vals = v2.value_batch(pts)
        assert np.max(np.abs(vals - a * a)) <= 1e-12


# ---------------------------------------------------------------------------
# the generated oracles against the hand-written ones they replaced
# ---------------------------------------------------------------------------

_KINK_SNAP = 1e-12


def _weighted_l1(name, scale):
    """scale * (|x1| + |x2|) with its exact box subdifferential."""

    def value(X):
        X = np.asarray(X, dtype=float)
        return scale * (np.abs(X[..., 0]) + np.abs(X[..., 1]))

    def sd(X):
        kink = np.abs(X) <= _KINK_SNAP
        slope = scale * np.sign(X)
        return np.where(kink, -scale, slope), np.where(kink, scale, slope)

    return stg.StorageCandidate(name, value, "lipschitz", 2, sd)


def _make_v2():
    def value(X):
        X = np.asarray(X, dtype=float)
        return X[..., 0] ** 2 + np.cbrt(X[..., 1]) ** 2

    def sd(X):
        kink = np.abs(X[:, 1]) <= _KINK_SNAP
        # liminf of |h|^(2/3)/|h| diverges on x2 = 0, so every second coordinate qualifies
        z2 = (2.0 / 3.0) / np.cbrt(np.where(kink, 1.0, X[:, 1]))
        lo = np.stack([2 * X[:, 0], np.where(kink, -math.inf, z2)], axis=1)
        hi = np.stack([2 * X[:, 0], np.where(kink, math.inf, z2)], axis=1)
        return lo, hi

    return stg.StorageCandidate("v2", value, "continuous", 2, sd)


def _make_v3_scalar():
    def value(X):
        X = np.asarray(X, dtype=float)
        v = X[..., 0]
        return np.maximum(np.abs(v), 2 * v - 1)

    def sd(X):
        v = X[:, :1]
        slope = np.where(v < 0, -1.0, np.where(v < 1, 1.0, 2.0))
        at0, at1 = np.abs(v) <= _KINK_SNAP, np.abs(v - 1.0) <= _KINK_SNAP
        return (np.where(at0, -1.0, np.where(at1, 1.0, slope)),
                np.where(at0, 1.0, np.where(at1, 2.0, slope)))

    return stg.StorageCandidate("v3_scalar", value, "lipschitz", 1, sd)


_HAND = {"v1_scaled": _weighted_l1("v1_scaled", 2.0), "v1": _weighted_l1("v1", 1.0),
         "v2": _make_v2(), "v3_scalar": _make_v3_scalar()}


def _ulps(a, b):
    """|a - b| in units in the last place of the larger magnitude (0 where equal)."""
    with np.errstate(invalid="ignore"):
        d = np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))
    return np.where(a == b, 0.0, d)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_HAND)), data=st.data())
def test_generated_oracle_matches_hand_oracle(name, data):
    """Each built-in's generated oracle gives its hand oracle's boxes, on random points
    and on points snapped within 1e-12 of every kink: bit for bit, except that v2's
    finite slopes (2/3)/cbrt(x2) come out of the chain rule within 4 ulps."""
    V, ref = stg.builtin(name), _HAND[name]
    n = V.dim
    coord = st.floats(-3.0, 3.0, allow_nan=False)
    X = np.array(data.draw(st.lists(st.lists(coord, min_size=n, max_size=n),
                                    min_size=1, max_size=6)))
    X = np.concatenate([X, -X])                        # -0.0 wherever X has 0.0
    copies = [X]
    for axis, value in V.kinks:
        Y = X.copy()
        Y[:, axis] = value + data.draw(st.floats(-1e-12, 1e-12))
        copies.append(Y)
    X = np.concatenate(copies)
    assert V.value_batch(X).tobytes() == ref.value_batch(X).tobytes()
    lo, hi = V.subdiff_batch(X)
    rlo, rhi = ref.subdiff_batch(X)
    kink = np.any(rlo != rhi, axis=1)
    assert np.array_equal(kink, np.any(lo != hi, axis=1))
    assert lo[kink].tobytes() == rlo[kink].tobytes() and hi[kink].tobytes() == rhi[kink].tobytes()
    if name == "v2":
        assert np.max(_ulps(lo[~kink], rlo[~kink]), initial=0.0) <= 4
    else:
        assert lo.tobytes() == rlo.tobytes() and hi.tobytes() == rhi.tobytes()


def test_candidate_dimension_is_checked():
    """A fixed-dimension candidate rejects states of another dimension on every query."""
    v = stg.builtin("v1_scaled")
    for query in (v.value, v.value_batch, v.subdiff_batch, v.subdiff, v.gradient):
        with pytest.raises(sy.DimensionError, match="takes states of dimension 2"):
            query(np.ones((3, 1)) if query == v.subdiff_batch else [1.0])
    region = hji.Region(box=((-2.0, 2.0),), points_per_dim=11)
    with pytest.raises(sy.DimensionError, match="has dimension 2, system n=1"):
        hji.check_witness(sy.make_scalar_linear(), v, 1.0, region)
    assert stg.builtin("sq_norm").value([1.0, 2.0, 2.0]) == 9.0   # dim None takes any n


# ---------------------------------------------------------------------------
# one oracle: subdiff, gradient and the residuals read the batched oracle
# ---------------------------------------------------------------------------

def _at_kinks(bound):
    """v1_scaled's oracle, with every kink row replaced by the box [-bound, bound]^2."""
    def batch(X):
        lo, hi = stg.builtin("v1_scaled").subdiff_batch(X)
        kink = np.any(lo != hi, axis=1, keepdims=True)
        return np.where(kink, -bound, lo), np.where(kink, bound, hi)

    return batch


def _empty_right(X):
    """v3_scalar's oracle, empty (lo > hi) right of 1.5."""
    lo, hi = stg.builtin("v3_scalar").subdiff_batch(X)
    right = X > 1.5
    return np.where(right, math.inf, lo), np.where(right, -math.inf, hi)


@functools.lru_cache(maxsize=None)
def _constructed():
    return c1.construct_w(sy.make_scalar_linear(), 1.0, stg.builtin("sq_norm"),
                          np.linspace(0.05, 2.0, 40))


def _candidate_form(form, smoothed):
    """The candidate built as ``form`` names it, with an affine system of its dimension."""
    v, v3 = stg.builtin("v1_scaled"), stg.builtin("v3_scalar")
    if form in stg.builtins():
        V = stg.builtin(form)
    elif form == "unbounded_kinks":
        V = stg.StorageCandidate("unbounded_kinks", v.value_fn, "lipschitz", 2,
                                 _at_kinks(math.inf))
    elif form == "empty_right":
        V = stg.StorageCandidate("v3-partial", v3.value_fn, "lipschitz", 1, _empty_right)
    elif form == "wide_kinks":
        V = stg.StorageCandidate("wide_kinks", v.value_fn, "lipschitz", 2, _at_kinks(100.0))
    elif form == "expression":     # every rule of the generated oracle, kinks on the axes
        V = stg.from_expression("min(abs(x1 - x2), spow(x1, 3) / (1 + x2*x2)) - cbrt(x2)"
                                " + sqrt(x1*x1 + x2*x2) + max(sign(x2), pow(x1, 0.5))", 2)
    elif form == "smoothed":
        V = smoothed.W
    else:
        V = _constructed().to_storage()
    return V, sy.make_scalar_linear() if V.dim == 1 else sy.make_sigma1()


_FORMS = sorted(stg.builtins()) + ["unbounded_kinks", "empty_right", "wide_kinks",
                                   "expression", "smoothed", "constructed"]


@pytest.mark.parametrize("form", _FORMS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_candidate_form_reads_one_oracle(form, data, smoothed_sigma1):
    """subdiff and gradient are row views of one subdiff_batch call, bit for bit, and
    point_residual equals the batched residual kernel on every row, kinks included."""
    V, sysm = _candidate_form(form, smoothed_sigma1)

    def same(a, b):
        return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()

    coord = st.floats(-2.0, 2.0, allow_nan=False)
    drawn = data.draw(st.lists(st.lists(coord, min_size=sysm.n, max_size=sysm.n),
                               min_size=1, max_size=6))
    fixed = [[1.0, 0.0], [0.0, -1.5], [0.0, 0.0]] if sysm.n == 2 else [[0.0], [1.0], [1.75]]
    X = np.array(drawn + fixed)
    lo, hi = V.subdiff_batch(X)
    for q, x in enumerate(X):
        S = V.subdiff(x)
        if np.any(lo[q] > hi[q]):
            assert S.is_empty, x
        else:
            assert same(S.intervals, np.column_stack([lo[q], hi[q]])), x
        if np.array_equal(lo[q], hi[q]):
            assert same(V.gradient(x), lo[q]), x
        else:
            with pytest.raises(stg.GradientUndefinedError):
                V.gradient(x)

    res = hji.residuals(sysm, lo, hi, X, 1.0)[0]
    for q, x in enumerate(X):
        ref = hji.point_residual(sysm, V, 1.0, x)[0]
        if math.isinf(ref):
            assert res[q] == ref, (x, res[q], ref)
        else:
            assert abs(res[q] - ref) <= 1e-12 * max(1.0, abs(ref)), (x, res[q], ref)

    if form == "constructed":      # the batched selector is the scalar one, row by row
        built = _constructed()
        slopes = [float(built.slope_at(float(x[0]))) for x in X]
        assert lo[:, 0].tobytes() == hi[:, 0].tobytes() == np.array(slopes).tobytes()
