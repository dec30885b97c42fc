import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjikit import construct1d as c1
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
    e = stg.from_expression("x1*x1 + abs(x2)", 2)
    with pytest.raises(stg.MissingOracleError):
        e.subdiff([1, 1])
    with pytest.raises(stg.MissingOracleError):
        e.gradient([1, 1])
    assert e.value([2, -3]) == 7.0


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


def test_to_config_round_trips_or_raises(smoothed_sigma1):
    """Built-ins and expressions load back from their config; a smoothed or a
    constructed candidate has no config, so writing one is an error, not a bad file."""
    X = np.array([[0.5], [-1.25]])
    for V in [*stg.builtins().values(),
              stg.from_expression("x1*x1 + abs(x2)", 2, "lipschitz")]:
        back = stg.from_config(stg.to_config(V))
        assert (back.name, back.regularity, back.dim) == (V.name, V.regularity, V.dim)
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
# batched oracles against the scalar formulas
# ---------------------------------------------------------------------------

_DIMS = {"v1_scaled": 2, "v1": 2, "v2": 2, "v3_scalar": 1, "sq_norm": 3}


def _reference_intervals(name, x):
    """The built-in subdifferentials written out one point at a time."""
    def snap(v):
        return 0.0 if abs(v) <= 1e-12 else float(v)

    if name in ("v1", "v1_scaled"):
        s = 1.0 if name == "v1" else 2.0
        return tuple((-s, s) if snap(v) == 0 else (math.copysign(s, v),) * 2 for v in x)
    if name == "v2":
        z1 = 2 * float(x[0])
        if snap(x[1]) == 0:
            return ((z1, z1), (-math.inf, math.inf))
        z2 = float((2.0 / 3.0) / np.cbrt(x[1]))
        return ((z1, z1), (z2, z2))
    if name == "v3_scalar":
        v = float(x[0])
        if abs(v) <= 1e-12:
            return ((-1.0, 1.0),)
        if abs(v - 1.0) <= 1e-12:
            return ((1.0, 2.0),)
        s = -1.0 if v < 0 else (1.0 if v < 1 else 2.0)
        return ((s, s),)
    return tuple((2 * float(v), 2 * float(v)) for v in x)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_DIMS)), data=st.data())
def test_subdiff_batch_matches_scalar(name, data):
    """Batched boxes equal the per-point oracle, on random points and on every kink locus."""
    V = stg.builtin(name)
    n = _DIMS[name]
    coord = st.floats(-3.0, 3.0, allow_nan=False)
    X = np.array(data.draw(st.lists(st.lists(coord, min_size=n, max_size=n),
                                    min_size=1, max_size=6)))
    copies = [X]
    for axis, value in V.kinks:
        Y = X.copy()
        Y[:, axis] = value + data.draw(st.floats(-1e-12, 1e-12))
        copies.append(Y)
    X = np.concatenate(copies)
    lo, hi = V.subdiff_batch(X)
    assert lo.shape == hi.shape == X.shape
    for x, row_lo, row_hi in zip(X, lo, hi):
        expected = _reference_intervals(name, x)
        assert tuple(zip(row_lo.tolist(), row_hi.tolist())) == expected, x
        assert V.subdiff(x).intervals == expected, x


def test_subdiff_batch_scalar_fallback():
    """Candidates with only a scalar oracle are queried row by row; empty sets mark lo > hi."""
    v3 = stg.builtin("v3_scalar")

    def sd(x):
        return stg.SubdiffSet.empty_set() if x[0] > 2.0 else v3.subdiff(x)

    cand = stg.from_callables("v3-partial", v3.value_fn, subdiff_fn=sd, dim=1)
    lo, hi = cand.subdiff_batch(np.array([[-1.0], [0.0], [1.0], [2.5]]))
    assert lo[:, 0].tolist() == [-1.0, -1.0, 1.0, math.inf]
    assert hi[:, 0].tolist() == [-1.0, 1.0, 2.0, -math.inf]
    grad_only = stg.from_callables("sq", v3.value_fn, gradient_fn=lambda x: 2 * x, dim=1)
    lo, hi = grad_only.subdiff_batch(np.array([[0.5], [-1.5]]))
    assert lo.tolist() == hi.tolist() == [[1.0], [-3.0]]


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

def _wide_at_kinks(X):
    lo, hi = stg.builtin("v1_scaled").subdiff_batch(X)
    kink = np.any(lo != hi, axis=1, keepdims=True)
    return np.where(kink, -100.0, lo), np.where(kink, 100.0, hi)


@functools.lru_cache(maxsize=None)
def _constructed():
    return c1.construct_w(sy.make_scalar_linear(), 1.0, stg.builtin("sq_norm"),
                          np.linspace(0.05, 2.0, 40))


def _candidate_form(form, smoothed):
    """The candidate built as ``form`` names it, with an affine system of its dimension."""
    v, v3 = stg.builtin("v1_scaled"), stg.builtin("v3_scalar")
    if form in stg.builtins():
        V = stg.builtin(form)
    elif form == "gradient_only":
        V = stg.from_callables("grad_only", v.value_fn, gradient_fn=v.gradient, dim=2)
    elif form == "subdiff_only":   # empty right of 1.5
        V = stg.from_callables(
            "v3-partial", v3.value_fn, dim=1,
            subdiff_fn=lambda x: stg.SubdiffSet.empty_set() if x[0] > 1.5 else v3.subdiff(x))
    elif form == "wide_kinks":     # the batched oracle wins over the gradient
        V = stg.from_callables("wide_kinks", v.value_fn, gradient_fn=v.gradient,
                               regularity="lipschitz", dim=2, subdiff_batch_fn=_wide_at_kinks)
    elif form == "smoothed":
        V = smoothed.W
    else:
        V = _constructed().to_storage()
    return V, sy.make_scalar_linear() if V.dim == 1 else sy.make_sigma1()


_FORMS = sorted(stg.builtins()) + ["gradient_only", "subdiff_only", "wide_kinks",
                                   "smoothed", "constructed"]


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
