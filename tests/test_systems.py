import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjikit import systems as sy


def test_dynamics_worked_examples():
    s1 = sy.make_sigma1()
    assert np.allclose(s1.dynamics([1, 1], [1, 1]), [1, -1])
    s2 = sy.make_sigma2()
    assert np.allclose(s2.dynamics([1, 1], [0, 0]), [0, -6])
    sp = sy.make_sigma_p(3.0)
    for u in ([0, 0], [2, 5], [-1, 3]):
        assert np.allclose(sp.dynamics([0, 0], u), [0, 0])


def test_zoo_contents_and_claims():
    entries = {e.name: e for e in sy.zoo()}
    assert entries["sigma1"].claimed_gamma == 1.0
    assert entries["sigma_p(3)"].claimed_gamma == sy.ANY_POSITIVE
    assert not entries["sigma_p(3)"].has_specific_gamma
    assert entries["sigma3_scalar"].claimed_witness.name == "v3_scalar"
    assert {"sigma1", "sigma1_c1", "sigma2", "sigma_p(3)", "sigma_p_signed(3)",
            "sigma3_scalar", "scalar_linear", "scalar_decay"} <= set(entries)
    with pytest.raises(KeyError):
        sy.zoo_entry("nope")


def test_power_affine_p1_signed_matches_affine_exactly():
    """With p = 1 and the signed power, the two shapes agree to 0 ulps."""
    s1 = sy.make_sigma1()
    ps = sy.PowerAffineSystem(2, 2, s1.g0, s1.g, p=1.0, phi="signed_pow")
    rng = np.random.default_rng(0)
    X = rng.uniform(-3, 3, (1000, 2))
    U = rng.uniform(-3, 3, (1000, 2))
    a = s1.dynamics(X, U)
    b = ps.dynamics(X, U)
    assert np.all(a == b)


def test_sigma2_drift_plus_input_decomposition():
    """dynamics = g(x) + h(x, u) with the cusp field g and dissipative h."""
    s2 = sy.make_sigma2()
    rng = np.random.default_rng(1)
    X = rng.uniform(-2, 2, (400, 2))
    U = rng.uniform(-2, 2, (400, 2))
    x1, x2 = X[:, 0], X[:, 1]
    g = np.stack([x2, -3 * x1 * np.cbrt(x2) ** 4], axis=-1)
    h = np.stack([U[:, 0] - x1, 3 * np.cbrt(x2) ** 4 * (U[:, 1] - x2)], axis=-1)
    assert np.max(np.abs(s2.dynamics(X, U) - (g + h))) <= 1e-12


@pytest.mark.parametrize("name", ["sigma_p(3)", "sigma_p_signed(3)"])
def test_sigma_p_axis_component_vanishes(name):
    sysm = sy.zoo_entry(name).system
    rng = np.random.default_rng(2)
    x1 = rng.uniform(-3, 3, 200)
    X = np.stack([x1, np.zeros_like(x1)], axis=-1)
    U = rng.uniform(-4, 4, (200, sysm.m))
    assert np.all(sysm.dynamics(X, U)[:, 1] == 0.0)


def test_scalar_f_expression_matches_reference_helpers():
    """The DSL-encoded scalar field equals the plain piecewise helpers."""
    s3 = sy.make_sigma3_scalar()
    rng = np.random.default_rng(3)
    x = rng.uniform(-3, 3, 500)
    u = rng.uniform(-3, 3, 500)
    expected = sy.f_scalar(x, u)
    got = s3.dynamics(x[:, None], u[:, None])[:, 0]
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_scalar_f_worked_values():
    assert sy.f_scalar(0.5, 0.8) == pytest.approx(0.8 ** 2 - 0.5 ** 2)
    assert sy.f_scalar(2.0, 2.0) == pytest.approx(0.0)
    # branch blend is exact at x = 0
    assert sy.f_scalar(0.0, 1.7) == pytest.approx(
        1.7 * sy.psi_blend(0.0, 1.7))


def test_dimension_checks():
    s1 = sy.make_sigma1()
    with pytest.raises(sy.DimensionError):
        s1.dynamics([1, 2, 3], [0, 0])
    with pytest.raises(sy.DimensionError):
        s1.dynamics([1, 2], [0])
    with pytest.raises(sy.DimensionError):
        sy.AffineSystem(2, 1, ("x1",), (("x1", "x2"),))


def test_power_affine_validation():
    with pytest.raises(ValueError):
        sy.PowerAffineSystem(1, 1, ("-x1",), (("1",),), p=0.5)
    with pytest.raises(ValueError):
        sy.PowerAffineSystem(1, 1, ("-x1",), (("1",),), p=2.0, phi="weird")


def test_config_round_trip():
    for entry in sy.zoo():
        cfg = sy.system_to_config(entry.system)
        rebuilt = sy.system_from_config(cfg)
        rng = np.random.default_rng(4)
        X = rng.uniform(-2, 2, (50, entry.system.n))
        U = rng.uniform(-2, 2, (50, entry.system.m))
        assert np.all(rebuilt.dynamics(X, U) == entry.system.dynamics(X, U))


def test_config_rejects_unknown_kind():
    with pytest.raises(ValueError):
        sy.system_from_config({"kind": "fancy", "n": 1, "m": 1})


def _stacked_dynamics(sys, x, u):
    """g0 stacked once, plus w_i times the stacked field g_i, one channel at a time."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    out = sys.drift(x)
    fields = sys.input_fields(x)
    for i in range(sys.m):
        if isinstance(sys, sy.PowerAffineSystem):
            out = out + sys.phi_apply(u[..., i])[..., None] * fields[i]
        else:
            out = out + u[..., i, None] * fields[i]
    return out


_AFFINE_SHAPES = [e.system for e in sy.zoo()
                  if isinstance(e.system, (sy.AffineSystem, sy.PowerAffineSystem))] + [
    sy.PowerAffineSystem(2, 2, ("-x1+x2", "-cbrt(x2)"), (("1", "x2"), ("abs(x1)", "0")),
                         p=p, phi=phi)
    for p in (1.0, 1.5, 2.0, 2.7, 3.0) for phi in ("abs_pow", "signed_pow")]

# (batch shape of x, batch shape of u): equal batches, one state against many
# inputs and the reverse (as hji's sampled and vertex paths pass them), and an
# outer-product broadcast
_BATCHES = [((7,), (7,)), ((), (5,)), ((6,), ()), ((), ()), ((3, 1), (1, 4))]


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, len(_AFFINE_SHAPES) - 1), seed=st.integers(0, 2 ** 32 - 1))
def test_dynamics_matches_stacked_formula_bitwise(k, seed):
    sys = _AFFINE_SHAPES[k]
    rng = np.random.default_rng(seed)
    for xb, ub in _BATCHES * 10:     # numpy's pow differs by batch shape: try each often
        x = rng.uniform(-3, 3, xb + (sys.n,))
        u = rng.uniform(-3, 3, ub + (sys.m,))
        x[rng.random(x.shape) < 0.2] = 0.0          # the fields' kinks and the cusp
        u[rng.random(u.shape) < 0.2] = 0.0
        got = sys.dynamics(x, u)
        ref = _stacked_dynamics(sys, x, u)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (xb, ub)


@pytest.mark.parametrize("phi", ["abs_pow", "signed_pow"])
@pytest.mark.parametrize("batch", [(), (1,)])
@pytest.mark.parametrize("g0, g", [
    (("-x1+x2", "-cbrt(x2)"), (("1", "x2"), ("abs(x1)", "0.5"))),
    (("1",), (("2",),)),                    # x-free: constants become arrays, phi's exponent not
])
def test_power_affine_square_matches_phi_apply_bitwise(phi, batch, g0, g):
    """p = 2 takes numpy's square path in phi_apply (a scalar exponent), for one
    0-d state and for a (1, n) batch alike; array pow would differ in the last bit."""
    sys = sy.PowerAffineSystem(len(g0), len(g), g0, g, p=2.0, phi=phi)
    rng = np.random.default_rng(len(phi) + len(batch))
    for _ in range(300):
        x = rng.uniform(-3, 3, batch + (sys.n,))
        u = rng.uniform(-3, 3, batch + (sys.m,))
        got, ref = sys.dynamics(x, u), _stacked_dynamics(sys, x, u)
        assert got.shape == ref.shape == batch + (sys.n,)
        assert got.tobytes() == ref.tobytes(), (x, u)


@pytest.mark.parametrize("batch", [(), (1,), (50,)])
def test_general_field_pow_keeps_array_exponent(batch):
    """A general field's pow(u1, 2) raises to an array of X's batch shape, as
    evaluating every node as an array does; phi's scalar exponent stays out."""
    sys = sy.GeneralSystem(1, 1, ("x1 + pow(u1, 2)",))
    rng = np.random.default_rng(len(batch))
    for _ in range(100):
        x = rng.uniform(-3, 3, batch + (1,))
        u = rng.uniform(-3, 3, batch + (1,))
        ref = x[..., 0] + np.abs(u[..., 0]) ** np.full(batch, 2.0)
        got = sys.dynamics(x, u)
        assert got.shape == batch + (1,) and got[..., 0].tobytes() == np.asarray(ref).tobytes()
