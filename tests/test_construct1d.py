import math

import numpy as np
import pytest

import hjikit as hk
from hjikit import construct1d as c1
from hjikit import storage as stg
from hjikit import systems as sy


@pytest.fixture(scope="module")
def linear():
    return sy.make_scalar_linear()


@pytest.fixture(scope="module")
def decay():
    return sy.make_scalar_decay()


def test_delta_examples():
    assert c1.delta(c1.QuadCoeffs(1, -4, 4), 2.0) == 0.0
    assert c1.delta(c1.QuadCoeffs(0, -1, 0), 0.0) == 0.0
    assert c1.delta(c1.QuadCoeffs(1, 0, 1), 0.0) == 1.0


def test_quad_coeffs_from_system(linear):
    q = c1.QuadCoeffs.at(linear, 1.0, 1.0)
    assert (q.a, q.b, q.c) == (1.0, -4.0, 4.0)
    assert q.b * q.b - 4 * q.a * q.c == 0.0  # the worked instance is a double root


def test_quad_coeffs_on_arrays_match_scalars(linear, decay):
    xs = np.linspace(-2.0, 2.0, 41)
    for sysm in (linear, decay):
        for coeffs in (c1.QuadCoeffs.at, lambda s, g, x: c1.QuadCoeffs.at(s, g, x, -1.0)):
            q = coeffs(sysm, 1.5, xs)
            for k, x in enumerate(xs):
                qs = coeffs(sysm, 1.5, float(x))
                assert (q.a[k], q.b[k], q.c[k]) == (qs.a, qs.b, qs.c)


def test_construct_w_reports_first_inadmissible_x(linear):
    """An envelope below the double root p = 2x is inadmissible from x = 1 on."""
    grid = np.linspace(0.5, 1.5, 11)
    with pytest.raises(hk.HjikitError, match=r"violates Delta\(p\) <= 0 at x=1$"):
        c1.construct_w(linear, 1.0, stg.builtin("sq_norm"), grid,
                       h=lambda x: np.where(x < 1, 3 * x, 0.5 * x), check_hypothesis=False)


def test_construct_w_rejects_a_nan_delta():
    """A drift that is NaN below x = 1 makes Delta(p) NaN there: that is a violation
    of Delta(p) <= 1e-9, not a pass with max_delta = nan."""
    nan_below_1 = sy.AffineSystem(1, 1, ("-x1 - sqrt(x1 - 1)",), (("1",),))
    grid = np.linspace(0.05, 2.0, 40)
    with np.errstate(invalid="ignore"), \
            pytest.raises(hk.HjikitError, match=r"violates Delta\(p\) <= 0 at x=0.05$"):
        c1.construct_w(nan_below_1, 1.0, stg.builtin("sq_norm"), grid, check_hypothesis=False)


def test_membership_examples(linear):
    assert c1.f_membership(linear, 1.0, 1.0, 2.0, "direct")
    assert c1.f_membership(linear, 1.0, 1.0, 2.0, "quadratic")
    assert not c1.f_membership(linear, 1.0, 1.0, 3.0, "direct")
    assert not c1.f_membership(linear, 1.0, 1.0, 3.0, "quadratic")
    nog = sy.AffineSystem(1, 1, ("-2*x1",), (("0",),))
    assert c1.f_membership(nog, 1.0, 1.0, 1.0, "direct")
    assert c1.f_membership(nog, 1.0, 1.0, 1.0, "quadratic")
    with pytest.raises(ValueError):
        c1.f_membership(linear, 1.0, -1.0, 2.0)
    with pytest.raises(ValueError):
        c1.f_membership(linear, 1.0, 1.0, 2.0, mode="weird")


def test_membership_equivalence_random():
    """Direct u-grid membership agrees with the quadratic form off the boundary."""
    rng = np.random.default_rng(11)
    agree = 0
    while agree < 1000:
        c0 = -rng.uniform(0.1, 3.0)
        c1v = rng.uniform(-2.0, 2.0)
        sysm = sy.AffineSystem(1, 1, (f"{c0}*x1",), ((f"{c1v}",),))
        gamma = rng.uniform(0.3, 3.0)
        x = rng.uniform(0.1, 3.0)
        p = rng.uniform(0.0, 5.0)
        q = c1.QuadCoeffs.at(sysm, gamma, x)
        if abs(c1.delta(q, p)) / (4 * gamma) <= 1e-3:
            continue  # too close to the membership boundary for a grid check
        d = c1.f_membership(sysm, gamma, x, p, "direct", u_points=1001)
        qd = c1.f_membership(sysm, gamma, x, p, "quadratic")
        assert d == qd, (c0, c1v, gamma, x, p)
        agree += 1


def test_p_of_x_examples(linear, decay):
    assert c1.p_of_x(linear, 1.0, lambda x: 4 * abs(x), 1.0) == 2.0
    assert c1.p_of_x(decay, 1.0, lambda x: 2 * x, 1.0) == 2.0
    weak = sy.AffineSystem(1, 1, ("-x1/10",), (("1",),))
    with pytest.raises(c1.InfeasibleAtError):
        c1.p_of_x(weak, 1.0, lambda x: 4 * abs(x), 1.0)
    unstable = sy.AffineSystem(1, 1, ("x1",), (("1",),))
    with pytest.raises(c1.DriftSignError):
        c1.p_of_x(unstable, 1.0, lambda x: 4 * abs(x), 1.0)


def test_discriminant_clamp():
    """A discriminant in [-tol, 0) from rounding noise is treated as a double root."""
    perturbed = sy.AffineSystem(1, 1, ("-x1*0.9999999999995",), (("1",),))
    q = c1.QuadCoeffs.at(perturbed, 1.0, 1.0)
    disc = q.b * q.b - 4 * q.a * q.c
    assert -1e-10 <= disc < 0.0
    p = c1.p_of_x(perturbed, 1.0, lambda x: 4 * abs(x), 1.0)
    assert p == pytest.approx(2.0, abs=1e-9)


def test_h_from_v_examples():
    sq = stg.builtin("sq_norm")
    h = c1.h_from_v(sq, np.linspace(0.1, 2, 96), margin=1.0)
    assert h(1.0) == pytest.approx(8.0, abs=0.25)
    l1 = stg.from_expression("abs(x1)", 1)
    h = c1.h_from_v(l1, np.linspace(0.1, 2, 96), margin=0.0)
    assert h(1.0) == pytest.approx(2.0, abs=1e-9)
    const = stg.from_expression("5", 1)
    h = c1.h_from_v(const, np.linspace(0.1, 2, 24))
    assert h(1.0) == pytest.approx(1e-9)  # positive floor where V is flat
    with pytest.raises(ValueError):
        c1.h_from_v(sq, np.linspace(0.1, 2, 8), window=0.0)


def test_construct_w_reproduces_square(linear):
    grid = np.linspace(0.01, 2.0, 200)
    built = c1.construct_w(linear, 1.0, stg.builtin("sq_norm"), grid,
                           h=lambda x: 4 * abs(x))
    assert np.max(np.abs(built.w_values - grid ** 2)) <= 1e-6
    assert np.max(np.abs(built.p_values - 2 * grid)) <= 1e-9
    assert np.max(np.abs(built.w_neg_values - grid ** 2)) <= 1e-6
    # contracts: domination, positivity, strict increase
    v = stg.builtin("sq_norm").value_batch(grid[:, None])
    assert np.all(built.w_values >= v - 1e-9)
    assert np.all(np.diff(np.concatenate([[0.0], built.w_values])) > 0)
    assert built.w_at(np.array([0.0]))[0] == 0.0


def test_construct_w_a_zero_branch(decay):
    grid = np.linspace(0.01, 2.0, 200)
    half_sq = stg.from_expression("0.5*pow(x1, 2)", 1)
    built = c1.construct_w(decay, 1.0, half_sq, grid, h=lambda x: 2 * abs(x))
    assert np.max(np.abs(built.w_values - grid ** 2)) <= 1e-6
    # W' (-2x) <= -x^2 pointwise on the grid
    assert np.all(built.p_values * (-2 * grid) <= -grid ** 2 + 1e-12)


def test_construct_w_witness_check(linear):
    grid = np.linspace(0.01, 2.0, 200)
    built = c1.construct_w(linear, 1.0, stg.builtin("sq_norm"), grid,
                           h=lambda x: 4 * abs(x))
    W = built.to_storage()
    reg = hk.Region(box=((-2, 2),), points_per_dim=81, exclude_radius=0.05)
    assert hk.check_witness(linear, W, 1.0, reg, tol=1e-6).passed


def test_construct_w_precondition_failures(linear):
    grid = np.linspace(0.01, 2.0, 50)
    not_witness = stg.from_expression("pow(x1, 4)", 1)
    with pytest.raises(c1.WitnessHypothesisError):
        c1.construct_w(linear, 1.0, not_witness, grid)
    drifty = sy.AffineSystem(1, 1, ("-x1+0.5",), (("1",),))
    with pytest.raises(c1.DriftSignError):
        c1.construct_w(drifty, 1.0, stg.builtin("sq_norm"), grid,
                       h=lambda x: 4 * abs(x), check_hypothesis=False)


def test_construct_w_hypothesis_error_names_the_worst_point():
    """The hypothesis fails at its worst grid row: the first of the tie at x = -2 and 2."""
    with pytest.raises(c1.WitnessHypothesisError, match=r"witness check at x=-2$"):
        c1.construct_w(sy.make_scalar_linear(), 0.5, stg.builtin("sq_norm"),
                       np.linspace(0.01, 2, 200))


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan])
def test_construct_w_rejects_a_nonpositive_gamma(linear, gamma):
    """Checked before the drift sign, which a negative gamma would misreport."""
    with pytest.raises(ValueError, match="gamma must be positive"):
        c1.construct_w(linear, gamma, stg.builtin("sq_norm"), np.linspace(0.01, 2.0, 20),
                       check_hypothesis=False)


def test_construct_w_default_envelope(linear):
    grid = np.linspace(0.05, 2.0, 120)
    built = c1.construct_w(linear, 1.0, stg.builtin("sq_norm"), grid, margin=0.2)
    v = stg.builtin("sq_norm").value_batch(grid[:, None])
    assert np.all(built.w_values >= v - 1e-7)
    for x, p in zip(built.grid, built.p_values):
        assert c1.delta(c1.QuadCoeffs.at(linear, 1.0, float(x)), float(p)) <= 1e-9
        assert p >= 0.0


def test_root_vs_min_identity(linear):
    """(-b - sqrt(disc))/(2a) = 2c/(|b| + sqrt(disc)) <= 2x^2/|g0| <= h(x)."""
    grid = np.linspace(0.1, 2.0, 60)
    env = c1.h_from_v(stg.builtin("sq_norm"), grid, margin=0.1)
    for x in grid:
        q = c1.QuadCoeffs.at(linear, 1.0, float(x))
        disc = q.b * q.b - 4 * q.a * q.c
        assert disc >= -1e-10
        disc = max(disc, 0.0)
        small_root = (-q.b - math.sqrt(disc)) / (2 * q.a)
        alt = 2 * q.c / (abs(q.b) + math.sqrt(disc))
        assert small_root == pytest.approx(alt, rel=1e-12)
        bound = 2 * x * x / abs(q.b / 4.0)
        assert small_root <= bound + 1e-12
        assert bound <= env(float(x)) + 1e-12


def test_selector_continuity_as_a_vanishes():
    """Scaling the input field toward zero sends the selector to the a = 0 branch."""
    h = lambda x: 3.0 * abs(x)
    vals = []
    for c in (1.0, 0.3, 0.1, 0.03, 0.01, 0.0):
        sysm = sy.AffineSystem(1, 1, ("-x1",), ((f"{c}",),))
        vals.append(c1.p_of_x(sysm, 1.0, h, 1.0))
    assert vals[-1] == 3.0  # a = 0 branch returns h
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
    assert vals[-2] == pytest.approx(vals[-1], abs=1e-6)


# ---------------------------------------------------------------------------
# array selectors and envelope windows against the point-by-point scan
# ---------------------------------------------------------------------------

def _scan_selectors(sysm, gamma, env, grid):
    """The per-x selector loop construct_w ran before its array pass (reference):
    every p(x) in grid order, then every mirrored q(-x), raising at the first failure."""
    def pick(q, x, hval, sign):
        if q.b >= 0:
            word = "negative for x > 0" if sign > 0 else "positive for x < 0"
            raise c1.DriftSignError(f"g0({x:g}) = {sign * q.b / (4 * gamma):g} must be {word}")
        if q.a == 0.0:
            return hval()
        disc = q.b * q.b - 4.0 * q.a * q.c
        if disc < -c1._DISC_CLAMP:
            raise c1.InfeasibleAtError(x, disc)
        root = (-q.b + math.sqrt(max(disc, 0.0))) / (2.0 * q.a)
        return min(hval(), root)

    p = [pick(c1.QuadCoeffs.at(sysm, gamma, float(x)), float(x), lambda: env(float(x)), 1.0)
         for x in grid]
    q = [-pick(c1.QuadCoeffs.at(sysm, gamma, -float(x), -1.0), -float(x),
               lambda: env(float(x)), -1.0) for x in grid]
    return np.array(p), np.array(q)


def _positive(h):
    """The array envelope h read at one x, as the reference scan reads it: a value
    that is not positive raises."""
    def env(x):
        v = float(h(x))
        if v <= 0:
            raise ValueError(f"envelope must be positive, got h({x:g}) = {v:g}")
        return v

    return env


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:      # the error's type and message are the outcome
        return f"{type(exc).__name__}: {exc}"


_SELECTOR_CASES = [
    (sy.make_scalar_linear(), None),
    (sy.make_scalar_decay(), None),                                  # a = 0 everywhere
    (sy.AffineSystem(1, 2, ("-x1 - spow(x1, 3)",),
                     (("0.3*pow(x1, 1.5)",), ("0.2*cbrt(x1)",))), None),
    (sy.AffineSystem(1, 1, ("-x1",), (("0.4*max(x1-1, 0)",),)), None),  # a = 0 up to x = 1
    (sy.AffineSystem(1, 1, ("-x1*(1.5-x1)",), (("0.5",),)), None),   # infeasible mid-grid
    (sy.AffineSystem(1, 1, ("-x1*(1.5-x1)",), (("0.5",),)),
     lambda x: np.where(x < 0.5, 1.0, -1.0)),                       # envelope fails first
    (sy.AffineSystem(1, 1, ("-x1*(1.5-x1)",), (("0.5",),)),
     lambda x: np.where(x < 2, 1.0, -1.0)),                         # ... and second
    (sy.AffineSystem(1, 1, ("-x1 - 0.3*x1*abs(x1)",),
                     (("0.5 + x1*x1*(1-sign(x1))",),)), None),       # fails on the mirror
    (sy.AffineSystem(1, 1, ("-x1 - 0.6*x1*x1",), (("0",),)), None),  # wrong drift sign, x < 0
    (sy.AffineSystem(1, 1, ("x1 - 2*x1*abs(x1)",), (("1",),)), lambda x: 4 * x),
]


@pytest.mark.parametrize("case", range(len(_SELECTOR_CASES)))
def test_construct_w_selectors_match_pointwise_scan(case):
    sysm, h = _SELECTOR_CASES[case]
    grid = np.geomspace(0.05, 3.0, 97)
    V = stg.builtin("sq_norm")
    h_or_default = h if h is not None else c1.h_from_v(V, grid, margin=0.1)
    ref = _outcome(lambda: _scan_selectors(sysm, 1.0, _positive(h_or_default), grid))
    got = _outcome(lambda: c1.construct_w(sysm, 1.0, V, grid, h=h, check_hypothesis=False))
    if isinstance(ref, str):
        assert got == ref
    else:
        assert not isinstance(got, str), got
        assert got.p_values.tobytes() == ref[0].tobytes()
        assert got.q_values.tobytes() == ref[1].tobytes()
        assert [c1.p_of_x(sysm, 1.0, h_or_default, float(x)) for x in grid[::8]] \
            == list(ref[0][::8])


def test_h_from_v_windows_match_per_point_windows():
    """Each window's quotients are read on S and on its mirror -S, the larger kept."""
    grid = np.geomspace(0.01, 2.0, 61)
    for V in (stg.builtin("sq_norm"), stg.builtin("v3_scalar"),
              stg.from_expression("pow(x1, 1.5) + abs(x1 - 1)", 1)):
        window = 0.5 * float(np.min(np.diff(grid)))
        ref = []
        for x in grid:
            s = np.linspace(x - window, x + window, 17)
            q = [np.abs(np.diff(V.value_batch(side[:, None]))) / np.diff(s) for side in (s, -s)]
            ref.append(2.0 * 1.1 * float(max(np.max(q[0]), np.max(q[1]))))
        env = c1.h_from_v(V, grid, margin=0.1)
        got = env(grid)
        assert got.tobytes() == np.maximum(np.array(ref), c1._H_FLOOR).tobytes()
        assert [env(float(x)) for x in grid] == list(got)


def test_construct_w_runs_one_selector_pass(linear, monkeypatch):
    """One drift/input_fields call for the witness check and one for the selector over
    both half-lines, which reads the envelope once and whose Delta the contract reuses."""
    calls = []
    for kind in ("drift", "input_fields"):
        original = getattr(sy.AffineSystem, kind)

        def counted(self, X, original=original, kind=kind):
            calls.append(kind)
            return original(self, X)

        monkeypatch.setattr(sy.AffineSystem, kind, counted)
    selector = c1._selector

    def counted_selector(*args):
        calls.append("selector")
        return selector(*args)

    monkeypatch.setattr(c1, "_selector", counted_selector)
    reads = []

    def h(x):
        reads.append(x.copy())
        return 4.0 * x

    grid = np.linspace(0.01, 2.0, 500)
    c1.construct_w(linear, 1.0, stg.builtin("sq_norm"), grid, h=h)
    assert sorted(calls) == ["drift"] * 2 + ["input_fields"] * 2 + ["selector"]
    assert len(reads) == 1 and reads[0].tobytes() == np.concatenate([grid, grid]).tobytes()


_ASYMMETRIC = "x1*x1*(2 - sign(x1))"      # x^2 for x > 0 and 3 x^2 for x < 0


def test_construct_w_reads_the_envelope_from_both_half_lines(linear):
    """V is steeper on x < 0: an envelope read from x > 0 alone clamps the mirrored
    slopes below V's, so W < V there.  Read from both, W >= V on both half-lines."""
    V = stg.from_expression(_ASYMMETRIC, 1)
    grid = np.linspace(0.01, 2.0, 200)                       # the CLI's default grid
    built = c1.construct_w(linear, 2.0, V, grid)
    assert np.all(built.w_values >= V.value_batch(grid[:, None]) - 1e-7)
    assert np.all(built.w_neg_values >= V.value_batch(-grid[:, None]) - 1e-7)
    assert built.w_dominates_v and built.w_strictly_increasing


def test_construct_w_reports_a_one_sided_envelope(linear):
    """The contract covers the mirrored half-line: a one-sided envelope fails it there."""
    V = stg.from_expression(_ASYMMETRIC, 1)
    grid = np.linspace(0.01, 2.0, 200)
    built = c1.construct_w(linear, 2.0, V, grid, h=lambda x: 4.4 * x)
    assert np.all(built.w_values >= V.value_batch(grid[:, None]) - 1e-7)
    assert not built.w_dominates_v
    assert built.w_strictly_increasing
    assert built.max_delta <= 1e-9


def test_construct_w_max_delta_covers_the_mirrored_half_line():
    """Without input (a = 0) the selector is h = 2|x| and Delta = b p + c: with
    g0 = -x - x^2 that is -4 x^2 - 8 x^3 at x > 0 and 4 x^2 (2 x - 1) at -x, the larger."""
    sysm = sy.AffineSystem(1, 1, ("-x1 - x1*x1",), (("0",),))
    grid = np.linspace(0.1, 0.45, 8)
    built = c1.construct_w(sysm, 1.0, stg.builtin("sq_norm"), grid, h=lambda x: 2 * x,
                           check_hypothesis=False)
    assert built.max_delta == pytest.approx(np.max(4 * grid ** 2 * (2 * grid - 1)), rel=1e-12)
    assert built.max_delta > np.max(-4 * grid ** 2 - 8 * grid ** 3)
