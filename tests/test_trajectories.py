import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjikit import cli
from hjikit import expr as ex
from hjikit import storage as stg
from hjikit import systems as sy
from hjikit import trajectories as tr


@pytest.fixture(scope="module")
def linear():
    return sy.make_scalar_linear()


def test_signals():
    c = tr.ConstantInput([1.5, -2.0])
    assert np.allclose(c(0.3), [1.5, -2.0])
    pw = tr.PiecewiseConstantInput([1.0, 2.0], [[0.0], [5.0], [-1.0]])
    assert pw(0.5)[0] == 0.0
    assert pw(1.0)[0] == 5.0     # right-continuous at the switch
    assert pw(2.5)[0] == -1.0
    assert np.allclose(pw(np.array([0.5, 1.5]))[:, 0], [0.0, 5.0])
    s = tr.SinusoidInput([2.0], [np.pi], [0.0])
    assert s(0.5)[0] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        tr.PiecewiseConstantInput([2.0, 1.0], [[0], [1], [2]])
    for sig in (c, pw, s):
        assert tr.signal_from_config(sig.config()).config() == sig.config()


def test_rk4_exponential_oracle(linear):
    traj = tr.integrate(linear, [1.0], tr.ConstantInput([0.0]), (0, 1), 1e-3)
    assert abs(traj.states[-1, 0] - np.exp(-1)) <= 1e-9
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(1.0)


def test_rk4_fourth_order_halving(linear):
    errs = []
    for h in (0.05, 0.025):
        t = tr.integrate(linear, [1.0], tr.ConstantInput([0.0]), (0, 1), h)
        errs.append(abs(t.states[-1, 0] - np.exp(-1)))
    assert 12 <= errs[0] / errs[1] <= 20


def test_equilibrium_stays_put():
    s1 = sy.make_sigma1()
    traj = tr.integrate(s1, [0.0, 0.0], tr.ConstantInput([0.0, 0.0]), (0, 1), 1e-2)
    assert np.all(traj.states == 0.0)


def test_sigma_p_axis_invariance():
    sp = sy.make_sigma_p(3.0)
    traj = tr.integrate(sp, [1.0, 0.0], tr.ConstantInput([5.0, 5.0]), (0, 1), 1e-3)
    assert np.all(traj.states[:, 1] == 0.0)


def test_replay_determinism(linear):
    """Stored states satisfy the one-step recurrence bit-for-bit."""
    sig = tr.PiecewiseConstantInput([0.25, 0.5], [[1.0], [-0.5], [0.25]])
    traj = tr.integrate(linear, [1.0], sig, (0, 1), 1e-2)
    h = traj.step
    for k in range(len(traj.times) - 1):
        t = traj.times[k]
        x = traj.states[k][None, :]
        u1 = sig(t)[None, :]
        u2 = sig(t + 0.5 * h)[None, :]
        u3 = sig(t + h)[None, :]
        k1 = linear.dynamics(x, u1)
        k2 = linear.dynamics(x + 0.5 * h * k1, u2)
        k3 = linear.dynamics(x + 0.5 * h * k2, u2)
        k4 = linear.dynamics(x + h * k3, u3)
        nxt = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.all(nxt[0] == traj.states[k + 1])


def test_blow_up_detection():
    quad = sy.GeneralSystem(1, 1, ("x1*x1",))
    with pytest.raises(tr.BlowUpError):
        tr.integrate(quad, [2.0], tr.ConstantInput([0.0]), (0, 2), 1e-3)


def test_dissipation_audit_examples():
    s1 = sy.make_sigma1()
    traj = tr.integrate(s1, [1.0, 1.0], tr.ConstantInput([0.0, 0.0]), (0, 1), 1e-3)
    slack = tr.dissipation_audit(traj, stg.builtin("v1_scaled"), 1.0)
    assert 0.0 <= slack <= 1e-4
    s2 = sy.make_sigma2()
    traj = tr.integrate(s2, [0.5, 0.5], tr.ConstantInput([1.0, 1.0]), (0, 1), 1e-3)
    assert tr.dissipation_audit(traj, stg.builtin("v2"), 1.0) <= 1e-4
    # the a = b pair contributes exactly zero slack
    _, (a, b) = tr.dissipation_audit_detail(traj, stg.builtin("v2"), 1.0)
    assert a <= b


def test_dissipation_audit_flags_nonwitness(linear):
    """A candidate that is not a witness shows positive slack along some run."""
    fake = stg.from_expression("pow(x1, 4)", 1)
    traj = tr.integrate(linear, [1.5], tr.ConstantInput([0.0]), (0, 1), 1e-3)
    # d/dt x^4 = -4x^4 vs supply -x^2: at x = 1.5, -4x^4 < -x^2 holds... drive it:
    traj2 = tr.integrate(linear, [0.0], tr.ConstantInput([2.0]), (0, 2), 1e-3)
    slack = tr.dissipation_audit(traj2, fake, 1.0)
    assert slack > 1e-3


def test_witness_implies_integral_inequality_sampled():
    """Randomized spot check of the claim for a few zoo entries.

    The scalar system's trajectories ride the kink manifold x = |u| where the
    integrator drops to first order, so that entry integrates with a finer step.
    """
    rng = np.random.default_rng(5)
    for name in ("sigma1", "sigma2", "sigma3_scalar", "scalar_decay"):
        entry = sy.zoo_entry(name)
        n, m = entry.system.n, entry.system.m
        gamma = entry.claimed_gamma if entry.has_specific_gamma else 1.0
        step = 2e-4 if name == "sigma3_scalar" else 1e-3
        count = 10
        X0 = rng.uniform(-1, 1, (count, n))
        ens = tr.random_piecewise_ensemble(m, 1.0, step, count,
                                           seed=int(rng.integers(1 << 16)))
        trajs = tr.integrate_ensemble(entry.system, X0, ens, (0, 1), step)
        for traj in trajs:
            assert tr.dissipation_audit(traj, entry.claimed_witness, gamma) <= 1e-4, name


def test_l2_gain_examples(linear):
    s1 = sy.make_sigma1()
    ens = tr.random_piecewise_ensemble(2, 5.0, 1e-3, 10, seed=0)
    assert tr.l2_gain_lowerbound(s1, ens, 5.0, 1e-3) <= 1.0 + 1e-3
    # transfer-function oracle 1/(s+1): |H(0)|^2 = 1, approached at low frequency
    sweep = [tr.SinusoidInput([1.0], [w]) for w in (0.05, 0.1, 0.2)]
    bound = tr.l2_gain_lowerbound(linear, sweep, 50.0, 2e-3)
    assert 0.95 <= bound <= 1.0 + 1e-3


def test_l2_gain_consistent_with_claimed_gains():
    """The ensemble lower bound never exceeds a claimed specific gain."""
    rng = np.random.default_rng(8)
    for entry in sy.zoo():
        if not entry.has_specific_gamma:
            continue
        ens = tr.random_piecewise_ensemble(entry.system.m, 5.0, 1e-3, 10,
                                           seed=int(rng.integers(1 << 16)))
        bound = tr.l2_gain_lowerbound(entry.system, ens, 5.0, 1e-3)
        assert bound <= entry.claimed_gamma + 1e-3, entry.name


def test_l2_gain_error_paths(linear):
    with pytest.raises(tr.NoAdmissibleInputError):
        tr.l2_gain_lowerbound(linear, [], 1.0)
    zero = tr.ConstantInput([0.0])
    with pytest.raises(tr.NoAdmissibleInputError, match="no admissible input"):
        tr.l2_gain_lowerbound(linear, [zero, zero], 1.0, 1e-2)


def test_trajectory_rows_shape(linear):
    traj = tr.integrate(linear, [1.0], tr.ConstantInput([0.5]), (0, 0.1), 1e-2)
    rows = tr.trajectory_rows(traj)
    assert rows.shape == (11, 3)
    assert np.allclose(rows[:, 2], 0.5)


def test_l2_gain_nontrivial_upper_side():
    """On entries whose state leaves the origin the bound is positive and below the gain."""
    for name, m in (("sigma2", 2), ("scalar_linear", 1)):
        entry = sy.zoo_entry(name)
        ens = tr.random_piecewise_ensemble(m, 5.0, 1e-3, 10, seed=3)
        bound, max_norm = tr.l2_gain_detail(entry.system, ens, 5.0, 1e-3)
        assert 0.0 < bound <= entry.claimed_gamma + 1e-3, name
        assert max_norm > 0.0, name
        assert bound == tr.l2_gain_lowerbound(entry.system, ens, 5.0, 1e-3)


def test_l2gain_flags_trivial_bound(tmp_path):
    """sigma1's fields vanish at the origin: the bound is 0, the report says why and
    the exit code is 3, inconclusive (a bound that measures no gain decides nothing)."""
    assert cli.main(["l2gain", "--zoo", "sigma1", "--count", "3", "--T", "0.5",
                     "--step", "0.01", "--out", str(tmp_path / "s1")]) == 3
    payload = json.loads((tmp_path / "s1" / "l2gain.json").read_text())
    assert payload["lower_bound"] == 0.0 and payload["max_state_norm"] == 0.0
    assert payload["trivial"] is True
    assert cli.main(["l2gain", "--zoo", "scalar_linear", "--count", "3", "--T", "0.5",
                     "--step", "0.01", "--out", str(tmp_path / "lin")]) == 0
    payload = json.loads((tmp_path / "lin" / "l2gain.json").read_text())
    assert payload["trivial"] is False and payload["max_state_norm"] > 0.0


def test_input_signal_shape_is_checked(linear):
    """A signal whose samples are not (N, m) is named in the error."""
    flat = lambda t: np.zeros(np.shape(t))                       # (N,), not (N, 1)
    with pytest.raises(ValueError, match="input signal 1 "):
        tr.integrate_ensemble(linear, np.zeros((2, 1)), [tr.ConstantInput([0.0]), flat],
                              (0, 0.1), 1e-2)
    with pytest.raises(ValueError, match="input signal 0 "):
        tr.integrate(linear, [0.0], tr.ConstantInput([0.0, 1.0]), (0, 0.1), 1e-2)


# ---------------------------------------------------------------------------
# Differential tests against the engine that called every signal at every stage
# ---------------------------------------------------------------------------

def _integrate_reference(sys, X0, inputs, t_span, step):
    """RK4 calling each signal at t, t + h/2 and t + h on every step; (B, N+1, n)."""
    a, b = float(t_span[0]), float(t_span[1])
    N = max(1, int(round((b - a) / step)))
    h = step
    times = a + h * np.arange(N + 1)
    X = np.asarray(X0, dtype=float).copy()
    states = [X]

    def u_at(t):
        return np.stack([np.asarray(sig(t), dtype=float) for sig in inputs], axis=0)

    for k in range(N):
        t = times[k]
        u1 = u_at(t)
        u2 = u_at(t + 0.5 * h)
        u3 = u_at(t + h)
        k1 = sys.dynamics(X, u1)
        k2 = sys.dynamics(X + 0.5 * h * k1, u2)
        k3 = sys.dynamics(X + 0.5 * h * k2, u2)
        k4 = sys.dynamics(X + h * k3, u3)
        X = X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(X)
    return np.stack(states, axis=1)


def _signal(kind, rng, m, a, h, N):
    if kind == "constant":
        return tr.ConstantInput(rng.uniform(-2, 2, m))
    if kind == "piecewise":
        steps = np.unique(rng.integers(1, N + 1, size=3))
        return tr.PiecewiseConstantInput([a + h * int(j) for j in steps],
                                         rng.uniform(-2, 2, (steps.size + 1, m)))
    return tr.SinusoidInput(rng.uniform(-2, 2, m), rng.uniform(0.1, 20, m),
                            rng.uniform(-np.pi, np.pi, m))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from([e.name for e in sy.zoo()]),
       kinds=st.lists(st.sampled_from(["constant", "piecewise", "sinusoid"]),
                      min_size=1, max_size=4),
       a=st.sampled_from([0.0, 0.1, 0.37, 1.5]),
       h=st.sampled_from([1e-3, 2.5e-3, 1e-2, 0.1 / 3]),
       N=st.integers(1, 30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_integrate_ensemble_matches_per_step_sampling(name, kinds, a, h, N, seed):
    sys = sy.zoo_entry(name).system
    rng = np.random.default_rng(seed)
    X0 = rng.uniform(-1, 1, (len(kinds), sys.n))
    inputs = [_signal(k, rng, sys.m, a, h, N) for k in kinds]
    span = (a, a + N * h)
    trajs = tr.integrate_ensemble(sys, X0, inputs, span, h)
    got = np.stack([t.states for t in trajs])
    assert got.tobytes() == _integrate_reference(sys, X0, inputs, span, h).tobytes()


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from([e.name for e in sy.zoo()]),
       kinds=st.lists(st.sampled_from(["constant", "piecewise", "sinusoid"]),
                      min_size=1, max_size=4),
       a=st.sampled_from([0.0, 0.1, 0.37, 1.5]),
       h=st.sampled_from([1e-3, 2.5e-3, 1e-2, 0.1 / 3]),
       N=st.integers(1, 30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_carried_midpoint_inputs_match_resampling(name, kinds, a, h, N, seed):
    """The stage-2 samples integration keeps are the audits' midpoint samples, bit for bit."""
    sys = sy.zoo_entry(name).system
    rng = np.random.default_rng(seed)
    inputs = [_signal(k, rng, sys.m, a, h, N) for k in kinds]
    trajs = tr.integrate_ensemble(sys, rng.uniform(-1, 1, (len(kinds), sys.n)), inputs,
                                  (a, a + N * h), h)
    V = sy.zoo_entry(name).claimed_witness
    for traj, sig in zip(trajs, inputs):
        fresh = np.asarray(sig(traj.times[:-1] + 0.5 * h), dtype=float)
        assert traj.midpoint_inputs().tobytes() == fresh.tobytes()
        bare = tr.Trajectory(traj.times, traj.states, sig, h)      # samples on demand
        assert tr.dissipation_audit_detail(traj, V, 1.5) == \
            tr.dissipation_audit_detail(bare, V, 1.5)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from([e.name for e in sy.zoo()]),
       kind=st.sampled_from(["constant", "piecewise", "sinusoid"]),
       a=st.sampled_from([0.0, 0.1, 0.37, 1.5]),
       h=st.sampled_from([1e-3, 2.5e-3, 1e-2, 0.1 / 3]),
       N=st.integers(1, 30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_one_trajectory_matches_the_batch_path_bitwise(name, kind, a, h, N, seed):
    """A batch of one steps in Python floats with the scalar right-hand side; its
    states are those of the same run in a two-copy ensemble (the array path) and of
    the per-step reference, bit for bit."""
    sys = sy.zoo_entry(name).system
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1, 1, sys.n)
    sig = _signal(kind, rng, sys.m, a, h, N)
    span = (a, a + N * h)
    one = tr.integrate(sys, x0, sig, span, h)
    pair = tr.integrate_ensemble(sys, np.stack([x0, x0]), [sig, sig], span, h)[0]
    assert one.states.tobytes() == pair.states.tobytes()
    assert one.states.tobytes() == _integrate_reference(sys, x0[None], [sig], span, h)[0].tobytes()
    assert one.times.tobytes() == pair.times.tobytes()
    assert one.u_mid.tobytes() == pair.u_mid.tobytes()


class _Counting:
    def __init__(self, sig):
        self.sig, self.calls = sig, 0

    def __call__(self, t):
        self.calls += 1
        return self.sig(t)


def test_audits_reuse_the_integration_samples():
    sys = sy.zoo_entry("sigma2").system
    ens = [_Counting(s) for s in tr.random_piecewise_ensemble(2, 0.5, 1e-2, 3, seed=1)]
    tr.l2_gain_detail(sys, ens, 0.5, 1e-2)
    assert [s.calls for s in ens] == [1, 1, 1]
    traj = tr.integrate(sys, [0.2, 0.1], ens[0], (0.0, 0.5), 1e-2)
    tr.dissipation_audit_detail(traj, sy.zoo_entry("sigma2").claimed_witness, 1.0)
    assert ens[0].calls == 2


def _audit_reference(traj, V, gamma):
    """Running argmin by an explicit loop: ties keep the earliest index."""
    A = tr._storage_minus_supply_running(traj, V, gamma)
    run_min = np.minimum.accumulate(A)
    run_arg = np.zeros(A.size, dtype=int)
    best, bi = A[0], 0
    for k in range(A.size):
        if A[k] < best:
            best, bi = A[k], k
        run_arg[k] = bi
    slacks = A - run_min
    b = int(np.argmax(slacks))
    return float(slacks[b]), (float(traj.times[run_arg[b]]), float(traj.times[b]))


@settings(max_examples=60, deadline=None)
@given(xs=st.lists(st.integers(-2, 2), min_size=1, max_size=25),
       us=st.lists(st.integers(-2, 2), min_size=1, max_size=25),
       a=st.sampled_from([0.0, 0.25, 1.0]),
       gamma=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
def test_dissipation_audit_detail_ties_match_loop(xs, us, a, gamma):
    """Integer states, dyadic steps: A is exact and its running minimum has ties."""
    h = 0.5
    times = a + h * np.arange(len(xs))
    sig = tr.PiecewiseConstantInput(times[1:len(us)], np.array(us[:len(xs)], float)[:, None])
    traj = tr.Trajectory(times, np.array(xs, float)[:, None], sig, h)
    V = stg.from_expression("2*x1", 1)
    assert tr.dissipation_audit_detail(traj, V, gamma) == _audit_reference(traj, V, gamma)


def test_dissipation_audit_detail_tie_example():
    """A = 3, 1, 2, 1, 5: the slack 4 is measured from the first of the tied minima."""
    times = np.arange(5.0)
    A = np.array([3.0, 1.0, 2.0, 1.0, 5.0])
    traj = tr.Trajectory(times, np.zeros((5, 1)), tr.ConstantInput([0.0]), 1.0)
    lookup = stg.StorageCandidate("lut", lambda X: A[:np.shape(X)[0]])
    assert tr.dissipation_audit_detail(traj, lookup, 1.0) == (4.0, (1.0, 4.0))


# ---------------------------------------------------------------------------
# The loop's checks: blow-up time, state and input shapes
# ---------------------------------------------------------------------------

def _blow_up_reference(sys, X0, inputs, t_span, step):
    """The first grid time at which max|x| > 1e8 or is not finite, stepping per step."""
    states = _integrate_reference(sys, X0, inputs, t_span, step)
    times = float(t_span[0]) + step * np.arange(states.shape[1])
    worst = np.max(np.abs(states), axis=(0, 2))
    return float(times[np.flatnonzero(~(worst <= 1e8))[0]])


@pytest.mark.parametrize("F, x0s, span, step", [
    (("x1*x1",), [[2.0]], (0, 2), 1e-3),                      # escape at t = 0.5
    (("x1*x1",), [[0.5], [3.0], [-1.0]], (0.25, 2.25), 2.5e-3),   # the fastest member
    (("x1*x1*x1 + u1",), [[1.0], [1.5]], (0, 1), 1e-2),
    (("sqrt(x1 - 1)",), [[0.5]], (0, 1), 0.1),                  # nan on the first step
    (("x1*x1*x1*x1*x1*x1*x1",), [[1e3]], (0, 1), 0.2),          # inf on the first step
    (("-x1", "sqrt(x2 - 1)"), [[1.0, 0.5]], (0, 1), 0.1),      # nan in x2 alone
])
def test_blow_up_time_is_first_grid_time_past_bound(F, x0s, span, step):
    sys = sy.GeneralSystem(len(F), 1, F)
    X0 = np.array(x0s)
    inputs = [tr.ConstantInput([0.5])] * len(x0s)
    with np.errstate(all="ignore"):
        expected = _blow_up_reference(sys, X0, inputs, span, step)
        with pytest.raises(tr.BlowUpError) as info:
            tr.integrate_ensemble(sys, X0, inputs, span, step)
        if len(x0s) == 1:      # alone, in Python floats, and as a two-copy batch in arrays
            with pytest.raises(tr.BlowUpError) as pair:
                tr.integrate_ensemble(sys, np.repeat(X0, 2, axis=0), inputs * 2, span, step)
            assert str(info.value) == str(pair.value)       # the same time and norm
    assert info.value.t == expected


def _count_rhs_calls(sys):
    calls = []
    rhs = sys._rhs

    def counted(X, U):
        calls.append(1)
        return rhs(X, U)

    object.__setattr__(sys, "_rhs", counted)
    return calls


def _count_scalar_rhs_calls(monkeypatch):
    """Count the calls of every scalar right-hand side compiled from now on."""
    calls, compile_evaluator = [], ex.compile_evaluator

    def compile_counted(e, table=ex.FLOAT):
        fn = compile_evaluator(e, table)
        if table is not ex.SCALAR:
            return fn

        def counted(x, u):
            calls.append(1)
            return fn(x, u)
        return counted

    monkeypatch.setattr(ex, "compile_evaluator", compile_counted)
    return calls


def test_state_dimension_mismatch_raises_before_any_step(monkeypatch):
    sys = sy.make_sigma1()
    calls = _count_rhs_calls(sys)
    with pytest.raises(sy.DimensionError, match="state has dimension 3, expected 2"):
        tr.integrate_ensemble(sys, np.zeros((2, 3)), [tr.ConstantInput([0.0, 0.0])] * 2,
                              (0, 0.1), 1e-2)
    assert calls == []
    tr.integrate_ensemble(sys, np.zeros((2, 2)), [tr.ConstantInput([0.0, 0.0])] * 2,
                          (0, 0.1), 1e-2)
    assert len(calls) == 4 * 10                  # every stage of every step, no extra call
    # a batch of one: the same checked first stage, then the scalar right-hand side
    calls.clear()
    scalar_calls = _count_scalar_rhs_calls(monkeypatch)
    with pytest.raises(sy.DimensionError, match="state has dimension 3, expected 2"):
        tr.integrate(sys, np.zeros(3), tr.ConstantInput([0.0, 0.0]), (0, 0.1), 1e-2)
    assert calls == [] and scalar_calls == []
    tr.integrate(sys, np.zeros(2), tr.ConstantInput([0.0, 0.0]), (0, 0.1), 1e-2)
    assert len(calls) == 1 and len(scalar_calls) == 4 * 10 - 1


def test_signal_with_wrong_input_dimension_is_named(monkeypatch):
    sys = sy.make_sigma1()
    calls = _count_rhs_calls(sys)
    good = tr.ConstantInput([0.0, 1.0])
    for j in range(3):
        inputs = [good, good, good]
        inputs[j] = tr.SinusoidInput([1.0], [2.0])                  # m = 1, not 2
        with pytest.raises(ValueError, match=f"input signal {j} returned shape "):
            tr.integrate_ensemble(sys, np.zeros((3, 2)), inputs, (0, 0.1), 1e-2)
    assert calls == []
    scalar_calls = _count_scalar_rhs_calls(monkeypatch)
    with pytest.raises(ValueError, match="input signal 0 returned shape "):
        tr.integrate(sys, np.zeros(2), tr.SinusoidInput([1.0], [2.0]), (0, 0.1), 1e-2)
    assert calls == [] and scalar_calls == []


# ---------------------------------------------------------------------------
# The ensemble l2 bound against one pass per trajectory
# ---------------------------------------------------------------------------

def _l2_reference(sys, ensemble, T, step):
    """The bound and largest |x| computed trajectory by trajectory."""
    trajs = tr.integrate_ensemble(sys, np.zeros((len(ensemble), sys.n)), ensemble, (0.0, T), step)
    best, max_norm = None, 0.0
    for traj in trajs:
        h = traj.step
        xsq = np.sum(traj.states * traj.states, axis=1)
        num = float(np.trapezoid(xsq, dx=h))
        u_mid = np.asarray(traj.input(traj.times[:-1] + 0.5 * h), dtype=float)
        den = float(np.sum(np.sum(u_mid * u_mid, axis=1)) * h)
        if den < 1e-12:
            continue
        ratio = num / den
        best = ratio if best is None else max(best, ratio)
        max_norm = max(max_norm, float(np.sqrt(np.max(xsq))))
    if best is None:
        raise tr.NoAdmissibleInputError("no admissible input")
    return best, max_norm


@pytest.mark.parametrize("name", ["sigma1", "sigma2", "sigma_p(3)", "sigma3_scalar",
                                  "scalar_linear", "scalar_decay"])
def test_l2_gain_detail_matches_per_trajectory_loop(name):
    sys = sy.zoo_entry(name).system
    rng = np.random.default_rng(len(name))
    m = sys.m
    ensemble = tr.random_piecewise_ensemble(m, 0.3, 1e-3, 7, seed=len(name)) + [
        tr.ConstantInput(np.zeros(m)),                          # zero energy: skipped
        tr.ConstantInput(np.full(m, 1e-7)),                     # energy below 1e-12: skipped
        tr.SinusoidInput(rng.uniform(-2, 2, m), rng.uniform(1, 30, m), rng.uniform(-3, 3, m)),
        tr.ConstantInput(rng.uniform(-1, 1, m))]
    for T, step in ((0.3, 1e-3), (0.25, 2.5e-3)):
        for ens in (ensemble, ensemble[7:], ensemble[::-1]):
            got = tr.l2_gain_detail(sys, ens, T, step)
            ref = _l2_reference(sys, ens, T, step)
            assert repr(got) == repr(ref) and all(type(v) is float for v in got), (T, ens)


def test_l2_gain_detail_skips_only_low_energy_inputs(linear):
    tiny = tr.ConstantInput([1e-7])                  # energy 1e-14 * T, below 1e-12
    with pytest.raises(tr.NoAdmissibleInputError):
        tr.l2_gain_detail(linear, [tiny, tr.ConstantInput([0.0])], 1.0, 1e-2)
    big = tr.ConstantInput([1e-5])                   # energy 1e-10: used
    bound, max_norm = tr.l2_gain_detail(linear, [tiny, big], 1.0, 1e-2)
    assert (bound, max_norm) == _l2_reference(linear, [big], 1.0, 1e-2)
    assert 0.0 < max_norm < 1e-5
