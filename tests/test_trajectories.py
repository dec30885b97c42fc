import json
import math
import warnings

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


def test_constant_input_is_a_step_input(tmp_path):
    """A constant is a step input without switches: its JSON kind and the switch-free
    piecewise constant write the same simulate reports, and ConstantInput(v), its
    piecewise form and a plain callable give a 3-trajectory sigma2 ensemble the same
    states and audit slacks, bit for bit.  (A non-finite constant is still named as
    ``values``: test_non_finite_input_config_is_bad_input.)"""
    v = [0.5, -0.3]
    for k, cfg in enumerate([{"kind": "constant", "values": v},
                             {"kind": "piecewise_constant", "switch_times": [], "values": [v]}]):
        assert cli.main(["simulate", "--zoo", "sigma2", "--storage", "builtin:v2", "--gamma",
                         "1", "--x0", "1", "-1", "--input", json.dumps(cfg), "--tspan", "0",
                         "0.2", "--step", "1e-3", "--out", str(tmp_path / str(k))]) == 0
    for name in ("trajectory.csv", "dissipation.json"):
        assert (tmp_path / "0" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()
    s2, v2 = sy.make_sigma2(), stg.builtin("v2")
    X0 = np.array([[1.0, -1.0], [0.3, 0.7], [-0.5, 0.2]])
    values = [[0.5, -0.3], [0.0, 1.0], [-1.2, 0.4]]
    forms = [[tr.ConstantInput(u) for u in values],
             [tr.PiecewiseConstantInput([], [u]) for u in values],
             [lambda t, u=np.array(u): np.broadcast_to(u, np.shape(t) + (2,)) for u in values]]
    runs = []
    for inputs in forms:
        trajs = tr.integrate_ensemble(s2, X0, inputs, (0.0, 0.2), 1e-3)
        runs.append((np.stack([t.states for t in trajs]).tobytes(),
                     [tr.dissipation_audit(t, v2, 1.0) for t in trajs]))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
def test_dissipation_audit_rejects_a_nonpositive_gamma(linear, gamma):
    """Both audits reject a gamma that is not positive and finite.  inf passes a test of
    gamma > 0 alone: on a zero input they used to return nan (inf * 0 in the supply)
    with a RuntimeWarning."""
    traj = tr.integrate(linear, [0.5], tr.ConstantInput([0.0]), (0, 0.1), 1e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for audit in (tr.dissipation_audit, tr.dissipation_audit_detail):
            with pytest.raises(ValueError, match="gamma must be positive and finite, got "):
                audit(traj, stg.builtin("sq_norm"), gamma)


@pytest.mark.parametrize("X0, shape", [
    (np.zeros(2), r"\(2,\)"), (np.zeros((1, 2, 1)), r"\(1, 2, 1\)"), (0.5, r"\(\)")])
def test_integrate_ensemble_names_the_batch_shape(linear, X0, shape):
    """Start states that are not one (B, n) array raise a ValueError naming that shape,
    not numpy's unpacking error."""
    with pytest.raises(ValueError, match=rf"shape \(B, n\), got shape {shape}$"):
        tr.integrate_ensemble(linear, X0, [tr.ConstantInput([0.0])] * 2, (0, 0.1), 1e-2)


@pytest.mark.parametrize("X0", [np.zeros((0, 1)), []])
def test_empty_batch_integrates_to_no_trajectories(linear, X0):
    """An empty batch is no trajectories, as a count-0 random ensemble is no signals; the
    span is still checked."""
    assert tr.integrate_ensemble(linear, X0, [], (0, 0.1), 1e-2) == []
    assert tr.integrate_ensemble(linear, X0, tr.random_piecewise_ensemble(1, 0.1, 1e-2, 0),
                                 (0, 0.1), 1e-2) == []
    with pytest.raises(ValueError, match="not a whole number of steps"):
        tr.integrate_ensemble(linear, X0, [], (0, 1), 0.6)
    with pytest.raises(ValueError, match="one input signal per initial condition"):
        tr.integrate_ensemble(linear, X0, [tr.ConstantInput([0.0])], (0, 0.1), 1e-2)


def test_audits_reject_a_switch_off_the_grid(linear):
    """The midpoint rule charges a whole step at one input value, so a switch between grid
    times makes the supply wrong on its step: both audits reject it, naming the switch and
    the step.  A switch on a grid time (up to 1e-9 of the span) or not inside the span
    passes, and the on-grid run keeps its slack."""
    V = stg.builtin("sq_norm")
    off = tr.PiecewiseConstantInput([0.0005], [[0.0], [1.0]])
    traj = tr.integrate(linear, [0.0], off, (0, 0.01), 1e-3)
    for audit in (tr.dissipation_audit, tr.dissipation_audit_detail):
        with pytest.raises(ValueError, match="switch time 0.0005 .* step 0.001"):
            audit(traj, V, 1.0)
    for switches in ([0.001], [0.004 + 1e-13], [0.0], [0.01], [-1.0, 0.5]):
        on = tr.PiecewiseConstantInput(switches, [[0.0], [1.0], [2.0]][:len(switches) + 1])
        tr.dissipation_audit(tr.integrate(linear, [0.0], on, (0, 0.01), 1e-3), V, 1.0)
    on = tr.PiecewiseConstantInput([0.001], [[0.0], [1.0]])
    slack = tr.dissipation_audit(tr.integrate(linear, [0.0], on, (0, 0.01), 1e-3), V, 1.0)
    assert 0.0 < slack < 1e-7


@pytest.mark.parametrize("cfg, key", [
    ({"kind": "constant", "values": [0.5, math.nan]}, "values"),
    ({"kind": "piecewise_constant", "switch_times": [math.nan], "values": [[0], [1]]},
     "switch_times"),
    ({"kind": "piecewise_constant", "switch_times": [0.5], "values": [[0], [math.inf]]}, "values"),
    ({"kind": "sinusoid", "amplitude": [math.nan], "omega": [1.0]}, "amplitude"),
    ({"kind": "sinusoid", "amplitude": [1.0], "omega": [-math.inf]}, "omega"),
    ({"kind": "sinusoid", "amplitude": [1.0], "omega": [1.0], "phase": [math.nan]}, "phase"),
])
def test_non_finite_input_config_is_bad_input(cfg, key, tmp_path, capsys):
    """A nan or inf in an input config is a ValueError naming its key, and simulate exits 2:
    a nan switch time used to never fire (and pass the audit with slack 0), and a nan
    amplitude was reported as a blow-up one step in."""
    with pytest.raises(ValueError, match=f"^input {key} must be finite, got "):
        tr.signal_from_config(cfg)
    assert cli.main(["simulate", "--zoo", "scalar_linear", "--storage", "builtin:sq_norm",
                     "--gamma", "1", "--x0", "0", "--input", json.dumps(cfg), "--tspan", "0",
                     "0.01", "--step", "1e-3", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "blow-up" not in err


@pytest.mark.parametrize("amplitude, omega, phase", [
    ([0.5, 0.7], [1.0], None), ([0.5, 0.7], [1.0, 2.0, 3.0], None),
    ([0.5], [1.0], [0.0, 1.0]), ([0.5, 0.7], [1.0, 2.0], [0.0])])
def test_sinusoid_lengths_must_agree(amplitude, omega, phase):
    """Amplitude, omega and phase (when given) name one value per channel: a length
    that differs is an error naming the three lengths, not a broadcast."""
    lengths = (len(amplitude), len(omega), len(amplitude) if phase is None else len(phase))
    with pytest.raises(ValueError, match="got {}, {} and {}$".format(*lengths)):
        tr.SinusoidInput(amplitude, omega, phase)
    assert tr.SinusoidInput([0.5, 0.7], [1.0, 2.0]).m == 2


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


@pytest.mark.parametrize("span, step", [((0, 1), 0.6), ((0, 1), 0.4), ((0.1, 0.2), 0.3)])
def test_span_must_be_a_whole_number_of_steps(linear, span, step):
    """N = round((b - a)/h) steps end at a + N h: a span they do not fill is an error,
    for one trajectory and for a batch, and a span they fill up to rounding is not."""
    u = tr.ConstantInput([0.5])
    with pytest.raises(ValueError, match=f"not a whole number of steps of {step:g}"):
        tr.integrate(linear, [1.0], u, span, step)
    with pytest.raises(ValueError, match="not a whole number of steps"):
        tr.integrate_ensemble(linear, np.ones((2, 1)), [u, u], span, step)
    a = float(span[0])
    traj = tr.integrate(linear, [1.0], u, (a, a + 7 * step), step)
    assert traj.times.size == 8


@pytest.mark.parametrize("span, step, shown", [
    ((0, math.inf), 0.1, r"\[0, inf\] and step 0.1"),
    ((0, math.nan), 0.1, r"\[0, nan\] and step 0.1"),
    ((-math.inf, 1), 0.1, r"\[-inf, 1\] and step 0.1"),
    ((0, 1), math.nan, r"\[0, 1\] and step nan"),
    ((0, 1), math.inf, r"\[0, 1\] and step inf"),
])
def test_non_finite_span_or_step_is_named(span, step, shown):
    """A span end or a step that is not finite raises a ValueError naming both, before any
    input sample or right-hand-side call, for one trajectory, a batch and the l2 bound
    (an infinite end used to raise OverflowError from int(), a nan one naming neither)."""
    sys = sy.GeneralSystem(1, 1, ("-x1",))
    calls, samples = _count_rhs_calls(sys), []
    u = lambda t: samples.append(1) or np.zeros((np.size(t), 1))
    match = f"need a finite span .* and a finite step > 0, got {shown}$"
    with pytest.raises(ValueError, match=match):
        tr.integrate(sys, [1.0], u, span, step)
    with pytest.raises(ValueError, match=match):
        tr.integrate_ensemble(sys, np.ones((2, 1)), [u, u], span, step)
    if span[0] == 0:                     # the l2 bound integrates over [0, T]
        with pytest.raises(ValueError, match=match):
            tr.l2_gain_lowerbound(sys, [u], span[1], step)
    assert calls == [] and samples == []


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


# Beyond the zoo: power-affine p = 2 (numpy's square path), 1.5 and 3, input fields
# with a literal 1 (written w, not w*1) and x-free constants, one component x-free as
# a whole (its constants are arrays of the batch shape), components that read only the
# input or nothing at all, and systems without inputs, with and without an input pass.
_RK4_SYSTEMS = {
    **{f"{phi}({p:g})": sy.AffineSystem(2, 2, ("-x1+x2", "-cbrt(x2)"),
                                        (("1", "x2"), ("abs(x1)", "0")), p=p, phi=phi)
       for p in (1.5, 2.0, 3.0) for phi in ("abs_pow", "signed_pow")},
    "constant fields": sy.AffineSystem(2, 2, ("-x1", "0.5"), (("1", "2"), ("x1", "1"))),
    "input only": sy.GeneralSystem(1, 1, ("u1",)),
    "constant only": sy.GeneralSystem(1, 1, ("1",)),
    "mixed": sy.GeneralSystem(2, 1, ("sqrt(abs(u1)) * x2 - x1", "1 - pow(cbrt(x1), 4) + u1*u1")),
    "m = 0": sy.AffineSystem(2, 0, ("-x1+x2", "-pow(cbrt(x2), 4)"), ()),
    "m = 0, x only": sy.GeneralSystem(1, 0, ("-x1",)),
}


def _rk4_system(name):
    return _RK4_SYSTEMS[name] if name in _RK4_SYSTEMS else sy.zoo_entry(name).system


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from([e.name for e in sy.zoo()] + list(_RK4_SYSTEMS)),
       kinds=st.lists(st.sampled_from(["constant", "piecewise", "sinusoid"]),
                      min_size=1, max_size=7),
       a=st.sampled_from([0.0, 0.1, 0.37, 1.5]),
       h=st.sampled_from([1e-3, 2.5e-3, 1e-2, 0.1 / 3]),
       N=st.integers(1, 30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_integrate_ensemble_matches_per_step_sampling(name, kinds, a, h, N, seed):
    """A batch's input pass, state passes and time-major rows give the states of the
    reference that calls every signal and ``sys.dynamics`` at every stage, bit for bit."""
    sys = _rk4_system(name)
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
    """The stage-2 samples and the squared norms of an integration's record are the ones a
    bare trajectory computes, every audit reads them to the same bits, and the l2 bound
    read from the record is the per-trajectory reference's."""
    sys = sy.zoo_entry(name).system
    rng = np.random.default_rng(seed)
    inputs = [_signal(k, rng, sys.m, a, h, N) for k in kinds]
    trajs = tr.integrate_ensemble(sys, rng.uniform(-1, 1, (len(kinds), sys.n)), inputs,
                                  (a, a + N * h), h)
    V = sy.zoo_entry(name).claimed_witness
    for traj, sig in zip(trajs, inputs):
        fresh = np.asarray(sig(traj.times[:-1] + 0.5 * h), dtype=float)
        assert traj.midpoint_inputs().tobytes() == fresh.tobytes()
        bare = tr.Trajectory(traj.times, traj.states, sig, h)      # computes on demand
        for carried, computed in zip(traj.energies(), bare.energies()):
            assert carried.shape == computed.shape and carried.tobytes() == computed.tobytes()
        for audit in (tr.dissipation_audit, tr.dissipation_audit_detail):
            assert repr(audit(traj, V, 1.5)) == repr(audit(bare, V, 1.5))
    assert (_l2_or_error(tr.l2_gain_detail, sys, inputs, N * h, h)
            == _l2_or_error(_l2_reference, sys, inputs, N * h, h))


def _l2_or_error(l2, sys, inputs, T, step) -> str:
    try:
        return repr(l2(sys, inputs, T, step))
    except tr.NoAdmissibleInputError as err:
        return f"error: {err}"


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from([e.name for e in sy.zoo()] + list(_RK4_SYSTEMS)),
       kind=st.sampled_from(["constant", "piecewise", "sinusoid"]),
       a=st.sampled_from([0.0, 0.1, 0.37, 1.5]),
       h=st.sampled_from([1e-3, 2.5e-3, 1e-2, 0.1 / 3]),
       N=st.integers(1, 30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_one_trajectory_matches_the_batch_path_bitwise(name, kind, a, h, N, seed):
    """A batch of one steps in Python floats with the scalar right-hand side; its
    states are those of the same run in a two-copy ensemble (the array path) and of
    the per-step reference, bit for bit."""
    sys = _rk4_system(name)
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1, 1, sys.n)
    sig = _signal(kind, rng, sys.m, a, h, N)
    span = (a, a + N * h)
    one = tr.integrate(sys, x0, sig, span, h)
    pair = tr.integrate_ensemble(sys, np.stack([x0, x0]), [sig, sig], span, h)[0]
    assert one.states.tobytes() == pair.states.tobytes()
    assert one.states.tobytes() == _integrate_reference(sys, x0[None], [sig], span, h)[0].tobytes()
    assert one.times.tobytes() == pair.times.tobytes()
    assert one.midpoint_inputs().tobytes() == pair.midpoint_inputs().tobytes()


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


def _running_reference(traj, V, gamma):
    """A_k = V(x_k) - S_k with np.sum, np.cumsum and a concatenated leading 0."""
    h, xs = traj.step, traj.states
    xsq = np.sum(xs * xs, axis=1)
    usq_mid = np.sum(np.square(traj.midpoint_inputs()), axis=1)
    increments = h * gamma * usq_mid - 0.5 * h * (xsq[:-1] + xsq[1:])
    return V.value_batch(xs) - np.concatenate([[0.0], np.cumsum(increments)])


def _bits(v: float) -> bytes:
    return np.float64(v).tobytes()


def _audit_reference(traj, V, gamma):
    """Running argmin by an explicit loop: ties keep the earliest index.  A is the row of
    the trajectory's batch audit, bit for bit."""
    A = _running_reference(traj, V, gamma)
    assert A.tobytes() == traj._record().audit(traj._row, V, gamma)[0].tobytes()
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
       gamma=st.sampled_from([0.25, 0.5, 1.0, 2.0]))
def test_dissipation_audit_detail_ties_match_loop(xs, us, a, gamma):
    """Integer states, dyadic steps: A is exact and its running minimum has ties."""
    h = 0.5
    times = a + h * np.arange(len(xs))
    sig = tr.PiecewiseConstantInput(times[1:len(us)], np.array(us[:len(xs)], float)[:, None])
    traj = tr.Trajectory(times, np.array(xs, float)[:, None], sig, h)
    V = stg.from_expression("2*x1", 1)
    detail = tr.dissipation_audit_detail(traj, V, gamma)
    assert detail == _audit_reference(traj, V, gamma)
    assert _bits(tr.dissipation_audit(traj, V, gamma)) == _bits(detail[0])   # slack only


def test_dissipation_audit_detail_tie_example():
    """A = 3, 1, 2, 1, 5: the slack 4 is measured from the first of the tied minima."""
    times = np.arange(5.0)
    A = np.array([3.0, 1.0, 2.0, 1.0, 5.0])
    traj = tr.Trajectory(times, np.zeros((5, 1)), tr.ConstantInput([0.0]), 1.0)
    lookup = stg.StorageCandidate("lut", lambda X: A[:np.shape(X)[0]])
    assert tr.dissipation_audit_detail(traj, lookup, 1.0) == (4.0, (1.0, 4.0))
    assert _bits(tr.dissipation_audit(traj, lookup, 1.0)) == _bits(4.0)


_AUDITS = (tr.dissipation_audit, tr.dissipation_audit_detail)


def _bare_audits(traj, V, gamma) -> list:
    """Both audits of a bare trajectory of the same arrays: a one-row record of its own."""
    one = tr.Trajectory(traj.times, traj.states, traj.input, traj.step)
    return [repr(audit(one, V, gamma)) for audit in _AUDITS]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from([e.name for e in sy.zoo()]),
       kinds=st.lists(st.sampled_from(["constant", "piecewise", "sinusoid"]),
                      min_size=1, max_size=5),
       a=st.sampled_from([0.0, 0.1, 0.37, 1.5]),
       h=st.sampled_from([1e-3, 2.5e-3, 1e-2, 0.1 / 3]),
       N=st.integers(1, 30),
       gammas=st.lists(st.sampled_from([0.25, 1.0, 1.5, 4.0]), min_size=2, max_size=2),
       other=st.sampled_from(["witness", "sq_norm"]),
       rand=st.randoms(use_true_random=False),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batch_audit_rows_match_one_row_audits(name, kinds, a, h, N, gammas, other, rand,
                                               seed):
    """Every row of an ensemble's batch audit is the audit of a bare one-row trajectory of
    the same arrays (and the reference loop's), bit for bit, for two (V, gamma) pairs:
    pair by pair in row order, and on a fresh record alternating between the pairs on
    every call while visiting the rows out of order."""
    entry = sy.zoo_entry(name)
    sys = entry.system
    rng = np.random.default_rng(seed)
    inputs = [_signal(k, rng, sys.m, a, h, N) for k in kinds]
    X0 = rng.uniform(-1, 1, (len(kinds), sys.n))
    V2 = entry.claimed_witness if other == "witness" else stg.builtin("sq_norm")
    pairs = ((entry.claimed_witness, gammas[0]), (V2, gammas[1]))
    span = (a, a + N * h)
    trajs = tr.integrate_ensemble(sys, X0, inputs, span, h)
    want = {(p, j): _bare_audits(t, *pairs[p]) for p in (0, 1) for j, t in enumerate(trajs)}
    for p, pair in enumerate(pairs):
        for j, t in enumerate(trajs):
            assert [repr(audit(t, *pair)) for audit in _AUDITS] == want[p, j]
            assert want[p, j][1] == repr(_audit_reference(t, *pair))
    trajs = tr.integrate_ensemble(sys, X0, inputs, span, h)
    rows = list(range(len(trajs)))
    rand.shuffle(rows)
    for j in rows:
        for p in rand.sample((0, 1), 2):
            for audit in rand.sample(_AUDITS, 2):
                assert repr(audit(trajs[j], *pairs[p])) == want[p, j][_AUDITS.index(audit)]


def test_off_grid_switch_fails_its_own_row_only(linear, monkeypatch):
    """A row whose input switches off the grid raises on its own audit alone, before and
    after the other rows of its ensemble are audited; the switch times are checked once
    per record, whatever the calls and (V, gamma) pairs."""
    checks = []
    off_grid = tr._Batch._off_grid
    monkeypatch.setattr(tr._Batch, "_off_grid", lambda self: checks.append(1) or off_grid(self))
    V = stg.builtin("sq_norm")
    shared = tr.random_piecewise_ensemble(1, 0.01, 1e-3, 3, seed=4)    # on the grid
    off = tr.PiecewiseConstantInput([0.0045], [[0.0], [1.0]])
    inputs = shared[:2] + [off, tr.ConstantInput([0.5])] + shared[2:]
    trajs = tr.integrate_ensemble(linear, np.full((5, 1), 0.25), inputs, (0, 0.01), 1e-3)
    for j in (2, 0, 1, 3, 4, 2):
        if j == 2:
            for audit in _AUDITS:
                with pytest.raises(ValueError, match="switch time 0.0045 is off the"):
                    audit(trajs[j], V, 1.0)
        else:
            assert [repr(audit(trajs[j], V, g)) for g in (1.0, 2.0) for audit in _AUDITS] == [
                r for g in (1.0, 2.0) for r in _bare_audits(trajs[j], V, g)]
    assert len(checks) == 1 + 4 * 2         # the record's, then one per bare trajectory


# ---------------------------------------------------------------------------
# The loop's checks: blow-up time, state and input shapes
# ---------------------------------------------------------------------------

def _blow_up_reference(sys, X0, inputs, t_span, step):
    """The first grid time after the start at which max|x| > 1e8 or is not finite,
    stepping per step; None if there is none."""
    states = _integrate_reference(sys, X0, inputs, t_span, step)
    times = float(t_span[0]) + step * np.arange(states.shape[1])
    past = 1 + np.flatnonzero(~(np.max(np.abs(states[:, 1:]), axis=(0, 2)) <= 1e8))
    return float(times[past[0]]) if past.size else None


@pytest.mark.parametrize("F, x0s, span, step", [
    (("x1*x1",), [[2.0]], (0, 2), 1e-3),                      # escape at t = 0.5
    (("x1*x1",), [[0.5], [3.0], [-1.0]], (0.25, 2.25), 2.5e-3),   # the fastest member
    (("x1*x1*x1 + u1",), [[1.0], [1.5]], (0, 1), 1e-2),
    (("sqrt(x1 - 1)",), [[0.5]], (0, 1), 0.1),                  # nan on the first step
    (("x1*x1*x1*x1*x1*x1*x1",), [[1e3]], (0, 1), 0.2),          # inf on the first step
    (("-x1", "sqrt(x2 - 1)"), [[1.0, 0.5]], (0, 1), 0.1),      # nan in x2 alone
    (("-x1",), [[9e7], [-9e7]] * 100, (0, 0.1), 1e-2),          # sum of x^2 > 1e16: no escape
])
def test_blow_up_time_is_first_grid_time_past_bound(F, x0s, span, step):
    sys = sy.GeneralSystem(len(F), 1, F)
    X0 = np.array(x0s)
    inputs = [tr.ConstantInput([0.5])] * len(x0s)
    with np.errstate(all="ignore"):
        expected = _blow_up_reference(sys, X0, inputs, span, step)
        if expected is None:       # the step's fast test fails, yet no |x| passes 1e8
            got = np.stack([t.states for t in tr.integrate_ensemble(sys, X0, inputs, span, step)])
            assert got.tobytes() == _integrate_reference(sys, X0, inputs, span, step).tobytes()
            return
        with pytest.raises(tr.BlowUpError) as info:
            tr.integrate_ensemble(sys, X0, inputs, span, step)
        if len(x0s) == 1:      # alone, in Python floats, and as a two-copy batch in arrays
            with pytest.raises(tr.BlowUpError) as pair:
                tr.integrate_ensemble(sys, np.repeat(X0, 2, axis=0), inputs * 2, span, step)
            assert str(info.value) == str(pair.value)       # the same time and norm
    assert info.value.t == expected


@pytest.mark.parametrize("x0s, row", [
    pytest.param([[2e8]] + [[9e7], [-9e7]] * 100, 0, id="past-bound-in-batch"),
    pytest.param([[9e7]] * 3 + [[-3e8]], 3, id="past-bound-last-row"),
    pytest.param([[3e8]], 0, id="past-bound-alone"),
    pytest.param([[0.5], [np.nan]], 1, id="nan-in-batch"),
    pytest.param([[np.nan]], 0, id="nan-alone"),
    pytest.param([[-np.inf]], 0, id="inf-alone"),
])
def test_start_state_outside_the_blow_up_bound_is_bad_input(x0s, row, monkeypatch):
    """A start past |x_i| = 1e8, or not finite, is bad input: a ValueError naming the row
    and the bound before any right-hand-side call, on the array and the float path alike,
    not a blow-up one step later (under dx/dt = -x, |x| only decays)."""
    sys = sy.GeneralSystem(1, 1, ("-x1",))
    calls, scalar_calls = _count_rhs_calls(sys), _count_scalar_rhs_calls(monkeypatch)
    with pytest.raises(ValueError, match=rf"start state {row} .* \|x_i\| <= 1e\+08"):
        tr.integrate_ensemble(sys, np.array(x0s), [tr.ConstantInput([0.5])] * len(x0s),
                              (0, 0.1), 1e-2)
    assert calls == [] and scalar_calls == []


def _count_rhs_calls(sys):
    calls = []
    rhs = sys._rhs

    def counted(X, U):
        calls.append(1)
        return rhs(X, U)

    object.__setattr__(sys, "_rhs", counted)
    return calls


def _count_split_calls(monkeypatch, scalar):
    """Count the calls of every state pass split from now on: of the Python-float ones
    (the SCALAR table) where ``scalar``, of the array ones where not."""
    calls, split_evaluator = [], ex.split_evaluator

    def split_counted(e, table=ex.FLOAT):
        inputs, state = split_evaluator(e, table)
        if (table is ex.SCALAR) != scalar:
            return inputs, state

        def counted(*args):
            calls.append(1)
            return state(*args)
        return inputs, counted

    monkeypatch.setattr(ex, "split_evaluator", split_counted)
    return calls


def _count_scalar_rhs_calls(monkeypatch):
    """Count the calls of every scalar right-hand side (a SCALAR state pass) split from now on."""
    return _count_split_calls(monkeypatch, scalar=True)


def _count_state_calls(monkeypatch):
    """Count the calls of every array state pass split from now on."""
    return _count_split_calls(monkeypatch, scalar=False)


def test_state_dimension_mismatch_raises_before_any_step(monkeypatch):
    sys = sy.make_sigma1()
    calls, state_calls = _count_rhs_calls(sys), _count_state_calls(monkeypatch)
    with pytest.raises(sy.DimensionError, match="state has dimension 3, expected 2"):
        tr.integrate_ensemble(sys, np.zeros((2, 3)), [tr.ConstantInput([0.0, 0.0])] * 2,
                              (0, 0.1), 1e-2)
    assert calls == [] and state_calls == []
    tr.integrate_ensemble(sys, np.zeros((2, 2)), [tr.ConstantInput([0.0, 0.0])] * 2,
                          (0, 0.1), 1e-2)
    # the checked first stage, then one state pass per remaining stage, no extra call
    assert len(calls) == 1 and len(state_calls) == 4 * 10 - 1
    # a batch of one: the same checked first stage, then the scalar right-hand side
    calls.clear()
    state_calls.clear()
    scalar_calls = _count_scalar_rhs_calls(monkeypatch)
    with pytest.raises(sy.DimensionError, match="state has dimension 3, expected 2"):
        tr.integrate(sys, np.zeros(3), tr.ConstantInput([0.0, 0.0]), (0, 0.1), 1e-2)
    assert calls == [] and scalar_calls == []
    tr.integrate(sys, np.zeros(2), tr.ConstantInput([0.0, 0.0]), (0, 0.1), 1e-2)
    assert len(calls) == 1 and len(scalar_calls) == 4 * 10 - 1 and state_calls == []


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


# ---------------------------------------------------------------------------
# Random ensembles: one draw, one gather
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed, count, m, amplitude, T, step", [
    (0, 1, 1, 1.0, 1.0, 1e-3), (7, 100, 2, 1.0, 0.2, 1e-3), (3, 5, 3, 0.25, 0.02, 2.5e-4),
    (2 ** 40 + 1, 12, 2, 3.0, 5.0, 1e-3), (11, 4, 0, 1.0, 0.5, 1e-2)])
def test_random_ensemble_is_the_per_signal_draw(seed, count, m, amplitude, T, step):
    """One (count, K, m) draw gives each signal the block a loop drawing one (K, m)
    block per signal gives it; all signals share one read-only switch-time array."""
    rng = np.random.default_rng(seed)
    seg_steps = max(1, int(round(T / tr._SEGMENTS / step)))
    switches = np.array([k * seg_steps * step for k in range(1, tr._SEGMENTS)])
    ens = tr.random_piecewise_ensemble(m, T, step, count, seed=seed, amplitude=amplitude)
    assert len(ens) == count
    for sig in ens:
        ref = rng.uniform(-amplitude, amplitude, size=(tr._SEGMENTS, m))
        assert type(sig) is tr.PiecewiseConstantInput and sig.m == m
        assert sig.values.tobytes() == ref.tobytes() and sig.values.shape == ref.shape
        assert sig.switch_times is ens[0].switch_times
        assert sig.switch_times.tobytes() == switches.tobytes()
        assert not sig.values.flags.writeable and not sig.switch_times.flags.writeable
        assert tr.signal_from_config(sig.config()).config() == sig.config()
    with pytest.raises(ValueError, match="read-only"):
        ens[-1].values[0, ...] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        ens[0].switch_times[0] = 0.0
    assert tr.random_piecewise_ensemble(m, T, step, 0, seed=seed) == []


def test_random_ensemble_checks_its_switch_times():
    with pytest.raises(ValueError, match="strictly increasing"):
        tr.random_piecewise_ensemble(1, 1.0, -1e-3, 3)


def _per_signal(inputs, t):
    return np.stack([np.asarray(sig(t), dtype=float) for sig in inputs], axis=1)


def _no_calls(monkeypatch):
    """Make calling any PiecewiseConstantInput fail: the shared gather calls none."""
    def called(self, t):
        raise AssertionError("a signal was called one by one")
    monkeypatch.setattr(tr.PiecewiseConstantInput, "__call__", called)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 3), count=st.integers(1, 6), K=st.integers(1, 6),
       copies=st.lists(st.booleans(), min_size=6, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_shared_gather_equals_per_signal_sampling(m, count, K, copies, seed):
    """Signals on one switch-time array, shared or equal in bytes, are sampled by one
    search and one gather; the samples are the per-signal calls' bit for bit."""
    rng = np.random.default_rng(seed)
    switches = np.sort(rng.choice(np.arange(1, 40), K - 1, replace=False)) * 0.025
    first = tr.PiecewiseConstantInput(switches, rng.uniform(-2, 2, (K, m)))
    sigs = [first] + [tr.PiecewiseConstantInput(switches.copy() if copy else first.switch_times,
                                                rng.uniform(-2, 2, (K, m)))
                      for copy in copies[:count - 1]]
    # times before, on and between the switches, and past the last
    t = np.concatenate([switches, rng.uniform(-0.1, 1.1, 20), [-1.0, 0.0, 2.0]])
    ref = _per_signal(sigs, t)
    with pytest.MonkeyPatch.context() as mp:
        _no_calls(mp)
        got = tr._sample(sigs, t, m)
    assert got.shape == (t.size, count, m) and got.tobytes() == ref.tobytes()


def test_other_lists_are_sampled_one_signal_at_a_time(monkeypatch):
    """Mixed lists, wrapped signals, a subclass and other switch times (a constant's are
    none) take the per-signal path; a signal with the wrong m fails with the per-signal
    error."""
    ens = tr.random_piecewise_ensemble(2, 0.5, 1e-2, 3, seed=1)
    t = np.arange(50) * 1e-2 + 5e-3
    calls = []
    call = tr.PiecewiseConstantInput.__call__
    monkeypatch.setattr(tr.PiecewiseConstantInput, "__call__",
                        lambda self, t: calls.append(1) or call(self, t))

    class Sub(tr.PiecewiseConstantInput):
        pass

    other = tr.PiecewiseConstantInput(ens[0].switch_times + 1e-2, ens[0].values)
    for extra, n_calls in ((tr.SinusoidInput([0.5, -0.5], [1.0, 2.0]), 3),
                           (tr.ConstantInput([0.5, -0.5]), 4),
                           (_Counting(ens[0]), 4),
                           (Sub(ens[0].switch_times, ens[1].values), 4),
                           (other, 4)):
        calls.clear()
        inputs = ens + [extra]
        got = tr._sample(inputs, t, 2)
        assert len(calls) == n_calls, extra
        assert got.tobytes() == _per_signal(inputs, t).tobytes()
    calls.clear()
    assert tr._sample(ens, t, 2).shape == (50, 3, 2) and calls == []
    narrow = tr.random_piecewise_ensemble(1, 0.5, 1e-2, 1, seed=2)[0]   # equal times, m = 1
    assert narrow.switch_times.tobytes() == ens[0].switch_times.tobytes()
    for j in range(3):
        inputs = list(ens)
        inputs[j] = narrow
        with pytest.raises(ValueError, match=f"input signal {j} returned shape "):
            tr.integrate_ensemble(sy.make_sigma1(), np.zeros((3, 2)), inputs, (0, 0.1), 1e-2)


@pytest.mark.parametrize("name", ["sigma1", "sigma2", "sigma_p(3)", "sigma3_scalar",
                                  "scalar_linear", "scalar_decay"])
def test_random_ensemble_end_to_end_matches_references(name, monkeypatch):
    """All-ensemble lists take the shared gather: the states are the per-step
    reference's, the l2 bound is the per-trajectory loop's and every audit is the
    reference audit's, bit for bit."""
    entry = sy.zoo_entry(name)
    sys, V = entry.system, entry.claimed_witness
    rng = np.random.default_rng(len(name))
    for T, step, count in ((0.3, 1e-3, 7), (0.25, 2.5e-3, 1), (0.02, 2.5e-4, 30)):
        ens = tr.random_piecewise_ensemble(sys.m, T, step, count, seed=int(rng.integers(99)))
        X0 = rng.uniform(-1, 1, (count, sys.n))
        states = _integrate_reference(sys, X0, ens, (0.0, T), step)
        l2_ref = _l2_reference(sys, ens, T, step)
        with monkeypatch.context() as mp:
            _no_calls(mp)
            trajs = tr.integrate_ensemble(sys, X0, ens, (0.0, T), step)
            l2 = tr.l2_gain_detail(sys, ens, T, step)
        assert np.stack([t.states for t in trajs]).tobytes() == states.tobytes()
        assert repr(l2) == repr(l2_ref)
        for traj in trajs:
            assert tr.dissipation_audit_detail(traj, V, 1.5) == _audit_reference(traj, V, 1.5)
