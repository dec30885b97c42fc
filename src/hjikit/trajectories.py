"""Closed-loop integration and integral dissipation audits.

Integration is fixed-step classical RK4 (no adaptive stepping) so that runs
replay deterministically in tests.  A batch of trajectories steps in arrays; a
batch of one steps in Python floats with the right-hand side's
:data:`hjikit.expr.SCALAR` form, where numpy's per-call overhead would be all of
the work, and gives the same bits.  Input signals are measurable and
essentially bounded by construction: constants, piecewise constants, and
per-channel sinusoids.  Integration starts only from finite states with
|x_i| <= 1e8, the blow-up bound.  The audits take the supply |u|^2 by the
midpoint rule, exact on each step only for a piecewise constant whose switch
times lie on the integration grid, so they reject a switch off the grid.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .errors import HjikitError
from .storage import StorageCandidate
from .systems import System


class BlowUpError(HjikitError):
    """Finite-escape detection: |x| exceeded the blow-up bound during integration."""

    def __init__(self, t: float, norm: float):
        super().__init__(f"trajectory blow-up at t={t:g} (|x| = {norm:.3e})")
        self.t = t


class NoAdmissibleInputError(HjikitError):
    pass


_BLOWUP_NORM = 1e8
_SEGMENTS = 8           # pieces of each input of random_piecewise_ensemble


# ---------------------------------------------------------------------------
# Input signals
# ---------------------------------------------------------------------------

class ConstantInput:
    kind = "constant"

    def __init__(self, values):
        self.values = np.atleast_1d(np.asarray(values, dtype=float))

    @property
    def m(self) -> int:
        return self.values.size

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(self.values, t.shape + (self.m,)).copy()

    def config(self) -> dict:
        return {"kind": self.kind, "values": self.values.tolist()}


class PiecewiseConstantInput:
    """Right-continuous step signal: values[j] holds on [switch[j], switch[j+1])."""

    kind = "piecewise_constant"

    def __init__(self, switch_times: Sequence[float], values):
        self.switch_times = np.asarray(switch_times, dtype=float)  # K-1 interior switches
        self.values = np.atleast_2d(np.asarray(values, dtype=float))  # (K, m)
        if self.values.shape[0] != self.switch_times.size + 1:
            raise ValueError("need one more value row than switch times")
        if np.any(np.diff(self.switch_times) <= 0):
            raise ValueError("switch times must be strictly increasing")

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.switch_times, t, side="right")
        return self.values[idx]

    def config(self) -> dict:
        return {"kind": self.kind, "switch_times": self.switch_times.tolist(),
                "values": self.values.tolist()}


class SinusoidInput:
    """u_i(t) = amplitude_i * sin(omega_i t + phase_i)."""

    kind = "sinusoid"

    def __init__(self, amplitude, omega, phase=None):
        self.amplitude = np.atleast_1d(np.asarray(amplitude, dtype=float))
        self.omega = np.atleast_1d(np.asarray(omega, dtype=float))
        self.phase = (np.zeros_like(self.amplitude) if phase is None
                      else np.atleast_1d(np.asarray(phase, dtype=float)))
        if not self.amplitude.size == self.omega.size == self.phase.size:
            raise ValueError(f"sinusoid amplitude, omega and phase need equal lengths, got "
                             f"{self.amplitude.size}, {self.omega.size} and {self.phase.size}")

    @property
    def m(self) -> int:
        return self.amplitude.size

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.amplitude * np.sin(np.multiply.outer(t, self.omega) + self.phase)

    def config(self) -> dict:
        return {"kind": self.kind, "amplitude": self.amplitude.tolist(),
                "omega": self.omega.tolist(), "phase": self.phase.tolist()}


InputSignal = Callable  # the classes above, or any callable mapping times (N,) to values (N, m)


def signal_from_config(cfg: dict) -> InputSignal:
    try:
        kind = cfg["kind"]
        if kind == "constant":
            return ConstantInput(cfg["values"])
        if kind == "piecewise_constant":
            return PiecewiseConstantInput(cfg["switch_times"], cfg["values"])
        if kind == "sinusoid":
            return SinusoidInput(cfg["amplitude"], cfg["omega"], cfg.get("phase"))
    except KeyError as err:
        raise ValueError(f"input config has no key {err.args[0]!r}") from None
    raise ValueError(f"unknown input kind {kind!r}")


def random_piecewise_ensemble(m: int, T: float, step: float, count: int,
                              seed: int = 0, amplitude: float = 1.0) -> list:
    """Seeded ensemble of piecewise-constant inputs of _SEGMENTS grid-aligned pieces: signal
    j holds row j of one read-only draw and all share one read-only switch-time array."""
    if not amplitude > 0:
        raise ValueError(f"amplitude must be > 0, got {amplitude!r}")
    rng = np.random.default_rng(seed)
    seg_steps = max(1, int(round(T / _SEGMENTS / step)))
    switches = [k * seg_steps * step for k in range(1, _SEGMENTS)]
    if count <= 0:
        return []
    values = rng.uniform(-amplitude, amplitude, size=(count, _SEGMENTS, m))
    values.flags.writeable = False
    first = PiecewiseConstantInput(switches, values[0])        # checks the switch times once
    first.switch_times.flags.writeable = False
    out = [first] + [object.__new__(PiecewiseConstantInput) for _ in range(count - 1)]
    for sig, v in zip(out, values):                            # the others skip the check
        sig.switch_times, sig.values = first.switch_times, v
    return out


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray       # (N+1,)
    states: np.ndarray      # (N+1, n)
    input: object           # the InputSignal
    step: float
    u_mid: np.ndarray | None = field(default=None, repr=False)  # (N, m), kept by integration

    def midpoint_inputs(self) -> np.ndarray:
        """The input on the step midpoints: integration's stage-2 samples, or sampled now."""
        return self.u_mid if self.u_mid is not None else np.asarray(
            self.input(self.times[:-1] + 0.5 * self.step), dtype=float)


def integrate(sys: System, x0, u: InputSignal, t_span, step: float) -> Trajectory:
    """Fixed-step RK4 over [a, b]; aborts with :class:`BlowUpError` if |x| > 1e8."""
    trajs = integrate_ensemble(sys, np.atleast_1d(np.asarray(x0, dtype=float))[None, :],
                               [u], t_span, step)
    return trajs[0]


def integrate_ensemble(sys: System, X0, inputs: Sequence[InputSignal],
                       t_span, step: float) -> list:
    """Integrate a batch of initial conditions/inputs in lockstep (shared time grid).

    A batch of one steps in Python floats, with the right-hand side's
    :data:`~hjikit.expr.SCALAR` form; a larger batch steps in arrays.  Both give the
    same bits: one trajectory is the same whether it runs alone or in a batch.
    """
    a, b = float(t_span[0]), float(t_span[1])
    if step <= 0 or b <= a:
        raise ValueError("need step > 0 and b > a")
    X = np.asarray(X0, dtype=float)
    B, _ = X.shape
    if len(inputs) != B:
        raise ValueError("need one input signal per initial condition")
    bad = np.flatnonzero(~(np.abs(X) <= _BLOWUP_NORM).all(axis=1))     # also nan
    if bad.size:
        raise ValueError(f"start state {bad[0]} ({X[bad[0]].tolist()}) must be finite with "
                         f"every |x_i| <= {_BLOWUP_NORM:g}, the blow-up bound")
    N = max(1, int(round((b - a) / step)))
    h = step
    if abs(N * h - (b - a)) > 1e-9 * (b - a):
        raise ValueError(f"the span [{a:g}, {b:g}] is not a whole number of steps of {h:g}")
    times = a + h * np.arange(N + 1)

    # one sampling pass; t + h is sampled too: times[k] + h need not be times[k + 1]
    t0 = times[:-1]
    U1, U2, U3 = _sample(inputs, np.concatenate([t0, t0 + 0.5 * h, t0 + h]),
                         sys.m).reshape(3, N, B, sys.m)
    u_mid = U2.transpose(1, 0, 2).copy()                # (B, N, m): the audits' midpoints

    # the first stage checks the shapes; the others call the right-hand side unchecked
    k1 = sys.dynamics(X, U1[0])
    if B == 1:       # numpy's per-call overhead is all the work on one row
        states = _rk4_point(ex.compile_evaluator(sys._rhs_ast, ex.SCALAR), X, k1,
                            U1, U2, U3, times, h)
    else:
        states = _rk4_batch(sys._rhs, X, k1, U1, U2, U3, times, h)
    return [Trajectory(times, states[j], inputs[j], h, u_mid[j]) for j in range(B)]


def _rk4_batch(rhs, X, k1, U1, U2, U3, times, h) -> np.ndarray:
    """The RK4 steps of a batch, in arrays: the states (B, N+1, n).  The constants are
    0-d arrays, which numpy's calls take without a scalar conversion."""
    half, whole, two, sixth = map(np.asarray, (0.5 * h, h, 2.0, h / 6.0))
    bound = _BLOWUP_NORM ** 2
    states = np.empty((X.shape[0], times.size, X.shape[1]))
    states[:, 0, :] = X
    for k in range(times.size - 1):
        if k:
            k1 = rhs(X, U1[k])
        k2 = rhs(X + half * k1, U2[k])
        k3 = rhs(X + half * k2, U2[k])
        k4 = rhs(X + whole * k3, U3[k])
        X = X + sixth * (k1 + two * k2 + two * k3 + k4)
        # a sum of squares bounds every x^2 from above and fails on nan: an exact accept
        if not np.vdot(X, X) <= bound:
            worst = np.abs(X).max()
            if not worst <= _BLOWUP_NORM:               # also nan
                raise BlowUpError(float(times[k + 1]), float(worst))
        states[:, k + 1, :] = X
    return states


def _rk4_point(rhs, X, k1, U1, U2, U3, times, h) -> np.ndarray:
    """The same steps for a batch of one, in Python floats and in the same order of
    operations; ``rhs`` takes and gives sequences.  The states (1, N+1, n)."""
    x, k1 = X[0].tolist(), k1[0].tolist()
    u1, u2, u3 = (U[:, 0].tolist() for U in (U1, U2, U3))
    half, sixth = 0.5 * h, h / 6.0
    rows = [x]
    for k in range(times.size - 1):
        if k:
            k1 = rhs(x, u1[k])
        k2 = rhs([v + half * d for v, d in zip(x, k1)], u2[k])
        k3 = rhs([v + half * d for v, d in zip(x, k2)], u2[k])
        k4 = rhs([v + h * d for v, d in zip(x, k3)], u3[k])
        x = [v + sixth * (d1 + 2 * d2 + 2 * d3 + d4)
             for v, d1, d2, d3, d4 in zip(x, k1, k2, k3, k4)]
        if not all(abs(v) <= _BLOWUP_NORM for v in x):        # also nan
            raise BlowUpError(float(times[k + 1]), float(np.abs(x).max()))
        rows.append(x)
    return np.array(rows)[None]


def _sample(inputs: Sequence[InputSignal], t: np.ndarray, m: int) -> np.ndarray:
    """Every signal on the times t, stacked as (N, B, m).  Piecewise constants on one
    switch-time array share one search and one gather of their stacked values."""
    ts = getattr(inputs[0], "switch_times", None) if inputs else None
    if ts is not None and all(type(s) is PiecewiseConstantInput and s.values.shape[1:] == (m,) and
                              (s.switch_times is ts or s.switch_times.tobytes() == ts.tobytes())
                              for s in inputs):
        return np.stack([s.values for s in inputs], axis=1)[np.searchsorted(ts, t, "right")]
    U = [np.asarray(sig(t), dtype=float) for sig in inputs]
    for j, u in enumerate(U):
        if u.shape != (t.size, m):
            raise ValueError(f"input signal {j} returned shape {u.shape} on {t.size} times; "
                             f"expected {(t.size, m)}")
    return np.stack(U, axis=1)


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------

def _storage_minus_supply_running(traj: Trajectory, V: StorageCandidate,
                                  gamma: float) -> np.ndarray:
    """A_k = V(x_k) - integral_0^{t_k} (gamma|u|^2 - |x|^2) dt.

    |u|^2 uses the midpoint rule (exact for grid-aligned piecewise constants)
    and |x|^2 the trapezoid rule.
    """
    h = traj.step
    xs = traj.states
    Vx = V.value_batch(xs)
    # the ufunc methods np.sum and np.cumsum call, without their wrappers
    xsq = np.add.reduce(xs * xs, axis=1)
    usq_mid = np.add.reduce(np.square(traj.midpoint_inputs()), axis=1)
    S = np.zeros(xsq.size)
    np.add.accumulate(h * gamma * usq_mid - 0.5 * h * (xsq[:-1] + xsq[1:]), out=S[1:])
    return Vx - S


def _slacks(traj: Trajectory, V: StorageCandidate, gamma: float) -> tuple:
    """A and its slacks A_b - min_{a <= b} A_a.  A piecewise-constant input must switch
    on the grid (within 1e-9 of the span), where the midpoint rule for |u|^2 is exact."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if isinstance(traj.input, PiecewiseConstantInput):
        a, b, h = float(traj.times[0]), float(traj.times[-1]), traj.step
        for s in traj.input.switch_times.tolist():
            if a < s < b and abs(s - (a + h * round((s - a) / h))) > 1e-9 * (b - a):
                raise ValueError(f"switch time {s:g} is off the integration grid of step "
                                 f"{h:g}; the audit needs switches on grid times")
    A = _storage_minus_supply_running(traj, V, gamma)
    return A, A - np.minimum.accumulate(A)


def dissipation_audit(traj: Trajectory, V: StorageCandidate, gamma: float) -> float:
    """Maximum of V(x(b)) - V(x(a)) - int_a^b (gamma|u|^2 - |x|^2) dt over grid a <= b.

    Nonnegative by construction (a = b gives 0); for a genuine gain-gamma
    witness the maximum stays within the integration tolerance.
    """
    slacks = _slacks(traj, V, gamma)[1]
    return float(slacks[slacks.argmax()])      # the first maximum, as the detail's


def dissipation_audit_detail(traj: Trajectory, V: StorageCandidate, gamma: float):
    """Max slack together with the (t_a, t_b) pair attaining it."""
    A, slacks = _slacks(traj, V, gamma)
    b = int(slacks.argmax())
    a = int(A[:b + 1].argmin())    # the first index of the running minimum at b
    return float(slacks[b]), (float(traj.times[a]), float(traj.times[b]))


def l2_gain_lowerbound(sys: System, ensemble: Sequence[InputSignal], T: float,
                       step: float = 1e-3) -> float:
    """max over the ensemble of int_0^T |x|^2 dt / int_0^T |u|^2 dt from x(0) = 0.

    Inputs with energy below 1e-12 are skipped; an all-skipped ensemble is an
    error.  The square root of the result lower-bounds the L2 operator norm
    estimate sqrt(gamma).
    """
    return l2_gain_detail(sys, ensemble, T, step)[0]


def l2_gain_detail(sys: System, ensemble: Sequence[InputSignal], T: float,
                   step: float = 1e-3):
    """The bound of :func:`l2_gain_lowerbound` together with the largest |x(t)|.

    The largest |x(t)| is taken over the runs the bound uses.  When it is 0 the
    state never left the origin and the bound is 0 without measuring a gain.
    """
    ensemble = list(ensemble)
    if not ensemble:
        raise NoAdmissibleInputError("no admissible input")
    X0 = np.zeros((len(ensemble), sys.n))
    trajs = integrate_ensemble(sys, X0, ensemble, (0.0, T), step)
    # every sum runs along a contiguous last axis, as it does for one trajectory
    xs = np.stack([traj.states for traj in trajs])                  # (B, N+1, n)
    xsq = np.sum(xs * xs, axis=2)
    num = np.trapezoid(xsq, dx=step, axis=1)
    u_mid = np.stack([traj.midpoint_inputs() for traj in trajs])   # (B, N, m)
    den = np.sum(np.sum(u_mid * u_mid, axis=2), axis=1) * step
    keep = ~(den < 1e-12)
    if not keep.any():
        raise NoAdmissibleInputError("no admissible input")
    return float(np.max(num[keep] / den[keep])), float(np.sqrt(np.max(xsq[keep])))


def trajectory_rows(traj: Trajectory) -> np.ndarray:
    """CSV-ready rows: t, x1..xn, u1..um (u right-continuous at grid times)."""
    u = np.asarray(traj.input(traj.times), dtype=float)
    return np.column_stack([traj.times, traj.states, u])
