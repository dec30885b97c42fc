"""Closed-loop integration and integral dissipation audits.

Integration is fixed-step classical RK4 (no adaptive stepping) so that runs
replay deterministically in tests.  A batch of trajectories steps in arrays; a
batch of one steps in Python floats with the right-hand side's
:data:`hjikit.expr.SCALAR` form, where numpy's per-call overhead would be all of
the work, and gives the same bits.  Both take the right-hand side's input-only
subtrees from one input pass on all 3N input samples; the array loop's state pass
(:data:`hjikit.expr.ROWS`) is component-major and writes its roots in place into
reused (n, B) stage buffers.  An integration's trajectories are the rows of one
record (states, midpoint inputs, squared norms).  The audit runs once per (record, V,
gamma) over all rows and keeps the last result only, so alternating pairs recompute
it; it evaluates V once on the stacked rows, relying on ``value_fn`` being elementwise
over leading axes (:class:`~hjikit.storage.StorageCandidate`).  Input signals are measurable
and essentially bounded by construction: constants, piecewise constants, and
per-channel sinusoids, with finite parameters.  Integration starts only from
finite states with |x_i| <= 1e8, the blow-up bound.  The audits take the supply
|u|^2 by the midpoint rule, exact on each step only for a piecewise constant whose
switch times lie on the integration grid, so they reject a switch off the grid.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .errors import HjikitError
from .expr import _row_sum
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

def _finite(key: str, values) -> np.ndarray:
    """An input config's ``values`` as a float array, or a ValueError naming its ``key``."""
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"input {key} must be finite, got {a.tolist()}")
    return a


class ConstantInput:
    kind = "constant"

    def __init__(self, values):
        self.values = np.atleast_1d(_finite("values", values))

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
        self.switch_times = _finite("switch_times", switch_times)    # K-1 interior switches
        self.values = np.atleast_2d(_finite("values", values))        # (K, m)
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
        self.amplitude = np.atleast_1d(_finite("amplitude", amplitude))
        self.omega = np.atleast_1d(_finite("omega", omega))
        self.phase = (np.zeros_like(self.amplitude) if phase is None
                      else np.atleast_1d(_finite("phase", phase)))
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

class _Batch:
    """One integration, trajectory j being row j: the states (B, N+1, n), midpoint inputs
    (B, N, m), squared norms |x_k|^2 (B, N+1) and |u_mid|^2 (B, N), and the last audit."""

    def __init__(self, times, states, inputs, step, u_mid):
        self.times, self.states, self.inputs, self.step = times, states, inputs, step
        self.u_mid = u_mid
        # C order: the l2 bound's sums run along a contiguous last axis, as for one row
        self.x_sq, self.u_sq = (np.ascontiguousarray(_row_sum(a * a)) for a in (states, u_mid))
        self.off_grid = self.last = None

    def audit(self, j: int, V: StorageCandidate, gamma: float) -> tuple:
        """Row j's A_k = V(x_k) - int_{t_0}^{t_k} (gamma|u|^2 - |x|^2) dt (|u|^2 by the midpoint
        rule, |x|^2 by the trapezoid rule), its slacks A_k - min_{i<=k} A_i, their argmax."""
        if not 0 < gamma < np.inf:
            raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
        if self.off_grid is None:
            self.off_grid = self._off_grid()
        if self.off_grid[j]:
            raise ValueError(self.off_grid[j])
        gamma, last = float(gamma), self.last
        if last is None or last[0] is not V or last[1] != gamma:
            h, (B, N1, n) = self.step, self.states.shape
            S, xq = np.zeros((B, N1)), self.x_sq
            # the ufunc method np.cumsum calls, without its wrapper
            np.add.accumulate(h * gamma * self.u_sq - 0.5 * h * (xq[:, :-1] + xq[:, 1:]),
                              axis=1, out=S[:, 1:])
            A = V.value_batch(self.states.reshape(B * N1, n)).reshape(B, N1) - S
            slacks = A - np.minimum.accumulate(A, axis=1)
            last = self.last = (V, gamma, A, slacks, slacks.argmax(axis=1))
        return last[2][j], last[3][j], int(last[4][j])

    def _off_grid(self) -> list:
        """Per row, the error for an input switching off the grid by more than 1e-9 of the
        span, or "": one check per switch-time array, however many rows share it."""
        a, b, h = float(self.times[0]), float(self.times[-1]), self.step
        found, out = {}, []
        for sig in self.inputs:
            ts = sig.switch_times if isinstance(sig, PiecewiseConstantInput) else ()
            if id(ts) not in found:
                s = np.asarray(ts, dtype=float)
                off = s[(a < s) & (s < b) & (np.abs(s - (a + h * np.round((s - a) / h)))
                                             > 1e-9 * (b - a))]
                found[id(ts)] = "" if not off.size else (
                    f"switch time {off[0]:g} is off the integration grid of step {h:g}; "
                    "the audit needs switches on grid times")
            out.append(found[id(ts)])
        return out


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray       # (N+1,)
    states: np.ndarray      # (N+1, n)
    input: object           # the InputSignal
    step: float
    _batch: _Batch | None = field(default=None, repr=False)  # its integration's record
    _row: int = field(default=0, repr=False)                  # this trajectory's row of it

    def _record(self) -> _Batch:
        """The integration record; a bare trajectory's is one row, built on first use."""
        if self._batch is None:
            u = np.asarray(self.input(self.times[:-1] + 0.5 * self.step), dtype=float)[None]
            X = np.asarray(self.states, dtype=float)[None]
            object.__setattr__(self, "_batch", _Batch(self.times, X, (self.input,), self.step, u))
        return self._batch

    def midpoint_inputs(self) -> np.ndarray:
        """The input on the step midpoints (N, m): integration's stage-2 samples."""
        return self._record().u_mid[self._row]

    def energies(self) -> tuple:
        """|x|^2 on the grid (N+1,) and |u|^2 on the step midpoints (N,)."""
        return self._record().x_sq[self._row], self._record().u_sq[self._row]


def integrate(sys: System, x0, u: InputSignal, t_span, step: float) -> Trajectory:
    """Fixed-step RK4 over [a, b]; aborts with :class:`BlowUpError` if |x| > 1e8."""
    return integrate_ensemble(sys, np.atleast_1d(np.asarray(x0, dtype=float))[None, :],
                              [u], t_span, step)[0]


def integrate_ensemble(sys: System, X0, inputs: Sequence[InputSignal],
                       t_span, step: float) -> list:
    """Integrate a batch of initial conditions/inputs in lockstep (shared time grid).

    A batch of one steps in Python floats, with the right-hand side's
    :data:`~hjikit.expr.SCALAR` form; a larger batch steps in arrays.  Both give the
    same bits: one trajectory is the same whether it runs alone or in a batch.
    """
    batch = _integrate(sys, X0, inputs, t_span, step)
    return [] if batch is None else [Trajectory(batch.times, x, sig, batch.step, batch, j)
                                     for j, (x, sig) in enumerate(zip(batch.states, inputs))]


def _integrate(sys: System, X0, inputs: Sequence[InputSignal], t_span, step: float):
    """The record of :func:`integrate_ensemble`'s integration, or None for no start state."""
    a, b, h = float(t_span[0]), float(t_span[1]), step
    if not (np.isfinite([a, b, h]).all() and h > 0 and b > a):
        raise ValueError(f"need a finite span [a, b] with b > a and a finite step > 0, "
                         f"got [{a:g}, {b:g}] and step {h:g}")
    N = max(1, int(round((b - a) / h)))
    if abs(N * h - (b - a)) > 1e-9 * (b - a):
        raise ValueError(f"the span [{a:g}, {b:g}] is not a whole number of steps of {h:g}")
    X = np.asarray(X0, dtype=float)
    if X.ndim != 2 and X.shape != (0,):                # [] is the empty batch
        raise ValueError(f"need start states of shape (B, n), got shape {X.shape}")
    B = len(X)
    if len(inputs) != B:
        raise ValueError("need one input signal per initial condition")
    if not B:
        return None
    bad = np.flatnonzero(~(np.abs(X) <= _BLOWUP_NORM).all(axis=1))     # also nan
    if bad.size:
        raise ValueError(f"start state {bad[0]} ({X[bad[0]].tolist()}) must be finite with "
                         f"every |x_i| <= {_BLOWUP_NORM:g}, the blow-up bound")
    times = a + h * np.arange(N + 1)

    # one sampling pass; t + h is sampled too: times[k] + h need not be times[k + 1]
    t0 = times[:-1]
    U = _sample(inputs, np.concatenate([t0, t0 + 0.5 * h, t0 + h]), sys.m).reshape(3, N, B, sys.m)

    # the first stage checks the shapes; the others call the right-hand side unchecked
    k1 = sys.dynamics(X, U[0, 0])
    # W (3, N, B, k) views the input pass's (k, 3, N, B) buffer; one row steps in floats
    inputs_pass, rhs = ex.split_evaluator(sys._rhs_ast, ex.SCALAR if B == 1 else ex.ROWS)
    W = inputs_pass(np.empty(U.shape[:-1] + (0,)), U)
    if B == 1:
        states = np.array(_point_loop(sys.n)(rhs, tuple(X[0].tolist()), tuple(k1[0].tolist()),
                                             W[:, :, 0].swapaxes(0, 1).tolist(), times, h))[None]
    else:
        states = _rk4_batch(rhs, X, k1, W.swapaxes(2, 3), times, h)
    # the audits' midpoint inputs are a view of the samples
    return _Batch(times, states, tuple(inputs), h, U[1].swapaxes(0, 1))


def _rk4_batch(rhs, X, k1, W, times, h) -> np.ndarray:
    """The RK4 steps of a batch, in arrays: the states (B, N+1, n).  Component-major: ``rhs``,
    the :data:`~hjikit.expr.ROWS` state pass, reads W (3, N, k, B) by rows and writes reused
    (n, B) stage buffers, which alias neither its X nor W.  The constants are 0-d arrays."""
    half, whole, two, sixth = map(np.asarray, (0.5 * h, h, 2.0, h / 6.0))
    bound = _BLOWUP_NORM ** 2
    states = np.empty((times.size,) + X.shape[::-1])    # time- and component-major
    states[0], X = X.T, states[0]
    K1, K2, K3, K4, Y, dX = np.empty((6,) + X.shape)      # reused: a call with out is cheaper
    K1[...] = k1.T
    add, mul = np.add, np.multiply
    for k, (w1, w2, w3) in enumerate(zip(*W)):           # step k's frontier rows
        if k:
            rhs(X, w1, K1)
        rhs(add(X, mul(half, K1, Y), Y), w2, K2)
        rhs(add(X, mul(half, K2, Y), Y), w2, K3)
        rhs(add(X, mul(whole, K3, Y), Y), w3, K4)
        # X + h/6 (((k1 + 2 k2) + 2 k3) + k4), in that order, into the next row
        add(add(K1, mul(two, K2, dX), dX), mul(two, K3, Y), dX)
        X = add(X, mul(sixth, add(dX, K4, dX), dX), states[k + 1])
        # a sum of squares bounds every x^2 from above and fails on nan: an exact accept
        if not np.vdot(X, X) <= bound:
            worst = np.abs(X).max()
            if not worst <= _BLOWUP_NORM:               # also nan
                raise BlowUpError(float(times[k + 1]), float(worst))
    return np.ascontiguousarray(states.transpose(2, 0, 1))


# One trajectory's RK4 steps in Python floats, in the array loop's order of operations.
# _point_loop unrolls each braced field over the n components: "{a}" becomes "a0, a1, ...,"
# and the braced test a conjunction of n terms.
_POINT_LOOP = """
def loop(rhs, x, k1, W, times, h):
    ({x}), ({a}) = x, k1
    half, sixth, rows = 0.5 * h, h / 6.0, [x]
    for k, (w1, w2, w3) in enumerate(W):
        if k:
            {a} = rhs(x, w1)
        {b} = rhs(({x + half * a}), w2)
        {c} = rhs(({x + half * b}), w2)
        {d} = rhs(({x + h * c}), w3)
        x = {x} = {x + sixth * (a + 2.0 * b + 2.0 * c + d)}
        if not ({abs(x) <= bound}):
            raise BlowUpError(float(times[k + 1]), float(np.abs(x).max()))
        rows.append(x)
    return rows
"""


@functools.lru_cache(maxsize=None)
def _point_loop(n: int) -> Callable:
    """The loop for n components: ``rhs`` the :data:`~hjikit.expr.SCALAR` state pass, x and
    k1 tuples of floats, W[k] step k's frontier values (w1, w2, w3); the states as tuples."""
    def unroll(match):
        terms = [re.sub(r"\b([xabcd])\b", rf"\g<1>{i}", match[1]) for i in range(n)]
        return " and ".join(terms) if "<=" in match[1] else ", ".join(terms) + ","
    scope = {"BlowUpError": BlowUpError, "np": np, "bound": _BLOWUP_NORM}
    exec(re.sub(r"\{(.*?)\}", unroll, _POINT_LOOP), scope)
    return scope["loop"]


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

def dissipation_audit(traj: Trajectory, V: StorageCandidate, gamma: float) -> float:
    """Maximum of V(x(b)) - V(x(a)) - int_a^b (gamma|u|^2 - |x|^2) dt over grid a <= b.

    Nonnegative by construction (a = b gives 0); for a genuine gain-gamma
    witness the maximum stays within the integration tolerance.
    """
    _, slacks, b = traj._record().audit(traj._row, V, gamma)
    return float(slacks[b])      # the first maximum, as the detail's


def dissipation_audit_detail(traj: Trajectory, V: StorageCandidate, gamma: float):
    """Max slack together with the (t_a, t_b) pair attaining it."""
    A, slacks, b = traj._record().audit(traj._row, V, gamma)
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
    batch = _integrate(sys, X0, ensemble, (0.0, T), step)
    xsq, usq = batch.x_sq, batch.u_sq                       # (B, N+1), (B, N)
    num = np.trapezoid(xsq, dx=step, axis=1)
    den = np.sum(usq, axis=1) * step
    keep = ~(den < 1e-12)
    if not keep.any():
        raise NoAdmissibleInputError("no admissible input")
    return float(np.max(num[keep] / den[keep])), float(np.sqrt(np.max(xsq[keep])))


def trajectory_rows(traj: Trajectory) -> np.ndarray:
    """CSV-ready rows: t, x1..xn, u1..um (u right-continuous at grid times)."""
    u = np.asarray(traj.input(traj.times), dtype=float)
    return np.column_stack([traj.times, traj.states, u])
