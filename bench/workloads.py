"""The benchmark's workloads: fixed lists of operations with reference verdicts.

An operation is one in-process ``hjikit.cli.main(argv)`` call writing to its own
scratch ``--out`` directory, or one library call where the command line has no
command for it.  Every operation carries a check of its outcome against the
reference verdict (the claims of the paper, as the acceptance suite states
them) and a count of the work it did, read from its own reports.

Sizes are scaled down from the full command lines so that one pass takes a few
seconds, without changing which code path dominates: ``sweep`` scales by points
per dimension (odd, so every symmetric box visits the kink loci), and
``trajectories`` scales by horizon, never by batch size.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from hjikit import hji, systems, trajectories

_SNAP = 1e-12          # the built-in candidates snap queries this close to a kink
_SLACK_TOL = 1e-4      # dissipation slack allowed by the acceptance suite


@dataclass
class Outcome:
    """What one run of an operation produced: exit code (CLI) or result (library)."""

    code: Optional[int]
    result: object
    out: Path


@dataclass
class Op:
    command: str                         # metric family: verify, gain, smooth, ...
    label: str
    check: Callable[[Outcome], list]     # problems found; empty when correct
    work: Callable[[Outcome], float]     # points, trajectory-steps or point-attempts
    argv: Optional[list] = None          # CLI arguments, without --out
    call: Optional[Callable[[], object]] = None


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _no_work(_outcome) -> float:
    return 0.0


def _expect_code(outcome: Outcome, code: int) -> list:
    return [] if outcome.code == code else [f"exit code {outcome.code}, expected {code}"]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _grid_size(n: int, ppd: int) -> int:
    return hji.Region(box=((-2.0, 2.0),) * n, points_per_dim=ppd).grid().shape[0]


def _verify(zoo: str, storage: str, gamma: float, ppd: int, passes: bool, seed: int,
            kinks=(), max_residual=None) -> Op:
    """One region check; ``kinks`` are (axis, value) loci the grid must visit."""
    n = systems.zoo_entry(zoo).system.n
    points = _grid_size(n, ppd)

    def check(o: Outcome) -> list:
        problems = _expect_code(o, 0 if passes else 1)
        rep = _json(o.out / "verify.json")
        if rep["verdict"] != ("pass" if passes else "fail"):
            problems.append(f"verdict {rep['verdict']}")
        if max_residual is not None and not abs(rep["max_residual"] - max_residual[0]) <= max_residual[1]:
            problems.append(f"max residual {rep['max_residual']!r}, expected "
                            f"{max_residual[0]!r} within {max_residual[1]:g}")
        if rep["points_checked"] != points:
            problems.append(f"{rep['points_checked']} points checked, expected {points}")
        if kinks:
            with (o.out / "sweep.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            for axis, value in kinks:
                hit = [r for r in rows if abs(float(r[f"x{axis}"]) - value) <= _SNAP]
                if not hit:
                    problems.append(f"sweep.csv has no x{axis} = {value:g} rows")
                elif passes and not all(r["pass"] == "True" for r in hit):
                    problems.append(f"x{axis} = {value:g} rows do not all pass")
        return problems

    return Op("verify", f"verify {zoo}/{storage} gamma={gamma:g} ppd={ppd}", check,
              lambda o: float(_json(o.out / "verify.json")["points_checked"]),
              argv=["verify", "--zoo", zoo, "--storage", f"builtin:{storage}",
                    "--gamma", repr(gamma), "--ppd", str(ppd), "--seed", str(seed)])


def _gain(zoo: str, storage: str, ppd: int, expected: float, seed: int,
          start: float = 0.5, stop: float = 2.0, step: float = 0.01) -> Op:
    grid = hji.gamma_range(start, stop, step)
    points = _grid_size(systems.zoo_entry(zoo).system.n, ppd)

    def check(o: Outcome) -> list:
        problems = _expect_code(o, 0)
        got = _json(o.out / "gain.json")["min_gamma"]
        if got is None or abs(got - expected) > 1e-12:
            problems.append(f"minimal gain {got!r}, expected {expected!r}")
        return problems

    def work(o: Outcome) -> float:
        got = _json(o.out / "gain.json")["min_gamma"]
        sweeps = grid.index(got) + 1 if got in grid else len(grid)
        return float(points * sweeps)

    return Op("gain", f"gain {zoo}/{storage} {start:g}:{stop:g}:{step:g} ppd={ppd}", check, work,
              argv=["gain", "--zoo", zoo, "--storage", f"builtin:{storage}",
                    "--gammas", f"{start:g}:{stop:g}:{step:g}", "--ppd", str(ppd),
                    "--seed", str(seed)])


def _zoo_run(seed: int) -> Op:
    first = {}

    def check(o: Outcome) -> list:
        problems = _expect_code(o, 0)
        data = (o.out / "zoo.json").read_bytes()
        first.setdefault("bytes", data)
        if data != first["bytes"]:
            problems.append("zoo.json differs from the first pass")
        results = json.loads(data)["results"]
        failed = [name for name, r in results.items() if r["claim"]["verdict"] != "pass"]
        if failed:
            problems.append(f"zoo claims fail: {failed}")
        return problems

    return Op("zoo", "zoo run --all", check, _no_work,
              argv=["zoo", "run", "--all", "--seed", str(seed)])


def _audit(kind: str, expected: str, seed: int, extra=()) -> Op:
    def check(o: Outcome) -> list:
        problems = _expect_code(o, 1 if expected == "violation_found" else 0)
        got = _json(o.out / "audit.json")["kind"]
        return problems + ([] if got == expected else [f"audit kind {got}, expected {expected}"])

    return Op("audit", f"audit {kind}", check, _no_work,
              argv=["audit", kind, *extra, "--seed", str(seed)])


def _pieces(seed: int) -> Op:
    def check(o: Outcome) -> list:
        worst = max(_json(o.out / "audit.json")["defects"].values())
        return _expect_code(o, 0) + ([] if worst <= 1e-12 else [f"piece defect {worst!r}"])

    return Op("audit", "audit sigma3-pieces", check, _no_work,
              argv=["audit", "sigma3-pieces", "--seed", str(seed)])


def sweep_ops(seed: int, tiny: bool = False) -> list:
    ppd2, ppd_p, ppd1, ppd_gain = (11, 9, 41, 9) if tiny else (41, 21, 401, 13)
    axes0 = ((1, 0.0), (2, 0.0))
    return [
        _verify("sigma1", "v1_scaled", 1.0, ppd2, True, seed, kinks=axes0,
                max_residual=(0.0, 1e-9)),
        _verify("sigma1", "v1", 1.0, ppd2, False, seed, max_residual=(2.0, 1e-9)),
        _verify("sigma2", "v2", 1.0, ppd2, True, seed, kinks=((2, 0.0),)),
        _verify("sigma_p(3)", "v1", 0.01, ppd_p, True, seed, kinks=axes0),
        _verify("sigma3_scalar", "v3_scalar", 1.0, ppd1, True, seed, kinks=((1, 1.0),)),
        _gain("sigma1", "v1_scaled", ppd_gain, 1.0, seed),
        _gain("sigma2", "v2", ppd_gain, 1.0, seed),
        _zoo_run(seed),
        _audit("sigmap", "violation_found", seed,
               ("--storage", "builtin:sq_norm", "--p", "3", "--gamma", "1", "--umax", "2")),
        _audit("scalar-straddle", "obstruction_verified", seed,
               ("--storage", "builtin:v3_scalar")),
        _pieces(seed),
    ]


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def _claimed_gamma(entry) -> float:
    return entry.claimed_gamma if entry.has_specific_gamma else 1.0


def _steps(t_end: float, step: float) -> int:
    return max(1, int(round(t_end / step)))


def _l2gain(zoo: str, count: int, T: float, step: float, seed: int) -> Op:
    bound = _claimed_gamma(systems.zoo_entry(zoo)) + 1e-3

    def check(o: Outcome) -> list:
        problems = _expect_code(o, 0)
        got = _json(o.out / "l2gain.json")["lower_bound"]
        # exactly 0 means the state never left the origin: a degenerate bound
        if not 0.0 < got <= bound:
            problems.append(f"squared-gain lower bound {got!r} outside (0, {bound:g}]")
        return problems

    return Op("l2gain", f"l2gain {zoo} count={count} T={T:g}", check,
              lambda o: float(count * _steps(T, step)),
              argv=["l2gain", "--zoo", zoo, "--count", str(count), "--T", repr(T),
                    "--step", repr(step), "--seed", str(seed)])


def _simulate(zoo: str, storage: str, x0, signal: dict, t_end: float, step: float,
              seed: int) -> Op:
    n_steps = _steps(t_end, step)

    def check(o: Outcome) -> list:
        problems = _expect_code(o, 0)
        slack = _json(o.out / "dissipation.json")["max_slack"]
        if not slack <= _SLACK_TOL:
            problems.append(f"dissipation slack {slack!r} above {_SLACK_TOL:g}")
        with (o.out / "trajectory.csv").open() as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != n_steps + 1:
            problems.append(f"trajectory.csv has {rows} rows, expected {n_steps + 1}")
        return problems

    return Op("simulate", f"simulate {zoo} x0={list(x0)} {signal['kind']}", check,
              lambda o: float(n_steps),
              argv=["simulate", "--zoo", zoo, "--storage", f"builtin:{storage}",
                    "--gamma", "1", "--x0", *[repr(float(v)) for v in x0],
                    "--input", json.dumps(signal), "--tspan", "0", repr(t_end),
                    "--step", repr(step), "--seed", str(seed)])


def _ensemble_audit(name: str, count: int, T: float, seed: int) -> Op:
    """Criterion-8-shaped audit: integrate an ensemble, audit every trajectory."""
    entry = systems.zoo_entry(name)
    n, m = entry.system.n, entry.system.m
    gamma = _claimed_gamma(entry)
    # trajectories riding kink manifolds drop to first order: keep the suite's steps
    step = 2e-4 if name == "sigma3_scalar" else 2.5e-4
    n_steps = _steps(T, step)

    def call():
        e = systems.zoo_entry(name)
        rng = np.random.default_rng(seed)
        X0 = rng.uniform(-1.0, 1.0, (count, n))
        ens = trajectories.random_piecewise_ensemble(m, T, step, count,
                                                     seed=int(rng.integers(1 << 16)))
        trajs = trajectories.integrate_ensemble(e.system, X0, ens, (0.0, T), step)
        return max(trajectories.dissipation_audit(t, e.claimed_witness, gamma)
                   for t in trajs)

    def check(o: Outcome) -> list:
        return [] if o.result <= _SLACK_TOL else [
            f"ensemble dissipation slack {o.result!r} above {_SLACK_TOL:g}"]

    return Op("ensemble_audit", f"ensemble audit {name} count={count} T={T:g}", check,
              lambda o: float(count * n_steps), call=call)


def trajectories_ops(seed: int, tiny: bool = False) -> list:
    rng = np.random.default_rng(seed & (2 ** 64 - 1))    # any integer seeds the draws
    T_gain, t_sim, T_ens = (0.02, 0.05, 0.005) if tiny else (0.2, 0.5, 0.02)
    count = 100   # batch size sets the per-step overhead, so it is never scaled

    def seeds(k):
        return [int(s) for s in rng.integers(0, 2 ** 31, size=k)]

    ops = [_l2gain(z, count, T_gain, 1e-3, s)
           for z, s in zip(("sigma2", "sigma3_scalar", "scalar_linear"), seeds(3))]
    sine = {"kind": "sinusoid", "amplitude": rng.uniform(0.2, 1.0, 2).tolist(),
            "omega": rng.uniform(0.5, 5.0, 2).tolist(),
            "phase": rng.uniform(0.0, 2 * np.pi, 2).tolist()}
    switches = np.sort(rng.choice(np.arange(1, 10), 3, replace=False)) * (t_sim / 10)
    steps = {"kind": "piecewise_constant", "switch_times": switches.tolist(),
             "values": rng.uniform(-1.0, 1.0, (4, 2)).tolist()}
    sine1 = {"kind": "sinusoid", "amplitude": rng.uniform(0.2, 1.0, 1).tolist(),
             "omega": rng.uniform(0.5, 5.0, 1).tolist()}
    ops += [
        _simulate("sigma1", "v1_scaled", (1.0, 1.0), sine, t_sim, 1e-3, seed),
        _simulate("sigma2", "v2", (1.0, -1.0), steps, t_sim, 1e-3, seed),
        _simulate("scalar_linear", "sq_norm", (1.0,), sine1, t_sim, 1e-3, seed),
    ]
    ops += [_ensemble_audit(e.name, count, T_ens, s)
            for e, s in zip(systems.zoo(), seeds(len(systems.zoo())))]
    return ops


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def _smooth(zoo: str, storage: str, r_min: float, r_max: float, seed: int) -> Op:
    def check(o: Outcome) -> list:
        problems = _expect_code(o, 0)
        rep = _json(o.out / "smooth.json")
        if rep["verdict"] != "pass":
            problems.append(f"verdict {rep['verdict']} ({rep['failure_reason']})")
        rel, res = rep["max_relative_approx_error"], rep["max_eq20_residual"]
        if rel is None or not rel <= 0.5:
            problems.append(f"relative error {rel!r} above 0.5")
        if res is None or not res <= 0.0:
            problems.append(f"gain residual {res!r} above 0")
        if not (o.out / "smooth_grid.csv").is_file():
            problems.append("smooth_grid.csv missing")
        return problems

    def work(o: Outcome) -> float:
        rep = _json(o.out / "smooth.json")
        return float(rep["grids"]["certification_points"] * len(rep["radius_schedule"]))

    return Op("smooth", f"smooth {zoo}/{storage} 1 -> 1.1 annulus [{r_min:g}, {r_max:g}]",
              check, work,
              argv=["smooth", "--zoo", zoo, "--storage", f"builtin:{storage}",
                    "--gamma", "1", "--gamma-prime", "1.1", "--rmin", repr(r_min),
                    "--rmax", repr(r_max), "--seed", str(seed)])


def _construct1d(lo: float, hi: float, count: int, seed: int) -> Op:
    def check(o: Outcome) -> list:
        problems = _expect_code(o, 0)
        rep = _json(o.out / "construct.json")
        if not (rep["w_dominates_v"] and rep["w_strictly_increasing"]):
            problems.append("constructed W fails its contract")
        if not rep["max_delta_of_selector"] <= 1e-9:
            problems.append(f"max Delta(p) {rep['max_delta_of_selector']!r} above 1e-9")
        return problems

    return Op("construct1d", f"construct1d scalar_linear/sq_norm grid {lo:g} {hi:g} {count}",
              check, _no_work,
              argv=["construct1d", "--zoo", "scalar_linear", "--storage", "builtin:sq_norm",
                    "--gamma", "1", "--grid", repr(lo), repr(hi), str(count),
                    "--seed", str(seed)])


def construct_ops(seed: int, tiny: bool = False) -> list:
    # the annulus [0.1, 0.3] keeps sigma2's refinement ladder (several failed
    # attempts before the pass) at a third of the full-size point count
    r_min, r_max = (0.2, 0.25) if tiny else (0.1, 0.3)
    ops = [_smooth(z, s, r_min, r_max, seed) for z, s in (
        ("sigma1", "v1_scaled"), ("sigma1_c1", "v1_scaled"), ("sigma2", "v2"),
        ("scalar_linear", "sq_norm"))]
    if tiny:
        ops = [ops[0], ops[3]]
    return ops + [_construct1d(0.01, 2.0, 100 if tiny else 500, seed)]


BUILDERS = {"sweep": sweep_ops, "trajectories": trajectories_ops,
            "construct": construct_ops}
WORKLOADS = tuple(BUILDERS)

# the work rate of each workload: the commands whose work it counts, the unit
# of that work, and the rate's name among the printed metrics
WORK_RATES = {
    "sweep": (("verify", "gain"), "grid points verified", "points_per_s"),
    "trajectories": (("l2gain", "simulate", "ensemble_audit"), "RK4 trajectory-steps",
                     "rk4_steps_per_s"),
    "construct": (("smooth",), "certification point-attempts", "cert_points_per_s"),
}


def build(workload: str, seed: int, tiny: bool = False) -> list:
    return BUILDERS[workload](seed, tiny)
