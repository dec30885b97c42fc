"""Batch command-line front end.

Each subcommand handler returns its outcome, a one-line verdict and its reports;
``main`` alone writes the reports (JSON, plus plot-ready CSV dumps) to the output
directory, prints the verdict and exits with 0 = claim verified / obstruction
verified, 1 = claim falsified / violation found, 2 = usage or runtime error (no
report written), 3 = inconclusive (an audit that decides nothing, a ``smooth`` run
out of refinements, an ``l2gain`` bound whose state never left the origin).  Runs
are deterministic: any randomized sampling uses the 64-bit seed recorded in the
report (default 0, ``--seed``).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys as _sys
from pathlib import Path

import numpy as np

from . import audits, construct1d, hji, smoothing, storage, systems, trajectories
from .errors import HjikitError

EXIT_ERROR = 2
_EXIT_CODES = {"pass": 0, audits.OBSTRUCTION: 0, "fail": 1, audits.VIOLATION: 1,
               audits.INCONCLUSIVE: 3}


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, table, flags=None):
    """Write a (rows, k) float ``table``, and ``flags`` as a last True/False column,
    byte for byte as ``csv.writer`` does: each distinct float64 bit pattern is
    formatted once with ``repr``, so -0.0, nan and inf stay apart; lines end in CRLF."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    bits, cells = np.unique(table.view(np.uint64), return_inverse=True)
    cells = cells.reshape(table.shape)   # numpy 2.0.x and later disagree on its shape
    text = [repr(v) for v in bits.view(np.float64).tolist()] + ["False", "True"]
    if flags is not None:
        cells = np.column_stack([cells, len(text) - 2 + np.asarray(flags, dtype=np.intp)])
    cells[:, -1] += len(text)            # the last cell of a line ends it
    lookup = np.array([t + "," for t in text] + [t + "\r\n" for t in text], dtype=object)
    path.write_text(",".join(header) + "\r\n" + "".join(lookup[cells].ravel().tolist()),
                    newline="")


def _load_system(args) -> systems.System:
    if getattr(args, "zoo", None):
        return systems.zoo_entry(args.zoo).system
    if getattr(args, "system", None):
        return systems.system_from_config(json.loads(Path(args.system).read_text()))
    raise HjikitError("specify --zoo NAME or --system FILE")


def _load_storage(args) -> storage.StorageCandidate:
    spec = getattr(args, "storage", None)
    if spec is None:
        if getattr(args, "zoo", None):
            return systems.zoo_entry(args.zoo).claimed_witness
        raise HjikitError("specify --storage (builtin:NAME or a JSON file)")
    if spec.startswith("builtin:"):
        return storage.builtin(spec.split(":", 1)[1])
    return storage.from_config(json.loads(Path(spec).read_text()))


def _region_from(args, n: int) -> hji.Region:
    if args.box is not None:
        if len(args.box) != 2 * n:
            raise HjikitError(f"--box needs {2 * n} numbers for an n={n} system")
        box = tuple((args.box[2 * i], args.box[2 * i + 1]) for i in range(n))
    else:
        box = ((-2.0, 2.0),) * n
    return hji.Region(box=box, points_per_dim=args.ppd, exclude_radius=args.exclude_radius)


def _gamma_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise HjikitError("--gammas must look like start:stop:step")
    return hji.gamma_range(float(parts[0]), float(parts[1]), float(parts[2]))


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (outcome, stdout line, {file name: report}),
# a report being a JSON dict or the (header, table, flags) of a CSV dump
# ---------------------------------------------------------------------------

def _verdict(ok) -> str:
    return "pass" if ok else "fail"


def _cmd_verify(args) -> tuple:
    sysm = _load_system(args)
    V = _load_storage(args)
    region = _region_from(args, sysm.n)
    report = hji.check_witness(sysm, V, args.gamma, region, tol=args.tol)
    sweep = ([f"x{i+1}" for i in range(sysm.n)] + ["residual"]
             + [f"worst_u{i+1}" for i in range(sysm.m)] + ["pass"],
             np.column_stack([report.grid, report.point_residuals, report.point_u]),
             report.point_residuals <= report.tolerance)
    return (report.verdict, f"verify: {report.verdict} (max residual {report.max_residual:.3e} "
            f"over {report.points_checked} points)",
            {"verify.json": report.to_dict(), "sweep.csv": sweep})


def _cmd_gain(args) -> tuple:
    sysm = _load_system(args)
    V = _load_storage(args)
    region = _region_from(args, sysm.n)
    grid = _gamma_grid(args.gammas)
    scan = hji.min_gain_scan(sysm, V, region, grid, tol=args.tol)
    star, star_x = scan.gamma_star, scan.gamma_star_x    # None in sampled mode
    line = "gain: no grid gamma passes" if scan.min_gamma is None else f"gain: {scan.min_gamma!r}"
    return (_verdict(scan.min_gamma is not None),
            line if star is None else f"{line} (gamma_star {star!r})",
            {"gain.json": {"gamma_grid": [grid[0], grid[-1], len(grid)],
                           "min_gamma": scan.min_gamma,
                           "gamma_star": star if star is not None and np.isfinite(star) else None,
                           "gamma_star_x": None if star_x is None else star_x.tolist()}})


def _cmd_simulate(args) -> tuple:
    sysm = _load_system(args)
    V = _load_storage(args)
    x0 = np.asarray(args.x0, dtype=float)
    signal = trajectories.signal_from_config(json.loads(args.input))
    traj = trajectories.integrate(sysm, x0, signal, tuple(args.tspan), args.step)
    slack, interval = trajectories.dissipation_audit_detail(traj, V, args.gamma)
    verdict = _verdict(slack <= args.slack_tol)
    return (verdict, f"simulate: max dissipation slack {slack:.3e} over "
            f"[{interval[0]:g}, {interval[1]:g}] ({verdict})",
            {"trajectory.csv": (["t"] + [f"x{i+1}" for i in range(sysm.n)]
                                + [f"u{i+1}" for i in range(sysm.m)],
                                trajectories.trajectory_rows(traj)),
             "dissipation.json": {"max_slack": slack, "argmax_interval": list(interval),
                                  "gamma": args.gamma}})


def _cmd_l2gain(args) -> tuple:
    sysm = _load_system(args)
    ensemble = trajectories.random_piecewise_ensemble(
        sysm.m, args.T, args.step, args.count, seed=args.seed, amplitude=args.amplitude)
    bound, max_norm = trajectories.l2_gain_detail(sysm, ensemble, args.T, args.step)
    trivial = max_norm == 0.0    # the state never moved: the bound measures no gain
    return (audits.INCONCLUSIVE if trivial else "pass",
            f"l2gain: squared-gain lower bound {bound:.6f}"
            + (" (trivial: the state never left the origin)" if trivial else ""),
            {"l2gain.json": {"lower_bound": bound, "max_state_norm": max_norm,
                             "trivial": trivial, "count": args.count, "T": args.T,
                             "step": args.step, "seed": args.seed,
                             "amplitude": args.amplitude}})


def _cmd_construct1d(args) -> tuple:
    sysm = _load_system(args)
    V = _load_storage(args)
    lo, hi, count = args.grid
    grid = np.linspace(float(lo), float(hi), int(count))
    built = construct1d.construct_w(sysm, args.gamma, V, grid, margin=args.margin)
    w_vals = built.w_values
    v_vals = V.value_batch(built.grid[:, None])
    contract = {
        "gamma": args.gamma,
        "w_dominates_v": bool(np.all(w_vals >= v_vals - 1e-7)),
        "w_strictly_increasing": bool(np.all(np.diff(np.concatenate([[0.0], w_vals])) > 0)),
        "max_delta_of_selector": built.max_delta,
    }
    verdict = _verdict(contract["w_dominates_v"])    # construct_w enforces the Delta bound
    return (verdict, f"construct1d: {verdict} (max Delta(p) = {built.max_delta:.3e})",
            {"construct.csv": (["x", "p", "W"],
                               np.column_stack([built.grid, built.p_values, w_vals])),
             "construct.json": contract})


def _cmd_smooth(args) -> tuple:
    sysm = _load_system(args)
    V = _load_storage(args)
    cert = smoothing.smooth_witness(
        sysm, V, args.gamma, args.gamma_prime, r_min=args.rmin, r_max=args.rmax)
    axis = smoothing.mirrored_geometric_axis(args.rmin / 4, 1.25, args.rmax)
    P = smoothing._annulus_grid(axis, sysm.n, args.rmin, args.rmax)[2]
    # smooth_witness fails only once its refinement budget is spent: not a falsification
    line = (f"smooth: pass (max |V-W|/V = {cert.max_rel_approx_error:.3e}, "
            f"max gain residual = {cert.max_eq20_residual:.3e})" if cert.passed else
            f"smooth: fail ({cert.failure_reason} violated at "
            f"({', '.join(f'{v:g}' for v in cert.worst_point)}); refinement budget spent)")
    return ("pass" if cert.passed else audits.INCONCLUSIVE, line,
            {"smooth.json": cert.to_dict(),
             "smooth_grid.csv": ([f"x{i+1}" for i in range(sysm.n)] + ["V", "W"]
                                 + [f"gradW{i+1}" for i in range(sysm.n)],
                                 np.column_stack([P, V.value_batch(P), *cert.evaluate(P)]))})


def _cmd_subdiff(args) -> tuple:
    V = _load_storage(args)
    x = np.asarray(args.point, dtype=float)
    S = V.subdiff(x)
    intervals = [[lo, hi] for lo, hi in S.intervals]
    return ("pass", f"subdiff: {intervals}",
            {"subdiff.json": {"point": x.tolist(), "empty": S.is_empty,
                              "intervals": intervals, "singleton": S.is_singleton}})


# the audits that return an AuditReport; its kind is the outcome
_AUDITS = {
    "sigma1-axis": lambda args: audits.audit_sigma1_axis(_load_storage(args)),
    "curve-monotone": lambda args: audits.audit_curve_monotone(_load_storage(args), args.a),
    "sigmap": lambda args: audits.audit_sigmap(_load_storage(args), args.p, args.gamma,
                                               search_u_max=args.umax),
    "scalar-straddle": lambda args: audits.audit_scalar_straddle(_load_storage(args)),
}
# the options each audit kind reads, with their defaults; the kinds in _AUDITS also read
# --zoo and --storage, and any other option is a usage error
_AUDIT_OPTIONS = {"sigma1-axis": {}, "curve-monotone": {"a": 1.0},
                  "sigmap": {"p": 3.0, "gamma": 1.0, "umax": 1e3}, "scalar-straddle": {},
                  "curve-tangency": {"a": 1.0}, "sigma3-pieces": {}}


def _cmd_audit(args) -> tuple:
    if args.kind == "curve-tangency":
        defect = audits.audit_curve_tangency(args.a)
        verdict = _verdict(defect <= 1e-9)
        return (verdict, f"audit curve-tangency: max defect {defect:.3e} ({verdict})",
                {"audit.json": {"kind": "curve-tangency", "a": args.a, "max_defect": defect}})
    if args.kind == "sigma3-pieces":
        defects = audits.verify_sigma3_pieces()
        verdict = _verdict(audits.sigma3_pieces_pass(defects))
        return (verdict, f"audit sigma3-pieces: {verdict}",
                {"audit.json": {"kind": "sigma3-pieces", "defects": defects}})
    report = _AUDITS[args.kind](args)
    return report.kind, f"audit {args.kind}: {report.kind}", {"audit.json": report.to_dict()}


def _cmd_zoo(args) -> tuple:
    if args.action == "list":
        rows = [(e.name, e.claimed_gamma if e.has_specific_gamma else "any positive",
                 e.claimed_witness.name) for e in systems.zoo()]
        return "pass", "\n".join(f"{name:22s} gamma={gamma!s:12s} witness={witness}"
                                  for name, gamma, witness in rows), {}
    if not args.all and args.name is None:
        raise HjikitError("zoo run needs a NAME or --all")
    oks, results = [], {}
    for entry in systems.zoo() if args.all else [systems.zoo_entry(args.name)]:
        ok, results[entry.name] = _run_zoo_entry(entry)
        oks.append(ok)
    return (_verdict(all(oks)),
            "\n".join(f"zoo {name}: {'ok' if ok else 'FAIL'}" for name, ok in zip(results, oks)),
            {"zoo.json": {"seed": args.seed, "results": results}})


def _run_zoo_entry(entry) -> tuple:
    sysm = entry.system
    region = hji.Region(box=((-2.0, 2.0),) * sysm.n,
                        points_per_dim=41 if sysm.n > 1 else 81,
                        exclude_radius=1e-9)
    report = hji.check_witness(sysm, entry.claimed_witness, entry.gamma_for_checks, region)
    summary = {"claim": report.to_dict()}
    ok = report.passed
    if entry.name == "sigma3_scalar" and ok:
        defects = audits.verify_sigma3_pieces()
        straddle = audits.audit_scalar_straddle(entry.claimed_witness)
        summary["pieces"] = defects
        summary["straddle"] = straddle.to_dict()
        ok = audits.sigma3_pieces_pass(defects) and straddle.kind == audits.OBSTRUCTION
    return ok, summary


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjikit",
        description="Verify, falsify, construct and smooth L2-gain storage functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def out_and_seed(p):
        p.add_argument("--out", default="reports", help="output directory")
        # unset, it is read from HJI_SEED (default 0) when the arguments are parsed
        p.add_argument("--seed", type=int, default=None)

    def common(p, with_system=True, with_storage=True):
        p.add_argument("--zoo", help="zoo system name")
        if with_system:
            p.add_argument("--system", help="system JSON file")
        if with_storage:
            p.add_argument("--storage", help="builtin:NAME or storage JSON file")
        out_and_seed(p)

    def region_opts(p):
        p.add_argument("--box", type=float, nargs="+", default=None,
                       help="region box: lo hi per dimension")
        p.add_argument("--ppd", type=int, default=41, help="grid points per dimension")
        p.add_argument("--exclude-radius", dest="exclude_radius", type=float, default=1e-9)
        p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("verify", help="region witness check")
    common(p)
    region_opts(p)
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gain", help="minimal-gain scan over a gamma grid")
    common(p)
    region_opts(p)
    p.add_argument("--gammas", required=True, help="start:stop:step")
    p.set_defaults(func=_cmd_gain)

    p = sub.add_parser("simulate", help="integrate and audit the integral inequality")
    common(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--x0", type=float, nargs="+", required=True)
    p.add_argument("--input", required=True, help="input-signal JSON literal")
    p.add_argument("--tspan", type=float, nargs=2, default=(0.0, 1.0))
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--slack-tol", dest="slack_tol", type=float, default=1e-4)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("l2gain", help="ensemble lower bound on the squared L2 gain")
    common(p, with_storage=False)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--T", type=float, default=5.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.set_defaults(func=_cmd_l2gain)

    p = sub.add_parser("construct1d", help="1-D C1 witness construction")
    common(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--grid", type=float, nargs=3, default=(0.01, 2.0, 200),
                   metavar=("LO", "HI", "COUNT"))
    p.add_argument("--margin", type=float, default=0.1)
    p.set_defaults(func=_cmd_construct1d)

    p = sub.add_parser("smooth", help="mollify a witness at a relaxed gain and certify")
    common(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--gamma-prime", dest="gamma_prime", type=float, required=True)
    p.add_argument("--rmin", type=float, default=0.05)
    p.add_argument("--rmax", type=float, default=2.0)
    p.set_defaults(func=_cmd_smooth)

    p = sub.add_parser("audit", help="run a nonexistence-argument auditor")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, options in _AUDIT_OPTIONS.items():
        k = kinds.add_parser(kind)
        if kind in _AUDITS:
            common(k, with_system=False)
        else:
            out_and_seed(k)
        for name, default in options.items():
            k.add_argument(f"--{name}", type=float, default=default)
        k.set_defaults(func=_cmd_audit)

    p = sub.add_parser("zoo", help="list or run the registered examples")
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("name", nargs="?")
    p.add_argument("--all", action="store_true")
    out_and_seed(p)
    p.set_defaults(func=_cmd_zoo)

    p = sub.add_parser("subdiff", help="exact subdifferential point query")
    common(p, with_system=False)
    p.add_argument("--point", type=float, nargs="+", required=True)
    p.set_defaults(func=_cmd_subdiff)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    return build_parser()       # one per process: building it costs more than a parse


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.seed is None:
            try:
                args.seed = int(os.environ.get("HJI_SEED", "0"))
            except ValueError:
                parser.error(f"argument --seed: invalid HJI_SEED {os.environ['HJI_SEED']!r}")
        outcome, line, reports = args.func(args)
        if reports:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            for name, report in reports.items():
                if isinstance(report, dict):
                    _write_json(out / name, report)
                else:
                    _write_csv(out / name, *report)
    except (HjikitError, OSError, json.JSONDecodeError, ValueError, KeyError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_ERROR
    print(line)
    return _EXIT_CODES[outcome]


if __name__ == "__main__":
    raise SystemExit(main())
