"""Batch command-line front end.

Subcommands dispatch to the library modules and write machine-readable reports
(JSON) plus plot-ready CSV dumps to the output directory; a one-line verdict
goes to stdout.  Exit codes: 0 = claim verified / obstruction verified,
1 = claim falsified / violation found, 2 = usage or runtime error.  Runs are
deterministic: any randomized sampling uses the 64-bit seed recorded in the
report (default 0, ``--seed``).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys as _sys
from pathlib import Path

import numpy as np

from . import audits, construct1d, hji, smoothing, storage, systems, trajectories
from .errors import HjikitError

EXIT_VERIFIED = 0
EXIT_FALSIFIED = 1
EXIT_ERROR = 2


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _out_dir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_system(args) -> systems.System:
    if getattr(args, "zoo", None):
        return systems.zoo_entry(args.zoo).system
    if getattr(args, "system", None):
        cfg = json.loads(Path(args.system).read_text())
        return systems.system_from_config(cfg)
    raise HjikitError("specify --zoo NAME or --system FILE")


def _load_storage(args) -> storage.StorageCandidate:
    spec = getattr(args, "storage", None)
    if spec is None:
        if getattr(args, "zoo", None):
            return systems.zoo_entry(args.zoo).claimed_witness
        raise HjikitError("specify --storage (builtin:NAME or a JSON file)")
    if spec.startswith("builtin:"):
        return storage.builtin(spec.split(":", 1)[1])
    cfg = json.loads(Path(spec).read_text())
    return storage.from_config(cfg)


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
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    sysm = _load_system(args)
    V = _load_storage(args)
    region = _region_from(args, sysm.n)
    report = hji.check_witness(sysm, V, args.gamma, region, tol=args.tol)
    out = _out_dir(args)
    _write_json(out / "verify.json", report.to_dict())
    tol = report.tolerance
    _write_csv(out / "sweep.csv",
               [f"x{i+1}" for i in range(sysm.n)] + ["residual"]
               + [f"worst_u{i+1}" for i in range(sysm.m)] + ["pass"],
               [[*x, r, *u, r <= tol] for x, r, u in zip(
                   report.grid.tolist(), report.point_residuals.tolist(),
                   report.point_u.tolist())])
    print(f"verify: {report.verdict} (max residual {report.max_residual:.3e} "
          f"over {report.points_checked} points)")
    return EXIT_VERIFIED if report.passed else EXIT_FALSIFIED


def _cmd_gain(args) -> int:
    sysm = _load_system(args)
    V = _load_storage(args)
    region = _region_from(args, sysm.n)
    grid = _gamma_grid(args.gammas)
    gamma = hji.min_gain_scan(sysm, V, region, grid, tol=args.tol)
    _write_json(_out_dir(args) / "gain.json",
                {"gamma_grid": [grid[0], grid[-1], len(grid)], "min_gamma": gamma})
    if gamma is None:
        print("gain: no grid gamma passes")
        return EXIT_FALSIFIED
    print(f"gain: {gamma:.2f}")
    return EXIT_VERIFIED


def _cmd_simulate(args) -> int:
    sysm = _load_system(args)
    V = _load_storage(args)
    x0 = np.asarray(args.x0, dtype=float)
    signal = trajectories.signal_from_config(json.loads(args.input))
    traj = trajectories.integrate(sysm, x0, signal, tuple(args.tspan), args.step)
    slack, interval = trajectories.dissipation_audit_detail(traj, V, args.gamma)
    out = _out_dir(args)
    _write_csv(out / "trajectory.csv",
               ["t"] + [f"x{i+1}" for i in range(sysm.n)]
               + [f"u{i+1}" for i in range(sysm.m)],
               trajectories.trajectory_rows(traj).tolist())
    _write_json(out / "dissipation.json",
                {"max_slack": slack, "argmax_interval": list(interval),
                 "gamma": args.gamma})
    ok = slack <= args.slack_tol
    print(f"simulate: max dissipation slack {slack:.3e} over [{interval[0]:g}, {interval[1]:g}] "
          f"({'pass' if ok else 'fail'})")
    return EXIT_VERIFIED if ok else EXIT_FALSIFIED


def _cmd_l2gain(args) -> int:
    sysm = _load_system(args)
    ensemble = trajectories.random_piecewise_ensemble(
        sysm.m, args.T, args.step, args.count, seed=args.seed, amplitude=args.amplitude)
    bound, max_norm = trajectories.l2_gain_detail(sysm, ensemble, args.T, args.step)
    trivial = max_norm == 0.0
    _write_json(_out_dir(args) / "l2gain.json",
                {"lower_bound": bound, "max_state_norm": max_norm, "trivial": trivial,
                 "count": args.count, "T": args.T,
                 "step": args.step, "seed": args.seed, "amplitude": args.amplitude})
    print(f"l2gain: squared-gain lower bound {bound:.6f}"
          + (" (trivial: the state never left the origin)" if trivial else ""))
    return EXIT_VERIFIED


def _cmd_construct1d(args) -> int:
    sysm = _load_system(args)
    V = _load_storage(args)
    lo, hi, count = args.grid
    grid = np.linspace(float(lo), float(hi), int(count))
    built = construct1d.construct_w(sysm, args.gamma, V, grid, margin=args.margin)
    out = _out_dir(args)
    _write_csv(out / "construct.csv", ["x", "p", "W"],
               np.column_stack([built.grid, built.p_values, built.w_values]).tolist())
    w_vals = built.w_values
    v_vals = V.value_batch(built.grid[:, None])
    contract = {
        "gamma": args.gamma,
        "w_dominates_v": bool(np.all(w_vals >= v_vals - 1e-7)),
        "w_strictly_increasing": bool(np.all(np.diff(np.concatenate([[0.0], w_vals])) > 0)),
        "max_delta_of_selector": float(np.max(construct1d.delta(
            construct1d.QuadCoeffs.at(sysm, args.gamma, built.grid), built.p_values))),
    }
    _write_json(out / "construct.json", contract)
    ok = contract["w_dominates_v"] and contract["max_delta_of_selector"] <= 1e-9
    print(f"construct1d: {'pass' if ok else 'fail'} "
          f"(max Delta(p) = {contract['max_delta_of_selector']:.3e})")
    return EXIT_VERIFIED if ok else EXIT_FALSIFIED


def _cmd_smooth(args) -> int:
    sysm = _load_system(args)
    V = _load_storage(args)
    cert = smoothing.smooth_witness(
        sysm, V, args.gamma, args.gamma_prime, r_min=args.rmin, r_max=args.rmax)
    out = _out_dir(args)
    _write_json(out / "smooth.json", cert.to_dict())
    axis = smoothing.mirrored_geometric_axis(args.rmin / 4, 1.25, args.rmax)
    P = smoothing._annulus_grid(axis, sysm.n, args.rmin, args.rmax)[2]
    _write_csv(out / "smooth_grid.csv",
               [f"x{i+1}" for i in range(sysm.n)] + ["V", "W"]
               + [f"gradW{i+1}" for i in range(sysm.n)],
               np.column_stack([P, V.value_batch(P), *cert.evaluate(P)]).tolist())
    print(f"smooth: {cert.verdict} (max |V-W|/V = {cert.max_rel_approx_error:.3e}, "
          f"max gain residual = {cert.max_eq20_residual:.3e})")
    return EXIT_VERIFIED if cert.passed else EXIT_FALSIFIED


def _cmd_subdiff(args) -> int:
    V = _load_storage(args)
    x = np.asarray(args.point, dtype=float)
    S = V.subdiff(x)
    payload = {"point": x.tolist(), "empty": S.is_empty,
               "intervals": [[lo, hi] for lo, hi in S.intervals],
               "singleton": S.is_singleton}
    _write_json(_out_dir(args) / "subdiff.json", payload)
    print(f"subdiff: {payload['intervals']}")
    return EXIT_VERIFIED


_AUDIT_KINDS = ("sigma1-axis", "curve-monotone", "curve-tangency", "sigmap",
                "scalar-straddle", "sigma3-pieces")


def _cmd_audit(args) -> int:
    kind = args.kind
    out = _out_dir(args)
    if kind == "sigma1-axis":
        report = audits.audit_sigma1_axis(_load_storage(args))
    elif kind == "curve-monotone":
        report = audits.audit_curve_monotone(_load_storage(args), args.a)
    elif kind == "curve-tangency":
        defect = audits.audit_curve_tangency(args.a)
        _write_json(out / "audit.json", {"kind": "curve-tangency", "a": args.a,
                                         "max_defect": defect})
        ok = defect <= 1e-9
        print(f"audit curve-tangency: max defect {defect:.3e} ({'pass' if ok else 'fail'})")
        return EXIT_VERIFIED if ok else EXIT_FALSIFIED
    elif kind == "sigmap":
        report = audits.audit_sigmap(_load_storage(args), args.p, args.gamma,
                                     search_u_max=args.umax)
    elif kind == "scalar-straddle":
        report = audits.audit_scalar_straddle(_load_storage(args))
    elif kind == "sigma3-pieces":
        defects = audits.verify_sigma3_pieces()
        _write_json(out / "audit.json", {"kind": "sigma3-pieces", "defects": defects})
        ok = audits.sigma3_pieces_pass(defects)
        print(f"audit sigma3-pieces: {'pass' if ok else 'fail'}")
        return EXIT_VERIFIED if ok else EXIT_FALSIFIED
    else:  # pragma: no cover - argparse restricts choices
        raise HjikitError(f"unknown audit kind {kind!r}")
    _write_json(out / "audit.json", report.to_dict())
    print(f"audit {kind}: {report.kind}")
    if report.kind == audits.OBSTRUCTION:
        return EXIT_VERIFIED
    if report.kind == audits.VIOLATION:
        return EXIT_FALSIFIED
    return EXIT_ERROR


def _cmd_zoo(args) -> int:
    if args.action == "list":
        for entry in systems.zoo():
            gamma = entry.claimed_gamma if entry.has_specific_gamma else "any positive"
            print(f"{entry.name:22s} gamma={gamma!s:12s} witness={entry.claimed_witness.name}")
        return EXIT_VERIFIED
    names = [e.name for e in systems.zoo()] if args.all else [args.name]
    if not args.all and args.name is None:
        raise HjikitError("zoo run needs a NAME or --all")
    out = _out_dir(args)
    worst = EXIT_VERIFIED
    results = {}
    for name in names:
        code, summary = _run_zoo_entry(name, args)
        results[name] = summary
        worst = max(worst, code)
        print(f"zoo {name}: {'ok' if code == EXIT_VERIFIED else 'FAIL'}")
    _write_json(out / "zoo.json", {"seed": args.seed, "results": results})
    return worst


def _run_zoo_entry(name: str, args) -> tuple:
    entry = systems.zoo_entry(name)
    sysm = entry.system
    gamma = entry.gamma_for_checks
    region = hji.Region(box=((-2.0, 2.0),) * sysm.n,
                        points_per_dim=41 if sysm.n > 1 else 81,
                        exclude_radius=1e-9)
    report = hji.check_witness(sysm, entry.claimed_witness, gamma, region)
    summary = {"claim": report.to_dict()}
    code = EXIT_VERIFIED if report.passed else EXIT_FALSIFIED

    if name == "sigma3_scalar" and code == EXIT_VERIFIED:
        defects = audits.verify_sigma3_pieces()
        straddle = audits.audit_scalar_straddle(entry.claimed_witness)
        summary["pieces"] = defects
        summary["straddle"] = straddle.to_dict()
        if not audits.sigma3_pieces_pass(defects) or straddle.kind != audits.OBSTRUCTION:
            code = EXIT_FALSIFIED
    return code, summary


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
        # a string default goes through type=int, so a bad HJI_SEED is a usage error
        p.add_argument("--seed", type=int, default=os.environ.get("HJI_SEED", "0"))

    def common(p, with_storage=True):
        p.add_argument("--zoo", help="zoo system name")
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
    p.add_argument("kind", choices=_AUDIT_KINDS)
    common(p)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--p", type=float, default=3.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--umax", type=float, default=1e3)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("zoo", help="list or run the registered examples")
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("name", nargs="?")
    p.add_argument("--all", action="store_true")
    out_and_seed(p)
    p.set_defaults(func=_cmd_zoo)

    p = sub.add_parser("subdiff", help="exact subdifferential point query")
    common(p)
    p.add_argument("--point", type=float, nargs="+", required=True)
    p.set_defaults(func=_cmd_subdiff)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except HjikitError as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
