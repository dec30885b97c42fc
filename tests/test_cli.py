import csv
import dataclasses
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjikit import cli, construct1d, hji, smoothing, storage, systems, trajectories
from reference import point_residual


def run(args):
    """cli.main in-process; every JSON report it writes under --out parses without NaN."""
    args = [str(a) for a in args]
    code = cli.main(args)
    if "--out" in args:
        check_reports(Path(args[args.index("--out") + 1]))
    return code


def check_reports(out: Path):
    """A report writes NaN as null and +-inf as Infinity: no JSON file under out holds NaN."""
    for path in out.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=lambda c: float(c) if c != "NaN" else
                   pytest.fail(f"a NaN token in {path}"))


def test_verify_pass_and_fail(tmp_path):
    out = tmp_path / "ok"
    code = run(["verify", "--zoo", "sigma1", "--storage", "builtin:v1_scaled",
                "--gamma", "1", "--box", "-2", "2", "-2", "2", "--ppd", "41",
                "--out", out])
    assert code == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["verdict"] == "pass" and report["max_residual"] <= 1e-9
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "x1,x2,residual,worst_u1,worst_u2,pass"
    assert len(sweep) == 1 + report["points_checked"]

    code = run(["verify", "--zoo", "sigma1", "--storage", "builtin:v1_scaled",
                "--gamma", "0.9", "--out", tmp_path / "fail"])
    assert code == 1


@pytest.mark.parametrize("zoo, storage, gamma, ppd", [
    ("sigma2", "v2", "1", "40"),
    ("sigma3_scalar", "v3_scalar", "1", "401"),
    ("sigma1", "v1_scaled", "0.9", "41"),
])
def test_sweep_csv_agrees_with_report(tmp_path, zoo, storage, gamma, ppd):
    """sweep.csv holds the rows the verdict was computed from."""
    run(["verify", "--zoo", zoo, "--storage", f"builtin:{storage}", "--gamma", gamma,
         "--ppd", ppd, "--out", tmp_path])
    report = json.loads((tmp_path / "verify.json").read_text())
    with (tmp_path / "sweep.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == report["points_checked"]
    assert max(float(r["residual"]) for r in rows) == report["max_residual"]
    assert all(r["pass"] == "True" for r in rows) == (report["verdict"] == "pass")


def test_gain_scan(tmp_path):
    out = tmp_path / "gain"
    code = run(["gain", "--zoo", "sigma1", "--storage", "builtin:v1_scaled",
                "--gammas", "0.5:2:0.01", "--out", out])
    assert code == 0
    assert json.loads((out / "gain.json").read_text())["min_gamma"] == pytest.approx(1.0)


def test_gain_line_prints_min_gamma_as_reported(tmp_path, capsys):
    """On a 0.001-step grid the line gives min_gamma as gain.json holds it (1.563; the
    1.56 that two decimals print fails), plus gamma_star, the largest needed gain."""
    spec = tmp_path / "v.json"
    spec.write_text(json.dumps({"kind": "expr", "expr": "2.5*x1*x1", "n": 1}))
    code = run(["gain", "--zoo", "scalar_linear", "--storage", spec,
                "--gammas", "0.5:2:0.001", "--out", tmp_path / "g"])
    report = json.loads((tmp_path / "g" / "gain.json").read_text())
    assert code == 0 and report["min_gamma"] == 1.563
    assert capsys.readouterr().out == f"gain: 1.563 (gamma_star {report['gamma_star']!r})\n"
    # 25 x^2 / (4 (tol + 4 x^2)) is largest at the box corner x = -2, just below 25/16
    assert 1.562 < report["gamma_star"] < 1.5625 and report["gamma_star_x"] == [-2.0]
    assert run(["verify", "--zoo", "scalar_linear", "--storage", spec, "--gamma", "1.56",
                "--out", tmp_path / "v"]) == 1


def test_system_and_storage_files(tmp_path):
    sys_file = tmp_path / "sys.json"
    sys_file.write_text(json.dumps({
        "name": "lin", "kind": "affine", "n": 1, "m": 1,
        "g0": ["-x1"], "g": [["1"]]}))
    sto_file = tmp_path / "sto.json"
    sto_file.write_text(json.dumps({"kind": "expr", "expr": "x1*x1", "n": 1}))
    code = run(["subdiff", "--storage", "builtin:v3_scalar", "--point", "1",
                "--out", tmp_path / "sd"])
    assert code == 0
    payload = json.loads((tmp_path / "sd" / "subdiff.json").read_text())
    assert payload["intervals"] == [[1.0, 2.0]]
    # an expression candidate has the generated oracle
    code = run(["subdiff", "--storage", sto_file, "--point", "1",
                "--out", tmp_path / "sd2"])
    assert code == 0
    assert json.loads((tmp_path / "sd2" / "subdiff.json").read_text())["intervals"] == [[2.0, 2.0]]
    # power-affine configs load
    pw = tmp_path / "pw.json"
    pw.write_text(json.dumps({
        "name": "p", "kind": "power_affine", "n": 1, "m": 1,
        "g0": ["-x1"], "g": [["1"]], "p": 3, "phi": "abs_pow"}))
    code = run(["verify", "--system", pw, "--storage", "builtin:sq_norm",
                "--gamma", "50", "--box", "-1", "1", "--ppd", "11",
                "--out", tmp_path / "pv"])
    assert code in (0, 1)


def test_system_without_inputs(tmp_path):
    """An affine system with no inputs (m = 0, dx = -x) checks like any other: the
    library calls, and verify and gain on its --system JSON, which exit 0."""
    sysm = systems.AffineSystem(1, 0, ("-x1",), ())
    V = storage.builtin("sq_norm")
    region = hji.Region(box=((-2.0, 2.0),), points_per_dim=41)
    report = hji.check_witness(sysm, V, 1.0, region)
    assert report.passed and report.point_u.shape == (report.points_checked, 0)
    assert point_residual(sysm, V, 1.0, [1.0])[0] == -1.0
    X = region.grid()
    assert hji.Sweep(sysm, X, *V.subdiff_batch(X)).needed_gains(hji.DEFAULT_TOL_EXACT).max() == 0.0
    scan = hji.min_gain_scan(sysm, V, region, hji.gamma_range(0.5, 2.0, 0.01))
    assert scan.min_gamma == 0.5 and scan.gamma_star == 0.0

    sys_file = tmp_path / "decay.json"
    sys_file.write_text(json.dumps(systems.system_to_config(sysm)))
    assert run(["verify", "--system", sys_file, "--storage", "builtin:sq_norm",
                "--gamma", "1", "--out", tmp_path / "v"]) == 0
    assert json.loads((tmp_path / "v" / "verify.json").read_text())["worst_u"] == []
    assert run(["gain", "--system", sys_file, "--storage", "builtin:sq_norm",
                "--gammas", "0.5:2:0.01", "--out", tmp_path / "g"]) == 0
    gain = json.loads((tmp_path / "g" / "gain.json").read_text())
    assert gain["min_gamma"] == 0.5 and gain["gamma_star"] == 0.0


@pytest.mark.parametrize("F, gamma, half, ppd, reach", [
    ("-x1 + x1*pow(max(abs(u1)-10, 0), 2)", "1", "2", "81", (700, 708)),
    ("-100*x1 + 20*u1", "2", "10", "41", (3.1, 700))])
def test_growth_beyond_the_region_fails_verify(tmp_path, F, gamma, half, ppd, reach):
    """dx = -x + x max(|u| - 10, 0)^2 with sq_norm at gamma 1 has residual +inf at every
    x != 0; the input grid reaches |u| = 707.  dx = -100 x + 20 u at gamma 2 has residual
    x^2 > 0 at u* = 10 x, up to 100 on [-10, 10], past the grid's core (|u| <= 3.04).
    Both fail verify (exit 1)."""
    sys_file = tmp_path / "general.json"
    sys_file.write_text(json.dumps({"kind": "general", "n": 1, "m": 1, "F": [F]}))
    assert run(["verify", "--system", sys_file, "--storage", "builtin:sq_norm", "--gamma", gamma,
                "--box", f"-{half}", half, "--ppd", ppd, "--out", tmp_path / "v"]) == 1
    report = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert report["verdict"] == "fail" and reach[0] < abs(report["worst_u"][0]) < reach[1]


def test_gain_of_a_general_system(tmp_path, capsys):
    """sigma3_scalar's scan confirms its sampled needed gain: min_gamma 1.0 and a
    gamma_star just below it."""
    assert run(["gain", "--zoo", "sigma3_scalar", "--gammas", "0.5:2:0.01",
                "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "gain.json").read_text())
    assert report["min_gamma"] == 1.0 and 0.99 < report["gamma_star"] <= 1.0
    assert capsys.readouterr().out == f"gain: 1.0 (gamma_star {report['gamma_star']!r})\n"


def test_degenerate_scan_names_no_point(tmp_path):
    """When no grid point needs a positive gain every point ties at 0: gamma_star is 0
    and gamma_star_x is None in the scan and null in gain.json, not the first point."""
    cfg = {"kind": "affine", "n": 1, "m": 0, "g0": ["-x1"], "g": []}
    sysm, V = systems.system_from_config(cfg), storage.builtin("sq_norm")
    region = hji.Region(box=((-2.0, 2.0),), points_per_dim=41)
    scan = hji.min_gain_scan(sysm, V, region, hji.gamma_range(0.5, 2.0, 0.01))
    assert scan == (0.5, 0.0, None)
    sys_file = tmp_path / "decay.json"
    sys_file.write_text(json.dumps(cfg))
    assert run(["gain", "--system", sys_file, "--storage", "builtin:sq_norm",
                "--gammas", "0.5:2:0.01", "--out", tmp_path / "g"]) == 0
    gain = json.loads((tmp_path / "g" / "gain.json").read_text())
    assert (gain["gamma_star"], gain["gamma_star_x"]) == (0.0, None)


def test_unbounded_gamma_star_is_written_as_infinity(tmp_path, capsys):
    """sigma_p(3) under sq_norm needs an unbounded gain at its box corner: gain.json
    writes gamma_star as Infinity, as verify.json writes an unbounded max_residual."""
    assert run(["gain", "--zoo", "sigma_p(3)", "--storage", "builtin:sq_norm",
                "--gammas", "0.5:2:0.01", "--out", tmp_path]) == 1
    assert capsys.readouterr().out == "gain: no grid gamma passes (gamma_star inf)\n"
    gain = json.loads((tmp_path / "gain.json").read_text())
    assert gain["min_gamma"] is None and gain["gamma_star"] == math.inf
    assert gain["gamma_star_x"] == [-2.0, -1.9]


def test_malformed_expression_reports_usage_error(tmp_path, capsys):
    """A parse error is a usage error that names its position; a non-ASCII digit is
    an unexpected character."""
    bad = tmp_path / "bad.json"
    for g0, message in (("x1 +", "unexpected token '' (at position 4)"),
                        ("x1²", "unexpected character '²' (at position 2)")):
        bad.write_text(json.dumps({
            "name": "bad", "kind": "affine", "n": 1, "m": 1,
            "g0": [g0], "g": [["1"]]}))
        code = run(["verify", "--system", bad, "--storage", "builtin:sq_norm",
                    "--gamma", "1", "--out", tmp_path / "o"])
        assert code == 2 and message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("box", [["2", "-2", "2", "-2"], ["1", "1", "-2", "2"]])
def test_reversed_or_flat_box_is_a_usage_error(tmp_path, capsys, box):
    """A reversed axis would skip the x = 0 kink rows (1,600 points checked, not
    1,680), and a flat one would count 41 distinct points 1,640 times."""
    assert run(["verify", "--zoo", "sigma1", "--storage", "builtin:v1", "--gamma", "1",
                "--ppd", "40", "--box", *box, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "--box" in err and "box axis 0 needs finite lo < hi" in err
    assert not (tmp_path / "o").exists()


_AFFINE3 = {"kind": "affine", "n": 3, "m": 3, "g0": ["-x1", "-x2", "-x3"]}


@pytest.mark.parametrize("system, candidate, gamma, ppd, mode, tol, lines", [
    ("sigma3_scalar", "builtin:v3_scalar", "1", "401", "sampled", 1e-6, 401),
    ("sigma1", "builtin:v1_scaled", "1", "201", "exact", 1e-9, 40401),
    # an expression candidate has the generated oracle: v1_scaled as an expression passes
    ("sigma1", {"kind": "expr", "expr": "2*(abs(x1)+abs(x2))", "n": 2}, "1", "41", "exact",
     1e-9, 1681),
    # a 3-D sweep whose box rows lie on three kink planes: each takes only its own vertices
    ({**_AFFINE3, "g": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
     {"kind": "expr", "n": 3, "expr": "x1*x1 + x2*x2 + x3*x3 + 0.1*(abs(x1) + abs(x2) + abs(x3))"},
     "2", "41", "exact", 1e-9, 68921),
], ids=["sigma3_scalar", "sigma1-ppd201", "sigma1-expression", "cube"])
def test_verify_report_names_the_sup_mode_and_its_tolerance(tmp_path, system, candidate, gamma,
                                                            ppd, mode, tol, lines):
    """A pass names its sup and tolerance; sweep.csv has a row per point but the origin."""
    def source(name, value):
        if isinstance(value, str):
            return value
        (tmp_path / name).write_text(json.dumps(value))
        return tmp_path / name
    assert run(["verify", "--zoo" if isinstance(system, str) else "--system",
                source("sys.json", system), "--storage", source("v.json", candidate),
                "--gamma", gamma, "--ppd", ppd, "--out", tmp_path / "v"]) == 0
    report = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert (report["mode"], report["tolerance"]) == (mode, tol)
    assert (tmp_path / "v" / "sweep.csv").read_bytes().count(b"\n") == lines


def test_sweep_csv_bits_do_not_depend_on_the_bounds_layout(tmp_path):
    """The same bounds give the same sweep.csv bytes in either memory layout: an
    expression candidate's (F-ordered) and a built-in's (C-ordered)."""
    (tmp_path / "mix3.json").write_text(json.dumps({**_AFFINE3, "g": [
        ["1.1", "0.2", "0.3"], ["0.7", "1.3", "0.5"], ["0.3", "0.9", "1.7"]]}))
    (tmp_path / "sq3.json").write_text(json.dumps({"kind": "expr", "n": 3,
                                                   "expr": "x1*x1 + x2*x2 + x3*x3"}))
    for out, candidate in (("f", tmp_path / "sq3.json"), ("c", "builtin:sq_norm")):
        assert run(["verify", "--system", tmp_path / "mix3.json", "--storage", candidate,
                    "--gamma", "8", "--out", tmp_path / out]) == 0
    assert len({(tmp_path / out / "sweep.csv").read_bytes() for out in "fc"}) == 1


def test_any_exception_a_command_raises_exits_2(tmp_path, monkeypatch, capsys):
    """Exit 1 is a falsified claim: an unexpected failure is an error (2), no report."""
    def fail(*args, **kwargs):
        raise RuntimeError("boom")
    monkeypatch.setattr(hji, "check_witness", fail)
    assert run(["verify", "--zoo", "sigma1", "--storage", "builtin:v1_scaled", "--gamma", "1",
                "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == "error: boom (RuntimeError)\n"
    assert not (tmp_path / "o").exists()


def test_a_thousand_term_field_verifies_like_one_term(tmp_path, capsys):
    """1000 terms of -0.001*x1 are -x1: the long field gives the one-term verdict."""
    residuals = []
    for name, g0 in (("one", "-x1"), ("long", " + ".join(["-0.001*x1"] * 1000))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"kind": "affine", "n": 1, "m": 1, "g0": [g0], "g": [["1"]]}))
        assert run(["verify", "--system", path, "--storage", "builtin:sq_norm", "--gamma", "2",
                    "--out", tmp_path / name]) == 0
        assert capsys.readouterr().out == "verify: pass (max residual -5.000e-03 over 40 points)\n"
        residuals.append(json.loads((tmp_path / name / "verify.json").read_text())["max_residual"])
    assert residuals[1] == pytest.approx(residuals[0], abs=1e-12)


def test_missing_inputs_are_usage_errors(tmp_path, capsys):
    """Missing or conflicting inputs exit 2; zoo run NAME --all used to run all 8 entries."""
    assert run(["verify", "--gamma", "1", "--out", tmp_path / "x"]) == 2
    assert run(["zoo", "run", "--out", tmp_path / "y"]) == 2
    for argv, message in ((["run", "sigma1", "--all"], "zoo run needs one of a NAME and --all"),
                          (["list", "sigma1"], "zoo list takes neither a NAME nor --all"),
                          (["list", "--all"], "zoo list takes neither a NAME nor --all")):
        assert run(["zoo", *argv, "--out", tmp_path / "z"]) == 2
        assert message in capsys.readouterr().err and not (tmp_path / "z").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--zoo", "sigma1", "--storage", "builtin:v3_scalar", "--gamma", "1"],
    ["verify", "--zoo", "sigma3_scalar", "--storage", "builtin:v1_scaled", "--gamma", "1"],
    ["smooth", "--zoo", "scalar_linear", "--storage", "builtin:v1", "--gamma", "1",
     "--gamma-prime", "1.1"],
    ["simulate", "--zoo", "sigma1", "--storage", "builtin:v3_scalar", "--gamma", "1",
     "--x0", "1", "1", "--input", '{"kind":"constant","values":[0,0]}'],
    ["subdiff", "--storage", "builtin:v1_scaled", "--point", "1"],
], ids=["verify-1d-on-2d", "verify-2d-on-1d", "smooth", "simulate", "subdiff"])
def test_candidate_of_another_dimension_is_a_usage_error(tmp_path, capsys, argv):
    """A candidate whose dimension differs from the system's (or the point's) is
    neither a pass nor a falsification: exit 2 with one error line, no report."""
    assert run(argv + ["--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: candidate ") and "dimension" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name, zoo, expr, n", [
    ("v1_scaled", "sigma1", "2*(abs(x1)+abs(x2))", 2),
    ("v1", "sigma1", "abs(x1)+abs(x2)", 2),
    ("v2", "sigma2", "x1*x1 + cbrt(x2)*cbrt(x2)", 2),
    ("v3_scalar", "sigma3_scalar", "max(abs(x1), 2*x1 - 1)", 1),
])
def test_builtin_and_its_expression_json_agree(tmp_path, capsys, name, zoo, expr, n):
    """verify, subdiff and audit sigma1-axis read a built-in and its expression JSON
    alike: the same exit code, stdout line and report.  The JSON declares the
    built-in's kinks, so an even --ppd grid visits the same kink loci."""
    spec = tmp_path / "v.json"
    kinks = [list(k) for k in storage.builtin(name).kinks]
    spec.write_text(json.dumps({"kind": "expr", "expr": expr, "n": n, "kinks": kinks}))
    for argv, report in ((["verify", "--zoo", zoo, "--gamma", "1"], "verify.json"),
                         (["verify", "--zoo", zoo, "--gamma", "1", "--ppd", "40"],
                          "verify.json"),
                         (["subdiff", "--point", *["0", "1"][:n]], "subdiff.json"),
                         (["audit", "sigma1-axis"], "audit.json")):
        runs = []
        for candidate in (f"builtin:{name}", spec):
            out = tmp_path / f"{argv[0]}{len(runs)}"
            code = run([*argv, "--storage", candidate, "--out", out])
            path = out / report
            runs.append((code, capsys.readouterr().out,
                         path.read_text() if path.exists() else None))
        assert runs[0] == runs[1], argv
        assert runs[0][2] is not None or (n == 1 and argv[0] == "audit")


def test_simulate_and_audit_commands(tmp_path):
    code = run(["simulate", "--zoo", "sigma1", "--storage", "builtin:v1_scaled",
                "--gamma", "1", "--x0", "1", "1",
                "--input", '{"kind":"constant","values":[0,0]}',
                "--tspan", "0", "1", "--step", "0.001", "--out", tmp_path / "sim"])
    assert code == 0
    audit = json.loads((tmp_path / "sim" / "dissipation.json").read_text())
    assert audit["max_slack"] <= 1e-4
    header = (tmp_path / "sim" / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x1,x2,u1,u2"

    code = run(["audit", "sigmap", "--storage", "builtin:sq_norm", "--p", "3",
                "--gamma", "1", "--umax", "2", "--out", tmp_path / "a1"])
    assert code == 1  # falsified
    code = run(["audit", "curve-monotone", "--storage", "builtin:v2", "--a", "1",
                "--out", tmp_path / "a2"])
    assert code == 0  # obstruction verified
    code = run(["audit", "curve-tangency", "--a", "1", "--out", tmp_path / "a3"])
    assert code == 0
    code = run(["audit", "sigma3-pieces", "--out", tmp_path / "a4"])
    assert code == 0
    payload = json.loads((tmp_path / "a2" / "audit.json").read_text())
    assert payload["kind"] == "obstruction_verified" and payload["claim"]


def test_sigma1_axis_and_straddle_audit_commands(tmp_path):
    code = run(["audit", "sigma1-axis", "--storage", "builtin:v1", "--out", tmp_path / "v1"])
    assert code == 1  # violation found
    payload = json.loads((tmp_path / "v1" / "audit.json").read_text())
    assert payload["kind"] == "violation_found" and payload["detail"]["residual"] == 2.0
    code = run(["audit", "sigma1-axis", "--storage", "builtin:v1_scaled",
                "--out", tmp_path / "v1s"])
    assert code == 0
    payload = json.loads((tmp_path / "v1s" / "audit.json").read_text())
    assert payload["kind"] == "obstruction_verified"
    code = run(["audit", "scalar-straddle", "--storage", "builtin:v3_scalar",
                "--out", tmp_path / "st"])
    assert code == 0
    payload = json.loads((tmp_path / "st" / "audit.json").read_text())
    assert payload["kind"] == "obstruction_verified"


def test_inconclusive_audit_exits_3(tmp_path, capsys):
    """Below the violating inputs' size the sigmap falsifier finds nothing, and the
    candidate's obstruction is not verified either: neither 0 nor 1 (nor 2)."""
    assert run(["audit", "sigmap", "--storage", "builtin:sq_norm", "--p", "3",
                "--gamma", "1", "--umax", "1", "--out", tmp_path]) == 3
    assert capsys.readouterr().out == "audit sigmap: inconclusive\n"
    assert json.loads((tmp_path / "audit.json").read_text())["kind"] == "inconclusive"


def test_smooth_out_of_refinements_exits_3(tmp_path, monkeypatch, capsys):
    """smooth_witness fails only once its budget is spent: the run is inconclusive,
    its report is still written, and its line names the failed bound and the worst
    point (certification stopped before any bound was measured: no nan)."""
    monkeypatch.setattr(smoothing, "smooth_witness",
                        functools.partial(smoothing.smooth_witness, max_refinements=0))
    assert run(["smooth", "--zoo", "sigma2", "--storage", "builtin:v2", "--gamma", "1",
                "--gamma-prime", "1.1", "--out", tmp_path]) == 3
    report = json.loads((tmp_path / "smooth.json").read_text())
    assert report["verdict"] == "fail"
    assert (tmp_path / "smooth_grid.csv").is_file()
    line = capsys.readouterr().out
    worst = ", ".join(f"{v:g}" for v in report["worst_point"])
    assert line == (f"smooth: fail ({report['failure_reason']} violated at ({worst}); "
                    "refinement budget spent)\n")
    assert report["failure_reason"] == "approximation bound" and "nan" not in line


@pytest.mark.parametrize("argv", [
    ["smooth", "--zoo", "sigma1", "--gamma", "-1", "--gamma-prime", "0"],
    ["smooth", "--zoo", "sigma1", "--gamma", "1", "--gamma-prime", "1.1",
     "--rmin", "0.3", "--rmax", "0.1"],
    ["audit", "sigma1-axis", "--system", "x.json", "--storage", "builtin:v1_scaled"],
    ["subdiff", "--system", "x.json", "--storage", "builtin:v1", "--point", "1", "2"],
    ["audit", "curve-tangency", "--storage", "builtin:nonexistent", "--p", "7", "--umax", "-3"],
    ["audit", "sigma1-axis", "--storage", "builtin:v1_scaled", "--a", "-5", "--gamma", "-2"],
    ["audit", "sigmap", "--storage", "builtin:sq_norm", "--gamma", "0"],
    ["audit", "sigmap", "--storage", "builtin:sq_norm", "--umax", "-3"],
    ["audit", "curve-monotone", "--storage", "builtin:v2", "--a", "0"],
    ["audit", "curve-tangency", "--a", "-1"],
    ["simulate", "--zoo", "sigma1", "--storage", "builtin:v1_scaled", "--gamma", "-1",
     "--x0", "1", "1", "--input", '{"kind": "constant", "values": [0.1, 0.1]}'],
    ["construct1d", "--zoo", "scalar_linear", "--storage", "builtin:sq_norm", "--gamma", "-1"],
], ids=["smooth-gamma", "smooth-annulus", "audit-system", "subdiff-system",
        "audit-tangency-options", "audit-axis-options", "sigmap-gamma", "sigmap-umax",
        "curve-monotone-a", "curve-tangency-a", "simulate-gamma", "construct1d-gamma"])
def test_invalid_inputs_are_usage_errors(tmp_path, argv):
    """A nonpositive gamma, audit parameter or search range, or an empty annulus, is
    rejected before any work, and a command or audit kind takes only the options it
    reads (audit and subdiff read no system): exit 2, no report."""
    try:
        code = run(argv + ["--out", tmp_path])
    except SystemExit as err:     # argparse rejects an unknown option itself
        code = err.code
    assert code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, option", [
    (["gain", "--zoo", "sigma1", "--gammas", "0.5:2:0"], "--gammas"),
    (["gain", "--zoo", "sigma1", "--gammas", "0.5:inf:0.1"], "--gammas"),
    (["gain", "--zoo", "sigma1", "--gammas", "0.5:2:1e-300"], "--gammas"),
    (["gain", "--zoo", "sigma1", "--gammas", "0.5:2:1e-6"], "--gammas"),
    (["simulate", "--zoo", "sigma1", "--gamma", "1", "--x0", "1", "1",
      "--input", '{"kind": "constant", "values": [0.1]}', "--tspan", "0", "inf"], "--tspan"),
    (["l2gain", "--zoo", "sigma2", "--T", "inf"], "--T"),
    (["construct1d", "--zoo", "scalar_linear", "--gamma", "1", "--grid", "0.01", "2", "inf"],
     "--grid"),
    (["simulate", "--zoo", "sigma1", "--gamma", "1", "--x0", "1", "1",
      "--input", '{"kind": "constant", "value": [0.1]}'], "key 'values'"),
    (["verify", "--zoo", "sigma1", "--gamma", "inf"], "--gamma"),
    (["verify", "--zoo", "sigma1", "--gamma", "nan"], "--gamma"),
    (["verify", "--zoo", "sigma1", "--gamma", "1", "--tol", "inf"], "--tol"),
    (["verify", "--zoo", "sigma1", "--gamma", "1", "--box", "-2", "2", "nan", "2"], "--box"),
    (["smooth", "--zoo", "sigma1", "--gamma", "1", "--gamma-prime", "inf"], "--gamma-prime"),
    (["audit", "curve-monotone", "--storage", "builtin:v2", "--a", "nan"], "--a"),
    (["audit", "curve-monotone", "--storage", "builtin:v2", "--a", "inf"], "--a"),
    (["audit", "curve-tangency", "--a", "nan"], "--a"),
    (["audit", "sigmap", "--storage", "builtin:sq_norm", "--p", "inf"], "--p"),
    (["audit", "sigmap", "--storage", "builtin:sq_norm", "--p", "nan"], "--p"),
    (["subdiff", "--storage", "builtin:v1", "--point", "nan", "0"], "--point"),
    (["simulate", "--zoo", "sigma1", "--storage", "builtin:v1_scaled", "--gamma", "nan",
      "--x0", "1", "1", "--input", '{"kind": "constant", "values": [0.1, 0.1]}'], "--gamma"),
    (["simulate", "--zoo", "sigma1", "--storage", "builtin:v1_scaled", "--gamma", "1",
      "--x0", "1", "1", "--input", '{"kind": "constant", "values": [0.1, 0.1]}',
      "--slack-tol", "nan"], "--slack-tol"),
    (["construct1d", "--zoo", "scalar_linear", "--storage", "builtin:sq_norm", "--gamma", "1",
      "--margin", "-1"], "margin"),
    (["l2gain", "--zoo", "sigma2", "--count", "10", "--amplitude", "-1"], "amplitude"),
    (["l2gain", "--zoo", "sigma2", "--count", "10", "--amplitude", "0"], "amplitude"),
    (["simulate", "--zoo", "scalar_linear", "--storage", "builtin:sq_norm", "--gamma", "1",
      "--x0", "1", "--input", '{"kind": "constant", "values": [0.5]}', "--tspan", "0", "1",
      "--step", "0.6"], "not a whole number of steps of 0.6"),
    (["l2gain", "--zoo", "scalar_linear", "--count", "3", "--T", "1", "--step", "0.4"],
     "not a whole number of steps of 0.4"),
    (["simulate", "--zoo", "scalar_linear", "--storage", "builtin:sq_norm", "--gamma", "1",
      "--x0", "3e8", "--input", '{"kind": "constant", "values": [0.5]}', "--tspan", "0",
      "0.01", "--step", "1e-3"], "|x_i| <= 1e+08"),
    (["simulate", "--zoo", "scalar_linear", "--storage", "builtin:sq_norm", "--gamma", "1",
      "--x0", "0", "--input",
      '{"kind": "piecewise_constant", "switch_times": [0.0005], "values": [[0], [1]]}',
      "--tspan", "0", "0.01", "--step", "1e-3"], "switch time 0.0005"),
    (["simulate", "--zoo", "sigma2", "--storage", "builtin:v2", "--gamma", "1", "--x0", "1",
      "-1", "--input", '{"kind": "sinusoid", "amplitude": [0.5, 0.7], "omega": [1]}'],
     "got 2, 1 and 2"),
    (["construct1d", "--zoo", "scalar_linear", "--storage", "builtin:sq_norm", "--gamma", "0.5"],
     "witness check at x=-2"),
], ids=["zero-step", "infinite-stop", "1e300-gammas", "1.5e6-gammas", "simulate-tspan",
        "l2gain-T", "construct1d-grid", "input-key", "verify-gamma-inf", "verify-gamma-nan",
        "verify-tol", "verify-box", "smooth-gamma-prime", "curve-monotone-a-nan",
        "curve-monotone-a-inf", "curve-tangency-a-nan", "sigmap-p-inf", "sigmap-p-nan",
        "subdiff-point", "simulate-gamma-nan", "simulate-slack-tol", "construct1d-margin",
        "l2gain-amplitude", "l2gain-zero-amplitude", "simulate-partial-step",
        "l2gain-partial-step", "simulate-start-past-bound", "simulate-off-grid-switch",
        "simulate-sinusoid-lengths", "construct1d-hypothesis"])
def test_bad_numeric_arguments_are_usage_errors(tmp_path, capsys, argv, option):
    """A zero step, a non-finite value of any numeric option, a gamma grid of more
    than 10^6 points (a step of 1e-6 on [0.5, 2] makes 1,500,001), a margin at or
    below -1 or an amplitude at or below 0, an integration span that is not a whole
    number of steps, or an input config without a key it needs, is a usage error that
    names the option or key (or the step): exit 2, no report.  So are a start state past
    the blow-up bound, an off-grid switch, unequal sinusoid lists and a V failing the hypothesis."""
    assert run(argv + ["--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and option in err and "trajectory blow-up" not in err
    assert not any(tmp_path.iterdir())


def test_construct_command(tmp_path):
    code = run(["construct1d", "--zoo", "scalar_linear", "--storage",
                "builtin:sq_norm", "--gamma", "1", "--grid", "0.01", "2", "120",
                "--out", tmp_path / "c"])
    assert code == 0
    rows = (tmp_path / "c" / "construct.csv").read_text().splitlines()
    assert rows[0] == "x,p,W"
    contract = json.loads((tmp_path / "c" / "construct.json").read_text())
    assert contract["w_dominates_v"] and contract["max_delta_of_selector"] <= 1e-9
    # a negative margin above -1 still leaves the envelope above V's slope; the default grid
    for extra in (["--margin", "-0.5"], []):
        assert run(["construct1d", "--zoo", "scalar_linear", "--storage", "builtin:sq_norm",
                    "--gamma", "1", *extra, "--out", tmp_path / "m"]) == 0


def test_construct_json_copies_the_library_contract(tmp_path):
    """construct.json holds ConstructedW's outcomes, which cover both half-lines: for a V
    steeper on x < 0 the envelope is read on both, so W dominates V there too."""
    spec = {"kind": "expr", "expr": "x1*x1*(2 - sign(x1))", "n": 1}
    (tmp_path / "v.json").write_text(json.dumps(spec))
    assert run(["construct1d", "--zoo", "scalar_linear", "--storage", tmp_path / "v.json",
                "--gamma", "2", "--out", tmp_path / "c"]) == 0
    built = construct1d.construct_w(systems.zoo_entry("scalar_linear").system, 2.0,
                                    storage.from_config(spec), np.linspace(0.01, 2.0, 200))
    assert built.w_dominates_v and built.w_strictly_increasing
    assert json.loads((tmp_path / "c" / "construct.json").read_text()) == {
        "gamma": 2.0, "w_dominates_v": True, "w_strictly_increasing": True,
        "max_delta_of_selector": built.max_delta}


def test_construct_on_a_general_system_is_a_usage_error(tmp_path, capsys):
    code = run(["construct1d", "--zoo", "sigma3_scalar", "--storage", "builtin:v3_scalar",
                "--gamma", "1", "--out", tmp_path])
    assert code == 2
    assert "input-affine" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_construct_on_a_power_affine_system_is_a_usage_error(tmp_path, capsys):
    """Delta(p) is the quadratic of phi(u) = u only: p = 1.5 gets no verdict."""
    sys_file = tmp_path / "sys.json"
    sys_file.write_text(json.dumps({"kind": "power_affine", "n": 1, "m": 1, "g0": ["-x1"],
                                    "g": [["1"]], "p": 1.5, "phi": "signed_pow"}))
    code = run(["construct1d", "--system", sys_file, "--storage", "builtin:sq_norm",
                "--gamma", "10", "--out", tmp_path / "c"])
    assert code == 2
    assert "input-affine" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_smooth_on_a_general_system_is_a_usage_error(tmp_path, capsys):
    code = run(["smooth", "--zoo", "sigma3_scalar", "--storage", "builtin:v3_scalar",
                "--gamma", "1", "--gamma-prime", "1.1", "--out", tmp_path])
    assert code == 2
    assert "smoothing applies to (power-)affine systems" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("zoo, name", [("sigma1", "v1_scaled"), ("sigma2", "v2")])
def test_smooth_grid_csv_matches_pointwise_reference(tmp_path, zoo, name):
    """smooth_grid.csv (batched dump) agrees with W.value / W.gradient point by point."""
    code = run(["smooth", "--zoo", zoo, "--storage", f"builtin:{name}", "--gamma", "1",
                "--gamma-prime", "1.1", "--rmin", "0.1", "--rmax", "0.3", "--out", tmp_path])
    assert code == 0
    with (tmp_path / "smooth_grid.csv").open(newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["x1", "x2", "V", "W", "gradW1", "gradW2"]
        rows = np.array([[float(v) for v in row] for row in reader])
    assert rows.shape[0] > 100
    V = storage.builtin(name)
    W = smoothing.smooth_witness(systems.zoo_entry(zoo).system, V, 1.0, 1.1,
                                 r_min=0.1, r_max=0.3).W
    for x1, x2, v, w, g1, g2 in rows:
        x = np.array([x1, x2])
        assert v == V.value(x)
        ref_w, ref_g = W.value(x), W.gradient(x)
        assert abs(w - ref_w) <= 1e-12 * (1.0 + abs(ref_w))
        assert np.all(np.abs([g1, g2] - ref_g) <= 1e-9 * (1.0 + np.abs(ref_g)))


def test_l2gain_command(tmp_path):
    code = run(["l2gain", "--zoo", "scalar_linear", "--count", "5", "--T", "2",
                "--step", "0.002", "--out", tmp_path / "l2"])
    assert code == 0
    payload = json.loads((tmp_path / "l2" / "l2gain.json").read_text())
    assert payload["lower_bound"] <= 1.0 + 1e-3 and payload["seed"] == 0


def test_zoo_list_and_deterministic_run(tmp_path, capsys):
    assert run(["zoo", "list"]) == 0
    listing = capsys.readouterr().out
    assert "sigma1" in listing and "sigma3_scalar" in listing

    code = run(["zoo", "run", "sigma1", "--out", tmp_path / "z1"])
    assert code == 0
    code = run(["zoo", "run", "sigma1", "--out", tmp_path / "z2"])
    assert code == 0
    a = (tmp_path / "z1" / "zoo.json").read_bytes()
    b = (tmp_path / "z2" / "zoo.json").read_bytes()
    assert a == b


def test_zoo_entries_declare_their_checks(tmp_path):
    """zoo run makes the checks an entry declares once its claim passes, and only those:
    sigma3_scalar declares the piece and straddle audits, every other entry none."""
    assert systems.zoo_entry("sigma3_scalar").checks == ("pieces", "straddle")
    assert run(["zoo", "run", "--all", "--out", tmp_path]) == 0
    results = json.loads((tmp_path / "zoo.json").read_text())["results"]
    assert list(results["sigma3_scalar"]) == ["claim", "pieces", "straddle"]
    assert results["sigma3_scalar"]["straddle"]["kind"] == "obstruction_verified"
    assert all(list(r) == ["claim"] for name, r in results.items() if name != "sigma3_scalar")
    # a declared check runs for any entry; sq_norm is no straddle witness, so the run fails
    entry = dataclasses.replace(systems.zoo_entry("scalar_linear"), checks=("straddle",))
    ok, summary = cli._run_zoo_entry(entry)
    assert not ok and list(summary) == ["claim", "straddle"]


@dataclasses.dataclass
class _Result:
    value: float
    flags: tuple
    hidden: object = dataclasses.field(default=None, metadata={"report": False})


def test_report_encoder(tmp_path):
    """One encoder writes every report: a dataclass as its reported fields, numpy values
    as Python values, containers recursively, NaN as null and +-inf as Python's json."""
    report = {"rows": [({"t": (np.float64(1.5), np.bool_(True))},), np.array(2.0),
                       np.arange(4.0).reshape(2, 2), np.int64(3)],
              "result": _Result(math.nan, (math.inf, -math.inf), hidden=np.ones(3))}
    plain = cli._plain(report)
    assert plain == {"rows": [[{"t": [1.5, True]}], 2.0, [[0.0, 1.0], [2.0, 3.0]], 3],
                     "result": {"value": None, "flags": [math.inf, -math.inf]}}
    t = plain["rows"][0][0]["t"]
    assert (type(t[0]), type(t[1]), type(plain["rows"][3])) == (float, bool, int)
    cli._write_json(tmp_path / "r.json", report)
    text = (tmp_path / "r.json").read_text()
    assert '"value": null' in text and "Infinity" in text and "-Infinity" in text
    assert json.loads(text) == plain


# ---------------------------------------------------------------------------
# The CSV dumps are byte for byte what csv.writer writes
# ---------------------------------------------------------------------------

def _csv_writer_bytes(path, header, rows) -> bytes:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


_SPECIALS = [0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"),
             5e-324, -2.5e-320, 2.2250738585072014e-308, 1e300, -1e-300, 1e-300, -1e300]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.sampled_from([0, 1, 2, 7, 40]), k=st.integers(1, 4),
       pool=st.lists(st.one_of(st.sampled_from(_SPECIALS), st.floats(width=64)),
                     min_size=1, max_size=6),
       with_flags=st.booleans())
def test_write_csv_matches_csv_writer(tmp_path_factory, data, rows, k, pool, with_flags):
    """Repeated values from a small pool, with signed zeros, nan, inf and subnormals."""
    values = data.draw(st.lists(st.lists(st.sampled_from(pool), min_size=k, max_size=k),
                                min_size=rows, max_size=rows))
    flags = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    header = [f"c{j}" for j in range(k)] + (["pass"] if with_flags else [])
    table = np.array(values, dtype=float).reshape(rows, k)
    out = tmp_path_factory.mktemp("csv")
    cli._write_csv(out / "a.csv", header, table,
                   flags=np.array(flags, dtype=bool) if with_flags else None)
    ref_rows = [row + [f] for row, f in zip(values, flags)] if with_flags else values
    assert (out / "a.csv").read_bytes() == _csv_writer_bytes(out / "b.csv", header, ref_rows)


def test_sweep_csv_is_csv_writer_bytes(tmp_path):
    """sigma2 / v2 at ppd 40: the grid adds the x2 = 0 kink rows."""
    assert run(["verify", "--zoo", "sigma2", "--storage", "builtin:v2", "--gamma", "1",
                "--ppd", "40", "--out", tmp_path / "v"]) == 0
    region = hji.Region(box=((-2.0, 2.0),) * 2, points_per_dim=40, exclude_radius=1e-9)
    report = hji.check_witness(systems.zoo_entry("sigma2").system, storage.builtin("v2"),
                               1.0, region)
    assert np.any(report.grid[:, 1] == 0.0)
    rows = [[*x, r, *u, r <= report.tolerance] for x, r, u in zip(
        report.grid.tolist(), report.point_residuals.tolist(), report.point_u.tolist())]
    header = ["x1", "x2", "residual", "worst_u1", "worst_u2", "pass"]
    assert (tmp_path / "v" / "sweep.csv").read_bytes() == \
        _csv_writer_bytes(tmp_path / "ref.csv", header, rows)


def test_trajectory_csv_is_csv_writer_bytes(tmp_path):
    signal = '{"kind":"sinusoid","amplitude":[1,0.5],"omega":[3,7],"phase":[0.1,0.2]}'
    assert run(["simulate", "--zoo", "sigma2", "--storage", "builtin:v2", "--gamma", "1",
                "--x0", "0.3", "-0.2", "--input", signal, "--tspan", "0", "0.5",
                "--step", "0.01", "--out", tmp_path / "s"]) == 0
    traj = trajectories.integrate(systems.zoo_entry("sigma2").system, [0.3, -0.2],
                                  trajectories.signal_from_config(json.loads(signal)),
                                  (0.0, 0.5), 0.01)
    rows = trajectories.trajectory_rows(traj).tolist()
    assert (tmp_path / "s" / "trajectory.csv").read_bytes() == \
        _csv_writer_bytes(tmp_path / "ref.csv", ["t", "x1", "x2", "u1", "u2"], rows)


def test_construct_csv_is_csv_writer_bytes(tmp_path):
    assert run(["construct1d", "--zoo", "scalar_linear", "--storage", "builtin:sq_norm",
                "--gamma", "1", "--grid", "0.01", "2", "120", "--out", tmp_path / "c"]) == 0
    built = construct1d.construct_w(systems.zoo_entry("scalar_linear").system, 1.0,
                                    storage.builtin("sq_norm"), np.linspace(0.01, 2.0, 120),
                                    margin=0.1)
    rows = np.column_stack([built.grid, built.p_values, built.w_values]).tolist()
    assert (tmp_path / "c" / "construct.csv").read_bytes() == \
        _csv_writer_bytes(tmp_path / "ref.csv", ["x", "p", "W"], rows)


def test_smooth_grid_csv_is_csv_writer_bytes(tmp_path):
    """smooth_grid.csv holds the grid path's rows, which agree with the windowed sums of
    ``cert.W``; the dump axis, cut to |c| <= r_max, loses no annulus point."""
    assert run(["smooth", "--zoo", "sigma2", "--storage", "builtin:v2", "--gamma", "1",
                "--gamma-prime", "1.1", "--rmin", "0.1", "--rmax", "0.3",
                "--out", tmp_path / "g"]) == 0
    V = storage.builtin("v2")
    cert = smoothing.smooth_witness(systems.zoo_entry("sigma2").system, V, 1.0, 1.1,
                                    r_min=0.1, r_max=0.3)
    P, W, G = cert.dump(0.1, 0.3)
    rows = np.column_stack([P, V.value_batch(P), W, G]).tolist()
    header = ["x1", "x2", "V", "W", "gradW1", "gradW2"]
    assert (tmp_path / "g" / "smooth_grid.csv").read_bytes() == \
        _csv_writer_bytes(tmp_path / "ref.csv", header, rows)
    with (tmp_path / "g" / "smooth_grid.csv").open(newline="") as fh:
        dumped = np.array([[float(v) for v in row] for row in list(csv.reader(fh))[1:]])
    ref_w, ref_g = cert.W.value_batch(dumped[:, :2]), cert.W.subdiff_batch(dumped[:, :2])[0]
    assert np.all(np.abs(dumped[:, 3] - ref_w) <= 1e-12 * (1.0 + np.abs(ref_w)))
    assert np.all(np.abs(dumped[:, 4:] - ref_g) <= 1e-9 * (1.0 + np.abs(ref_g)))
    for r_min, r_max in ((0.1, 0.3), (0.05, 2.0)):
        uncut = smoothing.mirrored_geometric_axis(r_min / 4, 1.25, r_max)
        for n in (1, 2, 3):
            assert np.array_equal(
                hji.annulus_grid([smoothing.dump_axis(r_min, r_max)] * n, r_min, r_max)[1],
                hji.annulus_grid([uncut] * n, r_min, r_max)[1]), (r_min, r_max, n)
