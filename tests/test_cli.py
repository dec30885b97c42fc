import csv
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjikit import cli, construct1d, hji, smoothing, storage, systems, trajectories


def run(args):
    return cli.main([str(a) for a in args])


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
    assert hji.point_residual(sysm, V, 1.0, [1.0])[0] == -1.0
    X = region.grid()
    assert hji.needed_gains(sysm, *V.subdiff_batch(X), X, hji.DEFAULT_TOL_EXACT).max() == 0.0
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


def test_malformed_expression_reports_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad", "kind": "affine", "n": 1, "m": 1,
        "g0": ["x1 +"], "g": [["1"]]}))
    code = run(["verify", "--system", bad, "--storage", "builtin:sq_norm",
                "--gamma", "1", "--out", tmp_path / "o"])
    assert code == 2


def test_missing_inputs_are_usage_errors(tmp_path):
    assert run(["verify", "--gamma", "1", "--out", tmp_path / "x"]) == 2
    assert run(["zoo", "run", "--out", tmp_path / "y"]) == 2


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
], ids=["smooth-gamma", "smooth-annulus", "audit-system", "subdiff-system",
        "audit-tangency-options", "audit-axis-options"])
def test_invalid_inputs_are_usage_errors(tmp_path, argv):
    """A nonpositive gamma or an empty annulus is rejected before any work, and a
    command or audit kind takes only the options it reads (audit and subdiff read no
    system): exit 2, no report."""
    try:
        code = run(argv + ["--out", tmp_path])
    except SystemExit as err:     # argparse rejects an unknown option itself
        code = err.code
    assert code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["zoo", "run", "scalar_linear"],
                                  ["subdiff", "--storage", "builtin:v1", "--point", "1", "2"]])
def test_bad_seed_environment_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("HJI_SEED", "abc")
    with pytest.raises(SystemExit) as err:
        run([*argv, "--out", tmp_path])
    assert err.value.code == 2
    assert "--seed" in capsys.readouterr().err
    # an explicit --seed overrides the environment
    assert run([*argv, "--out", tmp_path, "--seed", "5"]) == 0


def test_seed_environment_is_recorded(tmp_path, monkeypatch):
    monkeypatch.setenv("HJI_SEED", "7")
    assert run(["zoo", "run", "scalar_linear", "--out", tmp_path]) == 0
    assert json.loads((tmp_path / "zoo.json").read_text())["seed"] == 7


def test_seed_environment_is_read_on_every_call(tmp_path, monkeypatch):
    """The parser is shared between calls; the environment is read when parsing."""
    for seed in ("9", "4"):
        monkeypatch.setenv("HJI_SEED", seed)
        assert run(["zoo", "run", "scalar_linear", "--out", tmp_path]) == 0
        assert json.loads((tmp_path / "zoo.json").read_text())["seed"] == int(seed)
    monkeypatch.delenv("HJI_SEED")
    assert run(["zoo", "run", "scalar_linear", "--out", tmp_path]) == 0
    assert json.loads((tmp_path / "zoo.json").read_text())["seed"] == 0


def test_construct_command(tmp_path):
    code = run(["construct1d", "--zoo", "scalar_linear", "--storage",
                "builtin:sq_norm", "--gamma", "1", "--grid", "0.01", "2", "120",
                "--out", tmp_path / "c"])
    assert code == 0
    rows = (tmp_path / "c" / "construct.csv").read_text().splitlines()
    assert rows[0] == "x,p,W"
    contract = json.loads((tmp_path / "c" / "construct.json").read_text())
    assert contract["w_dominates_v"] and contract["max_delta_of_selector"] <= 1e-9


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
    assert run(["smooth", "--zoo", "sigma2", "--storage", "builtin:v2", "--gamma", "1",
                "--gamma-prime", "1.1", "--rmin", "0.1", "--rmax", "0.3",
                "--out", tmp_path / "g"]) == 0
    V = storage.builtin("v2")
    cert = smoothing.smooth_witness(systems.zoo_entry("sigma2").system, V, 1.0, 1.1,
                                    r_min=0.1, r_max=0.3)
    axis = smoothing.mirrored_geometric_axis(0.1 / 4, 1.25, 0.3)
    P = smoothing._annulus_grid(axis, 2, 0.1, 0.3)[2]
    rows = np.column_stack([P, V.value_batch(P), *cert.evaluate(P)]).tolist()
    header = ["x1", "x2", "V", "W", "gradW1", "gradW2"]
    assert (tmp_path / "g" / "smooth_grid.csv").read_bytes() == \
        _csv_writer_bytes(tmp_path / "ref.csv", header, rows)
