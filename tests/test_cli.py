import csv
import json

import numpy as np
import pytest

from hjikit import cli, smoothing, storage, systems


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
    # expression candidates have no oracle: subdiff query is a usage error
    code = run(["subdiff", "--storage", sto_file, "--point", "1",
                "--out", tmp_path / "sd2"])
    assert code == 2
    # power-affine configs load
    pw = tmp_path / "pw.json"
    pw.write_text(json.dumps({
        "name": "p", "kind": "power_affine", "n": 1, "m": 1,
        "g0": ["-x1"], "g": [["1"]], "p": 3, "phi": "abs_pow"}))
    code = run(["verify", "--system", pw, "--storage", "builtin:sq_norm",
                "--gamma", "50", "--box", "-1", "1", "--ppd", "11",
                "--out", tmp_path / "pv"])
    assert code in (0, 1)


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


def test_construct_command(tmp_path):
    code = run(["construct1d", "--zoo", "scalar_linear", "--storage",
                "builtin:sq_norm", "--gamma", "1", "--grid", "0.01", "2", "120",
                "--out", tmp_path / "c"])
    assert code == 0
    rows = (tmp_path / "c" / "construct.csv").read_text().splitlines()
    assert rows[0] == "x,p,W"
    contract = json.loads((tmp_path / "c" / "construct.json").read_text())
    assert contract["w_dominates_v"] and contract["max_delta_of_selector"] <= 1e-9


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
