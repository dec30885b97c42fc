"""``python -m hjikit.cli`` in fresh interpreters (test_cli.py calls ``cli.main``): reports
that keep their bytes across interpreters, paths compiled on their first call, and one
run per exit code (0, 1, 2, 3) through the module's entry point; and what a fresh
``import hjikit, hjikit.cli`` loads and defines."""
import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import check_reports

_SRC = Path(__file__).resolve().parents[1] / "src"
_FILES = {"esc.json": {"kind": "general", "n": 1, "m": 1, "F": ["x1*x1 + u1"]}}


def _gain_measured(proc, out):
    report = json.loads((out / "l2gain.json").read_text())
    return report["lower_bound"] > 0 and report["trivial"] is False


# id: (argv, $TMP being _FILES' directory; exit code; the reports that a second
# interpreter writes byte for byte; check(proc, out))
CASES = {
    "smooth": ("smooth --zoo scalar_linear --storage builtin:sq_norm --gamma 1 --gamma-prime 1.1"
               " --rmin 0.1 --rmax 0.3", 0, ("smooth.json", "smooth_grid.csv"), None),
    # its grid dump is contracted by BLAS, with one thread in the first run and the default
    # count in the second (_RUN_ENV)
    "smooth-sigma1": ("smooth --zoo sigma1 --storage builtin:v1_scaled --gamma 1 --gamma-prime 1.1"
                      " --rmin 0.1 --rmax 0.3", 0, ("smooth.json", "smooth_grid.csv"), None),
    # one trajectory steps in Python floats (cbrt, pow by numpy); a header, 501 grid times
    "simulate": ("simulate --zoo sigma2 --storage builtin:v2 --gamma 1 --x0 1 -1 --input"
                 """ '{"kind": "sinusoid", "amplitude": [0.5, 0.7], "omega": [1, 3]}'"""
                 " --tspan 0 0.5 --step 1e-3", 0, ("dissipation.json", "trajectory.csv"),
                 lambda proc, out: (out / "trajectory.csv").read_bytes().count(b"\n") == 502),
    # a random ensemble sampled by one gather; sigma2's state leaves the origin: a gain
    "l2gain-sigma2": ("l2gain --zoo sigma2 --count 100 --T 0.2 --step 1e-3", 0, ("l2gain.json",),
                      _gain_measured),
    # sigma3_scalar's input-only branch: the input pass evaluates it once, before the RK4 loop
    "l2gain-sigma3_scalar": ("l2gain --zoo sigma3_scalar --count 100 --T 0.2 --step 1e-3", 0,
                             (), _gain_measured),
    # a finite escape in the one-trajectory float loop: first time past the bound, max |x_i|
    "escape": ("simulate --system $TMP/esc.json --storage builtin:sq_norm --gamma 1 --x0 1"
               """ --input '{"kind": "constant", "values": [0]}' --tspan 0 2 --step 1e-3""", 2, (),
               lambda proc, out: "trajectory blow-up at t=1.001 (|x| = 1.010e+14)" in proc.stderr),
    # an audit's violation is the first failing point in scan order, not the worst
    "straddle": ("audit scalar-straddle --storage builtin:sq_norm", 1, (), lambda proc, out:
                 json.loads((out / "audit.json").read_text())["witness_point"] == [-0.48, 0.0]),
    # a smoothing run out of refinements; its line names the bound that failed
    "smooth-sigma2": ("smooth --zoo sigma2 --gamma 1 --gamma-prime 1.01", 3, (),
                      lambda proc, out: "gain residual" in proc.stdout),
    # --seed alone sets the seed: HJI_SEED=7 in the environment (_RUN_ENV) is not read
    "seed-environment": ("zoo run scalar_linear", 0, (), lambda proc, out:
                         json.loads((out / "zoo.json").read_text())["seed"] == 0),
}


# a case's environment overrides, one per run (None unsets the variable)
_RUN_ENV = {"smooth-sigma1": ({"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": None}),
            "seed-environment": ({"HJI_SEED": "7"},)}


@pytest.mark.parametrize("case", CASES)
def test_cli_process(tmp_path, case):
    argv, code, same, check = CASES[case]
    for name, value in _FILES.items():
        (tmp_path / name).write_text(json.dumps(value))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(_SRC), os.environ.get("PYTHONPATH"))))}
    outs = [tmp_path / f"out{k}" for k in range(2 if same else 1)]
    for out, override in zip(outs, _RUN_ENV.get(case, ({}, {}))):
        args = [a.replace("$TMP", str(tmp_path)) for a in shlex.split(argv)]
        run_env = {k: v for k, v in {**env, **override}.items() if v is not None}
        proc = subprocess.run([sys.executable, "-m", "hjikit.cli", *args, "--out", str(out)],
                              env=run_env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert check is None or check(proc, out), proc
        check_reports(out)
    assert [(outs[0] / n).read_bytes() for n in same] == [(outs[-1] / n).read_bytes() for n in same]


# the scalar references and proof bookkeeping that live in tests/reference.py, by the module
# that once defined them; `hjikit` itself exported the public ones
_MOVED = {"hji": ("supply", "affine_residual", "power_residual", "_power_sup",
                  "general_residual", "point_residual"),
          "smoothing": ("theta", "default_alpha", "check_case1_p2", "upsilons", "_CASE1_EPS"),
          "expr": ("evaluate", "_EVAL", "_unit", "EvalError"),
          "storage": ("verify_subgradient", "_directions"),
          "construct1d": ("f_membership",), "audits": ("recheck_violation",)}
# the names through which a module reads the environment
_ENVIRON = {"environ", "environb", "getenv", "getenvb"}
_PROBE = """
import json, sys
import hjikit, hjikit.cli
moved = set(json.loads(sys.argv[1]))
print(json.dumps({"modules": sorted(sys.modules), "defined": sorted(
    f"{name}.{attr}" for name, mod in sys.modules.items() if name.split(".")[0] == "hjikit"
    for attr in moved & set(vars(mod))), "vertices": hasattr(hjikit.SubdiffSet,
                                                             "finite_vertices")}))
"""


def test_import_loads_no_test_code(tmp_path):
    """A fresh ``import hjikit, hjikit.cli`` loads no test module, hypothesis or scipy, and
    neither the package nor any of its modules defines a moved name.  No module of the
    package reads the environment: the command line is the one source of options."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(_SRC), os.environ.get("PYTHONPATH"))))}
    names = sorted({n for group in _MOVED.values() for n in group})
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(names)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert not {m.split(".")[0] for m in got["modules"]} & {"reference", "tests", "hypothesis",
                                                            "scipy", "conftest"}
    assert {f"hjikit.{m}" for m in _MOVED} <= set(got["modules"])
    assert got["defined"] == [] and got["vertices"] is False
    reads = [f"{path.name}:{node.lineno}" for path in sorted((_SRC / "hjikit").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             for name in (getattr(node, k, None) for k in ("attr", "id", "name"))
             if name in _ENVIRON]
    assert reads == []
