"""Tests of the benchmark itself, at tiny operation sizes.

    python3 -m pytest bench/test_bench.py -q
"""
import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_hjikit()

import tracing  # noqa: E402
import workloads  # noqa: E402

# the end-to-end metrics each workload prints, with their units
PRINTED = {
    "sweep": {"wall_s": "s", "verify_s": "s", "gain_s": "s", "zoo_s": "s",
              "points_per_s": "1/s"},
    "trajectories": {"wall_s": "s", "l2gain_s": "s", "simulate_s": "s",
                     "ensemble_audit_s": "s", "rk4_steps_per_s": "1/s"},
    "construct": {"wall_s": "s", "smooth_s": "s", "construct1d_s": "s",
                  "cert_points_per_s": "1/s"},
}
COMMON = {"setup_s": "s", "setup_raw_s": "s", "wall_raw_s": "s", "probe_ms": "ms",
          "peak_rss_mb": "MB", "op_fail_ratio": "ratio"}


def _run(*argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main([*argv, "--seconds", "0.1", "--tiny"]) == 0
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload):
    lines, result = _run("--workload", workload, "--seed", "7", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.declared_metrics()[0]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in {**PRINTED[workload], **COMMON}.items():
        assert any(line.split()[:3][0::2] == [name, unit] for line in lines), name


def test_traced_runs_give_self_time_for_every_layer():
    busy = set()
    for workload in workloads.WORKLOADS:
        lines, result = _run("--workload", workload, "--seed", "7", "--trace", "1")
        assert result["correct"]
        assert list(result["metrics"]) == list(run.declared_metrics()[1])
        assert any(line.split()[0] == "trace.overhead_pct" for line in lines[:-1]
                   if line.strip())
        report = json.loads((run.ROOT / ".bench_out" /
                             f"result-{workload}-seed7-trace1.json").read_text())
        for layer in tracing.LAYERS:
            assert f"{layer}.self_s" in report["layers"]
            if report["layers"][f"{layer}.self_s"]["value"] > 0:
                busy.add(layer)
    assert busy == set(tracing.LAYERS)


def test_tracing_is_removed_after_a_traced_run():
    from hjikit import hji, smoothing, storage
    originals = (hji.check_witness, smoothing.check_witness, storage.StorageCandidate.subdiff)
    tracer = tracing.Tracer()
    tracer.install()
    assert smoothing.check_witness is hji.check_witness is not originals[0]
    tracer.remove()
    assert (hji.check_witness, smoothing.check_witness,
            storage.StorageCandidate.subdiff) == originals


def test_a_wrong_reference_counts_as_a_failed_operation(tmp_path):
    ops = workloads.build("sweep", 7, tiny=True)
    # the minimal gain of sigma1 is 1.00; a reference of 1.01 must be refused
    ops.append(workloads._gain("sigma1", "v1_scaled", 9, 1.01, 7))
    runner = run.Runner(ops, tmp_path)
    runner.run_pass()
    assert runner.attempted == len(ops)
    assert [label for label, _ in runner.failures] == [ops[-1].label]
    assert len(runner.failures) / runner.attempted > 0


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
