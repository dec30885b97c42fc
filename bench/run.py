"""hjikit benchmark: one workload, timed end to end (untraced) or per layer (traced).

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ``src/``.
Set-up (importing hjikit and building the zoo) is timed in fresh interpreters.
Then the workload's operations run in one process, one after another, as a
closed loop with a single client: a warm-up pass, then passes until
``--seconds`` is spent.  Every operation's outcome is checked against its
reference verdict.  With ``--trace 1`` untraced passes are followed by traced
ones, which report per-layer metrics and the tracing overhead.

The untraced times are calibrated.  On a shared host the speed of the cores
drifts by tens of percent within minutes, so raw seconds of the same code
differ more between runs than any change worth detecting.  A fixed speed probe
(numpy and interpreter work that never calls hjikit) runs before every
operation and after the last; each operation's seconds are scaled by
``PROBE_REF_S`` over the mean of the probes on either side of it, and set-up
seconds by ``PROBE_REF_S`` over the median probe around the set-up repeats.
A calibrated second is a second on a machine where the probe takes
``PROBE_REF_S``; the raw seconds are printed too, under ``*_raw_s`` names.

Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
PROBE_REF_S = 0.02          # the probe's time at the reference speed
PROBE_LOOPS = 1100
PROBE_CHUNKS = 4
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import hjikit
hjikit.zoo()
print(time.perf_counter() - t0)
"""


def declared_metrics() -> tuple:
    """The end-to-end and per-layer metric names and units that BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _import_hjikit():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "hjikit" / "__init__.py").is_file():
        raise SystemExit(f"error: no hjikit sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import hjikit
    if Path(hjikit.__file__).resolve().parent != SRC / "hjikit":
        raise SystemExit(f"error: imported hjikit from {hjikit.__file__}, not {SRC}")
    return hjikit


# the probe's vectorised half works on arrays shaped like one chunk of
# MollifiedFunction.evaluate: 4096 query points by 8 nodes per axis
_Q, _M = 4096, 8
_PROBE_Q = np.linspace(-1.0, 1.0, _Q)
_PROBE_Y = np.linspace(-1.2, 1.2, _Q * _M).reshape(_Q, _M)
_PROBE_V = np.linspace(0.0, 1.0, _Q * _M * _M).reshape(_Q, _M, _M)


def speed_probe() -> float:
    """Seconds of a fixed piece of work of the kinds hjikit does.

    One half is interpreter loops around numpy calls on small arrays (the
    region sweep, the RK4 loop), the other vectorised passes over chunk-sized
    arrays (the mollifier).  It never calls hjikit, so no change to the
    package moves it; only the speed the machine gives this process does.
    """
    a = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(PROBE_LOOPS):
        b = np.where(a > 0.5, a * 1.5, -a) + i
        acc += float(np.abs(b).max())
        acc += sum(k * 0.5 for k in range(40))
    for _ in range(PROBE_CHUNKS):
        s = (_PROBE_Q[:, None] - _PROBE_Y) / 0.3
        w = np.where(np.abs(s) < 1.0, 1.0 - s * s, 0.0)
        ww = w[:, :, None] * w[:, None, :]
        mean = np.sum(ww * _PROBE_V, axis=(1, 2)) / np.sum(ww, axis=(1, 2))
        np.searchsorted(_PROBE_Q, mean)
    return time.perf_counter() - t0


def time_setup(repeats: int) -> tuple:
    """Raw and calibrated seconds to import hjikit and build the zoo.

    Each repeat runs in a fresh interpreter; the speed probe runs before the
    first and after each, and the median probe calibrates them all, because
    the start of an interpreter tracks the probe less closely than the
    operations do.  The benchmark's own import has already compiled the byte
    code, which users pay only once.
    """
    code = SETUP_CODE.format(src=str(SRC))
    raw, probes = [], [speed_probe()]
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=120)
        raw.append(float(done.stdout.strip().splitlines()[-1]))
        probes.append(speed_probe())
    scale = PROBE_REF_S / statistics.median(probes)
    return raw, [t * scale for t in raw]


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {"commit": _commit(), "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": {v: os.environ.get(v) for v in thread_vars}}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------

class Runner:
    """Runs the operations of one workload and checks each outcome."""

    def __init__(self, ops: list, scratch: Path):
        self.ops = ops
        self.scratch = scratch
        self.attempted = 0
        self.failures: list = []
        self.warnings = 0

    def run_pass(self, tracer=None, probe: bool = False) -> list:
        """One pass over the operations: an (op, seconds, work, scale) row for each.

        With ``probe``, the speed probe runs before every operation and after
        the last, and ``scale`` turns the operation's seconds into calibrated
        seconds; otherwise it is 1.
        """
        from hjikit import cli
        from workloads import Outcome
        rows = []
        probes = []
        for i, op in enumerate(self.ops):
            if probe:
                probes.append(speed_probe())
            out = self.scratch / f"op{i:02d}"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            if tracer is not None:
                tracer.op_id = i
            self.attempted += 1
            work = 0.0
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    if op.argv is not None:
                        code, result = cli.main(op.argv + ["--out", str(out)]), None
                    else:
                        code, result = None, op.call()
                seconds = time.perf_counter() - t0
                self.warnings += len(caught)
                outcome = Outcome(code, result, out)
                problems = op.check(outcome)
                if not problems:
                    work = op.work(outcome)
            except Exception:     # an operation that crashes is a failed operation
                seconds = time.perf_counter() - t0
                problems = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
            if problems:
                self.failures.append((op.label, problems))
            rows.append((op, seconds, work, 1.0))
        if probe:
            probes.append(speed_probe())
            rows = [(op, seconds, work, 2 * PROBE_REF_S / (probes[i] + probes[i + 1]))
                    for i, (op, seconds, work, _) in enumerate(rows)]
        return rows

    def run_for(self, seconds: float, min_passes: int, tracer=None,
                probe: bool = False) -> list:
        """Passes until the next one would overrun ``seconds``; at least ``min_passes``."""
        passes = []
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(self.run_pass(tracer, probe))
            last = time.perf_counter() - t0
            if len(passes) >= min_passes and time.perf_counter() + last > t_start + seconds:
                return passes


def pass_metrics(workload: str, passes: list) -> dict:
    """End-to-end metrics of the timed passes: name -> (value, per-pass samples, unit).

    A time is the sum over operations of each operation's median over the
    passes, which is steadier than the median of pass totals when single
    operations are disturbed by other load on the machine.  Times and rates
    are in calibrated seconds; ``wall_raw_s`` is the same sum in raw seconds.
    """
    from workloads import WORK_RATES
    n_ops = len(passes[0])
    ops = [row[0] for row in passes[0]]
    secs = [[seconds * scale for _, seconds, _, scale in rows] for rows in passes]
    med = [statistics.median(s[i] for s in secs) for i in range(n_ops)]
    work = [statistics.median(rows[i][2] for rows in passes) for i in range(n_ops)]
    raw = [statistics.median(rows[i][1] for rows in passes) for i in range(n_ops)]
    out = {"wall_s": (sum(med), [sum(s) for s in secs], "s"),
           "wall_raw_s": (sum(raw), [sum(row[1] for row in rows) for rows in passes], "s")}
    for command in dict.fromkeys(op.command for op in ops):
        idx = [i for i, op in enumerate(ops) if op.command == command]
        out[f"{command}_s"] = (sum(med[i] for i in idx) / len(idx),
                               [sum(s[i] for i in idx) / len(idx) for s in secs], "s")
    commands, _, rate_name = WORK_RATES[workload]
    idx = [i for i, op in enumerate(ops) if op.command in commands]
    rate = (sum(work[i] for i in idx) / sum(med[i] for i in idx),
            [sum(rows[i][2] for i in idx) / sum(s[i] for i in idx)
             for rows, s in zip(passes, secs)],
            "1/s")
    out["work_per_s"] = rate
    out[rate_name] = rate
    scales = [row[3] for rows in passes for row in rows]
    out["probe_ms"] = (1e3 * PROBE_REF_S / statistics.median(scales),
                       [1e3 * PROBE_REF_S / x for x in scales], "ms")
    return out


def _line(name: str, value: float, samples: list, unit: str) -> str:
    if len(samples) > 1:
        q = statistics.quantiles(samples, n=4)
        spread = f"{len(samples)} samples; quartiles {q[0]:.6g} .. {q[2]:.6g}"
    else:
        spread = "1 sample"
    return f"{name:24s} {value:14.6g} {unit:6s} ({spread})"


def _pick(measured: dict, declared: dict) -> dict:
    """The declared metrics of ``measured`` (name -> (value, unit)); units must agree."""
    out = {}
    for name, unit in declared.items():
        value, got = measured[name]
        if got != unit:
            raise ValueError(f"{name} is measured in {got}, BENCHMARK.json says {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny operation sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    # the closed loop has one client and adds no threads: the region-sweep
    # thread pool stays off whatever the environment says
    os.environ.pop("HJI_JOBS", None)
    _import_hjikit()
    import workloads
    from tracing import Tracer, layer_metrics
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    end_to_end, per_layer = declared_metrics()
    env = environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    work_dir = ROOT / ".bench_out"
    scratch = work_dir / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    ops = workloads.build(args.workload, args.seed, args.tiny)
    runner = Runner(ops, scratch)
    report = {"environment": env, "workload": args.workload, "trace": args.trace,
              "work_unit": workloads.WORK_RATES[args.workload][1],
              "operations": [op.label for op in ops]}
    try:
        if args.trace == 0:
            setup_raw, setup = time_setup(2 if args.tiny else SETUP_REPEATS)
            runner.run_pass(probe=True)                       # warm-up
            passes = runner.run_for(args.seconds, min_passes=3, probe=True)
            samples = pass_metrics(args.workload, passes)
            samples["setup_s"] = (statistics.median(setup), setup, "s")
            samples["setup_raw_s"] = (statistics.median(setup_raw), setup_raw, "s")
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            samples["peak_rss_mb"] = (rss, [rss], "MB")
            ratio = len(runner.failures) / runner.attempted
            samples["op_fail_ratio"] = (ratio, [ratio], "ratio")
            print(f"end-to-end ({args.workload}, seed {args.seed}, {len(passes)} timed "
                  f"passes, work unit: {report['work_unit']}):")
            for name, (value, values, unit) in samples.items():
                print("  " + _line(name, value, values, unit))
            metrics = _pick({k: (v, u) for k, (v, _, u) in samples.items()}, end_to_end)
            report["samples"] = {k: {"value": v, "samples": s, "unit": u}
                                 for k, (v, s, u) in samples.items()}
            report["op_seconds"] = [[rows[i][1] for rows in passes] for i in range(len(ops))]
            report["op_scales"] = [[rows[i][3] for rows in passes] for i in range(len(ops))]
        else:
            runner.run_pass()                                 # warm-up
            plain = runner.run_for(args.seconds / 2, min_passes=1)
            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.run_for(args.seconds / 2, min_passes=1, tracer=tracer)
            finally:
                tracer.remove()
            plain_s = statistics.median(sum(row[1] for row in rows) for rows in plain)
            traced_s = statistics.median(sum(row[1] for row in rows) for rows in traced)
            layers = layer_metrics(tracer, len(traced))
            overhead = 100.0 * (traced_s / plain_s - 1.0)
            print(f"per-layer ({args.workload}, seed {args.seed}, mean of {len(traced)} "
                  f"traced passes; {len(tracer.start)} spans):")
            for name, (value, unit) in layers.items():
                print(f"  {name:40s} {value:14.6g} {unit}")
            print(f"  {'trace.overhead_pct':40s} {overhead:14.6g} % "
                  f"(traced pass {traced_s:.4g} s against untraced {plain_s:.4g} s)")
            metrics = _pick(layers, per_layer)
            report["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            report["trace_overhead_pct"] = overhead
            tracer.save(work_dir / f"spans-{args.workload}-seed{args.seed}.npz")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = len(runner.failures)
    for label, problems in runner.failures:
        print(f"FAILED {label}: {'; '.join(problems)}")
    print(f"operations: {runner.attempted} attempted, {failed} failed, "
          f"{runner.warnings} warnings")
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": metrics}
    report.update(result)
    (work_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
