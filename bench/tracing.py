"""Span tracing of hjikit's modules, installed from outside the package.

While a traced pass runs, every public function and method of each module (the
benchmark's layers) is replaced by a wrapper that records one span per call:
name, start, end, parent span and operation id.  A name is patched wherever it
is looked up, so a function imported by name into another module (such as
``check_witness`` in ``smoothing``) is traced there too.  The compiled field
closures of ``expr`` are traced through ``systems._compile_fields``, which
builds them for every system.  Spans live in compact arrays in memory and are
written out when the run ends.  No file of the package changes.
"""
from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("expr", "systems", "storage", "hji", "trajectories", "smoothing",
          "construct1d", "audits", "cli")


def _rows(X) -> int:
    shape = np.shape(X)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _ast_size(node) -> int:
    from hjikit import expr as ex
    if isinstance(node, ex.Neg):
        return 1 + _ast_size(node.arg)
    if isinstance(node, ex.Bin):
        return 1 + _ast_size(node.lhs) + _ast_size(node.rhs)
    if isinstance(node, ex.Call):
        return 1 + sum(_ast_size(a) for a in node.args)
    return 1


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self._undo: list = []

    # -- recording ----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, post=None):
        """A traced stand-in for ``fn``; ``post(tracer, span, args, result)`` counts work."""
        nid = self._name_id(name)
        name_app, parent_app, op_app = self.name.append, self.parent.append, self.op.append
        start, end, stack, clock = self.start, self.end, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_app(nid)
            parent_app(stack[-1] if stack else -1)
            op_app(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if post is not None:
                post(tracer, idx, args, result)
            return result

        return traced

    def layer_of(self, idx: int) -> str:
        return self.names[self.name[idx]].split(".", 1)[0] if idx >= 0 else ""

    # -- installing ---------------------------------------------------------
    def install(self):
        """Patch every layer's public functions and methods; undone by :meth:`remove`."""
        import hjikit
        from hjikit import audits, cli, construct1d, expr, hji, smoothing, storage
        from hjikit import systems, trajectories
        modules = {"expr": expr, "systems": systems, "storage": storage, "hji": hji,
                   "trajectories": trajectories, "smoothing": smoothing,
                   "construct1d": construct1d, "audits": audits, "cli": cli}
        lookups = [hjikit, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    self._patch_function(lookups, obj, self.wrap(
                        f"{layer}.{attr}", obj, _POST.get(f"{layer}.{attr}")))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._patch_class(layer, obj)
        # cli writes every CSV through one helper: count the rows it writes
        self._patch_function([cli], cli._write_csv, self.wrap(
            "cli._write_csv", cli._write_csv, _count_csv_rows))
        self._patch_function([systems], systems._compile_fields, self._field_compiler(expr))

    def _patch_function(self, lookups, original, replacement):
        for mod in lookups:
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, replacement)

    def _patch_class(self, layer: str, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(name, raw.__func__, _POST.get(name)))
            elif inspect.isfunction(raw):
                wrapped = self.wrap(name, raw, _POST.get(name))
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def _field_compiler(self, expr):
        def compile_fields(asts):
            fields = []
            for ast in asts:
                nodes = _ast_size(ast)

                def post(tr, idx, args, result, nodes=nodes):
                    tr.counts["expr.node_points"] += nodes * _rows(args[0])

                fields.append(self.wrap("expr.field", expr.compile_evaluator(ast), post))
            return tuple(fields)

        return compile_fields

    def remove(self):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    # -- reading ------------------------------------------------------------
    def spans(self) -> dict:
        """The spans as numpy arrays plus the name table."""
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "op": np.frombuffer(self.op, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "names": np.array(self.names)}

    def save(self, path):
        np.savez_compressed(path, **self.spans())


# ---------------------------------------------------------------------------
# Work counters attached to individual spans
# ---------------------------------------------------------------------------

def _count_subdiff(tr, idx, args, result):
    if result.is_empty:
        kind = "empty"
    elif result.unbounded_axes:
        kind = "unbounded"
    elif result.is_singleton:
        kind = "singleton"
    else:
        kind = "box"
    tr.counts[f"storage.subdiff.{kind}"] += 1


def _count_value_batch(tr, idx, args, result):
    tr.counts["storage.value_batch.rows"] += _rows(args[1])


def _count_smoothed_dump(tr, idx, args, result):
    if args[0].name.startswith("smoothed("):
        tr.counts["smoothing.dump_calls"] += 1


def _system_rows(kind):
    def post(tr, idx, args, result):
        tr.counts[f"systems.{kind}.rows"] += _rows(args[1])
        if tr.layer_of(tr.parent[idx]) != "systems":      # entry into the layer
            tr.counts["systems.entry_rows"] += _rows(args[1])
            tr.counts["systems.entry_s"] += tr.end[idx] - tr.start[idx]
    return post


def _count_check_witness(tr, idx, args, result):
    tr.counts["hji.check_witness.points"] += result.points_checked


def _count_ensemble(tr, idx, args, result):
    tr.counts["trajectories.steps"] += sum(t.times.size - 1 for t in result)


def _count_smooth(tr, idx, args, result):
    attempts = len(result.radius_schedule)
    tr.counts["smoothing.attempts"] += attempts
    tr.counts["smoothing.passes"] += sum(r["outcome"] == "pass" for r in result.radius_schedule)
    tr.counts["smoothing.point_attempts"] += result.grids["certification_points"] * attempts


def _count_evaluate(tr, idx, args, result):
    tr.counts["smoothing.evaluate.points"] += _rows(args[1])


def _count_construct(tr, idx, args, result):
    tr.counts["construct1d.grid_points"] += result.grid.size


def _count_csv_rows(tr, idx, args, result):
    tr.counts["cli.csv_rows"] += len(args[2])


_POST = {
    "storage.StorageCandidate.subdiff": _count_subdiff,
    "storage.StorageCandidate.value_batch": _count_value_batch,
    "storage.StorageCandidate.value": _count_smoothed_dump,
    "storage.StorageCandidate.gradient": _count_smoothed_dump,
    "hji.check_witness": _count_check_witness,
    "trajectories.integrate_ensemble": _count_ensemble,
    "smoothing.smooth_witness": _count_smooth,
    "smoothing.MollifiedFunction.evaluate": _count_evaluate,
    "construct1d.construct_w": _count_construct,
}
for _cls in ("AffineSystem", "PowerAffineSystem", "GeneralSystem"):
    for _kind in ("dynamics", "drift", "input_fields"):
        _POST[f"systems.{_cls}.{_kind}"] = _system_rows(_kind)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics averaged over ``passes`` traced passes: name -> (value, unit)."""
    sp = tracer.spans()
    names = list(sp["names"])
    nid = sp["name"]
    parent = sp["parent"]
    dur = sp["end"] - sp["start"]
    layer_ids = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names] or [0])
    layer = layer_ids[nid] if nid.size else np.zeros(0, dtype=int)
    has_parent = parent >= 0
    parent_layer = np.full(nid.size, -1)
    parent_layer[has_parent] = layer[parent[has_parent]]
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=nid.size)
    self_time = dur - child
    entry = layer != parent_layer          # the call crossed into its layer
    c = tracer.counts
    k = float(max(passes, 1))

    def sel(*suffixes):
        wanted = [i for i, n in enumerate(names) if n.endswith(suffixes)]
        return np.isin(nid, wanted)

    def total(mask):
        return float(np.sum(dur[mask])) / k

    def count(mask):
        return float(np.count_nonzero(mask)) / k

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out = {}
    for i, name in enumerate(LAYERS):
        mine = layer == i
        out[f"{name}.calls"] = (count(mine & entry), "count")
        out[f"{name}.s"] = (total(mine & entry), "s")
        out[f"{name}.self_s"] = (float(np.sum(self_time[mine])) / k, "s")

    cw = sel("hji.check_witness")
    out["hji.check_witness.calls"] = (count(cw), "count")
    out["hji.check_witness.s"] = (total(cw), "s")
    out["hji.check_witness.us_per_point"] = (
        ratio(total(cw), c["hji.check_witness.points"] / k, 1e6), "us")
    pr = sel("hji.point_residual")
    out["hji.point_residual.calls"] = (count(pr), "count")
    out["hji.point_residual.s"] = (total(pr), "s")
    scans = sel("hji.min_gain_scan")
    in_scan = cw & has_parent & np.isin(parent, np.flatnonzero(scans))
    out["hji.min_gain_scan.sweeps"] = (ratio(count(in_scan), count(scans)), "count")

    sd = sel("storage.StorageCandidate.subdiff")
    out["storage.subdiff.calls"] = (count(sd), "count")
    out["storage.subdiff.s"] = (total(sd), "s")
    out["storage.subdiff.us_per_point"] = (ratio(total(sd), count(sd), 1e6), "us")
    for kind in ("singleton", "box", "unbounded"):
        out[f"storage.subdiff.{kind}"] = (c[f"storage.subdiff.{kind}"] / k, "count")
    out["storage.value_batch.calls"] = (count(sel("storage.StorageCandidate.value_batch")),
                                        "count")
    out["storage.value_batch.rows"] = (c["storage.value_batch.rows"] / k, "count")

    dyn = sel("System.dynamics")
    out["systems.dynamics.calls"] = (count(dyn), "count")
    out["systems.dynamics.rows_per_call"] = (
        ratio(c["systems.dynamics.rows"] / k, count(dyn)), "count")
    out["systems.dynamics.s"] = (total(dyn), "s")
    for kind in ("drift", "input_fields"):
        # PowerAffineSystem delegates to an AffineSystem: count outer calls only
        m = sel(f"System.{kind}") & ~_parent_named(nid, parent, names, f"System.{kind}")
        out[f"systems.{kind}.calls"] = (count(m), "count")
    out["systems.us_per_row"] = (ratio(c["systems.entry_s"], c["systems.entry_rows"], 1e6), "us")

    fields = sel("expr.field")
    out["expr.field_calls"] = (count(fields), "count")
    out["expr.node_points"] = (c["expr.node_points"] / k, "count")
    out["expr.ns_per_node_point"] = (ratio(total(fields) * k, c["expr.node_points"], 1e9), "ns")

    ie = sel("trajectories.integrate_ensemble")
    out["trajectories.integrate_ensemble.s"] = (total(ie), "s")
    out["trajectories.steps"] = (c["trajectories.steps"] / k, "count")
    out["trajectories.us_per_step"] = (ratio(total(ie) * k, c["trajectories.steps"], 1e6), "us")
    out["trajectories.input_calls"] = (count(sel("Input.__call__")), "count")
    da = sel("trajectories.dissipation_audit", "trajectories.dissipation_audit_detail")
    da_entry = da & ~_parent_named(nid, parent, names, "trajectories.dissipation_audit")
    out["trajectories.dissipation_audit.calls"] = (count(da_entry), "count")
    out["trajectories.dissipation_audit.s"] = (total(da_entry), "s")

    out["smoothing.attempts"] = (c["smoothing.attempts"] / k, "count")
    out["smoothing.pass_ratio"] = (ratio(c["smoothing.passes"], c["smoothing.attempts"]),
                                   "ratio")
    ev = sel("smoothing.MollifiedFunction.evaluate")
    out["smoothing.evaluate.calls"] = (count(ev), "count")
    out["smoothing.evaluate.points"] = (c["smoothing.evaluate.points"] / k, "count")
    out["smoothing.evaluate.s"] = (total(ev), "s")
    sw = sel("smoothing.smooth_witness")
    out["smoothing.us_per_cert_point"] = (
        ratio(total(sw) * k, c["smoothing.point_attempts"], 1e6), "us")
    out["smoothing.dump_calls"] = (c["smoothing.dump_calls"] / k, "count")

    cw1 = sel("construct1d.construct_w")
    out["construct1d.construct_w.s"] = (total(cw1), "s")
    out["construct1d.grid_points"] = (c["construct1d.grid_points"] / k, "count")
    out["construct1d.us_per_point"] = (
        ratio(total(cw1) * k, c["construct1d.grid_points"], 1e6), "us")

    out["cli.csv_rows"] = (c["cli.csv_rows"] / k, "count")
    out["trace.spans"] = (nid.size / k, "count")
    return out


def _parent_named(nid, parent, names, suffix) -> np.ndarray:
    """Mask of spans whose parent span's name ends with ``suffix``."""
    wanted = np.array([n.endswith(suffix) for n in names] or [False])
    out = np.zeros(nid.size, dtype=bool)
    has = parent >= 0
    out[has] = wanted[nid[parent[has]]]
    return out
