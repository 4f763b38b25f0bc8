"""Span tracing of cqlogic from outside the program.

``Tracer.install`` wraps public functions of the cqlogic modules, rebinding
every module-level name that refers to each one (``ultraproduct`` imports
``eval_table`` directly, ``cli`` imports ``validate_space``), so calls made
through any of those names are seen. Every call is counted. A span (name,
start, end, parent, item) opens only at the outermost entry of a name, so
the recursion of ``eval_table`` and ``eval_formula`` adds calls but not
spans. Spans stay in memory in flat arrays and are written out by ``dump``.

Every layer is single-threaded, so the child spans of a span never overlap
and its self time is its duration minus the sum of its children's.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import time
from array import array
from collections import Counter

import numpy as np


def _lattice_sizes(tracer, args, kwargs, result):
    tracer.sizes["lattice.elements"] += result.n
    tracer.distinct["lattice.order"].add(_key(result.leq.tobytes()))


def _ground(tracer, args, kwargs, result):
    tracer.distinct["freelocale.ground"].add(_key(repr(args[0].ground).encode()))


def _triangle(tracer, args, kwargs, result):
    tracer.sizes["spaces.triangle_cells"] += result.m ** 3


def _pool(tracer, args, kwargs, result):
    tracer.sizes["semantics.pool_formulas"] += len(result)


def _checks(tracer, args, kwargs, result):
    tracer.sizes["semantics.verdict_checks"] += result.checked


def _rows(tracer, args, kwargs, result):
    tracer.sizes["ultraproduct.dlim_rows"] += len(result)


def _points(tracer, args, kwargs, result):
    tracer.sizes["ultraproduct.product_points"] += result.m


def _entries(tracer, args, kwargs, result):
    tracer.sizes["ultraproduct.los_entries"] += len(result.entries)


def _file_bytes(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.sizes["textio.load_bytes"] += os.path.getsize(path)


def _text_bytes(tracer, args, kwargs, result):
    tracer.sizes["textio.write_bytes"] += len(result.encode("utf-8"))


def _key(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# (span name, module, function or Class.method, size hook)
TARGETS = (
    ("lattice.validate", "lattice", "validate_lattice", _lattice_sizes),
    ("freelocale.materialize", "freelocale", "FreeLocale.materialize", _ground),
    ("coquantale.validate", "coquantale", "validate_coquantale", None),
    ("coquantale.builtin", "coquantale", "builtin", None),
    ("coquantale.residuation", "coquantale", "check_residuation_laws", None),
    ("spaces.validate", "spaces", "validate_space", _triangle),
    ("spaces.induced_topology", "spaces", "induced_topology", None),
    ("spaces.from_topology", "spaces", "space_from_topology", None),
    ("formulas.parse", "formulas", "parse_formula", None),
    ("semantics.enumerate", "semantics", "enumerate_formulas", _pool),
    ("semantics.eval_table", "semantics", "eval_table", None),
    ("semantics.eval_formula", "semantics", "eval_formula", None),
    ("semantics.validate_structure", "semantics", "validate_structure", None),
    ("semantics.tv", "semantics", "tarski_vaught_upto", _checks),
    ("semantics.elem", "semantics", "elementary_upto", _checks),
    ("ultraproduct.dlim_batch", "ultraproduct", "dlim_batch", _rows),
    ("ultraproduct.d_ultralimit", "ultraproduct", "d_ultralimit", None),
    ("ultraproduct.product_space", "ultraproduct", "d_product_space", _points),
    ("ultraproduct.product_structure", "ultraproduct", "d_product_structure", None),
    ("ultraproduct.los_check", "ultraproduct", "los_check", _entries),
    ("ultraproduct.hypothesis", "ultraproduct", "los_hypothesis_check", None),
    ("textio.load", "textio", "Workspace.load_path", _file_bytes),
    ("textio.write", "textio", "write_structure", _text_bytes),
    ("cli.main", "cli", "main", None),
)
MODULES = ("lattice", "coquantale", "freelocale", "spaces", "formulas",
           "semantics", "ultraproduct", "textio", "cli")


class Tracer:
    """Counts and spans for one process; ``item`` tags new spans."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_item = array("q")
        self.calls = [0] * len(self.names)
        self.sizes = Counter()
        self.distinct = {"lattice.order": set(), "freelocale.ground": set()}
        self.item = -1
        self._stack = []
        self._active = [0] * len(self.names)
        self._undo = []

    def wrap(self, name_id, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[name_id] += 1
            if tracer._active[name_id]:
                return fn(*args, **kwargs)
            tracer._active[name_id] = 1
            idx = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_item.append(tracer.item)
            tracer.span_end.append(0.0)
            tracer._stack.append(idx)
            tracer.span_start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = time.perf_counter()
                tracer._stack.pop()
                tracer._active[name_id] = 0
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every traced function in every cqlogic module."""
        modules = [importlib.import_module("cqlogic." + m) for m in MODULES]
        for name_id, (_, module, attr, hook) in enumerate(TARGETS):
            owner = importlib.import_module("cqlogic." + module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name_id, original, hook))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name_id, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def summary(self, **extra):
        """Self seconds, calls, span counts, sizes and distinct keys."""
        names = np.array(self.span_name, dtype=np.uint16)
        starts = np.array(self.span_start, dtype=float)
        ends = np.array(self.span_end, dtype=float)
        parents = np.array(self.span_parent, dtype=np.int64)
        own = self_times(starts, ends, parents)
        totals = np.bincount(names, weights=own, minlength=len(self.names))
        spans = np.bincount(names, minlength=len(self.names))
        out = {
            "self": {n: float(totals[i]) for i, n in enumerate(self.names)},
            "spans": {n: int(spans[i]) for i, n in enumerate(self.names)},
            "calls": dict(zip(self.names, self.calls)),
            "sizes": dict(self.sizes),
            "distinct": {k: sorted(v) for k, v in self.distinct.items()},
        }
        out.update(extra)
        return out

    def dump(self, prefix, **extra):
        """Write the spans (``prefix.npz``) and the summary (``prefix.json``)."""
        np.savez(prefix + ".npz", names=np.array(self.names),
                 name=np.array(self.span_name, dtype=np.uint16),
                 start=np.array(self.span_start, dtype=float),
                 end=np.array(self.span_end, dtype=float),
                 parent=np.array(self.span_parent, dtype=np.int64),
                 item=np.array(self.span_item, dtype=np.int64))
        summary = self.summary(**extra)
        with open(prefix + ".json", "w", encoding="utf-8") as handle:
            json.dump(summary, handle)
        return summary


def self_times(starts, ends, parents):
    """Duration of each span minus the summed durations of its children."""
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    dur = ends - starts
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


def merge(summaries):
    """Add up the summaries of several processes."""
    total = {"self": Counter(), "spans": Counter(), "calls": Counter(),
             "sizes": Counter(), "distinct": {}, "startup": 0.0}
    for s in summaries:
        for field in ("self", "spans", "calls", "sizes"):
            total[field].update(s[field])
        for key, values in s["distinct"].items():
            total["distinct"].setdefault(key, set()).update(values)
        total["startup"] += s.get("startup", 0.0)
    return total


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(total, traced_sweep_s):
    """Every per-layer metric, named ``<module>.<metric>``, with its unit."""
    own, calls, spans, sizes = (total["self"], total["calls"], total["spans"],
                                total["sizes"])
    distinct = {k: len(v) for k, v in total["distinct"].items()}
    values = {}
    for name in (t[0] for t in TARGETS):
        values[name + "_s"] = (own[name], "s")
        values[name + "_calls"] = (calls[name], "count")
    values.update({
        "lattice.elements": (sizes["lattice.elements"], "count"),
        "lattice.distinct_frac": (_ratio(distinct.get("lattice.order", 0),
                                         calls["lattice.validate"]), "ratio"),
        "freelocale.distinct_frac": (_ratio(distinct.get("freelocale.ground", 0),
                                            calls["freelocale.materialize"]), "ratio"),
        "spaces.triangle_cells": (sizes["spaces.triangle_cells"], "count"),
        "semantics.pool_formulas": (sizes["semantics.pool_formulas"], "count"),
        "semantics.eval_table_top_calls": (spans["semantics.eval_table"], "count"),
        "semantics.nodes_per_formula": (_ratio(calls["semantics.eval_table"],
                                               spans["semantics.eval_table"]), "ratio"),
        "semantics.verdict_checks": (sizes["semantics.verdict_checks"], "count"),
        "ultraproduct.dlim_rows": (sizes["ultraproduct.dlim_rows"], "count"),
        "ultraproduct.product_points": (sizes["ultraproduct.product_points"], "count"),
        "ultraproduct.los_entries": (sizes["ultraproduct.los_entries"], "count"),
        "textio.load_bytes": (sizes["textio.load_bytes"], "bytes"),
        "textio.write_bytes": (sizes["textio.write_bytes"], "bytes"),
        "cli.startup_s": (total["startup"], "s"),
        "cli.requests": (calls["cli.main"], "count"),
        "bench.traced_sweep_s": (traced_sweep_s, "s"),
    })
    return {name: values[name] for name, _, _ in LAYER_METRICS}


# The reported per-layer metrics: (name, unit, better).
LAYER_METRICS = (
    ("lattice.validate_s", "s", "lower"),
    ("lattice.validate_calls", "count", "lower"),
    ("lattice.elements", "count", "lower"),
    ("lattice.distinct_frac", "ratio", "higher"),
    ("freelocale.materialize_s", "s", "lower"),
    ("freelocale.materialize_calls", "count", "lower"),
    ("freelocale.distinct_frac", "ratio", "higher"),
    ("coquantale.validate_s", "s", "lower"),
    ("coquantale.validate_calls", "count", "lower"),
    ("coquantale.builtin_s", "s", "lower"),
    ("coquantale.residuation_s", "s", "lower"),
    ("spaces.validate_s", "s", "lower"),
    ("spaces.validate_calls", "count", "lower"),
    ("spaces.triangle_cells", "count", "lower"),
    ("spaces.induced_topology_s", "s", "lower"),
    ("spaces.induced_topology_calls", "count", "lower"),
    ("spaces.from_topology_s", "s", "lower"),
    ("formulas.parse_s", "s", "lower"),
    ("formulas.parse_calls", "count", "lower"),
    ("semantics.enumerate_s", "s", "lower"),
    ("semantics.pool_formulas", "count", "lower"),
    ("semantics.eval_table_s", "s", "lower"),
    ("semantics.eval_table_calls", "count", "lower"),
    ("semantics.eval_table_top_calls", "count", "lower"),
    ("semantics.nodes_per_formula", "ratio", "lower"),
    ("semantics.eval_formula_s", "s", "lower"),
    ("semantics.eval_formula_calls", "count", "lower"),
    ("semantics.validate_structure_s", "s", "lower"),
    ("semantics.tv_s", "s", "lower"),
    ("semantics.elem_s", "s", "lower"),
    ("semantics.verdict_checks", "count", "lower"),
    ("ultraproduct.dlim_batch_s", "s", "lower"),
    ("ultraproduct.dlim_rows", "count", "lower"),
    ("ultraproduct.d_ultralimit_s", "s", "lower"),
    ("ultraproduct.d_ultralimit_calls", "count", "lower"),
    ("ultraproduct.product_space_s", "s", "lower"),
    ("ultraproduct.product_points", "count", "lower"),
    ("ultraproduct.product_structure_s", "s", "lower"),
    ("ultraproduct.los_check_s", "s", "lower"),
    ("ultraproduct.los_entries", "count", "lower"),
    ("ultraproduct.hypothesis_s", "s", "lower"),
    ("ultraproduct.hypothesis_calls", "count", "lower"),
    ("textio.load_s", "s", "lower"),
    ("textio.load_bytes", "bytes", "lower"),
    ("textio.write_s", "s", "lower"),
    ("textio.write_bytes", "bytes", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.requests", "count", "higher"),
    ("bench.traced_sweep_s", "s", "lower"),
)
