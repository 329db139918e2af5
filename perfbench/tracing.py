"""Span tracing of catassoc's layers, applied from outside the package.

Each layer is a set of public functions.  ``Tracer.installed()`` replaces
every binding of those functions in the loaded catassoc modules (the package
namespace and every module that imported them) with a wrapper that records a
span: id, parent id, layer, function, start, end and run id.  Counters are
stored on the span that produced them.  On exit the original bindings come
back.  A function a refactor removed is skipped and reads as zero calls.

Spans stay in memory; ``dump`` writes them out after the run.  A layer's
self time is its spans' durations minus the durations of their direct
children.  The counting hooks run in child spans of the pseudo-layer
``trace``, so they are charged to instrumentation rather than to a layer,
and the self times of all spans of a run add up to its root span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = {
    "ingest": ("dataset.read_csv", "dataset.ingest_records"),
    "encode": ("dataset.composite",),
    "count": ("dataset.contingency", "dataset.to_joint", "dataset.joint_from_counts"),
    "kernel": ("association.association_vector", "association.association_matrix",
               "association.gk_tau_direct", "association.tau"),
    "search": ("selection.select_basis", "selection.tau_joint",
               "basis.structural_basis", "basis.verify_basis", "basis.ep"),
    "resample": ("resample.stratified_bootstrap", "resample.retention_ratio",
                 "predict.split_validate"),
    "cli": ("cli.main",),
    "report": ("report.*",),
}

# Each call of these scores one candidate variable set.
CANDIDATE_FUNCS = ("tau_joint", "ep")
# Direct children of this function's spans are statistic evaluations.
BOOTSTRAP_FUNC = "stratified_bootstrap"


def _encode_counts(comp):
    cells = np.bincount(comp.codes, minlength=comp.size)
    return {"rows": int(comp.codes.size), "cells": int(comp.size),
            "singletons": int(np.count_nonzero(cells == 1))}


# Counters per function, taken from its result; recorded on layer entries only,
# so read_csv -> ingest_records counts its records once.
HOOKS = {
    "read_csv": lambda ds: {"records": ds.n_records},
    "ingest_records": lambda ds: {"records": ds.n_records},
    "composite": _encode_counts,
    "contingency": lambda ct: {"table_cells": int(ct.counts.size)},
    "joint_from_counts": lambda j: {"table_cells": int(j.p_xy.size)},
    "stratified_bootstrap": lambda res: {"replicates": int(res.replicates.size)},
}

# Span fields.
ID, PARENT, LAYER, NAME, START, END, RUN, COUNTS = range(8)


def _targets():
    """(layer, function name, function) for every wrapped function present."""
    import catassoc.cli  # noqa: F401  loads every module that binds a target
    for layer, quals in LAYERS.items():
        for qual in quals:
            modname, attr = qual.split(".")
            mod = sys.modules.get(f"catassoc.{modname}")
            if mod is None:
                continue
            if attr == "*":
                found = [(nm, f) for nm, f in vars(mod).items()
                         if not nm.startswith("_") and inspect.isfunction(f)
                         and f.__module__ == mod.__name__]
            else:
                f = getattr(mod, attr, None)
                found = [(attr, f)] if callable(f) else []
            for nm, f in found:
                yield layer, nm, f


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self.run = None

    def _open(self, layer: str, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent[ID] if parent else None, layer, name,
                time.perf_counter(), None, self.run, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, run: str):
        """The span of one traced pass; every layer span of the run is inside it."""
        self.run = run
        span = self._open("root", "pass")
        try:
            yield span
        finally:
            self._close(span)
            self.run = None

    def _wrap(self, fn, layer: str, name: str):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
                parent = self.spans[span[PARENT]] if span[PARENT] is not None else None
                if hook is not None and (parent is None or parent[LAYER] != layer):
                    h = self._open("trace", name + ".count")
                    try:
                        span[COUNTS] = hook(result)
                    except (AttributeError, TypeError, ValueError):
                        pass  # result shape changed by a refactor: no counts
                    finally:
                        self._close(h)
                return result
            finally:
                self._close(span)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target function in every catassoc namespace binding it."""
        targets = list(_targets())
        modules = [m for nm, m in list(sys.modules.items())
                   if nm == "catassoc" or nm.startswith("catassoc.")]
        patched = []
        for layer, name, fn in targets:
            wrapper = self._wrap(fn, layer, name)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, fn))
        try:
            yield
        finally:
            for mod, attr, fn in reversed(patched):
                setattr(mod, attr, fn)

    def metrics(self, run: str) -> dict[str, float]:
        """Per-layer metrics of one traced pass."""
        spans = [s for s in self.spans if s[RUN] == run]
        by_id = {s[ID]: s for s in spans}
        child = dict.fromkeys(by_id, 0.0)
        for s in spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        counts: dict[str, int] = {}
        candidate_ms, stat_ms = [], []
        for s in spans:
            dur = s[END] - s[START]
            layer = s[LAYER]
            if layer in LAYERS:
                self_s[layer] += dur - child[s[ID]]
                parent = by_id.get(s[PARENT])
                if parent is None or parent[LAYER] != layer:
                    calls[layer] += 1
            for k, v in (s[COUNTS] or {}).items():
                counts[k] = counts.get(k, 0) + v
            if s[NAME] in CANDIDATE_FUNCS:
                candidate_ms.append(dur * 1e3)
            parent = by_id.get(s[PARENT])
            if parent is not None and parent[NAME] == BOOTSTRAP_FUNC:
                stat_ms.append(dur * 1e3)

        def pct(xs, q):
            return float(np.percentile(xs, q)) if xs else 0.0

        cells = counts.get("cells", 0)
        return {
            "ingest.calls": calls["ingest"],
            "ingest.self_s": self_s["ingest"],
            "ingest.records": counts.get("records", 0),
            "encode.calls": calls["encode"],
            "encode.self_s": self_s["encode"],
            "encode.rows": counts.get("rows", 0),
            "encode.cells": cells,
            "encode.singleton_share": counts.get("singletons", 0) / cells if cells else 0.0,
            "count.calls": calls["count"],
            "count.self_s": self_s["count"],
            "count.table_cells": counts.get("table_cells", 0),
            "kernel.calls": calls["kernel"],
            "kernel.self_s": self_s["kernel"],
            "search.calls": calls["search"],
            "search.self_s": self_s["search"],
            "search.candidates": len(candidate_ms),
            "search.candidate_ms_p50": pct(candidate_ms, 50),
            "resample.calls": calls["resample"],
            "resample.self_s": self_s["resample"],
            "resample.replicates": counts.get("replicates", 0),
            "resample.stat_p50_ms": pct(stat_ms, 50),
            "resample.stat_p99_ms": pct(stat_ms, 99),
            "cli.self_s": self_s["cli"],
            "report.self_s": self_s["report"],
        }

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "parent", "layer", "name", "start", "end", "run", "counts")
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(keys, s))) + "\n")
