"""Traced runs: time every public function of the package from outside.

The tracer replaces each public function of every ``src/znalg`` module, and
a few named methods, by a wrapper, at every place the name is bound: the
defining module, every module that imported it, the package namespace and
dict tables such as the CLI's job handlers.  ``uninstall`` puts the
originals back.

Two kinds of wrapper exist.  A span wrapper appends one record per call
(name, start, end, parent span, job id) to an in-memory list.  A hot
wrapper, used for the arithmetic kernels that run hundreds of thousands of
times per job, only adds to per-name call counts and busy time.  Both push a
frame on one stack, so every interval of a traced job is charged to exactly
one function's self time: a span's self time is its duration minus its
child spans minus the hot calls directly under it, and a hot call's self
time is its duration minus the hot calls nested in it.  Hot kernels never
call span functions (``Tracer.misnested`` counts the cases that would break
this), so the layer self times add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

PACKAGE = "znalg"
MODULES = ("algebra", "catalog", "classify", "cli", "deformation",
           "documents", "errors", "extension", "hochschild", "linal", "poset")

# Methods traced besides the public module-level functions.
METHODS = {
    "algebra": {"FiniteAlgebra": ("mul", "elements")},
    "hochschild": {"Bimodule": ("lact", "ract"), "Cochain": ("evaluate",)},
    "deformation": {"TruncatedDeformation": ("alpha",)},
    "documents": {"Workspace": ("load", "algebra", "bimodule", "cochain",
                                "deformation", "poset", "presheaf", "job")},
}

# Kernels aggregated into counters instead of spans: each runs from
# thousands to hundreds of thousands of times per job, and none of them
# calls a span function.
HOT = frozenset({
    "algebra.FiniteAlgebra.mul",
    "algebra.FiniteAlgebra.elements",
    "hochschild.Bimodule.lact",
    "hochschild.Bimodule.ract",
    "hochschild.Cochain.evaluate",
    "deformation.TruncatedDeformation.alpha",
    "deformation.def_mul",
    "deformation.def_add",
    "deformation.def_sub",
    "deformation.def_neg",
    "deformation.def_smul",
    "deformation.def_one",
    "deformation.def_zero",
    "deformation.def_from_constant",
    "deformation.def_t",
    "deformation.flatten_element",
    "documents.key_str",
    "linal.is_prime",
})

MUL = "algebra.FiniteAlgebra.mul"
ELEMENTS = "algebra.FiniteAlgebra.elements"


def _rows_nnz(result):
    rows, src, dst = result
    return {"nnz": sum(len(row) for row in rows), "cells": src * dst}


def _elimination(args, result, dense):
    rows = args[0]
    extra = {"rows": len(rows), "rank": result[0]}
    if dense:
        extra["dense_cells"] = len(rows) * (len(rows[0]) if rows else 0)
    return extra


# Counts read off a span's arguments or result after the call returns.
ANNOTATE = {
    "classify.decomposition_report": lambda a, r: {"elements": a[0].size},
    "hochschild.delta_matrix": lambda a, r: _rows_nnz(r),
    "linal.eliminate_gf2": lambda a, r: _elimination(a, r, False),
    "linal.eliminate_modp": lambda a, r: _elimination(a, r, True),
    "deformation.lift_idempotent_newton": lambda a, r: {"iterations": r[1]},
}


class Tracer:
    """Spans and hot-kernel counters for one traced pass at a time."""

    def __init__(self):
        self.job = None
        self._undo = []
        self.spans = []
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.hot_self = defaultdict(float)
        self.yielded = 0
        self.misnested = 0
        self._stack = []

    def reset(self):
        """Forget everything recorded so far; the installed wrappers keep
        writing into the same containers."""
        if self._stack:
            raise RuntimeError("reset inside a traced call")
        self.spans.clear()
        self.calls.clear()
        self.busy.clear()
        self.hot_self.clear()
        self.yielded = 0
        self.misnested = 0

    # wrappers

    def _span(self, name, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        calls = self.calls
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[1] < 0:
                self.misnested += 1
            span = {"id": len(spans), "name": name, "job": self.job,
                    "parent": parent[1] if parent is not None else None,
                    "hot_s": 0.0, "mul": calls[MUL]}
            spans.append(span)
            frame = [0.0, span["id"]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span["start"], span["end"] = start, end
                span["hot_s"] = frame[0]
                span["mul"] = calls[MUL] - span["mul"]
            if annotate is not None:
                span.update(annotate(args, result))
            return result

        return wrapper

    def _hot(self, name, fn):
        stack, clock = self._stack, time.perf_counter
        calls, busy, hot_self = self.calls, self.busy, self.hot_self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, -1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - start
                stack.pop()
                calls[name] += 1
                busy[name] += d
                hot_self[name] += d - frame[0]
                if stack:
                    stack[-1][0] += d

        return wrapper

    def _counting(self, fn):
        tracer = self

        def counted(it):
            k = 0
            try:
                for x in it:
                    k += 1
                    yield x
            finally:
                tracer.yielded += k

        @functools.wraps(fn)
        def elements(*args, **kwargs):
            return counted(fn(*args, **kwargs))

        return elements

    def wrap(self, name, fn):
        if name == ELEMENTS:
            fn = self._counting(fn)
        if name in HOT:
            return self._hot(name, fn)
        return self._span(name, fn)

    # installation

    def targets(self):
        """{function: qualified name} for every public function defined in
        a package module; METHODS are handled apart."""
        out = {}
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    out[obj] = f"{short}.{attr}"
        return out

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        replace = {fn: self.wrap(name, fn)
                   for fn, name in self.targets().items()}
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replace:
                    self._set(mod, attr, replace[val])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if inspect.isfunction(item) and item in replace:
                            self._set_item(val, key, replace[item])
        for short, classes in METHODS.items():
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{short}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(name, raw.__func__))
                    else:
                        new = self.wrap(name, raw)
                    self._set(cls, meth, new, raw)

    def _set(self, owner, attr, new, old=None):
        if old is None:
            old = getattr(owner, attr)
        self._undo.append(("attr", owner, attr, old))
        setattr(owner, attr, new)

    def _set_item(self, table, key, new):
        self._undo.append(("item", table, key, table[key]))
        table[key] = new

    def uninstall(self):
        while self._undo:
            kind, owner, key, old = self._undo.pop()
            if kind == "attr":
                setattr(owner, key, old)
            else:
                owner[key] = old


def self_times(spans):
    """Self time of each span: its duration minus the durations of its
    child spans minus the hot calls directly under it."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] - s["hot_s"]
            for s in spans}


def summarize(tracer):
    """Per-name busy and self time over all spans and hot counters, plus
    the per-layer self-time totals and the annotated counts."""
    busy = defaultdict(float)
    selft = defaultdict(float)
    count = defaultdict(int)
    extra = defaultdict(int)
    mul_in_report = 0
    selfs = self_times(tracer.spans)
    for s in tracer.spans:
        name = s["name"]
        busy[name] += s["end"] - s["start"]
        selft[name] += selfs[s["id"]]
        count[name] += 1
        for key in ("elements", "nnz", "cells", "rows", "rank",
                    "dense_cells", "iterations"):
            if key in s:
                extra[f"{name}.{key}"] += s[key]
        if name == "classify.decomposition_report":
            mul_in_report += s["mul"]
    for name, d in tracer.busy.items():
        busy[name] += d
        selft[name] += tracer.hot_self[name]
        count[name] += tracer.calls[name]
    layers = defaultdict(float)
    for name, t in selft.items():
        layers[name.split(".", 1)[0]] += t
    return {"busy": busy, "self": selft, "count": count, "extra": extra,
            "layers": layers, "mul_in_report": mul_in_report,
            "yielded": tracer.yielded}
