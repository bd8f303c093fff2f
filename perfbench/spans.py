"""Span tracing of plapreg's layers, installed from outside the program.

The tracer replaces each public function of the six plapreg modules, as it
is bound in the module that calls it, with a wrapper that records a span:
name, parent span, start, end, operation id and a few attributes read from
the call's arguments or result.  ``plapreg.solver.hess_L_eps`` is therefore
traced as a pointwise span called from the solver, and
``plapreg.smoothness.shift_difference_norm`` also when
``fit_smoothness_exponent`` calls it inside its own module.

Linear algebra is traced wherever ``plapreg.solver`` reaches into
``scipy.linalg`` or ``scipy.sparse.linalg``: the module objects it imported
are replaced by proxies whose callables are wrapped, so a switch from
``spsolve`` to ``splu``, ``solveh_banded`` or ``cg`` is still counted.  The
solver's line search is the one private function traced, because the
line-search counters have no public boundary.

Spans stay in memory until the run ends.  Span tuples are
``(span_id, parent_id, name, via, op, start, end, attrs)``: ``name`` is
``<layer>.<function>``, ``via`` the module whose binding was called.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import os
import sys
import threading
import types
from time import perf_counter

import numpy as np

from stats import self_times

LAYERS = ("pointwise", "fields", "solver", "smoothness", "experiments", "cli")
LINALG_PREFIXES = ("scipy.linalg", "scipy.sparse.linalg")
TRACED_PRIVATE = {("solver", "_line_search")}
IO_FUNCTIONS = {"read_field_csv", "write_field_csv", "read_grid_json", "write_grid_json"}
CELL_FUNCTIONS = {"run_theorem1_check", "run_eps_sweep", "run_scaling_check"}

SID, PARENT, NAME, VIA, OP, START, END, ATTRS = range(8)


def _elems(args, kwargs, out):
    return {"elems": int(np.size(args[0]))} if args else None


def _nnz(args, kwargs, out):
    a = args[0] if args else None
    nnz = getattr(a, "nnz", None)
    if nnz is None and isinstance(a, np.ndarray) and a.ndim == 2:
        nnz = np.count_nonzero(a)
    return None if nnz is None else {"nnz": int(nnz)}


def _solve(args, kwargs, out):
    return {"iters": int(out.iterations), "converged": bool(out.converged)}


def _line_search(args, kwargs, out):
    return {"ok": bool(out[1])}


def _io(args, kwargs, out):
    for a in args:
        if isinstance(a, (str, os.PathLike)):
            return {"bytes": os.path.getsize(a)}
    return None


def _cells(args, kwargs, out):
    cells = getattr(out, "cells", None)
    return {"cells": 1 if cells is None else len(cells)}


def _is_linalg_module(obj) -> bool:
    return isinstance(obj, types.ModuleType) and obj.__name__.startswith(LINALG_PREFIXES)


def _is_linalg_function(obj) -> bool:
    return (
        callable(obj)
        and not isinstance(obj, (type, types.ModuleType))
        and str(getattr(obj, "__module__", "")).startswith(LINALG_PREFIXES)
    )


class _FactorProxy:
    """A factorization object whose ``solve`` method is traced."""

    def __init__(self, target, solve):
        self._target = target
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._target, name)


class _LinalgProxy:
    """Stands in for a scipy linear-algebra module inside plapreg.solver."""

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer
        self._cache = {}

    def __getattr__(self, name):
        obj = getattr(self._module, name)
        if not _is_linalg_function(obj):
            return obj
        if name not in self._cache:
            self._cache[name] = self._tracer.wrap_linalg(obj, name)
        return self._cache[name]


class Tracer:
    """Records spans at plapreg's layer boundaries while installed."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list = []
        self._patches: list = []
        self._r2_min = None

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            main = threading.current_thread() is threading.main_thread()
            self._local.stack = self._main_stack if main else []
            return self._local.stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if stack is self._main_stack:
            return None
        # a worker thread (the eps sweep's pool) inherits the span the main
        # thread is blocked in
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def wrap(self, fn, name, via=None, attrs=None, result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if result is not None:
                    out = result(out)
            except BaseException:
                stack.pop()
                tracer.spans.append((sid, parent, name, via, tracer.op, t0, perf_counter(), None))
                raise
            t1 = perf_counter()
            stack.pop()
            # attributes are read after the span closed, outside its time
            info = None if attrs is None else attrs(args, kwargs, out)
            tracer.spans.append((sid, parent, name, via, tracer.op, t0, t1, info))
            return out

        return traced

    def wrap_linalg(self, fn, name):
        span = f"linalg.{name}"

        def factor(out):
            # splu and friends return an object whose solve does the work
            if hasattr(out, "solve") and not isinstance(out, np.ndarray):
                return _FactorProxy(out, self.wrap(out.solve, f"{span}.solve", "solver", _nnz))
            return out

        return self.wrap(fn, span, "solver", _nnz, factor)

    # -- installing ----------------------------------------------------------

    def _attrs_for(self, layer: str, name: str):
        if layer == "pointwise":
            return _elems
        if layer == "solver" and name == "solve":
            return _solve
        if name == "_line_search":
            return _line_search
        if name == "fit_smoothness_exponent":
            r2_min = self._r2_min

            def fit(args, kwargs, out):
                return {"r2": float(out.fit_r2),
                        "adjudicated": bool(r2_min is not None and out.fit_r2 >= r2_min)}
            return fit
        if layer == "fields" and name in IO_FUNCTIONS:
            return _io
        if name in CELL_FUNCTIONS:
            return _cells
        return None

    def install(self) -> None:
        """Wrap every traced binding in the plapreg modules already imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        exp = sys.modules.get("plapreg.experiments")
        self._r2_min = getattr(exp, "R2_MIN", None)
        for via in LAYERS:
            mod = sys.modules.get(f"plapreg.{via}")
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__.startswith("plapreg."):
                    if name.startswith("_") and (via, name) not in TRACED_PRIVATE:
                        continue
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrapped = self.wrap(obj, f"{layer}.{name}", via, self._attrs_for(layer, name))
                elif via == "solver" and _is_linalg_module(obj):
                    wrapped = _LinalgProxy(obj, self)
                elif via == "solver" and _is_linalg_function(obj):
                    wrapped = self.wrap_linalg(obj, name)
                else:
                    continue
                self._patches.append((mod, name, obj))
                setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def adopt(self, spans, op) -> None:
        """Append spans recorded in a child process, renumbered into this trace."""
        offset = next(self._ids)
        top = offset
        for s in spans:
            sid = s[SID] + offset
            parent = None if s[PARENT] is None else s[PARENT] + offset
            self.spans.append((sid, parent, s[NAME], s[VIA], op, s[START], s[END], s[ATTRS]))
            top = max(top, sid)
        self._ids = itertools.count(top + 1)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["span", "parent", "name", "via", "op", "start", "end", "attrs"])
            for s in self.spans:
                wr.writerow(list(s[:ATTRS]) + [json.dumps(s[ATTRS]) if s[ATTRS] else ""])


def layer_metrics(spans, n_ops: int, import_s=(), exit_codes=()) -> dict:
    """Per-operation layer metrics from the spans of n_ops traced operations.

    Times and counts are means per operation; ratios carry their base in the
    returned ``bases`` entry.  import_s and exit_codes come from traced CLI
    commands, one entry per command.
    """
    if n_ops < 1:
        raise ValueError("no traced operation")
    spans = list(spans)
    selfs = self_times((s[SID], s[PARENT], s[START], s[END]) for s in spans)
    by_id = {s[SID]: s for s in spans}

    def layer(s):
        return s[NAME].split(".", 1)[0]

    def parent_layer(s):
        p = by_id.get(s[PARENT])
        return None if p is None else layer(p)

    def self_s(name):
        return sum(selfs[s[SID]] for s in spans if layer(s) == name)

    def attr(s, key, default=0):
        return (s[ATTRS] or {}).get(key, default)

    linalg = [s for s in spans if layer(s) == "linalg"]
    nnz = [attr(s, "nnz") for s in linalg if s[ATTRS] and "nnz" in s[ATTRS]]
    solves = [s for s in spans if s[NAME] == "solver.solve"]
    searches = [s for s in spans if s[NAME] == "solver._line_search"]
    search_ids = {s[SID] for s in searches}
    energy = [s for s in spans if s[NAME] == "pointwise.L_eps" and s[VIA] == "solver"]
    pointwise_entries = [s for s in spans if layer(s) == "pointwise" and parent_layer(s) != "pointwise"]
    fits = [s for s in spans if s[NAME] == "smoothness.fit_smoothness_exponent"]
    io = [s for s in spans if layer(s) == "fields" and s[NAME].split(".", 1)[1] in IO_FUNCTIONS]
    accepted = sum(1 for s in searches if attr(s, "ok", False))
    adjudicated = sum(1 for s in fits if attr(s, "adjudicated", False))

    per_op = {
        "solver.linear_solve_s": self_s("linalg"),
        "solver.linear_solves": len(linalg),
        "solver.self_s": self_s("solver"),
        "solver.newton_iters": sum(attr(s, "iters") for s in solves),
        "solver.energy_evals": len(energy),
        "solver.ls_trials": sum(1 for s in energy if s[PARENT] in search_ids),
        "solver.unconverged": sum(1 for s in solves if s[ATTRS] and not s[ATTRS]["converged"]),
        "pointwise.calls": len(pointwise_entries),
        "pointwise.elems": sum(attr(s, "elems") for s in pointwise_entries),
        "pointwise.self_s": self_s("pointwise"),
        "smoothness.shift_norms": sum(1 for s in spans if s[NAME] == "smoothness.shift_difference_norm"),
        "smoothness.fits": len(fits),
        "smoothness.self_s": self_s("smoothness"),
        "fields.io_s": sum(selfs[s[SID]] for s in io),
        "fields.io_bytes": sum(attr(s, "bytes") for s in io),
        "fields.gradient_s": sum(selfs[s[SID]] for s in spans if s[NAME] == "fields.gradient"),
        "experiments.self_s": self_s("experiments"),
        "experiments.cells": sum(attr(s, "cells") for s in spans if layer(s) == "experiments"),
        "cli.import_s": sum(import_s),
        "cli.self_s": self_s("cli"),
        "cli.nonzero_exit": sum(1 for rc in exit_codes if rc != 0),
    }
    out = {k: v / n_ops for k, v in per_op.items()}
    out["solver.linear_nnz"] = sum(nnz) / len(nnz) if nnz else 0.0
    out["solver.ls_accept_ratio"] = accepted / len(searches) if searches else 0.0
    out["smoothness.adjudicated_ratio"] = adjudicated / len(fits) if fits else 0.0
    out["bases"] = {
        "ops": n_ops,
        "linear_solves_with_matrix": len(nnz),
        "line_searches": len(searches),
        "fits": len(fits),
    }
    return out
