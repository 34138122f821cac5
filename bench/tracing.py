"""In-process traced run: wraps the public functions of each ldlkit module
where the caller looks them up, and records one span per call.

Spans (id, parent id, trace id, name, start, end, attributes) are kept in
memory and written out as JSON lines when the run ends. ``layer_metrics``
turns the spans of one pass into per-layer counts, times and self times;
a span's self time is its duration minus the durations of its direct
children.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

from workloads import COMMANDS

SOLVER_STEPS = ("update_g", "svt", "update_w", "update_o", "update_multipliers")


def _fit_attrs(args, kwargs, result) -> dict:
    max_iters = result.model.hyperparams.max_iters
    capped = not result.converged and result.iterations_run >= max_iters
    return {"iters": result.iterations_run, "converged": bool(result.converged),
            "capped": capped}


def _load_attrs(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _update_o_attrs(args, kwargs, result) -> dict:
    """Operation count from the argument shapes: forming the n x n system
    (four products with inner dimension m), its Cholesky factor, and the
    triangular solves for n right-hand sides."""
    X, D = args[0], args[2]
    n, d = X.shape
    m = D.shape[0]
    return {"gflop": (2 * m * d * n + 8 * m * n * n + n ** 3 / 3 + 2 * n ** 3) / 1e9}


def _update_w_attrs(args, kwargs, result) -> dict:
    """Operation count from the argument shapes: X'O, the d x d system, the
    right-hand side, the Cholesky factor and the solves for m columns."""
    X, D = args[0], args[1]
    n, d = X.shape
    m = D.shape[0]
    return {"gflop": (2 * d * n * n + 4 * d * d * n + 4 * m * n * d + d ** 3 / 3
                      + 2 * d * d * m) / 1e9}


# (module, attribute looked up by the caller, span name, attribute function)
PATCHES = [
    *(("ldlkit.cli", f"cmd_{c}", f"cli.{c}", None) for c in ("synth", *COMMANDS)),
    ("ldlkit.cli", "fit", "solver.fit", _fit_attrs),
    ("ldlkit.cli", "predict", "solver.predict", None),
    ("ldlkit.cli", "save_model", "solver.save_model", None),
    ("ldlkit.cli", "load_model", "solver.load_model", None),
    ("ldlkit.cli", "evaluate", "metrics.evaluate", None),
    ("ldlkit.cli", "degrade", "degrade.degrade", None),
    ("ldlkit.cli", "render", "report.render", None),
    ("ldlkit.cli", "render_counts", "report.render_counts", None),
    ("ldlkit.data", "load_dataset", "data.load_dataset", _load_attrs),
    ("ldlkit.data", "save_dataset", "data.save_dataset", None),
    *((mod, "validate_distribution_matrix", "types.validate_distribution_matrix", None)
      for mod in ("ldlkit.data", "ldlkit.solver", "ldlkit.degrade")),
    ("ldlkit.solver", "degrade", "degrade.degrade", None),
    ("ldlkit.solver", "update_g", "solver.update_g", None),
    ("ldlkit.solver", "svt", "solver.svt", None),
    ("ldlkit.solver", "update_w", "solver.update_w", _update_w_attrs),
    ("ldlkit.solver", "update_o", "solver.update_o", _update_o_attrs),
    ("ldlkit.solver", "update_multipliers", "solver.update_multipliers", None),
]


class Tracer:
    """Records spans of wrapped calls; ``trace_id`` tags the current command."""

    def __init__(self):
        self.spans: List[dict] = []
        self.trace_id = 0
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                    "trace": self.trace_id, "name": name}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace each patched attribute by its traced wrapper, restoring on exit.
        Attributes a later version of the package no longer has are skipped."""
        saved = []
        try:
            for mod_name, attr, name, attrs in PATCHES:
                module = importlib.import_module(mod_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, attrs))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _aggregate(spans: List[dict]) -> Dict[str, dict]:
    child_time: Dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    agg: Dict[str, dict] = {}
    for s in spans:
        a = agg.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        dur = s["end"] - s["start"]
        a["calls"] += 1
        a["s"] += dur
        a["self_s"] += dur - child_time.get(s["id"], 0.0)
        for key, value in s.get("attrs", {}).items():
            a[key] = a.get(key, 0) + value
    return agg


def layer_metrics(spans: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of one pass over a workload's commands."""
    agg = _aggregate(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(name):
        return agg.get(name, empty)

    out: Dict[str, float] = {}
    for cmd in COMMANDS:
        out[f"cli.{cmd}.self_s"] = get(f"cli.{cmd}")["self_s"]
    load = get("data.load_dataset")
    out["data.load_dataset.calls"] = load["calls"]
    out["data.load_dataset.s"] = load["s"]
    out["data.load_dataset.mb_per_s"] = (
        load.get("bytes", 0) / 1e6 / load["s"] if load["s"] > 0 else 0.0)
    for name in ("types.validate_distribution_matrix", "degrade.degrade", "metrics.evaluate"):
        out[f"{name}.calls"] = get(name)["calls"]
        out[f"{name}.s"] = get(name)["s"]
    fit = get("solver.fit")
    iters = fit.get("iters", 0)
    out["solver.fit.calls"] = fit["calls"]
    out["solver.fit.s"] = fit["s"]
    out["solver.fit.self_s"] = fit["self_s"]
    out["solver.fit.iters"] = iters
    out["solver.fit.converged_ratio"] = (
        fit.get("converged", 0) / fit["calls"] if fit["calls"] else 0.0)
    capped_iters = sum(s["attrs"]["iters"] for s in spans
                       if s["name"] == "solver.fit" and s.get("attrs", {}).get("capped"))
    out["solver.fit.capped_iter_share"] = capped_iters / iters if iters else 0.0
    for step in SOLVER_STEPS:
        out[f"solver.{step}.calls"] = get(f"solver.{step}")["calls"]
        out[f"solver.{step}.self_s"] = get(f"solver.{step}")["self_s"]
    out["solver.update_o.gflop"] = get("solver.update_o").get("gflop", 0.0)
    out["solver.update_w.gflop"] = get("solver.update_w").get("gflop", 0.0)
    for name in ("predict", "save_model", "load_model"):
        out[f"solver.{name}.s"] = get(f"solver.{name}")["s"]
    out["report.render.s"] = get("report.render")["s"] + get("report.render_counts")["s"]
    return out
