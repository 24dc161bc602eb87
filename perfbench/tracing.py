"""Per-layer spans of ``repro``, recorded from outside the package.

Each layer's public entry points are wrapped by rebinding the name every
loaded module holds for them (``from .plan import plan_nest`` gives the
executor its own binding, so patching ``repro.engine.plan`` alone would
miss it); methods are wrapped on their class.  A span is (name, start,
end, parent); spans stay in memory and are written out when the pass
ends.  A layer's self time is its spans' durations minus the part their
child spans cover.

Counts come from the process-wide ``WORK`` counters (deltas over the
traced pass), from span counts, and from the results the wrapped calls
return (``RunResult``, ``ParallelRun``, ``ServeResult``).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

import numpy as np

#: layer -> [(module or "module:Class", attribute names)]; entries whose
#: module the pass never imported are skipped (their layer reads 0)
ENTRY_POINTS: dict[str, list[tuple[str, tuple[str, ...]]]] = {
    "workloads.build": [
        ("repro.workloads.registry", ("build_workload", "build_analytics")),
    ],
    "optimizer.build_version": [
        ("repro.optimizer.strategies", ("build_version",)),
        ("repro.optimizer.global_opt", ("optimize_program",)),
        ("repro.transforms.normalize", ("normalize_program",)),
    ],
    "optimizer.ilp": [("repro.optimizer.ilp", ("optimize_program_ilp",))],
    "dependence.analyze_nest": [
        ("repro.dependence.analyzer", ("analyze_nest",)),
    ],
    "engine.plan_nest": [("repro.engine.plan", ("plan_nest",))],
    "engine.executor": [
        ("repro.engine.executor:OOCExecutor", ("__init__", "run")),
    ],
    "engine.compute": [
        ("repro.engine.interpreter",
         ("run_element_loops", "run_element_loops_vectorized")),
    ],
    "runtime.record_runs": [
        ("repro.runtime.stats:IOContext", ("record_runs",)),
    ],
    "cache": [
        ("repro.cache.tile_cache:TileCache",
         ("lookup", "peek", "coverage", "fill_from", "insert",
          "evict_entry", "flush_overlapping", "invalidate_overlapping",
          "flush_all", "clear")),
        ("repro.serve.shared_cache:SharedTileCache",
         ("lookup", "insert", "invalidate")),
    ],
    "collective.plan": [
        ("repro.collective.planner", ("plan_nest_collective",)),
    ],
    "collective.sim": [("repro.collective.sim", ("simulate",))],
    "bounds.program_bounds": [
        ("repro.bounds.analysis", ("program_bounds",)),
    ],
    "obs.finalize": [
        ("repro.obs:Observability",
         ("finalize_drift", "finalize_optimality", "note_bounds",
          "add_sim_events", "record_nest_io", "record_redist")),
        ("repro.obs.report", ("render_report",)),
        ("repro.engine.executor", ("nest_records",)),
    ],
    "parallel.driver": [("repro.parallel.spmd", ("run_version_parallel",))],
    "serve.scheduler": [("repro.serve.scheduler:JobScheduler", ("run",))],
    "autotune.solve": [("repro.autotune.search", ("solve_joint",))],
    "autotune.model": [("repro.autotune.model", ("config_cost",))],
}


class SpanTracer:
    """Wraps entry points, records spans, folds them into layer metrics."""

    def __init__(self):
        #: (name, start, end, parent index or -1), in start order
        self.spans: list[tuple[str, float, float, int] | None] = []
        #: seconds of each span covered by its direct children
        self._covered: list[float] = []
        self._stack: list[int] = []
        #: counts read off the wrapped calls' return values
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []
        #: non-``repro`` modules whose bindings are rebound too
        self._extra: set[str] = set()

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, on_return=None) -> Callable:
        spans, covered, stack = self.spans, self._covered, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            covered.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                if parent >= 0:
                    covered[parent] += end - start
            if on_return is not None:
                on_return(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(self, name: str, fn: Callable, on_return=None) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module (and any other
        module passed through :meth:`install`'s ``extra`` list) that
        holds it."""
        wrapped = self.wrap(name, fn, on_return)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
                or mod_name in self._extra
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._rebind(mod, attr, wrapped)

    def patch_method(self, name: str, cls: type, attr: str, on_return=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(self.wrap(name, raw.__func__, on_return))
        else:
            new = self.wrap(name, raw, on_return)
        self._rebind(cls, attr, new)

    def install(self, extra_modules: tuple[str, ...] = ()) -> "SpanTracer":
        """Wrap every entry point of :data:`ENTRY_POINTS` whose module is
        loaded, plus every loaded backend file class's gather/scatter."""
        self._extra = set(extra_modules)
        hooks = self._hooks()
        for layer, targets in ENTRY_POINTS.items():
            for where, attrs in targets:
                mod_name, _, cls_name = where.partition(":")
                mod = sys.modules.get(mod_name)
                if mod is None:
                    continue
                for attr in attrs:
                    name = f"{layer}:{attr}"
                    hook = hooks.get(name)
                    if cls_name:
                        self.patch_method(
                            name, getattr(mod, cls_name), attr, hook
                        )
                    else:
                        self.patch_function(name, getattr(mod, attr), hook)
        base = importlib.import_module("repro.backends.base").BackendFile
        for cls in _subclasses(base):
            for attr in ("gather", "scatter"):
                if attr in cls.__dict__:
                    self.patch_method(
                        f"backends.io:{attr}", cls, attr, hooks[attr]
                    )
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _hooks(self) -> dict[str, Callable]:
        c = self.counts

        def run_result(_args, r):
            c["tiles"] += sum(nr.tiles_executed for nr in r.nest_runs)
            m = r.cache_metrics
            if m is not None:
                c["cache_hits"] += m.hits
                c["cache_misses"] += m.misses
                c["cache_evictions"] += m.evictions

        def parallel_run(_args, run):
            c["ranks"] += run.n_nodes
            if run.collective is not None:
                c["two_phase"] += sum(run.collective.chosen.values())

        def serve_result(_args, res):
            c["jobs"] += len(res.jobs)
            c["queue_wait_sim_s"] += sum(
                t.queue_delay_s for t in res.tenants.values()
            )
            if res.cache is not None:
                c["cache_hits"] += res.cache.hits
                c["cache_misses"] += res.cache.misses
                c["cache_evictions"] += res.cache.evictions

        def element_loops(_args, count):
            c["element_iters"] += count

        def gather(_args, out):
            c["bytes"] += out.nbytes

        def scatter(args, _out):
            f, _addresses, values = args
            c["bytes"] += int(np.size(values)) * f.dtype.itemsize

        return {
            "engine.executor:run": run_result,
            "parallel.driver:run_version_parallel": parallel_run,
            "serve.scheduler:run": serve_result,
            "engine.compute:run_element_loops": element_loops,
            "engine.compute:run_element_loops_vectorized": element_loops,
            "gather": gather,
            "scatter": scatter,
        }

    # -- folding ------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Self seconds per layer and span counts per entry point."""
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for idx, span in enumerate(self.spans):
            if span is None:  # still open (never, after a finished pass)
                continue
            name, start, end, _ = span
            self_s[name.partition(":")[0]] += end - start - self._covered[idx]
            calls[name] += 1
        return self_s, calls

    def coverage(self, start: float, end: float) -> float:
        """Share of the wall interval [start, end] inside root spans."""
        inside = 0.0
        for span in self.spans:
            if span is None or span[3] != -1:
                continue
            _, s, e, _ = span
            if e > start and s < end:
                inside += min(e, end) - max(s, start)
        return inside / (end - start) if end > start else 0.0

    def metrics(
        self,
        work: dict,
        *,
        import_s: float,
        region: tuple[float, float],
    ) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_s``, which
        needs the untraced pass.  ``work`` is the ``WORK`` delta over
        the traced pass; ``region`` the timed region's wall interval."""
        s, calls = self.self_times()
        c = self.counts
        loops = work.get("python_loop_iters", {})
        accesses = c["cache_hits"] + c["cache_misses"]
        return {
            "workloads.build_s": s["workloads.build"],
            "optimizer.build_version_s": s["optimizer.build_version"],
            "optimizer.build_version_calls":
                calls["optimizer.build_version:build_version"],
            "optimizer.ilp_s": s["optimizer.ilp"],
            "dependence.analyze_nest_s": s["dependence.analyze_nest"],
            "dependence.analyze_nest_calls":
                calls["dependence.analyze_nest:analyze_nest"],
            "engine.plan_nest_s": s["engine.plan_nest"],
            "engine.plan_nest_calls": calls["engine.plan_nest:plan_nest"],
            "engine.executor_s": s["engine.executor"],
            "engine.executor_runs": calls["engine.executor:run"],
            "engine.tiles": c["tiles"],
            "engine.compute_s": s["engine.compute"],
            "engine.element_iters": c["element_iters"],
            "engine.tile_iters": loops.get("tile", 0),
            "runtime.record_runs_s": s["runtime.record_runs"],
            "runtime.record_runs_calls":
                calls["runtime.record_runs:record_runs"],
            "runtime.plan_runs_calls": work["plan_runs_calls"],
            "runtime.priced_runs": work["priced_runs"],
            "backends.io_s": s["backends.io"],
            "backends.get_ops": calls["backends.io:gather"],
            "backends.put_ops": calls["backends.io:scatter"],
            "backends.bytes": c["bytes"],
            "cache.s": s["cache"],
            "cache.probes": work["cache_probes"],
            "cache.hits": c["cache_hits"],
            "cache.misses": c["cache_misses"],
            "cache.evictions": c["cache_evictions"],
            "cache.hit_ratio": c["cache_hits"] / accesses if accesses else 0.0,
            "collective.plan_s": s["collective.plan"],
            "collective.sim_s": s["collective.sim"],
            "collective.sim_events": work["sim_events"],
            "collective.two_phase_nests": c["two_phase"],
            "bounds.program_bounds_s": s["bounds.program_bounds"],
            "bounds.program_bounds_calls":
                calls["bounds.program_bounds:program_bounds"],
            "obs.finalize_s": s["obs.finalize"],
            "parallel.driver_s": s["parallel.driver"],
            "parallel.ranks": c["ranks"],
            "serve.scheduler_s": s["serve.scheduler"],
            "serve.jobs": c["jobs"],
            "serve.queue_wait_sim_s": c["queue_wait_sim_s"],
            "autotune.solve_s": s["autotune.solve"],
            "autotune.model_s": s["autotune.model"],
            "autotune.model_calls": calls["autotune.model:config_cost"],
            "setup.import_s": import_s,
            "trace.coverage": self.coverage(*region),
        }

    def write(self, path) -> None:
        """Write the spans as JSON lines of [name, start, end, parent]."""
        with open(path, "w") as f:
            for span in self.spans:
                if span is not None:
                    f.write(json.dumps(span) + "\n")


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
