"""The benchmark's five workloads.

A workload builds its inputs from a seed (:meth:`Workload.setup`), runs
one pass of operations over them (:meth:`Workload.run`, the timed
region), folds the deterministic totals (:meth:`Workload.totals`) and
checks the outputs (:meth:`Workload.check`, after the timed region).

The seed draws the order in which a pass issues its operations and, on
``ooc-data``, the initial array values.  It never changes the set of
operations, so the simulated seconds and I/O totals are the same for
every seed; totals are summed in a fixed key order, so float sums do not
depend on the issue order either.  ``serve`` replays one fixed scenario:
its schedule depends on the order of the script's jobs, so the seed
cannot reorder anything there.
"""

from __future__ import annotations

import random
import sys
import traceback
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import checks
from repro import (
    VERSION_NAMES,
    CacheConfig,
    CollectiveConfig,
    OOCExecutor,
    build_version,
    build_workload,
    interpret_program,
    run_version_parallel,
)
from repro.experiments.harness import _scaled_params
from repro.experiments.paper_data import PAPER_TABLE2, PAPER_TABLE2_AVERAGES
from repro.obs import Observability, report_totals
from repro.obs.report import render_report
from repro.parallel.model import makespan

#: the paper's ten codes, in Table 1 order
CODES = tuple(PAPER_TABLE2)


@dataclass
class Outcome:
    """What one operation produced: its simulated seconds, its folded
    I/O stats, and whatever its check needs."""

    sim_s: float
    stats: object  # repro.runtime.IOStats
    data: object = None


@dataclass
class Op:
    key: tuple
    outcome: Outcome | None = None
    error: str | None = None


def attempt(key: tuple, fn: Callable[..., Outcome]) -> Op:
    """Run ``fn(*key)``; an exception marks the operation failed (with
    its traceback on stderr) instead of ending the pass."""
    try:
        return Op(key, fn(*key))
    except Exception as e:  # noqa: BLE001 - counted, reported, not hidden
        traceback.print_exc(file=sys.stderr)
        return Op(key, error=f"{type(e).__name__}: {e}")


def shuffled(keys: list, seed: int) -> list:
    keys = list(keys)
    random.Random(seed).shuffle(keys)
    return keys


def done(ops: list[Op]) -> list[Op]:
    """The operations that did not fail, in key order."""
    return sorted((op for op in ops if op.error is None), key=lambda o: o.key)


def io_counts(stats) -> dict[str, int]:
    return {
        "read_calls": stats.read_calls,
        "write_calls": stats.write_calls,
        "elements_read": stats.elements_read,
        "elements_written": stats.elements_written,
    }


class Workload:
    name = ""
    #: modules loaded only by this workload (imported before set-up)
    modules: tuple[str, ...] = ()

    def setup(self, seed: int):
        raise NotImplementedError

    def run(self, inputs) -> list[Op]:
        raise NotImplementedError

    def check(self, inputs, ops: list[Op]) -> list[str]:
        raise NotImplementedError

    def totals(self, ops: list[Op]) -> dict[str, float]:
        """Simulated seconds, I/O calls and elements moved, summed over
        the operations that did not fail, in key order."""
        ok = done(ops)
        return {
            "sim_s": sum(op.outcome.sim_s for op in ok),
            "io_calls": sum(op.outcome.stats.calls for op in ok),
            "io_elements": sum(op.outcome.stats.elements_moved for op in ok),
        }


@dataclass
class Sweep:
    params: object
    programs: dict
    keys: list


class Table2(Workload):
    """Ten codes x six versions on 16 SPMD ranks, simulate mode."""

    name = "table2"
    n, nodes = 128, 16

    def setup(self, seed):
        programs = {c: build_workload(c, self.n) for c in CODES}
        keys = [(c, v) for c in CODES for v in VERSION_NAMES]
        return Sweep(_scaled_params(self.n), programs, shuffled(keys, seed))

    def run(self, inputs):
        def one(code, version):
            cfg = build_version(
                version, inputs.programs[code], params=inputs.params,
                n_nodes=self.nodes,
            )
            run = run_version_parallel(cfg, self.nodes, params=inputs.params)
            return Outcome(run.time_s, run.total_stats, run.node_results)

        return [attempt(k, one) for k in inputs.keys]

    def check(self, inputs, ops):
        p = inputs.params
        out = []
        times: dict[str, dict[str, float]] = {}
        for op in done(ops):
            code, version = op.key
            times.setdefault(code, {})[version] = op.outcome.sim_s
            for rank, r in enumerate(op.outcome.data):
                out += checks.rank_accounting(
                    f"{code}/{version} rank {rank}",
                    calls=r.stats.calls,
                    elements=r.stats.elements_moved,
                    io_time_s=r.stats.io_time_s,
                    io_node_load=r.io_node_load,
                    io_latency_s=p.io_latency_s,
                    io_bandwidth_bps=p.io_bandwidth_bps,
                    element_size=p.element_size,
                )
        if len(done(ops)) == len(ops):  # the paper check needs every cell
            out += checks.table2_against_paper(
                times, PAPER_TABLE2, PAPER_TABLE2_AVERAGES
            )
        return out


@dataclass
class DataSweep(Sweep):
    initial: dict


class OocData(Workload):
    """Ten codes x (six versions + c-opt with the write-back tile cache
    and prefetch), one rank, memory backend: data really moves."""

    name = "ooc-data"
    n = 20
    configs = VERSION_NAMES + ("c-opt+cache",)

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        programs = {c: build_workload(c, self.n) for c in CODES}
        initial = {}
        for code, prog in programs.items():
            b = prog.binding()
            # positive values: no cancellation, so a reordered
            # reduction stays within the 1e-9 tolerance
            initial[code] = {
                a.name: rng.uniform(0.5, 1.5, a.shape(b)) for a in prog.arrays
            }
        keys = [(c, v) for c in CODES for v in self.configs]
        return DataSweep(
            _scaled_params(self.n), programs, shuffled(keys, seed), initial
        )

    def run(self, inputs):
        def one(code, config):
            version, _, cached = config.partition("+")
            cfg = build_version(
                version, inputs.programs[code], params=inputs.params
            )
            init = inputs.initial[code]
            ex = OOCExecutor(
                cfg.program, cfg.layouts, params=inputs.params,
                backend="memory", tiling=cfg.tiling,
                storage_spec=cfg.storage_spec, initial=init,
                cache=CacheConfig(prefetch=True) if cached else None,
            )
            res = ex.run()
            arrays = {name: ex.array_data(name) for name in init}
            return Outcome(makespan([res]), res.stats, arrays)

        return [attempt(k, one) for k in inputs.keys]

    def check(self, inputs, ops):
        out = []
        expect = {}
        for op in done(ops):
            code, config = op.key
            if code not in expect:
                expect[code] = interpret_program(
                    inputs.programs[code], initial=inputs.initial[code]
                )
            out += checks.arrays_match(
                f"{code}/{config}", op.outcome.data, expect[code]
            )
        return out


@dataclass
class ObservedData:
    report: dict
    bounds: list


class Observed(Workload):
    """The table2 set-up on three codes with ``Observability()`` on and
    two-phase collective I/O in ``auto`` mode under the event simulator;
    each run ends with the rendered report."""

    name = "observed"
    n, nodes = 128, 16
    codes = ("adi", "mxm", "trans")

    def setup(self, seed):
        programs = {c: build_workload(c, self.n) for c in self.codes}
        keys = [(c, v) for c in self.codes for v in VERSION_NAMES]
        return Sweep(_scaled_params(self.n), programs, shuffled(keys, seed))

    def run(self, inputs):
        collective = CollectiveConfig(mode="auto", simulator="event")

        def one(code, version):
            obs = Observability()
            cfg = build_version(
                version, inputs.programs[code], params=inputs.params,
                n_nodes=self.nodes,
            )
            run = run_version_parallel(
                cfg, self.nodes, params=inputs.params, obs=obs,
                collective=collective,
            )
            render_report(obs.report, obs.run_stats)
            bounds = [
                (r.nest, r.bound_elements, r.measured_elements)
                for r in obs.report.optimality
            ]
            data = ObservedData(report_totals(obs.report.records), bounds)
            return Outcome(run.time_s, run.total_stats, data)

        return [attempt(k, one) for k in inputs.keys]

    def check(self, inputs, ops):
        out = []
        for op in done(ops):
            label = "/".join(op.key)
            d = op.outcome.data
            out += checks.report_matches_stats(
                label, d.report, io_counts(op.outcome.stats)
            )
            out += checks.bounds_below_measured(label, d.bounds)
        return out


@dataclass
class Scenario:
    profile: object
    script: object
    policy: object


class Serve(Workload):
    """One seeded multi-tenant WFQ replay (3 tenants x 3 jobs, n=16)
    with the shared tile cache on.  Each job is one operation."""

    name = "serve"
    modules = ("repro.serve",)
    #: the demo generator's seed: fixed, see the module docstring
    scenario_seed = 0
    cache_budget = 8192

    def scenario(self, cache_budget: int) -> Scenario:
        from repro.serve import demo_scenario

        return Scenario(*demo_scenario(
            self.scenario_seed, n_tenants=3, jobs_per_tenant=3, n=16,
            cache_budget_elements=cache_budget, fairness="wfq",
        ))

    def setup(self, seed):
        return self.scenario(self.cache_budget)

    @staticmethod
    def replay(sc: Scenario):
        from repro.serve import JobScheduler

        return JobScheduler(sc.profile, sc.policy).run(sc.script)

    def run(self, inputs):
        try:
            result = self.replay(inputs)
        except Exception as e:  # noqa: BLE001 - every job counts failed
            traceback.print_exc(file=sys.stderr)
            err = f"{type(e).__name__}: {e}"
            return [Op(("job", i), error=err)
                    for i in range(len(inputs.script.jobs))]
        # every job carries the scenario's makespan: the scenario's
        # simulated seconds is that makespan, not a sum over jobs
        return [
            Op(("job", j.job_id),
               Outcome(result.makespan_s, j.stats, j.state))
            for j in result.jobs
        ]

    def totals(self, ops):
        ok = done(ops)
        stats = [op.outcome.stats for op in ok if op.outcome.stats is not None]
        return {
            "sim_s": max((op.outcome.sim_s for op in ok), default=0.0),
            "io_calls": sum(s.calls for s in stats),
            "io_elements": sum(s.elements_moved for s in stats),
        }

    def check(self, inputs, ops):
        ok = done(ops)
        if not ok:  # the replay raised: every job already counts failed
            return []
        reference = self.replay(self.scenario(0))
        return checks.serve_jobs(
            {op.key[1]: op.outcome.data for op in ok},
            {op.key[1]: stats_dict(op.outcome.stats) for op in ok},
            {j.job_id: stats_dict(j.stats) for j in reference.jobs},
        )


def stats_dict(stats) -> dict | None:
    """Folded stats without the cache counters (which only a cached
    replay has)."""
    if stats is None:
        return None
    d = stats.to_dict()
    d.pop("cache", None)
    return d


@dataclass
class TuneData:
    objective: float
    total_s: float
    deltas: dict


class Tune(Workload):
    """``solve_joint`` for the ten codes and the three analytics
    programs at N=32 on 4 ranks, each decision then run."""

    name = "tune"
    modules = ("repro.autotune",)
    n, nodes = 32, 4

    def setup(self, seed):
        from repro.workloads import analytics_names, build_analytics

        programs = {c: build_workload(c, self.n) for c in CODES}
        programs.update(
            (a, build_analytics(a, self.n)) for a in analytics_names()
        )
        params = replace(_scaled_params(self.n), n_io_nodes=4)
        keys = [(name,) for name in programs]
        return Sweep(params, programs, shuffled(keys, seed))

    def run(self, inputs):
        from repro.autotune import solve_joint

        def one(name):
            d = solve_joint(
                inputs.programs[name], params=inputs.params,
                n_nodes=self.nodes,
            )
            run = run_version_parallel(
                d.version_config(), self.nodes, params=inputs.params,
                **d.run_kwargs(),
            )
            data = TuneData(
                d.objective, d.predicted_cost_s,
                {k.knob: k.delta_s for k in d.knobs},
            )
            return Outcome(run.time_s, run.total_stats, data)

        return [attempt(k, one) for k in inputs.keys]

    def check(self, inputs, ops):
        from repro.optimizer.ilp import _build_models, solve_exhaustive
        from repro.transforms import normalize_program

        out = []
        for op in done(ops):
            (name,) = op.key
            prog = normalize_program(inputs.programs[name])
            b = prog.binding()
            models, dirs = _build_models(prog, b)
            _, _, exhaustive = solve_exhaustive(models, dirs, b)
            d = op.outcome.data
            out += checks.tune_decision(
                name, objective=d.objective, exhaustive=exhaustive,
                total_s=d.total_s, revert_deltas=d.deltas,
            )
        return out


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Table2, OocData, Observed, Serve, Tune)
}
