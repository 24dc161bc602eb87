"""Each output check passes a correct output and fails a corrupted one.

Run from the repository root::

    python3 -m pytest perfbench/test_checks.py -q

Correct outputs come from small real runs of ``repro``; each test then
corrupts one value the way a wrong program would and expects the check
to report it.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import workloads  # noqa: E402
from repro import (  # noqa: E402
    VERSION_NAMES,
    CollectiveConfig,
    OOCExecutor,
    build_version,
    build_workload,
    interpret_program,
    run_version_parallel,
)
from repro.experiments.harness import _scaled_params  # noqa: E402
from repro.experiments.paper_data import (  # noqa: E402
    PAPER_TABLE2,
    PAPER_TABLE2_AVERAGES,
)
from repro.obs import Observability, report_totals  # noqa: E402


@pytest.fixture(scope="module")
def parallel_run():
    params = _scaled_params(32)
    cfg = build_version("c-opt", build_workload("adi", 32), params=params,
                        n_nodes=4)
    return params, run_version_parallel(cfg, 4, params=params)


def _accounting(params, r, **override):
    kw = dict(
        calls=r.stats.calls,
        elements=r.stats.elements_moved,
        io_time_s=r.stats.io_time_s,
        io_node_load=r.io_node_load,
        io_latency_s=params.io_latency_s,
        io_bandwidth_bps=params.io_bandwidth_bps,
        element_size=params.element_size,
    )
    kw.update(override)
    return checks.rank_accounting("rank", **kw)


def test_rank_accounting(parallel_run):
    params, run = parallel_run
    for r in run.node_results:
        assert _accounting(params, r) == []
    r = run.node_results[0]
    assert _accounting(params, r, io_time_s=r.stats.io_time_s * (1 + 1e-6))
    assert _accounting(params, r, calls=r.stats.calls + 1)
    load = r.io_node_load.copy()
    load[0] += 1e-3
    assert _accounting(params, r, io_node_load=load)


def _paper_times():
    return {
        code: {
            v: row["col"] * (1 if v == "col" else row[v] / 100)
            for v in VERSION_NAMES
        }
        for code, row in PAPER_TABLE2.items()
    }


def test_table2_against_paper():
    assert checks.table2_against_paper(
        _paper_times(), PAPER_TABLE2, PAPER_TABLE2_AVERAGES
    ) == []
    # mxm c-opt improves in the paper; make it hurt
    times = _paper_times()
    times["mxm"]["c-opt"] = times["mxm"]["col"] * 1.2
    assert any(
        "mxm/c-opt" in p for p in checks.table2_against_paper(
            times, PAPER_TABLE2, PAPER_TABLE2_AVERAGES
        )
    )
    # h-opt slower than c-opt everywhere flips the average ordering
    # without any cell reading "hurts"
    times = _paper_times()
    for row in times.values():
        row["h-opt"] = row["c-opt"] * 1.05
    assert any(
        "ordering" in p for p in checks.table2_against_paper(
            times, PAPER_TABLE2, PAPER_TABLE2_AVERAGES
        )
    )


@pytest.fixture(scope="module")
def data_run():
    params = _scaled_params(12)
    prog = build_workload("mxm", 12)
    b = prog.binding()
    rng = np.random.default_rng(0)
    init = {a.name: rng.uniform(0.5, 1.5, a.shape(b)) for a in prog.arrays}
    cfg = build_version("c-opt", prog, params=params)
    ex = OOCExecutor(
        cfg.program, cfg.layouts, params=params, backend="memory",
        tiling=cfg.tiling, storage_spec=cfg.storage_spec, initial=init,
    )
    ex.run()
    got = {name: ex.array_data(name) for name in init}
    return got, interpret_program(prog, initial=init)


def test_arrays_match(data_run):
    got, expect = data_run
    assert checks.arrays_match("mxm", got, expect) == []
    name = sorted(expect)[0]
    bad = dict(got)
    bad[name] = got[name].copy()
    bad[name].flat[3] += 1e-6
    assert checks.arrays_match("mxm", bad, expect)
    del bad[name]
    assert checks.arrays_match("mxm", bad, expect)


@pytest.fixture(scope="module")
def observed_run():
    params = _scaled_params(32)
    obs = Observability()
    cfg = build_version("col", build_workload("trans", 32), params=params,
                        n_nodes=4)
    run = run_version_parallel(
        cfg, 4, params=params, obs=obs,
        collective=CollectiveConfig(mode="auto", simulator="event"),
    )
    return run, obs


def test_report_matches_stats(observed_run):
    run, obs = observed_run
    totals = report_totals(obs.report.records)
    stats = workloads.io_counts(run.total_stats)
    assert checks.report_matches_stats("trans", totals, stats) == []
    assert checks.report_matches_stats(
        "trans", {**totals, "write_calls": totals["write_calls"] + 1}, stats
    )


def test_bounds_below_measured(observed_run):
    _, obs = observed_run
    rows = [
        (r.nest, r.bound_elements, r.measured_elements)
        for r in obs.report.optimality
    ]
    assert rows and checks.bounds_below_measured("trans", rows) == []
    nest, _, measured = rows[0]
    assert checks.bounds_below_measured(
        "trans", [(nest, measured + 1.0, measured)]
    )
    assert checks.bounds_below_measured("trans", [])


def test_serve_jobs():
    from repro.serve import JobScheduler, demo_scenario

    def replay(cache):
        profile, script, policy = demo_scenario(
            0, n_tenants=2, jobs_per_tenant=2, n=8,
            cache_budget_elements=cache,
        )
        res = JobScheduler(profile, policy).run(script)
        return (
            {j.job_id: j.state for j in res.jobs},
            {j.job_id: workloads.stats_dict(j.stats) for j in res.jobs},
        )

    states, stats = replay(512)
    _, reference = replay(0)
    assert checks.serve_jobs(states, stats, reference) == []
    assert checks.serve_jobs({**states, 0: "failed"}, stats, reference)
    bad = {**stats, 1: {**stats[1], "read_calls": stats[1]["read_calls"] + 1}}
    assert checks.serve_jobs(states, bad, reference)


def test_tune_decision():
    from repro.autotune import solve_joint
    from repro.optimizer.ilp import _build_models, solve_exhaustive
    from repro.transforms import normalize_program

    prog = build_workload("adi", 16)
    params = replace(_scaled_params(16), n_io_nodes=4)
    d = solve_joint(prog, params=params, n_nodes=4)
    p = normalize_program(prog)
    b = p.binding()
    _, _, exhaustive = solve_exhaustive(*_build_models(p, b), b)
    deltas = {k.knob: k.delta_s for k in d.knobs}

    def run_check(**kw):
        args = dict(
            objective=d.objective, exhaustive=exhaustive,
            total_s=d.predicted_cost_s, revert_deltas=deltas,
        )
        args.update(kw)
        return checks.tune_decision("adi", **args)

    assert run_check() == []
    assert run_check(objective=d.objective * (1 + 1e-6) + 1e-6)
    assert run_check(revert_deltas={**deltas, "tile_sizes": -1e-3})
