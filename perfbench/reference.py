"""Recompute the reference figures of perfbench/README.md.

Usage (from the repository root; about ten minutes on two cores)::

    python3 perfbench/reference.py > perfbench/out/reference.md

Prints markdown tables, measured from scratch on the machine it runs on:

- obs on vs obs off per code: CPU seconds of the six versions of each
  Table 2 code on 16 ranks at n=128, plain (as ``table2`` runs them) and
  with ``Observability()`` plus two-phase collective I/O under the event
  simulator and the rendered report (as ``observed`` runs them);
- the ``serve`` scenario replayed with the shared tile cache off and on;
- ``import repro`` time in a fresh interpreter (median of five);
- wall vs CPU seconds of one pass of every workload, and the tracing
  overhead: CPU seconds of a traced pass minus an untraced one.

Each figure is a single measurement (a median where stated), so expect
run-to-run spread of a few percent on a shared machine.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402

SEED = 1


def cpu_s(fn) -> float:
    t = time.process_time()
    fn()
    return time.process_time() - t


def obs_on_off() -> list[str]:
    import workloads
    from repro import (
        VERSION_NAMES, CollectiveConfig, build_version, build_workload,
        run_version_parallel,
    )
    from repro.experiments.harness import _scaled_params
    from repro.obs import Observability
    from repro.obs.report import render_report

    n, nodes = workloads.Table2.n, workloads.Table2.nodes
    params = _scaled_params(n)
    collective = CollectiveConfig(mode="auto", simulator="event")

    def sweep(prog, observed: bool):
        for v in VERSION_NAMES:
            cfg = build_version(v, prog, params=params, n_nodes=nodes)
            if not observed:
                run_version_parallel(cfg, nodes, params=params)
                continue
            obs = Observability()
            run_version_parallel(
                cfg, nodes, params=params, obs=obs, collective=collective
            )
            render_report(obs.report, obs.run_stats)

    rows = [
        "| code | obs off (s) | obs on (s) | on / off |",
        "|---|---:|---:|---:|",
    ]
    for code in workloads.CODES:
        prog = build_workload(code, n)
        off = cpu_s(lambda: sweep(prog, False))
        on = cpu_s(lambda: sweep(prog, True))
        rows.append(f"| {code} | {off:.2f} | {on:.2f} | {on / off:.2f}x |")
    return rows


def serve_cache() -> list[str]:
    import workloads

    wl = workloads.Serve()
    off = cpu_s(lambda: wl.replay(wl.scenario(0)))
    on = cpu_s(lambda: wl.replay(wl.scenario(wl.cache_budget)))
    return [
        "| shared cache | replay CPU (s) |",
        "|---|---:|",
        f"| off | {off:.2f} |",
        f"| on ({wl.cache_budget} elements) | {on:.2f} |",
    ]


def import_time() -> list[str]:
    code = (
        "import time; t = time.perf_counter(); import repro; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    samples = [
        float(subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            stdout=subprocess.PIPE, text=True,
        ).stdout)
        for _ in range(5)
    ]
    return [f"`import repro`: {statistics.median(samples):.3f} s "
            f"(median of 5 fresh interpreters)"]


def passes() -> list[str]:
    rows = [
        "| workload | wall (s) | CPU (s) | traced CPU (s) | tracing overhead |",
        "|---|---:|---:|---:|---:|",
    ]
    for name in ("table2", "ooc-data", "observed", "serve", "tune"):
        deadline = time.monotonic() + 600
        plain = bench.spawn(name, SEED, "timed", deadline)
        traced = bench.spawn(name, SEED, "traced", deadline)
        over = traced["run_s"] - plain["run_s"]
        rows.append(
            f"| {name} | {plain['wall_s']:.2f} | {plain['run_s']:.2f} | "
            f"{traced['run_s']:.2f} | {over:+.2f} s "
            f"({100 * over / plain['run_s']:+.1f}%) |"
        )
    return rows


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main() -> int:
    print(f"Measured on {cpu_model()}, {os.cpu_count()} CPUs, "
          f"Python {platform.python_version()}.\n")
    for title, fn in (
        ("obs on vs off (six versions, 16 ranks, n=128)", obs_on_off),
        ("serve: shared tile cache off vs on", serve_cache),
        ("import time", import_time),
        ("one pass: wall vs CPU, and tracing overhead", passes),
    ):
        print(f"### {title}\n")
        print("\n".join(fn()))
        print()
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
