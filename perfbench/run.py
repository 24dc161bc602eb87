"""Host-time benchmark of ``repro``: one command, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 10 --trace 0

Each pass of the workload runs in a fresh interpreter (``child.py``), so
no work is reused between passes and every pass pays its own set-up.
Passes repeat until ``--seconds`` have gone by (at least one); set-up is
sampled at least three times, with set-up-only processes where there
were fewer passes.  Times are medians over the samples.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics (the difference of the two passes' CPU seconds is the
tracing overhead).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it describe each pass, and problems found by the checks go to
standard error.  The exit code is non-zero, and no result is printed,
when a pass cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-up samples per run (passes plus set-up-only processes)
SETUP_SAMPLES = 3
#: a run ends within this many seconds (runs must end within 180 s)
RUN_LIMIT_S = 170.0
#: the deterministic metrics: equal in every pass, or the run is wrong
EXACT = ("sim_s", "io_calls", "io_elements")


class BenchError(RuntimeError):
    """A pass could not run; the run ends without a result."""


def spawn(workload: str, seed: int, mode: str, deadline: float,
          trace_out: Path | None = None, hash_seed: int = 0) -> dict:
    """Run one ``child.py`` pass and return its JSON result."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED=str(hash_seed),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} pass")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{mode} pass of {workload} exited with code {proc.returncode}"
        )
    return json.loads(lines[-1])


def measure(spec: dict, args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    problems: list[str] = []
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        base = spawn(args.workload, args.seed, "timed", deadline)
        traced = spawn(
            args.workload, args.seed, "traced", deadline,
            trace_out=out_dir / f"trace-{args.workload}-{args.seed}.jsonl",
        )
        passes = [base, traced]
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["run_s"] - base["run_s"]
        wanted = spec["per_layer"]
    else:
        passes = []
        start = time.monotonic()
        while True:
            t = time.monotonic()
            passes.append(spawn(args.workload, args.seed, "timed", deadline))
            now = time.monotonic()
            # stop at --seconds, or when another pass would overrun
            if now - start >= args.seconds or now + (now - t) > deadline:
                break
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(
                spawn(args.workload, args.seed, "setup", deadline)["setup_s"]
            )
        values = {
            "setup_s": statistics.median(setups),
            **{
                k: statistics.median(p[k] for p in passes)
                for k in ("run_s", "peak_rss_mb")
            },
            **{k: passes[0][k] for k in EXACT},
        }
        wanted = spec["end_to_end"]
    for i, p in enumerate(passes, 1):
        print(
            f"pass {i}: attempted={p['attempted']} failed={p['failed']} "
            f"setup_s={p['setup_s']:.3f} run_s={p['run_s']:.3f} "
            f"wall_s={p['wall_s']:.3f} sim_s={p['sim_s']!r} "
            f"io_calls={p['io_calls']} io_elements={p['io_elements']}"
        )
        problems += p["problems"]
        for k in EXACT:
            if p[k] != passes[0][k]:
                problems.append(
                    f"pass {i}: {k}={p[k]!r} differs from pass 1's "
                    f"{passes[0][k]!r}"
                )
    for line in problems[:50]:
        print(f"problem: {line}", file=sys.stderr)
    if len(problems) > 50:
        print(f"... and {len(problems) - 50} more problems", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"passes did not report {missing}")
    return {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(spec, args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
