"""One pass of one workload in a fresh process; prints one JSON line.

Started by ``run.py``; not meant to be run by hand, though it can be::

    PYTHONPATH=src python3 perfbench/child.py --workload table2 --seed 1 \
        --mode timed --spawned "$(python3 -c 'import time; print(time.monotonic())')"

Modes:

``timed``
    set up, run the pass (the timed region), check the outputs.
``setup``
    set up only, and report the set-up time.
``traced``
    like ``timed``, with every layer's entry points wrapped in spans
    (``tracing.py``); adds the per-layer metrics and writes the spans.

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process.  Both read CLOCK_MONOTONIC, so the set-up time includes
interpreter start-up.
"""

import os

# one thread for BLAS/OpenMP, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("timed", "setup", "traced"),
                    default="timed")
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace-out", default=None,
                    help="traced mode: where to write the spans")
    args = ap.parse_args(argv)

    t_import = time.perf_counter()
    import repro  # noqa: F401
    import workloads
    from repro.obs.profile import WORK

    wl = workloads.WORKLOADS[args.workload]()
    for mod in wl.modules:
        importlib.import_module(mod)
    import_s = time.perf_counter() - t_import

    tracer = None
    if args.mode == "traced":
        from tracing import SpanTracer

        tracer = SpanTracer().install(extra_modules=("workloads",))
    work_before = WORK.snapshot()

    inputs = wl.setup(args.seed)
    gc.collect()
    t0 = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"setup_s": t0 - args.spawned}))
        return 0

    wall0, cpu0 = time.perf_counter(), time.process_time()
    ops = wl.run(inputs)
    cpu1, wall1 = time.process_time(), time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    work = WORK.delta(work_before, WORK.snapshot())
    if tracer is not None:
        tracer.uninstall()

    problems = wl.check(inputs, ops)
    out = {
        "setup_s": t0 - args.spawned,
        "run_s": cpu1 - cpu0,
        "wall_s": wall1 - wall0,
        "peak_rss_mb": peak_rss_mb,
        **wl.totals(ops),
        "attempted": len(ops),
        "failed": sum(op.error is not None for op in ops),
        "problems": problems,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(
            work, import_s=import_s, region=(wall0, wall1)
        )
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
