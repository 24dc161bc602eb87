"""Output checks of the benchmark's workloads.

Each check recomputes what the program reported from a source the
program did not use for it — the counts and the machine constants, the
paper's printed Table 2, the reference interpreter on the untransformed
program, a cache-off replay, the exhaustive layout solver — or tests a
property the method must have.  Every check returns a list of problem
strings; an empty list means the output passed.  The functions take
plain values, so ``test_checks.py`` can feed each one a corrupted output.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

#: percentage points around 100 % of ``col`` that read as "neutral" — the
#: band of the reproduction scorecard (EXPERIMENTS.md)
NEUTRAL_BAND = 7.5

#: relative/absolute tolerance of every floating-point comparison
TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


def rank_accounting(
    label: str,
    *,
    calls: int,
    elements: int,
    io_time_s: float,
    io_node_load: np.ndarray,
    io_latency_s: float,
    io_bandwidth_bps: float,
    element_size: int,
) -> list[str]:
    """One rank's I/O seconds equal the call-cost formula recomputed
    from its counts, and its per-I/O-node load sums to the same value."""
    expect = (
        calls * io_latency_s + elements * element_size / io_bandwidth_bps
    )
    out = []
    if not _close(io_time_s, expect):
        out.append(
            f"{label}: io_time_s {io_time_s!r} != calls*latency + "
            f"bytes/bandwidth {expect!r}"
        )
    load = float(np.sum(io_node_load))
    if not _close(load, io_time_s):
        out.append(
            f"{label}: per-I/O-node load sums to {load!r}, "
            f"io_time_s is {io_time_s!r}"
        )
    return out


def classify(pct: float) -> str:
    """Direction of a version's time as a percentage of ``col``."""
    if pct < 100 - NEUTRAL_BAND:
        return "improves"
    if pct > 100 + NEUTRAL_BAND:
        return "hurts"
    return "neutral"


def table2_against_paper(
    times: Mapping[str, Mapping[str, float]],
    paper: Mapping[str, Mapping[str, float]],
    paper_averages: Mapping[str, float],
) -> list[str]:
    """``times``: simulated seconds per code and version.  No cell may
    read "the paper improves, we hurt", and the order of the versions'
    average percentages must equal the paper's."""
    out = []
    pct: dict[str, dict[str, float]] = {}
    for code, row in sorted(times.items()):
        base = row["col"]
        if not base > 0:
            out.append(f"{code}: col time {base!r} is not positive")
            continue
        pct[code] = {v: 100.0 * t / base for v, t in row.items() if v != "col"}
        for v, p in sorted(pct[code].items()):
            if classify(paper[code][v]) == "improves" and classify(p) == "hurts":
                out.append(
                    f"{code}/{v}: paper improves ({paper[code][v]}%), "
                    f"measured hurts ({p:.1f}%)"
                )
    if out:
        return out
    versions = sorted(paper_averages)
    avg = {v: sum(pct[c][v] for c in pct) / len(pct) for v in versions}
    ours = sorted(versions, key=avg.get)
    theirs = sorted(versions, key=paper_averages.get)
    if ours != theirs:
        out.append(
            f"average ordering {' < '.join(ours)} differs from the "
            f"paper's {' < '.join(theirs)}"
        )
    return out


def arrays_match(
    label: str,
    got: Mapping[str, np.ndarray],
    expect: Mapping[str, np.ndarray],
) -> list[str]:
    """Every array equals the reference within rtol = atol = 1e-9."""
    out = []
    for name in sorted(expect):
        if name not in got:
            out.append(f"{label}: array {name} missing")
            continue
        a, b = np.asarray(got[name]), np.asarray(expect[name])
        if a.shape != b.shape:
            out.append(f"{label}: {name} shape {a.shape} != {b.shape}")
        elif not np.allclose(a, b, rtol=TOL, atol=TOL):
            err = float(np.max(np.abs(a - b)))
            out.append(f"{label}: {name} differs from the reference by {err:g}")
    return out


def report_matches_stats(
    label: str, report: Mapping[str, int], stats: Mapping[str, int]
) -> list[str]:
    """The obs report's call/element totals equal the folded stats
    exactly."""
    keys = ("read_calls", "write_calls", "elements_read", "elements_written")
    bad = [k for k in keys if report.get(k) != stats.get(k)]
    if not bad:
        return []
    return [
        f"{label}: report {k}={report.get(k)} != folded stats {stats.get(k)}"
        for k in bad
    ]


def bounds_below_measured(
    label: str, rows: Iterable[tuple[str, float | None, int]]
) -> list[str]:
    """``rows``: (nest, bound elements or None, measured elements).  A
    lower bound above the measured transfers is unsound; a report
    without rows checked nothing."""
    rows = list(rows)
    if not rows:
        return [f"{label}: the report has no bound rows"]
    return [
        f"{label}: nest {nest} bound {bound:g} > measured {measured}"
        for nest, bound, measured in rows
        if bound is not None and bound > measured
    ]


def serve_jobs(
    states: Mapping[int, str],
    stats: Mapping[int, Mapping[str, object]],
    reference: Mapping[int, Mapping[str, object]],
) -> list[str]:
    """Every job is done, and each job's folded stats equal those of
    the same job in a replay with the shared cache off."""
    out = [
        f"job {j}: state {s!r}, not done"
        for j, s in sorted(states.items()) if s != "done"
    ]
    for j in sorted(reference):
        if stats.get(j) != reference[j]:
            out.append(
                f"job {j}: stats {stats.get(j)} differ from the cache-off "
                f"replay {reference[j]}"
            )
    return out


def tune_decision(
    label: str,
    *,
    objective: float,
    exhaustive: float,
    total_s: float,
    revert_deltas: Mapping[str, float],
) -> list[str]:
    """The MILP objective equals the exhaustive optimum within 1e-9, and
    reverting any knob does not lower the predicted cost."""
    out = []
    if not math.isclose(objective, exhaustive, rel_tol=TOL, abs_tol=TOL):
        out.append(
            f"{label}: MILP objective {objective!r} != exhaustive "
            f"{exhaustive!r}"
        )
    slack = TOL * max(1.0, abs(total_s))
    out.extend(
        f"{label}: reverting {knob} lowers the predicted cost by {-d:g} s"
        for knob, d in sorted(revert_deltas.items())
        if d < -slack
    )
    return out
