"""Check that the deterministic metrics repeat across hash seeds.

Usage (from the repository root; a few minutes per workload)::

    python3 perfbench/determinism.py [workload ...]

Runs one traced pass of each workload under ``PYTHONHASHSEED`` 0, 1 and
2, each with a different ``--seed``, and compares ``sim_s``,
``io_calls``, ``io_elements`` and every per-layer metric that is not a
host time (counts, bytes, ratios, simulated seconds).  Prints the
metrics that differ and exits 1 if any do.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

HASH_SEEDS = (0, 1, 2)


def deterministic(result: dict, units: dict[str, str]) -> dict:
    out = {k: result[k] for k in bench.EXACT}
    out.update(
        (k, v) for k, v in result["layers"].items()
        if units[k] != "s" and not k.startswith("trace.")
    )
    return out


def main(argv: list[str]) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = argv or [w["name"] for w in spec["workloads"]]
    bad = 0
    for name in names:
        runs = []
        for i, hash_seed in enumerate(HASH_SEEDS):
            res = bench.spawn(
                name, 100 + i, "traced", time.monotonic() + 600,
                hash_seed=hash_seed,
            )
            if res["problems"] or res["failed"]:
                print(f"{name}: pass under PYTHONHASHSEED={hash_seed} "
                      f"failed its checks")
                bad += 1
            runs.append(deterministic(res, units))
        diffs = sorted(
            k for k in runs[0] if any(r[k] != runs[0][k] for r in runs[1:])
        )
        for k in diffs:
            print(f"{name}: {k} differs: {[r[k] for r in runs]}")
        print(f"{name}: {len(runs[0]) - len(diffs)} of {len(runs[0])} "
              f"deterministic metrics repeat across PYTHONHASHSEED "
              f"{HASH_SEEDS}")
        bad += len(diffs)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
