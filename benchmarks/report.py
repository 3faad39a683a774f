#!/usr/bin/env python3
"""Run every workload untraced, each in its own process, and print one table.

Usage, from the repository root:

    python3 benchmarks/report.py --seed 1 [--seconds 25]

The columns are the end-to-end metrics plus fail_frac, which is failed
requests over attempted requests and is carried in run.py's result as
``failed`` and ``attempted``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("release", "private_test", "accounting")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()
    rows, status = [], 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= not result["correct"]
        rows.append((workload, result))
    names = list(rows[0][1]["metrics"])
    units = [rows[0][1]["metrics"][n]["unit"] for n in names]
    header = ["workload", "requests", "correct", "fail_frac"] + [f"{n} [{u}]" for n, u in zip(names, units)]
    print("  ".join(f"{h:>18}" for h in header))
    for workload, r in rows:
        cells = [workload, str(r["attempted"]), str(r["correct"]), f"{r['failed'] / r['attempted']:.4f}"]
        cells += [f"{r['metrics'][n]['value']:.4f}" for n in names]
        print("  ".join(f"{c:>18}" for c in cells))
    return status


if __name__ == "__main__":
    sys.exit(main())
