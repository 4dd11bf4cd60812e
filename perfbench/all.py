#!/usr/bin/env python3
"""Run every workload and print every metric by name, with unit and sample count.

Usage, from the root of a lanekit checkout:

    python3 perfbench/all.py

For each seed (the README's 7 and a held-out one) each workload runs
untraced and then traced, for BENCHMARK.json's `run_seconds`.  The command exits non-zero
when an operation fails on any seed, or when a traced run's output
fingerprints differ from its untraced pass, which would mean the
tracing wrappers changed behaviour.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("readme-pipeline", "long-drive", "detector-sequence")
SEEDS = (7, 1009)


def run_one(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return None, None, proc.stderr.strip()[-1000:]
    return json.loads(lines[-2]), json.loads(lines[-1]), None


def main() -> int:
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    ok = True
    print(f"{'workload':18} {'seed':>5} {'trace':>5} {'metric':32} {'value':>16} {'unit':6} {'n':>4}")
    for seed in SEEDS:
        for workload in WORKLOADS:
            for trace in (0, 1):
                detail, result, error = run_one(workload, seed, seconds, trace)
                if detail is None:
                    print(f"{workload:18} {seed:>5} {trace:>5} run failed: {error}")
                    ok = False
                    continue
                rows = [(name, m["value"], m["unit"], "") for name, m in result["metrics"].items()]
                for name, stage in detail["stages"].items():
                    rows.append((name, stage["value"], stage["unit"], stage["n"]))
                for name, value in detail["quality"].items():
                    rows.append((name, value, "m" if name.endswith("_m") else "", ""))
                rows.append(("failed_fraction", result["failed"] / result["attempted"], "ratio",
                             result["attempted"]))
                if trace:
                    rows.append(("fingerprints_match", detail["fingerprints_match"], "", ""))
                for name, value, unit, n in rows:
                    shown = f"{value:16.6g}" if isinstance(value, (int, float)) and not isinstance(value, bool) \
                        else f"{value!s:>16}"
                    print(f"{workload:18} {seed:>5} {trace:>5} {name:32} {shown} {unit:6} {n!s:>4}")
                if not result["correct"]:
                    print(f"{workload:18} {seed:>5} {trace:>5} FAILED: {detail['failures'][:3]}")
                    ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
