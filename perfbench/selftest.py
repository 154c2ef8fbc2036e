"""Quick self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Runs a small draw of every workload, untraced and traced, and asserts that
each run reports every metric BENCHMARK.json names and that no job failed
(failed_frac == 0).
"""

from __future__ import annotations

import json
import subprocess
import sys

import workloads as wl

SMALL_DRAW = {"sweep-z": 4, "deep-z": 2, "deep-torsion": 3, "suites": 1}


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(wl.HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--limit", str(SMALL_DRAW[workload])]
    proc = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(wl.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {0: {m["name"] for m in bench["end_to_end"]},
                1: {m["name"] for m in bench["per_layer"]}}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            result = run(workload, trace)
            names = set(result["metrics"])
            assert names == expected[trace], \
                f"{workload} trace {trace}: missing {expected[trace] - names}, " \
                f"unexpected {names - expected[trace]}"
            failed_frac = result["failed"] / result["attempted"]
            assert failed_frac == 0 and result["correct"], \
                f"{workload} trace {trace}: failed_frac {failed_frac}"
            print(f"ok {workload} trace {trace}: {len(names)} metrics, "
                  f"{result['attempted']} jobs, failed_frac 0", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
