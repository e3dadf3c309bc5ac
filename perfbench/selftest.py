"""Self-test of the benchmark's own checks, on the small project.

    python3 perfbench/selftest.py

1. Every workload passes a smoke run, untraced and traced, on the
   default and the held-out seed, with no failed op.
2. A second run with the same seed repeats the exact counters
   bit-for-bit (the run itself fails when they differ).
3. Planted faults are caught: an expected value off by one fails every
   op of every workload, and a bin record from an older generation
   spliced into the store fails ops of every workload.
4. The layer diff reads the traced results.

Exits 0 when all of this holds.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402


def bench(out: str, workload: str, seed: int, trace: int = 0,
          plant: str = "none") -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "small", "--plant", plant,
         "--out", out],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, result


def main() -> int:
    out = os.path.join(ROOT, ".perfbench", "selftest")
    shutil.rmtree(out, ignore_errors=True)
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    try:
        for workload in WORKLOADS:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                for trace in (0, 1, 1):  # the repeat checks the ledger
                    rc, result = bench(out, workload, seed, trace)
                    expect(rc == 0 and result.get("correct") is True
                           and result.get("failed") == 0
                           and result.get("attempted", 0) >= 1,
                           f"{workload} seed {seed} trace {trace}: "
                           f"smoke run passes")
        for workload in WORKLOADS:
            for plant in ("off-by-one", "stale-record"):
                rc, result = bench(out, workload, DEFAULT_SEED,
                                   plant=plant)
                expect(rc == 1 and result.get("correct") is False
                       and result.get("failed", 0) > 0,
                       f"{workload} planted {plant}: op_fail_ratio > 0 "
                       f"({result.get('failed')}/"
                       f"{result.get('attempted')})")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "compare.py"), out, out],
            capture_output=True, text=True, timeout=60)
        expect(proc.returncode == 0 and "t5-session" in proc.stdout,
               "layer diff reads the traced results")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
