"""Layer diff between two result sets of traced runs.

    python3 perfbench/compare.py BASE NEW [--top N]

``BASE`` and ``NEW`` are ``--out`` directories of ``perfbench/run.py``
(or their ``results`` subdirectories), each holding ``--trace 1`` runs.
For every workload present in both, the per-layer metrics are reduced
to their median over the seeds run, and the self-time and count deltas
are listed largest first, so a change can show where its saving
appears.  Seeds present on only one side are ignored.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory: str) -> dict:
    """workload -> seed -> per-layer metrics, traced runs only."""
    if os.path.isdir(os.path.join(directory, "results")):
        directory = os.path.join(directory, "results")
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            run = json.load(fh)
        if run.get("trace") == 1 and run.get("per_layer"):
            key = (run["workload"], run["size"])
            runs.setdefault(key, {})[run["seed"]] = run["per_layer"]
    return runs


def medians(by_seed: dict, seeds) -> dict:
    names = set().union(*(by_seed[s] for s in seeds))
    return {name: statistics.median(by_seed[s].get(name, 0.0)
                                    for s in seeds)
            for name in names}


def diff(base: dict, new: dict, top: int) -> list[str]:
    lines = []
    for key in sorted(set(base) & set(new)):
        seeds = sorted(set(base[key]) & set(new[key]))
        if not seeds:
            continue
        old, cur = medians(base[key], seeds), medians(new[key], seeds)
        workload, size = key
        wall_old = old.get("op.traced_wall_s", 0.0)
        wall_new = cur.get("op.traced_wall_s", 0.0)
        lines.append(f"{workload} ({size}, seeds {seeds}): traced op "
                     f"{wall_old:.4f}s -> {wall_new:.4f}s "
                     f"({wall_new - wall_old:+.4f}s)")
        names = sorted(set(old) | set(cur))
        for label, pick in (("self time (s per op)",
                             lambda n: n.endswith("_s")
                             and n != "op.traced_wall_s"),
                            ("counts (per op)",
                             lambda n: not n.endswith("_s"))):
            rows = [(cur.get(n, 0.0) - old.get(n, 0.0), n)
                    for n in names if pick(n)]
            rows = [r for r in rows if r[0]]
            rows.sort(key=lambda r: (-abs(r[0]), r[1]))
            lines.append(f"  {label}:")
            if not rows:
                lines.append("    (no change)")
            for delta, name in rows[:top]:
                lines.append(f"    {name:32s} {old.get(name, 0.0):12.5g} "
                             f"-> {cur.get(name, 0.0):12.5g}  "
                             f"({delta:+.5g})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--top", type=int, default=12)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    lines = diff(base, new, args.top)
    if not lines:
        print("no workload has traced runs on both sides with a common "
              "seed", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
