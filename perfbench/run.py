"""T5 build benchmark: one workload per process, one JSON line of results.

Run from the repository root:

    python3 perfbench/run.py --workload t5-session --seed 42 \
        --seconds 30 --trace 0

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Scratch projects go under ``.perfbench/work`` and are
removed; results, span dumps and the exact-counter ledger go under
``.perfbench/out``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 42
HELD_OUT_SEED = 1994

#: name -> (jobs, runner kind).
WORKLOADS = {
    "t5-session": (1, "session"),
    "t5-warm-j2": (2, "warm"),
}
SETUP_REPEATS = 2
#: End-to-end times are scaled to a host on which
#: :func:`reference_loop` takes this long in a fresh interpreter.  The
#: speed of a shared host drifts by a third or more within minutes, and
#: a set-up or a batch op -- a fresh session, like the loop's fresh
#: interpreter -- slows down with the loop, so the scaled times compare
#: across runs where raw ones do not.  Raw times are always kept in the
#: results file.
REFERENCE_S = 0.25
#: The daemon's ops run in a warm heap and do not follow the fresh
#: interpreter's loop; each of them is scaled by :func:`op_reference`,
#: run in the benchmark's own process right before it, to a host on
#: which that takes ``OP_REFERENCE_S``.
OP_REFERENCE_S = 0.05
#: The daemon workload also times the fresh loop before every this
#: many ops, so the median that scales its ``setup_s`` has samples
#: from the whole run.
WARM_SAMPLE_EVERY = 10
MIN_OPS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="t5", choices=("t5", "small"),
                        help="project size (small is for smoke runs)")
    parser.add_argument("--plant", default="none",
                        choices=("none", "off-by-one", "stale-record"),
                        help="plant a fault the oracle must catch")
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench",
                                                       "out"),
                        help="directory for results, spans and ledger")
    return parser.parse_args(argv)


def tail(walls: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten ops beyond it, and that
    percentile; the median when there are too few ops for a tail.
    The percentile moves smoothly with the op count, so runs that
    manage a few ops more or less still report comparable tails."""
    ordered = sorted(walls)
    n = len(ordered)
    pct = max(50.0, 100.0 * (1 - 10 / n))
    pos = (n - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), pct


def reference_loop(n: int = 25_000) -> float:
    """Seconds this host takes for a fixed piece of pure-Python work
    (formatting, splitting, dict and list building) that shares no
    code with the program.  The collector is off so that only the
    interpreter's speed is timed.  :meth:`Run.sample_host` runs it in a
    fresh interpreter, so neither the benchmark's heap nor its peak
    memory is touched."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        parts = [f"val x{i} = (f {i} + g x{i - 1}) * {i % 7}"
                 for i in range(n)]
        tokens = " ".join(parts).split()
        table = {}
        for i, tok in enumerate(tokens):
            table[tok] = (i, tok.upper(), len(tok))
        nodes = [(tok, [k * 2 for k in range(len(tok))]) for tok in tokens]
        if len(nodes) != len(tokens) or not table:
            raise AssertionError("reference loop lost its work")
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def op_reference() -> float:
    """Five short reference loops, about 0.05 s in all: small pieces,
    so the garbage each leaves is freed before the next and the peak
    memory of the daemon workload hardly moves."""
    return sum(reference_loop(1_000) for _ in range(5))


def program_digest() -> str:
    """Digest of the program sources: the exact-counter ledger is only
    compared between runs of the same program."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def check_ledger(path: str, counts: dict) -> list[str]:
    """Compare this run's per-op exact counters with earlier runs of
    the same program, workload, size and seed; then merge them in."""
    try:
        with open(path, encoding="utf-8") as fh:
            ledger = json.load(fh)
    except (OSError, ValueError):
        ledger = {}
    errors = []
    for op, mine in counts.items():
        theirs = ledger.setdefault(op, {})
        for name, value in mine.items():
            if name in theirs and theirs[name] != value:
                errors.append(f"op {op}: {name} {value} != earlier "
                              f"run's {theirs[name]}")
            theirs[name] = value
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, sort_keys=True)
    os.replace(tmp, path)
    return errors


class Run:
    def __init__(self, args):
        self.args = args
        self.jobs, self.kind = WORKLOADS[args.workload]
        self.workdir = os.path.join(
            ROOT, ".perfbench", "work",
            f"{args.workload}-{args.seed}-{os.getpid()}")
        self.errors: list[str] = []
        self.failed = 0
        self.walls: list[float] = []
        self.links: list[float] = []
        self.recompiled: list[int] = []
        self.traced: list[int] = []
        self.exact: dict[str, dict] = {}
        self.runner = None
        self.project = None
        self.stale = {}
        self.reference: list[float] = []
        #: Per-op in-process reference loop times (daemon workload).
        self.op_reference: list[float] = []

    def sample_host(self) -> None:
        """Time the reference loop once, in a fresh interpreter."""
        here = os.path.dirname(os.path.abspath(__file__))
        probe = subprocess.run(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {here!r}); "
             f"import run; print(run.reference_loop())"],
            capture_output=True, text=True, check=True, timeout=60)
        self.reference.append(float(probe.stdout))

    def host_scale(self) -> float:
        return REFERENCE_S / statistics.median(self.reference)

    def scaled_walls(self, ops: list[int]) -> list[float]:
        """Wall times of ``ops`` on the reference host."""
        if self.kind == "warm":
            # The host's speed at op i is the median of the five probes
            # around it, so a probe that a hiccup slowed (one in twenty
            # or so takes twice as long) does not scale its op alone.
            probes = self.op_reference
            return [self.walls[i] * OP_REFERENCE_S
                    / statistics.median(probes[max(0, i - 2):i + 3])
                    for i in ops]
        scale = self.host_scale()
        return [self.walls[i] * scale for i in ops]

    # -- set-up ------------------------------------------------------------

    def setup_once(self):
        """Generate the project, write it, make one discarded op."""
        from workloads import (BatchRunner, DaemonRunner, T5Project,
                               export_pids)
        if self.runner is not None:
            self.runner.close()
        self.project = T5Project(self.args.size, self.args.seed,
                                 os.path.join(self.workdir, "src"))
        self.project.write()
        if self.kind == "warm":
            self.runner = DaemonRunner(self.project, self.jobs)
        else:
            self.runner = BatchRunner(self.project, self.jobs)
        result = self.runner.run()
        return result, (sorted(result.report.compiled),
                        export_pids(result.builder),
                        self.project.store_bytes())

    def setup(self) -> float:
        times, seen = [], []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            self.sample_host()
            t0 = time.perf_counter()
            result, signature = self.setup_once()
            times.append(time.perf_counter() - t0)
            seen.append(signature)
            result = None  # drop this set-up's session before the next
        if any(s != seen[0] for s in seen):
            self.errors.append("set-up ops differ between repeats")
        if self.args.plant == "stale-record":
            self.stale = {name: self.project.record_bytes(name)
                          for name in self.project.names}
        return statistics.median(times)

    # -- the timed loop ------------------------------------------------------

    def loop(self, rec):
        from workloads import EditScript, check_op
        script = EditScript(self.args.seed, len(self.project.names))
        offset = 1 if self.args.plant == "off-by-one" else 0
        edited: list[str] = []
        start = time.perf_counter()
        op = 0
        while True:
            elapsed = time.perf_counter() - start
            if len(self.walls) >= MIN_OPS and elapsed + statistics.median(
                    self.walls) > self.args.seconds:
                break  # the next op would likely end past the budget
            kind, k = script.next()
            expected = self.project.edit(kind, k)
            if kind != "none":
                self._splice_stale(edited, self.project.names[k])
                edited.append(self.project.names[k])
            if self.kind == "warm":
                if op % WARM_SAMPLE_EVERY == 0:
                    self.sample_host()  # for setup_s, between ops
                self.op_reference.append(op_reference())
            else:
                # A batch op drops the previous op's whole session:
                # collect it here so every op starts from the same heap.
                gc.collect()
                self.sample_host()
            traced = rec is not None and op % 2 == 1
            if traced:
                rec.begin_op(op)
            t0 = time.perf_counter()
            try:
                result = self.runner.run()
            except Exception as err:  # an op that raises is a failed op
                result = None
                self.errors.append(f"op {op} raised "
                                   f"{type(err).__name__}: {err}")
            self.walls.append(time.perf_counter() - t0)
            if traced:
                rec.end_op()
                self.traced.append(op)
            if result is None:
                self.failed += 1
            else:
                try:
                    errors = check_op(self.project, result, expected,
                                      offset)
                except Exception as err:  # e.g. a unit missing at link
                    errors = [f"check raised {type(err).__name__}: {err}"]
                if errors:
                    self.failed += 1
                    self.errors.extend(f"op {op}: {e}" for e in errors)
                if not traced:
                    self.links.append(result.link_s)
                self.recompiled.append(len(result.report.compiled))
                exact = {"recompiled": len(result.report.compiled),
                         "store_bytes": self.project.store_bytes()}
                if traced:
                    from tracing import exact_counts
                    exact.update(exact_counts(rec, op))
                self.exact[str(op)] = exact
            result = None  # drop this op's session before the next op
            op += 1

    def _splice_stale(self, edited: list[str], target: str) -> None:
        """Planted fault: put back the set-up generation's record of
        the last unit edited before, as if a stale bin file had been
        copied into the store."""
        if not self.stale:
            return
        for name in reversed(edited):
            if name != target:
                for filename, data in self.stale[name].items():
                    with open(os.path.join(self.project.bin_dir,
                                           filename), "wb") as fh:
                        fh.write(data)
                return

    # -- end-of-run checks ---------------------------------------------------

    def final_check(self) -> None:
        """The paper's claim, untimed: the store the ops left behind
        holds the export pids of a clean build of the final sources."""
        from workloads import clean_build_pids, store_pids
        self.runner.close()
        final = store_pids(self.project.bin_dir)
        clean = clean_build_pids(self.project.srcdir)
        if final != clean:
            diff = sorted(n for n in set(final) | set(clean)
                          if final.get(n) != clean.get(n))
            self.errors.append(f"final store pids differ from a clean "
                               f"build in {len(diff)} unit(s)")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    run = Run(args)
    rec = None
    try:
        setup_s = run.setup()
        if args.trace:
            from tracing import Recorder
            rec = Recorder()
        run.loop(rec)
        run.sample_host()
        store_bytes = run.project.store_bytes()
        run.final_check()
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ledger = os.path.join(
        args.out, "ledger",
        f"{args.workload}-{args.size}-{args.seed}-{args.plant}-"
        f"{program_digest()}.json")
    run.errors.extend(check_ledger(ledger, run.exact))

    walls = run.walls
    untraced_ops = [i for i in range(len(walls)) if i not in run.traced]
    untraced = [walls[i] for i in untraced_ops]
    tail_s, tail_pct = tail(untraced)
    raw_times = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(untraced),
        "op_tail_s": tail_s,
    }
    end_to_end = {
        "setup_s": setup_s * run.host_scale(),
        "op_p50_s": statistics.median(run.scaled_walls(untraced_ops)),
        "store_bytes": store_bytes,
        "peak_rss_mb": peak_rss_mb,
    }
    per_layer = {}
    if rec is not None:
        from tracing import layer_metrics
        per_layer = layer_metrics(rec, run.traced, dict(enumerate(walls)),
                                  len(run.project.names))
        traced_walls = [walls[i] for i in run.traced]
        per_layer["trace.overhead_ratio"] = (
            statistics.median(traced_walls) / raw_times["op_p50_s"])
        per_layer["host.reference_s"] = statistics.median(run.reference)
        per_layer["link_p50_s"] = (statistics.median(run.links)
                                   if run.links else 0.0)
        per_layer["op_tail_s"] = tail_s
        per_layer["op_fail_ratio"] = run.failed / len(walls)
        per_layer["recompiled_per_op"] = statistics.mean(run.recompiled)

    correct = not run.errors
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "plant": args.plant,
        "op_count": len(walls), "untraced_ops": len(untraced),
        "tail_percentile": tail_pct, "op_walls_s": walls,
        "traced_ops": run.traced, "errors": run.errors[:50],
        "untraced_entry_points": rec.missing if rec is not None else [],
        "end_to_end": end_to_end, "raw_times_s": raw_times,
        "host_reference_s": run.reference,
        "op_reference_s": run.op_reference,
        "per_layer": per_layer,
    }
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    if args.plant != "none":
        name += f"-{args.plant}"
    os.makedirs(os.path.join(args.out, "results"), exist_ok=True)
    with open(os.path.join(args.out, "results", name + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    if rec is not None:
        os.makedirs(os.path.join(args.out, "spans"), exist_ok=True)
        with open(os.path.join(args.out, "spans", name + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(rec.dump(), fh)

    for error in run.errors[:10]:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(walls)} ops, tail "
          f"percentile p{tail_pct:.1f} over {len(untraced)} untraced ops")
    computed = per_layer if args.trace else end_to_end
    metrics = {}
    for spec in declared_metrics(args.trace):
        if spec["name"] not in computed:
            print(f"error: metric {spec['name']} was not measured",
                  file=sys.stderr)
            return 2
        metrics[spec["name"]] = {"value": computed[spec["name"]],
                                 "unit": spec["unit"]}
    print(json.dumps({"correct": correct, "attempted": len(walls),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def declared_metrics(trace: int) -> list[dict]:
    """The metrics ``BENCHMARK.json`` declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


if __name__ == "__main__":
    sys.exit(main())
