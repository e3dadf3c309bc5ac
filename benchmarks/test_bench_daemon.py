"""Experiment R2 -- what the resident daemon buys.

Two claims with numbers attached, persisted as ``BENCH_daemon.json``:

1. **Warm-request latency.**  A no-op request against a warm daemon
   (live builder, warm sessions, no store load) should answer far
   faster than the batch cold start it replaces (process boots, store
   loads, every unit rehydrates).  We measure both on a 40-unit
   workload and report the speedup -- printed and persisted, no CI
   gate (wall-clock ratios are machine-dependent).
2. **Worker occupancy.**  Ready-set dispatch keeps workers fed: a unit
   starts the moment its imports land, with no barrier waiting for a
   slow sibling.  We trace a ``jobs=4`` build and report
   ``worker_idle``'s occupancy.  (The committed ``BENCH_daemon.json``
   also holds the since-removed wave-barrier schedule's number.)
"""

import json
import os
import shutil
import tempfile
import time

from repro.cm import (
    BinStore,
    BuildDaemon,
    CutoffBuilder,
    Project,
    SupervisePolicy,
)
from repro.obs import Tracer, worker_idle
from repro.workload import fanout, generate_workload

from .conftest import print_table

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(REPO, "BENCH_daemon.json")

POLICY = SupervisePolicy(retries=1, backoff_base=0.001, backoff_cap=0.01)
SHAPE = fanout(38)  # 40 units: 1 base, 38 middle, 1 top
WARM_REQUESTS = 5


def write_tree(srcdir):
    workload = generate_workload(SHAPE, helpers_per_unit=1)
    os.makedirs(srcdir, exist_ok=True)
    for name in workload.project.names():
        with open(os.path.join(srcdir, name + ".sml"), "w",
                  encoding="utf-8") as fh:
            fh.write(workload.project.source(name))


def batch_noop_wall(srcdir):
    """One batch-style no-op run over an already-built tree: load the
    store, rebuild (all loaded), save -- the cold start every
    ``python -m repro.cm`` pays even when nothing changed."""
    bin_dir = os.path.join(srcdir, ".bin")
    t0 = time.perf_counter()
    store = BinStore.load_directory(bin_dir)
    builder = CutoffBuilder(Project.from_directory(srcdir), store=store)
    report = builder.build(jobs=4, pool="thread")
    store.save_directory(bin_dir)
    wall = time.perf_counter() - t0
    assert not report.compiled and not report.failed
    return wall


def test_cold_start_vs_warm_request(benchmark):
    """Batch no-op cold start vs the daemon's warm no-op request."""
    base = tempfile.mkdtemp(prefix="benchdaemon-")
    srcdir = os.path.join(base, "grp")

    def run():
        write_tree(srcdir)
        daemon = BuildDaemon(jobs=4, pool="thread", policy=POLICY)
        try:
            first = daemon.request(srcdir)  # populates store + builder
            assert len(first.report.compiled) == len(SHAPE)
            cold = min(batch_noop_wall(srcdir)
                       for _ in range(WARM_REQUESTS))
            warm_walls = []
            for _ in range(WARM_REQUESTS):
                reply = daemon.request(srcdir)
                assert len(reply.report.cached) == len(SHAPE)
                warm_walls.append(reply.wall_seconds)
        finally:
            daemon.shutdown()
        return cold, min(warm_walls)

    try:
        cold, warm = benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    speedup = cold / warm if warm else float("inf")

    print_table(
        "R2a: no-op latency, batch cold start vs warm daemon (40 units)",
        ["path", "best_of_5_s"],
        [["batch cold start", f"{cold:.4f}"],
         ["daemon warm request", f"{warm:.4f}"],
         ["speedup", f"{speedup:.1f}x"]],
    )
    payload = {
        "units": len(SHAPE),
        "jobs": 4,
        "cold_start_seconds": round(cold, 6),
        "warm_request_seconds": round(warm, 6),
        "speedup_ratio": round(speedup, 2),
    }
    benchmark.extra_info["latency"] = payload
    _merge_out("latency", payload)


def occupancy():
    tracer = Tracer()
    workload = generate_workload(SHAPE, helpers_per_unit=1)
    builder = CutoffBuilder(workload.project, meter=tracer)
    report = builder.build(jobs=4, pool="thread")
    assert len(report.compiled) == len(SHAPE)
    return worker_idle(tracer, jobs=4)


def test_ready_set_occupancy(benchmark):
    """Worker occupancy under ready-set dispatch."""
    ready = benchmark.pedantic(occupancy, rounds=1, iterations=1)

    print_table(
        "R2b: worker occupancy, jobs=4 (busy / jobs x build wall)",
        ["schedule", "busy_s", "wall_s", "idle_s", "occupancy"],
        [["ready-set", ready["busy_seconds"],
          ready["build_wall_seconds"], ready["idle_seconds"],
          ready["occupancy"]]],
    )
    payload = {"ready": ready}
    benchmark.extra_info["occupancy"] = payload
    _merge_out("occupancy", payload)


def _merge_out(key, payload):
    """Both tests write one file; merge so either order works."""
    data = {"schema": "bench-daemon/1"}
    if os.path.exists(OUT):
        try:
            with open(OUT, encoding="utf-8") as fh:
                data.update(json.load(fh))
        except (OSError, ValueError):
            pass
    data[key] = payload
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
