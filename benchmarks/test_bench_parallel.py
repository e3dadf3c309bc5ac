"""Experiment P1 -- parallel builds (parallel-build PR).

A 40-unit layered workload built serially and with ``--jobs 4``.  Two
questions:

1. *Determinism at scale*: the parallel build's export pids must equal
   the serial build's exactly (the byte-level half of this claim lives
   in tests/cm/test_parallel_determinism.py; here we re-check pids on a
   workload an order of magnitude larger).
2. *Available parallelism*: how much concurrency does the DAG actually
   offer?  Reported as total compile work / the work on the DAG's
   critical path.

Wall-clock speedup is recorded but NOT asserted: this box advertises
``os.cpu_count()`` cores and CI containers routinely give exactly one,
where workers timeshare a single core and a process pool's pickling
only adds overhead.  The paper's determinism claim is scheduling-
independent, which is precisely what makes the number safe to report
rather than gate on.
"""

import os
import time

from repro.cm import CutoffBuilder
from repro.cm.depend import analyze
from repro.obs.critical import critical_path
from repro.workload import generate_workload, layered

from .conftest import print_table

LAYERS = [8, 8, 8, 8, 8]  # 40 units, 5 layers


def _workload():
    return generate_workload(layered(LAYERS, fan_in=2, seed=7),
                             helpers_per_unit=12)


def test_parallel_vs_serial_build(benchmark):
    rows = []

    def run():
        serial_wl = _workload()
        serial = CutoffBuilder(serial_wl.project)
        t0 = time.perf_counter()
        serial_report = serial.build()
        serial_s = time.perf_counter() - t0

        parallel_wl = _workload()
        parallel = CutoffBuilder(parallel_wl.project)
        t0 = time.perf_counter()
        parallel_report = parallel.build(jobs=4, pool="process")
        parallel_s = time.perf_counter() - t0

        assert ({n: u.export_pid for n, u in parallel.units.items()}
                == {n: u.export_pid for n, u in serial.units.items()})
        assert len(parallel_report.outcomes) == sum(LAYERS)

        # Available parallelism from the serial build's own timings:
        # total compile work vs the heaviest dependency chain.
        graph = analyze(serial_wl.project)
        compile_s = {o.name: o.times.compile_total()
                     for o in serial_report.outcomes}
        total_work = sum(compile_s.values())
        _chain, critical = critical_path(graph.order, graph.deps,
                                         compile_s)
        return (serial_s, parallel_s, parallel_report.pool,
                total_work, critical)

    serial_s, parallel_s, pool, total_work, critical = benchmark.pedantic(
        run, rounds=1, iterations=1)

    parallelism = total_work / critical if critical else 1.0
    rows = [
        ["serial", f"{serial_s:.3f}s", "1", "-"],
        [f"jobs=4 ({pool})", f"{parallel_s:.3f}s", "4",
         f"{serial_s / parallel_s:.2f}x"],
    ]
    print_table(
        f"P1: 40-unit layered build on {os.cpu_count()} core(s)",
        ["mode", "wall", "jobs", "speedup"], rows)
    print(f"DAG-available parallelism: {parallelism:.2f}x "
          f"(total work {total_work:.3f}s / "
          f"critical path {critical:.3f}s over {len(LAYERS)} layers)")

    benchmark.extra_info.update({
        "units": sum(LAYERS),
        "serial_wall_s": round(serial_s, 4),
        "parallel_wall_s": round(parallel_s, 4),
        "pool": pool,
        "cpu_count": os.cpu_count(),
        "dag_parallelism_x": round(parallelism, 3),
        "pids_identical": True,  # asserted above
    })
