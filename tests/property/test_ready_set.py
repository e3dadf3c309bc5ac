"""Property tests for ready-set dispatch.

Four claims, over arbitrary DAGs:

1. The :class:`ReadySet` state machine itself is sound: every unit is
   offered exactly once, never before all its in-graph imports
   completed, and imports outside the graph never gate.
2. A ready-set build's recorded ``dispatch_order`` is a linear
   extension of the dependency graph -- no unit is decided before its
   imports -- and covers every unit exactly once.
3. A ``jobs=1`` build is the classic serial build: it dispatches
   exactly ``graph.order`` and compiles in the parent session, never
   through the worker code (``compile_task`` / ``_apply_result``).
4. A pooled ``jobs=4`` build produces the same final store bytes and
   export pids as that ``jobs=1`` build (and hence, by the matrix in
   ``tests/cm/test_parallel_determinism.py``, as every jobs count).
"""

import os
import shutil
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.cm import (
    BinStore,
    CutoffBuilder,
    DepGraph,
    ReadySet,
    parallel_build,
)
from repro.cm.depend import _topo_order
from repro.workload import generate_workload, random_dag


def graph_from_deps(deps_by_index):
    """A synthetic DepGraph from shape-style deps (no sources needed)."""
    names = [f"u{k:03d}" for k in range(len(deps_by_index))]
    deps = {names[k]: sorted(names[d] for d in deps_by_index[k])
            for k in range(len(names))}
    dependents = {n: [] for n in names}
    for name, imported in deps.items():
        for dep in imported:
            dependents[dep].append(name)
    return DepGraph(deps=deps,
                    dependents={n: sorted(d)
                                for n, d in dependents.items()},
                    order=_topo_order(names, deps))


dags = st.builds(
    random_dag,
    n=st.integers(min_value=1, max_value=24),
    max_deps=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)


@given(dags)
@settings(max_examples=120, deadline=None)
def test_ready_set_offers_each_unit_once_after_its_imports(
        deps_by_index):
    graph = graph_from_deps(deps_by_index)
    ready = ReadySet(graph)
    completed: set = set()
    offered: list = []
    while not ready.all_done():
        batch = ready.take()
        assert batch == sorted(batch)
        assert batch, "ready set stalled with units outstanding"
        for name in batch:
            # Never offered before every in-graph import completed.
            for dep in graph.deps[name]:
                assert dep in completed
        offered.extend(batch)
        for name in batch:
            ready.complete(name)
            completed.add(name)
    # Exactly once each, nothing left behind.
    assert sorted(offered) == sorted(graph.order)
    assert len(offered) == len(set(offered))
    assert ready.outstanding() == 0


@given(dags)
@settings(max_examples=60, deadline=None)
def test_ready_set_skips_imports_outside_the_graph(deps_by_index):
    """Stable-library imports (not in the graph) must not gate: drop
    the first unit and every survivor still gets offered."""
    graph = graph_from_deps(deps_by_index)
    if len(graph.order) < 2:
        return
    dropped = graph.order[0]
    kept = [n for n in graph.order if n != dropped]
    trimmed = DepGraph(
        deps={n: graph.deps[n] for n in kept},  # still names `dropped`
        dependents={n: [d for d in graph.dependents[n] if d != dropped]
                    for n in kept},
        order=kept)
    ready = ReadySet(trimmed)
    offered = []
    while not ready.all_done():
        batch = ready.take()
        assert batch
        offered.extend(batch)
        for name in batch:
            ready.complete(name)
    assert sorted(offered) == sorted(kept)


@given(dags)
@settings(max_examples=60, deadline=None)
def test_completing_a_unit_releases_exactly_its_last_gated_dependents(
        deps_by_index):
    """complete() returns precisely the dependents this completion was
    the final gate for -- the invariant the dispatch loops rely on to
    never poll."""
    graph = graph_from_deps(deps_by_index)
    ready = ReadySet(graph)
    completed: set = set()
    ready.take()
    for name in graph.order:  # topological, so always completable
        released = ready.complete(name)
        completed.add(name)
        for dependent in released:
            assert all(dep in completed
                       for dep in graph.deps[dependent])
            assert name in graph.deps[dependent]
        # Idempotent: completing again releases nothing twice.
        assert ready.complete(name) == []


@given(dags)
@settings(max_examples=10, deadline=None)
def test_ready_build_dispatch_order_is_a_linear_extension(
        deps_by_index):
    workload = generate_workload(deps_by_index, helpers_per_unit=1)
    builder = CutoffBuilder(workload.project)
    report = parallel_build(builder, jobs=4, pool="inline")
    graph = builder.last_graph
    order = report.dispatch_order
    assert sorted(order) == sorted(graph.order)
    position = {name: k for k, name in enumerate(order)}
    for name in graph.order:
        for dep in graph.deps[name]:
            assert position[dep] < position[name], (
                f"{name} dispatched before its import {dep}")


@given(dags)
@settings(max_examples=10, deadline=None)
def test_serial_build_dispatches_graph_order_inline(deps_by_index):
    import repro.cm.supervise as engine  # calls both by module global

    calls = {"compile_task": 0, "_apply_result": 0}

    def counting(name):
        original = getattr(engine, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return mock.patch.object(engine, name, counted)

    workload = generate_workload(deps_by_index, helpers_per_unit=1)
    builder = CutoffBuilder(workload.project)
    with counting("compile_task"), counting("_apply_result"):
        report = builder.build()
    assert report.dispatch_order == builder.last_graph.order
    assert len(report.compiled) == len(builder.last_graph.order)
    assert report.pool == "inline"
    assert calls == {"compile_task": 0, "_apply_result": 0}


@given(dags)
@settings(max_examples=8, deadline=None)
def test_ready_build_matches_wavefront_store_bytes(deps_by_index):
    """A pooled jobs=4 build against the jobs=1 build (the name is kept
    from when this compared against wavefront dispatch)."""
    def flow(jobs, store_dir):
        def run(builder):
            if jobs == 1:
                return builder.build()
            return parallel_build(builder, jobs=jobs, pool="thread")

        workload = generate_workload(deps_by_index, helpers_per_unit=1)
        builder = CutoffBuilder(workload.project)
        run(builder)
        builder.store.save_directory(store_dir)
        # Incremental pass too: edit the root, rebuild warm-store.
        workload.edit_interface("u000")
        builder = CutoffBuilder(workload.project,
                                store=BinStore.load_directory(store_dir))
        run(builder)
        builder.store.save_directory(store_dir)
        pids = {n: u.export_pid for n, u in builder.units.items()}
        files = {}
        for entry in sorted(os.listdir(store_dir)):
            if entry.endswith(".rlock") or entry == "store.lock":
                continue
            with open(os.path.join(store_dir, entry), "rb") as fh:
                files[entry] = fh.read()
        return pids, files

    base = tempfile.mkdtemp(prefix="readyprop-")
    try:
        serial = flow(1, os.path.join(base, "serial"))
        pooled = flow(4, os.path.join(base, "pooled"))
        assert pooled == serial
    finally:
        shutil.rmtree(base, ignore_errors=True)
