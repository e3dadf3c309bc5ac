"""Parallel builds: the ready set, hermetic workers and their pools.

The cutoff model makes units independent once the pids of their imports
are fixed (§5): a unit's compilation reads only its source text and the
statenvs of the units it imports.  A unit can therefore be decided and
compiled the moment its last in-graph import has settled, concurrently
with every other unit in the same position; :class:`ReadySet` tracks
exactly that, and the one dispatch loop
(:class:`repro.cm.supervise.Supervisor`) pumps it for serial, pooled,
unsupervised and supervised builds alike.

Determinism proof sketch (why ``--jobs N`` is byte-identical to serial):

1. The dispatch order is always a linear extension of the dependency
   DAG: :class:`ReadySet` offers a unit only after every in-graph
   import completed, so a unit is decided against its imports' final
   pids.  At ``jobs=1`` with the default name key the offers are one
   at a time, smallest name first -- exactly ``DepGraph.order``.
2. A pooled worker compiles a unit *hermetically*: it builds a fresh
   session, rehydrates the unit's transitive imports from their
   dehydrated payloads (in dependency order), and runs the same
   :func:`~repro.units.pipeline.compile_unit` the serial build runs in
   the parent session.
3. Export pids are *intrinsic*: stamps are alpha-converted and extern
   references are named by ``(pid, export index)``, so neither the pid
   nor the payload bytes depend on session history, process identity,
   or the order in which other units were compiled.
4. The parent applies each landed result by rehydrating the worker's
   payload into its own session and writing the same
   :class:`~repro.cm.store.BinRecord` a serial compile would write; the
   on-disk layout (one file pair per unit plus a sorted manifest) does
   not depend on application order.

Hence statenv, store contents and export pids are equal for every jobs
count, offer key and completion interleaving; the differential
determinism matrix in ``tests/cm/test_parallel_determinism.py`` checks
this byte-for-byte, under fault injection.

:func:`parallel_build` is the unsupervised entry point (first failure
raises :class:`ParallelBuildError`); :class:`WorkerFaults` is the
deterministic fault seam used by the crash and retry tests, applied
by :func:`inject_faults` on the pool workers and inline alike.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

from repro.cm.depend import DepGraph
from repro.cm.report import BuildReport, UnitOutcome
from repro.units.pipeline import compile_unit, load_unit
from repro.units.unit import PhaseTimes


class ParallelBuildError(Exception):
    """Compiling a unit failed in an unsupervised build.

    Worker exceptions are shipped back as (type name, message) rather
    than pickled exception objects, so a compile error on a process pool
    surfaces identically to one on a thread pool or inline.  ``name``
    identifies the failing unit.  A compile that ran inline in the
    parent session carries its own exception as ``__cause__``
    (:meth:`repro.cm.base.BaseBuilder.build` re-raises it).
    """

    def __init__(self, name: str, exc_type: str, message: str):
        super().__init__(f"{name}: {exc_type}: {message}")
        self.name = name
        self.exc_type = exc_type
        self.message = message


@dataclass(frozen=True)
class WorkerFaults:
    """Deterministic fault plan for builds (test seam).

    A compile of a unit in ``crash_units`` dies with
    :class:`~repro.cm.faults.InjectedCrash`; one of a unit in
    ``slow_units`` stalls for ``delay`` seconds first (slow-IO shape:
    the work completes late, it does not fail).

    Faults are *attempt-aware* so the supervisor's retries can be
    exercised deterministically: a crash/stall fires only while the
    attempt number is below ``crash_attempts``/``slow_attempts`` (the
    defaults reproduce the original always-fire behaviour under the
    unsupervised single-attempt build).  Units in ``poison_units``
    crash on *every* attempt -- the retry-budget-exhausted shape.  The
    attempt number rides inside the :class:`CompileTask` itself, so the
    plan works unchanged on process pools (no shared mutable state).
    """

    crash_units: frozenset = frozenset()
    slow_units: frozenset = frozenset()
    delay: float = 0.0
    crash_attempts: int = 1
    slow_attempts: int = 1
    poison_units: frozenset = frozenset()


def inject_faults(faults: WorkerFaults | None, name: str,
                  attempt: int) -> None:
    """Apply ``faults`` to attempt ``attempt`` of compiling ``name``:
    stall and/or raise :class:`~repro.cm.faults.InjectedCrash`.  Called
    by pool workers and inline compiles alike."""
    if faults is None:
        return
    if name in faults.slow_units and attempt < faults.slow_attempts:
        time.sleep(faults.delay)
    if name in faults.poison_units or (
            name in faults.crash_units and attempt < faults.crash_attempts):
        from repro.cm.faults import InjectedCrash

        raise InjectedCrash(
            f"worker killed compiling {name} (attempt {attempt})")


# -- the ready set -------------------------------------------------------


class ReadySet:
    """Scheduling state over a :class:`DepGraph`.

    Tracks, per unit, how many of its *in-graph* imports have not yet
    completed (imports outside the graph -- stable-library units,
    already live -- do not gate).  A unit with zero outstanding imports
    is *ready*; :meth:`pop` offers the first ready unit and
    :meth:`take` drains all of them, in offer order, each exactly once;
    :meth:`complete` retires a finished unit, releasing any dependents
    it was the last gate for.

    The dispatch sequence this induces is always a linear extension of
    the graph: a unit is offered only after ``complete`` was called for
    every in-graph import.  Completion means "this unit's fate is
    settled" -- compiled, loaded, cached, failed or skipped all count,
    which is how the supervisor propagates poison through the ready set
    without deadlocking.  Under the default key, popping one unit at a
    time and completing it before the next pop visits the units in
    exactly the order of ``DepGraph.order`` (smallest ready name
    first).

    ``key`` overrides the offer order (e.g.
    :func:`repro.obs.history.longest_first_key`: longest prior compile
    time first).  The order is pure scheduling: any offer order yields
    a linear extension, and record bytes are intrinsic per unit, so
    every key produces byte-identical stores
    (``tests/property/test_priority.py`` holds it to that).
    """

    def __init__(self, graph: DepGraph, key=None):
        self._graph = graph
        self._key = key if key is not None else str
        in_graph = set(graph.order)
        #: unit -> number of in-graph imports not yet completed.
        self._waiting: dict[str, int] = {
            name: sum(1 for dep in graph.deps.get(name, ())
                      if dep in in_graph)
            for name in graph.order
        }
        #: Heap of (offer key, name) over the ready, unoffered units.
        self._ready: list[tuple] = []
        for name, gates in self._waiting.items():
            if gates == 0:
                self._push(name)
        self._done: set[str] = set()

    def _push(self, name: str) -> None:
        heapq.heappush(self._ready, (self._key(name), name))

    def pop(self) -> str:
        """Offer the first ready unit (raises IndexError when none)."""
        return heapq.heappop(self._ready)[1]

    def take(self) -> list[str]:
        """Drain the currently ready units (offer order; offered
        once)."""
        return [self.pop() for _ in range(len(self._ready))]

    def complete(self, name: str) -> list[str]:
        """Retire ``name``; returns the units this made ready (offer
        order).  The newly ready units also join the ready set."""
        if name in self._done:
            return []
        self._done.add(name)
        released = []
        for dependent in self._graph.dependents.get(name, ()):
            gates = self._waiting.get(dependent)
            if gates is None:
                continue
            self._waiting[dependent] = gates - 1
            if gates - 1 == 0:
                released.append(dependent)
                self._push(dependent)
        return sorted(released, key=self._key)

    def has_ready(self) -> bool:
        return bool(self._ready)

    def outstanding(self) -> int:
        """Units not yet completed."""
        return len(self._waiting) - len(self._done)

    def all_done(self) -> bool:
        return not self.outstanding()


# -- the worker ----------------------------------------------------------
#
# Workers are hermetic: each carries its own Session and a cache of
# rehydrated units keyed by (name, pid), so repeated compiles do not
# re-pay rehydration.  State is thread-local, which covers both pool
# kinds: a process-pool worker is a single thread, a thread-pool worker
# must not share a session (stamp registries are not thread-safe) with
# siblings.


@dataclass(frozen=True)
class ClosureUnit:
    """One transitive import shipped to a worker: enough to rehydrate."""

    name: str
    pid: str
    deps: tuple[str, ...]  # direct import names, dependency order
    payload: bytes
    source_digest: str


@dataclass(frozen=True)
class CompileTask:
    name: str
    source: str
    imports: tuple[str, ...]  # direct import names, dependency order
    closure: tuple[ClosureUnit, ...]  # transitive imports, topo order
    faults: WorkerFaults | None = None
    #: Which attempt this dispatch is (0 = first try); consulted by the
    #: attempt-aware fault plan, echoed into the result for staleness
    #: checks by the supervisor.
    attempt: int = 0


@dataclass
class CompileResult:
    name: str
    export_pid: str = ""
    payload: bytes = b""
    source_digest: str = ""
    times: PhaseTimes = field(default_factory=PhaseTimes)
    #: Per-binding slice pids computed in the worker's hash phase
    #: (intrinsic, so identical to what a serial compile produces).
    binding_pids: dict = field(default_factory=dict)
    error: tuple[str, str] | None = None  # (exception type, message)
    #: Worker-side occupancy data: when the task ran (perf_counter
    #: domain, comparable across processes on this host) and on which
    #: worker ("pid/thread-ident").
    started: float = 0.0
    ended: float = 0.0
    worker: str = ""
    #: Echo of the task's attempt number (supervisor staleness checks).
    attempt: int = 0


_tls = threading.local()


def _worker_state():
    if getattr(_tls, "session", None) is None:
        from repro.units.session import Session

        _tls.session = Session()
        _tls.units = {}
    return _tls.session, _tls.units


def compile_task(task: CompileTask) -> CompileResult:
    """Compile one unit in a hermetic worker session.

    Never raises: failures (including injected ones) come back as
    ``result.error`` so a process pool and a thread pool report them
    the same way.
    """
    started = time.perf_counter()
    worker = f"w{os.getpid()}/{threading.get_ident()}"
    try:
        inject_faults(task.faults, task.name, task.attempt)
        session, cache = _worker_state()
        live = {}
        for dep in task.closure:
            unit = cache.get((dep.name, dep.pid))
            if unit is None:
                unit = load_unit(dep.name, dep.pid,
                                 [live[d] for d in dep.deps],
                                 dep.payload, session, dep.source_digest)
                cache[(dep.name, dep.pid)] = unit
            live[dep.name] = unit
        imports = [live[d] for d in task.imports]
        unit = compile_unit(task.name, task.source, imports, session)
        return CompileResult(task.name, unit.export_pid, unit.payload,
                             unit.source_digest, unit.times,
                             binding_pids=unit.binding_pids,
                             started=started,
                             ended=time.perf_counter(), worker=worker,
                             attempt=task.attempt)
    except Exception as err:
        return CompileResult(task.name,
                             error=(type(err).__name__, str(err)),
                             started=started,
                             ended=time.perf_counter(), worker=worker,
                             attempt=task.attempt)


def _probe() -> int:
    return 42


# -- executors -----------------------------------------------------------


def make_executor(jobs: int, pool: str = "process"):
    """An executor for ``jobs`` workers, or ``(None, "inline")``.

    ``pool`` is ``"process"`` (the default; probed, because process
    pools fail on platforms without working semaphores or fork/spawn),
    ``"thread"``, or ``"inline"`` (no pool: the engine compiles in the
    parent session, as it always does at ``jobs=1``).  Process-pool
    failure degrades to threads, never to an error.
    """
    if pool == "inline" or jobs <= 1:
        return None, "inline"
    if pool == "process":
        executor = None
        try:
            from concurrent.futures import ProcessPoolExecutor

            executor = ProcessPoolExecutor(max_workers=jobs)
            executor.submit(_probe).result(timeout=60)
            return executor, "process"
        except Exception:
            if executor is not None:
                # Don't leak the broken pool's workers when degrading.
                executor.shutdown(wait=False, cancel_futures=True)
            pool = "thread"
    if pool == "thread":
        return ThreadPoolExecutor(max_workers=jobs), "thread"
    raise ValueError(f"unknown pool kind {pool!r}")


def wait_first(futures, timeout: float | None = None) -> set:
    """Block until at least one of ``futures`` is done (or ``timeout``
    seconds pass); returns the done ones."""
    return wait(futures, timeout=timeout, return_when=FIRST_COMPLETED)[0]


# -- the unsupervised entry point ----------------------------------------


def parallel_build(builder, jobs: int = 2, pool: str = "process",
                   faults: WorkerFaults | None = None,
                   offer_key=None) -> BuildReport:
    """Bring ``builder``'s project up to date on ``jobs`` workers.

    The one ready-set engine (:class:`repro.cm.supervise.Supervisor`)
    under its fail-fast policy: each unit is decided the moment its
    last in-graph import lands, compiles run on the pool (inline in the
    parent session at ``jobs=1`` or ``pool="inline"``), and results are
    applied as they complete.  ``offer_key`` reorders the ready set's
    offers -- e.g. longest-prior-compile-first from a build profile
    (:func:`repro.obs.history.longest_first_key`); None keeps sorted
    name order.  Store bytes are identical for every jobs count and
    key.

    A failure raises :class:`ParallelBuildError` after every
    already-landed result was fully applied; the in-memory store then
    holds exactly a valid prefix of the build, and saving it degrades
    to the store's ordinary crash-safety guarantees.
    """
    from repro.cm.supervise import FAIL_FAST, Supervisor

    return Supervisor(jobs=jobs, pool=pool, faults=faults,
                      policy=FAIL_FAST, offer_key=offer_key).run(builder)


def _make_task(builder, graph: DepGraph, name: str,
               faults: WorkerFaults | None,
               attempt: int = 0) -> CompileTask:
    """Package one unit's compile: its source plus the dehydrated
    transitive import closure (stable-library units included)."""
    closure_names = _import_closure(builder, graph.deps[name])
    closure = tuple(
        ClosureUnit(
            name=dep,
            pid=builder.units[dep].export_pid,
            deps=tuple(n for n, _pid in builder.units[dep].imports),
            payload=builder.units[dep].payload,
            source_digest=builder.units[dep].source_digest,
        )
        for dep in closure_names
    )
    return CompileTask(name=name, source=builder.project.source(name),
                       imports=tuple(graph.deps[name]), closure=closure,
                       faults=faults, attempt=attempt)


def _import_closure(builder, roots: list[str]) -> list[str]:
    """Transitive imports of ``roots`` in dependency order (imports
    before importers), walking the live units' recorded import lists --
    which, unlike the project graph, also cover stable-library units."""
    order: list[str] = []
    seen: set[str] = set()
    stack: list[tuple[str, bool]] = [(r, False) for r in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for dep_name, _pid in reversed(builder.units[node].imports):
            if dep_name not in seen:
                stack.append((dep_name, False))
    return order


def _apply_result(builder, graph: DepGraph, name: str, reason: str,
                  result: CompileResult) -> UnitOutcome:
    """Land a worker's compile in the parent, exactly as a serial
    compile would have: rehydrate the payload into the parent session,
    write the record, run the builder's post-compile hook."""
    imports = [builder.units[d] for d in graph.deps[name]]
    unit = load_unit(name, result.export_pid, imports, result.payload,
                     builder.session, result.source_digest,
                     binding_pids=result.binding_pids)
    unit.times = result.times  # report the worker's compile timings
    previous = builder.store.get(name)
    pid_changed = (previous is None
                   or previous.export_pid != result.export_pid)
    builder.units[name] = unit
    builder.store.put(builder.make_record(name, unit))
    builder.on_compiled(name, graph)
    return UnitOutcome(name, "compiled", reason, pid_changed,
                       result.times)
