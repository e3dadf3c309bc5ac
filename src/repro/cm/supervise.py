"""The build engine: one supervised ready-set pump for every build.

Every build -- serial or ``--jobs N``, unsupervised or supervised,
batch or daemon-served -- runs through :class:`Supervisor`.  It pumps a
:class:`~repro.cm.parallel.ReadySet`: a unit is decided (the builder's
``decide`` seam) the moment its last in-graph import settles; a
compile runs on the worker pool, or inline in the parent session at
``jobs=1`` and on the inline rung of the degradation ladder.  The
:class:`SupervisePolicy` says what a failure means.  Unsupervised
builds use :data:`FAIL_FAST`: one attempt, and the first failure
raises :class:`~repro.cm.parallel.ParallelBuildError`.  Supervised
builds treat failure as an *event to schedule around*:

- **Retry with backoff.**  A failed attempt whose exception type is in
  the policy's ``retryable`` set is resubmitted after a capped
  exponential backoff, up to ``retries`` extra attempts per unit and
  ``retry_total`` across the whole build (the *typed retry budget*:
  deterministic compile errors are not retried at all).
- **Timeouts.**  With ``timeout`` set, an attempt that exceeds its
  wall-clock deadline is abandoned -- the hung worker keeps its slot
  until it dies on its own, but its eventual result is ignored as
  *stale* -- and the unit is rescheduled like any other failure.
- **Graceful degradation.**  A unit that exhausts its budget is
  *poisoned*: it is recorded as ``failed``, its dependents are
  ``skipped`` (ledger cause ``poison-import``, naming the culprit), and
  every independent subgraph builds to completion.  A dying pool
  degrades process -> thread -> inline instead of aborting.
- **Resume.**  With a ``checkpoint_dir``, the store is saved and a
  :class:`BuildJournal` of completed units written at every quiet
  point of the pump, so a killed build's next run (``resume=True``)
  reuses everything that finished -- the crash-safe store carries the
  artifacts, the journal proves which units completed and feeds the
  report's ``resumed`` count.

Everything the supervisor does is observable: ``retry`` / ``timeout`` /
``degrade`` / ``poison`` / ``skip`` events and ``retry-backoff`` spans
flow through the builder's meter, and every casualty gets a typed
ledger decision (``--explain`` says exactly why a unit was skipped).

Determinism: retries re-run the same compile, and export pids are
intrinsic, so a build that survives any number of transient faults
still produces byte-identical store contents to a clean serial build
(``tests/cm/test_supervise.py`` and the hypothesis property in
``tests/property/test_supervised.py`` check this).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from repro.cm.depend import DepGraph
from repro.cm.faults import FileSystem
from repro.cm.parallel import (
    CompileResult,
    ParallelBuildError,
    ReadySet,
    WorkerFaults,
    _apply_result,
    _make_task,
    compile_task,
    inject_faults,
    make_executor,
    wait_first,
)
from repro.cm.report import BuildReport, UnitOutcome
from repro.cm.store import JOURNAL_NAME, TMP_SUFFIX, StoreError
from repro.obs.ledger import explain_skip
from repro.obs.meter import NULL_METER

#: Exception *type names* retried by default: the transient family
#: (injected crashes, IO errors, timeouts, pool plumbing failures).
#: Deterministic compile errors -- parse/elaboration failures -- are
#: absent on purpose: retrying them burns budget to learn nothing.
DEFAULT_RETRYABLE = (
    "InjectedCrash", "TimeoutError", "OSError", "IOError",
    "BrokenProcessPool", "BrokenThreadPool", "BrokenExecutor",
    "ConnectionError", "ConnectionResetError", "EOFError",
)


@dataclass(frozen=True)
class SupervisePolicy:
    """How hard the supervisor fights for a build.

    ``retries`` is *extra attempts per unit* (0 = one attempt, no
    retry); ``retry_total`` caps retries across the whole build so a
    systemically-failing environment converges instead of thrashing.
    ``backoff_base * 2**attempt`` seconds, capped at ``backoff_cap``,
    separates attempts.  ``timeout`` (pooled builds only; the inline
    tier cannot preempt) is the per-attempt wall-clock deadline.
    ``retryable`` is the typed budget: exception *type names* worth
    retrying.  ``fail_fast`` replaces retry and poison with raising
    :class:`~repro.cm.parallel.ParallelBuildError` on the first
    failure -- the unsupervised build (:data:`FAIL_FAST`).
    """

    retries: int = 2
    retry_total: int = 16
    backoff_base: float = 0.01
    backoff_cap: float = 0.25
    timeout: float | None = None
    retryable: tuple = DEFAULT_RETRYABLE
    fail_fast: bool = False


#: The unsupervised build's policy: one attempt, first failure raises.
FAIL_FAST = SupervisePolicy(retries=0, retry_total=0, fail_fast=True)


class BuildJournal:
    """The resume journal: which units a (possibly killed) supervised
    build completed, and with what export pid.

    Rides as ``BUILD_JOURNAL.json`` inside the checkpoint/store
    directory (the store's load/prune paths know to leave it alone).
    All IO is best-effort through the store's ``FileSystem`` seam: a
    journal that cannot be written costs resumability, never the build.
    """

    def __init__(self, directory: str, fs: FileSystem):
        self.directory = directory
        self.fs = fs
        self.path = os.path.join(directory, JOURNAL_NAME)
        self.completed: dict[str, str] = {}  # unit name -> export pid

    @classmethod
    def load(cls, directory: str, fs: FileSystem) -> "BuildJournal":
        """Read a prior run's journal; damage or absence = empty."""
        journal = cls(directory, fs)
        try:
            data = json.loads(fs.read_bytes(journal.path).decode("utf-8"))
            completed = data["completed"]
            if data.get("format") == 1 and isinstance(completed, dict):
                journal.completed = {
                    str(k): str(v) for k, v in completed.items()}
        except Exception:
            pass  # no journal / torn journal: resume from the store alone
        return journal

    def mark(self, names, store) -> None:
        for name in names:
            record = store.get(name)
            self.completed[name] = (record.export_pid
                                    if record is not None else "")

    def write(self) -> bool:
        """Persist atomically (tmp + rename); False on failure."""
        payload = json.dumps(
            {"format": 1, "completed": dict(sorted(self.completed.items()))},
            indent=1, sort_keys=True).encode("utf-8")
        try:
            self.fs.write_bytes(self.path + TMP_SUFFIX, payload)
            self.fs.replace(self.path + TMP_SUFFIX, self.path)
            return True
        except OSError:
            return False

    def clear(self) -> None:
        """Remove the journal (the build completed; nothing to resume)."""
        try:
            self.fs.remove(self.path)
        except OSError:
            pass


#: The degradation ladder a dying pool walks down.
_NEXT_POOL = {"process": "thread", "thread": "inline", "inline": "inline"}


class Supervisor:
    """Drives one build through the ready-set pump (see module
    docstring).

    ``executor_factory`` is a test seam with :func:`make_executor`'s
    signature; ``max_waves`` stops the build after N checkpoints -- the
    deterministic stand-in for ``kill -9`` in the resume tests.
    ``offer_key`` reorders the ready set's offers (e.g. longest-first
    from a build profile); None keeps sorted name order.  Scheduling
    only -- store bytes are identical for every key.
    """

    def __init__(self, jobs: int = 2, pool: str = "process",
                 faults: WorkerFaults | None = None,
                 policy: SupervisePolicy | None = None,
                 resume: bool = False, checkpoint_dir: str | None = None,
                 max_waves: int | None = None,
                 executor_factory=make_executor,
                 keep_executor: bool = False,
                 offer_key=None):
        self.jobs = jobs
        self.pool = pool
        self.faults = faults
        self.policy = policy if policy is not None else SupervisePolicy()
        self.resume = resume
        self.checkpoint_dir = checkpoint_dir
        self.max_waves = max_waves
        self.executor_factory = executor_factory
        self.offer_key = offer_key
        #: When True the executor outlives the build -- the daemon's
        #: warm-pool seam (:mod:`repro.cm.daemon` hands a cached
        #: executor in via ``executor_factory`` and shuts it down at
        #: daemon shutdown).  A pool degradation flips this back off:
        #: the replacement pool belongs to this supervisor, not the
        #: caller, and the caller's cached pool is already dead.
        self.keep_executor = keep_executor
        self.executor = None
        self.using = "inline"
        #: unit -> the *root* poisoned unit whose failure took it down
        #: (a poisoned unit maps to itself).
        self.dead: dict[str, str] = {}
        self.retry_spent = 0
        self.report = BuildReport(jobs=jobs)
        self.journal: BuildJournal | None = None
        self.meter = NULL_METER

    # -- the build --------------------------------------------------------

    def build(self, builder) -> BuildReport:
        """The entry point of supervised and daemon-served builds:
        :meth:`run` under its own name.  ``BaseBuilder.build`` calls
        :meth:`run` directly, so a profiler wrapping both ``build``
        methods (``perfbench/tracing.py``) sees each build once."""
        return self.run(builder)

    def run(self, builder) -> BuildReport:
        """Bring ``builder``'s project up to date; returns the report."""
        meter = self.meter = getattr(builder, "meter", NULL_METER)
        t0 = time.perf_counter()
        report = self.report
        with meter.span("build", cat="build",
                        manager=type(builder).__name__, jobs=self.jobs,
                        supervised=not self.policy.fail_fast) as bsp:
            builder._begin_build()
            if builder._stable_pending:
                with meter.span("stable-load", cat="build"):
                    builder._load_pending_stables(report)
            with meter.span("analyze", cat="build"):
                t_analyze = time.perf_counter()
                graph = builder.analyze()
                report.analyze_seconds = time.perf_counter() - t_analyze
            self.executor, self.using = self.executor_factory(
                self.jobs, self.pool)
            report.pool = self.using
            bsp.set(pool=self.using, units=len(graph.order))
            if self.checkpoint_dir is not None:
                journal = BuildJournal.load if self.resume else BuildJournal
                self.journal = journal(self.checkpoint_dir,
                                       builder.store.fs)
            try:
                killed = self._pump(builder, graph)
                # Report outcomes in graph order, whatever order they
                # landed in, so a report reads the same at every jobs
                # count; ``dispatch_order`` keeps the actual sequence.
                # Stable-library outcomes (not in the graph) stay first.
                position = {name: k for k, name in enumerate(graph.order)}
                report.outcomes.sort(key=lambda o: position.get(o.name, -1))
                report.wall_seconds = time.perf_counter() - t0
            finally:
                if self.executor is not None and not self.keep_executor:
                    self.executor.shutdown(wait=True, cancel_futures=True)
            if self.journal is not None and not killed \
                    and not report.failed and not report.skipped:
                self.journal.clear()
            bsp.set(retries=report.retries, timeouts=report.timeouts,
                    degraded=report.degraded, failed=len(report.failed),
                    skipped=len(report.skipped), resumed=report.resumed)
        builder._finish_report(report)
        if meter.enabled:
            for key in ("retries", "timeouts", "degraded", "resumed"):
                value = getattr(report, key)
                if value:
                    meter.counter(f"supervise.{key}", value)
        return report

    # -- the pump ---------------------------------------------------------

    def _pump(self, builder, graph: DepGraph) -> bool:
        """The one dispatch loop: pump the ready set until every unit
        has settled.

        A unit is *admitted* (decided, then found cached, loaded, or
        compiled) when the ready set offers it.  Every fate -- applied,
        cached, loaded, failed, skipped -- completes the unit in the
        :class:`~repro.cm.parallel.ReadySet`, so poison flows through
        the graph: dependents of a poisoned unit become ready, are
        admitted, and are skipped with a ledger entry naming the
        culprit.  Pooled compiles land as their futures finish, in
        sorted name order within each batch; an inline compile
        completes before the next offer, so ``jobs=1`` admits exactly
        ``graph.order`` under the default key.

        Checkpointing happens at *quiet points*: whenever nothing is
        ready and at least one unit finished since the last
        checkpoint.  ``max_waves`` counts checkpoints.  Returns True
        when that simulated kill fired.
        """
        meter = self.meter
        policy = self.policy
        report = self.report
        ready = ReadySet(graph, key=self.offer_key)
        active: dict[str, tuple] = {}  # name -> (future, attempt, deadline, reason)
        queue: list[tuple] = []  # (resume_at, name, attempt, reason)
        done: list[str] = []  # settled since the last checkpoint
        failure: ParallelBuildError | None = None  # fail-fast: the first
        checkpoints = 0

        def finish(name: str, outcome: UnitOutcome) -> None:
            report.add(outcome)
            done.append(name)
            ready.complete(name)

        def fail(name: str, attempt: int, reason: str, exc_type: str,
                 message: str, cause: BaseException | None = None) -> None:
            nonlocal failure
            if policy.fail_fast:
                # Raised by the pump once the rest of this batch of
                # landed results has been applied.
                if failure is None:
                    failure = ParallelBuildError(name, exc_type, message)
                    failure.__cause__ = cause
                return
            retryable = exc_type in policy.retryable
            if retryable and attempt < policy.retries \
                    and self.retry_spent < policy.retry_total:
                self.retry_spent += 1
                report.retries += 1
                delay = min(policy.backoff_cap,
                            policy.backoff_base * (2 ** attempt))
                t = time.perf_counter()
                if meter.enabled:
                    meter.event("retry", cat="supervise", unit=name,
                                attempt=attempt + 1, kind=exc_type)
                    meter.complete_span("retry-backoff", t, t + delay,
                                        cat="supervise",
                                        track="supervisor", unit=name,
                                        attempt=attempt + 1,
                                        kind=exc_type)
                queue.append((t + delay, name, attempt + 1, reason))
            else:
                self._poison(builder, name, exc_type, message, attempt,
                             retryable)
                ready.complete(name)

        def land(name: str, attempt: int, reason: str,
                 result: CompileResult) -> None:
            if result.error is not None:
                fail(name, attempt, reason, *result.error)
                return
            if meter.enabled and result.worker:
                meter.complete_span("worker-compile", result.started,
                                    result.ended, cat="worker",
                                    track=result.worker, unit=name,
                                    attempt=result.attempt)
            with meter.span("apply", cat="unit", unit=name):
                outcome = _apply_result(builder, graph, name, reason,
                                        result)
            finish(name, outcome)

        def compile_inline(name: str, attempt: int, reason: str) -> None:
            # In the parent session, as a serial build always has: no
            # worker round trip, no second rehydration.
            imports = [builder.units[d] for d in graph.deps[name]]
            try:
                with meter.span("unit", cat="unit", unit=name,
                                action="compile") as sp:
                    inject_faults(self.faults, name, attempt)
                    outcome = builder.compile(name, imports, reason)
                    sp.set(action=outcome.action, reason=outcome.reason)
            except Exception as err:
                fail(name, attempt, reason, type(err).__name__, str(err),
                     err)
                return
            builder.on_compiled(name, graph)
            finish(name, outcome)

        def launch(name: str, attempt: int, reason: str) -> None:
            deadline = (time.perf_counter() + policy.timeout
                        if policy.timeout is not None else None)
            while self.executor is not None:
                try:
                    future = self.executor.submit(
                        compile_task,
                        _make_task(builder, graph, name, self.faults,
                                   attempt=attempt))
                except BaseException as err:
                    self._degrade(f"submit failed: "
                                  f"{type(err).__name__}: {err}")
                    continue
                active[name] = (future, attempt, deadline, reason)
                return
            compile_inline(name, attempt, reason)

        def admit(name: str) -> None:
            report.dispatch_order.append(name)
            culprit = self._poisoned_import(graph, name)
            if culprit is not None:
                self._skip(builder, name, culprit)
                ready.complete(name)
                return
            record = builder.store.get(name)
            imports = [builder.units[d] for d in graph.deps[name]]
            action, reason = builder.decide(name, graph, imports, record)
            builder.explain(name, action, reason, record, imports)
            if action == "compile":
                if meter.enabled:
                    meter.event("dispatch", cat="sched", unit=name,
                                seq=len(report.dispatch_order))
                launch(name, 0, reason)
                return
            if action == "cached":
                outcome = UnitOutcome(name, "cached", "up to date")
            else:
                with meter.span("unit", cat="unit", unit=name,
                                action="load") as sp:
                    outcome = builder.load(name, record, imports)
                    sp.set(action=outcome.action, reason=outcome.reason)
                if outcome.action == "compiled":
                    # Unreadable payload degraded to a recompile.
                    builder.explain(name, "compile", outcome.reason,
                                    None, imports)
                    builder.on_compiled(name, graph)
            if outcome.action != "compiled":
                self._count_resumed(name)
            finish(name, outcome)

        while True:
            while ready.has_ready() and failure is None:
                admit(ready.pop())
            if failure is not None:
                raise failure
            if done and self.journal is not None:
                self._checkpoint(builder, done)
                checkpoints += 1
                if self.max_waves is not None \
                        and checkpoints >= self.max_waves:
                    return True  # simulated kill (test seam)
            done.clear()
            if not active and not queue:
                return False
            t = time.perf_counter()
            due = [item for item in queue if item[0] <= t]
            if due:
                queue[:] = [item for item in queue if item[0] > t]
                for _at, name, attempt, reason in due:
                    launch(name, attempt, reason)
                continue
            if not active:
                time.sleep(max(0.0, min(
                    min(item[0] for item in queue) - t, 0.05)))
                continue
            if self.executor is None:
                # Degraded to inline mid-build: drain synchronously.
                for name in sorted(active):
                    _future, attempt, _deadline, reason = \
                        active.pop(name)
                    compile_inline(name, attempt, reason)
                continue
            deadlines = [entry[2] for entry in active.values()
                         if entry[2] is not None]
            timeout = 0.05
            if deadlines:
                timeout = max(0.0, min(min(deadlines) - t, timeout))
            finished = wait_first([entry[0] for entry in active.values()],
                                  timeout=timeout)
            t = time.perf_counter()
            for name in sorted(active):
                future, attempt, deadline, reason = active[name]
                if future in finished:
                    del active[name]
                    try:
                        result = future.result()
                    except BaseException as err:
                        # The pool itself died mid-flight: degrade the
                        # tier and rerun this very attempt (not charged
                        # to the unit's retry budget).
                        self._degrade(f"{type(err).__name__}: {err}")
                        launch(name, attempt, reason)
                        continue
                    land(name, attempt, reason, result)
                elif deadline is not None and t >= deadline:
                    # A hung worker: abandon the attempt (stale result
                    # ignored) and schedule the unit like a failure.
                    del active[name]
                    future.cancel()
                    report.timeouts += 1
                    if meter.enabled:
                        meter.event("timeout", cat="supervise",
                                    unit=name, attempt=attempt,
                                    deadline=policy.timeout)
                    fail(name, attempt, reason, "TimeoutError",
                         f"attempt {attempt} exceeded "
                         f"{policy.timeout:.3f}s wall clock")

    def _poisoned_import(self, graph: DepGraph, name: str) -> str | None:
        for dep in graph.deps.get(name, ()):
            if dep in self.dead:
                return self.dead[dep]
        return None

    def _count_resumed(self, name: str) -> None:
        if self.resume and self.journal is not None \
                and name in self.journal.completed:
            self.report.resumed += 1

    # -- casualties -------------------------------------------------------

    def _poison(self, builder, name: str, exc_type: str, message: str,
                attempt: int, retryable: bool) -> None:
        self.dead[name] = name
        why = ("retry budget exhausted" if retryable
               else "not a retryable failure")
        detail = (f"{exc_type}: {message} "
                  f"({why} after {attempt + 1} attempt(s))")
        builder.ledger.record(
            explain_skip(name, "failed-after-retries", detail=detail))
        self.report.add(UnitOutcome(name, "failed", detail))
        if self.meter.enabled:
            self.meter.event("poison", cat="supervise", unit=name,
                             kind=exc_type, attempts=attempt + 1)

    def _skip(self, builder, name: str, culprit: str) -> None:
        self.dead[name] = culprit
        detail = (f"an import chain leads to poisoned unit {culprit}; "
                  f"never attempted")
        builder.ledger.record(
            explain_skip(name, "poison-import", detail=detail,
                         culprit=culprit))
        self.report.add(UnitOutcome(name, "skipped", detail))
        if self.meter.enabled:
            self.meter.event("skip", cat="supervise", unit=name,
                             culprit=culprit)

    # -- pool degradation -------------------------------------------------

    def _degrade(self, why: str) -> None:
        """Walk one rung down the pool ladder (process -> thread ->
        inline), shutting the dying pool down without waiting."""
        old, old_kind = self.executor, self.using
        next_kind = _NEXT_POOL[old_kind]
        if old is not None:
            try:
                old.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
        if next_kind == "inline" or old_kind == "inline":
            self.executor, self.using = None, "inline"
        else:
            self.executor, self.using = make_executor(self.jobs,
                                                      next_kind)
        # Any replacement pool is ours to shut down, and a caller's
        # cached pool (daemon warm pool) is already dead.
        self.keep_executor = False
        self.report.degraded += 1
        self.report.pool = self.using
        if self.meter.enabled:
            self.meter.event("degrade", cat="supervise",
                             from_pool=old_kind, to_pool=self.using,
                             why=why)

    # -- checkpointing ----------------------------------------------------

    def _checkpoint(self, builder, done: list[str]) -> None:
        """Persist a quiet point: store save + journal update.  Best
        effort -- a full disk costs resumability, never the build."""
        try:
            builder.store.save_directory(self.checkpoint_dir)
        except StoreError as err:
            builder.health.notes.append(
                f"checkpoint save failed ({type(err).__name__}): {err}")
            if self.meter.enabled:
                self.meter.event("checkpoint-failed", cat="supervise",
                                 kind=type(err).__name__)
            return
        self.journal.mark(done, builder.store)
        if not self.journal.write():
            builder.health.notes.append(
                "checkpoint journal write failed; resume will fall "
                "back to the store alone")


def supervised_build(builder, jobs: int = 2, pool: str = "process",
                     faults: WorkerFaults | None = None,
                     policy: SupervisePolicy | None = None,
                     resume: bool = False,
                     checkpoint_dir: str | None = None,
                     max_waves: int | None = None,
                     executor_factory=make_executor,
                     offer_key=None) -> BuildReport:
    """Bring ``builder``'s project up to date under supervision.

    The same engine as :func:`repro.cm.parallel.parallel_build` -- same
    ready set, same decide seam, same byte-identical results -- but
    worker failures retry with backoff, hung workers time out and
    reschedule, poison units take down only their dependents, a dying
    pool degrades instead of aborting, and (with a ``checkpoint_dir``)
    the build is resumable after a kill.
    """
    supervisor = Supervisor(jobs=jobs, pool=pool, faults=faults,
                            policy=policy, resume=resume,
                            checkpoint_dir=checkpoint_dir,
                            max_waves=max_waves,
                            executor_factory=executor_factory,
                            offer_key=offer_key)
    return supervisor.build(builder)
