"""The build daemon: a resident compilation service.

The paper's Visible Compiler thesis is that the compiler is a library
any client can drive.  Batch ``python -m repro.cm`` drives it once and
exits, paying a cold start every run: fresh sessions, a full store
load, dependency re-analysis from scratch.  :class:`BuildDaemon` keeps
all of that warm across requests:

- **Warm builders.**  One builder (session + live units + dep cache)
  per (group, manager) survives between requests, so an unchanged unit
  is a ``cached`` verdict -- no store read, no rehydration.  Worker
  pools persist too (``Supervisor``'s ``keep_executor`` seam), which
  keeps the workers' own thread-local sessions and rehydrated import
  closures warm (:func:`repro.cm.parallel.compile_task`'s
  ``(name, pid)``-keyed cache).
- **Incremental refresh.**  Sources are re-read only when their
  ``(mtime_ns, size)`` signature moved
  (:meth:`~repro.cm.faults.FileSystem.stat_signature`); the store is
  reloaded only when its on-disk
  :meth:`~repro.cm.store.BinStore.disk_signature` moved (another
  process wrote it).  A *touch* -- new mtime, identical text -- leaves
  the in-memory project untouched, exactly as a batch run would see no
  digest change.
- **Byte identity.**  Daemon-served builds leave the same store bytes
  (records, manifest, export pids) a fresh batch build would.  The
  one non-obvious part is the record header's ``built_at`` logical
  clock: on any real text change the daemon rebuilds a *fresh*
  :class:`~repro.cm.project.Project` from the current sources instead
  of ticking the old one, so its clock always equals what
  ``Project.from_directory`` would produce.  The differential matrix
  in ``tests/cm/test_daemon_determinism.py`` holds the daemon to this
  byte-for-byte.
- **Supervised builds.**  Requests build on the supervised ready-set
  engine (:class:`~repro.cm.supervise.Supervisor`), so retries,
  timeouts, poison quarantine, checkpoints/``--resume`` and the
  explanation ledger all work for daemon-served builds.
- **Coalescing.**  Duplicate in-flight requests -- same group, same
  manager/jobs/pool -- join the build already running and get its
  report; disjoint groups build concurrently under per-group locks.
- **Startup sweep.**  First contact with a group's store sweeps a
  killed prior run's debris (stale ``BUILD_JOURNAL.json``, orphaned
  ``.rlock``s with dead owners) via
  :func:`repro.cm.store.sweep_stale_artifacts`.

The stdio front end (``python -m repro.cm --serve``) speaks
newline-delimited JSON, one request object in, one ``sort_keys``
response object out (see :func:`serve`); the wire format is golden
tested in ``tests/cm/test_daemon_requests.py``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field

from repro.cm.manager import CutoffBuilder
from repro.cm.make import TimestampBuilder
from repro.cm.parallel import WorkerFaults, make_executor
from repro.cm.project import Project
from repro.cm.report import BuildReport
from repro.cm.smart import SmartBuilder
from repro.cm.store import BinStore, sweep_stale_artifacts
from repro.cm.supervise import SupervisePolicy, Supervisor
from repro.obs.diff import diff_against_profile
from repro.obs.history import (
    BuildHistory,
    longest_first_key,
    profile_from_report,
)
from repro.obs.meter import NULL_METER

#: The manager table the CLI and the daemon share.
MANAGERS = {
    "cutoff": CutoffBuilder,
    "make": TimestampBuilder,
    "smart": SmartBuilder,
}

#: Wire-protocol version spoken by :func:`serve` (bumped on any
#: incompatible change to the request/response shapes).
PROTOCOL_VERSION = 1

SOURCE_SUFFIX = ".sml"


class DaemonError(Exception):
    """A request the daemon cannot serve (bad group, bad manager,
    daemon already shut down).  Build *failures* are not errors: they
    come back inside the report like any supervised build."""


@dataclass
class DaemonReply:
    """One request's answer: the group it was for, the build report
    (the coalesced joiners share the leader's report object), and how
    the daemon got there."""

    group: str
    report: BuildReport
    request_id: int
    #: True when this request joined a build another client started.
    coalesced: bool = False
    #: True when the store was reloaded from disk because its
    #: signature moved (another process wrote it).
    store_reloaded: bool = False
    #: How many source files were re-read (stat signature moved or
    #: first contact).
    sources_refreshed: int = 0
    #: Debris removed by the startup sweep (first request only).
    swept: list[str] = field(default_factory=list)
    wall_seconds: float = 0.0


class _Inflight:
    """One in-flight build that later duplicate requests may join."""

    __slots__ = ("done", "joined", "joiners", "report", "error")

    def __init__(self):
        self.done = threading.Event()
        #: Set the moment the first joiner arrives -- a deterministic
        #: hook for the coalescing tests (the leader's build can wait
        #: on it to force the race).
        self.joined = threading.Event()
        self.joiners = 0
        self.report: BuildReport | None = None
        self.error: BaseException | None = None


@dataclass
class _GroupState:
    """Everything the daemon keeps warm for one source directory."""

    srcdir: str
    bin_dir: str
    lock: threading.Lock
    opened: bool = False
    project: Project | None = None
    store: BinStore | None = None
    #: The configured store backend (None = auto-detected local layout;
    #: created lazily from the daemon's store_backend/store_url).
    backend: object = None
    #: manager name -> warm builder (session, live units, dep cache).
    builders: dict = field(default_factory=dict)
    #: source filename -> (mtime_ns, size) at last read.
    stats: dict = field(default_factory=dict)
    #: source unit name -> text at last read.
    texts: dict = field(default_factory=dict)
    #: the store directory's disk signature after our last load/save.
    store_sig: tuple = ()
    swept: list = field(default_factory=list)
    #: the group's build-profile ring buffer (created on first open).
    history: BuildHistory | None = None
    #: manager name -> the latest recorded profile (kept warm so the
    #: priority key and explain-diff never re-read disk per request).
    profiles: dict = field(default_factory=dict)
    #: manager name -> the profile *before* the latest build -- what
    #: ``explain-diff`` compares the latest ledger against.
    prior_profiles: dict = field(default_factory=dict)
    #: manager name -> per-unit compile seconds merged across profiles
    #: (the longest-first priority's input), loaded from disk once per
    #: manager and updated in memory after every build.
    seconds: dict = field(default_factory=dict)


class BuildDaemon:
    """A long-lived, in-process build service (see module docstring).

    Thread-safe: :meth:`request` may be called from many client
    threads.  Requests for the same group serialize on the group's
    lock (duplicates coalesce instead of queueing); requests for
    disjoint groups run concurrently.

    ``build_hook`` is a test seam: the *leader* of every build calls
    it as ``build_hook(key, inflight)`` after registering in the
    in-flight table and before building -- the coalescing tests park
    the leader there until a duplicate request has joined.
    """

    def __init__(self, manager: str = "cutoff", jobs: int = 1,
                 pool: str = "thread",
                 policy: SupervisePolicy | None = None, meter=None,
                 checkpoint: bool = True,
                 faults: WorkerFaults | None = None,
                 build_hook=None, store_backend: str = "auto",
                 store_url: str | None = None,
                 priority: str = "name", trace_sample: int = 0):
        if manager not in MANAGERS:
            raise DaemonError(f"unknown manager {manager!r} "
                              f"(want one of {sorted(MANAGERS)})")
        if priority not in ("name", "longest-first"):
            raise DaemonError(f"unknown priority {priority!r} "
                              f"(want 'name' or 'longest-first')")
        self.manager = manager
        self.jobs = max(1, jobs)
        self.pool = pool
        self.store_backend = store_backend
        self.store_url = store_url
        #: Ready-set offer order: plain sorted names, or longest prior
        #: compile time first from the group's build history.
        self.priority = priority
        self.policy = policy if policy is not None else SupervisePolicy()
        if meter is None and trace_sample > 0:
            # Sampled always-on tracing: full spans 1-in-N builds,
            # cheap aggregate counters for everything (the ``stats``
            # request's data source).
            from repro.obs.sampling import SamplingMeter
            meter = SamplingMeter(sample=trace_sample)
        self.trace_sample = trace_sample
        self.meter = meter if meter is not None else NULL_METER
        self.checkpoint = checkpoint
        self.faults = faults
        self.build_hook = build_hook
        self._lock = threading.Lock()
        self._states: dict[str, _GroupState] = {}
        self._inflight: dict[tuple, _Inflight] = {}
        #: (jobs, pool) -> (executor, kind): the warm worker pools.
        self._executors: dict[tuple, tuple] = {}
        self._request_seq = 0
        self._closed = False

    # -- the request path -------------------------------------------------

    def request(self, srcdir: str, manager: str | None = None,
                jobs: int | None = None, pool: str | None = None,
                faults: WorkerFaults | None = None) -> DaemonReply:
        """Bring ``srcdir`` up to date; returns this request's reply.

        A request identical in (group, manager, jobs, pool) to one
        already building *joins* it: no second compile, the joiner
        blocks until the leader finishes and shares its report
        (``reply.coalesced`` is True).  Fault-injected requests
        (``faults`` given) never join and are never joined -- fault
        plans are per-build test instrumentation.
        """
        if self._closed:
            raise DaemonError("daemon is shut down")
        manager = manager if manager else self.manager
        if manager not in MANAGERS:
            raise DaemonError(f"unknown manager {manager!r} "
                              f"(want one of {sorted(MANAGERS)})")
        jobs = self.jobs if jobs is None else max(1, jobs)
        pool = pool if pool else self.pool
        t0 = time.perf_counter()
        state = self._state_for(srcdir)
        key = (state.srcdir, manager, jobs, pool)
        mine: _Inflight | None = None
        with self._lock:
            self._request_seq += 1
            request_id = self._request_seq
            if faults is None:
                theirs = self._inflight.get(key)
                if theirs is not None:
                    theirs.joiners += 1
                    theirs.joined.set()
                else:
                    mine = self._inflight[key] = _Inflight()
            else:
                mine = _Inflight()  # private: never joinable
        if self.meter.enabled:
            self.meter.counter("daemon.requests")

        if mine is None:  # join the build already running
            theirs.done.wait()
            if theirs.error is not None:
                raise theirs.error
            wall = time.perf_counter() - t0
            if self.meter.enabled:
                self.meter.counter("daemon.coalesced")
                self.meter.complete_span(
                    "daemon-request", t0, time.perf_counter(),
                    cat="daemon", track="daemon", group=state.srcdir,
                    manager=manager, coalesced=True)
            return DaemonReply(group=state.srcdir, report=theirs.report,
                               request_id=request_id, coalesced=True,
                               wall_seconds=wall)

        try:
            if self.build_hook is not None:
                self.build_hook(key, mine)
            with state.lock:
                report, reloaded, refreshed, swept = self._build(
                    state, manager, jobs, pool, faults)
            mine.report = report
        except BaseException as err:
            mine.error = err
            raise
        finally:
            with self._lock:
                if self._inflight.get(key) is mine:
                    del self._inflight[key]
            mine.done.set()
        wall = time.perf_counter() - t0
        if self.meter.enabled:
            self.meter.counter("daemon.builds")
            self.meter.complete_span(
                "daemon-request", t0, time.perf_counter(), cat="daemon",
                track="daemon", group=state.srcdir, manager=manager,
                coalesced=False, joiners=mine.joiners,
                compiled=len(report.compiled))
        return DaemonReply(group=state.srcdir, report=report,
                           request_id=request_id,
                           store_reloaded=reloaded,
                           sources_refreshed=refreshed,
                           swept=swept, wall_seconds=wall)

    def explain(self, srcdir: str, unit: str | None = None,
                manager: str | None = None) -> str:
        """The cutoff-explanation ledger of the group's last build
        under ``manager`` (the daemon's default when omitted)."""
        manager = manager if manager else self.manager
        state = self._state_for(srcdir)
        with state.lock:
            builder = state.builders.get(manager)
            if builder is None:
                raise DaemonError(
                    f"no build of {srcdir} under {manager!r} yet")
            return builder.ledger.render_text(unit)

    def explain_diff(self, srcdir: str, unit: str | None = None,
                     manager: str | None = None) -> str:
        """Diff the group's latest build decisions against the
        previous build's profile: why did a unit rebuild *this* time
        but not last time (see :mod:`repro.obs.diff`)."""
        manager = manager if manager else self.manager
        state = self._state_for(srcdir)
        with state.lock:
            builder = state.builders.get(manager)
            if builder is None:
                raise DaemonError(
                    f"no build of {srcdir} under {manager!r} yet")
            prior = state.prior_profiles.get(manager)
            diff = diff_against_profile(builder.ledger, prior)
            return diff.render_text(unit)

    def stats(self) -> dict:
        """The daemon's rolled-up telemetry: request/coalesce/build
        counts, cache hit rate, worker occupancy -- cheap enough to
        serve permanently (the counters tier of ``--trace-sample``
        keeps them for *every* build, sampled or not)."""
        with self._lock:
            out: dict = {
                "groups": len(self._states),
                "requests_served": self._request_seq,
            }
        rollup = getattr(self.meter, "rollup", None)
        if rollup is None:
            return out
        data = rollup()
        counters = data.get("counters", {})
        spans = data.get("spans", {})
        compiled = counters.get("units.compiled", 0)
        loaded = counters.get("units.loaded", 0)
        cached = counters.get("units.cached", 0)
        total = compiled + loaded + cached
        if total:
            out["hit_rate"] = round((loaded + cached) / total, 6)
        busy = spans.get("worker-compile", {}).get("seconds", 0.0)
        wall = spans.get("build", {}).get("seconds", 0.0)
        if wall > 0:
            out["occupancy"] = round(
                min(1.0, busy / (self.jobs * wall)), 6)
        out["telemetry"] = data
        return out

    def shutdown(self) -> None:
        """Shut the warm pools down and refuse further requests."""
        with self._lock:
            self._closed = True
            executors = list(self._executors.values())
            self._executors.clear()
        for executor, _kind in executors:
            if executor is not None:
                executor.shutdown(wait=True, cancel_futures=True)

    # -- group state ------------------------------------------------------

    def _state_for(self, srcdir: str) -> _GroupState:
        key = os.path.abspath(srcdir)
        with self._lock:
            state = self._states.get(key)
            if state is None:
                state = _GroupState(
                    srcdir=key, bin_dir=os.path.join(key, ".bin"),
                    lock=threading.Lock())
                self._states[key] = state
        return state

    def _backend_for(self, state: _GroupState):
        """The group's configured store backend, created lazily; None
        when the defaults apply (auto-detected local layout, no URL) so
        the classic load/save paths run untouched."""
        if state.backend is not None:
            return state.backend
        if self.store_backend == "auto" and not self.store_url:
            return None
        from repro.cm.backend import make_backend
        state.backend = make_backend(self.store_backend, state.bin_dir,
                                     url=self.store_url)
        return state.backend

    def _open(self, state: _GroupState) -> None:
        """First contact with a group: sweep debris, load the store."""
        backend = self._backend_for(state)
        state.swept = sweep_stale_artifacts(state.bin_dir,
                                            backend=backend)
        if state.swept and self.meter.enabled:
            self.meter.event("daemon-sweep", cat="daemon",
                             group=state.srcdir,
                             swept=list(state.swept))
        if backend is not None:
            state.store = BinStore.load_directory(state.bin_dir,
                                                  backend=backend)
        elif os.path.isdir(state.bin_dir):
            state.store = BinStore.load_directory(state.bin_dir)
        else:
            state.store = BinStore()
        if self.meter is not NULL_METER:
            state.store.meter = self.meter
        state.store_sig = BinStore.disk_signature(state.bin_dir,
                                                  backend=backend)
        # Profile IO rides the store's fs seam, so fault injection on
        # the store covers history writes too (best-effort either way).
        state.history = BuildHistory(state.bin_dir, fs=state.store.fs)
        state.opened = True

    def _refresh_sources(self, state: _GroupState) -> int:
        """Re-read only the sources whose stat signature moved; swap in
        a *fresh* project iff any text actually changed (a pure touch
        keeps the project -- and the record headers' logical clock --
        exactly as a batch run would see them)."""
        try:
            entries = sorted(e for e in os.listdir(state.srcdir)
                             if e.endswith(SOURCE_SUFFIX))
        except OSError as err:
            raise DaemonError(
                f"cannot list group {state.srcdir}: {err}") from err
        if not entries:
            raise DaemonError(
                f"no {SOURCE_SUFFIX} sources in {state.srcdir}")
        refreshed = 0
        texts: dict[str, str] = {}
        stats: dict[str, tuple | None] = {}
        for entry in entries:
            name = entry[:-len(SOURCE_SUFFIX)]
            sig = state.store.fs.stat_signature(
                os.path.join(state.srcdir, entry))
            if (sig is not None and sig == state.stats.get(entry)
                    and name in state.texts):
                texts[name] = state.texts[name]
            else:
                with open(os.path.join(state.srcdir, entry),
                          encoding="utf-8") as fh:
                    texts[name] = fh.read()
                refreshed += 1
            stats[entry] = sig
        state.stats = stats
        if state.project is None or texts != state.texts:
            # Real change: a fresh project, so its logical clock equals
            # what Project.from_directory gives a batch build (clock =
            # file count) and built_at stamps match byte-for-byte.
            state.project = Project.from_sources(texts)
            for builder in state.builders.values():
                builder.project = state.project
        state.texts = texts
        return refreshed

    def _refresh_store(self, state: _GroupState) -> bool:
        """Reload the store iff its signature moved since we last
        loaded/saved it (another process -- or, through a remote
        backend, another *machine* -- wrote it)."""
        backend = self._backend_for(state)
        sig = BinStore.disk_signature(state.bin_dir, backend=backend)
        if sig == state.store_sig:
            return False
        if backend is not None:
            state.store = BinStore.load_directory(state.bin_dir,
                                                  backend=backend)
        elif os.path.isdir(state.bin_dir):
            state.store = BinStore.load_directory(state.bin_dir)
        else:
            state.store = BinStore()
        if self.meter is not NULL_METER:
            state.store.meter = self.meter
        for builder in state.builders.values():
            builder.store = state.store
            builder.health = state.store.health
        state.store_sig = sig
        if self.meter.enabled:
            self.meter.counter("daemon.store_reloads")
        return True

    # -- one build --------------------------------------------------------

    def _build(self, state: _GroupState, manager: str, jobs: int,
               pool: str, faults: WorkerFaults | None):
        swept: list[str] = []
        if not state.opened:
            self._open(state)
            swept = list(state.swept)  # reported by this request only
        refreshed = self._refresh_sources(state)
        reloaded = self._refresh_store(state)
        builder = state.builders.get(manager)
        if builder is None:
            builder = MANAGERS[manager](state.project, store=state.store,
                                        meter=self.meter)
            state.builders[manager] = builder
        offer_key = None
        if self.priority == "longest-first":
            if manager not in state.seconds:
                # One disk read per (group, manager) lifetime; kept
                # warm (and updated) in memory after every build.
                state.seconds[manager] = \
                    state.history.compile_seconds(manager)
            offer_key = longest_first_key(state.seconds[manager])
        supervisor = Supervisor(
            jobs=jobs, pool=pool,
            faults=faults if faults is not None else self.faults,
            policy=self.policy,
            checkpoint_dir=state.bin_dir if self.checkpoint else None,
            executor_factory=self._executor_factory,
            keep_executor=True, offer_key=offer_key)
        report = supervisor.build(builder)
        builder.store.save_directory(state.bin_dir)
        state.store_sig = BinStore.disk_signature(
            state.bin_dir, backend=self._backend_for(state))
        self._record_profile(state, manager, builder, report)
        if report.degraded:
            # The supervisor shut our cached pool down on its way down
            # the ladder; forget it so the next request makes a new one.
            with self._lock:
                self._executors.pop((jobs, pool), None)
        return report, reloaded, refreshed, swept

    def _record_profile(self, state: _GroupState, manager: str,
                        builder, report) -> None:
        """Persist this build's profile and roll the warm history
        state forward: the previously-latest profile becomes the
        ``explain-diff`` baseline, the new one feeds the next
        longest-first priority key.  Best effort -- profile IO never
        fails a build."""
        prior = state.profiles.get(manager)
        if prior is None and manager not in state.profiles:
            prior = state.history.latest(manager)
        state.prior_profiles[manager] = prior
        profile = profile_from_report(
            report, ledger=builder.ledger,
            export_pids={name: unit.export_pid
                         for name, unit in builder.units.items()},
            group=state.srcdir, manager=manager)
        state.history.record(profile)
        state.profiles[manager] = profile
        state.seconds.setdefault(manager, {}).update(
            profile.compile_seconds())

    def _executor_factory(self, jobs: int, pool: str):
        """Warm-pool seam handed to the supervisor: reuse a cached
        executor for (jobs, pool), creating it on first use.  Keeping
        the pool alive keeps the workers' thread-local sessions and
        rehydration caches warm across requests."""
        key = (jobs, pool)
        with self._lock:
            made = self._executors.get(key)
            if made is None:
                made = make_executor(jobs, pool)
                self._executors[key] = made
        return made


# -- the stdio front end -------------------------------------------------


def wire_encode(obj: dict) -> str:
    """The wire format: compact, key-sorted JSON -- deterministic bytes
    for a given payload, which is what the golden test pins down."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def reply_to_wire(reply: DaemonReply) -> dict:
    report = reply.report
    return {
        "group": reply.group,
        "coalesced": reply.coalesced,
        "store_reloaded": reply.store_reloaded,
        "sources_refreshed": reply.sources_refreshed,
        "swept": list(reply.swept),
        "schedule": report.schedule,
        "jobs": report.jobs,
        "pool": report.pool,
        "stats": report.stats(),
        "outcomes": [
            {"name": o.name, "action": o.action, "reason": o.reason}
            for o in report.outcomes
        ],
        "wall_seconds": round(reply.wall_seconds, 6),
    }


def serve(daemon: BuildDaemon, lines, out,
          default_group: str | None = None) -> int:
    """Serve newline-delimited JSON requests until EOF or ``shutdown``.

    ``lines`` is any iterable of strings (sys.stdin, a socket file, a
    test's list); ``out`` is a writable text stream.  One request
    object per line in, one :func:`wire_encode`-d response per line
    out.  Requests carry ``op`` (``build`` / ``ping`` / ``explain`` /
    ``explain-diff`` / ``stats`` / ``shutdown``) and an optional
    client-chosen ``id`` echoed back
    (defaulting to the request's ordinal).  Any per-request failure --
    unparseable line, unknown op, :class:`DaemonError`, build machinery
    error -- is an ``"ok": false`` response, never a dead daemon.
    Returns the process exit code.
    """
    seq = 0
    closing = False
    for line in lines:
        if not line.strip():
            continue
        seq += 1
        request_id = seq
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise DaemonError("request is not a JSON object")
            request_id = request.get("id", seq)
            op = request.get("op")
            if op == "ping":
                # Every build is ready-set dispatched; "schedule" stays
                # in the reply for protocol-1 clients.
                result = {"protocol": PROTOCOL_VERSION,
                          "manager": daemon.manager,
                          "schedule": "ready"}
            elif op == "build":
                group = request.get("group", default_group)
                if not group:
                    raise DaemonError(
                        'no group: pass "group" or serve with a srcdir')
                reply = daemon.request(group,
                                       manager=request.get("manager"),
                                       jobs=request.get("jobs"),
                                       pool=request.get("pool"))
                result = reply_to_wire(reply)
                if request.get("trace"):
                    report = reply.report
                    result["trace"] = {
                        "ledger": (report.ledger.to_json()
                                   if report.ledger is not None else {}),
                        "phase_totals": report.phase_totals(),
                        "dispatch_order": list(report.dispatch_order),
                        "wall_seconds": round(report.wall_seconds, 6),
                    }
            elif op == "explain":
                group = request.get("group", default_group)
                if not group:
                    raise DaemonError(
                        'no group: pass "group" or serve with a srcdir')
                result = {"text": daemon.explain(
                    group, unit=request.get("unit"),
                    manager=request.get("manager"))}
            elif op == "explain-diff":
                group = request.get("group", default_group)
                if not group:
                    raise DaemonError(
                        'no group: pass "group" or serve with a srcdir')
                result = {"text": daemon.explain_diff(
                    group, unit=request.get("unit"),
                    manager=request.get("manager"))}
            elif op == "stats":
                result = daemon.stats()
            elif op == "shutdown":
                closing = True
                result = {"bye": True}
            else:
                raise DaemonError(f"unknown op {op!r}")
            response = {"id": request_id, "ok": True, "op": op,
                        "result": result}
        except Exception as err:
            response = {"id": request_id, "ok": False,
                        "error": {"type": type(err).__name__,
                                  "message": str(err)}}
        out.write(wire_encode(response) + "\n")
        out.flush()
        if closing:
            break
    daemon.shutdown()
    return 0
