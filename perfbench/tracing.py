"""Benchmark-side tracing: spans recorded around the program's layers.

Nothing here touches a program file.  :func:`install` replaces the
public entry point of each layer *at its call sites* -- every
``repro.*`` module global bound to the function, or the class
attribute for methods -- with a thin wrapper that opens a span, and
:func:`uninstall` puts the originals back.  Spans live in memory with
a parent link; a layer's self time is its span's duration minus the
time its child spans cover, so the self times of one op plus the
op's unattributed time add up to the op's wall time.

Only the main thread of the benchmark process records: worker
processes forked while the wrappers are installed, and any helper
thread, call straight through.
"""

from __future__ import annotations

import importlib
import os
import pickle
import sys
import threading
import time
from collections import Counter

#: (span kind, module, owner, attribute).  The owner is a class name
#: for methods, None for module functions (patched wherever a
#: ``repro.*`` module imported them by name).
TARGETS = [
    ("lang.parse", "repro.lang.parser", None, "parse_program"),
    ("cm.depend.analyze", "repro.cm.depend", None, "analyze"),
    ("elab.elaborate", "repro.elab.topdec", None, "elaborate_decs"),
    ("pids.intrinsic", "repro.pids.intrinsic", None, "intrinsic_pid"),
    ("pids.binding", "repro.pids.intrinsic", None, "binding_pids"),
    ("pickle.pickler", "repro.pickle.pickler", "Pickler", "run"),
    ("pickle.unpickler", "repro.pickle.pickler", "Unpickler", "run"),
    ("units.compile", "repro.units.pipeline", None, "compile_unit"),
    ("units.load", "repro.units.pipeline", None, "load_unit"),
    ("dynamic.execute", "repro.units.pipeline", None, "execute_unit"),
    ("linker.check", "repro.linker.link", None, "check_consistency"),
    ("linker.link", "repro.cm.base", "BaseBuilder", "link"),
    ("cm.project.read", "repro.cm.project", "Project", "from_directory"),
    ("cm.store.load", "repro.cm.store", "BinStore", "load_directory"),
    ("cm.store.save", "repro.cm.store", "BinStore", "save_directory"),
    ("cm.build", "repro.cm.base", "BaseBuilder", "build"),
    ("cm.build", "repro.cm.supervise", "Supervisor", "build"),
    ("cm.parallel.ship", "repro.cm.parallel", None, "_make_task"),
    ("cm.parallel.pool", "repro.cm.parallel", None, "make_executor"),
    ("cm.parallel.wait", "repro.cm.parallel", None, "wait"),
    ("cm.parallel.apply", "repro.cm.parallel", None, "_apply_result"),
    ("cm.supervise.checkpoint", "repro.cm.supervise", "Supervisor",
     "_checkpoint"),
    ("cm.daemon.request", "repro.cm.daemon", "BuildDaemon", "request"),
    ("obs.history", "repro.obs.history", None, "profile_from_report"),
    ("obs.history", "repro.obs.history", "BuildHistory", "record"),
]

#: A span: [kind, parent index, op, start, end, child coverage].
KIND, PARENT, OP, START, END, CHILD = range(6)


class Recorder:
    """Spans and counters of one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = {}
        self.op = -1
        self.active = False
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._tid = threading.get_ident()
        self._sites: list[tuple] = []
        #: Entry points of ``TARGETS`` the program no longer has.
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------

    def recording(self) -> bool:
        return (self.active and threading.get_ident() == self._tid
                and os.getpid() == self._pid)

    def open(self, kind: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([kind, parent, self.op, time.perf_counter(),
                           0.0, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        self._stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    def count(self, name: str, n=1) -> None:
        self.counts.setdefault(self.op, Counter())[name] += n

    # -- ops -----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.counts.setdefault(op, Counter())
        install(self)
        self.active = True

    def end_op(self) -> None:
        self.active = False
        uninstall(self)

    def op_spans(self, op: int) -> list[list]:
        return [s for s in self.spans if s[OP] == op]

    def dump(self) -> list[list]:
        """Spans as JSON-ready rows: kind, parent, op, start, end, self."""
        return [[s[KIND], s[PARENT], s[OP], s[START], s[END],
                 (s[END] - s[START]) - s[CHILD]] for s in self.spans]


# -- wrappers --------------------------------------------------------------


def _wrap(rec: Recorder, kind: str, fn, after=None):
    def wrapper(*args, **kwargs):
        if not rec.recording():
            return fn(*args, **kwargs)
        span = rec.open(kind)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        rec.count(kind + ".calls")
        if after is not None:
            after(rec, args, result, span)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _after_pickler(rec, args, result, span):
    rec.count("pickle.bytes_out", len(result))


def _after_unpickler(rec, args, result, span):
    rec.count("pickle.bytes_in", args[0].bytes_in)


def _after_store_load(rec, args, store, span):
    rec.count("cm.store.quarantined", len(store.health.corrupt))
    if any(s[KIND] == "cm.daemon.request" for s in _ancestors(rec)):
        rec.count("cm.daemon.store_reloads")


def _after_store_save(rec, args, stats, span):
    rec.count("cm.store.records_written", stats.records_written)
    rec.count("cm.store.bytes_written", stats.bytes_written)


def _after_build(rec, args, report, span):
    rec.count("cm.build.compiled", len(report.compiled))
    rec.count("cm.build.loaded", len(report.loaded))
    rec.count("cm.build.cached", len(report.cached))
    rec.count("cm.build.pid_changed",
              sum(1 for o in report.outcomes
                  if o.action == "compiled" and o.pid_changed))
    if report.jobs > 1:
        build = rec.spans[span]
        rec.count("cm.parallel.capacity_s",
                  report.jobs * (build[END] - build[START]))


def _after_ship(rec, args, task, span):
    # The pickled size of the task is what a process pool sends; the
    # probe's own cost is a span of its own so it is not charged to
    # the layer.
    probe = rec.open("trace.probe")
    try:
        rec.count("cm.parallel.ship_bytes", len(pickle.dumps(task)))
    finally:
        rec.close(probe)


def _after_pool(rec, args, made, span):
    executor, using = made
    requested = args[1] if len(args) > 1 else "process"
    if args[0] > 1 and using != requested:
        rec.count("cm.parallel.fallbacks")
    if executor is not None:
        _instrument_executor(rec, executor)


def _after_apply(rec, args, outcome, span):
    # A worker process or pool thread was busy; a task run inline on
    # the recording thread is already inside the op's own spans.
    result = args[4]
    if result.worker and result.worker != f"w{rec._pid}/{rec._tid}":
        rec.count("cm.parallel.worker_busy_s",
                  result.ended - result.started)


def _instrument_executor(rec: Recorder, executor) -> None:
    """Time task submission as shipping and blocking on a future's
    result as waiting; the executor is the program's own."""
    submit = executor.submit

    def timed_submit(fn, *args, **kwargs):
        if not rec.recording():
            return submit(fn, *args, **kwargs)
        span = rec.open("cm.parallel.ship")
        try:
            future = submit(fn, *args, **kwargs)
        finally:
            rec.close(span)
        future.result = _wrap(rec, "cm.parallel.wait", future.result)
        return future

    executor.submit = timed_submit


def _ancestors(rec: Recorder):
    index = rec._stack[-1] if rec._stack else -1
    while index >= 0:
        yield rec.spans[index]
        index = rec.spans[index][PARENT]


AFTER = {
    "pickle.pickler": _after_pickler,
    "pickle.unpickler": _after_unpickler,
    "cm.store.load": _after_store_load,
    "cm.store.save": _after_store_save,
    "cm.build": _after_build,
    "cm.parallel.ship": _after_ship,
    "cm.parallel.pool": _after_pool,
    "cm.parallel.apply": _after_apply,
}


def _sites(rec: Recorder) -> list[tuple]:
    """Every (owner, attribute, original, replacement) to patch."""
    if rec._sites:
        return rec._sites
    present = []
    for target in TARGETS:
        kind, module_name, owner, attr = target
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        holder = getattr(module, owner, None) if owner else module
        if holder is None or attr not in vars(holder):
            # A later refactor removed this entry point: its layer
            # reads zero and the results file names it.
            rec.missing.append(f"{module_name}:{owner or ''}.{attr}")
        else:
            present.append(target)
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "repro" or name.startswith("repro.")]
    sites = []
    for kind, module_name, owner, attr in present:
        module = sys.modules[module_name]
        after = AFTER.get(kind)
        if owner is not None:
            cls = getattr(module, owner)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = _wrap(rec, kind, original.__func__,
                                _drop_cls(after))
                replacement = classmethod(wrapped)
            else:
                replacement = _wrap(rec, kind, original, after)
            sites.append((cls, attr, original, replacement))
            continue
        original = getattr(module, attr)
        replacement = _wrap(rec, kind, original, after)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    sites.append((mod, name, original, replacement))
    rec._sites = sites
    return sites


def _drop_cls(after):
    if after is None:
        return None
    return lambda rec, args, result, span: after(rec, args[1:], result,
                                                 span)


def install(rec: Recorder) -> None:
    for owner, attr, _original, replacement in _sites(rec):
        setattr(owner, attr, replacement)


def uninstall(rec: Recorder) -> None:
    for owner, attr, original, _replacement in _sites(rec):
        setattr(owner, attr, original)


# -- per-layer metrics -------------------------------------------------------

#: Span kinds folded into one reported self time.
SELF_METRICS = {
    "lang.parse.self_s": ("lang.parse",),
    "cm.depend.analyze.self_s": ("cm.depend.analyze",),
    "elab.elaborate.self_s": ("elab.elaborate",),
    "pids.hash.self_s": ("pids.intrinsic", "pids.binding"),
    "pickle.pickler.self_s": ("pickle.pickler",),
    "pickle.unpickler.self_s": ("pickle.unpickler",),
    "units.compile.self_s": ("units.compile",),
    "units.load.self_s": ("units.load",),
    "cm.project.read_s": ("cm.project.read",),
    "cm.store.load_s": ("cm.store.load",),
    "cm.store.save_s": ("cm.store.save",),
    "cm.build.self_s": ("cm.build",),
    "cm.parallel.pool_s": ("cm.parallel.pool",),
    "cm.parallel.ship_s": ("cm.parallel.ship",),
    "cm.parallel.wait_s": ("cm.parallel.wait",),
    "cm.parallel.apply_s": ("cm.parallel.apply",),
    "cm.supervise.checkpoint_s": ("cm.supervise.checkpoint",),
    "cm.daemon.request_s": ("cm.daemon.request",),
    "obs.history.record_s": ("obs.history",),
    "linker.link.self_s": ("linker.link",),
    "linker.check_s": ("linker.check",),
    "dynamic.execute.self_s": ("dynamic.execute",),
    "trace.probe_s": ("trace.probe",),
}

#: Counters reported per op as they were counted (metric -> counter).
COUNT_METRICS = {name: name for name in (
    "lang.parse.calls", "cm.depend.analyze.calls", "elab.elaborate.calls",
    "pids.intrinsic.calls", "pids.binding.calls", "pickle.bytes_out",
    "pickle.bytes_in", "units.compile.calls", "units.load.calls",
    "cm.store.records_written", "cm.store.bytes_written",
    "cm.store.quarantined", "cm.build.compiled", "cm.build.loaded",
    "cm.build.cached", "cm.parallel.ship_bytes",
    "cm.parallel.worker_busy_s", "cm.parallel.fallbacks",
    "cm.daemon.store_reloads", "dynamic.execute.calls")}
COUNT_METRICS["pickle.pickler.runs"] = "pickle.pickler.calls"
COUNT_METRICS["pickle.unpickler.runs"] = "pickle.unpickler.calls"

#: The counters that must repeat bit-for-bit for a seed and op index.
EXACT = ("lang.parse.calls", "pickle.pickler.calls",
         "pickle.unpickler.calls", "cm.store.records_written")


def op_layers(rec: Recorder, op: int) -> dict:
    """Self seconds per span kind and the top-level coverage of one op."""
    selfs: Counter = Counter()
    covered = 0.0
    for span in rec.op_spans(op):
        duration = span[END] - span[START]
        selfs[span[KIND]] += duration - span[CHILD]
        if span[PARENT] < 0:
            covered += duration
    return {"self": selfs, "covered": covered}


def layer_metrics(rec: Recorder, traced: list[int], walls: dict,
                  units: int) -> dict:
    """Per-op means over the traced ops: additive, so the self times
    plus ``op.unattributed_s`` equal ``op.traced_wall_s``."""
    n = max(1, len(traced))
    selfs: Counter = Counter()
    counts: Counter = Counter()
    covered = 0.0
    for op in traced:
        layers = op_layers(rec, op)
        selfs.update(layers["self"])
        covered += layers["covered"]
        counts.update(rec.counts.get(op, Counter()))
    out = {}
    for metric, kinds in SELF_METRICS.items():
        out[metric] = sum(selfs[k] for k in kinds) / n
    for metric, counter in COUNT_METRICS.items():
        out[metric] = counts[counter] / n
    compiled = counts["cm.build.compiled"]
    out["lang.parse.per_unit"] = counts["lang.parse.calls"] / n / units
    out["pickle.pickler.per_compiled"] = (
        counts["pickle.pickler.calls"] / compiled if compiled else 0.0)
    out["cm.build.pid_changed_ratio"] = (
        counts["cm.build.pid_changed"] / compiled if compiled else 0.0)
    capacity = counts["cm.parallel.capacity_s"]
    out["cm.parallel.occupancy"] = (
        counts["cm.parallel.worker_busy_s"] / capacity if capacity
        else 0.0)
    wall = sum(walls[op] for op in traced) / n
    out["op.traced_wall_s"] = wall
    out["op.unattributed_s"] = wall - covered / n
    return out


def exact_counts(rec: Recorder, op: int) -> dict:
    counts = rec.counts.get(op, Counter())
    return {name: counts[name] for name in EXACT}
