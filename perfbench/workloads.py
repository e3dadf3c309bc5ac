"""The T5 project, its seeded edit stream, the ops and the output oracle.

An *op* is one build request made through the same public calls as
``python -m repro.cm <dir>``: load the bin store, read the sources,
build with the ``cutoff`` manager, save the store, record the build
profile, link.  ``t5-warm-j2`` sends the request to one resident
``BuildDaemon`` instead and then links its warm builder.  Every setting
except ``jobs`` is the program's default.

The oracle never asks the compiler what the answer is.  Each unit
``u<k>`` exports ``M<k>.value (M<k>.make 1)``, which the generator's
template fixes at ``2 + salt`` for a root and ``1 + sum(imports) +
salt`` otherwise, where ``salt`` counts the implementation edits the
benchmark itself made to that unit.  The set of recompiled units is
checked against the one the DAG predicts for the edit.
"""

from __future__ import annotations

import os
import random
import shutil
import time

from repro.cm.daemon import BuildDaemon
from repro.cm.manager import CutoffBuilder
from repro.cm.project import Project
from repro.cm.store import BinStore
from repro.dynamic.evaluate import apply_value
from repro.obs import history as history_mod
from repro.workload.generate import generate_workload
from repro.workload.shapes import layered

#: name -> (layer sizes, helpers per unit).  ``t5`` is the paper-scale
#: project (200 units, about 7k lines); ``small`` is for smoke runs.
SIZES = {
    "t5": ([1, 20, 40, 60, 50, 25, 4], 10),
    "small": ([1, 3, 4, 3, 1], 2),
}

#: The edit mix drawn before every op of the edit workloads (percent).
EDIT_MIX = (("implementation", 50), ("comment", 15), ("interface", 25),
            ("none", 10))

BIN = ".bin"
RECORD_SUFFIXES = (".bin", ".bin.json")
MANIFEST = "MANIFEST.json"


class T5Project:
    """The generated sources on disk plus the oracle's own bookkeeping."""

    def __init__(self, size: str, seed: int, srcdir: str):
        layers, helpers = SIZES[size]
        self.deps = layered(layers, fan_in=3, seed=seed)
        self.workload = generate_workload(self.deps,
                                          helpers_per_unit=helpers)
        self.names = self.workload.names()
        self.srcdir = srcdir
        self.bin_dir = os.path.join(srcdir, BIN)
        self.salt = [0] * len(self.deps)
        self.importers = [[] for _ in self.deps]
        for k, deps in enumerate(self.deps):
            for d in deps:
                self.importers[d].append(k)

    def write(self) -> None:
        shutil.rmtree(self.srcdir, ignore_errors=True)
        os.makedirs(self.srcdir)
        for name in self.names:
            self._write(name)

    def _write(self, name: str) -> None:
        with open(os.path.join(self.srcdir, name + ".sml"), "w",
                  encoding="utf-8") as fh:
            fh.write(self.workload.project.source(name))

    def edit(self, kind: str, k: int) -> set[str]:
        """Apply one edit to unit ``k`` on disk; returns the units the
        cutoff manager must recompile for it."""
        name = self.names[k]
        if kind == "none":
            return set()
        if kind == "implementation":
            self.workload.edit_implementation(name)
            self.salt[k] += 1
        elif kind == "comment":
            self.workload.edit_comment(name)
        else:
            self.workload.edit_interface(name)
        self._write(name)
        if kind == "interface":
            return {name} | {self.names[i] for i in self.importers[k]}
        return {name}

    def expected_values(self) -> list[int]:
        values: list[int] = []
        for k, deps in enumerate(self.deps):  # deps[k] only names j < k
            if deps:
                values.append(1 + sum(values[j] for j in deps)
                              + self.salt[k])
            else:
                values.append(2 + self.salt[k])
        return values

    def store_bytes(self) -> int:
        """Bytes of bin records plus the manifest (profiles excluded)."""
        total = 0
        for entry in os.scandir(self.bin_dir):
            if entry.is_file() and (entry.name == MANIFEST
                                    or entry.name.endswith(RECORD_SUFFIXES)):
                total += entry.stat().st_size
        return total

    def record_bytes(self, name: str) -> dict[str, bytes]:
        """The bin record files of unit ``name``, by file name."""
        out = {}
        for entry in os.listdir(self.bin_dir):
            if entry.startswith(name + ".") and \
                    entry.endswith(RECORD_SUFFIXES):
                with open(os.path.join(self.bin_dir, entry), "rb") as fh:
                    out[entry] = fh.read()
        return out


class EditScript:
    """The seeded edit stream: one (kind, unit) before each op, the
    unit drawn uniformly."""

    def __init__(self, seed: int, units: int):
        self._rng = random.Random(seed * 1_000_003 + 11)
        self._units = units
        self._kinds = [k for k, _w in EDIT_MIX]
        self._weights = [w for _k, w in EDIT_MIX]

    def next(self) -> tuple[str, int]:
        kind = self._rng.choices(self._kinds, self._weights)[0]
        return kind, self._rng.randrange(self._units)


class OpResult:
    def __init__(self, report, builder, exports, link_s: float):
        self.report = report
        self.builder = builder
        self.exports = exports
        self.link_s = link_s


def timed_link(report, builder) -> OpResult:
    t0 = time.perf_counter()
    exports = builder.link()
    return OpResult(report, builder, exports, time.perf_counter() - t0)


class BatchRunner:
    """One new session per op over the on-disk store."""

    def __init__(self, project: T5Project, jobs: int):
        self.project = project
        self.jobs = jobs

    def run(self) -> OpResult:
        srcdir, bin_dir = self.project.srcdir, self.project.bin_dir
        store = (BinStore.load_directory(bin_dir)
                 if os.path.isdir(bin_dir) else BinStore())
        builder = CutoffBuilder(Project.from_directory(srcdir),
                                store=store)
        history = history_mod.BuildHistory(bin_dir, fs=store.fs)
        history.latest("cutoff")  # the --explain-diff baseline read
        report = builder.build(jobs=self.jobs)
        store.save_directory(bin_dir)
        history.record(history_mod.profile_from_report(
            report, ledger=builder.ledger,
            export_pids={name: unit.export_pid
                         for name, unit in builder.units.items()},
            group=srcdir, manager="cutoff"))
        return timed_link(report, builder)

    def close(self) -> None:
        pass


class DaemonRunner:
    """One resident ``BuildDaemon`` with default settings but ``jobs``;
    one ``request`` per op, then a link of its warm builder."""

    def __init__(self, project: T5Project, jobs: int):
        self.project = project
        self.daemon = BuildDaemon(jobs=jobs)

    def run(self) -> OpResult:
        reply = self.daemon.request(self.project.srcdir)
        builder = self.builder()
        return timed_link(reply.report, builder)

    def builder(self):
        # The daemon has no public accessor for its warm builder; link
        # needs the live units it holds.
        state = self.daemon._states[os.path.abspath(self.project.srcdir)]
        return state.builders["cutoff"]

    def close(self) -> None:
        self.daemon.shutdown()


def unit_values(project: T5Project, exports) -> list:
    """``M<k>.value (M<k>.make 1)`` of every unit, from the linked
    program."""
    out = []
    for k, name in enumerate(project.names):
        struct = exports[name].structures[f"M{k:03d}"]
        made = apply_value(struct.values["make"], 1)
        out.append(apply_value(struct.values["value"], made))
    return out


def check_op(project: T5Project, result: OpResult,
             expected_compiled: set[str], value_offset: int = 0) -> list:
    """Mismatches between one op's outputs and the oracle."""
    errors = []
    compiled = set(result.report.compiled)
    if compiled != expected_compiled:
        errors.append(f"recompiled {sorted(compiled ^ expected_compiled)} "
                      f"against the DAG's prediction")
    expected = [v + value_offset for v in project.expected_values()]
    actual = unit_values(project, result.exports)
    wrong = [project.names[k] for k, (a, e) in
             enumerate(zip(actual, expected)) if a != e]
    if wrong:
        errors.append(f"wrong value in {len(wrong)} unit(s), first "
                      f"{wrong[0]}")
    return errors


def export_pids(builder) -> dict[str, str]:
    return {name: unit.export_pid for name, unit in builder.units.items()}


def store_pids(bin_dir: str) -> dict[str, str]:
    store = BinStore.load_directory(bin_dir)
    return {name: store.get(name).export_pid for name in store.names()}


def clean_build_pids(srcdir: str) -> dict[str, str]:
    """Export pids of a clean cold build of ``srcdir``, in memory."""
    builder = CutoffBuilder(Project.from_directory(srcdir),
                            store=BinStore())
    builder.build()
    return export_pids(builder)
