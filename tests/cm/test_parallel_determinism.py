"""The differential determinism matrix (tier 1).

The contract under test: **a parallel build is byte-identical to a
serial build.**  For every workload shape x jobs count x edit kind, the
parallel build must produce exactly the export pids and
exactly the on-disk store bytes (records, headers, MANIFEST.json) of
the serial build -- and the same holds when the store the build starts
from was damaged by an injected crash, a torn write, slow IO, or two
racing writers.  Pid intrinsicness is what makes this provable: a
worker's compile depends only on the source text and the imports'
dehydrated interfaces, never on scheduling.
"""

import os
import shutil

import pytest

from repro.cm import (
    BinStore,
    CutoffBuilder,
    ParallelBuildError,
    SmartBuilder,
    TimestampBuilder,
    WorkerFaults,
    parallel_build,
)
from repro.cm.faults import FaultPlan, FaultyFS, InjectedCrash, SlowFS
from repro.cm.store import LOCK_NAME, RECORD_LOCK_SUFFIX
from repro.workload import generate_workload
from repro.workload.shapes import chain, diamond, fanout

SHAPES = {
    "chain": lambda: chain(5),
    "diamond": lambda: diamond(2, 2),
    "fanout": lambda: fanout(5),
}

#: edit name -> (workload edit method, unit to edit)
EDITS = {
    "clean": None,
    "comment-edit": ("edit_comment", "u001"),
    "interface-edit": ("edit_interface", "u000"),
}

JOBS = [1, 2, 4, 8]


def store_files(store_dir):
    """Every store file's bytes, locks excluded (locks are transient)."""
    out = {}
    for entry in sorted(os.listdir(store_dir)):
        if entry == LOCK_NAME or entry.endswith(RECORD_LOCK_SUFFIX):
            continue
        with open(os.path.join(store_dir, entry), "rb") as f:
            out[entry] = f.read()
    return out


def build_flow(shape, edit, jobs, store_dir, cls=CutoffBuilder,
               pool="thread"):
    """One full incremental flow: clean build + save, then (optionally)
    edit + fresh session + rebuild + save.  ``jobs=0`` means
    ``builder.build()``; any other count goes through
    :func:`parallel_build` (jobs=1 compiles inline -- no pool)."""

    def run(builder):
        if jobs == 0:
            return builder.build()
        return parallel_build(builder, jobs=jobs,
                              pool=pool if jobs > 1 else "inline")

    workload = generate_workload(SHAPES[shape](), helpers_per_unit=1)
    builder = cls(workload.project)
    run(builder)
    builder.store.save_directory(store_dir)
    if EDITS[edit] is not None:
        method, unit = EDITS[edit]
        getattr(workload, method)(unit)
        builder = cls(workload.project,
                      store=BinStore.load_directory(store_dir))
        run(builder)
        builder.store.save_directory(store_dir)
    pids = {name: u.export_pid for name, u in builder.units.items()}
    return pids, store_files(store_dir)


_serial_memo = {}


def serial_reference(shape, edit, tmp_path_factory, cls=CutoffBuilder):
    key = (shape, edit, cls.__name__)
    if key not in _serial_memo:
        dest = str(tmp_path_factory.mktemp("serial"))
        _serial_memo[key] = build_flow(shape, edit, 0, dest, cls=cls)
    return _serial_memo[key]


class TestDeterminismMatrix:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("edit", sorted(EDITS))
    @pytest.mark.parametrize("jobs", JOBS)
    def test_parallel_matches_serial_byte_for_byte(
            self, tmp_path, tmp_path_factory, shape, edit, jobs):
        want_pids, want_files = serial_reference(shape, edit,
                                                tmp_path_factory)
        got_pids, got_files = build_flow(shape, edit, jobs,
                                         str(tmp_path / "par"))
        assert got_pids == want_pids
        assert got_files == want_files  # headers, payloads, MANIFEST

    @pytest.mark.parametrize("cls", [SmartBuilder, TimestampBuilder],
                             ids=["smart", "make"])
    def test_other_managers_deterministic_too(self, tmp_path,
                                              tmp_path_factory, cls):
        want = serial_reference("diamond", "interface-edit",
                                tmp_path_factory, cls=cls)
        got = build_flow("diamond", "interface-edit", 4,
                         str(tmp_path / "par"), cls=cls)
        assert got == want

    def test_process_pool_matches_serial(self, tmp_path,
                                         tmp_path_factory):
        """One cell on a real process pool (the CLI default); the rest
        of the matrix runs on threads for speed -- the worker code is
        identical, only the executor differs."""
        want = serial_reference("fanout", "clean", tmp_path_factory)
        got = build_flow("fanout", "clean", 2, str(tmp_path / "par"),
                         pool="process")
        assert got == want


class TestParallelBuildErrorPayload:
    """A failed worker must be attributable: the raised error carries
    the unit that died and the exception type that killed it."""

    def test_error_carries_unit_and_wave(self):
        workload = generate_workload(SHAPES["fanout"](),
                                     helpers_per_unit=1)
        builder = CutoffBuilder(workload.project)
        faults = WorkerFaults(crash_units=frozenset({"u003"}))
        with pytest.raises(ParallelBuildError) as excinfo:
            parallel_build(builder, jobs=4, pool="thread", faults=faults)
        err = excinfo.value
        assert err.name == "u003"
        assert err.exc_type == "InjectedCrash"

    def test_root_crash_is_wave_zero(self):
        workload = generate_workload(SHAPES["fanout"](),
                                     helpers_per_unit=1)
        builder = CutoffBuilder(workload.project)
        faults = WorkerFaults(crash_units=frozenset({"u000"}))
        with pytest.raises(ParallelBuildError) as excinfo:
            parallel_build(builder, jobs=2, pool="thread", faults=faults)
        assert excinfo.value.name == "u000"


class TestDeterminismUnderFaults:
    """Serial and parallel sessions over the *same damage* must converge
    to the same bytes."""

    def _damaged_store(self, tmp_path, crash_at, torn):
        """A store whose incremental update was killed mid-save."""
        workload = generate_workload(SHAPES["diamond"](),
                                     helpers_per_unit=1)
        builder = CutoffBuilder(workload.project)
        builder.build()
        source_dir = str(tmp_path / "src")
        builder.store.save_directory(source_dir)
        workload.edit_interface("u000")
        store = BinStore.load_directory(source_dir)
        store.fs = FaultyFS(FaultPlan(crash_at_mutation=crash_at,
                                      torn=torn, lock_pid=-1))
        builder = CutoffBuilder(workload.project, store=store)
        builder.build()
        with pytest.raises(InjectedCrash):
            store.save_directory(source_dir)
        return workload, source_dir

    @pytest.mark.parametrize("torn", [False, True],
                             ids=["clean-cut", "torn-write"])
    @pytest.mark.parametrize("crash_at", [2, 5])
    def test_crash_damage(self, tmp_path, crash_at, torn):
        workload, damaged = self._damaged_store(tmp_path, crash_at, torn)
        serial_dir = str(tmp_path / "serial")
        par_dir = str(tmp_path / "par")
        shutil.copytree(damaged, serial_dir)
        shutil.copytree(damaged, par_dir)

        serial = CutoffBuilder(workload.project,
                               store=BinStore.load_directory(serial_dir))
        serial.build()
        serial.store.save_directory(serial_dir)

        par = CutoffBuilder(workload.project,
                            store=BinStore.load_directory(par_dir))
        parallel_build(par, jobs=4, pool="thread")
        par.store.save_directory(par_dir)

        assert ({n: u.export_pid for n, u in par.units.items()}
                == {n: u.export_pid for n, u in serial.units.items()})
        assert store_files(par_dir) == store_files(serial_dir)

    def test_slow_io(self, tmp_path):
        """Latency changes nothing but the clock: a store saved through
        SlowFS is byte-identical to one saved at full speed."""
        fast_dir = str(tmp_path / "fast")
        slow_dir = str(tmp_path / "slow")
        _pids, fast_files = build_flow("chain", "comment-edit", 0,
                                       fast_dir)

        workload = generate_workload(SHAPES["chain"](),
                                     helpers_per_unit=1)
        slow_fs = SlowFS(write_delay=0.001)
        builder = CutoffBuilder(workload.project,
                                store=BinStore(fs=slow_fs))
        parallel_build(builder, jobs=4, pool="thread")
        builder.store.save_directory(slow_dir)
        workload.edit_comment("u001")
        builder = CutoffBuilder(
            workload.project,
            store=BinStore.load_directory(slow_dir, fs=slow_fs))
        parallel_build(builder, jobs=4, pool="thread")
        builder.store.save_directory(slow_dir)

        assert slow_fs.op_log  # the latency really was injected
        assert store_files(slow_dir) == fast_files

    def test_two_writer_store(self, tmp_path):
        """After two racing merge-writers, serial and parallel sessions
        over the surviving store converge to identical bytes."""
        from repro.cm.faults import TwoWriterInterleaver

        racing = str(tmp_path / "racing")
        workload = generate_workload(SHAPES["fanout"](),
                                     helpers_per_unit=1)
        drv = TwoWriterInterleaver("AB" * 60)
        store_a = BinStore(fs=drv.fs("A"))
        builder_a = CutoffBuilder(workload.project, store=store_a)
        builder_a.build()
        workload_b = generate_workload(SHAPES["fanout"](),
                                       helpers_per_unit=1)
        workload_b.edit_implementation("u002")
        store_b = BinStore(fs=drv.fs("B"))
        builder_b = CutoffBuilder(workload_b.project, store=store_b)
        builder_b.build()
        drv.run(lambda: store_a.save_directory(racing, merge=True),
                lambda: store_b.save_directory(racing, merge=True))
        assert BinStore.fsck(racing).ok

        serial_dir = str(tmp_path / "serial")
        par_dir = str(tmp_path / "par")
        shutil.copytree(racing, serial_dir)
        shutil.copytree(racing, par_dir)
        serial = CutoffBuilder(
            workload_b.project,
            store=BinStore.load_directory(serial_dir))
        serial.build()
        serial.store.save_directory(serial_dir)
        par = CutoffBuilder(workload_b.project,
                            store=BinStore.load_directory(par_dir))
        parallel_build(par, jobs=4, pool="thread")
        par.store.save_directory(par_dir)

        assert ({n: u.export_pid for n, u in par.units.items()}
                == {n: u.export_pid for n, u in serial.units.items()})
        assert store_files(par_dir) == store_files(serial_dir)
