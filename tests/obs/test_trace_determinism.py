"""Observability must not observe itself into the build output.

A traced build must produce byte-identical artifacts (export pids and
on-disk store files) to an untraced build: the meter reads the build,
it never feeds it.
"""

import os

from repro.cm import BinStore, CutoffBuilder, parallel_build
from repro.cm.store import LOCK_NAME, RECORD_LOCK_SUFFIX
from repro.obs import Tracer
from repro.workload import generate_workload
from repro.workload.shapes import diamond


def store_files(store_dir):
    out = {}
    for entry in sorted(os.listdir(store_dir)):
        if entry == LOCK_NAME or entry.endswith(RECORD_LOCK_SUFFIX):
            continue
        with open(os.path.join(store_dir, entry), "rb") as f:
            out[entry] = f.read()
    return out


def flow(store_dir, tracer=None, jobs=0):
    """Clean build + save, interface edit, rebuild + save."""
    workload = generate_workload(diamond(2, 2), helpers_per_unit=1)

    def run(builder):
        if jobs:
            return parallel_build(builder, jobs=jobs, pool="thread")
        return builder.build()

    builder = CutoffBuilder(workload.project, meter=tracer)
    run(builder)
    builder.store.save_directory(store_dir)
    workload.edit_interface("u000")
    builder = CutoffBuilder(
        workload.project,
        store=BinStore.load_directory(store_dir), meter=tracer)
    run(builder)
    builder.store.save_directory(store_dir)
    pids = {n: u.export_pid for n, u in builder.units.items()}
    return pids, store_files(store_dir)


class TestTracedBuildsAreByteIdentical:
    def test_serial(self, tmp_path):
        plain = flow(str(tmp_path / "plain"))
        tracer = Tracer()
        traced = flow(str(tmp_path / "traced"), tracer=tracer)
        assert traced == plain
        assert tracer.roots  # the tracer really was recording

    def test_parallel(self, tmp_path):
        plain = flow(str(tmp_path / "plain"), jobs=4)
        tracer = Tracer()
        traced = flow(str(tmp_path / "traced"), tracer=tracer, jobs=4)
        assert traced == plain
        assert any(s.name == "apply" for s in tracer.all_spans())

    def test_traced_serial_matches_untraced_parallel(self, tmp_path):
        serial = flow(str(tmp_path / "serial"), tracer=Tracer())
        par = flow(str(tmp_path / "par"), jobs=4)
        assert serial == par
