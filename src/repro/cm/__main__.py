"""Command-line build driver: ``python -m repro.cm <srcdir>``.

A miniature `sml-build`: compiles every ``*.sml`` unit in a directory
with the cutoff manager, reusing (and refreshing) bin files in
``<srcdir>/.bin``, then type-safely links and optionally prints a
binding.

Options:
    --manager {cutoff,make,smart}   recompilation strategy (default cutoff)
    --print STRUCTURE.NAME          after linking, print this binding
    --no-link                       stop after building
    --stats                         per-phase timing summary
    --analyze                       run the static analyzer after building
                                    (reuses the build's dependency cache)
    --strict                        with --analyze: exit 1 on warnings
    --fsck                          check the bin store's health instead of
                                    building: exit 0 healthy, 1 damaged
    --json                          with --fsck: machine-readable report
    --explain [UNIT]                print the cutoff-explanation ledger:
                                    why each unit (or one unit) was
                                    recompiled or reused
    --explain-diff [UNIT]           diff this build's decisions against
                                    the previous recorded build profile:
                                    what changed since last time and why
    --trace                         print the span-tree trace report and
                                    the critical path after building
    --trace-out FILE                write a trace file after building
                                    (chrome://tracing / ui.perfetto.dev,
                                    or OTLP/JSON with --trace-format)
    --trace-format {chrome,otlp}    trace file format for --trace-out
                                    (default chrome)
    --trace-sample N                without --trace/--trace-out: record
                                    full spans for 1-in-N builds and
                                    cheap counters for the rest
    --priority {name,longest-first} order ready units by name, or
                                    longest compile first using recorded
                                    build profiles (same store bytes
                                    either way)
    --retries N                     supervised build: retry transient
                                    worker failures up to N times per unit
    --timeout SECONDS               supervised build: per-attempt wall
                                    clock; hung workers are rescheduled
    --resume                        continue a killed build from the bin
                                    store + journal checkpoint
    --quarantine                    with --fsck: move damaged record files
                                    aside into .bin/quarantine/
    --serve                         run as a resident build daemon:
                                    JSON-lines requests on stdin, one
                                    JSON response per line on stdout
                                    (see repro.cm.daemon)
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.cm import (
    BinStore,
    CutoffBuilder,
    Project,
    SmartBuilder,
    StoreLockedError,
    TimestampBuilder,
)
from repro.dynamic.values import format_value

MANAGERS = {
    "cutoff": CutoffBuilder,
    "make": TimestampBuilder,
    "smart": SmartBuilder,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cm",
        description="Build a directory of SML compilation units, or a "
                    ".cm group description file.")
    parser.add_argument("srcdir", nargs="?", default=None,
                        help="directory containing *.sml units, or a .cm "
                             "group description file (optional with "
                             "--serve: requests may name their group)")
    parser.add_argument("--manager", choices=sorted(MANAGERS),
                        default="cutoff")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="compile up to N independent units "
                             "concurrently (each unit dispatches once "
                             "its imports settle; results are "
                             "byte-identical to a serial build)")
    parser.add_argument("--pool", choices=["process", "thread"],
                        default="process",
                        help="worker pool kind for --jobs > 1 (process "
                             "pools degrade to threads where "
                             "unavailable)")
    parser.add_argument("--print", dest="print_path", metavar="S.NAME",
                        help="print a structure binding after linking")
    parser.add_argument("--no-link", action="store_true")
    parser.add_argument("--stats", action="store_true")
    parser.add_argument("--analyze", action="store_true",
                        help="run the static analyzer over the project "
                             "after building (no extra parse pass)")
    parser.add_argument("--strict", action="store_true",
                        help="with --analyze: exit 1 when the analyzer "
                             "reports warnings or errors")
    parser.add_argument("--fsck", action="store_true",
                        help="check the bin store's health instead of "
                             "building (exit 0 healthy, 1 damaged)")
    parser.add_argument("--json", action="store_true",
                        help="with --fsck: print the health report as "
                             "JSON")
    parser.add_argument("--explain", nargs="?", const="*", default=None,
                        metavar="UNIT",
                        help="print why each unit (or just UNIT) was "
                             "recompiled or reused")
    parser.add_argument("--explain-diff", dest="explain_diff",
                        nargs="?", const="*", default=None,
                        metavar="UNIT",
                        help="diff this build's decisions against the "
                             "previous recorded build profile: which "
                             "units' verdicts or culprit imports "
                             "changed since last time")
    parser.add_argument("--trace", action="store_true",
                        help="print the span-tree trace report and the "
                             "critical path after building")
    parser.add_argument("--trace-out", dest="trace_out", metavar="FILE",
                        help="write a trace file (Chrome trace_event "
                             "JSON embedding the decision ledger and "
                             "critical path, or OTLP with "
                             "--trace-format otlp)")
    parser.add_argument("--trace-format", dest="trace_format",
                        choices=["chrome", "otlp"], default="chrome",
                        help="file format for --trace-out: Chrome "
                             "trace_event JSON (default) or an "
                             "OTLP/JSON ExportTraceServiceRequest "
                             "with span links from recompiled units "
                             "to their culprit imports")
    parser.add_argument("--trace-sample", dest="trace_sample",
                        type=int, default=0, metavar="N",
                        help="sampled always-on tracing: record full "
                             "spans for 1-in-N builds (by profile "
                             "sequence) and cheap counters otherwise; "
                             "ignored when --trace/--trace-out force "
                             "a full tracer")
    parser.add_argument("--priority", choices=["name", "longest-first"],
                        default="name",
                        help="offer ready units by name order "
                             "(default) or longest compile first, using "
                             "per-unit times from recorded build "
                             "profiles; applies at every --jobs, and "
                             "store bytes are identical either way")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="supervise the build: retry transient "
                             "worker failures up to N times per unit "
                             "(capped exponential backoff); poison "
                             "units skip only their dependents")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="supervise the build: per-attempt wall "
                             "clock; a hung worker is abandoned and "
                             "its unit rescheduled")
    parser.add_argument("--resume", action="store_true",
                        help="continue a previously killed supervised "
                             "build from the bin store and its "
                             "BUILD_JOURNAL.json (completed units are "
                             "not recompiled)")
    parser.add_argument("--quarantine", action="store_true",
                        help="with --fsck: move damaged record files "
                             "aside into .bin/quarantine/ so the next "
                             "load starts clean")
    parser.add_argument("--serve", action="store_true",
                        help="run as a resident build daemon serving "
                             "JSON-lines requests on stdin (one JSON "
                             "response per line on stdout; ops: build, "
                             "ping, explain, explain-diff, stats, "
                             "shutdown)")
    parser.add_argument("--store-backend", dest="store_backend",
                        choices=["auto", "flat", "sharded", "remote"],
                        default="auto",
                        help="bin store layout: flat directory, "
                             "sharded-by-pid-prefix directories, or a "
                             "remote cache server (needs --store-url); "
                             "auto detects an existing local layout")
    parser.add_argument("--store-url", dest="store_url", metavar="URL",
                        default=None,
                        help="remote store server (rbs://host:port or "
                             "loopback://name); the local .bin "
                             "directory becomes its write-through "
                             "cache")
    args = parser.parse_args(argv)

    if args.serve:
        return _run_serve(args)
    if args.srcdir is None:
        parser.error("srcdir is required unless --serve is given")

    if args.fsck:
        return _run_fsck(args)

    tracer = None
    if args.trace or args.trace_out:
        from repro.obs.tracer import Tracer
        tracer = Tracer()

    if os.path.isfile(args.srcdir) and args.srcdir.endswith(".cm"):
        return _build_group_file(args, tracer)
    if not os.path.isdir(args.srcdir):
        print(f"error: {args.srcdir} is not a directory or .cm file",
              file=sys.stderr)
        return 2

    meter = tracer
    if meter is None and args.trace_sample > 0:
        meter = _sampled_meter(args)

    if meter is None:
        rc, _builder, _report = _build_directory(args, None)
        return rc
    with meter.span("run", cat="build", srcdir=args.srcdir):
        rc, builder, report = _build_directory(args, meter)
    if tracer is not None:
        trace_rc = _emit_trace(args, tracer, builder, report)
        return rc or trace_rc
    return rc


def _sampled_meter(args):
    """The ``--trace-sample N`` meter for this batch build: a full
    tracer when the next profile sequence number lands on the 1-in-N
    sample grid (builds 1, N+1, 2N+1, ...), cheap counters otherwise."""
    from repro.obs.history import BuildHistory
    from repro.obs.sampling import CounterMeter

    history = BuildHistory(os.path.join(args.srcdir, ".bin"))
    if (history.next_seq() - 1) % args.trace_sample == 0:
        from repro.obs.tracer import Tracer
        return Tracer()
    return CounterMeter()


def _store_backend_for(args, bin_dir):
    """The configured store backend for ``bin_dir``, or None when the
    defaults apply (auto-detected local layout, no URL)."""
    from repro.cm.backend import make_backend

    if args.store_backend == "auto" and not args.store_url:
        return None
    return make_backend(args.store_backend, bin_dir, url=args.store_url)


def _build_directory(args, tracer):
    """Build a source directory; returns ``(exit code, builder, report)``
    so trace emission can consult the ledger and dependency graph."""
    from repro.obs.meter import NULL_METER

    meter = tracer if tracer is not None else NULL_METER
    bin_dir = os.path.join(args.srcdir, ".bin")
    backend = _store_backend_for(args, bin_dir)
    if backend is not None:
        store = BinStore.load_directory(bin_dir, meter=meter,
                                        backend=backend)
    else:
        store = (BinStore.load_directory(bin_dir, meter=meter)
                 if os.path.isdir(bin_dir) else BinStore())
    if not store.health.ok:
        damaged = store.health.quarantined()
        print(f"warning: quarantined {len(store.health.corrupt)} damaged "
              f"bin record(s)"
              + (f" ({', '.join(sorted(damaged))})" if damaged else "")
              + "; they will be recompiled", file=sys.stderr)

    project = Project.from_directory(args.srcdir)
    if not len(project):
        print(f"error: no .sml files in {args.srcdir}", file=sys.stderr)
        return 2, None, None
    builder = MANAGERS[args.manager](project, store=store, meter=tracer)

    # Build history: the prior profile is the --explain-diff baseline
    # and feeds --priority longest-first; this build's profile is
    # recorded after a successful store save.
    from repro.obs.history import (
        BuildHistory,
        longest_first_key,
        profile_from_report,
    )
    history = BuildHistory(bin_dir, fs=store.fs)
    prior_profile = history.latest(args.manager)
    offer_key = None
    if args.priority == "longest-first":
        offer_key = longest_first_key(
            history.compile_seconds(args.manager))

    supervised = (args.retries is not None or args.timeout is not None
                  or args.resume)
    try:
        if supervised:
            from repro.cm.supervise import SupervisePolicy
            policy = SupervisePolicy(
                retries=args.retries if args.retries is not None else 2,
                timeout=args.timeout)
            report = builder.build(jobs=max(1, args.jobs),
                                   pool=args.pool, policy=policy,
                                   resume=args.resume,
                                   checkpoint_dir=bin_dir,
                                   offer_key=offer_key)
        else:
            report = builder.build(jobs=max(1, args.jobs),
                                   pool=args.pool,
                                   offer_key=offer_key)
    except Exception as err:  # ElabError, DependencyError, ParseError...
        print(f"error: {err}", file=sys.stderr)
        return 1, builder, None

    for outcome in report.outcomes:
        print(f"  [{outcome.action:>8}] {outcome.name}"
              + (f"  ({outcome.reason})" if outcome.reason else ""))
    if report.jobs > 1:
        print(f"parallel build: {report.jobs} jobs ({report.pool} pool)")
    print(report.summary())
    if args.explain is not None:
        unit = None if args.explain == "*" else args.explain
        print(builder.ledger.render_text(unit))
    if args.explain_diff is not None:
        from repro.obs.diff import diff_against_profile
        unit = None if args.explain_diff == "*" else args.explain_diff
        diff = diff_against_profile(builder.ledger, prior_profile)
        print(diff.render_text(unit))
    try:
        store.save_directory(bin_dir)  # self-instruments via store.meter
    except StoreLockedError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1, builder, report
    history.record(profile_from_report(
        report, ledger=builder.ledger,
        export_pids={name: unit.export_pid
                     for name, unit in builder.units.items()},
        group=args.srcdir, manager=args.manager))

    if report.failed or report.skipped:
        # A supervised build finished what it could; the casualties
        # are in the ledger (--explain) and the exit code says so.
        print(f"build incomplete: {len(report.failed)} unit(s) failed, "
              f"{len(report.skipped)} skipped (see --explain)",
              file=sys.stderr)
        return 1, builder, report

    if args.stats:
        times = [(o.name, o.times) for o in report.outcomes]
        total = sum(t.compile_total() + t.overhead_total()
                    for _n, t in times)
        print(f"total build time: {total:.3f}s "
              f"(compile {sum(t.compile_total() for _n, t in times):.3f}s, "
              f"hash+pickle {sum(t.overhead_total() for _n, t in times):.3f}s)")
        print(f"dependency analysis: "
              f"{report.phase_totals()['analyze']:.3f}s")

    if args.analyze:
        rc = _run_analysis(project, builder.last_graph,
                           builder._dep_cache, args.strict)
        if rc:
            return rc, builder, report

    if args.no_link:
        return 0, builder, report

    try:
        exports = builder.link()
    except Exception as err:
        print(f"link error: {err}", file=sys.stderr)
        return 1, builder, report
    print(f"linked {len(exports)} units")

    if args.print_path:
        try:
            struct_name, member = args.print_path.split(".", 1)
        except ValueError:
            print("error: --print takes STRUCTURE.NAME", file=sys.stderr)
            return 2, builder, report
        for export in exports.values():
            struct = export.structures.get(struct_name)
            if struct is not None and member in struct.values:
                print(f"{args.print_path} = "
                      f"{format_value(struct.values[member])}")
                return 0, builder, report
        print(f"error: {args.print_path} not found", file=sys.stderr)
        return 1, builder, report
    return 0, builder, report


def _emit_trace(args, tracer, builder, report) -> int:
    """Render/write trace artifacts after the run span has closed."""
    import json as json_mod

    from repro.obs.critical import critical_path, phase_rollup
    from repro.cm.report import PHASES

    graph = getattr(builder, "last_graph", None) if builder else None
    chain: list[str] = []
    chain_seconds = 0.0
    if report is not None and graph is not None:
        durations = {
            o.name: sum(getattr(o.times, p) for p in PHASES)
            for o in report.outcomes
        }
        chain, chain_seconds = critical_path(graph.order, graph.deps,
                                             durations)

    if args.trace:
        print(tracer.render_tree())
        if chain:
            print(f"critical path ({chain_seconds * 1e3:.1f} ms): "
                  + " -> ".join(chain))
        if report is not None:
            print("phase totals: " + ", ".join(
                f"{phase} {seconds * 1e3:.1f} ms"
                for phase, seconds in report.phase_totals().items()))

    if args.trace_out:
        if getattr(args, "trace_format", "chrome") == "otlp":
            payload = _otlp_payload(args, tracer, builder)
        else:
            extra = {
                "wallSeconds": round(tracer.wall(), 6),
                "criticalPath": {
                    "chain": chain,
                    "seconds": round(chain_seconds, 6),
                },
                "phaseRollup": phase_rollup(tracer),
            }
            if report is not None:
                extra["phaseTotals"] = report.phase_totals()
                extra["buildStats"] = report.stats()
            if builder is not None and builder.ledger is not None:
                extra["buildDecisions"] = builder.ledger.to_json()
            payload = tracer.to_chrome_trace(extra)
        try:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json_mod.dump(payload, fh, indent=1, sort_keys=True)
                fh.write("\n")
        except OSError as err:
            print(f"error: cannot write {args.trace_out}: {err}",
                  file=sys.stderr)
            return 1
        print(f"trace written to {args.trace_out}")
    return 0


def _otlp_payload(args, tracer, builder) -> dict:
    """The OTLP/JSON export for ``--trace-format otlp``: spans with
    resource attributes identifying the build, plus span links from
    each recompiled unit to its culprit imports."""
    import time

    from repro.obs.export import to_otlp

    resource = {
        "build.group": args.srcdir,
        "build.manager": args.manager,
        "build.schedule": "ready",
        "build.jobs": max(1, args.jobs),
    }
    ledger = builder.ledger if builder is not None else None
    base = max(0, time.time_ns() - int(tracer.wall() * 1e9))
    return to_otlp(tracer, resource=resource, ledger=ledger,
                   base_unix_nano=base)


def _run_serve(args) -> int:
    """Run the resident build daemon over stdin/stdout (see
    :mod:`repro.cm.daemon` for the wire protocol)."""
    from repro.cm.daemon import BuildDaemon, serve

    daemon = BuildDaemon(manager=args.manager, jobs=max(1, args.jobs),
                         pool=args.pool,
                         store_backend=args.store_backend,
                         store_url=args.store_url,
                         priority=args.priority,
                         trace_sample=max(0, args.trace_sample))
    default_group = args.srcdir if args.srcdir \
        and os.path.isdir(args.srcdir) else None
    return serve(daemon, sys.stdin, sys.stdout,
                 default_group=default_group)


def _run_fsck(args) -> int:
    """Check the bin store's health; exit 0 healthy, 1 damaged.

    Never raises: any unexpected failure is itself reported as a
    diagnostic with a non-zero exit."""
    import json as json_mod

    try:
        target = args.srcdir
        if os.path.basename(os.path.normpath(target)) == ".bin":
            bin_dir = target
        else:
            bin_dir = os.path.join(target, ".bin")
        # Backend-aware: a sharded layout is detected from the
        # directory, and --store-url checks the remote store (damage is
        # fetched, classified with the same taxonomy, and -- with
        # --quarantine -- healed on the server).
        backend = _store_backend_for(args, bin_dir)
        report = BinStore.fsck(bin_dir, quarantine=args.quarantine,
                               backend=backend)
        if args.json:
            print(json_mod.dumps(report.to_json(), indent=1,
                                 sort_keys=True))
        else:
            print(report.render_text())
        return 0 if report.ok else 1
    except Exception as err:
        print(f"fsck error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


def _run_analysis(project, graph, cache, strict: bool) -> int:
    """Run the static analyzer after a build, reusing the builder's
    dependency graph and cache (no extra parse pass)."""
    from repro.analysis import Severity, analyze_project, render_text

    result = analyze_project(project, graph=graph, cache=cache)
    print(render_text(result.diagnostics, result.cascade))
    if result.failed:
        return 1
    if strict and result.gate(Severity.WARNING):
        return 1
    return 0


def _build_group_file(args, tracer=None) -> int:
    from repro.cm.descfile import DescFileError, load_group_file
    from repro.cm.group import GroupBuilder

    from contextlib import nullcontext

    run_span = (tracer.span("run", cat="build", group=args.srcdir)
                if tracer is not None else nullcontext())
    with run_span:
        try:
            group, project = load_group_file(args.srcdir)
        except DescFileError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        gb = GroupBuilder(project, builder_class=MANAGERS[args.manager],
                          meter=tracer)
        try:
            reports = gb.build(group)
        except Exception as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    for group_name, report in reports.items():
        print(f"group {group_name}: {report.summary()}")
    if args.explain is not None and gb.ledger is not None:
        unit = None if args.explain == "*" else args.explain
        print(gb.ledger.render_text(unit))
    if tracer is not None:
        rc = _emit_trace(args, tracer, gb._builder, None)
        if rc:
            return rc
    if args.analyze:
        rc = _run_analysis(project, None, None, args.strict)
        if rc:
            return rc
    if args.no_link:
        return 0
    try:
        exports = gb.link()
    except Exception as err:
        print(f"link error: {err}", file=sys.stderr)
        return 1
    print(f"linked {len(exports)} units")
    if args.print_path:
        try:
            struct_name, member = args.print_path.split(".", 1)
        except ValueError:
            print("error: --print takes STRUCTURE.NAME", file=sys.stderr)
            return 2
        for export in exports.values():
            struct = export.structures.get(struct_name)
            if struct is not None and member in struct.values:
                print(f"{args.print_path} = "
                      f"{format_value(struct.values[member])}")
                return 0
        print(f"error: {args.print_path} not found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
