"""Persisted dependency facts: each bin record header carries its unit's
defined and mentioned module names, so a new session parses only the
sources whose digest changed, and a compile reuses the declarations
the dependency analysis already parsed.

Covers the exact parse counts, the facts' content, what a damaged,
tampered or missing ``dep_facts`` field does, the compact header
encoding, and the ``analyze`` entry of the report's phase totals.
"""

import json
import sys

import pytest

from repro.basis import make_basis
from repro.cm import BinStore, CutoffBuilder, Project
from repro.cm.__main__ import main
from repro.cm.depend import analyze, dep_facts
from repro.cm.faults import header_path, payload_path
from repro.cm.report import PHASES
from repro.cm.store import _record_digest
from repro.lang import parser
from repro.workload import generate_workload, layered


@pytest.fixture
def parses(monkeypatch):
    """Every ``parse_program`` call, counted through each module that
    imported it by name; the list holds the parsed source texts."""
    make_basis()  # the process-wide basis parses its prelude once
    calls = []
    real = parser.parse_program

    def counting(source):
        calls.append(source)
        return real(source)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") \
                and getattr(module, "parse_program", None) is real:
            monkeypatch.setattr(module, "parse_program", counting)
    return calls


def workload():
    return generate_workload(layered([1, 3, 4, 3, 1], fan_in=2, seed=7),
                             helpers_per_unit=2)


def session(project, store_dir):
    return CutoffBuilder(project, store=BinStore.load_directory(store_dir))


class TestParseCounts:
    def test_cold_null_and_one_edit(self, tmp_path, parses):
        w = workload()
        n = len(w.project)
        store_dir = str(tmp_path / "bins")

        cold = CutoffBuilder(w.project)
        assert len(cold.build().compiled) == n
        cold.store.save_directory(store_dir)
        assert len(parses) == n  # once each: analysis, reused by compile

        del parses[:]
        null = session(w.project, store_dir)
        assert len(null.build().loaded) == n
        assert parses == []  # every unit analyzed from its record

        w.edit_implementation("u002")
        del parses[:]
        edited = session(w.project, store_dir)
        assert edited.build().compiled == ["u002"]
        assert parses == [w.project.source("u002")]

    def test_interface_edit_parses_each_recompiled_unit_once(
            self, tmp_path, parses):
        w = workload()
        store_dir = str(tmp_path / "bins")
        cold = CutoffBuilder(w.project)
        cold.build()
        cold.store.save_directory(store_dir)

        w.edit_interface("u000")
        del parses[:]
        builder = session(w.project, store_dir)
        report = builder.build()
        assert len(report.compiled) > 1
        assert sorted(parses) == sorted(
            w.project.source(name) for name in report.compiled)


class TestFactsContent:
    SOURCES = {
        "a": "structure A = struct val x = 1 end",
        "b": ("local structure P = struct val w = A.x end\n"
              "in structure S = struct val v = P.w end end\n"
              "signature SIG = sig val v : int end"),
        "c": "structure C = struct val y = S.v + A.x end",
    }

    def test_defines_include_local_private_and_mentions_unresolved(self):
        builder = CutoffBuilder(Project.from_sources(self.SOURCES))
        builder.build()
        assert builder.store.get("b").dep_facts == {
            "defines": ["signatures:SIG", "structures:P", "structures:S"],
            "mentions": ["structures:A"],
        }
        assert builder.store.get("c").dep_facts == {
            "defines": ["structures:C"],
            "mentions": ["structures:A", "structures:S"],
        }

    def test_unchanged_importer_re_resolves_a_moved_module(self, tmp_path):
        project = Project.from_sources(self.SOURCES)
        builder = CutoffBuilder(project)
        builder.build()
        store_dir = str(tmp_path / "bins")
        builder.store.save_directory(store_dir)
        # A moves from unit a to unit b; c's source is unchanged.
        project.edit("a", "structure Z = struct end")
        project.edit("b", self.SOURCES["a"] + "\n" + self.SOURCES["b"])
        moved = session(project, store_dir)
        graph = moved.analyze()
        assert "c" not in graph.parsed  # analyzed from its record's facts
        fresh = analyze(project)
        assert graph.deps == fresh.deps == {"a": [], "b": [], "c": ["b"]}
        assert graph.uses == fresh.uses
        # c's import list changed, so it recompiles against b.
        assert moved.build().compiled == ["a", "b", "c"]
        exports = moved.link()
        assert exports["c"].structures["C"].values["y"] == 2


def rewrite_header(store_dir, name, change, resign=True):
    """Rewrite one record's header through ``change(header)``; with
    ``resign`` the whole-record digest is recomputed, so only the
    field-level checks can object."""
    path = header_path(store_dir, name)
    with open(path, encoding="utf-8") as fh:
        header = json.load(fh)
    change(header)
    if resign:
        with open(payload_path(store_dir, name), "rb") as fh:
            header["record_digest"] = _record_digest(header, fh.read())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(header, fh, separators=(",", ":"))


@pytest.fixture
def built(tmp_path):
    """A two-unit project built and saved by the CLI."""
    srcdir = tmp_path / "proj"
    srcdir.mkdir()
    (srcdir / "base.sml").write_text(
        "structure Base = struct fun triple x = 3 * x end\n")
    (srcdir / "main.sml").write_text(
        "structure Main = struct val answer = Base.triple 14 end\n")
    assert main([str(srcdir), "--no-link"]) == 0
    return str(srcdir), str(srcdir / ".bin")


ILL_TYPED = [
    ["structures:Base"],
    {"defines": "structures:Base", "mentions": []},
    {"defines": ["structures:Base"]},
    {"defines": ["structures:Base"], "mentions": [], "extra": []},
    {"defines": ["values:x"], "mentions": []},
    {"defines": ["structures:"], "mentions": []},
    {"defines": [7], "mentions": []},
]


class TestDamagedFacts:
    @pytest.mark.parametrize("facts", ILL_TYPED)
    def test_ill_typed_facts_are_malformed_header(self, built, facts,
                                                  capsys):
        srcdir, store_dir = built
        rewrite_header(store_dir, "base",
                       lambda h: h.update(dep_facts=facts))
        store = BinStore.load_directory(store_dir)
        assert store.health.kinds_for("base") == ["malformed-header"]
        assert "base" not in store
        capsys.readouterr()
        assert main([srcdir, "--fsck"]) == 1
        out = capsys.readouterr().out
        assert "malformed-header" in out and "base" in out

    def test_ill_typed_facts_recompile_cleanly(self, built, capsys):
        srcdir, store_dir = built
        rewrite_header(store_dir, "base",
                       lambda h: h.update(dep_facts={"defines": 1}))
        capsys.readouterr()
        assert main([srcdir, "--print", "Main.answer"]) == 0
        out = capsys.readouterr().out
        assert "Main.answer = 42" in out
        assert "[compiled] base" in out

    def test_tampered_facts_fail_the_record_digest(self, built):
        _srcdir, store_dir = built
        # Drop the edge main -> base without re-signing the record.
        rewrite_header(store_dir, "main",
                       lambda h: h["dep_facts"].update(mentions=[]),
                       resign=False)
        store = BinStore.load_directory(store_dir)
        assert store.health.kinds_for("main") == ["record-digest-mismatch"]
        project = Project.from_directory(_srcdir)
        builder = CutoffBuilder(project, store=store)
        report = builder.build()
        assert report.compiled == ["main"]
        assert builder.last_graph.deps["main"] == ["base"]

    def test_record_without_facts_loads_and_is_parsed(self, built,
                                                      parses):
        srcdir, store_dir = built
        rewrite_header(store_dir, "base", lambda h: h.pop("dep_facts"))
        store = BinStore.load_directory(store_dir)
        assert store.health.ok
        assert store.get("base").dep_facts is None
        project = Project.from_directory(srcdir)
        builder = CutoffBuilder(project, store=store)
        report = builder.build()
        assert sorted(report.loaded) == ["base", "main"]
        assert parses == [project.source("base")]
        assert builder.link()["main"].structures["Main"].values[
            "answer"] == 42

        # Once recompiled, the unit's record carries facts again.
        project.edit("base", project.source("base") + "\n")
        report = builder.build()
        assert report.compiled == ["base"]
        assert builder.store.get("base").dep_facts == dep_facts(
            parser.parse_program(project.source("base")))


class TestHeaderEncoding:
    def test_headers_are_compact_json(self, built):
        _srcdir, store_dir = built
        for name in ("base", "main"):
            with open(header_path(store_dir, name), "rb") as fh:
                raw = fh.read()
            header = json.loads(raw)
            assert raw == json.dumps(
                header, separators=(",", ":")).encode("utf-8")
            assert "dep_facts" in header

    def test_saved_facts_round_trip(self, tmp_path):
        w = workload()
        builder = CutoffBuilder(w.project)
        builder.build()
        store_dir = str(tmp_path / "bins")
        builder.store.save_directory(store_dir)
        loaded = BinStore.load_directory(store_dir)
        for name in w.project.names():
            assert loaded.get(name).dep_facts == dep_facts(
                parser.parse_program(w.project.source(name)))


class TestAnalyzePhase:
    def test_phase_totals_gain_analyze(self, tmp_path):
        w = workload()
        report = CutoffBuilder(w.project).build()
        totals = report.phase_totals()
        assert list(totals) == list(PHASES) + ["analyze"]
        assert totals["analyze"] > 0
        # Parsing happened once, in the analysis: no unit parsed again.
        assert totals["parse"] < totals["analyze"]

    def test_stats_flag_shows_analysis(self, built, capsys):
        srcdir, _store_dir = built
        capsys.readouterr()
        assert main([srcdir, "--stats", "--no-link"]) == 0
        assert "dependency analysis: " in capsys.readouterr().out

    def test_text_trace_shows_analysis(self, built, capsys):
        srcdir, _store_dir = built
        capsys.readouterr()
        assert main([srcdir, "--trace", "--no-link"]) == 0
        out = capsys.readouterr().out
        [line] = [ln for ln in out.splitlines()
                  if ln.startswith("phase totals: ")]
        assert "analyze " in line


class TestReusedDeclarations:
    """An unchanged unit recompiled in the same session reuses the
    declarations parsed in an earlier pass, already elaborated once;
    the second elaboration must not see the first one's annotations."""

    LIB_HIGHER = """
signature S0 = sig val v : int end
functor F(functor Mk(P : S0) : S0) = struct
  structure B = struct val v = 1 end
  structure A = Mk(B)
  val v = A.v + 10
end
"""
    LIB_FIRST = """
signature S0 = sig val v : int end
functor F(P : S0) = struct val v = P.v + 1000 end
"""
    APP = """
structure G = struct val v = 100 end
functor G(P : S0) = struct val v = P.v + 1 end
structure R = F(G)
"""

    def test_functor_argument_kind_is_re_elaborated(self):
        project = Project.from_sources({"lib": self.LIB_HIGHER,
                                        "app": self.APP})
        builder = CutoffBuilder(project)
        builder.build()
        assert builder.link()["app"].structures["R"].values["v"] == 12
        project.edit("lib", self.LIB_FIRST)
        assert builder.build().compiled == ["lib", "app"]
        assert builder.link()["app"].structures["R"].values["v"] == 1100
