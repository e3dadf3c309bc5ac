"""Property: a dependency graph served from persisted facts is the graph
a from-scratch parse gives, and so is everything built on it.

Random projects: modules ``S0..Sk`` spread over a few units, each module
reading the value of some earlier ones, some of them defined through a
``local``-private helper structure.  Random edit scripts change a
module's body, move a module to another unit (its importers' sources
stay unchanged and must re-resolve to the new provider), or toggle its
``local`` wrapper.  After every edit, a new session over the saved
store must

- build the same ``deps``, ``dependents``, ``order`` and ``uses`` as
  :func:`repro.cm.depend.analyze` over a fresh parse (or fail with the
  same dependency error, when a move made a cycle);
- write the same store bytes as the same session with every record's
  facts withheld (so every unit is parsed);
- link to the same export pids as a clean build of the final sources.
"""

import filecmp
import os
import shutil

from hypothesis import given, settings, strategies as st

from repro.cm import BinStore, CutoffBuilder, Project
from repro.cm.depend import DependencyError, analyze, dep_facts
from repro.lang.parser import parse_program

MAX_MODULES = 6
MAX_UNITS = 4


def module_source(k: int, reads: list[int], salt: int, local: bool) -> str:
    value = " + ".join([str(salt + 1)] + [f"S{j}.v" for j in reads])
    if local:
        return (f"local structure P{k} = struct val w = {value} end\n"
                f"in structure S{k} = struct val v = P{k}.w end end\n")
    return f"structure S{k} = struct val v = {value} end\n"


class Model:
    """The project as data: which unit holds each module, and how each
    module is written."""

    def __init__(self, n_units, reads, owner, local):
        self.units = [f"u{i}" for i in range(n_units)]
        self.reads = reads
        self.owner = owner
        self.local = local
        self.salt = [0] * len(reads)

    def sources(self) -> dict[str, str]:
        out = {unit: "" for unit in self.units}
        for k in range(len(self.reads)):
            out[self.units[self.owner[k]]] += module_source(
                k, self.reads[k], self.salt[k], self.local[k])
        return out

    def apply(self, edit) -> None:
        kind, k, arg = edit
        k %= len(self.reads)
        if kind == "body":
            self.salt[k] += 1
        elif kind == "move":
            self.owner[k] = arg % len(self.units)
        else:
            self.local[k] = not self.local[k]


@st.composite
def models(draw):
    n_modules = draw(st.integers(min_value=2, max_value=MAX_MODULES))
    n_units = draw(st.integers(min_value=2, max_value=MAX_UNITS))
    reads = [sorted(draw(st.sets(st.integers(0, k - 1), max_size=2)))
             if k else [] for k in range(n_modules)]
    # Owners non-decreasing in module index: the initial project is
    # acyclic at the unit level (moves may later make cycles).
    owner = sorted(draw(st.lists(st.integers(0, n_units - 1),
                                 min_size=n_modules, max_size=n_modules)))
    local = draw(st.lists(st.booleans(), min_size=n_modules,
                          max_size=n_modules))
    return Model(n_units, reads, owner, local)


edits = st.lists(
    st.tuples(st.sampled_from(["body", "move", "local"]),
              st.integers(0, MAX_MODULES - 1),
              st.integers(0, MAX_UNITS - 1)),
    min_size=1, max_size=4)


def graph_fields(graph):
    return (graph.deps, graph.dependents, graph.order, graph.uses)


def record_files(store_dir):
    return sorted(entry for entry in os.listdir(store_dir)
                  if entry.endswith((".bin", ".bin.json"))
                  or entry == "MANIFEST.json")


@given(models(), edits)
@settings(max_examples=20, deadline=None)
def test_facts_served_graph_equals_fresh_parse(tmp_path_factory, model,
                                               script):
    base = tmp_path_factory.mktemp("facts")
    store_dir = str(base / "store")
    project = Project.from_sources(model.sources())
    cold = CutoffBuilder(project)
    cold.build()
    cold.store.save_directory(store_dir)

    for edit in script:
        model.apply(edit)
        for unit, text in model.sources().items():
            if project.source(unit) != text:
                project.edit(unit, text)

        try:
            fresh = analyze(project)
        except DependencyError as err:
            served = CutoffBuilder(project,
                                   store=BinStore.load_directory(store_dir))
            try:
                served.analyze()
            except DependencyError as served_err:
                assert str(served_err) == str(err)
            else:
                raise AssertionError("facts hid a dependency error")
            continue

        # The same session twice over copies of the store: once served
        # from the persisted facts, once with every record's facts
        # withheld in memory (every unit parsed).
        parsed_dir = str(base / "parsed")
        shutil.rmtree(parsed_dir, ignore_errors=True)
        shutil.copytree(store_dir, parsed_dir)
        served = CutoffBuilder(project,
                               store=BinStore.load_directory(store_dir))
        store = BinStore.load_directory(parsed_dir)
        for name in store.names():
            store.get(name).dep_facts = None
        parsed = CutoffBuilder(project, store=store)

        assert graph_fields(served.analyze()) == graph_fields(fresh)
        assert graph_fields(parsed.analyze()) == graph_fields(fresh)

        served.build()
        parsed.build()
        served.store.save_directory(store_dir)
        parsed.store.save_directory(parsed_dir)
        names = record_files(store_dir)
        assert names == record_files(parsed_dir)
        _same, differ, errors = filecmp.cmpfiles(store_dir, parsed_dir,
                                                 names, shallow=False)
        assert differ == [] and errors == []

        # Every record's facts describe its unit's current source.
        for name in project.names():
            assert served.store.get(name).dep_facts == dep_facts(
                parse_program(project.source(name)))

        clean = CutoffBuilder(project)
        clean.build()
        assert {n: u.export_pid for n, u in served.units.items()} == {
            n: u.export_pid for n, u in clean.units.items()}
        values = {n: d.structures for n, d in served.link().items()}
        expected = {n: d.structures for n, d in clean.link().items()}
        for unit in project.names():
            for module in expected[unit]:
                assert (values[unit][module].values["v"]
                        == expected[unit][module].values["v"])
