"""Source-level dependency analysis.

"The IRM analyzes dependencies at several levels.  ... it uses the free
structure names to determine which units each unit depends on."  We parse
each unit, collect the module-level names it mentions but does not
define, and resolve them to the units that define them.  Those per-unit
facts (:func:`dep_facts`) are cached by source digest and persisted in
each bin record, so an unchanged source is never parsed again just to
re-derive its edges.

Per the paper's footnote 4, the IRM requires separately compiled units to
contain structures, functors and signatures -- not top-level values and
types; :func:`analyze` enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang import ast
from repro.lang.freevars import (defined_module_names, module_keys,
                                 module_level_mentions, split_binding_key)
from repro.lang.parser import parse_program
from repro.cm.project import Project
from repro.units.pipeline import source_digest


class DependencyError(Exception):
    """Unresolvable or cyclic inter-unit dependencies, or a unit that
    violates the module-declarations-only rule.

    When the failure is a dependency cycle, ``cycle`` holds one concrete
    closed path (``[A, B, A]``); otherwise it is None.
    """

    def __init__(self, message: str, cycle: list[str] | None = None):
        super().__init__(message)
        self.cycle = cycle


#: Declarations allowed at the top level of a compilation unit.
_MODULE_DECS = (ast.StructureDec, ast.SignatureDec, ast.FunctorDec,
                ast.LocalDec, ast.FixityDec)


@dataclass
class DepGraph:
    """The project's dependency structure.

    Attributes:
        deps: unit -> sorted list of units it imports.
        dependents: unit -> sorted list of units importing it.
        order: a topological order (imports before importers).
        parsed: unit -> parsed declarations, for the units whose
            declarations are in memory: parsed by this analysis, or
            earlier in the same builder session.  A unit analyzed from
            persisted dependency facts is absent until :meth:`decs`
            parses it.
    """

    deps: dict[str, list[str]] = field(default_factory=dict)
    dependents: dict[str, list[str]] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    parsed: dict[str, list[ast.Dec]] = field(default_factory=dict)
    #: unit -> provider unit -> the "ns:name" keys it mentions; the smart
    #: builder's per-name dependency data.
    uses: dict[str, dict[str, set[str]]] = field(default_factory=dict)
    #: The analyzed sources, for :meth:`decs` to parse on a miss.
    project: Project | None = field(default=None, repr=False,
                                    compare=False)

    def decs(self, name: str) -> list[ast.Dec]:
        """``name``'s parsed declarations, parsing its source on a miss
        (the unit was analyzed from persisted facts)."""
        decs = self.parsed.get(name)
        if decs is None:
            decs = self.parsed[name] = parse_program(
                self.project.source(name))
        return decs

    def transitive_dependents(self, name: str) -> set[str]:
        out: set[str] = set()
        frontier = [name]
        while frontier:
            node = frontier.pop()
            for dep in self.dependents.get(node, ()):  # direct importers
                if dep not in out:
                    out.add(dep)
                    frontier.append(dep)
        return out


def dep_facts(decs: list[ast.Dec]) -> dict[str, list[str]]:
    """A unit's dependency facts, as persisted in its bin record header:
    the module-level names it defines (``local``-private ones included)
    and the ones it mentions but does not define, both as sorted
    ``"ns:name"`` keys.  Mentions stay unresolved, so an unchanged unit
    re-resolves them against whichever unit provides each name now."""
    return {
        "defines": module_keys(defined_module_names(decs)),
        "mentions": module_keys(module_level_mentions(decs).module_names()),
    }


def analyze(project: Project, restrict: list[str] | None = None,
            visible: dict[str, set[str]] | None = None,
            cache: dict | None = None,
            extra_providers: dict[str, str] | None = None) -> DepGraph:
    """Build the dependency graph of ``project``.

    Args:
        project: the sources.
        restrict: consider only these units (used by group builds).
        visible: optional map unit -> set of units it may import; an edge
            outside the set is a :class:`DependencyError` (group/library
            visibility enforcement).
        cache: optional per-builder dictionary, source digest ->
            ``(facts, decs)``: the :func:`dep_facts` of that source and
            its parsed declarations, or None when the facts came from a
            bin record.  A source whose digest is cached is not parsed,
            so a rebuild -- or a new session seeded from the bin store
            -- only re-analyzes edited files ("the dependency
            information for each of the library's files [is] computed
            and cached", §9).  Entries for sources no longer analyzed
            are dropped.
        extra_providers: module name -> providing unit, for units that
            exist outside the project's sources (stable libraries); edges
            to them appear in ``deps`` but not in the build ``order``.
    """
    # Imported lazily: repro.analysis.context imports this module, so a
    # top-level import of the analysis package would be circular.
    from repro.analysis.scopes import uses_from_mentions

    names = restrict if restrict is not None else project.names()
    graph = DepGraph(project=project)
    cache = cache if cache is not None else {}

    #: module name -> defining unit
    providers: dict[str, str] = dict(extra_providers or {})
    external_units = set(providers.values())
    mentions: dict[str, list[str]] = {}
    digests: set[str] = set()
    for name in names:
        source = project.source(name)
        digest = source_digest(source)
        digests.add(digest)
        entry = cache.get(digest)
        if entry is None:
            decs = parse_program(source)
            _check_module_only(name, decs)
            entry = cache[digest] = (dep_facts(decs), decs)
        facts, decs = entry
        if decs is not None:
            graph.parsed[name] = decs
        mentions[name] = facts["mentions"]
        for key in facts["defines"]:
            module_name = split_binding_key(key)[1]
            other = providers.get(module_name)
            if other is not None and other != name:
                raise DependencyError(
                    f"module {module_name} is defined by both {other} "
                    f"and {name}")
            providers[module_name] = name
    for digest in set(cache) - digests:
        del cache[digest]

    for name in names:
        # The shared use-set computation (repro.analysis.scopes): the
        # per-binding keys double as the dependency edges.
        uses = uses_from_mentions(mentions[name], providers, name)
        deps = set(uses)
        graph.uses[name] = uses
        if visible is not None:
            bad = deps - visible.get(name, set()) - external_units
            if bad:
                raise DependencyError(
                    f"unit {name} imports {sorted(bad)} outside its "
                    f"group's visibility")
        graph.deps[name] = sorted(deps)
        graph.dependents.setdefault(name, [])

    for name in names:
        for dep in graph.deps[name]:
            graph.dependents.setdefault(dep, []).append(name)
    for name in graph.dependents:
        graph.dependents[name].sort()

    graph.order = _topo_order(names, graph.deps)
    return graph


def _check_module_only(name: str, decs: list[ast.Dec]) -> None:
    for dec in decs:
        if not isinstance(dec, _MODULE_DECS):
            raise DependencyError(
                f"unit {name}: separately compiled units may contain only "
                f"structure/signature/functor declarations, found "
                f"{type(dec).__name__}")
        if isinstance(dec, ast.LocalDec):
            _check_module_only(name, dec.public)


def _topo_order(names: list[str], deps: dict[str, list[str]]) -> list[str]:
    """Stable topological sort (alphabetical among ready units).

    Dependencies outside ``names`` (stable-library units, already live)
    do not gate ordering.
    """
    name_set = set(names)
    remaining = {
        name: {d for d in deps[name] if d in name_set} for name in names
    }
    order: list[str] = []
    ready = sorted(name for name, d in remaining.items() if not d)
    while ready:
        node = ready.pop(0)
        order.append(node)
        del remaining[node]
        newly = []
        for name, d in remaining.items():
            d.discard(node)
            if not d and name not in ready:
                newly.append(name)
        if newly:
            ready = sorted(ready + newly)
    if remaining:
        cycle = find_cycle(remaining)
        raise DependencyError(
            f"dependency cycle among units: {format_cycle(cycle)}",
            cycle=cycle)
    return order


def find_cycle(deps: dict[str, "set[str] | list[str]"]) -> list[str]:
    """One concrete closed dependency path in ``deps``.

    ``deps`` maps node -> nodes it depends on; every node must have at
    least one dependency inside ``deps`` (true for the stuck set of a
    topological sort, where every remaining unit waits on a remaining
    unit).  Returns ``[A, B, ..., A]``; deterministic (smallest names
    first).
    """
    start = min(deps)
    path = [start]
    index = {start: 0}
    node = start
    while True:
        node = min(d for d in deps[node] if d in deps)
        if node in index:
            return path[index[node]:] + [node]
        index[node] = len(path)
        path.append(node)


def format_cycle(cycle: list[str]) -> str:
    """Render a closed path the way every cycle report should:
    ``A -> B -> A``."""
    return " -> ".join(cycle)
