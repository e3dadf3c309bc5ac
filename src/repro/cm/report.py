"""Build reports: what a builder did and why."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.ledger import ExplanationLedger
from repro.units.unit import PhaseTimes

#: The per-phase keys :meth:`BuildReport.phase_totals` rolls up.
PHASES = ("parse", "elaborate", "hash", "dehydrate", "rehydrate",
          "execute")


@dataclass
class UnitOutcome:
    """What happened to one unit during a build.

    action is one of:
        "compiled" -- source was (re)compiled;
        "loaded"   -- bin file rehydrated into this session;
        "cached"   -- already live in memory and current;
        "failed"   -- (supervised builds) exhausted its retry budget;
        "skipped"  -- (supervised builds) an import failed, so this
                      unit was never attempted.
    """

    name: str
    action: str
    reason: str = ""
    pid_changed: bool = False
    times: PhaseTimes = field(default_factory=PhaseTimes)


@dataclass
class BuildReport:
    outcomes: list[UnitOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Worker count and pool kind ("inline" when compiles ran in the
    #: parent session; "process"/"thread" for worker pools).
    jobs: int = 1
    pool: str = "inline"
    #: How compiles were ordered.  Always "ready" (per-unit ready-set
    #: dispatch); kept for the daemon wire format and build profiles.
    schedule: str = "ready"
    #: The order units were *decided* in: the ready set's actual
    #: offer sequence (``DepGraph.order`` for a ``jobs=1`` build under
    #: the default key).  Always a linear extension of the dep graph
    #: (the property test in ``tests/property/test_ready_set.py`` holds
    #: the scheduler to that).
    dispatch_order: list[str] = field(default_factory=list)
    #: Why each unit was recompiled or reused (the cutoff-explanation
    #: ledger the builder kept while deciding this pass).
    ledger: ExplanationLedger | None = None
    #: Supervision telemetry (all zero for unsupervised builds): how
    #: many attempts were retried, how many timed out, how often the
    #: pool degraded (process -> thread -> inline), and how many units
    #: a ``--resume`` pass reused from the journal without recompiling.
    retries: int = 0
    timeouts: int = 0
    degraded: int = 0
    resumed: int = 0
    #: Seconds spent in the builder's dependency analysis (parsing the
    #: sources not analyzed from cached or persisted facts included).
    analyze_seconds: float = 0.0

    @property
    def failed(self) -> list[str]:
        return self._by_action("failed")

    @property
    def skipped(self) -> list[str]:
        return self._by_action("skipped")

    def add(self, outcome: UnitOutcome) -> None:
        self.outcomes.append(outcome)

    def _by_action(self, action: str) -> list[str]:
        return [o.name for o in self.outcomes if o.action == action]

    @property
    def compiled(self) -> list[str]:
        return self._by_action("compiled")

    @property
    def loaded(self) -> list[str]:
        return self._by_action("loaded")

    @property
    def cached(self) -> list[str]:
        return self._by_action("cached")

    @property
    def n_compiled(self) -> int:
        return len(self.compiled)

    def cutoffs(self) -> list[str]:
        """Units recompiled whose interface pid did NOT change -- each one
        is a place where the cascade stopped."""
        return [
            o.name for o in self.outcomes
            if o.action == "compiled" and not o.pid_changed
        ]

    # -- analytics --------------------------------------------------------

    def phase_totals(self) -> dict[str, float]:
        """Seconds per pipeline phase, summed over every outcome, plus
        ``analyze``: the build's dependency analysis, which parses each
        changed source once (its parse time is not in any unit's
        ``parse``)."""
        totals = {phase: 0.0 for phase in PHASES}
        for outcome in self.outcomes:
            for phase in PHASES:
                totals[phase] += getattr(outcome.times, phase)
        totals["analyze"] = self.analyze_seconds
        return {phase: round(seconds, 6)
                for phase, seconds in totals.items()}

    def stats(self) -> dict:
        """Counter rollup: cache hits, cutoff stops, decision causes."""
        out = {
            "compiled": len(self.compiled),
            "loaded": len(self.loaded),
            "cached": len(self.cached),
            "cache_hits": len(self.loaded) + len(self.cached),
            "cutoff_stops": len(self.cutoffs()),
        }
        for key in ("failed", "skipped"):
            units = self._by_action(key)
            if units:
                out[key] = len(units)
        for key in ("retries", "timeouts", "degraded", "resumed"):
            value = getattr(self, key)
            if value:
                out[key] = value
        if self.ledger is not None:
            out["causes"] = self.ledger.cause_counts()
        return out

    def summary(self) -> str:
        text = (f"{len(self.compiled)} compiled, "
                f"{len(self.loaded)} loaded, "
                f"{len(self.cached)} cached")
        if self.failed:
            text += f", {len(self.failed)} failed"
        if self.skipped:
            text += f", {len(self.skipped)} skipped"
        if self.retries:
            text += f" [{self.retries} retr{'y' if self.retries == 1 else 'ies'}]"
        if self.cutoffs():
            text += f" (cutoff at: {', '.join(self.cutoffs())})"
        return text

    def __repr__(self) -> str:
        return f"<build report: {self.summary()}>"
