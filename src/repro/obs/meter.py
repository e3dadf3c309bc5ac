"""The :class:`BuildMeter` seam: how instrumented code reports itself.

Instrumented call sites throughout the compilation manager (builders,
the store, the unit pipeline, the ready-set scheduler) talk to a meter
rather than to a concrete tracer, so the cost of instrumentation when
nobody is listening is a handful of no-op method calls:

    with meter.span("parse", cat="phase", unit=name):
        ...

:data:`NULL_METER` is the default listener; it allocates nothing and
returns a single shared no-op span.  ``benchmarks/
test_bench_trace_overhead.py`` gates its cost at under 5% of a build.
:class:`repro.obs.tracer.Tracer` is the real implementation.
"""

from __future__ import annotations

from typing import ContextManager, Protocol, runtime_checkable


@runtime_checkable
class BuildMeter(Protocol):
    """What an instrumented call site may ask of its listener.

    Implementations must be safe to call from worker threads (the
    scheduler's thread pool shares one meter).
    """

    #: False for the null meter; instrumented code may use this to skip
    #: work that only exists to feed the meter (building arg dicts,
    #: counting collections).
    enabled: bool

    def span(self, name: str, cat: str = "build",
             **args) -> ContextManager:
        """A nested timed region; ``with meter.span(...) as sp`` and
        ``sp.set(key=value)`` attaches results computed inside."""
        ...

    def event(self, name: str, cat: str = "build", **args) -> None:
        """An instant event (a decision, a quarantine, a dispatch)."""
        ...

    def counter(self, name: str, value: float = 1) -> None:
        """Accumulate ``value`` onto a named monotonic counter."""
        ...

    def complete_span(self, name: str, start: float, end: float,
                      cat: str = "build", track: str | None = None,
                      **args) -> None:
        """Record an already-timed region (e.g. a worker's compile,
        measured on the worker and shipped back with the result).
        ``start``/``end`` are in the meter's own clock domain."""
        ...


class NullSpan:
    """The shared do-nothing span."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> "NullSpan":
        return self


_NULL_SPAN = NullSpan()


class NullMeter:
    """The default meter: discards everything, allocates nothing."""

    __slots__ = ()

    enabled = False

    def span(self, name: str, cat: str = "build", **args) -> NullSpan:
        return _NULL_SPAN

    def event(self, name: str, cat: str = "build", **args) -> None:
        return None

    def counter(self, name: str, value: float = 1) -> None:
        return None

    def complete_span(self, name: str, start: float, end: float,
                      cat: str = "build", track: str | None = None,
                      **args) -> None:
        return None


#: The process-wide default listener.
NULL_METER = NullMeter()
