"""The telemetry hub: nestable span timers, counters and gauges.

:class:`Telemetry` is the one object producers talk to.  It aggregates —

* **spans**: ``with telemetry.span("simulate"):`` times a block; spans nest,
  and the recorded name is the ``/``-joined path of the active stack
  (``sweep/point/simulate``), so a time-breakdown table falls out of the
  aggregate totals.
* **counters**: monotonic ``counter("cache_hits")`` increments.
* **gauges**: last-write-wins ``gauge("queue_depth", 3)`` samples.

— and, when constructed with a sink (usually a
:class:`~repro.obs.export.JsonlSink`), emits every span and every
:meth:`event` as one schema-valid JSON line (:mod:`repro.obs.events`).

The default is **off**: :data:`TELEMETRY_OFF` is a no-op singleton whose
methods return immediately without reading the clock, so instrumented hot
paths cost one attribute lookup and one function call when telemetry is
disabled.  There is one channel: producers emit to
:func:`current_telemetry`, the ambient hub that :func:`telemetry_scope`
installs (the CLI's ``--telemetry PATH`` wraps the whole command in one).

Telemetry is observational only: nothing recorded here may feed back into
simulation results, which stay byte-identical per seed with telemetry on or
off.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Iterator

from repro.obs.events import make_event


class SpanHandle:
    """One live (or finished) span; ``elapsed_s`` is valid after exit."""

    __slots__ = ("_telemetry", "name", "path", "attrs", "elapsed_s", "_start")

    def __init__(self, telemetry: "Telemetry", name: str, attrs: dict[str, Any]):
        self._telemetry = telemetry
        self.name = name
        self.path = name
        self.attrs = attrs
        self.elapsed_s = 0.0
        self._start = 0.0

    def __enter__(self) -> "SpanHandle":
        tele = self._telemetry
        tele._stack.append(self.name)
        self.path = "/".join(tele._stack)
        self._start = tele._clock()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        tele = self._telemetry
        self.elapsed_s = tele._clock() - self._start
        tele._stack.pop()
        if tele._sink is not None:
            tele.event(
                "span", name=self.path, dur_s=round(self.elapsed_s, 6), **self.attrs
            )


class _NullSpan:
    """Reentrant no-op span; shared by every disabled ``span()`` call."""

    __slots__ = ()
    name = path = ""
    attrs: dict[str, Any] = {}
    elapsed_s = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Telemetry:
    """An enabled instrumentation hub (see the module docstring).

    Parameters
    ----------
    sink:
        Optional event sink with ``emit(dict)`` (and optionally ``close()``),
        usually a :class:`~repro.obs.export.JsonlSink`.  Without one the hub
        still aggregates spans/counters/gauges in memory.
    clock:
        Monotonic clock, injectable for tests (default
        :func:`time.perf_counter`).
    """

    enabled = True

    def __init__(
        self,
        sink: Any = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self._clock = clock
        self._t0 = clock()
        self._sink = sink
        self._stack: list[str] = []
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}

    # -- recording ---------------------------------------------------------------

    def now(self) -> float:
        """Seconds since this hub was created (the event ``t`` origin)."""
        return self._clock() - self._t0

    def span(self, name: str, **attrs: Any) -> SpanHandle:
        """Context manager timing a block under ``name`` (nestable)."""
        return SpanHandle(self, name, attrs)

    def counter(self, name: str, inc: int = 1) -> None:
        """Increment the monotonic counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + inc

    def gauge(self, name: str, value: float) -> None:
        """Record the current value of gauge ``name`` (last write wins)."""
        self.gauges[name] = value

    def event(self, type: str, **fields: Any) -> None:
        """Emit one structured event to the sink (no-op without a sink)."""
        if self._sink is None:
            return
        self._sink.emit(make_event(type, self.now(), **fields))

    def stopwatch(self) -> "Telemetry":
        """A hub whose spans always measure elapsed time.

        ``self`` when enabled; a private enabled hub when this is the no-op
        singleton — so producers that must populate wall-clock fields (e.g.
        ``meta["timing"]``) time through one code path regardless of whether
        telemetry was requested.
        """
        return self

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Flush final counter/gauge values as events and close the sink."""
        if self._sink is not None:
            for name in sorted(self.counters):
                self.event("counter", name=name, value=self.counters[name])
            for name in sorted(self.gauges):
                self.event("gauge", name=name, value=self.gauges[name])
            close = getattr(self._sink, "close", None)
            if close is not None:
                close()
            self._sink = None

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class NullTelemetry(Telemetry):
    """The disabled hub: every method is a near-zero-cost no-op.

    A singleton (:data:`TELEMETRY_OFF`) stands in wherever telemetry was not
    requested, so producers never branch on ``if telemetry is not None``.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=lambda: 0.0)

    def now(self) -> float:
        return 0.0

    def span(self, name: str, **attrs: Any) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def counter(self, name: str, inc: int = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def event(self, type: str, **fields: Any) -> None:
        return None

    def stopwatch(self) -> Telemetry:
        return Telemetry()

    def close(self) -> None:
        return None


TELEMETRY_OFF = NullTelemetry()

# The ambient hub every producer emits to; installed for the duration of a
# CLI invocation (or any ``with`` block) by telemetry_scope().
_DEFAULT: Telemetry = TELEMETRY_OFF


def current_telemetry() -> Telemetry:
    """The ambient telemetry hub (:data:`TELEMETRY_OFF` unless installed)."""
    return _DEFAULT


@contextlib.contextmanager
def telemetry_scope(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install ``telemetry`` as the ambient default for the ``with`` body."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = telemetry
    try:
        yield telemetry
    finally:
        _DEFAULT = previous
