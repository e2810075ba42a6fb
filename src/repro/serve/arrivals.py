"""Seeded open-loop arrival processes over a weighted request mix.

An :class:`ArrivalProcess` turns (mix, duration, seed) into a deterministic
sequence of :class:`Request`\\ s: arrival timestamps drawn by the process and
request cells drawn from the :class:`RequestMix` by weight, both from one
``random.Random(seed)`` stream — the same seed always yields the same
schedule, byte for byte.

Three built-ins register with :mod:`repro.registry`:

* ``poisson`` — memoryless open-loop traffic at a configurable mean rate
  (exponential inter-arrival gaps), the classic load-curve driver,
* ``trace`` — replay of explicit arrival timestamps (optionally tiled with a
  period), for bursty or recorded workloads, and
* ``closed`` — a *closed-loop* pool of virtual users: each client re-issues
  its next request a think-time draw after its previous completion, so the
  offered load responds to system state (the traffic shape of interactive
  users).  Closed-loop schedules cannot be precomputed — the driver issues
  requests through :meth:`ClosedLoopArrivals.clients` as completions land;
  every draw still comes from per-client seeded streams, so a run is a pure
  function of (process config, mix, duration, seed).

New processes plug in through the ``ARRIVALS`` registry::

    @ARRIVALS.register("my_arrivals", description="...")
    class MyArrivals(ArrivalProcess):
        def arrival_times(self, duration_s, rng):
            ...
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.exec.spec import SESSION_FIELDS
from repro.registry import ARRIVALS

# Session-field overrides a cell may carry, beyond the strategy itself: all
# but the seed, which belongs to the serve run, not to individual requests.
_CELL_OVERRIDE_FIELDS = frozenset(SESSION_FIELDS) - {"seed"}


@dataclass(frozen=True)
class RequestCell:
    """One kind of request: a (strategy, session-overrides) evaluation cell.

    Attributes
    ----------
    strategy:
        Registry key of the strategy the request evaluates.
    weight:
        Relative draw weight within the mix (must be positive).
    priority:
        Admission priority (larger is served first under ``priority``
        admission; ignored by ``fifo``).
    overrides:
        Session-field overrides for this cell (``model``, ``total_context``,
        ``dataset``...), stored as a sorted tuple of pairs so cells are
        hashable cache keys.
    """

    strategy: str
    weight: float = 1.0
    priority: int = 0
    overrides: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"cell weight must be positive, got {self.weight}")
        items = self.overrides
        if isinstance(items, Mapping):
            items = tuple(sorted(items.items()))
        else:
            items = tuple(sorted(tuple(pair) for pair in items))
        unknown = [k for k, _ in items if k not in _CELL_OVERRIDE_FIELDS]
        if unknown:
            raise ValueError(
                f"unknown cell override field(s) {unknown}; "
                f"allowed: {sorted(_CELL_OVERRIDE_FIELDS)}"
            )
        object.__setattr__(self, "strategy", self.strategy.lower())
        object.__setattr__(self, "overrides", items)

    def override_dict(self) -> dict[str, Any]:
        return dict(self.overrides)

    def to_dict(self) -> dict[str, Any]:
        return {
            "strategy": self.strategy,
            "weight": self.weight,
            "priority": self.priority,
            "overrides": self.override_dict(),
        }


@dataclass(frozen=True)
class RequestMix:
    """A weighted set of request cells, drawn from per arrival."""

    cells: tuple[RequestCell, ...]

    def __post_init__(self) -> None:
        cells = tuple(self.cells)
        if not cells:
            raise ValueError("a request mix needs at least one cell")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "_total_weight", sum(c.weight for c in cells))

    def draw(self, rng: random.Random) -> RequestCell:
        """Draw one cell by weight, deterministically from ``rng``."""
        pick = rng.random() * self._total_weight
        acc = 0.0
        for cell in self.cells:
            acc += cell.weight
            if pick < acc:
                return cell
        return self.cells[-1]

    def to_dicts(self) -> list[dict[str, Any]]:
        return [cell.to_dict() for cell in self.cells]


def as_mix(mix: Any) -> RequestMix:
    """Normalise a mix argument into a :class:`RequestMix`.

    Accepts a :class:`RequestMix`, a single strategy name, a sequence of
    strategy names or :class:`RequestCell`\\ s, or a mapping of strategy
    name -> weight.
    """
    if isinstance(mix, RequestMix):
        return mix
    if isinstance(mix, RequestCell):
        return RequestMix((mix,))
    if isinstance(mix, str):
        return RequestMix((RequestCell(mix),))
    if isinstance(mix, Mapping):
        return RequestMix(
            tuple(RequestCell(name, weight=weight) for name, weight in mix.items())
        )
    if isinstance(mix, Iterable):
        cells = []
        for item in mix:
            if isinstance(item, RequestCell):
                cells.append(item)
            elif isinstance(item, str):
                cells.append(RequestCell(item))
            else:
                raise TypeError(
                    f"mix entries must be strategy names or RequestCells, "
                    f"got {type(item).__name__}"
                )
        return RequestMix(tuple(cells))
    raise TypeError(f"cannot interpret {type(mix).__name__} as a request mix")


@dataclass
class Request:
    """One in-flight evaluation request.

    ``arrival_s``/``start_s``/``finish_s`` are virtual-time stamps;
    ``served_by`` records how the request was satisfied: ``"simulate"`` (it
    paid for a fresh simulation), ``"batch"`` (it rode another request's
    execution), ``"cache"`` (its batch was answered from the in-run result
    cache) or ``"shed"`` (admission rejected it; ``finish_s`` stays ``None``).
    """

    rid: int
    arrival_s: float
    cell: RequestCell
    start_s: float | None = None
    finish_s: float | None = None
    served_by: str | None = None
    client: int | None = None  # issuing closed-loop client, if any

    @property
    def priority(self) -> int:
        return self.cell.priority

    @property
    def latency_s(self) -> float:
        if self.finish_s is None:
            raise ValueError(f"request {self.rid} has not completed")
        return self.finish_s - self.arrival_s


class ArrivalProcess:
    """Base class: deterministic open-loop arrival schedules.

    Subclasses implement :meth:`arrival_times`; :meth:`schedule` assigns the
    mix draws and request ids.  Both time generation and cell draws consume
    the same seeded stream, so a schedule is a pure function of
    (process config, mix, duration, seed).
    """

    name = "abstract"

    def arrival_times(self, duration_s: float, rng: random.Random) -> list[float]:
        """Sorted arrival timestamps within ``[0, duration_s)``."""
        raise NotImplementedError

    def schedule(
        self, mix: RequestMix, duration_s: float, seed: int = 0
    ) -> tuple[Request, ...]:
        """The full request schedule for one serve run."""
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        rng = random.Random(seed)
        times = self.arrival_times(duration_s, rng)
        return tuple(
            Request(rid=i, arrival_s=t, cell=mix.draw(rng))
            for i, t in enumerate(times)
        )


@ARRIVALS.register(
    "poisson", description="open-loop Poisson arrivals at a mean rate (req/s)"
)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponential inter-arrival gaps at ``rate`` req/s."""

    name = "poisson"

    def __init__(self, rate: float = 10.0):
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        self.rate = rate

    def arrival_times(self, duration_s: float, rng: random.Random) -> list[float]:
        times = []
        t = rng.expovariate(self.rate)
        while t < duration_s:
            times.append(t)
            t += rng.expovariate(self.rate)
        return times


class ClosedLoopClient:
    """One virtual user of a closed-loop pool.

    The client owns a private seeded stream (derived deterministically from
    the run seed and its index), so its think-time and mix draws do not
    depend on how other clients' completions interleave — the whole pool is
    reproducible regardless of event order.
    """

    def __init__(self, cid: int, seed: int, think_time_s: float, mix: RequestMix):
        self.cid = cid
        self.think_time_s = think_time_s
        self.mix = mix
        # Distinct large-prime stride keeps client streams disjoint from the
        # open-loop stream seeded with the bare run seed.
        self._rng = random.Random(seed * 1_000_003 + cid + 1)

    def think(self) -> float:
        """One think-time draw (exponential around the configured mean)."""
        return self._rng.expovariate(1.0 / self.think_time_s)

    def issue(self, now_s: float, rid: int) -> Request:
        """The client's next request, issued ``think()`` after ``now_s``."""
        return Request(
            rid=rid,
            arrival_s=now_s + self.think(),
            cell=self.mix.draw(self._rng),
            client=self.cid,
        )


@ARRIVALS.register(
    "closed",
    description="closed-loop client pool: N users re-issue after a think time",
)
class ClosedLoopArrivals(ArrivalProcess):
    """A pool of ``clients`` virtual users driving closed-loop traffic.

    Each client issues its first request one think-time draw after t=0 and
    every subsequent one a think-time draw after its previous request
    *completes* (or is shed) — offered load backs off as the system slows
    down, exactly like interactive users.  ``schedule`` is therefore empty:
    the serve driver issues requests dynamically via :meth:`clients`.
    """

    name = "closed"
    closed_loop = True

    def __init__(self, clients: int = 32, think_time_s: float = 1.0):
        if clients < 1:
            raise ValueError(f"clients must be >= 1, got {clients}")
        if think_time_s <= 0:
            raise ValueError(f"think_time_s must be positive, got {think_time_s}")
        self.num_clients = clients
        self.think_time_s = think_time_s

    def arrival_times(self, duration_s: float, rng: random.Random) -> list[float]:
        raise NotImplementedError(
            "closed-loop arrivals are driven by completions, not a schedule"
        )

    def schedule(
        self, mix: RequestMix, duration_s: float, seed: int = 0
    ) -> tuple[Request, ...]:
        """Empty — the driver issues closed-loop requests as completions land."""
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        return ()

    def clients(self, mix: RequestMix, seed: int = 0) -> list[ClosedLoopClient]:
        """The seeded client pool for one run."""
        return [
            ClosedLoopClient(cid, seed, self.think_time_s, mix)
            for cid in range(self.num_clients)
        ]


@ARRIVALS.register(
    "trace", description="replay explicit arrival timestamps (optionally tiled)"
)
class TraceArrivals(ArrivalProcess):
    """Replay a recorded list of arrival offsets.

    With ``period`` set, the trace tiles every ``period`` seconds until the
    duration is covered (for turning a short recorded burst into sustained
    load); otherwise it replays once, truncated at the duration.
    """

    name = "trace"

    def __init__(self, times: Sequence[float], period: float | None = None):
        offsets = tuple(float(t) for t in times)
        if not offsets:
            raise ValueError("a trace needs at least one arrival time")
        if any(t < 0 for t in offsets):
            raise ValueError("trace arrival times must be non-negative")
        if period is not None and period <= max(offsets):
            raise ValueError(
                f"trace period {period} must exceed the last offset {max(offsets)}"
            )
        self.times = tuple(sorted(offsets))
        self.period = period

    def arrival_times(self, duration_s: float, rng: random.Random) -> list[float]:
        if self.period is None:
            return [t for t in self.times if t < duration_s]
        times = []
        base = 0.0
        while base < duration_s:
            for t in self.times:
                if base + t < duration_s:
                    times.append(base + t)
            base += self.period
        return sorted(times)


def as_arrival(
    arrival: "str | ArrivalProcess | None",
    *,
    rate: float = 10.0,
    trace_times: Sequence[float] = (),
    trace_period: float | None = None,
    clients: int = 32,
    think_time_s: float = 1.0,
) -> ArrivalProcess:
    """Normalise the ``arrival`` argument of the serve driver.

    ``None`` and ``"poisson"`` build a :class:`PoissonArrivals` at ``rate``;
    ``"trace"`` builds a :class:`TraceArrivals` from ``trace_times`` (and
    ``trace_period``); ``"closed"`` builds a :class:`ClosedLoopArrivals`
    pool of ``clients`` users thinking ``think_time_s`` on average; other
    registered names are instantiated with no arguments; instances pass
    through unchanged.
    """
    if isinstance(arrival, ArrivalProcess):
        return arrival
    if arrival is None or arrival == "poisson":
        return PoissonArrivals(rate=rate)
    if arrival == "trace":
        if not trace_times:
            raise ValueError("trace arrivals need explicit times (trace_times=...)")
        return TraceArrivals(trace_times, period=trace_period)
    if arrival == "closed":
        return ClosedLoopArrivals(clients=clients, think_time_s=think_time_s)
    return ARRIVALS.get(arrival).obj()
