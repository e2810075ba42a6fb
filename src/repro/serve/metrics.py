"""Serving metrics: latency percentiles, rates and queue-depth tracking.

Pure, dependency-free helpers consumed by the serve driver to assemble a
:class:`~repro.results.ServeResult`: a linear-interpolation percentile (the
same convention as ``numpy.percentile``) and a
:class:`QueueDepthTracker` that integrates queue depth over virtual time
(time-weighted mean, maximum, and a compact ``(time, depth)`` timeline).
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.sketch import exact_percentile


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    Returns 0.0 for an empty sequence so metrics of a zero-request run are
    well defined; rejects NaN inputs, which would silently corrupt the sort
    order.  Delegates to :func:`repro.obs.sketch.exact_percentile` — the
    same convention the streaming :class:`~repro.obs.sketch.LatencySketch`
    reproduces below its exact threshold.
    """
    return exact_percentile(values, q)


class QueueDepthTracker:
    """Integrate queue depth over virtual time.

    :meth:`sample` records the depth *after* each event; between events the
    depth is constant, so the time-weighted mean is an exact integral.  The
    timeline only appends on depth changes, keeping it compact.
    """

    def __init__(self) -> None:
        self._timeline: list[tuple[float, int]] = [(0.0, 0)]
        self._last_t = 0.0
        self._last_depth = 0
        self._area = 0.0
        self.max_depth = 0

    def sample(self, t: float, depth: int) -> None:
        if t < self._last_t:
            raise ValueError(f"time went backwards: {t} < {self._last_t}")
        self._area += self._last_depth * (t - self._last_t)
        self._last_t = t
        if depth != self._last_depth:
            self._timeline.append((t, depth))
            self._last_depth = depth
        self.max_depth = max(self.max_depth, depth)

    def mean_depth(self, horizon_s: float) -> float:
        """Time-weighted mean depth over ``[0, horizon_s]``."""
        if horizon_s <= 0:
            return 0.0
        tail = self._last_depth * max(0.0, horizon_s - self._last_t)
        return (self._area + tail) / horizon_s

    def timeline(self, round_to: int = 6) -> tuple[tuple[float, int], ...]:
        """The ``(time, depth)`` change points, times rounded for stable JSON."""
        return tuple((round(t, round_to), d) for t, d in self._timeline)
