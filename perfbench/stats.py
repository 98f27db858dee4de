"""Summary statistics and open-loop accounting for the benchmark.

A tail is reported as the highest percentile of :data:`LADDER` that has
at least :data:`MIN_BEYOND` samples beyond it, together with the
percentile chosen and the sample count, so a tail is never read off a
handful of samples.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` sorted samples rank above the nearest-rank ``p``-th."""
    return n - max(1, math.ceil(n * p / 100.0))


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with :data:`MIN_BEYOND` samples past it."""
    for p in LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (an observed value, never interpolated)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * p / 100.0)) - 1]


@dataclass(frozen=True)
class Tail:
    percentile: float
    value: float
    samples: int

    def describe(self, unit: str) -> str:
        return f"p{self.percentile:g} = {self.value:.4f} {unit} of {self.samples} samples"


def tail(values: Sequence[float]) -> Tail | None:
    """The tail of ``values`` per :func:`tail_percentile`, or None if too few."""
    p = tail_percentile(len(values))
    if p is None:
        return None
    return Tail(p, percentile(values, p), len(values))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mix_median(values: Sequence[float], kinds: Sequence[Hashable]) -> float:
    """Each kind's median, weighted by its share of ``values``.

    For one kind this is the median.  For a mix it keeps the median from
    landing on the edge between two kinds, where it jumps from one
    kind's time to the other's as their counts shift.
    """
    by_kind: dict[Hashable, list[float]] = {}
    for value, kind in zip(values, kinds, strict=True):
        by_kind.setdefault(kind, []).append(value)
    return sum(len(v) * median(v) for v in by_kind.values()) / len(values)


# ---------------------------------------------------------------------------
# Open loop
# ---------------------------------------------------------------------------


def constant_schedule(rate: float, seconds: float, phase: float) -> list[float]:
    """Arrival offsets (s) at a constant ``rate``, shifted by ``phase`` of a gap.

    A constant-rate generator (as in wrk2) gives every run the same load
    and the same overlap between jobs, so run-to-run variance is the
    program's, not the schedule's.
    """
    return [(i + phase) / rate for i in range(int(rate * seconds))]


@dataclass
class Arrival:
    """One scheduled request: when it was due, sent, and finished (s)."""

    index: int
    due: float
    sent: float = math.nan
    finished: float = math.nan

    @property
    def late(self) -> float:
        """How far behind schedule the generator sent this request."""
        return max(0.0, self.sent - self.due)

    @property
    def latency(self) -> float:
        """Time from when the request was *due* until it finished."""
        return self.finished - self.due


@dataclass
class OpenLoop:
    """Send requests at their due times regardless of completions.

    ``send(arrival)`` is called on the generator's thread at (or, when the
    generator falls behind, after) each due time, relative to the start.
    Each latency is measured from the due time, so a stall also charges
    the requests that queued behind it.
    """

    schedule: list[float]
    clock: Callable[[], float] = time.perf_counter
    sleep: Callable[[float], None] = time.sleep
    arrivals: list[Arrival] = field(default_factory=list)
    start: float = 0.0

    def run(self, send: Callable[[Arrival], None]) -> None:
        self.start = self.clock()
        for i, due in enumerate(self.schedule):
            wait = self.start + due - self.clock()
            if wait > 0:
                self.sleep(wait)
            arrival = Arrival(index=i, due=due, sent=self.clock() - self.start)
            self.arrivals.append(arrival)
            send(arrival)

    def now(self) -> float:
        """Seconds since the loop started, on the loop's clock."""
        return self.clock() - self.start

    def max_late(self) -> float:
        return max((a.late for a in self.arrivals), default=0.0)
