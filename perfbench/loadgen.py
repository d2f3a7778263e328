"""Open-loop arrival schedules and latency summaries for the benchmark.

An open loop issues each operation at its scheduled arrival time whether or
not earlier operations finished, so a stall in the service shows up as
latency on every operation that arrived during it. Every latency this module
records is measured from the *scheduled* arrival, never from the moment the
call was entered; the gap between the two is the generator's lateness,
which is kept as its own series.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, Dict, List, Sequence, Union

import numpy as np

#: A serve run whose generator ran later than this at its p99 measured the
#: generator, not the service, and is refused as invalid.
MAX_LATE_P99_S = 0.25


def arrivals(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """``rate * seconds`` arrival offsets, uniform over the window and sorted.

    Given its count a Poisson process places arrivals exactly so; fixing the
    count keeps the offered load identical from seed to seed.
    """
    return np.sort(rng.uniform(0.0, seconds, size=int(round(rate * seconds))))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty series)."""
    if len(samples) == 0:
        return 0.0
    ordered = np.sort(np.asarray(samples, dtype=float))
    rank = int(np.ceil(q / 100.0 * len(ordered))) - 1
    return float(ordered[min(max(rank, 0), len(ordered) - 1)])


def windows(offsets: Sequence[float], values: Sequence[float], seconds: float, n: int) -> List[List[float]]:
    """Split ``values`` into ``n`` equal windows of the run by ``offsets``."""
    groups: List[List[float]] = [[] for _ in range(n)]
    for offset, value in zip(offsets, values):
        groups[min(int(offset / seconds * n), n - 1)].append(value)
    return groups


def chunks(values: Sequence[float], size: int) -> List[List[float]]:
    """Consecutive groups of ``size`` values (the last may be shorter)."""
    return [list(values[i : i + size]) for i in range(0, len(values), size)]


def summarize(groups: Sequence[Sequence[float]], scale: float, q: float) -> Dict[str, float]:
    """Median and ``q``-th percentile tail of latencies (seconds), scaled.

    The median pools every sample. The tail is the median, over ``groups``
    (windows of the run, or repetitions), of each group's ``q``-th
    percentile: a burst of stolen CPU in one window then moves it less. The
    caller picks ``q`` so every group has at least ten samples beyond it
    (``tail_samples`` reports the fewest any group had).
    """
    pooled = [v for g in groups for v in g]
    filled = [g for g in groups if g]
    return {
        "count": len(pooled),
        "p50": percentile(pooled, 50.0) * scale,
        "tail_q": q,
        "tail": float(np.median([percentile(g, q) for g in filled])) * scale if filled else 0.0,
        "tail_groups": len(filled),
        "tail_samples": min((len(g) * (1.0 - q / 100.0) for g in filled), default=0.0),
    }


class OpenLoop:
    """Issues operations at scheduled arrival times on the running loop.

    ``late`` collects, per operation, how long after its arrival the
    generator got to issue it. The loop catches up on every operation that
    is already due before it sleeps again, so a stall delays operations
    instead of dropping them.
    """

    def __init__(self) -> None:
        self.late: List[float] = []
        self.issued = 0

    async def run(
        self,
        start: float,
        arrivals: Sequence[float],
        issue: Callable[[int, float], Union[None, Awaitable[None]]],
    ) -> None:
        """Call ``issue(i, due)`` for arrival ``i`` at ``start + arrivals[i]``.

        ``issue`` may be a plain function (a read) or return an awaitable
        (a write that can meet backpressure).
        """
        for i, offset in enumerate(arrivals):
            due = start + float(offset)
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.late.append(time.perf_counter() - due)
            self.issued += 1
            outcome = issue(i, due)
            if outcome is not None:
                await outcome

    def late_p99_s(self) -> float:
        return percentile(self.late, 99.0)
