"""Pure pieces of the benchmark harness: summaries, schedules, checks.

Nothing here touches the program under test, the clock or the disk, so
``test_pb_stats.py`` can pin every rule down exactly.
"""

from __future__ import annotations

import math
import random
import statistics

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; fewer and the "percentile" is one or two outliers.
MIN_BEYOND = 10


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """The highest of p99.9, p99, p95, p90, p75, p50 with ``min_beyond``
    samples above it among ``n``, or ``None`` when even p50 lacks them.

    A percentile p leaves ``n * (1 - p/100)`` samples beyond it.
    """
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= min_beyond - 1e-9:
            return p
    return None


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile ``p`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def summarize(values, tail_p: float | None = None) -> dict:
    """Median plus a well-supported tail percentile.

    The tail is ``tail_p`` when at least ``MIN_BEYOND`` samples lie beyond
    it, else the highest percentile that has them.  A workload fixes
    ``tail_p`` for its bounded metric so that the reported percentile does
    not change with a run's sample count.  Returns ``{"n", "p50",
    "tail_p", "tail", "max"}``; ``tail_p`` and ``tail`` are ``None`` when
    fewer than ``MIN_BEYOND`` samples could lie beyond p50.
    """
    values = list(values)
    if not values:
        return {"n": 0, "p50": None, "tail_p": None, "tail": None, "max": None}
    highest = tail_percentile(len(values))
    if tail_p is None or highest is None or tail_p > highest:
        tail_p = highest
    return {
        "n": len(values),
        "p50": statistics.median(values),
        "tail_p": tail_p,
        "tail": percentile(values, tail_p) if tail_p is not None else None,
        "max": max(values),
    }


def tail_or_max(summary: dict) -> float:
    """The summary's tail, or its maximum when too few samples support one."""
    return summary["tail"] if summary["tail"] is not None else summary["max"]


def poisson_schedule(seed: int, rate: float, duration: float, start: float = 0.0,
                     min_rows: int = 1, max_rows: int = 256,
                     stream: str = "small") -> list[tuple[float, int]]:
    """Open-loop arrivals: ``(due_offset_s, rows)`` pairs.

    Inter-arrival gaps are exponential with mean ``1/rate`` and row counts
    uniform in ``[min_rows, max_rows]``, both drawn from a private RNG
    keyed on ``(seed, stream, rate)``, so a seed fixes the whole schedule
    and two phases of one run never share draws.
    """
    if rate <= 0 or duration <= 0:
        return []
    rng = random.Random(f"{seed}:{stream}:{rate!r}")
    out = []
    t = start
    while True:
        t += rng.expovariate(rate)
        if t >= start + duration:
            return out
        out.append((t, rng.randint(min_rows, max_rows)))


def rate_ladder(low: float, high: float, step: float = 1.08) -> list[float]:
    """Fixed geometric rate ladder from ``low`` up to ``high``; adjacent
    steps differ by ``step`` (<= 10 % apart)."""
    if not 1.0 < step <= 1.10:
        raise ValueError(f"ladder step must be in (1, 1.10], got {step}")
    rates = []
    rate = float(low)
    while rate <= high * (1 + 1e-9):
        rates.append(round(rate, 3))
        rate *= step
    return rates


def tiling_errors(slices, total: int | None = None) -> list[str]:
    """Check that ``(offset, rows)`` slices tile ``[0, total)`` exactly.

    ``total`` defaults to the summed row count.  Returns one message per
    gap or overlap (empty when the slices tile).
    """
    ordered = sorted((int(o), int(n)) for o, n in slices)
    if total is None:
        total = sum(n for _, n in ordered)
    errors = []
    cursor = 0
    for offset, rows in ordered:
        if offset > cursor:
            errors.append(f"gap [{cursor}, {offset})")
        elif offset < cursor:
            errors.append(f"overlap [{offset}, {min(cursor, offset + rows)})")
        cursor = max(cursor, offset + rows)
    if cursor != total:
        errors.append(f"slices end at {cursor}, expected {total}")
    return errors


def backlog_grew(due_and_done, window_s: float) -> bool:
    """True when completions fall behind arrivals over a ladder step.

    ``due_and_done`` holds ``(due_s, done_s)`` per request (``done_s`` is
    ``None`` for a request that never completed).  The backlog is counted
    at the middle and at the end of the step window; it has grown when
    the end count exceeds both the middle count and a small floor.
    """
    if not due_and_done:
        return False
    start = min(d for d, _ in due_and_done)
    mid, end = start + window_s / 2, start + window_s

    def backlog(at: float) -> int:
        return sum(1 for due, done in due_and_done
                   if due <= at and (done is None or done > at))

    at_mid, at_end = backlog(mid), backlog(end)
    return at_end > max(at_mid, 4)
