"""Arithmetic the benchmark reports with: percentiles, failure share, self time.

Kept free of numpy so that the self-test can check it against hand-worked
values without pulling in the program's dependencies.
"""

from __future__ import annotations

import math

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(samples, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default rule), pct in [0, 100]."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0.0 <= pct <= 100.0:
        raise ValueError("pct must lie in [0, 100]")
    rank = pct / 100.0 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def reportable(n: int, pct: float) -> bool:
    """True when at least MIN_TAIL_SAMPLES of n samples lie beyond the pct-th percentile."""
    return n * (1.0 - pct / 100.0) >= MIN_TAIL_SAMPLES - 1e-9


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile above the median that n samples can support."""
    for pct in range(99, 50, -1):
        if reportable(n, pct):
            return pct
    return None


def fail_frac(attempted: int, failed: int) -> float:
    """Failed operations over attempted operations; the base is every attempt."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie between 0 and attempted")
    return failed / attempted


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Self time per span id: duration minus the part its children cover.

    spans is an iterable of (span_id, parent_id, start, end).  Children that
    ran in parallel threads are counted once where they overlap.
    """
    spans = list(spans)
    children: dict = {}
    for sid, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered_length(children.get(sid, ()), start, end)
        for sid, _, start, end in spans
    }
