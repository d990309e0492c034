"""Order statistics and ratios behind the benchmark's reported numbers."""

from __future__ import annotations

import math

# a percentile is reported only with at least this many samples above it
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile among n sorted samples."""
    return max(1, math.ceil(q / 100.0 * n))


def min_samples(q: float) -> int:
    """Fewest samples for which the q-th percentile has MIN_BEYOND samples above it."""
    if not 0.0 < q < 100.0:
        raise ValueError("percentile must lie strictly between 0 and 100")
    n = MIN_BEYOND + 1
    while n - _rank(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile; refuses when fewer than MIN_BEYOND samples lie above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < min_samples(q):
        raise ValueError(f"p{q:g} needs at least {min_samples(q)} samples, got {n}")
    return ordered[_rank(n, q) - 1]


def median(samples) -> float:
    """Middle value, or the mean of the two middle values for an even count."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def rescale(times, kernel_times, ref: float) -> list[list[tuple]]:
    """Each time times ``ref`` over the kernel time sampled right after it.

    Both arguments are nested ``[pass][op][part]``; so is the result: the
    times on a machine where the reference kernel takes ``ref``.
    """
    return [
        [tuple(t * ref / k for t, k in zip(op_t, op_k)) for op_t, op_k in zip(pass_t, pass_k)]
        for pass_t, pass_k in zip(times, kernel_times)
    ]


def op_medians(passes) -> list[tuple]:
    """Per op, per timed part: the median over the passes.

    ``passes[p][i][k]`` is part ``k`` of op ``i`` in pass ``p``; every pass
    runs the same ops in the same order.
    """
    return [tuple(map(median, zip(*op))) for op in zip(*passes)]


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``, or 0.0 when the base is 0 (the layer did no work)."""
    return numerator / base if base else 0.0
