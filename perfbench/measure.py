"""Order statistics, host-speed calibration, and the verdict rule for comparing two commits."""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

TAIL_SAMPLES = 10  # samples that must lie beyond a reported percentile

# calibrate()'s median time on the reference host (a 2-vCPU VM, Python 3.11,
# NumPy 2.4, one BLAS thread) at its faster speed.  It fixes the scale of the
# corrected timings only; changing it would rescale every recorded result.
CALIBRATION_REFERENCE_S = 0.0015
_CAL_VECTOR = np.linspace(0.0, 1.0, 401)
_CAL_BLOCK = np.linspace(0.0, 1.0, 32_768)  # 256 KB: cached after one pass


def calibrate() -> float:
    """Seconds for one fixed pass of work that does not touch ``algdiff``.

    The pass mixes what the workloads spend their time on: an interpreter
    loop, many small NumPy calls, and array arithmetic.  Its data fit in the
    core's caches after the first pass, so its time tracks the host's speed,
    which on a shared VM drifts by tens of per cent over seconds to minutes,
    and not what the program left in memory.
    """
    start = perf_counter()
    total = 0
    for i in range(15_000):
        total += i * i
    v = _CAL_VECTOR
    for _ in range(500):
        float(v @ v)
    for _ in range(10):
        float((_CAL_BLOCK * 1.0001).sum())
    return perf_counter() - start


def host_speed(calibrations) -> float:
    """Mean calibration time over the reference: above 1 on a slower host.

    The mean, like a throughput, weighs the host's fast and slow spells by
    their share of the run; a median of samples from two speeds would jump
    between them.
    """
    return statistics.fmean(calibrations) / CALIBRATION_REFERENCE_S


def local_speeds(calibrations) -> list[float]:
    """Host speed around each timing, from the calibrations on either side of it.

    ``calibrations`` brackets the timings: pass k ran just before timing k and
    pass k+1 just after it.  The host switches between its speeds every
    fraction of a second, so the passes next to a job tell its speed better
    than the run's mean does.
    """
    pairs = zip(calibrations, calibrations[1:])
    return [(before + after) / (2 * CALIBRATION_REFERENCE_S) for before, after in pairs]


def min_jobs(q: float, tail: int = TAIL_SAMPLES) -> int:
    """Fewest samples for which the nearest-rank q-quantile has `tail` above it."""
    return math.ceil(tail / (1.0 - q) - 1e-9)


def nearest_rank(values, q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile and how many samples rank beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def spread(values) -> tuple[float, float, float]:
    """(median, first quartile, third quartile), as `statistics.quantiles` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float | None,
            min_pairs: int = 10) -> str:
    """improved / no worse / regressed / unresolved for one (metric, workload).

    ``parent[i]`` and ``change[i]`` form pair i.  A gain needs a win in at
    least nine tenths of the pairs (ties count for neither) and a median gap
    larger than the parent's interquartile spread.  Without a gain, the
    change is "no worse" when its median is within ``bound`` (a share of the
    parent's median) of the parent's, "regressed" when it is further, and
    "unresolved" when the run-to-run spread of either side exceeds the bound,
    unless every change run beats every parent run.  Metrics without a bound
    get the gain rule both ways and are otherwise "unresolved".
    """
    pairs = min(len(parent), len(change))
    if pairs < min_pairs:
        return "unresolved"
    parent, change = parent[:pairs], change[:pairs]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_med, p_q1, p_q3 = spread(parent)
    c_med, c_q1, c_q3 = spread(change)
    gap = sign * (c_med - p_med)
    if wins >= 0.9 * pairs and gap > p_q3 - p_q1:
        return "improved"
    if bound is None:
        return "regressed" if losses >= 0.9 * pairs and -gap > p_q3 - p_q1 else "unresolved"
    scale = abs(p_med) or 1.0
    widest = max((p_q3 - p_q1) / scale, (c_q3 - c_q1) / (abs(c_med) or 1.0))
    if widest > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return "no worse" if all_better else "unresolved"
    return "regressed" if -gap > bound * scale else "no worse"
