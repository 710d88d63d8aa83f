"""How passes become numbers: one estimator for every host throughput.

This box's speed swings by up to 40% for seconds at a time (a fixed
pure-Python loop reads 24 ms, then 36 ms, then 24 ms again), while the
fastest tenth of repeats of any short unit stays within 2-3% from minute
to minute.  The disturbance only ever adds time.  So a throughput is
computed from each unit's **best sample over the run's passes**:

    rate = sum over unit keys of ops(best sample)
           / sum over unit keys of wall_s(best sample)

where a key's best sample is the one with the highest ops / wall_s.  A
key names one input: every pass replays the same inputs, so a best
sample is only ever chosen among repeats of the same work.  It needs
units short enough (tens of ms to a second) that some pass sees each one
undisturbed, which is how the workloads are sized.

What it cannot see is cost that lands on only some passes, and with more
passes the minimum can only fall, so a run sized by time reads a little
faster on a faster build than the build alone explains.  The median over
passes of the plain per-pass rate - what the same passes give without
the selection - is therefore always reported beside it (``pass_median``,
``pass_values``), and ``compare`` prints how it moved.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from repro.serve import percentile

from .workloads.base import PassResult, Unit, geomean

__all__ = ["best_units", "rate", "metric_from"]


def best_units(passes: List[PassResult], prefix: str = "") -> Dict[str, Unit]:
    best: Dict[str, Unit] = {}
    for result in passes:
        for unit in result.units:
            if not unit.key.startswith(prefix):
                continue
            held = best.get(unit.key)
            if held is None or unit.ops * held.wall_s > held.ops * unit.wall_s:
                best[unit.key] = unit
    return best


def rate(units) -> float:
    units = list(units)
    return sum(u.ops for u in units) / sum(u.wall_s for u in units)


def metric_from(passes: List[PassResult], kind: str, prefix: str,
                scale: float) -> dict:
    """One named metric's value (see ``metrics.NAMED``) and its evidence."""
    if kind == "fact":
        return {"value": passes[-1].facts[prefix]}
    matching = [[u for u in p.units if u.key.startswith(prefix)]
                for p in passes]
    if kind in ("p50", "p90"):
        rank = float(kind[1:])
        per_pass = [[u.wall_s * 1e3 for u in units] for units in matching]
        pooled = [ms for sample in per_pass for ms in sample]
        return {"value": percentile(pooled, rank), "samples": len(pooled),
                "pass_values": [percentile(sample, rank)
                                for sample in per_pass if sample]}
    best = best_units(passes, prefix).values()
    if kind == "geomean":
        value = geomean(u.ops / u.wall_s for u in best)
        per_pass = [geomean(u.ops / u.wall_s for u in units)
                    for units in matching if units]
    elif kind == "rate":
        value = rate(best)
        per_pass = [rate(units) for units in matching if units]
    else:
        raise ValueError(f"unknown metric kind {kind!r}")
    per_pass = [v * scale for v in per_pass]
    return {"value": value * scale,
            "pass_median": statistics.median(per_pass),
            "pass_values": per_pass}
