"""Runs one workload: set-up, timed passes, checks, and the traced variant.

Two kinds of run, both in the calling process (the entry points start a
fresh process per workload):

* :func:`measure` - set-up (repeated, median reported), then untraced
  passes for ``seconds`` (or exactly ``passes``).  Every end-to-end
  number a bound is applied to comes from here.
* :func:`trace` - one set-up, then untraced and traced passes in turn
  (:mod:`spans` instrumentation on for the traced ones), then the probe
  group.  Per-layer numbers come from here, and the gap between the two
  kinds of pass is ``ledger.trace_overhead_pct``.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import stats
from .metrics import END_TO_END, NAMED, PER_LAYER, SPAN_LAYERS
from .probes import run_probes
from .spans import NoSpans, SpanRecorder, chrome_trace, layer_self_seconds
from .workloads import WORKLOADS
from .workloads.base import PassResult, Workload

__all__ = ["measure", "trace", "load_expected", "env_block", "EXPECTED_PATH",
           "TRACE_DIR"]

EXPECTED_PATH = Path(__file__).with_name("expected.json")
#: Where a traced run leaves ``trace-<workload>.json``, under the working
#: directory.
TRACE_DIR = Path("ledger-out")
SETUP_REPEATS = 3
SETUP_AT_LEAST_S = 1.5
MIN_PASSES = 3
TRACED_ROUNDS = 2


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def env_block() -> dict:
    """Where and on what the numbers were taken."""
    root = Path(__file__).resolve().parents[2]
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        head = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_head": head,
        "loadavg_1m": os.getloadavg()[0],
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
    }


def _set_up(workload: Workload, seed: int, smoke: bool, expected: dict,
            repeats: int, at_least_s: float = 0.0):
    """Set up ``repeats`` times, and again while all of them together took
    under ``at_least_s``, so that a 0.1 s set-up is the median of more
    samples than a 1 s one; returns (last state, seconds of each)."""
    seconds = []
    state = None
    while len(seconds) < repeats or sum(seconds) < at_least_s:
        if state is not None:
            workload.close(state)
        t0 = time.perf_counter()
        state = workload.setup(seed, smoke, expected)
        seconds.append(time.perf_counter() - t0)
    return state, seconds


def _budget(seconds: float, passes: Optional[int], minimum: int):
    """``more(done)``: does a run that has made ``done`` passes make another?

    Exactly ``passes`` when given (the whole ledger: fixed work, so every
    deterministic number repeats); otherwise at least ``minimum`` and then
    as many as ``seconds`` allow (the driver, which is told a time).
    """
    if passes is not None:
        return lambda done: done < passes
    deadline = time.perf_counter() + seconds
    return lambda done: done < minimum or time.perf_counter() < deadline


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counts(results: List[PassResult]) -> Dict[str, int]:
    return {"ops_attempted": sum(r.attempted for r in results),
            "ops_failed": sum(r.failed for r in results)}


def _timing(results: List[PassResult]) -> dict:
    units = [u for r in results for u in r.units]
    return {"passes": len(results),
            "timed_wall_s": sum(u.wall_s for u in units),
            "timed_cpu_s": sum(u.cpu_s for u in units)}


def measure(name: str, seed: int, *, seconds: float = 0.0,
            passes: Optional[int] = None, smoke: bool = False,
            expected: Optional[dict] = None) -> dict:
    """One untraced run of workload ``name``; returns its ledger row."""
    workload = WORKLOADS[name]
    expected = expected if expected is not None else load_expected()
    load_start = os.getloadavg()[0]
    state, setups = _set_up(workload, seed, smoke, expected,
                            *((1,) if smoke else (SETUP_REPEATS,
                                                  SETUP_AT_LEAST_S)))
    # Start every run's passes with the collector in the same phase, however
    # many set-ups went before: serve-overload's high-water mark otherwise
    # lands anywhere in 168-193 MiB.  From here it runs as the program has it.
    gc.collect()
    more = _budget(seconds, passes, MIN_PASSES)
    results: List[PassResult] = []
    rss_mb = None
    try:
        while more(len(results)):
            results.append(workload.run_pass(state, len(results), NoSpans()))
            if len(results) == MIN_PASSES:
                # Read after the passes every run makes, a fixed amount of
                # work, so that it does not depend on how many more the
                # time allowed.
                rss_mb = _self_rss_mb()
    finally:
        workload.close(state)
    if rss_mb is None:
        rss_mb = _self_rss_mb()
    # Children are counted once they are reaped, which ``close`` does.
    rss_mb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    end_to_end = {
        "ops_per_s": dict(stats.metric_from(results, "rate", "", 1.0),
                          **END_TO_END["ops_per_s"]),
        "setup_s": dict(END_TO_END["setup_s"],
                        value=statistics.median(setups), repeats=setups),
        "peak_rss_mb": dict(END_TO_END["peak_rss_mb"], value=rss_mb),
    }
    for metric, spec in NAMED[name].items():
        row = {k: spec[k] for k in ("unit", "better", "bound")}
        row.update(stats.metric_from(results, *spec["from"]))
        end_to_end[metric] = row
    return dict(_counts(results), workload=name, seed=seed, smoke=smoke,
                op=workload.OP, end_to_end=end_to_end,
                facts=results[-1].facts, timing=_timing(results),
                loadavg_1m=[load_start, os.getloadavg()[0]])


def trace(name: str, seed: int, *, seconds: float = 0.0,
          passes: Optional[int] = None, smoke: bool = False,
          probes: bool = True, expected: Optional[dict] = None) -> dict:
    """One traced run of ``name``; returns its per-layer row.

    Untraced and traced passes alternate (``passes`` rounds, or rounds for
    ``seconds``, at least :data:`TRACED_ROUNDS`), so that both sides of
    ``ledger.trace_overhead_pct`` see the same inputs over the same stretch
    of the box's speed.  The workload's named end-to-end metrics are taken
    from the untraced passes.  Writes ``trace-<name>.json`` (Chrome
    ``trace_event``) into :data:`TRACE_DIR`.
    """
    workload = WORKLOADS[name]
    expected = expected if expected is not None else load_expected()
    state, _setups = _set_up(workload, seed, smoke, expected, 1)
    recorder = SpanRecorder()
    reference: List[PassResult] = []
    traced: List[PassResult] = []
    more = _budget(seconds, passes, 1 if smoke else TRACED_ROUNDS)
    try:
        while more(len(traced)):
            index = 2 * len(traced)
            reference.append(workload.run_pass(state, index, NoSpans()))
            recorder.instrument()
            try:
                with recorder.span("ledger.traced_pass"):
                    traced.append(workload.run_pass(state, index + 1,
                                                    recorder))
            finally:
                recorder.restore()
    finally:
        workload.close(state)

    per_layer = {metric: 0.0 for metric, row in PER_LAYER.items()
                 if probes or row[2] != "probe"}
    untraced_rate = stats.metric_from(reference, "rate", "", 1.0)["value"]
    traced_rate = stats.metric_from(traced, "rate", "", 1.0)["value"]
    per_layer["ledger.trace_overhead_pct"] = \
        100.0 * (1.0 - traced_rate / untraced_rate)
    total = sum(row[2] - row[1] for row in recorder.events if row[3] < 0)
    layers = layer_self_seconds(recorder.events)
    for layer in SPAN_LAYERS:
        per_layer[f"span.{layer}_self_pct"] = \
            100.0 * layers.get(layer, 0.0) / total
    for metric, row in PER_LAYER.items():
        if row[2] == "fact":
            per_layer[metric] = float(traced[-1].facts.get(metric, 0.0))
    for metric, spec in NAMED[name].items():
        per_layer[metric] = stats.metric_from(reference,
                                              *spec["from"])["value"]
    if probes:
        per_layer.update(run_probes(recorder, smoke))
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    (TRACE_DIR / f"trace-{name}.json").write_text(
        chrome_trace(recorder.events, name))
    return dict(_counts(reference + traced), workload=name, seed=seed,
                smoke=smoke, per_layer=per_layer, spans=len(recorder.events),
                timing=_timing(traced))
