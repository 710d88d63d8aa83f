"""A count beside the clock: what one pass of a ledger workload executes.

    python3 benchmarks/host_counts.py exec-steady call-heavy --seed 7
    python3 benchmarks/host_counts.py cold-start --opcodes
    python3 benchmarks/host_counts.py exec-steady --per-unit --opcodes \\
        --callees PagedMemory.load PagedMemory.store Tlb.lookup

Per workload: one set-up, a first pass nobody watches (it warms what every
later pass finds warm), then a second pass under ``sys.setprofile`` —
Python frames entered and C functions called (one of them the
``setprofile`` that ends the count) — and, with ``--opcodes``,
``sys.settrace`` with ``f_trace_opcodes``: bytecodes executed (50-100x
slower).  ``--callees`` adds how many of the frames were calls of each
named function (``Class.method`` or ``function`` of a ``repro`` module),
and ``--ceiling N`` exits 1 if their calls (without ``--callees``: the
``--opcodes`` bytecodes) sum to more than ``N``;
``--per-unit`` splits every count by the pass's ``ledger.unit`` spans (the
pass gets a spans object whose spans snapshot the counters), so "no kernel
got heavier" is one command.  Nothing is timed, so the numbers repeat
exactly from run to run of one tree, and a change that "should not move" a
workload is checked in one run instead of ten alternating pairs of a clock
that drifts 20-40%.  A call is not a nanosecond (inlining trades frames for
bytecodes), so this stands beside ``benchmarks/ledger``, whose files it
imports and does not change; what a forked worker executes
(``cluster-drain``) is not seen.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.ledger.harness import load_expected  # noqa: E402
from benchmarks.ledger.spans import NoSpans  # noqa: E402
from benchmarks.ledger.workloads import WORKLOADS  # noqa: E402


def code_of(qualname: str):
    """The code object of ``Class.method`` / ``function`` as some loaded
    ``repro`` module defines it."""
    head, *rest = qualname.split(".")
    for name, module in sorted(sys.modules.items()):
        found = getattr(module, head, None) if name.startswith("repro.") \
            else None
        for attr in rest:
            found = getattr(found, attr, None)
        if hasattr(found, "__code__"):
            return found.__code__
    raise SystemExit(f"host_counts: no repro module defines {qualname}")


class UnitSpans(NoSpans):
    """Spans that record what ``counts`` gained inside each ``ledger.unit``."""

    def __init__(self, counts: dict):
        self.counts, self.units = counts, []

    def span(self, name, request_id=None):
        return self if name == "ledger.unit" else NoSpans.span(self, name)

    def __enter__(self):
        self._before = dict(self.counts)

    def __exit__(self, *exc):
        self.units.append({key: value - self._before[key]
                           for key, value in self.counts.items()})
        return False


def count_pass(name: str, seed: int, opcodes: bool, smoke: bool,
               callees=(), per_unit: bool = False) -> dict:
    workload = WORKLOADS[name]
    state = workload.setup(seed, smoke, load_expected())
    counts = {"frames": 0, "c_calls": 0}
    spans = UnitSpans(counts) if per_unit else NoSpans()

    def profile(frame, event, arg):
        if event == "call":
            counts["frames"] += 1
            callee = watched.get(frame.f_code)
            if callee:
                counts[callee] += 1
        elif event == "c_call":
            counts["c_calls"] += 1

    def trace(frame, event, arg):
        if event == "call":
            frame.f_trace_opcodes, frame.f_trace_lines = True, False
        elif event == "opcode":
            counts["bytecodes"] += 1
        return trace

    def instruction(code, offset):
        counts["bytecodes"] += 1

    # From Python 3.12 a frame's f_trace_opcodes set in its call event
    # yields no opcode events; sys.monitoring counts the same instructions.
    monitoring = getattr(sys, "monitoring", None)
    tool = monitoring and monitoring.PROFILER_ID

    try:
        workload.run_pass(state, 0, NoSpans())
        # Resolved after the first pass: every module is loaded by now.
        watched = {code_of(callee): callee for callee in callees}
        counts.update(dict.fromkeys(callees, 0))
        if opcodes:
            counts["bytecodes"] = 0
            if monitoring:
                monitoring.use_tool_id(tool, "host_counts")
                monitoring.register_callback(
                    tool, monitoring.events.INSTRUCTION, instruction)
                monitoring.set_events(tool, monitoring.events.INSTRUCTION)
            else:
                sys.settrace(trace)
        sys.setprofile(profile)
        try:
            result = workload.run_pass(state, 1, spans)
        finally:
            sys.setprofile(None)
            if opcodes and monitoring:
                monitoring.set_events(tool, 0)
                monitoring.free_tool_id(tool)
            sys.settrace(None)
    finally:
        workload.close(state)
    out = dict(counts, workload=name, seed=seed, ops=result.attempted,
               failed=result.failed)
    if per_unit:
        out["units"] = {unit.key: seen
                        for unit, seen in zip(result.units, spans.units)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--opcodes", action="store_true",
                        help="also count bytecodes executed (slow)")
    parser.add_argument("--smoke", action="store_true",
                        help="the workloads' reduced inputs")
    parser.add_argument("--callees", nargs="+", default=(), metavar="QUALNAME",
                        help="also count the calls of each named function")
    parser.add_argument("--per-unit", action="store_true",
                        help="also split the counts by ledger.unit span")
    parser.add_argument("--ceiling", type=int, metavar="N",
                        help="exit 1 if the --callees calls sum to more "
                             "(without --callees: the --opcodes bytecodes)")
    args = parser.parse_args()
    status = 0
    for name in args.workloads:
        counts = count_pass(name, args.seed, args.opcodes, args.smoke,
                            args.callees, args.per_unit)
        print(json.dumps(counts), flush=True)
        if args.callees:
            seen = sum(counts[callee] for callee in args.callees)
            what = f"calls of {' + '.join(args.callees)}"
        else:
            seen, what = counts.get("bytecodes", 0), "bytecodes"
        if args.ceiling is not None and seen > args.ceiling:
            print(f"host_counts: {name}: {seen} {what} > {args.ceiling}",
                  file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
