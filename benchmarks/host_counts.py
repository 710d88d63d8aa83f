"""A count beside the clock: what one pass of a ledger workload executes.

    python3 benchmarks/host_counts.py exec-steady call-heavy --seed 7
    python3 benchmarks/host_counts.py cold-start --opcodes

Per workload: one set-up, a first pass nobody watches (it warms what every
later pass finds warm), then a second pass under ``sys.setprofile`` —
Python frames entered and C functions called (one of them the
``setprofile`` that ends the count) — and, with ``--opcodes``,
``sys.settrace`` with ``f_trace_opcodes``: bytecodes executed (50-100x
slower).  Nothing is timed, so the numbers repeat exactly from run to run
of one tree, and a change that "should not move" a workload is checked in
one run instead of ten alternating pairs of a clock that drifts 20-40%.
A call is not a nanosecond (inlining trades frames for bytecodes), so this
stands beside ``benchmarks/ledger``, whose files it imports and does not
change; what a forked worker executes (``cluster-drain``) is not seen.
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


def count_pass(name: str, seed: int, opcodes: bool, smoke: bool) -> dict:
    workload = WORKLOADS[name]
    state = workload.setup(seed, smoke, load_expected())
    counts = {"frames": 0, "c_calls": 0}

    def profile(frame, event, arg):
        if event == "call":
            counts["frames"] += 1
        elif event == "c_call":
            counts["c_calls"] += 1

    def trace(frame, event, arg):
        if event == "call":
            frame.f_trace_opcodes, frame.f_trace_lines = True, False
        elif event == "opcode":
            counts["bytecodes"] += 1
        return trace

    try:
        workload.run_pass(state, 0, NoSpans())
        if opcodes:
            counts["bytecodes"] = 0
            sys.settrace(trace)
        sys.setprofile(profile)
        try:
            result = workload.run_pass(state, 1, NoSpans())
        finally:
            sys.setprofile(None)
            sys.settrace(None)
    finally:
        workload.close(state)
    return dict(counts, workload=name, seed=seed, ops=result.attempted,
                failed=result.failed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--opcodes", action="store_true",
                        help="also count bytecodes executed (slow)")
    parser.add_argument("--smoke", action="store_true",
                        help="the workloads' reduced inputs")
    args = parser.parse_args()
    for name in args.workloads:
        print(json.dumps(count_pass(name, args.seed, args.opcodes,
                                    args.smoke)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
