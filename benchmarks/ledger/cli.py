"""Command lines: the single-workload driver and the whole-ledger front.

``run.py`` (what ``BENCHMARK.json`` names) calls :func:`driver_main`: one
workload, one process, one JSON object on the last line of stdout.
``python -m benchmarks.ledger`` calls :func:`main`: it starts ``run.py``
once per workload and kind of run, each in a fresh subprocess, one at a
time and for a fixed number of passes, and folds their ``--out``
documents into one ledger file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from . import harness
from .compare import compare_files
from .expected import regenerate
from .metrics import END_TO_END, PER_LAYER
from .probes import run_probes
from .spans import NoSpans
from .workloads import WORKLOADS

RUN_PY = Path(__file__).with_name("run.py")
SMOKE_PASSES = 2


def _report(title: str, values: dict, units: dict) -> None:
    print(f"# {title}")
    for name, value in values.items():
        print(f"{name:<42} {value:>16.6g} {units[name]}")


# -- one workload, one process (run.py) --------------------------------------


def _driver_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run.py", description="run one ledger workload once")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long the untraced passes measure")
    parser.add_argument("--passes", type=int, default=None,
                        help="run exactly N passes instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20-size inputs (for the tests)")
    parser.add_argument("--no-probes", action="store_true",
                        help="with --trace 1: skip the layer probe group "
                             "(the whole ledger runs it once, not per "
                             "workload)")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full row as JSON here")
    return parser


def driver_main(argv: Optional[List[str]] = None) -> int:
    args = _driver_parser().parse_args(argv)
    if args.trace:
        # Untraced and traced passes alternate for half the time; the
        # probe group takes about the other half.
        row = harness.trace(
            args.workload, args.seed, seconds=args.seconds / 2,
            passes=args.passes, smoke=args.smoke, probes=not args.no_probes)
        values = row["per_layer"]
        units = {name: PER_LAYER[name][0] for name in values}
        declared = values
        title = f"{args.workload} per layer"
    else:
        row = harness.measure(args.workload, args.seed, seconds=args.seconds,
                              passes=args.passes, smoke=args.smoke)
        values = {n: r["value"] for n, r in row["end_to_end"].items()}
        units = {n: r["unit"] for n, r in row["end_to_end"].items()}
        # The workload's named metrics are printed; the last line carries
        # what BENCHMARK.json declares for a ``--trace 0`` run.
        declared = END_TO_END
        title = (f"{args.workload} end to end "
                 f"({row['timing']['passes']} passes)")
    _report(title, values, units)
    print(f"ops_attempted {row['ops_attempted']}  "
          f"ops_failed {row['ops_failed']}")
    if args.out is not None:
        args.out.write_text(json.dumps(row, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": row["ops_failed"] == 0,
        "attempted": row["ops_attempted"], "failed": row["ops_failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in declared},
    }))
    return 0


# -- the whole ledger (python -m benchmarks.ledger) --------------------------


def _child(arguments: List[str], out: Path) -> dict:
    """Run ``run.py`` in a fresh process; returns the row it wrote."""
    command = [sys.executable, str(RUN_PY), *arguments, "--out", str(out)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    # The child's report, minus the driver's one-line JSON summary.
    sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}")
    return json.loads(out.read_text())


def run_ledger(args) -> int:
    """Every workload a fixed number of passes: untraced, then traced."""
    names = args.workload or list(WORKLOADS)
    common = ["--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    document = {"schema": "ledger/1", "seed": args.seed, "smoke": args.smoke,
                "env": harness.env_block(), "workloads": {}}
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "row.json"
        for name in names:
            passes = args.passes or (SMOKE_PASSES if args.smoke
                                     else WORKLOADS[name].PASSES)
            row = _child(["--workload", name, *common,
                          "--passes", str(passes)], out)
            row["why"] = WORKLOADS[name].WHY
            if not args.no_trace:
                # Rounds of (untraced, traced): a third as many, rounded up.
                traced = _child(["--workload", name, *common, "--trace", "1",
                                 "--no-probes", "--passes",
                                 str(-(-passes // 3))], out)
                row["per_layer"] = traced["per_layer"]
                row["traced"] = {k: traced[k] for k in
                                 ("ops_attempted", "ops_failed", "spans",
                                  "timing")}
            document["workloads"][name] = row
    if not args.no_trace:
        # Probes have fixed inputs: once for the whole ledger.
        document["probes"] = run_probes(NoSpans(), args.smoke)
        _report("layer probes", document["probes"],
                {name: PER_LAYER[name][0] for name in document["probes"]})
    document["env"]["loadavg_1m_end"] = os.getloadavg()[0]
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    failed = sum(row["ops_failed"] for row in document["workloads"].values())
    print(f"wrote {args.out}: {len(names)} workloads, {failed} failed ops")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description="the performance ledger: six workloads, end to end and "
                    "per layer")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--out", type=Path, default=Path("ledger.json"))
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--passes", type=int, default=None,
                        help="passes per workload (default: each "
                             "workload's own fixed count)")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20-size inputs, two passes")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip traced passes and layer probes")
    sub = parser.add_subparsers(dest="command")
    cmp_parser = sub.add_parser(
        "compare", help="B's values against A's, with each metric's bound")
    cmp_parser.add_argument("a", type=Path)
    cmp_parser.add_argument("b", type=Path)
    sub.add_parser("regen-expected",
                   help="rewrite expected.json from the stepping engine")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare_files(args.a, args.b)
    if args.command == "regen-expected":
        regenerate()
        print(f"wrote {harness.EXPECTED_PATH}")
        return 0
    return run_ledger(args)
