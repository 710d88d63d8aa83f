#!/usr/bin/env python3
"""Mini evaluation: measure LFI overhead on a few benchmarks (Figure 3).

Uses the public perf API to run three SPEC stand-ins natively and under
LFI O0/O1/O2 on the Apple M1 cost model, then prints the overhead table —
a small-scale version of Figure 3 from `python -m benchmarks.paper` — and
decomposes each O2 overhead into per-guard-class components with the obs
profiler (Table 4, taken apart).

Run:  python examples/overhead_report.py  [target_instructions]
"""

import sys

from repro.core import O0, O1, O2
from repro.emulator import APPLE_M1
from repro.obs import profile_workload
from repro.perf import (
    format_overhead_table,
    geomean,
    lfi_variant,
    measure_benchmark,
)

BENCHMARKS = ("541.leela", "519.lbm", "505.mcf")
VARIANTS = (
    lfi_variant(O0, "LFI O0"),
    lfi_variant(O1, "LFI O1"),
    lfi_variant(O2, "LFI O2"),
)


def main():
    target = int(sys.argv[1]) if len(sys.argv) > 1 else 30_000
    table = {}
    for name in BENCHMARKS:
        print(f"running {name} (native + {len(VARIANTS)} LFI levels, "
              f"~{target} instructions each)...")
        result = measure_benchmark(
            name, list(VARIANTS), APPLE_M1, target_instructions=target
        )
        table[name] = result["overheads"]

    print()
    print(format_overhead_table(
        table, columns=[v.name for v in VARIANTS],
        title="Overhead over native runtime (apple-m1 cost model)",
    ))
    o2_mean = geomean([row["LFI O2"] for row in table.values()])
    print(f"\nLFI O2 geomean on this subset: {o2_mean:.1f}% "
          f"(paper, full suite: 6.4% on M1)")
    print("leela is branchy unhoistable search (the paper's worst case); "
          "lbm and mcf are\nmemory-bound, which hides guard cost — "
          "the same shape as the paper's Figure 3.")

    print("\nO2 overhead decomposed by guard class "
          "(amortized; rows sum to the overhead):")
    classes = ("memory", "branch", "sp", "x30", "hoist", "other")
    print(f"{'benchmark':<12}" + "".join(f"{c:>9}" for c in classes)
          + f"{'total':>9}")
    for name in BENCHMARKS:
        report = profile_workload(name, options=O2, model=APPLE_M1,
                                  target_instructions=target)
        parts = report.decomposed_overhead_pct()
        row = "".join(f"{parts.get(c, 0.0):>8.2f}%" for c in classes)
        print(f"{name:<12}{row}{report.overhead_pct:>8.2f}%")


if __name__ == "__main__":
    main()
