"""The benchmark's entry point: one workload, one run, one JSON line.

    python3 benchmarks/ledger/run.py --workload NAME --seed N \
        --seconds S --trace 0|1

Run from anywhere: the program under test is imported from ``src/``
beside this checkout's ``benchmarks/``.  Where there is no ``src/repro``
there is nothing to measure, and the script says so and exits non-zero.
"""

import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parents[2]
    if not (root / "src" / "repro").is_dir():
        print(f"run.py: {root / 'src' / 'repro'} is missing: the ledger "
              f"measures the repro package and cannot run without it",
              file=sys.stderr)
        return 2
    # Replace the script directory: the ledger's modules are imported as
    # a package, not as top-level names that could shadow others.
    sys.path[0:1] = [str(root / "src"), str(root)]
    from benchmarks.ledger.cli import driver_main
    return driver_main()


if __name__ == "__main__":
    sys.exit(main())
