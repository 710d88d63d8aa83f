"""``compare A.json B.json``: is ledger B no worse than ledger A?

Per workload row and end-to-end metric, B's value against A's with the
metric's own bound:

* ``ok`` - B is no worse than A by more than the bound;
* ``regressed`` - it is;
* ``unresolved`` - it reads worse, but the spread between one side's own
  passes is wider than the bound and the two sides' pass ranges overlap,
  so the run cannot tell (choosing-metrics guide, section 6.5).

A throughput's value is its best-of-passes rate (``stats.py``); how the
plain median over passes moved is printed beside the verdict, so cost
that best-of cannot see (it lands on only some passes) is on the page.

Exits non-zero on any ``regressed`` row, or when B fails a larger share
of its operations than A.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import List, Optional, Tuple

__all__ = ["compare_documents", "compare_files"]


def _worsening(a: float, b: float, better: str) -> float:
    """How much worse B reads than A, as a share of A (negative: better).

    Both files come from outside: a zero or non-finite A has no share to
    take, so the answer is then 0, ``inf`` or ``-inf`` by direction alone.
    """
    if a == b:
        return 0.0
    if a == 0 or not (math.isfinite(a) and math.isfinite(b)):
        return math.inf if (b > a) == (better == "lower") else -math.inf
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def _passes_inconclusive(a: dict, b: dict, bound: float) -> bool:
    pa, pb = a.get("pass_values"), b.get("pass_values")
    if not pa or not pb:
        return False
    wide = any(max(p) - min(p) > bound * abs(sum(p) / len(p))
               for p in (pa, pb))
    overlap = min(pa) <= max(pb) and min(pb) <= max(pa)
    return wide and overlap


def _median_moved(a: dict, b: dict, better: str) -> Optional[float]:
    if "pass_median" not in a or "pass_median" not in b:
        return None
    return _worsening(a["pass_median"], b["pass_median"], better)


def _failed_share(row: dict) -> float:
    return row["ops_failed"] / max(1, row["ops_attempted"])


def compare_documents(a: dict, b: dict) -> Tuple[List[tuple], bool]:
    """Rows of (workload, metric, a, b, worsening, median worsening,
    verdict); and whether B passes."""
    rows = []
    passed = True
    for name, row_a in a["workloads"].items():
        row_b = b["workloads"].get(name)
        if row_b is None:
            rows.append((name, "-", None, None, None, None, "missing"))
            passed = False
            continue
        for metric, cell_a in row_a["end_to_end"].items():
            cell_b = row_b["end_to_end"].get(metric)
            if cell_b is None:
                rows.append((name, metric, cell_a["value"], None, None, None,
                             "missing"))
                passed = False
                continue
            bound = cell_a["bound"]
            worse = _worsening(cell_a["value"], cell_b["value"],
                               cell_a["better"])
            if worse <= bound:
                verdict = "ok"
            elif _passes_inconclusive(cell_a, cell_b, bound):
                verdict = "unresolved"
            else:
                verdict = "regressed"
                passed = False
            rows.append((name, metric, cell_a["value"], cell_b["value"],
                         worse, _median_moved(cell_a, cell_b,
                                              cell_a["better"]), verdict))
        share_a, share_b = _failed_share(row_a), _failed_share(row_b)
        verdict = "ok" if share_b <= share_a else "regressed"
        passed = passed and verdict == "ok"
        rows.append((name, "ops_failed/ops_attempted", share_a, share_b,
                     share_b - share_a, None, verdict))
    return rows, passed


def compare_files(path_a: Path, path_b: Path) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    rows, passed = compare_documents(a, b)
    print(f"{'workload':<16}{'metric':<28}{'A':>14}{'B':>14}{'worse by':>10}"
          f"{'median':>10}  verdict")
    for workload, metric, va, vb, worse, median, verdict in rows:
        cells = "".join(f"{v:>14.6g}" if v is not None else f"{'-':>14}"
                        for v in (va, vb))
        changes = "".join(f"{v:>+10.1%}" if v is not None else f"{'-':>10}"
                          for v in (worse, median))
        print(f"{workload:<16}{metric:<28}{cells}{changes}  {verdict}")
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1
