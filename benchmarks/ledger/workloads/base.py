"""What every ledger workload shares: units, passes and small statistics."""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple

__all__ = ["PassResult", "Stopwatch", "Unit", "Workload", "digest",
           "geomean"]


class Unit(NamedTuple):
    """One timed piece of a pass.

    A pass is a sweep over the workload's units; the same ``key`` recurs
    in every pass with the same input, which is what lets the ledger take
    each unit's best sample over passes (see ``stats.best_units``).
    """

    key: str
    wall_s: float
    cpu_s: float
    ops: float


class Stopwatch:
    """Times one ``with`` block: host wall and CPU seconds.

    Wall time (``perf_counter``) is what the ledger reports; CPU time
    (``process_time``) is recorded beside it as supporting evidence only.
    The garbage collector is left as the program has it.
    """

    def __enter__(self):
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._wall0
        self.cpu = time.process_time() - self._cpu0
        return False

    def unit(self, key: str, ops: float) -> Unit:
        return Unit(key, self.wall, self.cpu, ops)


@dataclass
class PassResult:
    """One pass of a workload's timed region."""

    units: List[Unit]
    #: Operations whose output was checked, and how many checks failed.
    attempted: int
    failed: int
    #: Deterministic values: simulated statistics and counts.
    facts: Dict[str, float] = field(default_factory=dict)


class Workload:
    """A workload: untimed ``setup``, equal timed passes, ``close``.

    ``setup`` generates inputs from the seed, builds what the passes need
    and ends with a reduced warm-up over the same inputs; its duration is
    the workload's ``setup_s``.  ``run_pass`` runs one pass, opening spans
    on ``spans`` around every call into a layer, and checks every output.

    Every pass gets the same inputs: a unit key names one input, and
    ``facts`` are equal from pass to pass.  The workload's own end-to-end
    metrics are declared in ``metrics.NAMED``.
    """

    NAME = ""
    WHY = ""
    #: What one of ``Unit.ops`` is, for the README and the printed report.
    OP = ""
    #: Passes of a whole-ledger run (fixed work, ~12 s on the probe box);
    #: the single-workload driver measures for a time instead.
    PASSES = 3

    def setup(self, seed: int, smoke: bool, expected: dict):
        raise NotImplementedError

    def run_pass(self, state, index: int, spans) -> PassResult:
        raise NotImplementedError

    def close(self, state) -> None:
        pass


def digest(text) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()[:16]


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))
