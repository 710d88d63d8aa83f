"""``call-heavy``: four guest loops that live in the runtime, not the emulator.

Dispatch, springboard, scheduler, syscalls and fork do most of the work
and straight-line emulation little: the transition row of "Isolation
Without Taxation".  The four programs are reported separately as well as
together, so a springboard change that speeds ``GETPID`` but slows
blocking pipe wake-ups shows as a split.
"""

from __future__ import annotations

from repro.emulator import APPLE_M1
from repro.runtime import Runtime
from repro.toolchain import compile_lfi

from .base import PassResult, Stopwatch, Workload, digest
from .guest import PROGRAMS

#: Loop trips per program, sized so each program runs 0.10-0.15 s: short
#: enough that some of a run's passes see each one undisturbed, long
#: enough that the 3 ms spawn stays under 3% of it.
COUNTS = {
    "full": {"getpid": 15_000, "pipe": 1_500, "yield": 5_000, "batch": 400},
    "smoke": {"getpid": 1_500, "pipe": 150, "yield": 500, "batch": 40},
}
WARMUP_INSTRUCTIONS = 20_000


def compile_program(name: str, count: int, call=None) -> list:
    builder = PROGRAMS[name][0]
    sources = builder(count) if call is None else builder(count, call)
    return [compile_lfi(source).elf for source in sources]


def run_program(images, model=APPLE_M1, engine=None):
    """Spawn every image, run all to exit; returns (observation, runtime)."""
    runtime = Runtime(model=model, engine=engine)
    procs = [runtime.spawn(image) for image in images]
    runtime.run()
    machine = runtime.machine
    codes = [proc.exit_code for proc in procs]
    seen = [codes, len(runtime.faults), machine.instret, machine.cycles,
            digest("".join(runtime.stdout_of(proc) for proc in procs))]
    return seen, runtime


class CallHeavy(Workload):
    NAME = "call-heavy"
    WHY = ("GETPID loop, forked pipe ping-pong, YIELD_TO ping-pong and "
           "64-record BATCH calls: the runtime's dispatch, scheduler and "
           "syscalls dominate and straight-line emulation does not.")
    OP = "one runtime call serviced"
    PASSES = 20

    def setup(self, seed, smoke, expected):
        scale = "smoke" if smoke else "full"
        counts = COUNTS[scale]
        state = {
            "programs": {name: compile_program(name, counts[name])
                         for name in PROGRAMS},
            "calls": {name: counts[name] * PROGRAMS[name][1]
                      for name in PROGRAMS},
            "expected": expected[scale][self.NAME],
        }
        for images in state["programs"].values():
            runtime = Runtime(model=APPLE_M1)
            procs = [runtime.spawn(image) for image in images]
            runtime.run_bounded(procs[0], WARMUP_INSTRUCTIONS)
        return state

    def run_pass(self, state, index, spans) -> PassResult:
        units = []
        failed = 0
        for name, images in state["programs"].items():
            with spans.span("ledger.unit"), Stopwatch() as watch:
                seen, _runtime = run_program(images)
            if seen != state["expected"][name]:
                failed += 1
            units.append(watch.unit(name, state["calls"][name]))
        return PassResult(units, attempted=len(units), failed=failed)
