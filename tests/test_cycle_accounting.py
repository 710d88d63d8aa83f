"""Cycle-accounting invariants: flat charges, per-class costs, and the
telescoping-delta property the obs profiler's completeness rests on.

The dataflow model's cycle counter is ``max(t_issue, t_done)`` and is
monotonically nondecreasing, so the per-step deltas reported to step
probes must sum *exactly* to the machine's total cycles — across flat
``add_cycles`` charges, preemption slices, and whole scheduled runs.
"""

import pytest

from repro.emulator import APPLE_M1, Machine
from repro.emulator.machine import _Costing
from repro.emulator import costs
from repro.memory import PagedMemory
from repro.obs import ContextSwitch, RuntimeCallSpan, Tracer
from repro.runtime import Runtime
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import prologue, rt_exit


def make_machine():
    return Machine(PagedMemory(), model=APPLE_M1)


LOOP = prologue() + """
    mov x0, #400
loop:
    sub x0, x0, #1
    cbnz x0, loop
    mov x0, #0
""" + rt_exit()


class TestAddCycles:
    def test_add_cycles_advances_counter(self):
        machine = make_machine()
        before = machine.cycles
        machine.add_cycles(58.0)
        assert machine.cycles == pytest.approx(before + 58.0)

    def test_add_cycles_without_model_is_noop(self):
        machine = Machine(PagedMemory())
        machine.add_cycles(100.0)
        assert machine.cycles == 0.0

    def test_add_cycles_reports_delta_to_probes(self):
        machine = make_machine()
        seen = []
        machine.add_step_probe(
            lambda m, pc, kind, delta: seen.append((pc, kind, delta))
        )
        machine.add_cycles(44.0, kind="call")
        assert seen == [(None, "call", pytest.approx(44.0))]

    def test_add_cycles_hidden_under_latency(self):
        """A flat charge smaller than outstanding latency costs nothing."""
        machine = make_machine()
        costing = machine._costing
        costing.t_done = 100.0  # pretend a long chain is in flight
        machine.add_cycles(10.0)
        assert machine.cycles == 100.0  # hidden: issue stays below t_done
        machine.add_cycles(200.0)  # t_issue reaches 210 and dominates
        assert machine.cycles == pytest.approx(210.0)


class TestCostingCharge:
    def test_issue_and_latency_per_class(self):
        model = APPLE_M1
        for klass in (costs.ALU, costs.ALU_EXT, costs.LOAD, costs.MUL,
                      costs.DIV, costs.BRANCH, costs.SIMD):
            costing = _Costing(model, tlb=None)
            costing.charge(klass, (), (0,))
            assert costing.t_issue == pytest.approx(model.issue_cost(klass))
            assert costing.ready[0] == pytest.approx(
                model.issue_cost(klass) + model.result_latency(klass)
            )

    def test_dependency_chain_serializes(self):
        costing = _Costing(APPLE_M1, tlb=None)
        lat = APPLE_M1.result_latency(costs.MUL)
        costing.charge(costs.MUL, (), (0,))
        costing.charge(costs.MUL, (0,), (0,))  # depends on the first
        assert costing.cycles >= 2 * lat

    def test_independent_ops_overlap(self):
        dep = _Costing(APPLE_M1, tlb=None)
        indep = _Costing(APPLE_M1, tlb=None)
        for i in range(8):
            dep.charge(costs.MUL, (0,), (0,))
            indep.charge(costs.MUL, (i,), (i,))
        assert indep.cycles < dep.cycles

    def test_guard_class_costs_more_than_plain_alu(self):
        """The extended-operand add (the guard) has the §4 penalty."""
        assert APPLE_M1.result_latency(costs.ALU_EXT) \
            > APPLE_M1.result_latency(costs.ALU)

    def test_extra_latency_and_bubble(self):
        base = _Costing(APPLE_M1, tlb=None)
        base.charge(costs.LOAD, (), (0,))
        slow = _Costing(APPLE_M1, tlb=None)
        slow.charge(costs.LOAD, (), (0,), extra_latency=30.0,
                    fetch_bubble=2.0)
        assert slow.cycles > base.cycles


class TestTelescopingDeltas:
    def test_step_probe_deltas_sum_to_total(self):
        runtime = Runtime(model=APPLE_M1)
        total = []
        runtime.machine.add_step_probe(
            lambda m, pc, k, delta: total.append(delta)
        )
        proc = runtime.spawn(compile_lfi(LOOP).elf, verify=True)
        assert runtime.run_until_exit(proc) == 0
        assert sum(total) == pytest.approx(runtime.machine.cycles)

    def test_preemption_slices_sum_to_total_cycles(self):
        """Scheduling slices + runtime-call spans tile the whole run."""
        runtime = Runtime(model=APPLE_M1, timeslice=100)
        tracer = Tracer().attach(runtime)
        proc = runtime.spawn(compile_lfi(LOOP).elf, verify=True)
        assert runtime.run_until_exit(proc) == 0
        slices = [e for e in tracer.events if isinstance(e, ContextSwitch)]
        spans = [e for e in tracer.events if isinstance(e, RuntimeCallSpan)]
        assert len(slices) > 5  # the loop outlives several timeslices
        assert any(s.reason == "preempt" for s in slices)
        covered = sum(s.dur for s in slices) + sum(s.dur for s in spans)
        assert covered == pytest.approx(runtime.machine.cycles)
        assert sum(s.instructions for s in slices) \
            == runtime.machine.instret
        assert sum(s.instructions for s in slices) == proc.instructions

    def test_slices_contiguous_and_ordered(self):
        runtime = Runtime(model=APPLE_M1, timeslice=64)
        tracer = Tracer().attach(runtime)
        proc = runtime.spawn(compile_lfi(LOOP).elf, verify=True)
        runtime.run_until_exit(proc)
        slices = [e for e in tracer.events if isinstance(e, ContextSwitch)]
        for prev, cur in zip(slices, slices[1:]):
            assert cur.ts >= prev.ts + prev.dur - 1e-9


# -- the LRU rule: lookup, its source, and a model that shares neither ---------

def reference_lookup(sets, ways, page_size, state, address):
    """The textbook rule on ``state`` (set index -> units, oldest first)."""
    unit = address // page_size
    entries = state.setdefault(unit % sets, [])
    hit = unit in entries
    if hit:
        entries.remove(unit)
    elif len(entries) == ways:
        del entries[0]
    entries.append(unit)
    return hit


def compiled_lookup(tlb, **form):
    """``Tlb.lookup_source`` compiled standalone the way a generated body
    holds it: counts in locals, the sets and (``call=``) the method bound."""
    lines = tlb.lookup_source("sets", ["hits += 1"], ["misses += 1"], **form)
    scope = {}
    exec("\n".join([
        "def make(sets, lookup):",
        "    def run(addresses):",
        "        hits = misses = 0",
        "        last = -1",
        "        for addr in addresses:",
        *["            " + line for line in lines],
        "        return hits, misses",
        "    return run"]), scope)
    return scope["make"](tlb._sets, tlb.lookup)


class TestLruRuleHasOneStatement:
    #: entries, ways, unit size: powers of two (shift and mask), neither.
    GEOMETRIES = [(512, 4, 16384), (2048, 8, 64), (64, 1, 64), (12, 3, 100),
                  (15, 3, 64), (10, 2, 48), (7, 7, 4096)]

    @staticmethod
    def stream(rng, page_size, sets, ways):
        """Runs inside a unit, set conflicts past the associativity,
        returns to recent units, far jumps."""
        recent, addresses = [0], []
        for _ in range(3000):
            roll = rng.random()
            if roll < 0.4:
                unit = recent[-1]
            elif roll < 0.7:
                unit = rng.choice(recent[-2 * ways:])
            elif roll < 0.9:
                unit = recent[-1] % sets + sets * rng.randrange(ways + 2)
            else:
                unit = rng.randrange(1 << 20)
            recent.append(unit)
            addresses.append(unit * page_size + rng.randrange(page_size))
        return addresses

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    def test_method_and_source_are_the_textbook_rule(self, geometry):
        from random import Random
        from repro.emulator.tlb import Tlb

        entries, ways, page_size = geometry
        for seed in range(5):
            addresses = self.stream(Random(seed), page_size,
                                    entries // ways, ways)
            state, expected = {}, []
            for address in addresses:
                expected.append(reference_lookup(
                    entries // ways, ways, page_size, state, address))
            final = [state.get(index, []) for index in range(entries // ways)]
            method = Tlb(entries, ways, page_size)
            assert [method.lookup(a) for a in addresses] == expected
            assert method._sets == final
            assert (method.hits, method.misses) == (
                sum(expected), len(expected) - sum(expected))
            # As a body with several memory rows inlines it ...
            inlined = Tlb(entries, ways, page_size)
            assert compiled_lookup(inlined, last="last")(addresses) \
                == (method.hits, method.misses)
            assert inlined._sets == final
            assert (inlined.hits, inlined.misses) == (0, 0)
            # ... and as one with a single row does: past the MRU way
            # the method counts, in the gauge itself.
            called = Tlb(entries, ways, page_size)
            hits, misses = compiled_lookup(called, call="lookup")(addresses)
            assert called._sets == final
            assert hits + called.hits == method.hits
            assert (misses, called.misses) == (method.misses, method.misses)
