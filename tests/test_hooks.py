"""Multi-subscriber hook registry: semantics and composition.

The registry replaced — and as of this release fully supersedes — the
single-slot ``Machine.run_hook`` / ``Runtime.call_hook`` attributes
(which silently clobbered each other); the key property under test is
that a FaultInjector and a Tracer can observe the same run
simultaneously.
"""

import pytest

from repro.hooks import HookRegistry
from repro.emulator import Machine
from repro.memory import PagedMemory
from repro.obs import RuntimeCallSpan, Tracer
from repro.robustness import FaultInjector
from repro.runtime import Runtime
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import prologue, rt_exit


EXIT0 = prologue() + "    mov x0, #0\n" + rt_exit()


class TestHookRegistry:
    def test_notify_mode_calls_all_in_order(self):
        seen = []
        hooks = HookRegistry()
        hooks.add(lambda x: seen.append(("a", x)))
        hooks.add(lambda x: seen.append(("b", x)))
        hooks(7)
        assert seen == [("a", 7), ("b", 7)]

    def test_add_is_idempotent(self):
        hooks = HookRegistry()
        fn = lambda: None  # noqa: E731
        hooks.add(fn)
        hooks.add(fn)
        assert len(hooks) == 1

    def test_remove_and_bool(self):
        hooks = HookRegistry()
        assert not hooks.subscribed
        fn = hooks.add(lambda: None)
        assert hooks and fn in hooks and hooks.subscribed
        hooks.remove(fn)
        assert not hooks and fn not in hooks and not hooks.subscribed
        hooks.remove(fn)  # removing twice is a no-op
        assert not hooks.subscribed
        hooks.add(fn)
        hooks.clear()
        assert not hooks and not hooks.subscribed

    def test_first_result_short_circuits(self):
        calls = []
        hooks = HookRegistry(first_result=True)
        hooks.add(lambda: calls.append("a"))  # returns None
        hooks.add(lambda: 41)
        hooks.add(lambda: calls.append("never"))
        assert hooks() == 41
        assert calls == ["a"]

    def test_first_result_all_none(self):
        hooks = HookRegistry(first_result=True)
        hooks.add(lambda: None)
        assert hooks() is None


class TestAliasRemoval:
    """The single-slot aliases are gone; the registries are the only API."""

    def test_machine_has_no_run_hook_property(self):
        machine = Machine(PagedMemory())
        assert not isinstance(
            getattr(type(machine), "run_hook", None), property
        )
        assert isinstance(machine.run_hooks, HookRegistry)

    def test_runtime_has_no_call_hook_property(self):
        runtime = Runtime()
        assert not isinstance(
            getattr(type(runtime), "call_hook", None), property
        )
        assert isinstance(runtime.call_hooks, HookRegistry)

    def test_run_hooks_registry_is_the_api(self):
        machine = Machine(PagedMemory())
        keeper = machine.run_hooks.add(lambda m, f: None)
        other = machine.run_hooks.add(lambda m, f: None)
        machine.run_hooks.remove(other)
        assert keeper in machine.run_hooks  # unrelated subscribers survive


class TestComposition:
    def test_injector_and_tracer_share_a_run(self):
        runtime = Runtime()
        tracer = Tracer().attach(runtime)
        injector = FaultInjector(runtime, seed=3)
        assert injector is not None
        proc = runtime.spawn(compile_lfi(EXIT0).elf, verify=True)
        assert runtime.run_until_exit(proc) == 0
        # The tracer saw the exit call even with the injector installed.
        spans = [e for e in tracer.events
                 if isinstance(e, RuntimeCallSpan) and e.call == "exit"]
        assert spans
        assert runtime.call_hooks  # injector still registered

    def test_call_hook_injection_traced_as_injected(self):
        runtime = Runtime()
        tracer = Tracer().attach(runtime)
        runtime.call_hooks.add(lambda proc, call: 99)
        proc = runtime.spawn(compile_lfi(EXIT0).elf, verify=True)
        # Every call short-circuits with 99, so exit never runs its
        # handler; the sandbox runs on past the call and eventually
        # faults or exits — either way the spans are marked injected.
        try:
            runtime.run_until_exit(proc, max_instructions=50_000)
        except Exception:
            pass
        spans = [e for e in tracer.events if isinstance(e, RuntimeCallSpan)]
        assert spans and all(s.injected for s in spans)
        assert all(s.result == 99 for s in spans)
