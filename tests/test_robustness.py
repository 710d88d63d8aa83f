"""Supervision, quotas, fault injection, and containment auditing.

The acceptance bar for this layer: hundreds of seeded faults across many
concurrent sandboxes, zero containment violations, zero host-loop
crashes, and bit-identical incident logs per seed."""

import errno
import importlib.util
import pathlib

from repro.robustness import (
    NEVER,
    ContainmentAuditor,
    FaultInjector,
    RestartPolicy,
    Supervisor,
)
from repro.memory import SANDBOX_SIZE
from repro.memory.pages import PERM_X
from repro.runtime import ProcessState, ResourceQuota, Runtime, RuntimeCall
from repro.toolchain import compile_lfi, compile_native
from repro.workloads.rtlib import prologue, rt_exit, rtcall

EXIT42 = prologue() + "    mov x0, #42\n" + rt_exit()

CRASH = prologue() + """
    mov x1, #0
    ldr x0, [x1]
""" + rt_exit()

SPIN = prologue() + """
loop:
    b loop
"""

#: A guarded store executed in a loop — guard-corruption fodder.
STORER = prologue() + """
    movz x25, #40
outer:
    adrp x3, cell
    add x3, x3, :lo12:cell
    str x25, [x3]
""" + rtcall(RuntimeCall.YIELD) + """
    subs x25, x25, #1
    b.ne outer
    mov x0, #0
""" + rt_exit() + """
.data
.balign 8
cell: .quad 0
"""


def crash_elf():
    return compile_native(CRASH).elf


def _load_chaos_module():
    path = (pathlib.Path(__file__).resolve().parent.parent
            / "examples" / "chaos_tenants.py")
    spec = importlib.util.spec_from_file_location("chaos_tenants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSupervisor:
    def test_clean_exit_no_restart(self):
        runtime = Runtime()
        sup = Supervisor(runtime)
        sup.submit("calm", compile_lfi(EXIT42).elf,
                   policy=RestartPolicy())
        sup.run()
        st = sup.status()["calm"]
        assert st["done"] and st["exit_code"] == 42 and st["restarts"] == 0
        assert sup.incidents == []

    def test_never_policy_no_restart(self):
        runtime = Runtime()
        sup = Supervisor(runtime)
        sup.submit("fragile", crash_elf(), verify=False)
        sup.run()
        kinds = [i.kind for i in sup.incidents]
        assert kinds == ["segv"]
        assert sup.status()["fragile"]["restarts"] == 0

    def test_a_budget_of_zero_logs_what_never_logged(self):
        """``NEVER`` is ``max_restarts=0``: the fault, and no restart or
        ``gave-up``, whatever the backoff."""
        assert NEVER == RestartPolicy(max_restarts=0)
        for policy in (NEVER, RestartPolicy(max_restarts=0, backoff_base=3,
                                            backoff_factor=5)):
            sup = Supervisor(Runtime())
            sup.submit("fragile", crash_elf(), policy=policy, verify=False)
            sup.run()
            assert [i.kind for i in sup.incidents] == ["segv"]
            assert sup.status()["fragile"]["restarts"] == 0

    def test_on_failure_restarts_then_gives_up(self):
        runtime = Runtime()
        sup = Supervisor(runtime)
        sup.submit("fragile", crash_elf(),
                   policy=RestartPolicy(max_restarts=2),
                   verify=False)
        sup.run()
        kinds = [i.kind for i in sup.incidents]
        assert kinds.count("segv") == 3  # initial + 2 restarts
        assert kinds.count("restart") == 2
        assert kinds.count("gave-up") == 1
        assert sup.status()["fragile"]["done"]

    def test_exponential_backoff_rounds(self):
        runtime = Runtime()
        sup = Supervisor(runtime)
        sup.submit("fragile", crash_elf(),
                   policy=RestartPolicy(max_restarts=2,
                                        backoff_base=2, backoff_factor=3),
                   verify=False)
        sup.run()
        restart_rounds = [i.round for i in sup.incidents
                          if i.kind == "restart"]
        # fault in round 0 -> due 0 + 2*3^0 = 2; fault in round 2 ->
        # due 2 + 2*3^1 = 8.
        assert restart_rounds == [2, 8]

    def test_deadlock_becomes_incident_not_crash(self):
        src = prologue() + """
            adrp x19, fds
            add x19, x19, :lo12:fds
            mov x0, x19
        """ + rtcall(RuntimeCall.PIPE) + """
            ldr w20, [x19]
            adrp x1, buf
            add x1, x1, :lo12:buf
            mov x0, x20
            mov x2, #1
        """ + rtcall(RuntimeCall.READ) + """
            mov x0, #0
        """ + rt_exit() + """
        .data
        .balign 8
        fds: .skip 8
        buf: .skip 8
        """
        runtime = Runtime()
        sup = Supervisor(runtime)
        proc = sup.submit("stuck", compile_lfi(src).elf)
        sup.run()  # must not raise Deadlock
        (incident,) = [i for i in sup.incidents if i.kind == "deadlock"]
        assert incident.pid == proc.pid
        assert proc.exit_code == 128 + 6
        assert sup.status()["stuck"]["done"]

    def test_sibling_unaffected_by_fault(self):
        runtime = Runtime()
        sup = Supervisor(runtime)
        sup.submit("fragile", crash_elf(), verify=False)
        sup.submit("calm", compile_lfi(EXIT42).elf)
        sup.run()
        assert sup.status()["calm"]["exit_code"] == 42

    def test_reclaim_unmaps_dead_slot(self):
        runtime = Runtime()
        sup = Supervisor(runtime)
        proc = sup.submit("calm", compile_lfi(EXIT42).elf)
        lo, hi = proc.layout.base, proc.layout.end
        sup.run()
        leftover = [r for r in runtime.memory.mapped_regions()
                    if lo <= r[0] < hi]
        assert leftover == []


class TestQuotas:
    def test_fd_quota_emfile(self):
        src = prologue() + """
            adrp x19, fds
            add x19, x19, :lo12:fds
            mov x0, x19
        """ + rtcall(RuntimeCall.PIPE) + """
            tbnz x0, #63, early
            mov x0, x19
        """ + rtcall(RuntimeCall.PIPE) + """
            tbnz x0, #63, limited
            mov x0, #1
        """ + rt_exit() + """
        limited:
            mov x0, #9
        """ + rt_exit() + """
        early:
            mov x0, #2
        """ + rt_exit() + """
        .data
        .balign 8
        fds: .skip 8
        """
        runtime = Runtime()
        proc = runtime.spawn(compile_lfi(src).elf, verify=True)
        # 3 std streams + one pipe pair fit; the second pair must not.
        runtime.set_quota(proc, ResourceQuota(max_fds=6))
        assert runtime.run_until_exit(proc) == 9

    def test_page_quota_enomem_on_brk(self):
        src = prologue() + """
            mov x0, #0
        """ + rtcall(RuntimeCall.BRK) + """
            mov x19, x0
            tbnz x19, #63, early
            movz x1, #0x10, lsl #16
            add x0, x19, x1
        """ + rtcall(RuntimeCall.BRK) + """
            tbnz x0, #63, limited
            mov x0, #1
        """ + rt_exit() + """
        limited:
            mov x0, #9
        """ + rt_exit() + """
        early:
            mov x0, #2
        """ + rt_exit()
        runtime = Runtime(stack_size=64 * 1024)
        proc = runtime.spawn(compile_lfi(src).elf, verify=True)
        # Enough for text/stack/table, nowhere near enough for a 1MiB brk.
        runtime.set_quota(proc, ResourceQuota(max_mapped_pages=32))
        assert runtime.run_until_exit(proc) == 9

    def test_instruction_quota_kills(self):
        runtime = Runtime(timeslice=500)
        proc = runtime.spawn(compile_lfi(SPIN).elf, verify=True)
        runtime.set_quota(proc, ResourceQuota(max_instructions=5_000))
        runtime.run()
        assert proc.state == ProcessState.ZOMBIE
        assert proc.exit_code == 128 + 9
        (fault,) = runtime.faults
        assert fault.kind == "quota"

    def test_quota_kill_is_not_restarted(self):
        runtime = Runtime(timeslice=500)
        sup = Supervisor(runtime)
        sup.submit("greedy", compile_lfi(SPIN).elf,
                   policy=RestartPolicy(max_restarts=5),
                   quota=ResourceQuota(max_instructions=5_000))
        sup.run()
        kinds = [i.kind for i in sup.incidents]
        assert kinds.count("quota") == 1
        assert kinds.count("kill") == 1
        assert kinds.count("restart") == 0

    def test_fork_inherits_quota(self):
        runtime = Runtime()
        proc = runtime.spawn(compile_lfi(EXIT42).elf, verify=True)
        quota = ResourceQuota(max_instructions=123)
        runtime.set_quota(proc, quota)
        child = runtime.fork(proc)
        assert runtime.quotas[child.pid] is quota


class TestFaultInjector:
    def test_callerr_is_one_shot(self):
        src = prologue() + rtcall(RuntimeCall.GETPID) + """
            cmn x0, #4
            b.ne bad
        """ + rtcall(RuntimeCall.GETPID) + """
            tbnz x0, #63, bad
            mov x0, #9
        """ + rt_exit() + """
        bad:
            mov x0, #1
        """ + rt_exit()
        runtime = Runtime()
        injector = FaultInjector(runtime, seed=0)
        proc = runtime.spawn(compile_lfi(src).elf, verify=True)
        injector._call_errs[proc.pid] = errno.EINTR  # EINTR == 4
        assert runtime.run_until_exit(proc) == 9
        (record,) = injector.delivered
        assert record[1] == "callerr" and record[2] == proc.pid

    def test_trapstorm_spans_processes(self):
        runtime = Runtime()
        injector = FaultInjector(runtime, seed=0)
        first = runtime.spawn(compile_lfi(EXIT42).elf, verify=True)
        injector._storm = 2
        runtime.run()
        assert first.exit_code == 128 + 11
        second = runtime.spawn(compile_lfi(EXIT42).elf, verify=True)
        runtime.run()
        assert second.exit_code == 128 + 11
        kinds = [kind for _seq, kind, _pid, _detail in injector.delivered]
        assert kinds == ["trapstorm", "trapstorm"]
        assert [f.kind for f in runtime.faults] == ["segv", "segv"]

    def test_plan_is_deterministic(self):
        runtime_a, runtime_b = Runtime(), Runtime()
        plan_a = FaultInjector(runtime_a, seed=99).plan(50)
        plan_b = FaultInjector(runtime_b, seed=99).plan(50)
        assert plan_a == plan_b
        plan_c = FaultInjector(Runtime(), seed=100).plan(50)
        assert plan_a != plan_c


class TestContainment:
    def _text(self, runtime, proc):
        regions = [
            (base, size)
            for base, size, perms in runtime.memory.mapped_regions()
            if perms & PERM_X
            and proc.layout.base <= base < proc.layout.end
        ]
        (base, size) = regions[0]
        return runtime.memory.read(base, size)

    def test_bitflips_contained_and_bystander_unperturbed(self):
        runtime = Runtime(timeslice=500)
        auditor = ContainmentAuditor(runtime)
        injector = FaultInjector(runtime, seed=5)
        victim = runtime.spawn(compile_lfi(STORER).elf, verify=True)
        bystander = runtime.spawn(compile_lfi(EXIT42).elf, verify=True)
        by_text = self._text(runtime, bystander)
        for param in range(4):
            injector._fire_bitflip(victim, param)
        runtime.run()
        assert injector.delivered_count == 4
        auditor.assert_clean()
        assert bystander.exit_code == 42
        assert self._text(runtime, bystander) == by_text

    def test_guard_corruption_traps_not_escapes(self):
        # An indirect branch forces a standalone guard whose output is
        # immediately jumped through — corrupting it must trap, not escape.
        jumper = prologue() + """
            adrp x3, hop
            add x3, x3, :lo12:hop
            br x3
            mov x0, #1
        """ + rt_exit() + """
        hop:
            mov x0, #0
        """ + rt_exit()
        runtime = Runtime(timeslice=500)
        auditor = ContainmentAuditor(runtime)
        injector = FaultInjector(runtime, seed=5)
        victim = runtime.spawn(compile_lfi(jumper).elf, verify=True)
        bystander = runtime.spawn(compile_lfi(EXIT42).elf, verify=True)
        injector._fire_guard(victim, 0)
        (record,) = injector.delivered
        assert record[1] == "guard"  # a real guard was found and corrupted
        runtime.run()
        assert victim.exit_code == 128 + 11
        (fault,) = runtime.faults
        assert fault.kind == "segv" and fault.pid == victim.pid
        auditor.assert_clean()
        assert bystander.exit_code == 42

    def test_auditor_catches_real_write_escape(self):
        """An unverified program writing into a sibling's mapped stack must
        be flagged — proving the auditor is not vacuous."""
        runtime = Runtime()
        auditor = ContainmentAuditor(runtime)
        bystander = runtime.spawn(compile_lfi(EXIT42).elf, verify=True)
        target = bystander.registers["sp"] - 8
        assert target < 2 * SANDBOX_SIZE  # slot 1: a 33-bit address
        evil_src = prologue() + f"""
            movz x1, #{(target >> 32) & 0xFFFF}, lsl #32
            movk x1, #{(target >> 16) & 0xFFFF}, lsl #16
            movk x1, #{target & 0xFFFF}
            str x0, [x1]
            mov x0, #0
        """ + rt_exit()
        evil = runtime.spawn(compile_native(evil_src).elf, verify=False)
        runtime.run()
        escapes = [v for v in auditor.violations if v.kind == "write-escape"]
        assert len(escapes) == 1
        assert escapes[0].pid == evil.pid
        assert hex(target) in escapes[0].detail

    def test_audit_after_fault_checks_registers(self):
        runtime = Runtime()
        auditor = ContainmentAuditor(runtime)
        proc = runtime.spawn(compile_lfi(EXIT42).elf, verify=True)
        assert auditor.audit_after_fault(proc.pid) == []
        proc.registers["regs"][21] = 0xDEAD  # simulate corrupted base reg
        found = auditor.audit_after_fault(proc.pid)
        assert [v.kind for v in found] == ["register"]


class TestChaosAcceptance:
    """The ISSUE acceptance run: >= 200 seeded faults over >= 8 concurrent
    sandboxes, zero containment violations, zero host-loop crashes, and a
    deterministic incident log per seed."""

    def test_seeded_chaos_run(self):
        chaos = _load_chaos_module()
        result = chaos.run_chaos(seed=7, tenants=8, faults=200)
        assert result["injector"].delivered_count >= 200
        assert result["auditor"].violations == []
        host_errors = [i for i in result["supervisor"].incidents
                       if i.kind == "host"]
        assert host_errors == []
        assert len(result["supervisor"].status()) == 8

        again = chaos.run_chaos(seed=7, tenants=8, faults=200)
        assert again["digest"] == result["digest"]
        assert again["incident_log"] == result["incident_log"]
        assert again["delivery_log"] == result["delivery_log"]

    def test_chaos_digest_is_pinned(self):
        """The incident and delivery logs at ``--faults 60 --seed 1234``,
        as CI's determinism job runs them, byte for byte."""
        result = _load_chaos_module().run_chaos(seed=1234, faults=60)
        assert result["digest"] == (
            "fb77138a0a166efc82f63aa3e6e33d2d7affcbbdbebf69d96271f4f07a28dab9")

    def test_different_seed_different_plan(self):
        chaos = _load_chaos_module()
        a = chaos.run_chaos(seed=1, tenants=8, faults=40)
        b = chaos.run_chaos(seed=2, tenants=8, faults=40)
        assert a["auditor"].violations == []
        assert b["auditor"].violations == []
        assert a["delivery_log"] != b["delivery_log"]
