#!/usr/bin/env python3
"""Chaos-testing a multi-tenant host: seeded faults, zero escapes.

The paper claims one host process can run many mutually untrusted
sandboxes (§5.3).  This example *attacks* that claim deterministically:

* 8+ tenants (CPU workers, heap users, and a forker with pipe IPC) run
  under a :class:`Supervisor` with on-failure restart policies and
  per-sandbox resource quotas;
* a seeded :class:`FaultInjector` delivers hundreds of faults — text bit
  flips, post-verification guard corruption, transient runtime-call
  errors, trap storms — through the ``Machine.run`` / ``Runtime._service_call``
  hook points;
* a :class:`ContainmentAuditor` attributes every guest store and walks
  mappings + register state after every fault.

The run must end with **zero containment violations and zero host-loop
crashes**, and the incident + delivery logs are bit-identical for the
same seed.

Run:  PYTHONPATH=src python examples/chaos_tenants.py
      PYTHONPATH=src python examples/chaos_tenants.py --faults 40  # smoke
"""

import argparse
import hashlib
import sys

from repro.robustness import (
    ContainmentAuditor,
    FaultInjector,
    RestartPolicy,
    Supervisor,
)
from repro.runtime import ResourceQuota, Runtime, RuntimeCall
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import prologue, rt_exit, rtcall


def worker_source(tenant_id: int) -> str:
    """CPU-bound tenant: compute, store progress, call the runtime."""
    return prologue() + f"""
    movz x19, #{tenant_id}
    movz x25, #6
outer:
    mov x1, #0
    movz x2, #300
inner:
    add x1, x1, x19
    subs x2, x2, #1
    b.ne inner
    adrp x3, cell
    add x3, x3, :lo12:cell
    str x1, [x3]
""" + rtcall(RuntimeCall.GETPID) + rtcall(RuntimeCall.YIELD) + """
    subs x25, x25, #1
    b.ne outer
""" + f"    mov x0, #{tenant_id}\n" + rt_exit() + """
.data
.balign 8
cell: .quad 0
"""


def heaper_source(tenant_id: int) -> str:
    """Heap tenant: grows the brk (exercising the page quota) and uses it.

    Defensive against injected transient errors: a negative brk result
    skips the heap accesses instead of dereferencing garbage."""
    return prologue() + """
    mov x0, #0
""" + rtcall(RuntimeCall.BRK) + """
    mov x19, x0
    tbnz x19, #63, done
    add x0, x19, #0x4000
""" + rtcall(RuntimeCall.BRK) + """
    tbnz x0, #63, done
    str x0, [x19]
    ldr x1, [x19]
""" + rtcall(RuntimeCall.YIELD) + """
done:
""" + f"    mov x0, #{tenant_id}\n" + rt_exit() + """
"""


def forker_source(tenant_id: int) -> str:
    """Fork + pipe tenant: the child blocks on a pipe read; if either side
    is killed mid-protocol the survivor deadlocks — which the supervisor
    must convert into a per-sandbox incident, not a host crash."""
    return prologue() + """
    adrp x19, fds
    add x19, x19, :lo12:fds
    mov x0, x19
""" + rtcall(RuntimeCall.PIPE) + """
    tbnz x0, #63, solo
""" + rtcall(RuntimeCall.FORK) + """
    tbnz x0, #63, solo
    cbnz x0, parent
    ldr w20, [x19]
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x0, x20
    mov x2, #1
""" + rtcall(RuntimeCall.READ) + """
    mov x0, #0
""" + rt_exit() + """
parent:
    movz x2, #2000
pwork:
    subs x2, x2, #1
    b.ne pwork
    ldr w20, [x19, #4]
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x3, #65
    strb w3, [x1]
    mov x0, x20
    mov x2, #1
""" + rtcall(RuntimeCall.WRITE) + """
    mov x0, #0
""" + rtcall(RuntimeCall.WAIT) + """
solo:
""" + f"    mov x0, #{tenant_id}\n" + rt_exit() + """
.data
.balign 8
fds: .skip 8
buf: .skip 8
"""


def build_tenants(count: int):
    """Compile a diverse batch of tenant programs (one ELF each)."""
    elfs = []
    for i in range(count):
        if i % 4 == 3:
            src = forker_source(i)
        elif i % 4 == 2:
            src = heaper_source(i)
        else:
            src = worker_source(i)
        elfs.append(compile_lfi(src).elf)
    return elfs


def run_chaos(seed: int = 1234, tenants: int = 8, faults: int = 200,
              timeslice: int = 500, verbose: bool = False) -> dict:
    """One seeded chaos run; returns everything needed for assertions."""
    runtime = Runtime(timeslice=timeslice, stack_size=256 * 1024)
    auditor = ContainmentAuditor(runtime)
    supervisor = Supervisor(runtime, watchdog_fault_limit=6, auditor=auditor)
    injector = FaultInjector(runtime, seed=seed)

    policy = RestartPolicy(mode="on-failure", max_restarts=4,
                           backoff_base=1, backoff_factor=2)
    quota = ResourceQuota(max_mapped_pages=64, max_fds=12,
                          max_instructions=100_000)
    names = [f"tenant-{i}" for i in range(tenants)]
    for name, elf in zip(names, build_tenants(tenants)):
        supervisor.submit(name, elf, policy=policy, quota=quota)

    injector.arm(injector.plan(faults))

    waves = 0
    while waves == 0 or (injector.delivered_count < faults
                         and waves < 1000):
        if waves:
            for name in names:
                supervisor.revive(name)
        supervisor.run()
        waves += 1

    incident_log = supervisor.incident_log()
    delivery_log = injector.delivery_log()
    digest = hashlib.sha256(
        ("\n".join(incident_log) + "\n" + "\n".join(delivery_log))
        .encode()
    ).hexdigest()

    if verbose:
        for line in incident_log:
            print("  " + line)

    return {
        "runtime": runtime,
        "supervisor": supervisor,
        "injector": injector,
        "auditor": auditor,
        "incident_log": incident_log,
        "delivery_log": delivery_log,
        "digest": digest,
        "waves": waves,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--tenants", type=int, default=8)
    parser.add_argument("--faults", type=int, default=200)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    print(f"== chaos: {args.tenants} tenants, {args.faults} seeded faults "
          f"(seed {args.seed}) ==")
    result = run_chaos(seed=args.seed, tenants=args.tenants,
                       faults=args.faults, verbose=args.verbose)

    injector = result["injector"]
    auditor = result["auditor"]
    supervisor = result["supervisor"]

    by_kind = {}
    for _seq, kind, _pid, _detail in injector.delivered:
        by_kind[kind] = by_kind.get(kind, 0) + 1
    print(f"  delivered {injector.delivered_count} faults over "
          f"{result['waves']} wave(s): "
          + ", ".join(f"{k}={v}" for k, v in sorted(by_kind.items())))

    inc_kinds = {}
    for inc in supervisor.incidents:
        inc_kinds[inc.kind] = inc_kinds.get(inc.kind, 0) + 1
    print(f"  {len(supervisor.incidents)} incidents: "
          + ", ".join(f"{k}={v}" for k, v in sorted(inc_kinds.items())))
    print(f"  containment audits: {auditor.audits}, "
          f"violations: {len(auditor.violations)}")
    print(f"  incident-log digest: {result['digest'][:16]}... "
          f"(rerun with the same seed to compare)")

    if auditor.violations:
        print("  CONTAINMENT VIOLATIONS:")
        for v in auditor.violations:
            print("    " + v.line())
        return 1
    print("  all faults contained; host loop never crashed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
