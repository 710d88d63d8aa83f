#!/usr/bin/env python3
"""Always-on serving: admission control, priorities, policy hot-reload.

``repro.serve`` (DESIGN.md §12) turns the batch cluster into a gateway
that keeps answering under load.  This example drives the built-in
8-tenant demo fleet — two gold tenants (priority 0, 50 ms SLA), three
silver (priority 1), three bronze (priority 2) — with seeded open-loop
Poisson traffic for two virtual seconds, and shows the three contract
points:

* **bounded admission** — tenant ``bronze-3`` offers ~8x the rate its
  token bucket allows; the gateway throttles it with typed rejections
  while every SLA-bearing tenant stays within its target;
* **policy hot-reload** — mid-run, ``gold-1`` gets a tighter
  instruction quota under a monotonic version token; the running guest
  picks it up at its next chunk boundary without restarting (same pid,
  same slot), and a stale token is refused deterministically;
* **determinism** — the same seed replays the entire serving schedule
  (admission log, per-tenant report, Prometheus exposition)
  byte-identically.

Run:  python examples/serve_loadgen.py
"""

from repro.elf.format import write_elf
from repro.obs import prometheus_exposition, validate_exposition
from repro.serve import (
    Gateway,
    TenantPolicy,
    demo_loads,
    demo_policies,
    render_report,
    run_loadgen,
)
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import busy_program

SEED = 2026
DURATION = 2.0


def serve_once():
    gateway = Gateway(demo_policies(), lanes=4, checkpoint_interval=2000,
                      seed=SEED)
    # One long gold request (~40 ms of virtual time) arrives just before
    # the reload, so the new policy provably lands on a *running* guest.
    long_image = write_elf(compile_lfi(busy_program(9, 40_000)).elf)
    long_id = gateway.offer("gold-1", long_image, at=0.95)
    tightened = TenantPolicy(priority=0, rate=40.0, burst=8.0,
                             queue_limit=16, sla_s=0.05,
                             quota={"max_instructions": 45_000})
    gateway.reload("gold-1", tightened, token=1, at=0.97)
    # A duplicate of the same deploy arriving late: its token (still 1)
    # no longer advances the version, so it is refused.
    gateway.reload("gold-1", tightened, token=1, at=1.1)
    results = run_loadgen(gateway, demo_loads(), DURATION, seed=SEED)
    return gateway, results, long_id


def main():
    print("== 8 tenants, 4 lanes, 2 virtual seconds of open-loop load ==")
    gateway, results, long_id = serve_once()
    print(render_report(results, demo_policies()))

    shed = [r for r in results if r.status == "rejected"]
    misbehaving = [r for r in shed if r.tenant == "bronze-3"]
    print(f"shed {len(shed)} requests ({len(misbehaving)} from the "
          f"misbehaving bronze-3), all with typed reasons")

    print("\n== policy hot-reload without guest restart ==")
    applied = [line for line in gateway.log if " apply-policy " in line]
    stale = [line for line in gateway.log if " reload-stale " in line]
    long_result = next(r for r in results if r.job_id == long_id)
    for line in applied[:3]:
        print(f"  {line}")
    print(f"  stale reload refused: {stale[0] if stale else 'MISSING'}")
    reload_ok = (len(applied) == 1
                 and f"pid={long_result.diag['pid']}" in applied[0]
                 and f"slot={hex(long_result.diag['slot'])}" in applied[0]
                 and long_result.status == "ok"
                 and long_result.exit_code == 9)
    print(f"  guest kept pid {long_result.diag['pid']} / slot "
          f"{hex(long_result.diag['slot'])} across the reload and finished "
          f"cleanly: {reload_ok}")

    print("\n== determinism: replay under the same seed ==")
    gateway2, results2, _ = serve_once()
    same_log = gateway.log == gateway2.log
    same_results = ([r.deterministic_key() for r in results]
                    == [r.deterministic_key() for r in results2])
    print(f"  admission logs byte-identical: {same_log}")
    print(f"  results byte-identical: {same_results}")

    gateway.report()
    exposition = prometheus_exposition(gateway.ops)
    problems = validate_exposition(exposition)
    print(f"\nPrometheus exposition: {len(exposition.splitlines())} lines, "
          f"{len(problems)} validation problem(s)")
    if not (same_log and same_results and reload_ok and not problems):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
