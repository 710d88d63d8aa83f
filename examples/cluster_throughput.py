#!/usr/bin/env python3
"""Scale-out cluster: sharded workers, warm spawn, crash recovery.

``repro.cluster`` (DESIGN.md §12) partitions a batch of sandbox jobs
across N OS worker processes, each owning a private superblock runtime.
This example demonstrates the three contract points:

* **determinism** — the same batch on 1 worker and on 4 workers yields
  byte-identical results (exit codes, stdout, fault kinds, per-sandbox
  metrics counters);
* **warm spawn** — each worker verifies an image once and then spawns
  sandboxes as COW snapshot restores of a loaded template;
* **fault tolerance** — a worker killed mid-batch is restarted by the
  supervisor and its in-flight jobs re-dispatched; no result is lost.

Run:  python examples/cluster_throughput.py
"""

from repro.cluster import Cluster
from repro.elf.format import write_elf
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import busy_program

JOBS = 12
DISTINCT = 3


def build_batch():
    images = [
        write_elf(compile_lfi(busy_program(v, 8_000)).elf)
        for v in range(DISTINCT)
    ]
    return [images[i % DISTINCT] for i in range(JOBS)]


def run_batch(workers, **kwargs):
    with Cluster(workers=workers, **kwargs) as cluster:
        for program in build_batch():
            cluster.submit(program)
        results = cluster.drain()
        return ([r.deterministic_key() for r in results],
                cluster.metrics_report(), cluster.fleet_report())


def main():
    print("== determinism: same batch on 1 vs 4 workers ==")
    keys1, report1, fleet1 = run_batch(workers=1)
    keys4, report4, _ = run_batch(workers=4)
    print(f"  {JOBS} jobs, exit codes "
          f"{[k[1] for k in keys4]}")
    print(f"  1-worker == 4-worker results: {keys1 == keys4}")
    print(f"  merged metrics reports byte-identical: {report1 == report4}")

    print("\n== warm spawn: verify once, restore many ==")
    print(f"  {DISTINCT} distinct images, {JOBS} jobs on one worker -> "
          f"warm hits {fleet1['warm_hits']}, "
          f"cold loads {fleet1['warm_misses']}")

    print("\n== fault tolerance: kill worker 0 after its 2nd job ==")
    keys_chaos, _, fleet = run_batch(workers=2, chaos={0: 2})
    print(f"  results still identical to clean run: "
          f"{keys_chaos == keys1}")
    print(f"  restarts: {fleet['restarts']}")
    for line in fleet["incidents"]:
        print(f"    {line}")


if __name__ == "__main__":
    main()
