#!/usr/bin/env python3
"""Elastic cluster: crash recovery, live migration, and resizing.

``repro.checkpoint`` (DESIGN.md §13) gives the cluster a deterministic
snapshot of any running job.  Workers checkpoint long jobs every
``checkpoint_interval`` consumed instructions and ship the blobs to the
coordinator, which turns one primitive into three capabilities:

* **crash recovery** — a worker killed mid-job is restarted with
  exponential backoff and the job resumes from its last checkpoint
  (re-executed work is bounded by the interval), with results
  byte-identical to an undisturbed run;
* **live migration** — ``cluster.migrate(job_id, worker)`` asks the
  owning worker to yield a checkpoint and re-dispatches it elsewhere;
* **elastic resize** — ``cluster.resize(n)`` grows the pool with fresh
  workers or drains the highest-numbered ones, checkpointing their
  in-flight jobs onto the survivors.

The proof in every scene is the same: deterministic result keys and the
merged metrics report match the 1-worker reference byte for byte.

Run:  python examples/elastic_cluster.py
"""

from repro.cluster import Cluster
from repro.elf.format import write_elf
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import busy_program

KW = dict(checkpoint_interval=50_000, timeslice=10_000)


def build_batch():
    long = write_elf(compile_lfi(busy_program(7, 400_000)).elf)
    short = write_elf(compile_lfi(busy_program(3, 4_000)).elf)
    return [long, short, long, short, long]


def run_batch(workers, hook=None, **kwargs):
    with Cluster(workers=workers, **KW, **kwargs) as cluster:
        for program in build_batch():
            cluster.submit(program)
        if hook is not None:
            hook(cluster)
        results = cluster.drain()
        return ([r.deterministic_key() for r in results],
                cluster.metrics_report(), cluster.fleet_report())


def main():
    print("== reference: undisturbed batch on one worker ==")
    ref_keys, ref_report, _ = run_batch(workers=1)
    print(f"  {len(ref_keys)} jobs, exit codes {[k[1] for k in ref_keys]}")

    print("\n== crash recovery: kill worker 0 on its first job ==")
    keys, report, fleet = run_batch(workers=2, chaos={0: 0})
    print(f"  restarts={fleet['restarts']}  "
          f"checkpoints={fleet['checkpoints']}  "
          f"restores={fleet['restores']}")
    for line in fleet["incidents"]:
        print(f"    {line}")
    print(f"  results byte-identical to reference: "
          f"{(keys, report) == (ref_keys, ref_report)}")

    print("\n== live migration: move job 0 from worker 0 to worker 1 ==")
    keys, report, fleet = run_batch(
        workers=2, hook=lambda c: c.migrate(0, 1))
    print(f"  migrations={fleet['migrations']}  "
          f"restores={fleet['restores']}")
    print(f"  results byte-identical to reference: "
          f"{(keys, report) == (ref_keys, ref_report)}")

    print("\n== elastic resize: grow 2 -> 4 mid-batch, shrink to 1 ==")

    def resize_hook(cluster):
        cluster.resize(4)   # scale out while jobs are in flight
        cluster.resize(1)   # drain three workers; jobs checkpoint over

    keys, report, fleet = run_batch(workers=2, hook=resize_hook)
    print(f"  final pool size={fleet['workers']}  "
          f"checkpoints={fleet['checkpoints']}")
    print(f"  results byte-identical to reference: "
          f"{(keys, report) == (ref_keys, ref_report)}")


if __name__ == "__main__":
    main()
