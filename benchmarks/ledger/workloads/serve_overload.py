"""``serve-overload``: the gateway at 2x offered capacity, shedding by design.

The BENCH_PR8 fleet (2 gold tenants with an SLA, 2 bronze tenants offering
far more than their buckets and queues admit) re-stated here.  Admission,
policy and lanes plus a warm clone and a per-chunk incremental checkpoint
take about a third of the host time of a request (the traced run: serve 8%,
checkpoint 14%, runtime 8%, memory 3%), a larger share than anywhere else.

The load is open loop in virtual time by construction (Poisson arrivals
drawn independently of how the gateway copes).  On the host it is a
single-threaded closed loop: one process, no sockets.
"""

from __future__ import annotations

from repro.serve import CLOCK_HZ, Gateway, TenantLoad, TenantPolicy, \
    percentile
from repro.serve.loadgen import build_arrivals, build_images

from ..spans import NoSpans
from .base import PassResult, Stopwatch, Workload

LANES = 2
CHECKPOINT_INTERVAL = 2000
#: A pass replays the same ``SCHEDULES`` arrival schedules, seeded
#: ``seed + k``: one gateway life of ``DURATION`` virtual seconds each
#: (~0.4 host seconds at full size, short enough that some pass sees each
#: one undisturbed).  Every pass therefore has identical inputs, a life is
#: only ever compared with a replay of itself, and the virtual latencies
#: pooled over one pass's lives are the same in every pass.
SCHEDULES = {"full": 8, "smoke": 2}
DURATION = {"full": 0.25, "smoke": 0.1}
REJECTIONS = ("throttled", "queue-full", "deadline")


def overload_fleet(lanes: int, factor: float = 2.0):
    """Policies and loads offering ``factor`` x the fleet's capacity.

    Capacity is ``lanes`` x 1M instructions per virtual second.  Gold
    offers a modest SLA-bearing trickle (15% of capacity); bronze offers
    the bulk.  bronze-a's token bucket admits well under what the fleet
    could run for it, so throttling sheds it; bronze-b's bucket is
    generous, so its bounded queue does: both rejection reasons occur.
    """
    capacity = lanes * CLOCK_HZ
    gold_rate = 0.075 * capacity / 3000
    bronze_offer = (factor * capacity - 2 * gold_rate * 3000) / (2 * 5000)
    gold = dict(priority=0, rate=gold_rate * 1.5, burst=8.0, queue_limit=16,
                sla_s=0.05, quota={"max_instructions": 50_000})
    policies = {
        "gold-a": TenantPolicy(**gold),
        "gold-b": TenantPolicy(**gold),
        "bronze-a": TenantPolicy(priority=2, rate=0.2 * capacity / 5000,
                                 burst=16.0, queue_limit=8),
        "bronze-b": TenantPolicy(priority=2, rate=0.6 * capacity / 5000,
                                 burst=16.0, queue_limit=8),
    }
    loads = [
        TenantLoad("gold-a", rate=gold_rate, target_instructions=3000,
                   value=1),
        TenantLoad("gold-b", rate=gold_rate, target_instructions=3000,
                   value=2),
        TenantLoad("bronze-a", rate=bronze_offer, target_instructions=5000,
                   value=3),
        TenantLoad("bronze-b", rate=bronze_offer, target_instructions=5000,
                   value=4),
    ]
    return policies, loads


def serve_once(state, seed: int, spans):
    """One gateway life: construct, offer the schedule, run, drain."""
    duration = state["duration"]
    arrivals = build_arrivals(state["loads"], duration, seed)
    images = state["images"]
    with Stopwatch() as watch:
        gateway = Gateway(state["policies"], lanes=LANES,
                          checkpoint_interval=CHECKPOINT_INTERVAL, seed=seed)
        with spans.span("serve.offer"):
            for t, load in arrivals:
                gateway.offer(load.tenant,
                              images[(load.value, load.target_instructions)],
                              at=t)
        with spans.span("serve.run"):
            gateway.run(duration)
        with spans.span("serve.drain"):
            results = gateway.drain()
    return gateway, results, watch


def check_results(state, gateway, results) -> int:
    """Failed operations of one gateway life (designed shedding is not)."""
    marker = {load.tenant: load.value for load in state["loads"]}
    failed = 0
    for r in results:
        if r.status == "ok":
            good = r.exit_code == marker[r.tenant]
        else:
            good = r.status == "rejected" and r.reason in REJECTIONS
        if not good:
            failed += 1
    reasons = {r.reason for r in results if r.status == "rejected"}
    bound = sum(p.queue_limit for p in state["policies"].values())
    if gateway.peak_queued > bound:
        failed += 1
    failed += len({"throttled", "queue-full"} - reasons)
    return failed


class ServeOverload(Workload):
    NAME = "serve-overload"
    WHY = ("Gateway with 2 lanes at 2x offered capacity (2 gold + 2 bronze "
           "tenants): admission, policy, warm clone and per-chunk checkpoint "
           "take a larger share of each request here than anywhere else.")
    OP = "one request served with status ok"
    PASSES = 5

    def setup(self, seed, smoke, expected):
        scale = "smoke" if smoke else "full"
        policies, loads = overload_fleet(LANES)
        state = {"policies": policies, "loads": loads, "seed": seed,
                 "images": build_images(loads), "duration": DURATION["smoke"],
                 "schedules": SCHEDULES[scale]}
        serve_once(state, seed, NoSpans())
        state["duration"] = DURATION[scale]
        return state

    def run_pass(self, state, index, spans) -> PassResult:
        sla = {t: p.sla_s for t, p in state["policies"].items()
               if p.sla_s is not None}
        units = []
        gold_ms = []
        missed = offered = served = warm = failed = peak = 0
        instructions = 0
        virtual_s = 0.0
        for k in range(state["schedules"]):
            gateway, results, watch = serve_once(state, state["seed"] + k,
                                                 spans)
            ok = [r for r in results if r.status == "ok"]
            units.append(watch.unit(f"gateway/{k}", len(ok)))
            failed += check_results(state, gateway, results)
            for r in results:
                if r.tenant not in sla:
                    continue
                # A refused gold request misses any limit: it counts as
                # never answered within the life, not as absent.
                done = r.status == "ok"
                gold_ms.append((r.latency_s if done else state["duration"])
                               * 1e3)
                missed += not done or r.latency_s > sla[r.tenant]
            offered += len(results)
            served += len(ok)
            warm += sum(1 for r in ok if r.warm)
            peak = max(peak, gateway.peak_queued)
            instructions += sum(r.instructions for r in ok)
            virtual_s += max((r.finish_s for r in ok),
                             default=state["duration"])
        facts = {
            "virt_gold_p99_ms": percentile(gold_ms, 99),
            "gold_samples": len(gold_ms),
            "gold_miss_share": missed / len(gold_ms),
            "shed_share": (offered - served) / offered,
            "warm_share": warm / max(1, served),
            "peak_queued": peak,
            "virt_goodput_minstr_per_vs": instructions / virtual_s / 1e6,
        }
        return PassResult(units, attempted=offered, failed=failed,
                          facts=facts)
