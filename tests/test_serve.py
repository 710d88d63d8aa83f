"""repro.serve: admission control, hot-reload edge cases, determinism."""

import subprocess
import sys
from collections import Counter

import pytest

from benchmarks.ledger.workloads.serve_overload import overload_fleet
from repro.cluster import Cluster
from repro.elf.format import write_elf
from repro.errors import Overloaded, ServeError, StalePolicy
from repro.serve import (
    CLOCK_HZ,
    Gateway,
    PolicyStore,
    TenantLoad,
    TenantPolicy,
    load_config,
    percentile,
    run_loadgen,
)
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import busy_program


@pytest.fixture(scope="module")
def images():
    """Compile each busy image once for the whole module."""
    def build(value, target):
        return write_elf(compile_lfi(busy_program(value, target)).elf)
    return {
        "short": build(7, 3000),      # ~3 ms of virtual time
        "long": build(9, 40_000),     # ~40 ms
        "medium": build(5, 20_000),   # ~20 ms
    }


def counter(gateway, name):
    return gateway.hub.host_counter(name).value


# -- policy store ------------------------------------------------------------


class TestPolicyStore:
    def test_monotonic_token_protocol(self):
        store = PolicyStore()
        store.add("a", TenantPolicy())
        assert store.version("a") == 0
        assert store.reload("a", TenantPolicy(priority=2), token=5) == 5
        assert store.version("a") == 5
        assert store.get("a").priority == 2

    def test_stale_token_rejected(self):
        store = PolicyStore()
        store.add("a", TenantPolicy())
        store.reload("a", TenantPolicy(), token=3)
        with pytest.raises(StalePolicy, match="token 3 <= current"):
            store.reload("a", TenantPolicy(), token=3)
        with pytest.raises(StalePolicy):
            store.reload("a", TenantPolicy(), token=1)
        assert store.version("a") == 3  # refused reloads change nothing

    def test_unknown_tenant_and_duplicates(self):
        store = PolicyStore()
        store.add("a", TenantPolicy())
        with pytest.raises(ServeError):
            store.add("a", TenantPolicy())
        with pytest.raises(ServeError):
            store.reload("ghost", TenantPolicy(), token=1)

    def test_policy_validation(self):
        with pytest.raises(ServeError):
            TenantPolicy(rate=0)
        with pytest.raises(ServeError):
            TenantPolicy(priority=-1)
        with pytest.raises(ServeError):
            TenantPolicy(queue_limit=0)
        with pytest.raises(ServeError):
            TenantPolicy(quota={"max_threads": 4})

    @pytest.mark.parametrize("key", ["priority", "rate", "burst",
                                     "queue_limit", "deadline_s", "sla_s"])
    def test_policy_rejects_wrong_typed_fields(self, key):
        for bad in ("x", True, float("nan"), float("inf")):
            with pytest.raises(ServeError, match=key):
                TenantPolicy(**{key: bad})


# -- admission ---------------------------------------------------------------


class TestAdmission:
    def test_unknown_tenant_sheds_typed(self, images):
        gateway = Gateway({"a": TenantPolicy()}, lanes=1)
        with pytest.raises(Overloaded, match="unknown-tenant"):
            gateway.offer("ghost", images["short"])

    def test_token_bucket_throttles(self, images):
        gateway = Gateway({"a": TenantPolicy(rate=10.0, burst=1.0)},
                          lanes=1)
        gateway.offer("a", images["short"])  # consumes the only token
        with pytest.raises(Overloaded, match="throttled") as err:
            gateway.offer("a", images["short"])
        assert err.value.tenant == "a"
        assert counter(gateway, "serve.rejected[reason=throttled,tenant=a]") \
            == 1

    def test_bucket_refills_in_virtual_time(self, images):
        gateway = Gateway({"a": TenantPolicy(rate=10.0, burst=1.0)},
                          lanes=1)
        gateway.offer("a", images["short"], at=0.0)
        gateway.offer("a", images["short"], at=0.01)   # bucket still empty
        gateway.offer("a", images["short"], at=0.25)   # refilled
        results = gateway.drain()
        by_status = sorted((r.status, r.reason) for r in results)
        assert by_status == [("ok", ""), ("ok", ""),
                             ("rejected", "throttled")]

    def test_queue_full_sheds(self, images):
        gateway = Gateway(
            {"a": TenantPolicy(rate=1000.0, burst=100.0, queue_limit=2)},
            lanes=1)
        gateway.offer("a", images["long"])      # occupies the lane
        gateway.offer("a", images["short"])     # queued (1/2)
        gateway.offer("a", images["short"])     # queued (2/2)
        with pytest.raises(Overloaded, match="queue-full"):
            gateway.offer("a", images["short"])
        results = gateway.drain()
        assert sum(1 for r in results if r.status == "ok") == 3
        assert gateway.peak_queued == 2

    def test_priority_classes_dispatch_first(self, images):
        gateway = Gateway(
            {"gold": TenantPolicy(priority=0, rate=100.0, burst=4.0),
             "bronze": TenantPolicy(priority=2, rate=100.0, burst=4.0)},
            lanes=1)
        gateway.offer("bronze", images["long"], at=0.0)   # running
        gateway.offer("bronze", images["short"], at=0.001)
        gateway.offer("gold", images["short"], at=0.002)  # arrives later
        gateway.drain()
        starts = [line for line in gateway.log if " start " in line]
        assert "tenant=bronze" in starts[0]
        assert "tenant=gold" in starts[1]     # jumped the bronze waiter
        assert "tenant=bronze" in starts[2]

    def test_deadline_sheds_at_dispatch_only(self, images):
        gateway = Gateway(
            {"a": TenantPolicy(rate=100.0, burst=4.0, deadline_s=0.01)},
            lanes=1)
        gateway.offer("a", images["long"], at=0.0)     # runs ~40 ms
        late = gateway.offer("a", images["short"], at=0.001)
        results = {r.request_id: r for r in gateway.drain()}
        # The first request started before its deadline expired, so it
        # completes; the waiter expired before a lane freed up.
        assert results[late - 1].status == "ok"
        assert results[late].status == "rejected"
        assert results[late].reason == "deadline"

    def test_warm_spawn_across_requests(self, images):
        gateway = Gateway({"a": TenantPolicy(rate=100.0, burst=8.0)},
                          lanes=1)
        gateway.offer("a", images["short"], at=0.0)
        gateway.offer("a", images["short"], at=0.1)
        results = gateway.drain()
        assert [r.warm for r in results] == [False, True]
        assert counter(gateway, "serve.warm_hits") == 1


# -- policy hot-reload edge cases --------------------------------------------


class TestHotReload:
    def test_reload_applies_without_restart(self, images):
        policies = {"a": TenantPolicy(rate=100.0,
                                      quota={"max_instructions": 80_000})}
        gateway = Gateway(policies, lanes=1, checkpoint_interval=2000)
        gateway.offer("a", images["long"], at=0.0)
        gateway.reload("a", TenantPolicy(rate=100.0,
                                         quota={"max_instructions": 60_000}),
                       token=1, at=0.011)
        result = gateway.drain()[0]
        applied = [line for line in gateway.log if " apply-policy " in line]
        assert len(applied) == 1
        assert f"pid={result.pid}" in applied[0]
        assert f"slot={hex(result.slot)}" in applied[0]
        assert result.status == "ok" and result.exit_code == 9
        assert result.attempts == 1   # never restarted

    def test_stale_scheduled_reload_logged_not_raised(self, images):
        gateway = Gateway({"a": TenantPolicy()}, lanes=1)
        gateway.reload("a", TenantPolicy(), token=2, at=0.01)
        gateway.reload("a", TenantPolicy(), token=2, at=0.02)  # stale dup
        gateway.run(0.1)
        assert counter(gateway, "serve.reloads_stale[tenant=a]") == 1
        assert any(" reload-stale " in line for line in gateway.log)
        assert gateway.store.version("a") == 2

    def test_lane_timeslice_is_the_checkpoint_interval(self):
        """A reload applies at a chunk boundary, and every chunk boundary
        is a scheduler slice end: the lane timeslice is the interval."""
        for interval in (2000, 500, 1):
            gateway = Gateway({"a": TenantPolicy()}, lanes=2,
                              checkpoint_interval=interval)
            assert gateway.timeslice == interval
            assert [lane.runtime.scheduler.timeslice
                    for lane in gateway.lanes.values()] == [interval] * 2

    def test_stale_immediate_reload_raises(self):
        gateway = Gateway({"a": TenantPolicy()}, lanes=1)
        gateway.reload("a", TenantPolicy(), token=1)
        with pytest.raises(StalePolicy):
            gateway.reload("a", TenantPolicy(), token=1)

    def test_quota_shrink_trips_on_next_check_not_retroactively(self,
                                                                images):
        """Shrinking below current usage must not rewind the guest: the
        chunks already executed stand, and the trip lands at the first
        quota check *after* the reload boundary."""
        policies = {"a": TenantPolicy(rate=100.0,
                                      quota={"max_instructions": 80_000})}
        gateway = Gateway(policies, lanes=1, checkpoint_interval=2000)
        gateway.offer("a", images["medium"], at=0.0)   # ~20k instructions
        reload_at = 0.005                              # ~5k already run
        gateway.reload("a", TenantPolicy(rate=100.0,
                                         quota={"max_instructions": 1000}),
                       token=1, at=reload_at)
        result = gateway.drain()[0]
        assert result.exit_code == 128 + 9
        assert "quota" in result.faults
        # Not retroactive: the guest kept everything it had executed
        # before the shrink landed, far beyond the new 1k budget.
        assert result.instructions > 4000
        assert result.finish_s > reload_at


# -- determinism -------------------------------------------------------------


def _replay(seed):
    policies = {
        "gold": TenantPolicy(priority=0, rate=60.0, burst=8.0,
                             queue_limit=8, sla_s=0.05),
        "bronze": TenantPolicy(priority=2, rate=20.0, burst=4.0,
                               queue_limit=4),
    }
    gateway = Gateway(policies, lanes=2, checkpoint_interval=2000,
                      seed=seed)
    loads = [TenantLoad("gold", rate=40.0, target_instructions=3000,
                        value=1),
             TenantLoad("bronze", rate=80.0, target_instructions=4000,
                        value=2)]
    results = run_loadgen(gateway, loads, 0.25, seed=seed)
    return gateway, results


class TestDeterminism:
    def test_seeded_admission_schedule_replays_byte_identically(self):
        g1, r1 = _replay(seed=5)
        g2, r2 = _replay(seed=5)
        assert g1.log == g2.log
        assert [r.deterministic_key() for r in r1] \
            == [r.deterministic_key() for r in r2]
        assert g1.report() == g2.report()

    def test_different_seed_differs(self):
        g1, _ = _replay(seed=5)
        g2, _ = _replay(seed=6)
        assert g1.log != g2.log

    def test_a_serving_life_takes_no_checkpoint(self, monkeypatch):
        """Nothing in the gateway resumes a request, so a whole
        ``run_loadgen`` life, chunk boundaries and all, captures no
        checkpoint."""
        import repro.checkpoint.capture as capture

        real, calls = capture.capture_job, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(capture, "capture_job", counted)
        _, results = _replay(seed=5)
        ok = [r for r in results if r.status == "ok"]
        assert ok and all(r.instructions > 2000 for r in ok)  # >= 1 chunk
        assert calls == []

    def test_chaos_fault_injection_is_deterministic(self, images):
        def run():
            gateway = Gateway({"a": TenantPolicy(rate=100.0, burst=8.0)},
                              lanes=1, checkpoint_interval=2000,
                              chaos_faults={0: 2}, seed=9)
            gateway.offer("a", images["medium"], at=0.0)
            return [r.deterministic_key() for r in gateway.drain()]
        assert run() == run()


# -- overload ----------------------------------------------------------------


def _overload(duration, seed):
    """The ledger's serve-overload fleet: 2x capacity offered to 2 lanes."""
    policies, loads = overload_fleet(lanes=2)
    gateway = Gateway(policies, lanes=2, checkpoint_interval=2000, seed=seed)
    return policies, gateway, run_loadgen(gateway, loads, duration, seed=seed)


class TestOverload:
    def test_sheds_bronze_keeps_gold_sla(self):
        """Every shed request carries a typed reason (both bucket and
        queue shedding occur), gold keeps its p99 within SLA, and the
        waiting depth never exceeds the sum of the queue limits."""
        policies, gateway, results = _overload(0.25, seed=7)
        reasons = {r.reason for r in results if r.status == "rejected"}
        assert {"throttled", "queue-full"} <= reasons \
            <= {"throttled", "queue-full", "deadline"}
        for tenant, policy in policies.items():
            latencies = [r.latency_s for r in results
                         if r.tenant == tenant and r.status == "ok"]
            if policy.sla_s is not None:
                assert latencies and percentile(latencies, 99) \
                    <= policy.sla_s, tenant
        assert gateway.peak_queued \
            <= sum(p.queue_limit for p in policies.values())

    @pytest.mark.slow
    def test_goodput_keeps_up_with_batch_drain(self):
        """Admission does not tax execution: instructions completed per
        virtual second stay >= 90% of the batch cluster's drain at the
        same worker count (virtual makespan: the largest per-worker
        cycle total, cycles tied to instret)."""
        _, _, results = _overload(0.5, seed=11)
        ok = [r for r in results if r.status == "ok"]
        goodput = sum(r.instructions for r in ok) / max(r.finish_s for r in ok)
        program = write_elf(compile_lfi(busy_program(1, 5000)).elf)
        with Cluster(workers=2) as cluster:
            for _ in range(40):
                cluster.submit(program)
            drained = cluster.drain()
        makespan = Counter()
        for r in drained:
            makespan[r.diag["worker"]] += int(r.diag["cycles"])
        instructions = sum(int(r.diag["instructions"]) for r in drained)
        drain = instructions * CLOCK_HZ / max(makespan.values())
        assert goodput >= 0.9 * drain


# -- config loading ----------------------------------------------------------


class TestLoadConfig:
    def test_full_shape(self):
        kwargs, policies, loads, duration = load_config({
            "lanes": 3, "duration_s": 0.5, "checkpoint_interval": 1000,
            "tenants": {"t": {"priority": 1, "rate": 30, "sla_ms": 100,
                              "quota": {"max_instructions": 10_000},
                              "load": {"rate": 20, "instructions": 2500,
                                       "value": 3}}}})
        assert kwargs == {"lanes": 3, "checkpoint_interval": 1000}
        assert duration == 0.5
        assert policies["t"].sla_s == 0.1
        assert loads[0].target_instructions == 2500

    def test_rejects_unknown_keys(self):
        with pytest.raises(ServeError, match="unknown config keys"):
            load_config({"tenants": {"t": {}}, "lane": 2})
        with pytest.raises(ServeError, match="unknown keys"):
            load_config({"tenants": {"t": {"rte": 10}}})
        with pytest.raises(ServeError, match="JSON object"):
            load_config(["not", "a", "dict"])
        with pytest.raises(ServeError, match="tenants"):
            load_config({"lanes": 2})

    @pytest.mark.parametrize("bad", ["x", True, float("nan"), float("inf")],
                             ids=["str", "bool", "nan", "inf"])
    @pytest.mark.parametrize("where,key", [
        ("top", "lanes"), ("top", "checkpoint_interval"),
        ("top", "duration_s"), ("tenant", "priority"), ("tenant", "rate"),
        ("tenant", "burst"), ("tenant", "queue_limit"),
        ("tenant", "deadline_ms"), ("tenant", "sla_ms"),
        ("load", "rate"), ("load", "instructions"), ("load", "value"),
        ("quota", "max_instructions"), ("quota", "max_fds"),
        ("quota", "max_mapped_pages"),
    ])
    def test_rejects_wrong_typed_numbers(self, where, key, bad):
        tenant = {"load": {"rate": 10}, "quota": {}}
        config = {"tenants": {"t": tenant}}
        tables = {"top": config, "tenant": tenant, "load": tenant["load"],
                  "quota": tenant["quota"]}
        tables[where][key] = bad
        with pytest.raises(ServeError, match=key):
            load_config(config)

    @pytest.mark.parametrize("key", ["quota", "load"])
    def test_rejects_a_non_table(self, key):
        with pytest.raises(ServeError, match=f"{key} must be a table"):
            load_config({"tenants": {"t": {key: 5}}})


# -- import cost -------------------------------------------------------------


def test_import_does_not_load_asyncio():
    result = subprocess.run(
        [sys.executable, "-c",
         "import repro.serve, sys; print('asyncio' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
