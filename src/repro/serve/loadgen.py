"""Seeded open-loop load generation against a :class:`Gateway`.

Open-loop means arrivals are drawn from the offered-traffic process —
per-tenant Poisson streams at fixed rates — *independently* of how the
gateway is coping, which is what exposes overload behaviour: a closed
loop would politely slow its offers down exactly when we want to watch
the gateway shed.  All randomness is hash-derived from one seed per
tenant, so the merged arrival schedule (and therefore the whole serving
run) is byte-identical across invocations.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..cluster.jobs import JobResult
from ..elf.format import write_elf
from ..errors import ServeError
from ..toolchain import compile_lfi
from ..workloads.rtlib import busy_program
from .gateway import Gateway
from .policy import TenantPolicy, check_number

__all__ = ["TenantLoad", "build_arrivals", "build_images", "run_loadgen",
           "percentile", "render_report", "demo_policies", "demo_loads",
           "load_config"]


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's offered-traffic process."""

    tenant: str
    rate: float                    # offered requests / virtual second
    target_instructions: int = 4000
    value: int = 0                 # busy-program exit code (id marker)

    def __post_init__(self):
        if self.rate <= 0:
            raise ServeError(f"load rate must be > 0, got {self.rate}")
        if self.target_instructions < 100:
            raise ServeError("target_instructions must be >= 100")


def _tenant_seed(seed: int, tenant: str) -> int:
    digest = hashlib.sha256(f"{seed}:{tenant}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def build_arrivals(loads: Iterable[TenantLoad], duration: float,
                   seed: int) -> List[Tuple[float, TenantLoad]]:
    """Merged per-tenant Poisson arrival schedule over ``[0, duration)``."""
    merged: List[Tuple[float, str, TenantLoad]] = []
    for load in loads:
        rng = random.Random(_tenant_seed(seed, load.tenant))
        t = rng.expovariate(load.rate)
        while t < duration:
            merged.append((t, load.tenant, load))
            t += rng.expovariate(load.rate)
    merged.sort(key=lambda item: (item[0], item[1]))
    return [(t, load) for t, _tenant, load in merged]


def build_images(loads: Iterable[TenantLoad]) -> Dict[Tuple[int, int],
                                                      bytes]:
    """Compile each distinct (value, target) busy image exactly once."""
    images: Dict[Tuple[int, int], bytes] = {}
    for load in loads:
        key = (load.value, load.target_instructions)
        if key not in images:
            images[key] = write_elf(compile_lfi(
                busy_program(load.value, load.target_instructions)).elf)
    return images


def run_loadgen(gateway: Gateway, loads: List[TenantLoad],
                duration: float, seed: int) -> List[JobResult]:
    """Offer the seeded schedule, run the window, drain, return results."""
    images = build_images(loads)
    for t, load in build_arrivals(loads, duration, seed):
        gateway.offer(load.tenant,
                      images[(load.value, load.target_instructions)],
                      at=t)
    gateway.run(duration)
    return gateway.drain()


def percentile(values: List[float], pct: float) -> float:
    """Exact (nearest-rank) percentile of ``values``; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil
    return ordered[int(rank) - 1]


def render_report(results: List[JobResult],
                  policies: Dict[str, TenantPolicy]) -> str:
    """Deterministic per-tenant serving report (diffable text)."""
    lines = ["tenant prio offered ok rejected p50_s p99_s sla verdict"]
    by_tenant: Dict[str, List[JobResult]] = {}
    for result in results:
        by_tenant.setdefault(result.tenant, []).append(result)
    for tenant in sorted(by_tenant):
        bucket = by_tenant[tenant]
        ok = [r for r in bucket if r.status == "ok"]
        rejected = len(bucket) - len(ok)
        latencies = [r.latency_s for r in ok]
        p50 = percentile(latencies, 50)
        p99 = percentile(latencies, 99)
        policy = policies.get(tenant)
        sla = policy.sla_s if policy is not None else None
        if sla is None:
            verdict = "-"
        else:
            verdict = "ok" if (not ok or p99 <= sla) else "MISS"
        lines.append(
            f"{tenant} {policy.priority if policy else '?'} {len(bucket)} "
            f"{len(ok)} {rejected} {p50:.6f} {p99:.6f} "
            f"{f'{sla:.3f}' if sla is not None else '-'} {verdict}")
    return "\n".join(lines) + "\n"


def demo_policies() -> Dict[str, TenantPolicy]:
    """8 tenants, 3 priority classes; ``bronze-3`` will misbehave."""
    policies = {
        "gold-1": TenantPolicy(priority=0, rate=40.0, burst=8.0,
                               queue_limit=16, sla_s=0.05,
                               quota={"max_instructions": 50_000}),
        "gold-2": TenantPolicy(priority=0, rate=40.0, burst=8.0,
                               queue_limit=16, sla_s=0.05,
                               quota={"max_instructions": 50_000}),
        "silver-1": TenantPolicy(priority=1, rate=30.0, burst=6.0,
                                 queue_limit=12, sla_s=0.15),
        "silver-2": TenantPolicy(priority=1, rate=30.0, burst=6.0,
                                 queue_limit=12, sla_s=0.15),
        "silver-3": TenantPolicy(priority=1, rate=30.0, burst=6.0,
                                 queue_limit=12, sla_s=0.15),
        "bronze-1": TenantPolicy(priority=2, rate=20.0, burst=4.0,
                                 queue_limit=8, deadline_s=0.5),
        "bronze-2": TenantPolicy(priority=2, rate=20.0, burst=4.0,
                                 queue_limit=8, deadline_s=0.5),
        # The misbehaving tenant: its *policy* allows 20 req/s but its
        # *offered* load (demo_loads) runs an order of magnitude hotter,
        # so the token bucket throttles it while the others keep SLA.
        "bronze-3": TenantPolicy(priority=2, rate=20.0, burst=4.0,
                                 queue_limit=8, deadline_s=0.5),
    }
    return policies


def demo_loads() -> List[TenantLoad]:
    return [
        TenantLoad("gold-1", rate=25.0, target_instructions=3000, value=1),
        TenantLoad("gold-2", rate=25.0, target_instructions=3000, value=2),
        TenantLoad("silver-1", rate=20.0, target_instructions=4000,
                   value=3),
        TenantLoad("silver-2", rate=20.0, target_instructions=4000,
                   value=4),
        TenantLoad("silver-3", rate=20.0, target_instructions=4000,
                   value=5),
        TenantLoad("bronze-1", rate=12.0, target_instructions=5000,
                   value=6),
        TenantLoad("bronze-2", rate=12.0, target_instructions=5000,
                   value=7),
        # ~8x its admitted rate: the open loop keeps offering anyway.
        TenantLoad("bronze-3", rate=150.0, target_instructions=5000,
                   value=8),
    ]


_TENANT_KEYS = {"priority", "rate", "burst", "queue_limit", "deadline_ms",
                "sla_ms", "quota", "load"}
_LOAD_KEYS = {"rate", "instructions", "value"}
_TOP_KEYS = {"lanes", "duration_s", "checkpoint_interval", "tenants"}


def load_config(config: dict):
    """Parse a serve config dict into gateway kwargs, policies, loads.

    Shape (times in the config are milliseconds for human ergonomics,
    converted to virtual seconds here)::

        {"lanes": 4, "duration_s": 2.0, "checkpoint_interval": 2000,
         "tenants": {"gold-1": {"priority": 0, "rate": 40, "burst": 8,
                                "queue_limit": 16, "sla_ms": 50,
                                "deadline_ms": 500,
                                "quota": {"max_instructions": 50000},
                                "load": {"rate": 25,
                                         "instructions": 3000,
                                         "value": 1}}}}
    """
    if not isinstance(config, dict):
        raise ServeError("config must be a JSON object")
    unknown = set(config) - _TOP_KEYS
    if unknown:
        raise ServeError(f"unknown config keys {sorted(unknown)}; "
                         f"allowed: {sorted(_TOP_KEYS)}")
    tenants = config.get("tenants")
    if not isinstance(tenants, dict) or not tenants:
        raise ServeError("config needs a non-empty 'tenants' table")
    policies: Dict[str, TenantPolicy] = {}
    loads: List[TenantLoad] = []
    for index, tenant in enumerate(sorted(tenants)):
        spec = tenants[tenant]
        if not isinstance(spec, dict):
            raise ServeError(f"tenant {tenant!r} spec must be a table")
        unknown = set(spec) - _TENANT_KEYS
        if unknown:
            raise ServeError(
                f"tenant {tenant!r}: unknown keys {sorted(unknown)}; "
                f"allowed: {sorted(_TENANT_KEYS)}")
        kwargs = {key: spec[key]
                  for key in ("priority", "rate", "burst", "queue_limit",
                              "quota") if key in spec}
        for key, field_s in (("deadline_ms", "deadline_s"),
                             ("sla_ms", "sla_s")):
            if key in spec:
                check_number(key, spec[key])
                kwargs[field_s] = spec[key] / 1000.0
        policies[tenant] = TenantPolicy(**kwargs)
        load = spec.get("load")
        if load is not None:
            if not isinstance(load, dict):
                raise ServeError(f"tenant {tenant!r} load must be a table")
            unknown = set(load) - _LOAD_KEYS
            if unknown:
                raise ServeError(
                    f"tenant {tenant!r} load: unknown keys "
                    f"{sorted(unknown)}; allowed: {sorted(_LOAD_KEYS)}")
            if "rate" not in load:
                raise ServeError(f"tenant {tenant!r} load needs a rate")
            for key in ("rate", "instructions", "value"):
                if key in load:
                    check_number(f"load.{key}", load[key],
                                 integer=key != "rate")
            loads.append(TenantLoad(
                tenant, rate=load["rate"],
                target_instructions=load.get("instructions", 4000),
                value=load.get("value", index + 1)))
    gateway_kwargs = {"lanes": config.get("lanes", 2)}
    if "checkpoint_interval" in config:
        gateway_kwargs["checkpoint_interval"] = \
            config["checkpoint_interval"]
    for key, value in gateway_kwargs.items():
        check_number(key, value, integer=True)
        if value < 1:
            raise ServeError(f"{key} must be >= 1, got {value}")
    duration = config.get("duration_s", 1.0)
    check_number("duration_s", duration)
    if duration <= 0:
        raise ServeError(f"duration_s must be > 0, got {duration}")
    return gateway_kwargs, policies, loads, float(duration)
