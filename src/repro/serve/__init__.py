"""repro.serve — always-on serving gateway over the cluster's dispatcher.

The batch cluster answers "run these N jobs"; this package answers
"stay up and keep answering": admission control with bounded queues,
per-tenant token buckets and typed shedding, token-guarded policy
hot-reload applied to running guests, and Prometheus-ready metrics
(DESIGN.md §12).  The :class:`Gateway` is the cluster's dispatcher over
in-process :class:`~repro.cluster.Executor` lanes; crashes, restarts,
migration and resizing belong to :class:`repro.cluster.Cluster`.
"""

from ..errors import Overloaded, ServeError, StalePolicy
from .gateway import (
    CLOCK_HZ,
    LATENCY_BUCKETS_S,
    Gateway,
)
from .loadgen import (
    TenantLoad,
    build_arrivals,
    demo_loads,
    demo_policies,
    load_config,
    percentile,
    render_report,
    run_loadgen,
)
from .policy import PolicyStore, TenantPolicy

__all__ = [
    "CLOCK_HZ",
    "Gateway",
    "LATENCY_BUCKETS_S",
    "Overloaded",
    "PolicyStore",
    "ServeError",
    "StalePolicy",
    "TenantLoad",
    "TenantPolicy",
    "build_arrivals",
    "demo_loads",
    "demo_policies",
    "load_config",
    "percentile",
    "render_report",
    "run_loadgen",
]
