"""repro.serve — always-on serving gateway over the cluster runtime.

The batch cluster answers "run these N jobs"; this package answers
"stay up and keep answering": admission control with bounded queues and
typed shedding, priority routing with per-tenant token buckets and
deadlines, token-guarded policy hot-reload applied to running guests,
and Prometheus-ready metrics (DESIGN.md §12).  Each lane runs a cluster
:class:`~repro.cluster.Executor` in process; crashes, restarts,
migration and resizing belong to :class:`repro.cluster.Cluster`.
"""

from ..errors import Overloaded, ServeError, StalePolicy
from .gateway import (
    CLOCK_HZ,
    LATENCY_BUCKETS_S,
    Gateway,
    ServeResult,
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
    "ServeResult",
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
