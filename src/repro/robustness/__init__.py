"""Sandbox supervision, resource quotas, and fault injection (§5.3).

The paper's multi-tenant claim is that one host process safely runs many
mutually untrusted sandboxes.  This package makes that claim *testable*:

* :mod:`supervisor` keeps the host loop alive across sandbox faults,
  enforces per-sandbox quotas, and applies restart policies through the
  one restart book the cluster's workers use too;
* :mod:`faultinject` deterministically corrupts sandboxes mid-run;
* :mod:`audit` checks that every fault stayed inside the victim's slot.
"""

from .audit import ContainmentAuditor
from .faultinject import FaultInjector, PlannedFault
from .supervisor import (
    Incident,
    NEVER,
    ON_FAILURE,
    RestartBook,
    RestartPolicy,
    Supervisor,
)

__all__ = [
    "ContainmentAuditor",
    "FaultInjector",
    "PlannedFault",
    "Incident",
    "NEVER",
    "ON_FAILURE",
    "RestartBook",
    "RestartPolicy",
    "Supervisor",
]
