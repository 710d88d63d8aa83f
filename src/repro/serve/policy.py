"""Per-tenant serving policy and the versioned policy store.

A :class:`TenantPolicy` is the whole admission contract for one tenant:
its priority class, token-bucket rate limit, bounded queue depth, and
the :class:`~repro.runtime.runtime.ResourceQuota` budget its guests run
under.  Policies are immutable values; changing one goes through
:meth:`PolicyStore.reload`, which is guarded by a **monotonic version
token** — a reload whose token is not strictly greater than the
tenant's current version is rejected with
:class:`~repro.errors.StalePolicy`.  That makes concurrent control
planes safe by construction: whichever reload carries the higher token
wins, and a delayed duplicate of an older reload is refused
deterministically rather than silently reverting the newer policy.

The store only records *what* the policy is; applying it to running
guests (at the next chunk boundary, without restarting them) is the
gateway's job (DESIGN.md §12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..errors import ServeError, StalePolicy

__all__ = ["TenantPolicy", "PolicyStore"]


def check_number(key: str, value, integer: bool = False) -> None:
    """Raise :class:`ServeError` naming ``key`` unless ``value`` is a
    finite number (an ``int`` when ``integer``); a bool is not one."""
    if (isinstance(value, bool)
            or not isinstance(value, int if integer else (int, float))
            or (isinstance(value, float) and not math.isfinite(value))):
        kind = "an integer" if integer else "a finite number"
        raise ServeError(f"{key} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class TenantPolicy:
    """Immutable admission + budget contract for one tenant.

    ``priority`` is the class index — **lower runs first** (0 = gold).
    ``rate``/``burst`` parameterize the token bucket in requests per
    virtual second; ``queue_limit`` bounds how many admitted requests may
    wait (beyond that the gateway sheds with ``queue-full``).
    ``deadline_s`` sheds a request still waiting that long after
    arrival; ``sla_s`` is the latency target reported against (never
    enforced).  ``quota`` holds
    :class:`~repro.runtime.runtime.ResourceQuota` kwargs applied to the
    tenant's guests (None = unbudgeted).  The engine is the gateway's:
    every lane runs the same one.
    """

    priority: int = 1
    rate: float = 50.0
    burst: float = 8.0
    queue_limit: int = 8
    deadline_s: Optional[float] = None
    sla_s: Optional[float] = None
    quota: Optional[dict] = None

    def __post_init__(self):
        check_number("priority", self.priority, integer=True)
        check_number("queue_limit", self.queue_limit, integer=True)
        for key in ("rate", "burst", "deadline_s", "sla_s"):
            value = getattr(self, key)
            if value is not None:
                check_number(key, value)
        if self.priority < 0:
            raise ServeError(f"priority must be >= 0, got {self.priority}")
        if self.rate <= 0:
            raise ServeError(f"rate must be > 0, got {self.rate}")
        if self.burst < 1:
            raise ServeError(f"burst must be >= 1, got {self.burst}")
        if self.queue_limit < 1:
            raise ServeError(
                f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ServeError(
                f"deadline_s must be > 0, got {self.deadline_s}")
        if self.quota is not None:
            if not isinstance(self.quota, dict):
                raise ServeError(
                    f"quota must be a table, got {self.quota!r}")
            allowed = {"max_mapped_pages", "max_fds", "max_instructions"}
            unknown = set(self.quota) - allowed
            if unknown:
                raise ServeError(
                    f"unknown quota keys {sorted(unknown)}; "
                    f"allowed: {sorted(allowed)}")
            for key, value in self.quota.items():
                if value is not None:
                    check_number(f"quota.{key}", value, integer=True)


@dataclass
class _TenantEntry:
    policy: TenantPolicy
    version: int = 0


@dataclass
class PolicyStore:
    """Versioned tenant -> policy map with monotonic-token reloads."""

    _entries: Dict[str, _TenantEntry] = field(default_factory=dict)

    def add(self, tenant: str, policy: TenantPolicy) -> None:
        """Register a new tenant at version 0 (initial deploy)."""
        if tenant in self._entries:
            raise ServeError(f"tenant {tenant!r} already registered")
        self._entries[tenant] = _TenantEntry(policy)

    def get(self, tenant: str) -> Optional[TenantPolicy]:
        entry = self._entries.get(tenant)
        return entry.policy if entry is not None else None

    def version(self, tenant: str) -> int:
        return self._entries[tenant].version

    def tenants(self) -> Tuple[str, ...]:
        return tuple(sorted(self._entries))

    def reload(self, tenant: str, policy: TenantPolicy, token: int) -> int:
        """Replace ``tenant``'s policy iff ``token`` advances its version.

        Returns the new version (== ``token``).  Raises
        :class:`StalePolicy` when ``token <= current`` — the caller's
        view of the world predates a reload that already won.
        """
        entry = self._entries.get(tenant)
        if entry is None:
            raise ServeError(f"unknown tenant {tenant!r}")
        if token <= entry.version:
            raise StalePolicy(tenant, token, entry.version)
        entry.policy = policy
        entry.version = token
        return token
