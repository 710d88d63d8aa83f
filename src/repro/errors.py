"""Consolidated exception hierarchy for the repro package.

Every error raised by the package derives from :class:`ReproError`, so
embedders can catch one base class at the sandbox boundary.  Errors that
previously subclassed a builtin (``ValueError``, ``OSError``) keep that
builtin first in their MRO, so existing ``except ValueError`` /
``except OSError`` call sites continue to work.

Import them from :mod:`repro.errors` (or the package roots, which
re-export the common ones), not from the modules that raise them.
"""

from __future__ import annotations

import errno as _errno

__all__ = [
    "ReproError",
    "ConfigError",
    "VerificationError",
    "GuardError",
    "RewriteError",
    "ElfError",
    "LoadError",
    "RuntimeError_",
    "Deadlock",
    "ClusterError",
    "CheckpointError",
    "ServeError",
    "Overloaded",
    "StalePolicy",
    "VfsError",
]


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigError(ValueError, ReproError):
    """An engine or gateway configuration is invalid or conflicting.

    Raised by :class:`repro.engine.EngineConfig` validation and by
    surfaces that refuse a config instead of silently clamping it (the
    gateway's timeslice/checkpoint-interval pinning).
    """


class VerificationError(ReproError):
    """Raised when a binary fails verification and was required to pass."""


class GuardError(ValueError, ReproError):
    """Raised when an access cannot be made safe (malformed input)."""


class RewriteError(ValueError, ReproError):
    """The input assembly cannot be sandboxed."""


class ElfError(ValueError, ReproError):
    """Raised for malformed ELF input."""


class LoadError(ReproError):
    """Raised when an image cannot be loaded into a sandbox slot."""


class RuntimeError_(ReproError):
    """Generic runtime failure."""


class Deadlock(RuntimeError_):
    """All processes are blocked and none can make progress."""


class ClusterError(RuntimeError_):
    """A sharded cluster run cannot complete (worker restarts exhausted)."""


class CheckpointError(RuntimeError_):
    """A checkpoint cannot be taken or restored."""


class ServeError(RuntimeError_):
    """The serving gateway cannot accept or complete a request."""


class Overloaded(ServeError):
    """Typed admission rejection: the gateway shed this request.

    ``reason`` is one of the gateway's rejection reasons
    (``"throttled"``, ``"queue-full"``, ``"deadline"``,
    ``"unknown-tenant"``) so callers can react per cause instead of
    parsing message text.
    """

    def __init__(self, reason: str, tenant: str = "",
                 request_id: int = -1):
        super().__init__(
            f"request rejected ({reason})"
            + (f" for tenant {tenant!r}" if tenant else ""))
        self.reason = reason
        self.tenant = tenant
        self.request_id = request_id


class StalePolicy(ServeError):
    """A policy hot-reload carried a non-monotonic version token."""

    def __init__(self, tenant: str, token: int, current: int):
        super().__init__(
            f"stale policy reload for tenant {tenant!r}: "
            f"token {token} <= current version {current}")
        self.tenant = tenant
        self.token = token
        self.current = current


class VfsError(OSError, ReproError):
    """A filesystem error carrying a Unix errno."""

    def __init__(self, err: int, path: str = ""):
        super().__init__(err, _errno.errorcode.get(err, str(err)), path)
        self.err = err
