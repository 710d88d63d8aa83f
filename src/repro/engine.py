"""Unified engine configuration: one frozen value selects the engine.

:class:`~repro.emulator.machine.Machine`,
:class:`~repro.runtime.runtime.Runtime`,
:class:`~repro.cluster.cluster.Cluster`, the serving gateway and the CLI
take ``engine=`` as an :class:`EngineConfig` or ``None`` (the default
config); anything else is a :class:`~repro.errors.ConfigError` at
construction.  Two fields:

* ``kind`` — ``"superblock"`` (translated blocks, the default) or
  ``"stepping"`` (the per-instruction reference interpreter);
* ``speculation`` — ``None`` (the default) or a
  :class:`SpeculationConfig` turning on the bounded-speculation emulator
  mode (DESIGN.md §16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError

__all__ = ["EngineConfig", "SpeculationConfig", "ENGINE_KINDS"]

ENGINE_KINDS = ("superblock", "stepping")


@dataclass(frozen=True)
class SpeculationConfig:
    """Tuning for the bounded-speculation emulator mode (DESIGN.md §16).

    * ``window`` — maximum transient instructions executed past an
      unresolved mispredicted branch before a forced squash;
    * ``seed`` — seeds the pattern-history table and return-stack
      contents so speculative runs are reproducible.
    """

    window: int = 24
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.window, int) or self.window < 1:
            raise ConfigError(
                f"speculation window must be a positive int, got "
                f"{self.window!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(
                f"speculation seed must be a non-negative int, got "
                f"{self.seed!r}")


@dataclass(frozen=True)
class EngineConfig:
    """Validated, immutable engine selection (see module docs)."""

    kind: str = "superblock"
    speculation: Optional[SpeculationConfig] = None

    def __post_init__(self):
        if self.kind not in ENGINE_KINDS:
            raise ConfigError(
                f"unknown engine {self.kind!r} (expected one of "
                f"{', '.join(ENGINE_KINDS)})")
        if not isinstance(self.speculation, (SpeculationConfig, type(None))):
            raise ConfigError(
                f"speculation must be a SpeculationConfig or None; got "
                f"{self.speculation!r}")


def engine_config(engine: Optional[EngineConfig]) -> EngineConfig:
    """``engine``, or the default config for ``None``; a
    :class:`ConfigError` for anything else."""
    if engine is None:
        return EngineConfig()
    if not isinstance(engine, EngineConfig):
        raise ConfigError(f"engine must be an EngineConfig or None; got "
                          f"{engine!r}")
    return engine
