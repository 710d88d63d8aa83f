"""Unified engine configuration: one object selects and tunes the engine.

Every surface that used to take an ad-hoc ``engine="superblock"`` string
kwarg (:class:`~repro.runtime.runtime.Runtime`,
:class:`~repro.cluster.cluster.Cluster`, the serving gateway and its
tenant policies, the CLI) now accepts a single frozen
:class:`EngineConfig` value carrying the engine kind plus the superblock
engine's tuning knobs:

* ``kind`` — ``"superblock"`` (translated blocks, the default) or
  ``"stepping"`` (the per-instruction reference interpreter);
* ``fuel`` — scheduler timeslice override in instructions (``None``
  keeps the owning surface's default);
* ``block_cache_cap`` — maximum number of cached superblocks before the
  translation cache is flushed (``None`` = unbounded);
* ``batch_abi`` — whether :data:`RuntimeCall.BATCH` is serviced
  (disabled, it returns ``-ENOSYS`` to the guest).

PR 10 adds ``speculation`` — an optional nested
:class:`SpeculationConfig` that turns on the bounded-speculation
emulator mode (DESIGN.md §16).  ``None`` (the default) keeps both
engines bit-identical to their pre-speculation behaviour.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
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
      contents so speculative runs are reproducible;
    * ``pht_entries`` — pattern-history-table size (power of two);
    * ``rsb_depth`` — return-stack-buffer depth.
    """

    window: int = 24
    seed: int = 0
    pht_entries: int = 256
    rsb_depth: int = 8

    def __post_init__(self):
        if not isinstance(self.window, int) or self.window < 1:
            raise ConfigError(
                f"speculation window must be a positive int, got "
                f"{self.window!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(
                f"speculation seed must be a non-negative int, got "
                f"{self.seed!r}")
        if (not isinstance(self.pht_entries, int) or self.pht_entries < 1
                or self.pht_entries & (self.pht_entries - 1)):
            raise ConfigError(
                f"pht_entries must be a power of two, got "
                f"{self.pht_entries!r}")
        if not isinstance(self.rsb_depth, int) or self.rsb_depth < 1:
            raise ConfigError(
                f"rsb_depth must be a positive int, got {self.rsb_depth!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SpeculationConfig":
        if not isinstance(data, dict):
            raise ConfigError(
                f"speculation config dict expected, got {data!r}")
        unknown = set(data) - {"window", "seed", "pht_entries", "rsb_depth"}
        if unknown:
            raise ConfigError(
                f"unknown speculation config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class EngineConfig:
    """Validated, immutable engine selection + tuning (see module docs)."""

    kind: str = "superblock"
    fuel: Optional[int] = None
    block_cache_cap: Optional[int] = None
    batch_abi: bool = True
    speculation: Optional[SpeculationConfig] = None

    def __post_init__(self):
        if self.kind not in ENGINE_KINDS:
            raise ConfigError(
                f"unknown engine {self.kind!r} (expected one of "
                f"{', '.join(ENGINE_KINDS)})")
        if self.fuel is not None and (
                not isinstance(self.fuel, int) or self.fuel < 1):
            raise ConfigError(f"fuel must be a positive int, got {self.fuel!r}")
        if self.block_cache_cap is not None and (
                not isinstance(self.block_cache_cap, int)
                or self.block_cache_cap < 1):
            raise ConfigError(
                f"block_cache_cap must be a positive int, got "
                f"{self.block_cache_cap!r}")
        spec = self.speculation
        if spec is not None and not isinstance(spec, SpeculationConfig):
            if spec is True:
                spec = SpeculationConfig()
            elif isinstance(spec, dict):
                spec = SpeculationConfig.from_dict(spec)
            else:
                raise ConfigError(
                    f"speculation must be a SpeculationConfig, a config "
                    f"dict, True, or None; got {spec!r}")
            object.__setattr__(self, "speculation", spec)

    @classmethod
    def coerce(cls, value,
               default: Optional["EngineConfig"] = None) -> "EngineConfig":
        """Accept an :class:`EngineConfig`, a dict, or ``None``.

        ``None`` resolves to ``default`` (or a default-constructed
        config).  A dict goes through :meth:`from_dict` — the form policy
        files and cluster job specs carry.
        """
        if value is None:
            return default if default is not None else cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise ConfigError(
            f"engine must be an EngineConfig or a config dict; "
            f"got {value!r}")

    def resolve_timeslice(self, default: int) -> int:
        """The scheduler timeslice this config implies."""
        return self.fuel if self.fuel is not None else default

    # -- serialization (cluster config dicts, checkpoint round-trips) -------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"engine config dict expected, got {data!r}")
        unknown = set(data) - {
            "kind", "fuel", "block_cache_cap", "batch_abi", "speculation"}
        if unknown:
            raise ConfigError(
                f"unknown engine config keys: {sorted(unknown)}")
        return cls(**data)
