"""Verify-once image cache and snapshot warm-spawn pool (DESIGN.md §12).

"Isolation Without Taxation" identifies instantiation cost — parse,
verify, populate pages — as the tax that dominates sandboxing at scale.
Both halves of that tax are one-time per *image*, not per *sandbox*:

* :class:`ImageCache` keys verified :class:`~repro.elf.format.ElfImage`
  objects by content hash, so each distinct binary is parsed and verified
  exactly once per worker however many sandboxes run it;
* :class:`WarmPool` keeps one loaded-but-never-run *template* process per
  image and spawns sandboxes as COW snapshot restores
  (:meth:`~repro.runtime.Runtime.spawn_clone`) — no page population, no
  verification, just region aliasing plus a register rebase.

A warm spawn is observably identical to a cold ``Runtime.spawn`` of the
same ELF (tests/test_cluster.py asserts byte-identical execution).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

from ..core.verifier import Verifier, VerifierPolicy
from ..elf.format import ElfImage, read_elf
from ..runtime.process import Process
from ..runtime.runtime import Runtime

__all__ = ["ImageCache", "WarmPool"]


def image_key(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ImageCache:
    """Content-hash cache of parsed + verified ELF images."""

    def __init__(self, policy: Optional[VerifierPolicy] = None):
        self.policy = policy
        self._images: Dict[str, ElfImage] = {}
        self.hits = 0
        self.misses = 0

    def get(self, data: bytes) -> ElfImage:
        """The verified image for ``data``, verifying on first sight only."""
        key = image_key(data)
        image = self._images.get(key)
        if image is None:
            image = read_elf(bytes(data))
            Verifier(self.policy).verify_elf(image).raise_if_failed()
            self._images[key] = image
            self.misses += 1
        else:
            self.hits += 1
        return image

    def __len__(self) -> int:
        return len(self._images)


class WarmPool:
    """Per-runtime template processes enabling snapshot warm-spawn."""

    def __init__(self, runtime: Runtime,
                 cache: Optional[ImageCache] = None):
        self.runtime = runtime
        self.cache = cache if cache is not None else ImageCache()
        self._templates: Dict[str, Process] = {}

    def has_template(self, data: bytes) -> bool:
        return image_key(data) in self._templates

    def template_slots(self) -> set:
        """Slot bases the pool owns (exempt from per-job reclamation)."""
        return {t.layout.base for t in self._templates.values()}

    def spawn(self, data: bytes) -> Process:
        """Spawn a sandbox for ``data``, warm when a template exists.

        The first spawn of an image pays parse + verify + load once to
        build the template; every spawn (including the first) is then a
        clone, so the per-job process state is identical either way.
        """
        key = image_key(data)
        template = self._templates.get(key)
        if template is None:
            image = self.cache.get(data)  # verified here, once
            template = self.runtime.load_template(image, verify=False)
            self._templates[key] = template
        return self.runtime.spawn_clone(template)
