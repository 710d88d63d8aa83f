"""Containment auditing: prove that faults stay inside the victim (§5.3).

The auditor checks the paper's core isolation claim *under adversity*:

* a write observer on :class:`~repro.memory.pages.PagedMemory` attributes
  every store executed by sandbox code to the sandbox that issued it — a
  store outside the issuer's own 4GiB slot is a containment violation,
  recorded immediately;
* after every injected fault, :meth:`audit_after_fault` walks
  ``PagedMemory.mapped_regions()`` (no mapping may straddle a slot
  boundary) and the saved register state of every live process (the
  sandbox base register x21 and the stack pointer must still point into
  the owner's slot);
* :meth:`slot_digest` fingerprints a slot's memory so tests can assert a
  bystander's pages were untouched while a neighbour was being corrupted.

Host-side writes (loaders, runtime-call result delivery) are exempt: only
stores issued while the machine executes guest code are attributed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List

from ..memory.layout import SANDBOX_SIZE, SandboxLayout
from ..runtime.process import ProcessState
from ..runtime.runtime import Runtime
from ..runtime.table import RUNTIME_REGION_BASE

__all__ = ["Violation", "ContainmentAuditor"]


@dataclass(frozen=True)
class Violation:
    """One detected breach of sandbox containment."""

    kind: str  # "write-escape" | "mapping" | "register"
    pid: int
    detail: str

    def line(self) -> str:
        return f"{self.kind}: pid={self.pid} {self.detail}"


class ContainmentAuditor:
    """Watches a runtime for any effect escaping a sandbox's 4GiB slot."""

    def __init__(self, runtime: Runtime):
        self.runtime = runtime
        self.violations: List[Violation] = []
        self.audits = 0
        runtime.memory.write_observer = self._on_write

    # -- continuous write attribution ---------------------------------------

    def _on_write(self, address: int, size: int) -> None:
        if not self.runtime._in_guest:
            return  # host-side write (runtime-call results, loader)
        proc = self.runtime._current
        if proc is None:
            return
        lo, hi = proc.layout.base, proc.layout.end
        if address < lo or address + size > hi:
            self.violations.append(Violation(
                "write-escape", proc.pid,
                f"store to [{address:#x}, {address + size:#x}) outside "
                f"slot [{lo:#x}, {hi:#x})"))

    # -- post-fault walks ----------------------------------------------------

    def audit_after_fault(self, victim_pid: int) -> List[Violation]:
        """Walk memory mappings and register state after an injected fault.

        Returns the new violations found (also appended to
        :attr:`violations`).
        """
        self.audits += 1
        found: List[Violation] = []

        for base, size, _perms in self.runtime.memory.mapped_regions():
            if base >= RUNTIME_REGION_BASE:
                continue  # the runtime's dedicated region
            if base // SANDBOX_SIZE != (base + size - 1) // SANDBOX_SIZE:
                found.append(Violation(
                    "mapping", victim_pid,
                    f"mapped region [{base:#x}, {base + size:#x}) "
                    f"straddles a slot boundary"))

        for proc in self.runtime.processes.values():
            if proc.state == ProcessState.ZOMBIE:
                continue
            regs = proc.registers
            lo, hi = proc.layout.base, proc.layout.end
            x21 = regs["regs"][21]
            if x21 != lo:
                found.append(Violation(
                    "register", proc.pid,
                    f"x21 = {x21:#x}, expected slot base {lo:#x}"))
            sp = regs["sp"]
            if not lo <= sp <= hi:
                found.append(Violation(
                    "register", proc.pid,
                    f"sp = {sp:#x} outside slot [{lo:#x}, {hi:#x}]"))

        self.violations.extend(found)
        return found

    # -- fingerprints --------------------------------------------------------

    def slot_digest(self, layout: SandboxLayout) -> int:
        """CRC over a slot's non-zero pages (bystander-unperturbed
        assertions while the bystander is descheduled)."""
        digest = 0
        for addr, buf in self.runtime.memory.nonzero_pages(layout.base,
                                                            layout.end):
            digest = zlib.crc32(buf, digest)
            digest = zlib.crc32(addr.to_bytes(8, "little"), digest)
        return digest

    def assert_clean(self) -> None:
        if self.violations:
            lines = "\n".join(v.line() for v in self.violations)
            raise AssertionError(f"containment violations:\n{lines}")
