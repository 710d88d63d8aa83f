"""Deterministic prover reports and the counterexample → corpus bridge.

A :class:`ClassReport` summarizes one ``(instruction class, policy)``
run: how much of the space was checked, how the verifier classified it,
and every obligation failure as a :class:`Counterexample`.  Reports
render to stable text and JSON (no timestamps, no ordering dependence on
dict iteration) so CI can diff them.

The bridge turns a counterexample into a replayable
:class:`~repro.fuzz.corpus.CorpusEntry`: the violating word plus its
accepting context, ddmin-shrunk with the prover itself as the oracle, so
every hole the prover finds becomes a pinned regression test
automatically (ISSUE 7 satellite a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Counterexample", "ClassReport", "render_reports",
           "counterexample_entry"]


@dataclass(frozen=True)
class Counterexample:
    """One verifier-accepted word (or field interval) that failed an
    abstract obligation."""

    klass: str
    policy: str
    context: str
    word: int          # representative concrete word
    reason: str
    count: int = 1     # how many concrete words the record covers
    disasm: str = ""
    #: Shape word and symbolic-field interval when found symbolically.
    shape: Optional[int] = None
    field: str = ""
    flo: Optional[int] = None
    fhi: Optional[int] = None

    def line(self) -> str:
        where = f" {self.field} in [{self.flo}, {self.fhi}]" \
            if self.shape is not None and self.flo != self.fhi else ""
        dis = f" ({self.disasm})" if self.disasm else ""
        return (f"CX {self.klass}/{self.policy} [{self.context}] "
                f"{self.word:#010x}{dis}{where} x{self.count}: "
                f"{self.reason}")

    def to_dict(self) -> dict:
        return {
            "class": self.klass, "policy": self.policy,
            "context": self.context, "word": self.word,
            "reason": self.reason, "count": self.count,
            "disasm": self.disasm, "shape": self.shape,
            "field": self.field, "flo": self.flo, "fhi": self.fhi,
        }


@dataclass
class ClassReport:
    """The outcome of proving one instruction class under one policy."""

    klass: str
    policy: str
    mode: str
    space: int
    checked: int = 0
    undecodable: int = 0
    rejected: int = 0
    accepted: int = 0
    splits: int = 0
    concretized: int = 0
    truncated: bool = False
    accepted_by_context: Dict[str, int] = field(default_factory=dict)
    counterexamples: List[Counterexample] = field(default_factory=list)
    counterexample_words: int = 0
    cross_checks: int = 0
    mismatches: List[str] = field(default_factory=list)
    probes: int = 0
    probe_issues: List[str] = field(default_factory=list)

    #: Cap on *recorded* counterexamples; the word count keeps counting.
    MAX_RECORDED = 64

    def add(self, cx: Counterexample) -> None:
        self.counterexample_words += cx.count
        if len(self.counterexamples) < self.MAX_RECORDED:
            self.counterexamples.append(cx)

    @property
    def ok(self) -> bool:
        return (not self.counterexample_words and not self.mismatches
                and not self.probe_issues)

    def lines(self) -> List[str]:
        status = "OK" if self.ok else "FAIL"
        head = (f"{status} {self.klass} [{self.policy}] mode={self.mode} "
                f"space={self.space} checked={self.checked} "
                f"undecodable={self.undecodable} rejected={self.rejected} "
                f"accepted={self.accepted} splits={self.splits} "
                f"concretized={self.concretized}")
        if self.truncated:
            head += " TRUNCATED"
        out = [head]
        for name in sorted(self.accepted_by_context):
            out.append(f"  accepted[{name}] = "
                       f"{self.accepted_by_context[name]}")
        if self.cross_checks:
            out.append(f"  cross-checks: {self.cross_checks}, "
                       f"mismatches: {len(self.mismatches)}")
        if self.probes:
            out.append(f"  emulator probes: {self.probes}, "
                       f"issues: {len(self.probe_issues)}")
        for cx in self.counterexamples:
            out.append("  " + cx.line())
        if self.counterexample_words > 0:
            out.append(f"  counterexample words: "
                       f"{self.counterexample_words}")
        for m in self.mismatches:
            out.append("  MISMATCH " + m)
        for p in self.probe_issues:
            out.append("  PROBE " + p)
        return out

    def to_dict(self) -> dict:
        return {
            "class": self.klass, "policy": self.policy, "mode": self.mode,
            "space": self.space, "checked": self.checked,
            "undecodable": self.undecodable, "rejected": self.rejected,
            "accepted": self.accepted, "splits": self.splits,
            "concretized": self.concretized, "truncated": self.truncated,
            "accepted_by_context": dict(sorted(
                self.accepted_by_context.items())),
            "counterexamples": [cx.to_dict()
                                for cx in self.counterexamples],
            "counterexample_words": self.counterexample_words,
            "cross_checks": self.cross_checks,
            "mismatches": list(self.mismatches),
            "probes": self.probes,
            "probe_issues": list(self.probe_issues),
            "ok": self.ok,
        }


def render_reports(reports: List[ClassReport]) -> str:
    out: List[str] = []
    for rep in reports:
        out.extend(rep.lines())
    total_cx = sum(r.counterexample_words for r in reports)
    bad = [r for r in reports if not r.ok]
    out.append(f"proved {len(reports) - len(bad)}/{len(reports)} "
               f"class-policy runs, {total_cx} counterexample word(s)")
    return "\n".join(out) + "\n"


def counterexample_entry(cx: Counterexample, policy,
                         name: Optional[str] = None, shrink: bool = True):
    """Turn a counterexample into a replayable, ddmin-shrunk corpus entry.

    The violating word plus its accepting context's tail words form the
    initial program; :func:`repro.fuzz.shrink.shrink_words` then drops
    every word not needed to keep the prover's ``violating`` predicate
    true (the verifier must still accept the whole sequence, so context
    words that acceptance depends on survive shrinking).
    """
    from ..fuzz.corpus import entry_from_words
    from ..fuzz.shrink import shrink_words
    from .symexec import context_words, violating

    words = [cx.word] + context_words(cx.context)
    if shrink:
        words = shrink_words(words, lambda ws: violating(ws, policy))
    return entry_from_words(
        name or f"prove-{cx.klass}-{cx.word:08x}",
        words,
        policy=policy,
        description=(f"prover counterexample [{cx.context}]: {cx.reason}"),
        expect="reject",
        source="prove",
    )
