"""Exhaustive per-class verifier proofs (DESIGN.md §13).

``repro.prove`` upgrades ``repro.fuzz``'s sampled coverage to
per-instruction-class proofs: enumerate every encodable word of a class,
and for each word the verifier accepts, symbolically execute it over the
emulator's semantics to show it cannot move a reserved register out of
its invariant region nor issue an uncontained access.
"""

from .absdomain import (
    AbsVal,
    CONTAIN_HI,
    CONTAIN_LO,
    Concretize,
    NeedSplit,
    SymInt,
    SymWord,
    initial_state,
    invariant_failures,
    mem_effects,
    transfer,
)
from .enumerate import (
    CLASSES,
    Field,
    InstructionClass,
    class_by_name,
    default_classes,
    nightly_classes,
    row_coverage,
)
from .report import (
    ClassReport,
    Counterexample,
    counterexample_entry,
    render_reports,
)
from .symexec import (
    CONTEXTS,
    WeakenedVerifier,
    analyze_word,
    check_obligations,
    context_words,
    probe_word,
    prove_class,
    violating,
)

__all__ = [
    "AbsVal", "CONTAIN_HI", "CONTAIN_LO", "Concretize", "NeedSplit",
    "SymInt", "SymWord", "initial_state", "invariant_failures",
    "mem_effects", "transfer",
    "CLASSES", "Field", "InstructionClass", "class_by_name",
    "default_classes", "nightly_classes", "row_coverage",
    "ClassReport", "Counterexample", "counterexample_entry",
    "render_reports",
    "CONTEXTS", "WeakenedVerifier", "analyze_word", "check_obligations",
    "context_words", "probe_word", "prove_class", "violating",
]
