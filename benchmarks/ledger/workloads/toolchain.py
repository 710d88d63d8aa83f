"""``toolchain``: parse, rewrite, assemble, package and verify; nothing runs.

``arm64`` (parser, encoder, assembler) and ``core`` (rewriter, verifier) do
all the work.  The Table-4 images carry 300 bytes of text, so no other
workload can see these layers.  Every program goes through the verifier
twice: its LFI build must be accepted and its native build rejected - the
"reads beside writes" pair, because a verifier that decodes only on reject
must not silently get slower there.
"""

from __future__ import annotations

import hashlib
import random

from repro.core import O2, verify_elf
from repro.elf import read_elf, write_elf
from repro.fuzz.genasm import AsmGenerator, GenConfig
from repro.toolchain import compile_lfi, compile_native

from .base import PassResult, Stopwatch, Workload

#: Seeded programs per pass and fragments per program: ~1.3 k lines and
#: ~6 KB of text each, twenty times a Table-4 image, at ~0.2 s a program.
PROGRAMS = {"full": 4, "smoke": 1}
FRAGMENTS = {"full": 500, "smoke": 100}


def generate_sources(seed: int, count: int, fragments: int) -> list:
    generator = AsmGenerator(GenConfig(min_fragments=fragments,
                                       max_fragments=fragments))
    rng = random.Random(seed)
    return [generator.generate(rng).source for _ in range(count)]


class Toolchain(Workload):
    NAME = "toolchain"
    WHY = ("Seeded 1.3 k-line programs compiled (LFI-O2 and native), "
           "packaged and verified (accept and reject): parser, rewriter, "
           "assembler and verifier do all the work, no guest code runs.")
    OP = "one instruction of text through one stage group"
    PASSES = 14

    def setup(self, seed, smoke, expected):
        scale = "smoke" if smoke else "full"
        state = {"sources": generate_sources(seed, PROGRAMS[scale],
                                             FRAGMENTS[scale]),
                 "sha": {}}
        warm = state["sources"][0]
        verify_elf(read_elf(write_elf(compile_lfi(warm, options=O2).elf)))
        verify_elf(compile_native(warm).elf)
        return state

    def run_pass(self, state, index, spans) -> PassResult:
        units = []
        failed = 0
        sources = state["sources"]
        for i, source in enumerate(sources):
            with spans.span("ledger.program", index * len(sources) + i):
                ok = self._one_program(state, i, source, units)
            if not ok:
                failed += 1
        return PassResult(units, attempted=len(sources), failed=failed)

    def _one_program(self, state, i: int, source: str, units: list) -> bool:
        with Stopwatch() as watch:
            lfi = compile_lfi(source, options=O2)
            data = write_elf(lfi.elf)
        text = bytes(lfi.image.text.data)
        instructions = len(text) // 4
        units.append(watch.unit(f"compile-lfi/{i}", instructions))
        with Stopwatch() as watch:
            accepted = verify_elf(read_elf(data))
        units.append(watch.unit(f"verify-accept/{i}", instructions))
        with Stopwatch() as watch:
            native = compile_native(source)
        native_instructions = native.text_size // 4
        units.append(watch.unit(f"compile-native/{i}", native_instructions))
        with Stopwatch() as watch:
            rejected = verify_elf(native.elf)
        units.append(watch.unit(f"verify-reject/{i}", native_instructions))
        sha = hashlib.sha256(text).hexdigest()
        return bool(accepted.ok and accepted.instructions == instructions
                    and not rejected.ok and rejected.violations
                    and state["sha"].setdefault(i, sha) == sha)
