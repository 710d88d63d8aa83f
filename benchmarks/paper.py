"""The paper's evaluation (§6) from one command.

    PYTHONPATH=src python -m benchmarks.paper

Runs every row of DESIGN.md §4's experiment index - Figures 3-5, Tables
4-5, §6.3 code size, §5.2 verifier structure, the ablations, sandbox
scaling and the §7.1 hardening ablation - asserts the shape the paper
reports for each, and rewrites the generated blocks of EXPERIMENTS.md (the
text between ``<!-- paper:<id> -->`` and ``<!-- /paper:<id> -->``), leaving
the prose alone.  Every number written is deterministic - cycles, bytes,
counts, virtual time - so two runs leave the file byte-identical, and CI
runs the command and then ``git diff --exit-code EXPERIMENTS.md``.
Host-wall figures (verifier MB/s, engine, transition and restore
speedups, spawn times) belong to the ledger (``benchmarks/ledger``); the
file names its rows instead.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

from repro.arm64 import parse_assembly
from repro.core import (
    O0,
    O1,
    O2,
    O2_FENCE,
    O2_MASK,
    O2_NO_LOADS,
    rewrite_program,
    verify_text,
)
from repro.elf import write_elf
from repro.emulator import APPLE_M1, GCP_T2A
from repro.engine import SpeculationConfig
from repro.memory import (
    MAX_SANDBOXES_48BIT,
    PAGE_SIZE,
    SANDBOX_SIZE,
    SandboxLayout,
)
from repro.perf import (
    format_overhead_table,
    geomean,
    kvm_variant,
    lfi_variant,
    measure_benchmark,
    overhead_pct,
    run_table5,
    wasm_variant,
)
from repro.perf.models import WASM_ENGINES, wasm_rewrite
from repro.runtime import Runtime
from repro.toolchain import compile_lfi, compile_native
from repro.workloads import (
    SPEC_BENCHMARKS,
    WASM_SUBSET,
    benchmark_names,
    build_benchmark,
)
from repro.workloads.rtlib import prologue, rt_exit
from repro.workloads.spectre import ATTACKS, measure_attack

#: Dynamic instructions per run, in CI and in the committed file alike.
TARGET = 150_000
EXPERIMENTS = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
MODELS = (GCP_T2A, APPLE_M1)

LEVELS = {"LFI O0": O0, "LFI O1": O1, "LFI O2": O2,
          "LFI O2, no loads": O2_NO_LOADS}
ENGINES = ("wasmtime", "wasm2c", "wasm2c-nobarrier", "wasm2c-pinned", "wamr")
HARDENED = {"O2-fence": O2_FENCE, "O2-mask": O2_MASK}
#: O2 with one knob turned, each on the stand-in it matters most to:
#: lbm is the most hoisting-sensitive, gcc has a stack-heavy component,
#: leela uses no exclusives (so the §7.1 policy must cost nothing there).
ABLATED = {
    "519.lbm": {"0 hoist registers": O2.with_(hoist_registers=0),
                "1 hoist register": O2.with_(hoist_registers=1)},
    "502.gcc": {"no sp elision": O2.with_(sp_block_elision=False)},
    "541.leela": {"LL/SC rejected": O2.with_(allow_exclusives=False)},
}

#: Paper values: Figure 3 (row label, M1, T2A), Table 4 (label, T2A, M1),
#: Table 5 (LFI, Linux, gVisor ns; None where the paper has "-").
FIG3_PAPER = {
    "LFI O2": ("LFI O2 (full isolation)", "6.4%", "7.3%"),
    "LFI O2, no loads": ("LFI O2, no loads", "~1%", "~1%"),
    "LFI O0": ("LFI O0 (basic 2-cycle guard)", "~20-45% per bench", "—"),
    "LFI O1": ("LFI O1 (zero-instruction guards)", "between O0 and O2", "—"),
}
TABLE4_PAPER = {
    "wasmtime": ("Wasmtime", 47.0, 67.1),
    "wasm2c": ("Wasm2c", 40.7, 37.5),
    "wasm2c-nobarrier": ("Wasm2c (no barrier)", 21.5, 20.8),
    "wasm2c-pinned": ("Wasm2c (pinned reg)", 16.5, 15.7),
    "wamr": ("WAMR", 22.3, 18.2),
    "LFI": ("LFI", 7.3, 6.4),
}
TABLE5_PAPER = {
    "apple-m1": {"syscall": (22, 129, None), "pipe": (46, 1504, None),
                 "yield": (17, None, None)},
    "gcp-t2a": {"syscall": (26, 160, 12019), "pipe": (48, 2494, 22899),
                "yield": (18, None, None)},
}

INTERLEAVED = """
ldr x0, [x1]
ldr x2, [x3, #8]
str x0, [x1, #8]
str x2, [x3, #16]
ldr x4, [x1, #16]
ldr x5, [x3, #24]
"""
STACK = "sub sp, sp, #64\n str x0, [sp]\n add sp, sp, #64\n ret\n"


# -- running -----------------------------------------------------------------


def variants(name, model):
    """Every variant any section reads, for one benchmark on one machine."""
    options = dict(LEVELS)
    out = []
    if name in WASM_SUBSET:
        out += [wasm_variant(WASM_ENGINES[engine]) for engine in ENGINES]
    if model is APPLE_M1:
        out.append(kvm_variant("QEMU KVM"))
        if name in WASM_SUBSET:
            options.update(HARDENED)
        options.update(ABLATED.get(name, {}))
    return out + [lfi_variant(opts, label) for label, opts in options.items()]


def measure():
    """model name -> benchmark -> ``measure_benchmark`` result."""
    return {
        model.name: {
            name: measure_benchmark(name, variants(name, model), model,
                                    target_instructions=TARGET)
            for name in benchmark_names()
        }
        for model in MODELS
    }


def overheads(runs, model, columns, names=None):
    """benchmark -> column -> overhead; ``columns`` maps label -> variant."""
    return {
        name: {label: runs[model.name][name]["overheads"][variant]
               for label, variant in columns.items()}
        for name in names or benchmark_names()
    }


def means(table):
    columns = next(iter(table.values()))
    return {c: geomean(row[c] for row in table.values()) for c in columns}


# -- rendering ---------------------------------------------------------------


def pct(value):
    return f"{value:.1f}%"


def ns(value):
    return "—" if value is None or math.isnan(value) else f"{value:.0f}ns"


def markdown(header, rows):
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(str(cell) for cell in row) + " |"
              for row in rows]
    return "\n".join(lines)


def panel(table, title):
    return f"```\n{format_overhead_table(table, title=title)}\n```"


# -- sections ----------------------------------------------------------------


def fig3(runs):
    tables = {m.name: overheads(runs, m, {c: c for c in LEVELS})
              for m in MODELS}
    mean = {name: means(table) for name, table in tables.items()}
    for name, m in mean.items():
        # §6.1's ordering, and the O0 -> O1 jump is the dominant one.
        assert m["LFI O0"] > m["LFI O1"] >= m["LFI O2"] \
            > m["LFI O2, no loads"], (name, m)
        assert m["LFI O0"] - m["LFI O1"] > m["LFI O1"] - m["LFI O2"], m
        # Full isolation in single digits; store-only around 1%.
        assert 2.0 < m["LFI O2"] < 12.0 and m["LFI O2, no loads"] < 4.0, m
        for bench, row in tables[name].items():
            assert row["LFI O0"] >= row["LFI O2"] - 0.5, (name, bench)
    m1 = {bench: row["LFI O2"] for bench, row in tables["apple-m1"].items()}
    # leela (branchy unhoistable search) is at or near the worst case;
    # lbm (streaming FP) is below the geomean.
    assert "541.leela" in sorted(m1, key=m1.get, reverse=True)[:4], m1
    assert m1["519.lbm"] < mean["apple-m1"]["LFI O2"] + 1.0, m1
    rows = [(label, m1_paper, pct(mean["apple-m1"][key]), t2a_paper,
             pct(mean["gcp-t2a"][key]))
            for key, (label, m1_paper, t2a_paper) in FIG3_PAPER.items()]
    summary = markdown(("Config", "Paper (M1)", "Measured (M1)",
                        "Paper (T2A)", "Measured (T2A)"), rows)
    panels = [panel(tables[m.name], f"Figure 3, {m.name}: overhead over "
                    f"native runtime") for m in (APPLE_M1, GCP_T2A)]
    return "\n\n".join([summary] + panels)


def fig4_table4(runs):
    columns = {**{engine: engine for engine in ENGINES}, "LFI": "LFI O2"}
    tables = {m.name: overheads(runs, m, columns, WASM_SUBSET)
              for m in MODELS}
    mean = {name: means(table) for name, table in tables.items()}
    for name, m in mean.items():
        # LFI is the cheapest system with under half the overhead of the
        # best-tuned Wasm (§6.2); each Wasm2c improvement helps in Table
        # 4's order; Cranelift's weaker codegen makes Wasmtime the slowest.
        assert min(m, key=m.get) == "LFI" and m["LFI"] < 12.0, (name, m)
        assert all(m["LFI"] * 2 < m[engine] for engine in ENGINES), m
        assert m["wasm2c"] > m["wasm2c-nobarrier"] > m["wasm2c-pinned"], m
        assert m["wasmtime"] == max(m.values()), m
    for bench, row in tables["apple-m1"].items():
        assert all(row["LFI"] < row[engine] for engine in ENGINES), bench
    fig4 = "\n\n".join(panel(tables[m.name], f"Figure 4, {m.name}: overhead "
                             f"over native (LTO)") for m in (APPLE_M1, GCP_T2A))
    rows = [(label, f"{t2a}%", pct(mean["gcp-t2a"][key]), f"{m1}%",
             pct(mean["apple-m1"][key]))
            for key, (label, t2a, m1) in TABLE4_PAPER.items()]
    table4 = markdown(("System", "Paper (T2A)", "Measured (T2A)",
                       "Paper (M1)", "Measured (M1)"), rows)
    return fig4, table4


def fig5(runs):
    table = overheads(runs, APPLE_M1, {"QEMU KVM": "QEMU KVM",
                                       "LFI": "LFI O2"})
    kvm = {bench: row["QEMU KVM"] for bench, row in table.items()}
    working_set = {bench: SPEC_BENCHMARKS[bench].working_set for bench in kvm}
    # Nested paging costs little on average, and only where TLB misses
    # are: the worst KVM benchmarks have big working sets, small ones are
    # nearly free, and on at least one benchmark KVM beats LFI.
    assert 0.0 <= geomean(kvm.values()) < 10.0, kvm
    worst = sorted(kvm, key=kvm.get, reverse=True)[:5]
    assert any(working_set[b] >= 8 << 20 for b in worst), worst
    small = geomean(kvm[b] for b in kvm if working_set[b] <= 2 << 20)
    large = geomean(kvm[b] for b in kvm if working_set[b] >= 16 << 20)
    assert small <= large + 0.5, (small, large)
    assert any(kvm[b] < table[b]["LFI"] for b in kvm)
    return panel(table, "Figure 5, apple-m1: overhead over native runtime")


def table5():
    out = []
    for model in (APPLE_M1, GCP_T2A):
        rows = run_table5(model)
        syscall, pipe, yld = rows["syscall"], rows["pipe"], rows["yield"]
        # LFI's syscall beats Linux's by ~6x, its pipe by >30x; gVisor is
        # orders of magnitude slower still.
        assert syscall.lfi_ns * 4 < syscall.linux_ns
        assert pipe.lfi_ns * 20 < pipe.linux_ns
        assert syscall.gvisor_ns > 20 * syscall.linux_ns
        # The direct yield is the fastest switch, ~50 cycles (§5.3): under
        # a quarter of the ~400-cycle hardware-protection IPC floor (§6.4).
        cycles = yld.lfi_ns * model.freq_ghz
        assert yld.lfi_ns < syscall.lfi_ns and 25 < cycles < 100, cycles
        paper = TABLE5_PAPER[model.name]
        for bench, row in rows.items():
            # Same order as the paper's measurement, within 3x.
            assert paper[bench][0] / 3 < row.lfi_ns < paper[bench][0] * 3
        table = markdown(
            ("Benchmark", "Paper LFI", "Measured LFI", "Paper Linux",
             "Model Linux", "Paper gVisor", "Model gVisor"),
            [(bench, ns(paper[bench][0]), f"**{row.lfi_ns:.1f}ns**",
              ns(paper[bench][1]), ns(row.linux_ns), ns(paper[bench][2]),
              ns(row.gvisor_ns)) for bench, row in rows.items()])
        out.append(f"{model.name} ({model.freq_ghz}GHz); the yield is "
                   f"{cycles:.0f} cycles:\n\n{table}")
    return "\n\n".join(out)


def code_size():
    """§6.3 table, plus each benchmark's LFI O2 build for the sections
    that read the rewritten text."""
    growth, notes, builds = {}, {}, {}
    for name in benchmark_names():
        asm = build_benchmark(name, target_instructions=TARGET)
        native, lfi = compile_native(asm), compile_lfi(asm, options=O2)
        wamr = compile_native(wasm_rewrite(asm, WASM_ENGINES["wamr"]))
        # No alignment padding: growth is exactly the inserted guards; and
        # O2's hoisting never grows code over O1 (§4.3).
        added = lfi.rewrite.stats.added_instructions
        assert lfi.text_size - native.text_size == 4 * added, name
        assert lfi.text_size <= compile_lfi(asm, options=O1).text_size, name
        growth[name] = {
            "text": overhead_pct(native.text_size, lfi.text_size),
            "binary": overhead_pct(native.binary_size, lfi.binary_size),
            "WAMR": overhead_pct(native.binary_size, wamr.binary_size),
        }
        # The guard-provenance note rides in the file but is never loaded.
        notes[name] = len(write_elf(lfi.elf)) - lfi.binary_size
        builds[name] = lfi
    mean = means(growth)
    # Paper: 12.9% text / 8.3% binary; our drivers are smaller than SPEC
    # programs, hence the band.  Binary grows no more than text (headers
    # and data are unchanged), and WAMR's binaries grow more than LFI's.
    assert 4.0 < mean["text"] < 30.0, mean
    assert mean["binary"] <= mean["text"] + 0.5, mean
    for name, row in growth.items():
        assert row["binary"] <= row["text"] + 0.5, (name, row)
    assert geomean(growth[b]["binary"] for b in WASM_SUBSET) \
        < geomean(growth[b]["WAMR"] for b in WASM_SUBSET)
    rows = [(name, pct(row["text"]), pct(row["binary"]), f"{notes[name]} B",
             pct(row["WAMR"])) for name, row in growth.items()]
    rows.append(("**geomean**", f"**{pct(mean['text'])}**",
                 f"**{pct(mean['binary'])}**",
                 f"{sum(notes.values()) // len(notes)} B (mean)",
                 pct(mean["WAMR"])))
    rows.append(("paper", "12.9%", "8.3%", "—", "22% (its subset)"))
    table = markdown(("Benchmark", "LFI text", "LFI binary (loadable)",
                      "LFI provenance note", "WAMR binary"), rows)
    return table, builds


def verifier(builds):
    images = [(name, bytes(out.image.text.data), out.image.text.base)
              for name, out in builds.items()]
    mcf, data, base = next(image for image in images if image[0] == "505.mcf")
    images.append((f"{mcf}, text x4", data * 4, base))
    rows = []
    for label, data, base in images:
        result = verify_text(data, base)
        # One linear pass: every word checked once, at 1x and at 4x.
        assert result.ok, label
        assert result.instructions == len(data) // 4, label
        assert result.bytes_verified == len(data), label
        rows.append((label, len(data), len(data) // 4, result.instructions,
                     "accept"))
    return markdown(("LFI O2 text", "Bytes", "Words", "Instructions checked",
                     "Verdict"), rows)


def ablations(runs):
    m1 = runs["apple-m1"]

    def stats(src, options):
        return rewrite_program(parse_assembly(src), options).stats

    hoist = {n: stats(INTERLEAVED, O2.with_(hoist_registers=n))
             for n in (0, 1, 2)}
    lbm = {n: m1["519.lbm"][label].cycles for n, label in
           ((0, "0 hoist registers"), (1, "1 hoist register"), (2, "LFI O2"))}
    # §4.3: the second register hoists a second set of guards in the same
    # block; zero registers is O1; cycles order 2 <= 1 <= 0.
    assert hoist[2].hoisted_accesses > hoist[1].hoisted_accesses
    assert hoist[2].output_instructions < hoist[1].output_instructions
    assert hoist[0].output_instructions \
        == stats(INTERLEAVED, O1).output_instructions
    assert lbm[2] <= lbm[1] <= lbm[0], lbm
    on, off = stats(STACK, O2), stats(STACK, O2.with_(sp_block_elision=False))
    gcc = {k: m1["502.gcc"][k].cycles for k in ("LFI O2", "no sp elision")}
    leela = {k: m1["541.leela"][k].cycles for k in ("LFI O2", "LL/SC rejected")}
    # §4.2: the sp elision saves instructions and cycles; §7.1: rejecting
    # LL/SC is free on code that uses no exclusives.
    assert on.sp_guards_elided >= 1 and off.sp_guards_elided == 0
    assert on.output_instructions < off.output_instructions
    assert gcc["LFI O2"] <= gcc["no sp elision"], gcc
    assert leela["LFI O2"] == leela["LL/SC rejected"], leela
    hoisting = markdown(
        ("Hoist registers", "0", "1", "2 (O2)"),
        [("interleaved two-base run: instructions out",
          *(hoist[n].output_instructions for n in (0, 1, 2))),
         ("interleaved two-base run: hoisted accesses",
          *(hoist[n].hoisted_accesses for n in (0, 1, 2))),
         ("519.lbm cycles (M1)", *(f"{lbm[n]:.0f}" for n in (0, 1, 2)))])
    knobs = markdown(
        ("Knob", "Measure", "O2", "Knob turned"),
        [("sp same-block elision off (§4.2)", "stack snippet: instructions "
          "out", on.output_instructions, off.output_instructions),
         ("sp same-block elision off (§4.2)", "502.gcc cycles (M1)",
          f"{gcc['LFI O2']:.0f}", f"{gcc['no sp elision']:.0f}"),
         ("LL/SC rejected (§7.1 policy)", "541.leela cycles (M1)",
          f"{leela['LFI O2']:.0f}", f"{leela['LL/SC rejected']:.0f}")])
    return f"{hoisting}\n\n{knobs}"


def scaling():
    last = SandboxLayout.for_slot(MAX_SANDBOXES_48BIT - 1)
    # §3: 64Ki adjacent 4 GiB slots fill the 48-bit space exactly.
    assert MAX_SANDBOXES_48BIT == 1 << 16 and last.end == 1 << 48
    assert last.base % SANDBOX_SIZE == 0
    count = 220
    runtime = Runtime(timeslice=500)
    pages = [runtime.memory.pages_in_range()]
    procs = []
    for i in range(count):
        source = prologue() + f"    movz x0, #{i % 251}\n" + rt_exit()
        procs.append(runtime.spawn(compile_lfi(source).elf))
        pages.append(runtime.memory.pages_in_range())
    runtime.run()
    per_spawn = [b - a for a, b in zip(pages, pages[1:])]
    per_sandbox = (pages[-1] - pages[0]) / count
    # Round-robin across hundreds of slots keeps each one isolated; a slot
    # materializes only the pages it uses; and the 201st spawn maps as many
    # pages as the 1st.  That is a page count, not a cost:
    # tests/test_slot_scaling.py counts the bytecodes of a clone, reclaim,
    # quota check and capture beside 50 and 1 000 live clones.
    assert [p.exit_code for p in procs] == [i % 251 for i in range(count)]
    assert len({p.layout.base for p in procs}) == count
    assert per_sandbox < 100 and per_spawn[:20] == per_spawn[-20:], per_spawn
    return markdown(("Property", "Measured"), [
        ("sandboxes per 48-bit address space (4 GiB slots)",
         f"{MAX_SANDBOXES_48BIT} (the last slot ends at 2^48)"),
        ("sandboxes spawned and run round-robin in one address space",
         f"{count}, in {count} distinct slots, each exiting with its own code"),
        (f"pages materialized per sandbox (a slot is "
         f"{SANDBOX_SIZE // PAGE_SIZE} pages)", f"{per_sandbox:g}"),
        ("pages materialized per spawn, spawns 1-20 / 201-220",
         f"{sum(per_spawn[:20]) / 20:g} / {sum(per_spawn[-20:]) / 20:g}"),
    ])


def hardening(runs, builds):
    spec = SpeculationConfig(seed=0)
    levels = {"O0": O0, "O1": O1, "O2": O2, **HARDENED}
    leaks = []
    for attack in sorted(ATTACKS):
        row = [attack]
        for label, options in levels.items():
            result = measure_attack(attack, options=options, speculation=spec)
            # Unhardened levels leak and give up the planted secrets;
            # both hardened levels leak exactly nothing.
            if label in HARDENED:
                assert result.leakage == 0, (attack, label)
            else:
                assert result.leakage > 0, (attack, label)
                assert result.recovered == result.secrets, (attack, label)
            row.append(result.leakage)
        leaks.append(row)
    table = overheads(runs, APPLE_M1, {"O2": "LFI O2", **{
        label: label for label in HARDENED}}, WASM_SUBSET)
    mean = means(table)
    # Hardening costs something, but not the farm.
    assert mean["O2"] < mean["O2-fence"] <= 80.0, mean
    assert mean["O2"] < mean["O2-mask"] <= 100.0, mean
    stats = {"O2": [builds[name].rewrite.stats for name in WASM_SUBSET]}
    for label, options in HARDENED.items():
        stats[label] = [compile_lfi(build_benchmark(name, TARGET),
                                    options=options).rewrite.stats
                        for name in WASM_SUBSET]
        # The hardened levels only ever add instructions over O2.
        assert all(hard.output_instructions >= o2.output_instructions
                   for hard, o2 in zip(stats[label], stats["O2"])), label
    size = [("static code growth (geomean)", *(pct(geomean(
        100.0 * s.code_size_overhead for s in stats[k])) for k in stats))]
    for counter in ("fence_guards", "mask_guards", "demoted_returns"):
        size.append((f"{counter} (7 kernels)",
                     *(sum(getattr(s, counter) for s in stats[k])
                       for k in stats)))
    return "\n\n".join([
        f"Leakage (trace divergences; predictor seed {spec.seed}, window "
        f"{spec.window}):",
        markdown(("Attack", *levels), leaks),
        panel(table, "Cycle overhead over native, apple-m1"),
        markdown(("Code", *stats), size),
    ])


# -- the file ----------------------------------------------------------------


def rewrite(text, blocks):
    """``text`` with each ``<!-- paper:<id> -->`` block's body replaced."""
    for key, body in blocks.items():
        start, end = f"<!-- paper:{key} -->", f"<!-- /paper:{key} -->"
        head, found, rest = text.partition(start)
        _, closed, tail = rest.partition(end)
        if not (found and closed):
            raise SystemExit(f"EXPERIMENTS.md has no {start} ... {end} block")
        text = f"{head}{start}\n{body}\n{end}{tail}"
    return text


def main():
    started = time.perf_counter()
    runs = measure()
    size, builds = code_size()
    fig4, table4 = fig4_table4(runs)
    blocks = {
        "fig3": fig3(runs), "fig4": fig4, "table4": table4,
        "fig5": fig5(runs), "table5": table5(), "code-size": size,
        "verifier": verifier(builds), "ablations": ablations(runs),
        "scaling": scaling(), "hardening": hardening(runs, builds),
    }
    for key, body in blocks.items():
        print(f"== {key}\n{body}\n")
    EXPERIMENTS.write_text(rewrite(EXPERIMENTS.read_text(), blocks))
    print(f"every shape check holds; EXPERIMENTS.md rewritten in "
          f"{time.perf_counter() - started:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
