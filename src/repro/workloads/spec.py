"""The 14 SPEC CPU2017 stand-in benchmarks (DESIGN.md §2 substitution).

SPEC itself is not redistributable, so each benchmark is a synthetic kernel
composition whose *profile* — memory-op density, addressing-mode mix,
hoistable-run share, pointer-chase depth, FP/SIMD share, branchiness,
working-set size — reflects the published character of the original
program.  Since SFI overhead is a function of exactly this mix interacting
with guard costs, the profiles preserve the paper's per-benchmark overhead
*shape* (who is expensive, who is free) without the original sources.

The same 14 names as the paper's Figure 3 are used, and the paper's
7-benchmark WebAssembly-compatible subset (Figure 4) is exported as
``WASM_SUBSET``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import ConfigError
from ..runtime.table import RuntimeCall, table_offset
from .kernels import KERNELS, Kernel

__all__ = ["BenchmarkProfile", "SPEC_BENCHMARKS", "WASM_SUBSET",
           "build_benchmark", "benchmark_names"]


@dataclass(frozen=True)
class BenchmarkProfile:
    """Kernel mix and memory behaviour of one stand-in benchmark."""

    name: str
    #: kernel name -> share of dynamic instructions.
    mix: Dict[str, float]
    #: Working set in bytes (power of two; drives TLB behaviour, Fig. 5).
    working_set: int
    description: str = ""

    def __post_init__(self):
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"{self.name}: mix sums to {total}")
        if self.working_set & (self.working_set - 1):
            raise ValueError(f"{self.name}: working set not a power of two")


KiB = 1024
MiB = 1024 * KiB

#: The 14 C/C++ SPECrate 2017 benchmarks the paper supports (§6).
SPEC_BENCHMARKS: Dict[str, BenchmarkProfile] = {
    p.name: p
    for p in (
        BenchmarkProfile(
            "502.gcc",
            {"bytes": 0.30, "calls": 0.25, "btree": 0.20, "stack": 0.15,
             "stream_int": 0.10},
            8 * MiB,
            "compiler: byte scanning, dispatch, branchy IR walks",
        ),
        BenchmarkProfile(
            "505.mcf",
            {"chase": 0.50, "random": 0.30, "stream_int": 0.20},
            16 * MiB,
            "network simplex: pointer chasing over a large graph",
        ),
        BenchmarkProfile(
            "508.namd",
            {"stream_fp": 0.45, "fma": 0.45, "stream_int": 0.10},
            2 * MiB,
            "molecular dynamics: dense FP with regular access",
        ),
        BenchmarkProfile(
            "510.parest",
            {"fma": 0.50, "stream_fp": 0.30, "btree": 0.10, "stack": 0.10},
            8 * MiB,
            "finite elements: sparse-matrix FP plus index juggling",
        ),
        BenchmarkProfile(
            "511.povray",
            {"fma": 0.40, "btree": 0.20, "calls": 0.20, "stack": 0.20},
            1 * MiB,
            "ray tracing: FP with heavy call traffic and branching",
        ),
        BenchmarkProfile(
            "519.lbm",
            {"stream_fp": 0.80, "stream_int": 0.20},
            16 * MiB,
            "lattice Boltzmann: pure FP streaming, bandwidth bound",
        ),
        BenchmarkProfile(
            "520.omnetpp",
            {"chase": 0.35, "calls": 0.25, "btree": 0.20, "random": 0.20},
            16 * MiB,
            "discrete event simulation: pointer-rich C++ with dispatch",
        ),
        BenchmarkProfile(
            "523.xalancbmk",
            {"btree": 0.30, "calls": 0.30, "bytes": 0.20, "random": 0.20},
            8 * MiB,
            "XSLT: tree walks, virtual calls, string scanning",
        ),
        BenchmarkProfile(
            "525.x264",
            {"simd": 0.50, "stream_int": 0.25, "bytes": 0.15, "stack": 0.10},
            4 * MiB,
            "video encoding: SIMD pixel kernels and byte handling",
        ),
        BenchmarkProfile(
            "531.deepsjeng",
            {"btree": 0.55, "bytes": 0.25, "stack": 0.10, "random": 0.10},
            4 * MiB,
            "chess search: branchy integer code, indexed tables",
        ),
        BenchmarkProfile(
            "538.imagick",
            {"simd": 0.45, "fma": 0.30, "stream_int": 0.25},
            8 * MiB,
            "image processing: SIMD plus FP convolution",
        ),
        BenchmarkProfile(
            "541.leela",
            {"btree": 0.50, "calls": 0.30, "bytes": 0.10, "stack": 0.10},
            2 * MiB,
            "Go engine: the paper's worst case — unhoistable indexed "
            "loads in branchy search (17% on M1)",
        ),
        BenchmarkProfile(
            "544.nab",
            {"fma": 0.50, "stream_fp": 0.30, "random": 0.20},
            4 * MiB,
            "molecular modelling: FP with scattered neighbour lookups",
        ),
        BenchmarkProfile(
            "557.xz",
            {"bytes": 0.50, "btree": 0.30, "random": 0.05, "stream_int": 0.15},
            8 * MiB,
            "compression: byte matching, range coding, big dictionaries",
        ),
    )
}

#: Figure 4's WebAssembly-compatible subset (WASI limitations, §6.2).
WASM_SUBSET: Tuple[str, ...] = (
    "505.mcf", "508.namd", "519.lbm", "525.x264", "531.deepsjeng",
    "544.nab", "557.xz",
)

#: Arena region map.  Kernels write only inside their own regions so the
#: pointer-chase chain is never clobbered:
#:   [0x0000, 0x0800)   per-kernel scratch result slots
#:   [0x0800, 0x1000)   indirect-call function-pointer table
#:   [0x1000, 0x1100)   byte lookup table
#:   [STREAM_OFFSET, +) streaming/SIMD read-write region (320B stride)
#:   [ws/2, ws)         pointer-chase ring, nodes spread over half the
#:                      working set so big-footprint benchmarks (mcf)
#:                      really take TLB and cache misses per hop
_STREAM_OFFSET = 64 * KiB
_CHAIN_NODES = 512  # kept small so arena init stays cheap
_STREAM_STRIDE = 320
_OUTER_ITERS = 4


def _chain_geometry(ws: int):
    """(base offset, per-node stride) for the pointer-chase ring."""
    base = ws // 2
    stride = max(64, (ws // 2) // _CHAIN_NODES)
    stride = 1 << (stride.bit_length() - 1)  # power of two for lsl
    stride = min(stride, 16 * KiB)
    return base, stride


def benchmark_names() -> List[str]:
    return sorted(SPEC_BENCHMARKS)


def _profile(name: str) -> BenchmarkProfile:
    profile = SPEC_BENCHMARKS.get(name)
    if profile is None:
        raise ConfigError(f"unknown benchmark {name!r}; known: "
                          f"{', '.join(benchmark_names())}")
    return profile


def _init_chain(nodes: int, base_offset: int, stride: int) -> str:
    """Build a pointer ring over ``nodes`` cells spaced ``stride`` bytes
    apart (next[i] = chain_base + stride*((i+97) mod n))."""
    hop = 97  # odd => coprime with the power-of-two node count
    shift = stride.bit_length() - 1
    base_mov = f"""
    movz x6, #{(base_offset >> 16) & 0xFFFF}, lsl #16
    add x6, x20, x6
""" if base_offset >= (1 << 16) else f"""
    add x6, x20, #{base_offset}
"""
    return f"""
    // init: pointer-chase ring in the upper half of the arena
{base_mov}    mov x3, #0
init_chain_loop:
    lsl x4, x3, #{shift}
    add x4, x6, x4
    add x5, x3, #{hop}
    and x5, x5, #{nodes - 1}
    lsl x5, x5, #{shift}
    add x5, x6, x5
    str x5, [x4]
    add x3, x3, #1
    cmp x3, #{nodes}
    b.ne init_chain_loop
"""


def _init_table() -> str:
    """Fill the indirect-call table and the byte lookup table."""
    return """
    // init: function-pointer table at arena+2048
    adr x4, kern_calls_fn_a
    str x4, [x20, #2048]
    adr x4, kern_calls_fn_b
    str x4, [x20, #2056]
    // init: byte lookup table at arena+4096
    mov x3, #0
init_table_loop:
    add x4, x20, #4096
    strb w3, [x4, x3]
    add x3, x3, #1
    cmp x3, #256
    b.ne init_table_loop
"""


def build_benchmark(name: str, target_instructions: int = 40_000) -> str:
    """Emit the assembly for one stand-in benchmark.

    ``target_instructions`` is the approximate dynamic instruction count of
    the native run (the paper runs full SPEC; we scale to the emulator).
    """
    profile = _profile(name)
    used: List[Kernel] = [KERNELS[k] for k in profile.mix]
    ws = profile.working_set
    # btree works a hot (cache-resident) region, like a game tree's upper
    # levels; fma a mid-size array; random scatters over the full set.
    # The hot regions are sized to warm up within the scaled-down run.
    btree_mask = min(ws, 8 * KiB) // 8 - 1
    fma_mask = min(ws, 32 * KiB) // 8 - 1
    byte_mask = ws - 1
    chain_base, chain_stride = _chain_geometry(ws)

    header = ".text\n.globl _start\n_start:\n"
    init = """
    adrp x20, arena
    add x20, x20, :lo12:arena
"""
    if any(k.needs_chain for k in used):
        init += _init_chain(_CHAIN_NODES, chain_base, chain_stride)
    if any(k.needs_table for k in used):
        init += _init_table()

    # Per-call iteration counts from the mix weights.
    calls = []
    for kernel in used:
        weight = profile.mix[kernel.name]
        iters = int(
            target_instructions * weight
            / kernel.insts_per_iter / _OUTER_ITERS
        )
        iters = max(iters, 4)
        if kernel.name in ("stream_int", "stream_fp", "simd"):
            iters = min(
                iters, (ws // 2 - _STREAM_OFFSET) // _STREAM_STRIDE - 2
            )
        if kernel.name == "bytes":
            iters = min(iters, ws // 2 - 8192)
        calls.append((kernel, iters))

    body = f"""
    mov x26, #{_OUTER_ITERS}
outer_loop:
"""
    for kernel, iters in calls:
        setup = ""
        if kernel.name in ("btree", "fma"):
            index_mask = btree_mask if kernel.name == "btree" else fma_mask
            setup = f"    movz x5, #{index_mask & 0xFFFF}\n"
            if index_mask > 0xFFFF:
                setup += f"    movk x5, #{(index_mask >> 16) & 0xFFFF}, lsl #16\n"
        elif kernel.name == "random":
            setup = f"    movz x5, #{byte_mask & 0xFFFF}\n"
            if byte_mask > 0xFFFF:
                setup += f"    movk x5, #{(byte_mask >> 16) & 0xFFFF}, lsl #16\n"
        body += setup
        if kernel.name == "chase":
            if chain_base >= (1 << 16):
                body += (f"    movz x0, #{(chain_base >> 16) & 0xFFFF},"
                         f" lsl #16\n    add x0, x20, x0\n")
            else:
                body += f"    add x0, x20, #{chain_base}\n"
        elif kernel.name in ("stream_int", "stream_fp", "simd"):
            body += f"    add x0, x20, #{_STREAM_OFFSET}\n"
        else:
            body += "    mov x0, x20\n"
        body += f"""    movz x1, #{iters & 0xFFFF}
"""
        if iters > 0xFFFF:
            body += f"    movk x1, #{(iters >> 16) & 0xFFFF}, lsl #16\n"
        body += f"    bl {kernel.label}\n"
    body += """
    subs x26, x26, #1
    b.ne outer_loop
    mov x0, #0
"""
    exit_seq = (
        f"    ldr x30, [x21, #{table_offset(RuntimeCall.EXIT)}]\n"
        f"    blr x30\n"
    )
    kernels_text = "\n".join(k.text for k in used)
    data = f"""
.bss
.balign 64
arena:
    .skip 64
"""
    return header + init + body + exit_seq + kernels_text + data


def arena_bss_size(name: str) -> int:
    """Extra .bss bytes needed beyond the 64-byte arena marker."""
    return _profile(name).working_set
