"""Verifier throughput (paper §5.2).

The paper's 300-line Rust verifier runs at ~34 MB/s and checks every SPEC
binary in under 0.3 seconds.  Ours is pure Python: since PR 17 it runs the
rule table of ``core/rules.py`` over raw words and decodes only what it
rejects, which reads ~2.8 MB/s on the 300-byte images below (0.46 MB/s
when every word was decoded first) and 5-6 MB/s on the ledger's 26 KB
texts (``core.verify_accept_mb_per_s``; 0.47 before) — still below the
paper's (documented divergence, DESIGN.md §6).  What we verify here is the
*structure*: a single linear pass whose cost is linear in the text size,
measured with pytest-benchmark.
"""

import time

import pytest

from repro.core import O2, Verifier, verify_text
from repro.toolchain import compile_lfi
from repro.workloads import benchmark_names, build_benchmark

from .conftest import TARGET


def _binary(name, target=None):
    asm = build_benchmark(name, target_instructions=target or TARGET)
    out = compile_lfi(asm, options=O2)
    return bytes(out.image.text.data), out.image.text.base


def test_verifier_throughput_report():
    total_bytes = 0
    total_seconds = 0.0
    print()
    for name in benchmark_names()[:6]:
        data, base = _binary(name)
        start = time.perf_counter()
        result = verify_text(data, base)
        elapsed = time.perf_counter() - start
        assert result.ok
        total_bytes += len(data)
        total_seconds += elapsed
    rate = total_bytes / total_seconds / 1e6
    print(f"§5.2 — verifier throughput: {rate:.3f} MB/s over "
          f"{total_bytes} bytes (paper's Rust core: ~34 MB/s)")
    assert rate > 0.01  # sanity: it completes at a measurable rate


def test_verifier_is_linear():
    """Doubling the text roughly doubles the verification time."""
    small, base = _binary("505.mcf", target=TARGET)
    # A longer build of the same benchmark: more static code via unrolled
    # driver calls is not available, so concatenate the text instead.
    big = small * 4

    def timed(data):
        start = time.perf_counter()
        verify_text(data, base)
        return time.perf_counter() - start

    t_small = min(timed(small) for _ in range(3))
    t_big = min(timed(big) for _ in range(3))
    assert t_big < t_small * 10  # linear-ish, not quadratic


def test_single_pass_instruction_count():
    data, base = _binary("508.namd")
    result = verify_text(data, base)
    assert result.ok
    assert result.instructions == len(data) // 4
    assert result.bytes_verified == len(data)


def test_verifier_throughput_benchmark(benchmark):
    data, base = _binary("541.leela", target=8000)
    verifier = Verifier()

    result = benchmark(verifier.verify_text, data, base)
    assert result.ok
