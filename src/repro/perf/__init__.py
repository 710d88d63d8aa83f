"""Evaluation harness: variant runners, overhead math, and table rendering."""

from .measure import (
    geomean,
    kvm_variant,
    lfi_variant,
    measure_benchmark,
    native_variant,
    overhead_pct,
    run_variant,
    wasm_variant,
)
from .microbench import run_table5
from .report import format_overhead_table

__all__ = [
    "geomean",
    "kvm_variant",
    "lfi_variant",
    "measure_benchmark",
    "native_variant",
    "overhead_pct",
    "run_variant",
    "wasm_variant",
    "format_overhead_table",
    "run_table5",
]
