"""The ledger's metric tables: what ``BENCHMARK.json`` declares.

``END_TO_END`` are the three metrics every workload reports.  ``NAMED``
are each workload's own end-to-end metrics: ``workload -> name ->
{"unit", "better", "bound", "from": (kind, key prefix, scale)}``, where
*from* says how ``stats.metric_from`` gets the number out of a run's
passes.  ``BENCHMARK.json`` makes every workload report every
``end_to_end`` entry, so it lists the named ones under ``per_layer``, the
one list in which a workload may report a structural 0: a ``--trace 1``
run prints them from its untraced passes, and the workload that does not
own one prints 0.  Their bounds are applied by ``compare``.

``PER_LAYER`` rows are ``name: (unit, better, source, moves)`` where
*source* says where the number comes from - ``probe`` (the probe group,
same inputs in every traced run), ``trace`` (the traced passes' spans),
``fact`` (a count the workload itself makes; 0 on a workload that never
enters that layer) or ``named`` (above) - and *moves* names the
end-to-end metric the row should move, ``@`` workload.  ``test_ledger.py``
keeps ``BENCHMARK.json`` in step with these tables; the README's tables
are written from them.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "NAMED", "PER_LAYER", "SPAN_LAYERS"]

END_TO_END = {
    # Best-of-passes throughput in the workload's own op (stats.py).
    "ops_per_s": {"unit": "1/s", "better": "higher", "bound": 0.25},
    # Median of the run's repeated set-ups (input build + warm-up).
    "setup_s": {"unit": "s", "better": "lower", "bound": 0.25},
    # ru_maxrss of this process after set-up and the first three passes,
    # plus that of reaped children.
    "peak_rss_mb": {"unit": "MiB", "better": "lower", "bound": 0.10},
}
# These three are wider than the issue's 0.10 / 0.15 / 0.05, which the
# named metrics keep: the README's "Measured steadiness" has the ten-seed
# sets that a narrower bound would have failed on an unchanged commit.

H, L = "higher", "lower"


def _named(unit, better, bound, kind, prefix="", scale=1.0):
    return {"unit": unit, "better": better, "bound": bound,
            "from": (kind, prefix, scale)}


#: Kinds: ``rate`` (ops per second over the units whose key starts with
#: the prefix, times ``scale``), ``geomean`` (geometric mean of those
#: units' rates), ``p50`` / ``p90`` (of those units' wall times in ms,
#: pooled over passes) and ``fact`` (``facts[prefix]``: a simulated
#: statistic, identical in every pass, bound 0).
NAMED = {
    "exec-steady": {
        "exec_minstr_per_s": _named("Minstr/s", H, 0.10, "rate", "", 1e-3),
        "sim_o2_overhead_pct": _named("%", L, 0.0, "fact",
                                      "sim_o2_overhead_pct"),
    },
    "call-heavy": {
        "rtcalls_per_s": _named("1/s", H, 0.10, "geomean"),
    },
    "cold-start": {
        "starts_per_s": _named("1/s", H, 0.10, "rate"),
        "start_cold_ms_p50": _named("ms", L, 0.10, "p50", "cold/"),
        "start_warm_ms_p50": _named("ms", L, 0.10, "p50", "warm/"),
        "start_resume_ms_p50": _named("ms", L, 0.10, "p50", "resume/"),
        "start_ms_p90": _named("ms", L, 0.15, "p90"),
    },
    "toolchain": {
        "compile_kinstr_per_s": _named("kinstr/s", H, 0.10, "rate",
                                       "compile-lfi/", 1e-3),
        # 4 bytes of text per instruction, in MB.
        "verify_mb_per_s": _named("MB/s", H, 0.10, "rate", "verify-", 4e-6),
    },
    "serve-overload": {
        "served_per_s": _named("1/s", H, 0.10, "rate"),
        "virt_gold_p99_ms": _named("ms", L, 0.0, "fact", "virt_gold_p99_ms"),
    },
    "cluster-drain": {
        "drain_jobs_per_s": _named("1/s", H, 0.10, "rate"),
    },
}

#: Layers a span name can start with; ``ledger`` is the harness itself.
SPAN_LAYERS = ("workloads", "arm64", "core", "elf", "memory", "runtime",
               "emulator", "checkpoint", "cluster", "serve", "obs", "ledger")

PER_LAYER = {
    "workloads.build_ms": ("ms", L, "probe", "setup_s only"),
    "arm64.parse_klines_per_s": ("klines/s", H, "probe",
                                 "ops_per_s@toolchain"),
    "arm64.assemble_kinstr_per_s": ("kinstr/s", H, "probe",
                                    "ops_per_s@toolchain"),
    "core.rewrite_kinstr_per_s": ("kinstr/s", H, "probe",
                                  "ops_per_s@toolchain"),
    "core.rewrite_guards": ("count", L, "probe",
                            "sim_o2_overhead_pct@exec-steady; deterministic"),
    "core.text_growth_pct": ("%", L, "probe",
                             "sim_o2_overhead_pct@exec-steady; "
                             "deterministic"),
    "core.verify_accept_mb_per_s": ("MB/s", H, "probe",
                                    "ops_per_s@toolchain"),
    "core.verify_reject_mb_per_s": ("MB/s", H, "probe",
                                    "ops_per_s@toolchain"),
    "core.verify_small_us": ("us", L, "probe",
                             "ops_per_s@cold-start (cold path only)"),
    "elf.write_us": ("us", L, "probe", "setup_s"),
    "elf.read_us": ("us", L, "probe",
                    "ops_per_s@cold-start (cold path only)"),
    "memory.map_16mib_ms": ("ms", L, "probe",
                            "ops_per_s@cold-start (cold, resume); "
                            "peak_rss_mb"),
    "memory.share_16mib_ms": ("ms", L, "probe",
                              "ops_per_s@cold-start (warm)"),
    "memory.unmap_16mib_ms": ("ms", L, "probe",
                              "ops_per_s@cold-start (all paths)"),
    "runtime.spawn_cold_ms": ("ms", L, "probe",
                              "ops_per_s@cold-start (cold)"),
    "runtime.load_template_ms": ("ms", L, "probe", "setup_s"),
    "runtime.spawn_clone_ms": ("ms", L, "probe",
                               "ops_per_s@cold-start (warm), "
                               "@serve-overload"),
    "runtime.reclaim_ms": ("ms", L, "probe",
                           "ops_per_s@cold-start, @serve-overload"),
    "runtime.call_roundtrip_us": ("us", L, "probe",
                                  "ops_per_s@call-heavy, not @exec-steady"),
    "runtime.pipe_pass_us": ("us", L, "probe", "ops_per_s@call-heavy"),
    "runtime.yield_us": ("us", L, "probe", "ops_per_s@call-heavy"),
    "runtime.batch_record_us": ("us", L, "probe", "ops_per_s@call-heavy"),
    "runtime.sim_cycles_per_call": (
        "cycles", L, "probe",
        "Table-5 shape; must not change under a host-only optimisation"),
    "runtime.sim_cycles_per_batch_record": (
        "cycles", L, "probe",
        "Table-5 shape; must not change under a host-only optimisation"),
    "emulator.superblock_costed_minstr_per_s": ("Minstr/s", H, "probe",
                                                "ops_per_s@exec-steady"),
    "emulator.superblock_fast_minstr_per_s": (
        "Minstr/s", H, "probe",
        "ops_per_s@serve-overload, @cluster-drain, @cold-start"),
    "emulator.stepping_minstr_per_s": (
        "Minstr/s", H, "probe",
        "none (superblock / stepping is PR 9's 3.45x)"),
    "emulator.first_2k_instr_ms": ("ms", L, "probe",
                                   "ops_per_s@cold-start, @serve-overload; "
                                   "<1% of exec-steady"),
    "emulator.compiled_blocks": ("count", H, "probe",
                                 "supporting count; -1 = not exposed"),
    "emulator.sim_cpi": ("cycles", L, "probe",
                         "must stay identical under a simulator speed-up"),
    "emulator.sim_tlb_miss_rate": (
        "ratio", L, "probe",
        "must stay identical under a simulator speed-up"),
    "checkpoint.full_capture_ms": ("ms", L, "probe",
                                   "ops_per_s@cluster-drain"),
    "checkpoint.incr_capture_ms": ("ms", L, "probe",
                                   "ops_per_s@serve-overload"),
    "checkpoint.to_bytes_ms": ("ms", L, "probe", "ops_per_s@cluster-drain"),
    "checkpoint.from_bytes_ms": ("ms", L, "probe",
                                 "ops_per_s@cold-start (resume)"),
    "checkpoint.restore_ms": ("ms", L, "probe",
                              "ops_per_s@cold-start (resume)"),
    "checkpoint.blob_mb": ("MiB", L, "probe",
                           "peak_rss_mb; cluster.ipc_ms_per_job"),
    "checkpoint.full_pages": ("count", L, "probe", "checkpoint.blob_mb"),
    "checkpoint.incr_dirty_pages": ("count", L, "probe",
                                    "checkpoint.incr_capture_ms"),
    "cluster.image_cache_miss_ms": ("ms", L, "probe", "setup_s"),
    "cluster.image_cache_hit_us": ("us", L, "probe",
                                   "ops_per_s@cold-start (warm)"),
    "cluster.execute_job_ms": (
        "ms", L, "probe",
        "ops_per_s@serve-overload, @cluster-drain, @cold-start"),
    "cluster.job_bookkeeping_ms": (
        "ms", L, "probe",
        "ops_per_s@serve-overload, @cluster-drain, @cold-start"),
    "cluster.result_pickle_bytes": ("count", L, "probe",
                                    "cluster.ipc_ms_per_job"),
    "cluster.startup_ms": ("ms", L, "probe", "setup_s@cluster-drain"),
    "cluster.close_ms": ("ms", L, "probe", "none (teardown)"),
    "cluster.ipc_ms_per_job": ("ms", L, "fact",
                               "ops_per_s@cluster-drain only"),
    "cluster.checkpoints_shipped": ("count", L, "fact",
                                    "ops_per_s@cluster-drain only"),
    "serve.offer_us": ("us", L, "probe", "ops_per_s@serve-overload"),
    "serve.run_ms_per_completed": ("ms", L, "probe",
                                   "ops_per_s@serve-overload"),
    "serve.reload_us": ("us", L, "probe", "none (control path)"),
    "serve.arrivals_build_ms": ("ms", L, "probe",
                                "setup_s@serve-overload"),
    "serve.gold_miss_share": ("ratio", L, "probe",
                              "virt_gold_p99_ms@serve-overload (refused or "
                              "over-SLA gold requests)"),
    "serve.shed_share": ("ratio", L, "probe",
                         "a scheduling change shows here first"),
    "serve.warm_share": ("ratio", H, "probe",
                         "a scheduling change shows here first"),
    "serve.peak_queued": ("count", L, "probe",
                          "a scheduling change shows here first"),
    "serve.virt_goodput_minstr_per_vs": (
        "Minstr/vs", H, "probe", "a scheduling change shows here first"),
    "obs.tracer_overhead_pct": ("%", L, "probe",
                                "ops_per_s@serve-overload, @cluster-drain"),
    "obs.profiler_overhead_pct": ("%", L, "probe", "none (opt-in tool)"),
    "pkg.import_ms": ("ms", L, "probe", "setup_s"),
    "ledger.trace_overhead_pct": ("%", L, "trace",
                                  "bounds the harness itself; target <3"),
}
PER_LAYER.update({
    f"span.{layer}_self_pct": ("%", L, "trace",
                               "share of the traced passes' wall time")
    for layer in SPAN_LAYERS
})
PER_LAYER.update({
    metric: (spec["unit"], spec["better"], "named",
             f"end to end @{workload}, bound {spec['bound']:g}")
    for workload, named in NAMED.items() for metric, spec in named.items()
})
