"""The performance ledger: six workloads, end-to-end and per-layer.

One benchmark for the whole stack (ROADMAP needle 1).  ``run.py`` is the
single-workload entry point ``BENCHMARK.json`` names; ``python -m
benchmarks.ledger`` runs all six workloads, each in a fresh subprocess,
and writes one JSON document.  See ``README.md`` in this directory for
the metric tables and how to read a trace.

Nothing here edits ``src/``: every layer is measured from outside, by
timing calls into its public functions.
"""
