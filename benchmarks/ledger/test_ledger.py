"""Tests of the ledger itself (not part of tier-1: outside ``testpaths``).

    PYTHONPATH=src python -m pytest -q benchmarks/ledger
"""

import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.ledger import harness
from benchmarks.ledger.compare import compare_documents
from benchmarks.ledger.metrics import END_TO_END, NAMED, PER_LAYER
from benchmarks.ledger.spans import tree_problems
from benchmarks.ledger.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = {key: {m["name"] for m in MANIFEST[key]}
            for key in ("workloads", "end_to_end", "per_layer")}
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(arguments, cwd=ROOT):
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}")
    return subprocess.run([sys.executable, *arguments], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One whole-ledger ``--smoke`` run: (document, trace directory)."""
    out = tmp_path_factory.mktemp("ledger")
    done = _run(["-m", "benchmarks.ledger", "--smoke", "--seed", "7",
                 "--out", str(out / "ledger.json")], cwd=out)
    assert done.returncode == 0, done.stdout + done.stderr
    return (json.loads((out / "ledger.json").read_text()),
            out / harness.TRACE_DIR)


def test_manifest_matches_the_metric_tables():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == \
        {name: w.WHY for name, w in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in MANIFEST["end_to_end"]} == \
        {n: (r["unit"], r["better"], r["bound"])
         for n, r in END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"])
            for m in MANIFEST["per_layer"]} == \
        {n: r[:2] for n, r in PER_LAYER.items()}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in MANIFEST[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


def test_smoke_run_emits_exactly_the_declared_names(smoke):
    document, _out = smoke
    assert set(document["workloads"]) == DECLARED["workloads"]
    for name, row in document["workloads"].items():
        assert row["ops_failed"] == 0, name
        assert row["ops_attempted"] >= 1, name
        # Every workload reports the manifest's end-to-end metrics and its
        # own named ones; all of them are declared, the named ones under
        # per_layer, where the workloads that do not own them report 0.
        assert set(row["end_to_end"]) == \
            DECLARED["end_to_end"] | set(NAMED[name])
        assert set(row["per_layer"]) | set(document["probes"]) == \
            DECLARED["per_layer"]
        assert not set(row["per_layer"]) & set(document["probes"])
        for owner, named in NAMED.items():
            for metric in named:
                assert (row["per_layer"][metric] != 0) == (owner == name), \
                    (name, metric)
    assert {"nproc", "python", "git_head", "loadavg_1m", "loadavg_1m_end",
            "repro_env"} <= set(document["env"])


def test_every_workload_reports_trace_overhead_and_layer_shares(smoke):
    document, _out = smoke
    rows = document["workloads"]
    for name, row in rows.items():
        assert "ledger.trace_overhead_pct" in row["per_layer"], name
        shares = sum(v for k, v in row["per_layer"].items()
                     if k.startswith("span."))
        assert shares == pytest.approx(100.0, abs=0.01), name
    assert rows["toolchain"]["per_layer"]["span.emulator_self_pct"] == 0
    assert rows["exec-steady"]["per_layer"]["span.emulator_self_pct"] > 50
    for name, row in rows.items():
        ipc = row["per_layer"]["cluster.ipc_ms_per_job"]
        assert (ipc != 0) == (name == "cluster-drain"), name


@pytest.mark.parametrize("workload", ["cold-start", "toolchain",
                                      "serve-overload"])
def test_span_tree_is_well_formed(smoke, workload):
    _document, out = smoke
    trace = json.loads((out / f"trace-{workload}.json").read_text())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert [e["args"]["id"] for e in spans] == list(range(len(spans)))
    events = [[e["name"], e["ts"] / 1e6, (e["ts"] + e["dur"]) / 1e6,
               e["args"]["parent"], e["args"]["request"]] for e in spans]
    assert len(events) > 10
    assert tree_problems(events, tolerance=1e-6) == []
    if workload == "cold-start":
        roots = [e for e in events if e[0] == "cluster.execute_job"]
        assert len({e[4] for e in roots}) == len(roots) >= 21


def test_tree_problems_sees_a_child_outside_its_parent():
    good = [["a.root", 0.0, 1.0, -1, 1], ["b.child", 0.2, 0.5, 0, 1]]
    assert tree_problems(good) == []
    assert tree_problems([good[0], ["b.child", 0.2, 1.5, 0, 1]])
    assert tree_problems(good + [["a.root", 2.0, 3.0, -1, 1]])


def test_driver_protocol_untraced_and_traced(tmp_path):
    common = ["--workload", "toolchain", "--seed", "5", "--seconds", "0.2",
              "--smoke"]
    for trace, declared in (("0", DECLARED["end_to_end"]),
                            ("1", DECLARED["per_layer"])):
        done = _run([str(ROOT / "benchmarks/ledger/run.py"), *common,
                     "--trace", trace], cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        assert set(last["metrics"]) == declared
        for name, cell in last["metrics"].items():
            assert set(cell) == {"value", "unit"}
            assert isinstance(cell["value"], (int, float)), name
            assert name in done.stdout


def test_driver_refuses_to_run_without_the_program(tmp_path):
    target = tmp_path / "benchmarks" / "ledger"
    target.parent.mkdir()
    subprocess.run(["cp", "-r", str(ROOT / "benchmarks" / "ledger"),
                    str(target)], check=True)
    done = _run([str(target / "run.py"), "--workload", "toolchain",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_a_wrong_expected_value_is_a_failed_operation():
    expected = harness.load_expected()
    good = harness.measure("exec-steady", 1, passes=1, smoke=True,
                           expected=expected)
    assert good["ops_failed"] == 0
    wrong = copy.deepcopy(expected)
    wrong["smoke"]["exec-steady"]["505.mcf/lfi-O2"][2] += 1.0  # cycles
    bad = harness.measure("exec-steady", 1, passes=1, smoke=True,
                          expected=wrong)
    assert bad["ops_failed"] == 1
    assert bad["ops_attempted"] == good["ops_attempted"]


def test_compare_self_is_ok_and_a_slower_copy_regresses(smoke):
    document, _out = smoke
    rows, passed = compare_documents(document, document)
    assert passed and {row[-1] for row in rows} == {"ok"}

    def with_throughput(factor, low, high):
        """A copy whose toolchain compile throughput (bound 0.10) is
        ``factor`` x the original, its passes spanning ``low``..``high``
        of that."""
        copy_ = copy.deepcopy(document)
        cell = copy_["workloads"]["toolchain"]["end_to_end"][
            "compile_kinstr_per_s"]
        cell["value"] *= factor
        cell["pass_values"] = [cell["value"] * low, cell["value"] * high]
        return copy_

    steady = with_throughput(1.0, 0.99, 1.01)
    rows, passed = compare_documents(steady, with_throughput(0.8, 0.99, 1.01))
    verdicts = {(row[0], row[1]): row[-1] for row in rows}
    assert not passed
    assert verdicts[("toolchain", "compile_kinstr_per_s")] == "regressed"
    assert verdicts[("toolchain", "ops_per_s")] == "ok"
    # Passes spread wider than the bound and overlapping A's: cannot tell.
    rows, passed = compare_documents(steady, with_throughput(0.8, 0.7, 1.3))
    verdicts = {(row[0], row[1]): row[-1] for row in rows}
    assert passed
    assert verdicts[("toolchain", "compile_kinstr_per_s")] == "unresolved"
    failing = copy.deepcopy(document)
    failing["workloads"]["call-heavy"]["ops_failed"] = 1
    assert not compare_documents(document, failing)[1]


def test_compare_holds_a_deterministic_metric_to_bound_zero(smoke):
    document, _out = smoke
    moved = copy.deepcopy(document)
    cell = moved["workloads"]["serve-overload"]["end_to_end"][
        "virt_gold_p99_ms"]
    assert cell["bound"] == 0 and cell["value"] > 0
    cell["value"] *= 1.0001
    rows, passed = compare_documents(document, moved)
    verdicts = {(row[0], row[1]): row[-1] for row in rows}
    assert not passed
    assert verdicts[("serve-overload", "virt_gold_p99_ms")] == "regressed"
    # Better, or from a value there is no share of, is not a regression.
    assert compare_documents(moved, document)[1]
    cell["value"] = float("inf")
    assert compare_documents(moved, document)[1]
    assert not compare_documents(document, moved)[1]
