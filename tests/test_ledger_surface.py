"""Every name the ledger (benchmarks/ledger) imports from the package still
exists: the ledger is run unchanged against each revision, so a refactor that
moves or drops one of these names breaks the benchmark, not just a test."""

import ast
import importlib
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger"


def _imports():
    for path in sorted(LEDGER.rglob("*.py")):
        tree = ast.parse(path.read_bytes(), str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "repro"):
                for alias in node.names:
                    yield path.relative_to(LEDGER), node.module, alias.name


def test_every_name_the_ledger_imports_exists():
    seen, missing = 0, []
    for path, module, name in _imports():
        seen += 1
        if not hasattr(importlib.import_module(module), name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{path}: from {module} import {name}")
    assert seen > 20
    assert not missing, "\n".join(missing)
