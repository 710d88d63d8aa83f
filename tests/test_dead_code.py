"""No public name in src/repro is kept alive only by tests: each top-level
function or class, and each public method or property of a class, must be
referenced from the package itself, benchmarks/ or examples/.

A reference is a name or attribute use; a plain import or a re-export does
not count, while ``from x import Name as _Name`` does (the package imports
its error classes that way).  For methods, a string constant that spells
the name counts too: the ledger's span recorder wraps methods by name.
Dunders are private by spelling, and a method that overrides a hook of a
class outside the package (``pickle.Unpickler.find_class``) is called by
that class."""

import ast
import functools
import importlib
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
CODE = (ROOT / "src" / "repro", ROOT / "benchmarks", ROOT / "examples")

#: name -> why it may have no caller outside tests.
ALLOWED = {
    **{name: "the repro.__all__ API" for name in repro.__all__},
    "WeakenedVerifier": "unsound twin the prover must find holes in",
    "decode_text": "whole-segment twin of decode_word for decoder tests",
    "decoding_class": "class-space probe the round-trip tests check",
    "decoder_names": "class-space probe the round-trip tests check",
    "reencode_word": "round-trip probe the encoding tests compare with",
    "parse_register": "strict twin of lookup_register for parser tests",
}

#: "Class.method" -> why it may have no caller outside tests.
ALLOWED_METHODS = {
    "ContainmentAuditor.assert_clean":
        "test oracle: raises on any recorded containment violation",
}


@functools.lru_cache(maxsize=None)
def _trees():
    return tuple((path, ast.parse(path.read_bytes(), str(path)))
                 for top in CODE for path in sorted(top.rglob("*.py")))


def _references():
    """(names and attributes used, identifier-like string constants)."""
    used, spelled = set(), set()
    for _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias) and node.asname:
                used.add(node.name.rpartition(".")[2])
            elif (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.isidentifier()):
                spelled.add(node.value)
    return used, spelled


def _module_of(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _overrides_foreign_hook(path: Path, cls: str, name: str) -> bool:
    klass = getattr(importlib.import_module(_module_of(path)), cls, None)
    return klass is not None and any(
        name in vars(base) for base in klass.__mro__[1:]
        if not base.__module__.startswith("repro"))


def test_every_public_definition_has_a_caller_outside_tests():
    defined = {}
    for path, tree in _trees():
        if path.is_relative_to(CODE[0]):
            for node in tree.body:
                if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")):
                    defined[node.name] = path.relative_to(ROOT)
    used, _ = _references()
    orphans = sorted(f"{path}: {name}" for name, path in defined.items()
                     if name not in used and name not in ALLOWED)
    assert not orphans, "only tests (if anything) call:\n" + "\n".join(orphans)


def test_every_public_method_has_a_caller_outside_tests():
    used, spelled = _references()
    referenced = used | spelled
    orphans = []
    for path, tree in _trees():
        if not path.is_relative_to(CODE[0]):
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")
                        and node.name not in referenced
                        and f"{cls.name}.{node.name}" not in ALLOWED_METHODS
                        and not _overrides_foreign_hook(path, cls.name,
                                                        node.name)):
                    orphans.append(f"{path.relative_to(ROOT)}: "
                                   f"{cls.name}.{node.name}")
    assert not orphans, "only tests (if anything) call:\n" + "\n".join(
        sorted(orphans))

