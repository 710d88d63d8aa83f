"""No public top-level function or class in src/repro is kept alive only by
tests: each must be referenced from the package itself, benchmarks/ or
examples/.  A reference is a name or attribute use; a plain import or a
re-export does not count, while ``from x import Name as _Name`` does (the
package imports its error classes that way)."""

import ast
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


def _trees():
    for top in CODE:
        for path in sorted(top.rglob("*.py")):
            yield path, ast.parse(path.read_bytes(), str(path))


def test_every_public_definition_has_a_caller_outside_tests():
    defined, used = {}, set()
    for path, tree in _trees():
        if path.is_relative_to(CODE[0]):
            for node in tree.body:
                if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")):
                    defined[node.name] = path.relative_to(ROOT)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias) and node.asname:
                used.add(node.name.rpartition(".")[2])
    orphans = sorted(f"{path}: {name}" for name, path in defined.items()
                     if name not in used and name not in ALLOWED)
    assert not orphans, "only tests (if anything) call:\n" + "\n".join(orphans)
