"""DESIGN.md and README.md name only what exists.

In every inline code span of the two documents, a ``repro.…`` dotted name
must import (module, then attributes), a ``*.py`` path must be a file of
the tree, and a snake_case or CamelCase identifier must be a name or a
word of a string in some Python file under src/, benchmarks/ or examples/
(a file under tests/ vouches only for test names, ``test_*`` and
``Test*``, and for the upper-case words of its strings, the environment
variables a test reads; so a test helper cannot keep a deleted method's
name alive).  Comments do not count: a name that survives only in a
comment is as stale as the document.  And DESIGN.md §4's experiment index
has a row for every section that ``python -m benchmarks.paper`` writes
into EXPERIMENTS.md.
"""

import importlib
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("DESIGN.md", "README.md")
CODE_DIRS = ("src", "benchmarks", "examples")
PYFILES = sorted(p for top in CODE_DIRS + ("tests",)
                 for p in (ROOT / top).rglob("*.py"))
TEST_NAME = re.compile(r"_*(?:test_|Test)")
UPPER = re.compile(r"[A-Z][A-Z0-9_]*$")

WORD = re.compile(r"[A-Za-z_]\w*")
FENCED = re.compile(r"^```.*?^```", re.S | re.M)
SPAN = re.compile(r"`([^`]+)`")
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
PATH = re.compile(r"[\w./*-]*\w\.py\b")
SNAKE = re.compile(r"(?<![\w.-])_*[A-Za-z][A-Za-z0-9]*(?:_[A-Za-z0-9]+)+"
                   r"(?![\w-])")
CAMEL = re.compile(r"(?<![\w.-])_*[A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)+"
                   r"(?![\w-])")


def _code_names():
    names = set()
    for path in PYFILES:
        code = path.relative_to(ROOT).parts[0] in CODE_DIRS
        with open(path, "rb") as source:
            for token in tokenize.tokenize(source.readline):
                if token.type == tokenize.NAME:
                    words, env = [token.string], False
                elif token.type == tokenize.STRING:
                    words, env = WORD.findall(token.string), True
                else:
                    continue
                names.update(word for word in words if code
                             or TEST_NAME.match(word)
                             or env and UPPER.match(word))
    return names


def _imports(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def _spans(doc):
    text = FENCED.sub("", (ROOT / doc).read_text())
    return [m.group(1) for m in SPAN.finditer(text)]


def test_every_code_name_in_the_docs_resolves():
    names = _code_names()
    files = {p.relative_to(ROOT).as_posix() for p in PYFILES}
    missing = []
    for doc in DOCS:
        for span in _spans(doc):
            for dotted in DOTTED.findall(span):
                if not _imports(dotted):
                    missing.append(f"{doc}: {dotted}")
            span = DOTTED.sub(" ", span)
            for path in PATH.findall(span):
                if not any(f == path or f.endswith("/" + path)
                           for f in files):
                    missing.append(f"{doc}: {path}")
            span = PATH.sub(" ", span)
            missing += [f"{doc}: {name}"
                        for name in SNAKE.findall(span) + CAMEL.findall(span)
                        if name not in names]
    assert not missing, "names nothing in the tree:\n" + "\n".join(missing)


def test_experiment_index_covers_every_generated_section():
    design = (ROOT / "DESIGN.md").read_text()
    index = design.split("\n## 4.", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in index.splitlines()
            if line.startswith("| **")]
    indexed = {name for row in rows
               for name in SPAN.findall(row.rstrip(" |").rsplit("|", 1)[1])}
    generated = set(re.findall(r"<!-- paper:([\w-]+) -->",
                               (ROOT / "EXPERIMENTS.md").read_text()))
    assert generated and indexed == generated
