"""No name in src/repro is kept alive only by tests: each top-level
function or class, each public method or property of a class, and each
attribute a method stores on ``self`` must be used from the package
itself, benchmarks/ or examples/.

A top-level definition is used through a name or attribute use; a plain
import or a re-export does not count, while ``from x import Name as
_Name`` does (the package imports its error classes that way).  A method
or property is used only through an attribute use (``.name``) or a string
constant that spells it (``getattr(sb, name)`` over a tuple of names): a
bare local that happens to share its name does not count.  A use counts
only for the classes its scope can reach: the classes the enclosing
function defines or imports if any of them defines the name, else those
its module defines or imports, each with its bases and subclasses (a call
on a base may run an override).  An attribute use whose scopes reach no
class defining the name counts for every one of them; such a string
counts for none.
A stored attribute is used only through an attribute *load* (a store or
an augmented assignment reads nothing out) or a string constant
(``getattr(sb, "translations")``).  Dunders are private by spelling, and
a method that overrides a hook of a class outside the package
(``pickle.Unpickler.find_class``) is called by that class."""

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

#: "Class.attribute" -> why it may be read by tests alone.
ALLOWED_ATTRIBUTES = {
    "MemoryFault.access":
        "part of a fault's identity (kind, address, access) that the "
        "engine twins compare; its message spells it",
    "Runtime.calls_inline":
        "test oracle: the leaf calls that returned into live registers",
}


@functools.lru_cache(maxsize=None)
def _trees():
    return tuple((path, ast.parse(path.read_bytes(), str(path)))
                 for top in CODE for path in sorted(top.rglob("*.py")))


@functools.lru_cache(maxsize=None)
def _references():
    """(bare names used, attributes used, attributes loaded,
    identifier-like string constants)."""
    names, attributes, loaded, spelled = set(), set(), set(), set()
    for _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
            elif isinstance(node, ast.alias) and node.asname:
                names.add(node.name.rpartition(".")[2])
            elif (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.isidentifier()):
                spelled.add(node.value)
    return names, attributes, loaded, spelled


def _classes():
    """(path, class node) of every class defined in src/repro."""
    for path, tree in _trees():
        if path.is_relative_to(CODE[0]):
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    yield path, node


def _module_of(path: Path) -> str:
    """Dotted module name of a file under CODE (``benchmarks.x`` too)."""
    top = ROOT / "src" if path.is_relative_to(CODE[0]) else ROOT
    parts = path.relative_to(top).with_suffix("").parts
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
    names, attributes, _, _ = _references()
    orphans = sorted(f"{path}: {name}" for name, path in defined.items()
                     if name not in names | attributes
                     and name not in ALLOWED)
    assert not orphans, "only tests (if anything) call:\n" + "\n".join(orphans)


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


@functools.lru_cache(maxsize=None)
def _hierarchy():
    """(module -> class names it defines, class name -> the names of its
    bases, subclasses and itself), over the classes of src/repro."""
    defines, parents = {}, {}
    for path, cls in _classes():
        defines.setdefault(_module_of(path), set()).add(cls.name)
        parents.setdefault(cls.name, set()).update(
            base.id if isinstance(base, ast.Name) else base.attr
            for base in cls.bases
            if isinstance(base, (ast.Name, ast.Attribute)))
    children = {}
    for name, bases in parents.items():
        for base in bases:
            children.setdefault(base, set()).add(name)

    def closure(name, edges):
        seen, stack = set(), [name]
        while stack:
            for other in edges.get(stack.pop(), ()):
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return seen

    related = {name: {name} | closure(name, parents) | closure(name, children)
               for name in parents}
    return defines, related


def _reach(path: Path, scope) -> set:
    """Class names ``scope`` (a module or a function) defines or imports."""
    defines, _ = _hierarchy()
    package = _module_of(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    reached, stack = set(), list(ast.iter_child_nodes(scope))
    while stack:  # the scope's own statements: not its functions' imports
        node = stack.pop()
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.ClassDef):
            reached.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                reached |= defines.get(alias.name, set())
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            for alias in node.names:
                reached.add(alias.name)
                reached |= defines.get(f"{module}.{alias.name}", set())
    return reached


@functools.lru_cache(maxsize=None)
def _method_uses():
    """Method name -> the class names its uses count for, or None where
    some attribute use reaches no class defining the name (a string that
    reaches none counts for none)."""
    _, related = _hierarchy()
    definers = {}
    for _, cls in _classes():
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                definers.setdefault(node.name, set()).add(cls.name)
    uses = {}

    def resolve(name, scopes):
        for reach in scopes:
            hits = {owner for reached in reach
                    for owner in related.get(reached, set()) & definers[name]}
            if hits:
                return hits
        return None

    def visit(path, node, scopes):
        if isinstance(node, ast.Attribute) and node.attr in definers:
            hits = resolve(node.attr, scopes)
            seen = uses.setdefault(node.attr, set())
            if hits is None or seen is None:
                uses[node.attr] = None
            else:
                seen |= hits
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value in definers):
            hits = resolve(node.value, scopes)
            if hits and uses.setdefault(node.value, set()) is not None:
                uses[node.value] |= hits
        if isinstance(node, _FUNCTIONS):
            scopes = [_reach(path, node)] + scopes
        for child in ast.iter_child_nodes(node):
            visit(path, child, scopes)

    for path, tree in _trees():
        visit(path, tree, [_reach(path, tree)])
    return uses


def test_every_public_method_has_a_caller_outside_tests():
    uses = _method_uses()
    orphans = []
    for path, cls in _classes():
        for node in cls.body:
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or node.name.startswith("_")):
                continue
            counted = uses.get(node.name, set())
            if (counted is not None and cls.name not in counted
                    and f"{cls.name}.{node.name}" not in ALLOWED_METHODS
                    and not _overrides_foreign_hook(path, cls.name,
                                                    node.name)):
                orphans.append(f"{path.relative_to(ROOT)}: "
                               f"{cls.name}.{node.name}")
    assert not orphans, "only tests (if anything) call:\n" + "\n".join(
        sorted(orphans))


def test_every_stored_attribute_is_read_outside_tests():
    _, _, loaded, spelled = _references()
    read = loaded | spelled
    orphans = set()
    for path, cls in _classes():
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(method):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                        and node.attr not in read
                        and f"{cls.name}.{node.attr}"
                        not in ALLOWED_ATTRIBUTES):
                    orphans.add(f"{path.relative_to(ROOT)}: "
                                f"{cls.name}.{node.attr}")
    assert not orphans, "only tests (if anything) read:\n" + "\n".join(
        sorted(orphans))

