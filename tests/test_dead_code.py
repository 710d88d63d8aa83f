"""No name in src/repro is kept alive only by tests: each top-level
function or class, each public method or property of a class, and each
attribute a method stores on ``self`` must be used from the package
itself, benchmarks/ or examples/.

A top-level definition is used through a name or attribute use; a plain
import or a re-export does not count, while ``from x import Name as
_Name`` does (the package imports its error classes that way).  A method
or property is used only through an attribute use (``.name``) or a string
constant that spells it (``getattr(sb, name)`` over a tuple of names): a
bare local that happens to share its name does not count.  A use
through a receiver of known class - ``self.x`` where the class stores
``x`` only as ``C(...)`` or as a parameter annotated ``C``, a parameter
annotated ``C``, a local that every binding in its function binds to
``C(...)`` (``x = C(...)``, ``with C(...) as x``), or ``self`` in a
method of ``C`` - counts only for ``C``; any other use counts
only for the classes its scope can reach: the classes the enclosing
function defines or imports if any of them defines the name, else those
its module defines or imports.  Either way a class counts with its bases
and subclasses (a call on a base may run an override).  An attribute use
whose scopes reach no class defining the name counts for every one of
them; such a string counts for none.
A stored attribute is used only through an attribute *load* (a store or
an augmented assignment reads nothing out), which counts for the class
of a known receiver and else for every class, or a string constant
(``getattr(sb, "translations")``) that reaches, as a method's does, a
class whose methods store it on ``self``.  Dunders are private by
spelling, and a method that overrides a hook of a class outside the
package (``pickle.Unpickler.find_class``) is called by that class."""

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
    "UnknownInstructionTrap.word":
        "the undecodable word a trap carries, which the emulator tests "
        "check; its message spells it",
    "Runtime.calls_inline":
        "test oracle: the leaf calls that returned into live registers",
}


@functools.lru_cache(maxsize=None)
def _trees():
    return tuple((path, ast.parse(path.read_bytes(), str(path)))
                 for top in CODE for path in sorted(top.rglob("*.py")))


@functools.lru_cache(maxsize=None)
def _references():
    """(bare names used, attributes used)."""
    names, attributes = set(), set()
    for _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias) and node.asname:
                names.add(node.name.rpartition(".")[2])
    return names, attributes


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
    names, attributes = _references()
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


def _stores(method):
    """The attribute nodes ``method`` stores on ``self``."""
    return [node for node in ast.walk(method)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"]


def _class_named(node, related):
    """The package class an expression names (``C``, ``m.C``, ``"C"``,
    ``Optional[C]``), or None."""
    if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "Optional"):
        node = node.slice
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return None
    return name if name in related else None


def _fields(cls, related):
    """Attribute -> the classes its stores name, for each attribute every
    method stores on ``self`` only as ``C(...)``, as a parameter
    annotated ``C``, or as None."""
    fields, mixed = {}, set()
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = _params(method, related)
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                if isinstance(value, ast.Constant) and value.value is None:
                    continue
                if isinstance(value, ast.Call):
                    known = {_class_named(value.func, related)} - {None}
                elif isinstance(value, ast.Name):
                    known = params.get(value.id, set())
                else:
                    known = set()
                if known:
                    fields.setdefault(target.attr, set()).update(known)
                else:
                    mixed.add(target.attr)
    return {attr: known for attr, known in fields.items()
            if attr not in mixed}


def _params(function, related):
    """Parameter -> the class its annotation names, for ``function``."""
    if isinstance(function, ast.Lambda):
        return {}
    arguments = function.args
    params = {}
    for arg in (arguments.posonlyargs + arguments.args
                + arguments.kwonlyargs):
        known = (_class_named(arg.annotation, related)
                 if arg.annotation is not None else None)
        if known is not None:
            params[arg.arg] = {known}
    return params


def _scope_types(function, related, outer):
    """Name -> the classes it holds inside ``function``: a parameter
    annotated ``C``, a local that every binding in the function binds to
    ``C(...)`` (``x = C(...)`` or ``with C(...) as x``), and a name of
    ``outer`` the function does not bind."""
    nodes, stack = [], list(ast.iter_child_nodes(function))
    while stack:  # the function's own scope: not its nested functions
        node = stack.pop()
        nodes.append(node)
        if not isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))
    typed, bound, mixed = {}, set(), set()
    for node in nodes:
        if isinstance(node, ast.Assign):
            pairs = [(target, node.value) for target in node.targets]
        elif isinstance(node, ast.withitem):
            pairs = [(node.optional_vars, node.context_expr)]
        else:
            continue
        for target, value in pairs:
            known = (_class_named(value.func, related)
                     if isinstance(value, ast.Call) else None)
            if isinstance(target, ast.Name) and known is not None:
                typed.setdefault(target.id, set()).add(known)
                bound.add(target)
    arguments = [arg.arg for arg in ast.walk(function.args)
                 if isinstance(arg, ast.arg)]
    for node in nodes:
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                and node not in bound):
            mixed.add(node.id)
    shadowed = mixed | set(typed) | set(arguments)
    return {**{name: known for name, known in outer.items()
               if name not in shadowed},
            **{name: known for name, known in typed.items()
               if name not in mixed and name not in arguments},
            **_params(function, related)}


@functools.lru_cache(maxsize=None)
def _uses(stored: bool = False):
    """Method name (``stored``: stored attribute name) -> the class names
    its uses count for, or None where some use counts for every class.
    A use through ``self.x`` where every store of ``x`` is ``C(...)``, or
    through a parameter annotated ``C``, counts for ``C`` (with its bases
    and subclasses); another method use counts for the classes its
    scopes reach, and is None where they reach no class defining the
    name; another attribute load is None.  A string that reaches no
    definer counts for none."""
    _, related = _hierarchy()
    definers = {}
    for _, cls in _classes():
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for name in ({store.attr for store in _stores(node)}
                             if stored else {node.name}):
                    definers.setdefault(name, set()).add(cls.name)
    uses = {}

    def resolve(name, scopes):
        for reach in scopes:
            hits = {owner for reached in reach
                    for owner in related.get(reached, set()) & definers[name]}
            if hits:
                return hits
        return None

    def typed(name, receiver, fields, params):
        """The definers of ``name`` a receiver's known class reaches (the
        class of ``self.x = C(...)`` or of a parameter annotated ``C``),
        or None when the receiver's class is unknown."""
        if (isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"):
            known = fields.get(receiver.attr)
        elif isinstance(receiver, ast.Name):
            known = params.get(receiver.id)
        else:
            known = None
        if not known:
            return None
        return {owner for cls in known
                for owner in related.get(cls, set()) & definers[name]}

    def visit(path, node, scopes, fields=None, params=None, owner=None):
        if isinstance(node, _FUNCTIONS):
            params = _scope_types(node, related, params or {})
            first = (node.args.posonlyargs + node.args.args)[:1]
            if owner is not None and first and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list):
                params[first[0].arg] = {owner}
        owner = None
        if isinstance(node, ast.ClassDef):
            fields = _fields(node, related)
            owner = node.name if node.name in related else None
        if (isinstance(node, ast.Attribute) and node.attr in definers
                and (not stored or isinstance(node.ctx, ast.Load))):
            hits = typed(node.attr, node.value, fields or {}, params or {})
            if hits is None and not stored:
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
            visit(path, child, scopes, fields, params, owner)

    for path, tree in _trees():
        visit(path, tree, [_reach(path, tree)])
    return uses


def test_every_public_method_has_a_caller_outside_tests():
    uses = _uses()
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
    loads = _uses(stored=True)
    orphans = set()
    for path, cls in _classes():
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            for node in _stores(method):
                counted = loads.get(node.attr, set())
                if (counted is not None and cls.name not in counted
                        and f"{cls.name}.{node.attr}"
                        not in ALLOWED_ATTRIBUTES):
                    orphans.add(f"{path.relative_to(ROOT)}: "
                                f"{cls.name}.{node.attr}")
    assert not orphans, "only tests (if anything) read:\n" + "\n".join(
        sorted(orphans))


def test_a_receiver_of_known_class_counts_for_that_class():
    """``self.x = C(...)``, ``self.x = param: C`` and a parameter
    annotated ``Optional[C]`` type their receivers; anything else stored
    in the same attribute leaves it untyped."""
    _, related = _hierarchy()
    cls = ast.parse(
        "class Host:\n"
        "    def __init__(self, runtime: Runtime, pool: 'WarmPool'):\n"
        "        self.runtime = runtime\n"
        "        self.pool = WarmPool(runtime)\n"
        "        self.gen = None\n"
        "        self.either = pool or runtime\n"
        "    def step(self, book: Optional[RestartBook], n: int,\n"
        "             jobs: List[Job]):\n"
        "        self.pool = None\n").body[0]
    assert _fields(cls, related) == {"runtime": {"Runtime"},
                                     "pool": {"WarmPool"}}
    assert _params(cls.body[1], related) == {"book": {"RestartBook"}}


def test_a_local_bound_to_a_class_call_counts_for_that_class():
    """``x = C(...)`` and ``with C(...) as x:`` type ``x`` in its
    function, and an outer name stays typed inside; a local bound any
    other way too, a parameter, or a name a nested function binds again
    is untyped."""
    _, related = _hierarchy()
    life = ast.parse(
        "def life(book: RestartBook, pool, n):\n"
        "    cluster = Cluster(workers=1)\n"
        "    with Cluster(workers=2) as other:\n"
        "        other.drain()\n"
        "    either = Gateway({})\n"
        "    either = pool\n"
        "    pool = WarmPool(None)\n"
        "    for n in range(3):\n"
        "        n = Job(n, b'')\n"
        "    def inner(book):\n"
        "        cluster = None\n"
        "        return other, book\n"
        "    return cluster\n").body[0]
    outer = {"outer": {"Runtime"}, "cluster": {"Job"}, "either": {"Job"}}
    scope = _scope_types(life, related, outer)
    assert scope == {"outer": {"Runtime"}, "cluster": {"Cluster"},
                     "other": {"Cluster"}, "book": {"RestartBook"}}
    inner = life.body[-2]
    assert _scope_types(inner, related, scope) == {
        "outer": {"Runtime"}, "other": {"Cluster"}}
