"""Source hygiene of the milnork package, read with ast alone: every import
is used, every definition is referenced, imports sit at module level, none
is of dataclasses, no value is changed in place, the certificate checker
reads nothing of the crosscheck or the builders, no json dump is
indented, every error class is raised somewhere, and cli.main catches no
builtin error but OSError.  Two more tests import the package: every exception class it
defines is a MilnorkError, and it imports cold, in a subprocess."""

import ast
import builtins
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from milnork.algebra import AlgebraElement
from milnork.errors import MilnorkError
from milnork.kahler import DifferentialForm
from milnork.laurent import LaurentPolynomial
from milnork.linalg import Vector
from milnork.poly import Polynomial

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "milnork"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree):
    """Names a module reads: bare names and the roots of dotted ones."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _references(tree):
    """Every identifier a file mentions: names, attributes, imported names,
    and each dotted part of a string constant (the bench names its call
    targets as 'Class.method' strings)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def _definitions(tree):
    """(name, line) of each top-level function and class and of each
    non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused


def test_every_definition_is_referenced():
    """A private top-level name counts as referenced only in its own module,
    or where another file reaches it by attribute or import, so a test's
    helper of the same name does not keep a dead one alive."""
    trees = {path: _tree(path)
             for top in ("src", "bench", "tests") for path in (ROOT / top).rglob("*.py")}
    everywhere = set().union(*(_references(tree) for tree in trees.values()))
    reached = {node.attr if isinstance(node, ast.Attribute) else node.name.split(".")[-1]
               for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.Attribute, ast.alias))}
    unreferenced = []
    for path in MODULES:
        own = _references(trees[path])
        for name, line in _definitions(trees[path]):
            private = name.startswith("_") and "." not in name
            if name.split(".")[-1] not in ((own | reached) if private else everywhere):
                unreferenced.append(f"{path.name}:{line} {name}")
    assert not unreferenced


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    nested = [f"{path.name}:{inner.lineno}"
              for node in ast.walk(_tree(path))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              for inner in ast.walk(node)
              if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert not nested


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    """Every CLI command pays the package import, and dataclasses costs most of
    it: it loads inspect, ast, dis and tokenize, and compiles each class's
    methods at import.  Records are namedtuples or __slots__ classes."""
    tree = _tree(path)
    modules = [(node.lineno, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    modules += [(node.lineno, node.module) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert not [f"{path.name}:{line}" for line, name in modules
                if name.split(".")[0] == "dataclasses"]


def test_cold_import_loads_no_introspection_modules():
    """-S keeps site-packages' .pth imports out of the check."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import milnork.cli, milnork.suite; "
            "print(*(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.split() == []


# the fields of values that are shared once built: polynomial, element, form
# and Laurent coords, entry atoms, symbol entries and combination terms
IMMUTABLE_FIELDS = {"coords", "atoms", "entries", "terms"}
MUTATORS = {"update", "pop", "popitem", "clear", "setdefault", "append", "extend"}


def _field_owner(node):
    """x, when node is x.<field> of IMMUTABLE_FIELDS or a subscript of one."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in IMMUTABLE_FIELDS:
        return node.value
    return None


def _changed_in_place(node):
    """The expressions that `node` changes in place: the subscripts an
    assignment writes, what `del` or an augmented assignment targets, the
    receiver of a mutating method, and the vector `add_to` accumulates into."""
    if isinstance(node, ast.Assign):
        return [t for target in node.targets for t in ast.walk(target)
                if isinstance(t, ast.Subscript) and isinstance(t.ctx, ast.Store)]
    if isinstance(node, ast.AugAssign):
        return [node.target]
    if isinstance(node, ast.Delete):
        return node.targets
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATORS:
            return [func.value]
        if isinstance(func, ast.Name) and func.id == "add_to" and node.args:
            return [node.args[0]]
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_value_is_changed_in_place(path):
    """Products by 1 hand back the other operand, and memo tables, cached keys
    and replays share values, all on the rule that a value is never changed
    after it is built.  Only an __init__ may fill its own self.<field>."""
    tree = _tree(path)
    building = {id(node) for init in ast.walk(tree)
                if isinstance(init, ast.FunctionDef) and init.name == "__init__"
                for node in ast.walk(init)}
    changed = []
    for node in ast.walk(tree):
        for owner in map(_field_owner, _changed_in_place(node)):
            own = id(node) in building and isinstance(owner, ast.Name) and owner.id == "self"
            if owner is not None and not own:
                changed.append(f"{path.name}:{node.lineno}")
    assert not changed


# a value's cached slot -> the one method that fills it
CACHES = {"_key": "key", "_str": "__str__", "_hash": "__hash__"}


def _is_self_cache(node):
    return (isinstance(node, ast.Attribute) and node.attr in CACHES
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _unset_cache(test):
    """The slot tested by `self.<slot> is None`, or None."""
    if (isinstance(test, ast.Compare) and _is_self_cache(test.left)
            and [type(op) for op in test.ops] == [ast.Is]
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        return test.left.attr
    return None


def _key_writes(node, function=None, guarded=None):
    """(line, allowed) of each write to a cached slot (`_key`, `_str`, `_hash`) under
    node: an assignment, augmented or not, a `del` or a setattr naming the
    slot.  Allowed are `self.<slot> = None` in __init__, and `self.<slot> =
    ...` in the slot's method under `if self.<slot> is None`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _key_writes(child, getattr(child, "name", None))
            continue
        targets = []
        if isinstance(child, ast.Assign):
            targets = child.targets
        elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
            targets = [child.target]
        elif isinstance(child, ast.Delete):
            targets = child.targets
        written = [t for target in targets for t in ast.walk(target)
                   if isinstance(t, ast.Attribute) and t.attr in CACHES]
        if written:
            value = getattr(child, "value", None)  # a del has none
            init = (function == "__init__" and isinstance(value, ast.Constant)
                    and value.value is None)
            filled = all(t.attr == guarded and CACHES[t.attr] == function for t in written)
            allowed = (isinstance(child, ast.Assign) and all(map(_is_self_cache, written))
                       and (init or filled))
            yield child.lineno, allowed
        if (isinstance(child, ast.Call) and any(isinstance(a, ast.Constant) and a.value in CACHES
                                                for a in child.args)):
            yield child.lineno, False
        slot = _unset_cache(child.test) if isinstance(child, ast.If) else None
        if slot:
            for stmt in child.body:
                yield from _key_writes(ast.Module([stmt], []), function, slot)
            for stmt in child.orelse:
                yield from _key_writes(ast.Module([stmt], []), function, guarded)
        else:
            yield from _key_writes(child, function, guarded)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_key_caches_are_written_once(path):
    """A value that keys itself keeps its key in `_key`, one that prints
    itself once its string in `_str`, and one that hashes by value its hash
    in `_hash`: None from __init__, then set once, in key(), __str__ or
    __hash__, under `if self.<slot> is None`.  A reset or an unguarded write
    elsewhere would let a shared value's key, text or hash change."""
    assert [f"{path.name}:{line}" for line, allowed in _key_writes(_tree(path))
            if not allowed] == []


def test_key_writes_are_found():
    """The checker sees each kind of write it rules on."""
    source = '''
class Keyed:
    def __init__(self):
        self._key = None

    def key(self):
        if self._key is None:
            self._key = 1
        return self._key

    def reset(self, other):
        self._key = None
        other._key = None

    def unguarded(self):
        self._key = 2
        del self._key
        setattr(self, "_key", 3)


class ElseBranch:
    def key(self):
        if self._key is None:
            pass
        else:
            self._key = 4
'''
    writes = list(_key_writes(ast.parse(source)))
    assert writes == [(4, True), (8, True), (12, False), (13, False), (16, False),
                      (17, False), (18, False), (26, False)]


def test_str_writes_are_found():
    """The same rules hold for `_str`, filled only by __str__."""
    source = '''
class Printed:
    def __init__(self):
        self._key = self._str = None

    def __str__(self):
        if self._str is None:
            self._str = "p"
        if self._key is None:
            self._str = "q"
        return self._str

    def key(self):
        if self._str is None:
            self._key = 1
        self._str = None
'''
    assert list(_key_writes(ast.parse(source))) == [(4, True), (8, True), (10, False),
                                                     (15, False), (16, False)]


def _closure_builders(tree):
    """Lines of the `.memo(...)` calls that pass a lambda, or a function the
    calling function defines, rather than a module-level builder or a method."""
    lines = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local = {node.name for node in ast.walk(func)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func}
        local |= {target.id for node in ast.walk(func)
                  if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda)
                  for target in node.targets if isinstance(target, ast.Name)}
        for call in ast.walk(func):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "memo"
                    and any(isinstance(arg, ast.Lambda)
                            or isinstance(arg, ast.Name) and arg.id in local
                            for arg in call.args)):
                lines.add(call.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_memo_builders_are_not_closures(path):
    """A memo hit should cost a lookup: a closure passed to `memo` is made on
    every call, hit or miss.  Callers pass a builder and its arguments."""
    assert [f"{path.name}:{line}" for line in _closure_builders(_tree(path))] == []


def test_closure_builders_are_found():
    source = '''
def build(x):
    return x


class Realizer:
    def hit(self, A, x):
        return A.memo("t", x, build, x) or A.memo("t", x, self.hit, A, x)

    def closure(self, A, x):
        def make():
            return x
        return A.memo("t", x, make)

    def lam(self, A, x):
        made = lambda: x
        return A.memo("t", x, lambda: x) or A.memo("u", x, made)
'''
    assert _closure_builders(ast.parse(source)) == [13, 17]


def test_value_classes_share_one_arithmetic():
    """Polynomials, elements, forms and Laurent polynomials take + - == and
    scalar multiples from linalg.Vector; none keeps a copy of its own."""
    shared = {"__bool__", "__eq__", "__add__", "__radd__", "__neg__", "__sub__", "scale"}
    assert shared <= vars(Vector).keys()
    for cls in (Polynomial, AlgebraElement, DifferentialForm, LaurentPolynomial):
        assert issubclass(cls, Vector) and not shared & vars(cls).keys(), cls


CERTIFY = PACKAGE / "certify.py"
# each role of certify.py after the checker begins at its banner comment
CERTIFY_BANNERS = {"builder": "# -- built-in certificate chains",
                   "crosscheck": "# -- independent dlog soundness monitor",
                   "codec": "# -- certificate (de)serialization"}
# the JSON loader builds what the checker checks, so it is part of the checker
LOADER = {"_JSON_TYPES", "_field", "certificate_from_json"}


def _certify_roles(tree, source):
    """{name: (role, names it reads)} of each top-level definition of certify.py.
    A definition's role is that of the last banner above it; the definitions
    above the first banner, and the loader, are the checker."""
    starts = [(line, role) for line, text in enumerate(source.splitlines(), 1)
              for role, banner in CERTIFY_BANNERS.items() if text.startswith(banner)]
    assert [role for _, role in starts] == list(CERTIFY_BANNERS)
    roles = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        else:
            continue
        role = next((role for line, role in reversed(starts) if line < node.lineno), "checker")
        reads = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                 and isinstance(n.ctx, ast.Load)}
        roles.update((name, ("checker" if name in LOADER else role, reads)) for name in names)
    return roles


def _trust_breaches(source):
    """Reads across certify.py's trust boundary: a name imported from .kahler
    read outside the crosscheck, and a builder or crosscheck name read by the
    checker."""
    tree = ast.parse(source)
    kahler = {alias.asname or alias.name for node in tree.body
              if isinstance(node, ast.ImportFrom) and node.module == "kahler"
              for alias in node.names}
    roles = _certify_roles(tree, source)
    untrusted = {name for name, (role, _) in roles.items() if role in ("builder", "crosscheck")}
    breaches = []
    for name, (role, reads) in roles.items():
        if role != "crosscheck":
            breaches += [f"{name} reads {read}" for read in sorted(reads & kahler)]
        if role == "checker":
            breaches += [f"{name} reads {read}" for read in sorted(reads & untrusted)]
    return breaches


def test_the_checker_reads_no_crosscheck_or_builder_name():
    """certificate.valid depends on the checker alone: the crosscheck, the one
    user of Kaehler forms, and the builders stay outside it."""
    assert _trust_breaches(CERTIFY.read_text(encoding="utf-8")) == []


def test_trust_breaches_are_found():
    source = CERTIFY.read_text(encoding="utf-8")
    planted = {"def check_certificate(cert):\n": "map_form, crosscheck_dlog, vanishing_from",
               "def vanishing_from(splitting):\n": "wedge",
               "def certificate_from_json(text):\n": "shared_realizer"}
    for line, reads in planted.items():
        assert source.count(line) == 1
        source = source.replace(line, f"{line}    {reads}\n")
    assert _trust_breaches(source) == [
        "check_certificate reads map_form", "check_certificate reads crosscheck_dlog",
        "check_certificate reads vanishing_from", "vanishing_from reads wedge",
        "certificate_from_json reads shared_realizer"]


def _indented_json(tree):
    """Lines of the json dump calls that pass `indent`, by keyword or by a
    ** mapping that may hold it: indent makes CPython's json leave its C
    encoder for the pure-Python one."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if (name in ("dump", "dumps", "JSONEncoder")
                    and any(k.arg in ("indent", None) for k in node.keywords)):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_json_dump_is_indented(path):
    """Certificates are written by certify._write, which gives the bytes of
    json.dumps(indent=1, sort_keys=True) at about the C encoder's speed."""
    assert [f"{path.name}:{line}" for line in _indented_json(_tree(path))] == []


def test_indented_json_dumps_are_found():
    source = '''
import json
from json import dumps
json.dumps({}, sort_keys=True)
json.dumps({}, indent=1, sort_keys=True)
dumps([], indent=None)
json.dump({}, fh, **options)
json.JSONEncoder(indent=2).encode({})
print("indent", json.loads("[]"), sep="")
'''
    assert _indented_json(ast.parse(source)) == [5, 6, 7, 8]



def _untyped_exceptions(namespace, module):
    """Names of the exception classes that `module` defines in `namespace`
    but that do not derive from MilnorkError."""
    return [name for name, value in namespace.items()
            if isinstance(value, type) and value.__module__ == module
            and issubclass(value, BaseException) and not issubclass(value, MilnorkError)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "__main__"],
                         ids=lambda p: p.name)
def test_every_exception_is_a_milnork_error(path):
    """Every exception the package defines derives from MilnorkError, which
    cli.main answers with exit 2, so none is a bare ValueError in disguise.
    __main__ runs the CLI when imported, and defines no class."""
    name = "milnork" if path.stem == "__init__" else f"milnork.{path.stem}"
    module = importlib.import_module(name)
    assert _untyped_exceptions(vars(module), module.__name__) == []


def test_untyped_exceptions_are_found():
    source = '''
import json
from milnork.errors import MilnorkError, ParseError


class Typed(ParseError):
    pass


class TypedToo(MilnorkError, ValueError):
    pass


class Bad(ValueError):
    pass


class Worse(Bad):
    pass


class Dotted(json.JSONDecodeError):
    pass


class Plain:
    pass
'''
    namespace = {"__name__": "planted"}
    exec(source, namespace)
    assert _untyped_exceptions(namespace, "planted") == ["Bad", "Worse", "Dotted"]


def _raised_names(tree):
    """The names a module's `raise` statements raise: `raise E`, `raise E(...)`,
    or either through a module attribute, as `errors.E`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return names


def _unraised_error_classes(errors_tree, trees):
    """The classes errors.py defines, other than the base MilnorkError, that no
    `raise` in `trees` names."""
    raised = set().union(*map(_raised_names, trees))
    return [node.name for node in errors_tree.body
            if isinstance(node, ast.ClassDef) and node.name != "MilnorkError"
            and node.name not in raised]


def test_every_error_class_is_raised():
    """An error class that no raise names is dead: the check that raised it
    went, and the class stayed behind."""
    assert _unraised_error_classes(_tree(PACKAGE / "errors.py"), map(_tree, MODULES)) == []


def test_unraised_error_classes_are_found():
    errors = ast.parse('''
class MilnorkError(Exception):
    pass


class Raised(MilnorkError):
    pass


class Called(MilnorkError):
    pass


class Dotted(MilnorkError):
    pass


class Imported(MilnorkError):
    pass


class Unnamed(MilnorkError):
    pass
''')
    module = ast.parse('''
from . import errors
from .errors import Called, Imported, Raised


def f(x):
    if x:
        raise Raised
    try:
        raise Called(f"{x}")
    except Called:
        raise
    raise errors.Dotted("no") from None
    return Imported
''')
    assert _unraised_error_classes(errors, [module]) == ["Imported", "Unnamed"]


def _builtin_errors_caught(tree, name="main"):
    """The builtin exception classes that the except clauses of the top-level
    function `name` catch, other than OSError and SystemExit (argparse's
    exit); a bare except is named "except:"."""
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)
    caught = []
    for node in ast.walk(func):
        if isinstance(node, ast.ExceptHandler):
            if node.type is None:
                caught.append("except:")
                continue
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught += [t.id for t in types if isinstance(t, ast.Name)
                       and t.id not in ("OSError", "SystemExit")
                       and isinstance(getattr(builtins, t.id, None), type)
                       and issubclass(getattr(builtins, t.id), BaseException)]
    return caught


def test_the_cli_answers_only_os_and_milnork_errors():
    """An input error reaching cli.main is an OSError or a MilnorkError; an
    engine bug that raises any other exception keeps its traceback."""
    assert _builtin_errors_caught(_tree(PACKAGE / "cli.py")) == []


def test_builtin_errors_caught_are_found():
    tree = ast.parse('''
import json


def main():
    try:
        pass
    except SystemExit:
        pass
    try:
        pass
    except (OSError, MilnorkError, ValueError):
        pass
    except json.JSONDecodeError:
        pass
    except KeyError as exc:
        pass
    except:
        pass
''')
    assert _builtin_errors_caught(tree) == ["ValueError", "KeyError", "except:"]
