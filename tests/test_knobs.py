"""Every defaulted parameter of the package is set by some call in it,
and read by some call in it.

A default that no call in ``src/hamalg`` overrides is a constant in
disguise: it doubles the configurations the tests would have to cover,
and a caller could change an input without the report recording it.  A
default that every call overrides is never read: its value is declared
a second time, away from the one that counts, and can drift from it
unnoticed.

The scan walks the package with ``ast``.  For each top-level function,
each method of a top-level class and each field of a top-level
``@dataclass`` (a parameter of its generated ``__init__``), every
parameter with a default must be passed, by keyword or by position, by
at least one call in the package, and left out by at least one.  Calls
are matched by name: a method by its attribute name, an ``__init__`` by
its class name, and a function imported under another name by its
original one.  So a name shared by several functions counts a call to
any of them, and a ``**mapping`` or ``*sequence`` argument sets nothing.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hamalg"

#: (function, parameter) pairs kept settable although no call in the
#: package sets them
ALLOWED = {
    # the console entry point; tests and the benchmark pass argv
    ("main", "argv"),
    # the deliberately broken algebra's scales, set by the tests it serves
    ("CorruptedAlgebra.__init__", "alpha_scale"),
    ("CorruptedAlgebra.__init__", "sigma_scale"),
}

#: (function, parameter) pairs whose default every call in the package
#: overrides, kept for the tests that read it
ALWAYS_SET = {
    # a single draw, block=None, is trial 0 of a block of one: the tests
    # draw single elements to compare a block's trials with
    ("HamiltonAlgebra.random_element", "block"),
    ("OperatorAlgebra.random_element", "block"),
    ("PhaseSpaceAlgebra.random_element", "block"),
    ("CorruptedAlgebra.random_element", "block"),
    ("ComposedAlgebra.random_element", "block"),
    ("random_hybrid_observable", "block"),
    # an element with no terms, the zero element, which the tests build
    ("HybridElement.__init__", "terms"),
    ("PhaseSpacePoly.__init__", "terms"),
}


def _modules():
    return {path: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _is_method(node: ast.FunctionDef) -> bool:
    return not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                   for d in node.decorator_list)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass"
               for d in node.decorator_list)


def _defaulted(node: ast.FunctionDef, offset: int):
    """(positional index or None, name) of each parameter with a default;
    the index counts from the first argument a call writes."""
    positional = node.args.posonlyargs + node.args.args
    for i in range(len(positional) - len(node.args.defaults), len(positional)):
        yield i - offset, positional[i].arg
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _defaulted_fields(node: ast.ClassDef):
    """(positional index, name) of each field of a dataclass with a
    default, as a parameter of its generated ``__init__``."""
    fields = [item for item in node.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    for i, item in enumerate(fields):
        if item.value is not None:
            yield i, item.target.id


def _definitions(tree):
    """(qualified name, call name, positional index or None, parameter) of
    each defaulted parameter of each top-level function, method of a
    top-level class and field of a top-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for index, param in _defaulted(node, 0):
                yield node.name, node.name, index, param
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                for index, param in _defaulted_fields(node):
                    yield f"{node.name}.__init__", node.name, index, param
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    call_name = node.name if item.name == "__init__" else item.name
                    for index, param in _defaulted(item, int(_is_method(item))):
                        yield f"{node.name}.{item.name}", call_name, index, param


def _calls(tree):
    """(callee name, positional count, keyword names) of each call."""
    aliases = {a.asname: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            continue
        positional = 0
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                break
            positional += 1
        yield (aliases.get(name, name), positional,
               {k.arg for k in node.keywords if k.arg is not None})


def settings(modules) -> dict:
    """(function, parameter) of each defaulted parameter, to one flag per
    call in ``modules`` of its name: whether that call sets it."""
    calls = {}
    for tree in modules.values():
        for name, positional, keywords in _calls(tree):
            calls.setdefault(name, []).append((positional, keywords))
    return {(qualname, param): [param in keywords or (index is not None and index < positional)
                                for positional, keywords in calls.get(call_name, [])]
            for tree in modules.values()
            for qualname, call_name, index, param in _definitions(tree)}


def unset_defaults(modules) -> list:
    """``function(parameter)`` for each defaulted parameter no call sets."""
    return [f"{qualname}({param})" for (qualname, param), sets in settings(modules).items()
            if not any(sets) and (qualname, param) not in ALLOWED]


def unread_defaults(modules) -> list:
    """``function(parameter)`` for each defaulted parameter that some call
    sets and every call sets, so that no call reads its default."""
    return [f"{qualname}({param})" for (qualname, param), sets in settings(modules).items()
            if sets and all(sets) and (qualname, param) not in ALWAYS_SET]


def test_every_default_is_set_by_some_call():
    assert unset_defaults(_modules()) == []


def test_every_default_is_read_by_some_call():
    assert unread_defaults(_modules()) == []


def test_allowlist_names_only_existing_parameters():
    found = settings(_modules())
    assert sorted((ALLOWED | ALWAYS_SET) - set(found)) == []


def test_allowlist_names_only_parameters_no_call_sets():
    found = settings(_modules())
    assert sorted(pair for pair in ALLOWED if any(found[pair])) == []


def test_always_set_names_only_parameters_every_call_sets():
    found = settings(_modules())
    assert sorted(pair for pair in ALWAYS_SET if not (found[pair] and all(found[pair]))) == []


def test_scan_sees_keywords_positions_and_aliases():
    tree = ast.parse(
        "from .m import g as h\n"
        "def f(a, b=1, *, c=2): pass\n"
        "def g(x=0): pass\n"
        "class K:\n"
        "    def __init__(self, y=0): pass\n"
        "    def m(self, z=0): pass\n"
        "f(0, 1)\n"
        "h(x=1)\n"
        "K(3).m(*args, **kw)\n")
    assert unset_defaults({"m": tree}) == ["f(c)", "K.m(z)"]
    assert unread_defaults({"m": tree}) == ["f(b)", "g(x)", "K.__init__(y)"]


def test_scan_reads_dataclass_fields_as_parameters():
    tree = ast.parse(
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    a: int\n"
        "    b: int = 1\n"
        "    c: dict = field(default_factory=dict)\n"
        "    d: int = 2\n"
        "@dataclass\n"
        "class E:\n"
        "    e: int = 0\n"
        "D(0, 1, d=2)\n"
        "D(0, c={})\n")
    assert unset_defaults({"m": tree}) == ["E.__init__(e)"]
    assert unread_defaults({"m": tree}) == []
    assert settings({"m": tree})["D.__init__", "b"] == [True, False]
