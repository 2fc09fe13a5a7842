"""Every defaulted parameter of the package is set by some call in it.

A default that no call in ``src/hamalg`` overrides is a constant in
disguise: it doubles the configurations the tests would have to cover,
and a caller could change an input without the report recording it.

The scan walks the package with ``ast``.  For each top-level function
and each method of a top-level class, every parameter with a default must
be passed, by keyword or by position, by at least one call in the
package.  Calls are matched by name: a method by its attribute name, an
``__init__`` by its class name, and a function imported under another
name by its original one.  So a name shared by several functions counts a
call to any of them, and a ``**mapping`` or ``*sequence`` argument sets
nothing.
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


def _modules():
    return {path: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _is_method(node: ast.FunctionDef) -> bool:
    return not any(isinstance(d, ast.Name) and d.id == "staticmethod"
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


def _definitions(tree):
    """(qualified name, call name, node, positional offset) of each
    top-level function and method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    call_name = node.name if item.name == "__init__" else item.name
                    yield (f"{node.name}.{item.name}", call_name, item,
                           int(_is_method(item)))


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


def set_by_calls(modules) -> dict:
    """(function, parameter) of each defaulted parameter, to whether some
    call in ``modules`` sets it."""
    calls = {}
    for tree in modules.values():
        for name, positional, keywords in _calls(tree):
            calls.setdefault(name, []).append((positional, keywords))
    found = {}
    for tree in modules.values():
        for qualname, call_name, node, offset in _definitions(tree):
            for index, param in _defaulted(node, offset):
                found[qualname, param] = any(
                    param in keywords or (index is not None and index < positional)
                    for positional, keywords in calls.get(call_name, []))
    return found


def unset_defaults(modules) -> list:
    """``function(parameter)`` for each defaulted parameter no call sets."""
    return [f"{qualname}({param})" for (qualname, param), is_set in set_by_calls(modules).items()
            if not is_set and (qualname, param) not in ALLOWED]


def test_every_default_is_set_by_some_call():
    assert unset_defaults(_modules()) == []


def test_allowlist_names_only_existing_parameters():
    assert ALLOWED <= set(set_by_calls(_modules()))


def test_allowlist_names_only_parameters_no_call_sets():
    found = set_by_calls(_modules())
    assert sorted(pair for pair in ALLOWED if found.get(pair)) == []


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
