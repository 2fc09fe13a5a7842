"""Import rules between modules, read from the source with ``ast``.

The dense oracle ``reference.py`` checks the main path, so it must share
no code with it: it imports numpy alone, and it uses dense slicing only,
calling none of the scatter-add, sort and search routines that the
sparse kernels are built on.  ``identities.py`` checks any Hamilton
algebra and stays below the mixed brackets it never calls, as do
``compose.py``, which draws the hybrid observables the brackets act on,
and ``measurement.py``; ``brackets.py``
defines no defect of its own and scores its desiderata through the
identity scan.  ``measurement.py`` reaches polynomial arithmetic only
through ``PhaseSpacePoly``: it imports nothing from the kernel and forms
no binomial or factorial weights of a product of its own, and it
imports nothing of the package but ``elements`` and ``errors``.  Its
code names no ``hbar``: no weight of its generator depends on one.  No
module imports a name it never reads, except the one import
``perfbench/tracing.py`` wraps, marked ``# noqa: F401``.

Matrix coefficients of quantum (x) classical elements multiply through
``compose.coefficient_product`` alone: ``brackets.py`` holds no ``@`` and
no ``matmul``, ``einsum`` or ``dot`` call, and in ``compose.py`` only the
quantum (x) quantum table ``_lr_table`` does, with ``@`` alone: no
module uses ``einsum``.
The dense oracle keeps ``@`` for its hybrid products, so it shares no
product formula with the main path.

Every report is assembled in ``cli.py``: no other module writes the
``"report_kind"`` tag, and the modules below return report entries as
the dicts the schema validates, so no module defines a ``to_json``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hamalg"


def imported_modules(path):
    """The top-level module of each name that an import statement anywhere
    in ``path`` may load, relative to the package: ``hamalg.x``, ``.x`` and
    ``from . import x`` all give ``x``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            dotted = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in dotted:
            parts = [part for part in name.split(".") if part]
            parts = parts[1:] if parts[:1] == ["hamalg"] else parts
            found.update(parts[:1])
    return found


#: calls the dense oracle must not make: scatter-adds, sorts and searches
SPARSE_ROUTINES = {"add.at", "sort", "sorted", "argsort", "lexsort", "unique", "searchsorted"}


def called_names(path):
    """The dotted name of every call in ``path``, and each of its tails:
    ``np.add.at(...)`` gives ``np.add.at``, ``add.at`` and ``at``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.insert(0, func.attr)
            func = func.value
        if isinstance(func, ast.Name):
            parts.insert(0, func.id)
        found.update(".".join(parts[i:]) for i in range(len(parts)))
    return found


def test_reference_imports_numpy_alone():
    assert imported_modules(SRC / "reference.py") <= {"numpy", "__future__"}


def test_reference_calls_no_sparse_routine():
    assert not called_names(SRC / "reference.py") & SPARSE_ROUTINES


@pytest.mark.parametrize("source, found", [
    ("np.add.at(out, idx, vals)", "add.at"),
    ("numpy.add.at(out, idx, vals)", "add.at"),
    ("keys.sort()", "sort"),
    ("x = sorted(keys)", "sorted"),
    ("np.argsort(keys, kind='stable')", "argsort"),
    ("np.lexsort(keys.T)", "lexsort"),
    ("from numpy import unique\nunique(keys)", "unique"),
    ("np.unique(keys, return_inverse=True)", "unique"),
    ("def f(a):\n    return a.searchsorted(3)", "searchsorted"),
])
def test_every_sparse_call_form_is_seen(tmp_path, source, found):
    path = tmp_path / "module.py"
    path.write_text(source + "\n")
    assert found in called_names(path) & SPARSE_ROUTINES


def test_identities_does_not_import_brackets():
    assert "brackets" not in imported_modules(SRC / "identities.py")


def test_compose_and_measurement_do_not_import_brackets():
    assert "brackets" not in imported_modules(SRC / "compose.py")
    assert "brackets" not in imported_modules(SRC / "measurement.py")


#: calls that weigh the terms of a normal-ordered product
PRODUCT_WEIGHTS = {"comb", "factorial"}


def package_imports(path):
    """The modules of the package that ``path`` imports."""
    return {name for name in imported_modules(path) if (SRC / f"{name}.py").is_file()}


def test_measurement_imports_only_elements_and_errors():
    # the model reaches the composed bracket through its derived weights
    # alone, so it needs no algebra, composition or bracket of the package
    assert package_imports(SRC / "measurement.py") == {"elements", "errors"}


def test_measurement_has_no_product_of_its_own():
    assert "kernels" not in imported_modules(SRC / "measurement.py")
    assert not called_names(SRC / "measurement.py") & PRODUCT_WEIGHTS


@pytest.mark.parametrize("source, found", [
    ("import math\nmath.comb(4, 2)", "comb"),
    ("from math import factorial\nfactorial(3)", "factorial"),
    ("import math as m\nm.factorial(3) * m.comb(3, 1)", "factorial"),
])
def test_every_product_weight_call_is_seen(tmp_path, source, found):
    path = tmp_path / "module.py"
    path.write_text(source + "\n")
    assert found in called_names(path) & PRODUCT_WEIGHTS


def code_names(path):
    """Every identifier the code of ``path`` names: each variable, field,
    attribute, parameter and keyword argument.  Docstrings and comments
    name nothing."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.arg):
            found.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg:
            found.add(node.arg)
    return found


def test_measurement_model_takes_no_hbar():
    # the generator weighs each pair's Poisson bracket by hbar_j / hbar12,
    # 1 or 0 whatever hbar is, so the model has no hbar to take
    assert "hbar" not in code_names(SRC / "measurement.py")


@pytest.mark.parametrize("source, seen", [
    ("class Config:\n    hbar: float", True),
    ("def weight(cfg):\n    return 1.0 / cfg.hbar", True),
    ("def generator(h, hbar):\n    return h", True),
    ("Config(m1=1.0, hbar=1.0)", True),
    ("hbar = 1.0", True),
    ('"""The model takes no hbar."""\nx = 1.0  # nor hbar', False),
])
def test_every_hbar_name_is_seen(tmp_path, source, seen):
    path = tmp_path / "module.py"
    path.write_text(source + "\n")
    assert ("hbar" in code_names(path)) == seen


def test_every_algebra_declares_block_draws():
    # ``identities`` reads ``block_entries`` without a fallback and always
    # draws blocks
    import inspect

    from hamalg import algebra, compose

    concrete = [cls for module in (algebra, compose) for cls in vars(module).values()
                if isinstance(cls, type) and issubclass(cls, algebra.HamiltonAlgebra)
                and cls is not algebra.HamiltonAlgebra]
    assert {cls.__name__ for cls in concrete} == {
        "OperatorAlgebra", "PhaseSpaceAlgebra", "CorruptedAlgebra", "ComposedAlgebra"}
    for cls in concrete:
        assert "block_entries" in vars(cls), cls.__name__
        assert "block" in inspect.signature(cls.random_element).parameters, cls.__name__
    assert "getattr" not in called_names(SRC / "identities.py")


def test_brackets_defines_no_defect_of_its_own():
    calls = called_names(SRC / "brackets.py")
    assert "relative_defect" not in calls and "norm" not in calls
    # ``identities.scan`` calls ``identity_defect``; the scripted-defect tests
    # of ``tests/test_brackets.py`` patch that name and steer the brackets' results
    assert {"scan", "worst_trial", "first_over"} <= calls


@pytest.mark.parametrize("source, found", [
    ("from . import brackets", "brackets"),
    ("from .brackets import X", "brackets"),
    ("from hamalg import brackets", "brackets"),
    ("import hamalg.brackets", "brackets"),
    ("from hamalg.brackets import X", "brackets"),
    ("def f():\n    from .kernels import pack", "kernels"),
    ("import numpy as np", "numpy"),
])
def test_every_import_form_is_seen(tmp_path, source, found):
    path = tmp_path / "module.py"
    path.write_text(source + "\n")
    assert found in imported_modules(path)


#: the marker that excuses an unread import
NOQA = "# noqa: F401"


def unread_imports(path):
    """(name, excused) for each name an import in ``path`` binds and no
    expression reads; ``excused`` when its line carries ``NOQA``.
    ``from __future__`` imports bind nothing."""
    source = path.read_text()
    tree = ast.parse(source, str(path))
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    found.append((name, NOQA in lines[alias.lineno - 1]))
    return found


def test_no_module_imports_a_name_it_never_reads():
    found = {path.name: unread_imports(path) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: [n for n, excused in unread if not excused]
            for name, unread in found.items() if unread} == {"brackets.py": []}
    # the one excused import: the tracer's wrap point for the Poisson kernel
    assert found["brackets.py"] == [("_poly_poisson", True)]


@pytest.mark.parametrize("source, unread", [
    ("import numpy as np", [("np", False)]),
    ("import numpy as np\nnp.zeros(1)", []),
    ("import os.path\nos.sep", []),
    ("from __future__ import annotations", []),
    ("from .elements import (\n    frobenius_norms,\n    is_hermitian,\n)\nfrobenius_norms(x)",
     [("is_hermitian", False)]),
    ("from .errors import AlgebraError, ShapeError\nraise ShapeError()",
     [("AlgebraError", False)]),
    ("from .kernels import poisson_terms as _poly_poisson  # noqa: F401",
     [("_poly_poisson", True)]),
    ("def f():\n    from .kernels import mul\n    return 0", [("mul", False)]),
])
def test_every_unread_import_is_seen(tmp_path, source, unread):
    path = tmp_path / "module.py"
    path.write_text(source + "\n")
    assert unread_imports(path) == unread


#: routines that form a matrix product in one step
MATRIX_PRODUCT_NAMES = {"matmul", "einsum", "dot"}


def matrix_product_scopes(path):
    """The enclosing function, as ``Class.method`` or ``function`` (``""``
    at module level), of each ``@`` or ``@=`` and each use of a routine in
    ``MATRIX_PRODUCT_NAMES``, called or passed on; a lambda counts as part
    of the function it is written in."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.MatMult):
            found.append(scope)
        elif isinstance(node, ast.Attribute) and node.attr in MATRIX_PRODUCT_NAMES:
            found.append(scope)
        elif isinstance(node, ast.Name) and node.id in MATRIX_PRODUCT_NAMES:
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def test_brackets_forms_no_matrix_product_of_its_own():
    assert matrix_product_scopes(SRC / "brackets.py") == []


def test_compose_keeps_matrix_products_to_the_quantum_quantum_routes():
    assert set(matrix_product_scopes(SRC / "compose.py")) == {"_lr_table"}


def test_no_module_uses_einsum():
    for path in sorted(SRC.glob("*.py")):
        names = {node.attr if isinstance(node, ast.Attribute) else node.id
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, (ast.Attribute, ast.Name))}
        assert "einsum" not in names, path.name


def test_reference_keeps_its_own_hybrid_products():
    scopes = set(matrix_product_scopes(SRC / "reference.py"))
    assert {"dense_hybrid_mul", "dense_product_rule_poisson"} <= scopes
    names = {node.id for node in ast.walk(ast.parse((SRC / "reference.py").read_text()))
             if isinstance(node, ast.Name)}
    assert "coefficient_product" not in names


@pytest.mark.parametrize("source, scope", [
    ("def f(A, B):\n    return A @ B", "f"),
    ("def f(A, B):\n    A @= B", "f"),
    ("class C:\n    def m(self, u):\n        return u.pair_sum(u, lambda A, B: A @ B)",
     "C.m"),
    ("import numpy as np\nnp.matmul(A, B)", ""),
    ("def f(u, v):\n    return u.pair_sum(v, np.matmul)", "f"),
    ("from numpy import einsum\ndef g(U, V):\n    return einsum('ij,jk', U, V)", "g"),
    ("def h(A, B):\n    return A.dot(B)", "h"),
])
def test_every_matrix_product_form_is_seen(tmp_path, source, scope):
    path = tmp_path / "module.py"
    path.write_text(source + "\n")
    assert matrix_product_scopes(path) == [scope]


def string_keys(path):
    """Every string constant in ``path``, docstrings included, and every
    keyword argument's name: the ways a module can write a dict key."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        elif isinstance(node, ast.keyword) and node.arg:
            found.add(node.arg)
    return found


def test_only_cli_writes_report_kind():
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "report_kind" in string_keys(path)] == ["cli.py"]


@pytest.mark.parametrize("source, seen", [
    ('report = {"report_kind": "verify"}', True),
    ("def kind(doc):\n    return doc['report_kind']", True),
    ('"""Writes the report_kind tag."""', False),
    ('report = dict(report_kind="verify")', True),
])
def test_every_report_kind_literal_is_seen(tmp_path, source, seen):
    path = tmp_path / "module.py"
    path.write_text(source + "\n")
    assert ("report_kind" in string_keys(path)) == seen


def defined_names(path):
    """The name of every function, method and class defined anywhere in
    ``path``."""
    return {node.name for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def test_no_module_defines_to_json():
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "to_json" in defined_names(path)] == []


@pytest.mark.parametrize("source, seen", [
    ("def to_json(x):\n    return {}", True),
    ("class Entry:\n    def to_json(self):\n        return {}", True),
    ("def f():\n    async def to_json():\n        return {}", True),
    ("entry = thing.to_json()", False),
    ("def element_to_json(x):\n    return {}", False),
])
def test_every_to_json_definition_is_seen(tmp_path, source, seen):
    path = tmp_path / "module.py"
    path.write_text(source + "\n")
    assert ("to_json" in defined_names(path)) == seen
