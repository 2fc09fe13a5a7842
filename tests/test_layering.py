"""Import rules between modules, read from the source with ``ast``.

The dense oracle ``reference.py`` checks the main path, so it must share
no code with it: it imports numpy alone, and it uses dense slicing only,
calling none of the scatter-add, sort and search routines that the
sparse kernels are built on.  ``identities.py`` checks any Hamilton
algebra and stays below the mixed brackets it never calls, as do
``compose.py``, which draws the hybrid observables the brackets act on,
and ``measurement.py``; ``brackets.py``
defines no defect of its own and scores its desiderata through the
identity scan."""

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
