"""Import rules between modules, read from the source with ``ast``.

The dense oracle ``reference.py`` checks the main path, so it must share
no code with it: it imports numpy alone.  ``identities.py`` checks any
Hamilton algebra and stays below the mixed brackets it never calls."""

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


def test_reference_imports_numpy_alone():
    assert imported_modules(SRC / "reference.py") <= {"numpy", "__future__"}


def test_identities_does_not_import_brackets():
    assert "brackets" not in imported_modules(SRC / "identities.py")


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
