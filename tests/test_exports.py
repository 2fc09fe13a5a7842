"""The package's public names: every name in ``hamalg.__all__`` resolves,
none is listed twice, and the list is sorted, so a name removed from the
package cannot linger in the list.  Every export is also read by the
package itself, or listed in ``UNREAD`` with the reason it stays."""

import ast
from pathlib import Path

import hamalg

SRC = Path(hamalg.__file__).resolve().parent

#: exports that no module of the package reads, each kept on purpose
UNREAD = {
    "CorruptedAlgebra": "tests corrupt an algebra to show a check fails",
    "KERNEL_BACKEND": "perfbench/run.py records which kernel backend ran",
    "compose_product_on_terms": "the literal switching-map oracle of the tests",
    "element_from_json": "loads a report's witness elements back, as the tests replay them",
}


def referenced_names() -> set:
    """Every Name, Attribute and import alias in the package's modules
    other than ``__init__.py``."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
    return found


def test_every_exported_name_resolves():
    assert [name for name in hamalg.__all__ if not hasattr(hamalg, name)] == []


def test_exports_are_unique_and_sorted():
    assert len(set(hamalg.__all__)) == len(hamalg.__all__)
    assert hamalg.__all__ == sorted(hamalg.__all__)


def test_every_export_is_read_by_the_package():
    read = referenced_names()
    assert [name for name in hamalg.__all__ if name not in read and name not in UNREAD] == []


def test_unread_lists_only_unread_exports():
    read = referenced_names()
    assert [name for name in UNREAD if name in read or name not in hamalg.__all__] == []
