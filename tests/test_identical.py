"""``tools/identical.py`` on a two-command corpus over two copies of
``src``: identical copies differ nowhere, and a one-ulp change to one
report value is reported at that value's JSON path; a CSV cell's change,
at its row and column."""

import importlib.util
import math
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CORPUS = [
    ("simulate", ("simulate", "--regime", "qq", "--out", "{csv}", "--summary-out", "{json}")),
    ("uniqueness", ("uniqueness", "--a1", "1", "--a2", "4", "--a12", "9")),
]


@pytest.fixture(scope="module")
def identical():
    name = "_hamalg_tools_identical"
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / "identical.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def copy_src(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest / "src"


def test_identical_copies_differ_nowhere(identical, tmp_path):
    old, new = copy_src(tmp_path / "a"), copy_src(tmp_path / "b")
    (tmp_path / "work").mkdir()
    assert identical.compare_trees(old, new, CORPUS, tmp_path / "work") == []


def test_one_ulp_change_is_reported_at_its_json_path(identical, tmp_path):
    old, new = copy_src(tmp_path / "a"), copy_src(tmp_path / "b")
    cli = new / "hamalg" / "cli.py"
    line = '"back_reaction_gap": back_reaction_gap(traj),'
    assert cli.read_text().count(line) == 1
    cli.write_text(cli.read_text().replace(
        line, '"back_reaction_gap": math.nextafter(back_reaction_gap(traj), math.inf),'))
    (tmp_path / "work").mkdir()
    [found] = identical.compare_trees(old, new, CORPUS, tmp_path / "work")
    assert found.startswith("simulate: out/report.json: $.back_reaction_gap: ")
    assert found.endswith(" (1 ulp)")


@pytest.mark.parametrize("is_csv", [True, False], ids=["csv-file", "csv-stdout"])
def test_one_ulp_change_in_a_csv_cell_is_reported_at_its_row_and_column(identical, is_csv):
    rows = [f"{a},{math.sqrt(a) / 3:.17g},0" for a in range(1, 8)]
    old = "\n".join(["a1,factor,passed", *rows]) + "\n"
    cell = rows[4].split(",")[1]
    moved = f"{math.nextafter(float(cell), 1.0):.17g}"
    assert identical.text_differences(old, old.replace(cell, moved), is_csv) == [
        ("row 5 factor", f"{float(cell)!r} -> {float(moved)!r} (1 ulp)")]
    # every moved cell is shown, more than the lines of a text that is not CSV
    flags = identical.text_differences(old, old.replace(",0\n", ",1\n"), is_csv)
    assert [where for where, _ in flags] == [f"row {i} passed" for i in range(1, 8)]


@pytest.mark.parametrize("old, new, found", [
    ({"a": [1.0, 2.0]}, {"a": [1.0, 2.0]}, []),
    ({"a": [1.0, 2.0]}, {"a": [1.0, math.nextafter(2.0, 3.0)]},
     [("$.a[1]", "2.0 -> 2.0000000000000004 (1 ulp)")]),
    ({"x": 0.0}, {"x": -0.0}, [("$.x", "0.0 -> -0.0 (0 ulp)")]),
    ({"x": math.nan}, {"x": math.nan}, []),
    ({"x": 1}, {"x": 1.0}, [("$.x", "1 -> 1.0")]),
    ({"x": 1, "y": 2}, {"y": 2, "x": 1}, [("$", "key order ['x', 'y'] -> ['y', 'x']")]),
    ({"x": [1]}, {"x": [1, 2]}, [("$.x", "length 1 -> 2")]),
    ({"x": 1}, {"y": 1}, [("$.x", "only in old"), ("$.y", "only in new")]),
], ids=["equal", "one-ulp", "signed-zero", "nan", "int-float", "key-order", "length", "keys"])
def test_every_json_difference_is_seen(identical, old, new, found):
    assert identical.json_differences(old, new) == found
