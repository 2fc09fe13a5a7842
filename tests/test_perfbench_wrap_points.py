"""The benchmark's tracer wraps hamalg's layers by attribute name; a
refactor that renames or moves one must update the wrap table, or that
layer silently reads zero in every traced run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest


def test_every_wrap_point_exists(load_perfbench_module):
    tracing = load_perfbench_module("tracing")
    points = tracing.wrap_points()
    assert points
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in points
               if attr not in owner.__dict__]
    assert missing == []


def test_traced_brackets_search_counts_its_budget(load_perfbench_module, tmp_path,
                                                  capsys):
    """``brackets.search`` counts a search's trials from its result or its
    budget argument; the clean bracket's three searches find nothing, so
    each counts its whole budget."""
    from hamalg.cli import main

    tracing = load_perfbench_module("tracing")
    with tracing.patched(tracing.Tracer()) as tracer:
        assert main(["brackets", "--kind", "hybrid_paper", "--trials", "1",
                     "--budget", "4", "--out", str(tmp_path / "r.json")]) == 0
    assert "not traced" not in capsys.readouterr().err
    assert [s[tracing.WORK] for s in tracer.spans
            if s[tracing.NAME] == "brackets.search"] == [4, 4, 4]


#: a child that runs one command and reports whether it loaded jsonschema
CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from hamalg.cli import main
status = main(sys.argv[2:])
print("jsonschema loaded:", "jsonschema" in sys.modules, file=sys.stderr)
sys.exit(status)
"""


@pytest.mark.parametrize("argv", [
    ("verify", "--dim", "2", "--trials", "1", "--out", "{dir}/r.json"),
    ("brackets", "--kind", "anderson", "--trials", "1", "--budget", "1",
     "--out", "{dir}/r.json"),
    ("uniqueness", "scan", "--grid", "0.25:4:2", "--out", "{dir}/r.csv",
     "--json-out", "{dir}/r.json"),
    ("simulate", "--out", "{dir}/r.csv", "--summary-out", "{dir}/r.json"),
])
def test_valid_report_does_not_load_jsonschema(argv, tmp_path):
    """A valid report passes the compiled check alone and never imports
    jsonschema, so the tracer's ``cli.schema_validate`` wrap point
    (``jsonschema.validate``) reads 0 calls on a passing run."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-I", "-c", CHILD, src,
                           *(a.format(dir=tmp_path) for a in argv)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "jsonschema loaded: False" in proc.stderr
    with open(tmp_path / "r.json") as fh:
        assert json.load(fh)["report_kind"] == argv[0]


def test_refused_report_calls_jsonschema_validate_once(monkeypatch):
    """A refused report reaches the ``cli.schema_validate`` wrap point once."""
    import jsonschema

    from hamalg.cli import _write_report

    calls = []
    validate = jsonschema.validate

    def counting(*args, **kwargs):
        calls.append(args[0])
        return validate(*args, **kwargs)

    monkeypatch.setattr(jsonschema, "validate", counting)
    report = {"report_kind": "verify"}
    with pytest.raises(jsonschema.ValidationError):
        _write_report(report, None)
    assert calls == [report]
