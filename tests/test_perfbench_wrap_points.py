"""The benchmark's tracer wraps hamalg's layers by attribute name; a
refactor that renames or moves one must update the wrap table, or that
layer silently reads zero in every traced run."""

import json

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


@pytest.mark.parametrize("argv", [
    ("verify", "--dim", "2", "--trials", "1", "--out", "{dir}/r.json"),
    ("brackets", "--kind", "anderson", "--trials", "1", "--budget", "1",
     "--out", "{dir}/r.json"),
    ("uniqueness", "scan", "--grid", "0.25:4:2", "--out", "{dir}/r.csv",
     "--json-out", "{dir}/r.json"),
    ("simulate", "--out", "{dir}/r.csv", "--summary-out", "{dir}/r.json"),
])
def test_each_report_calls_jsonschema_validate_once(argv, tmp_path, monkeypatch):
    """The tracer times report validation at ``jsonschema.validate``
    (``cli.schema_validate``); a report validated another way would leave
    that layer reading zero."""
    import jsonschema

    from hamalg.cli import main

    calls = []
    validate = jsonschema.validate

    def counting(*args, **kwargs):
        calls.append(args[0])
        return validate(*args, **kwargs)

    monkeypatch.setattr(jsonschema, "validate", counting)
    assert main([a.format(dir=tmp_path) for a in argv]) == 0
    assert len(calls) == 1
    with open(tmp_path / "r.json") as fh:
        assert calls[0]["report_kind"] == json.load(fh)["report_kind"]
