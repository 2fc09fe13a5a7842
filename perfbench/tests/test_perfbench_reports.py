import json

import pytest

import run
import tracing
from workloads import WORKLOADS


def _strip_timestamps(obj):
    if isinstance(obj, dict):
        return {k: _strip_timestamps(v) for k, v in obj.items() if k != "timestamp"}
    if isinstance(obj, list):
        return [_strip_timestamps(v) for v in obj]
    return obj


def _outputs(work):
    out = {}
    for report in work.reports:
        json_path, csv_path = work.paths(report)
        out[report.label] = (_strip_timestamps(json.loads(json_path.read_text())),
                             csv_path.read_text() if report.writes_csv else None)
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_reports_equal_untraced_and_pass_the_gate(name, tmp_path):
    with open(run.EXPECTED_DIR / f"{name}.json") as fh:
        expected = json.load(fh)["seeds"]["0"]
    work = run.Workload(name, 0, tmp_path, expected)

    _, statuses = work.repeat()
    work.check_all(statuses)
    untraced = _outputs(work)

    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        _, traced_statuses = work.repeat(tracer.wrap(work.main, "cli.main"))
    work.check_all(traced_statuses)

    assert traced_statuses == statuses
    assert _outputs(work) == untraced
    assert work.problems == []
    assert work.attempted == 2 * len(work.reports)
    assert sum(1 for s in tracer.spans if s[tracing.NAME] == "cli.main") == len(work.reports)


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
