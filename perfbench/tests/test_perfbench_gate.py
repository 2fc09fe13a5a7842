import copy
import json

import pytest

import gate
from hamalg.cli import main


def _report(tmp_path, *argv):
    out = tmp_path / "report.json"
    status = main([*argv, "--seed", "0", "--out", str(out)])
    return status, json.loads(out.read_text())


@pytest.fixture(scope="module")
def brackets_report(tmp_path_factory):
    return _report(tmp_path_factory.mktemp("b"), "brackets", "--kind", "anderson",
                   "--trials", "1")


@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    return _report(tmp_path_factory.mktemp("v"), "verify", "--dim", "2", "--trials", "3")


def _gate(status, document, changed_document, changed_status=None):
    expected = gate.expectation(gate.flatten_report(status, document))
    actual = gate.flatten_report(status if changed_status is None else changed_status,
                                 changed_document)
    return gate.mismatches(expected, actual)


def test_unchanged_report_passes_apart_from_timestamp(brackets_report):
    status, doc = brackets_report
    changed = copy.deepcopy(doc)
    changed["timestamp"] = "1970-01-01T00:00:00+00:00"
    assert _gate(status, doc, changed) == []


@pytest.mark.parametrize("path", [
    ("passed",),
    ("defects", 0, "matches_expected_pattern"),
    ("witness_searches", 0, "found"),
    ("witness_searches", 0, "replay_agrees"),
])
def test_flipped_verdict_is_rejected(brackets_report, path):
    status, doc = brackets_report
    changed = copy.deepcopy(doc)
    node = changed
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = not node[path[-1]]
    assert _gate(status, doc, changed)


def test_changed_exit_status_is_rejected(brackets_report):
    status, doc = brackets_report
    assert _gate(status, doc, doc, changed_status=1) == ["exit: 1 != 0"]


def test_perturbed_violation_defect_is_rejected(brackets_report):
    status, doc = brackets_report
    changed = copy.deepcopy(doc)
    defect = changed["defects"][0]["jacobi_defect"]
    assert defect > gate.VIOLATION_THRESHOLD
    changed["defects"][0]["jacobi_defect"] = defect * (1 + 1e-8)
    assert _gate(status, doc, changed) == [
        f"report.defects[0].jacobi_defect: {defect * (1 + 1e-8)!r} != {defect!r} "
        f"within {gate.REL_TOL}"]


def test_violation_defect_within_rel_tol_passes(brackets_report):
    status, doc = brackets_report
    changed = copy.deepcopy(doc)
    changed["defects"][0]["jacobi_defect"] *= 1 + 1e-13
    assert _gate(status, doc, changed) == []


def test_witness_trial_and_inputs_must_match(brackets_report):
    status, doc = brackets_report
    changed = copy.deepcopy(doc)
    changed["witness_searches"][0]["witness"]["trial"] += 1
    assert _gate(status, doc, changed)
    changed = copy.deepcopy(doc)
    changed["witness_searches"][0]["witness"]["elements"][0]["parts"][0]["matrix"][0][0] += 1.0
    assert _gate(status, doc, changed)


def test_clean_defect_moving_within_noise_passes(verify_report):
    status, doc = verify_report
    base = copy.deepcopy(doc)
    base["checks"][0]["max_relative_defect"] = 1e-17
    changed = copy.deepcopy(base)
    changed["checks"][0]["max_relative_defect"] = 3e-17
    # the witness of a clean check is ignored as well
    changed["checks"][0]["worst_witness"] = []
    assert _gate(status, base, changed) == []


def test_clean_defect_above_its_tolerance_is_rejected(verify_report):
    status, doc = verify_report
    changed = copy.deepcopy(doc)
    tolerance = doc["checks"][0]["tolerance"]
    changed["checks"][0]["max_relative_defect"] = 10 * tolerance
    assert _gate(status, doc, changed)


def test_clean_defect_turning_into_violation_is_rejected(verify_report):
    status, doc = verify_report
    changed = copy.deepcopy(doc)
    changed["checks"][1]["max_relative_defect"] = 0.5
    problems = _gate(status, doc, changed)
    assert "report.checks[1].worst_witness: unexpected" in problems
