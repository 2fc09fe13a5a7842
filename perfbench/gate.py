"""Correctness gate: a report passes when it matches its committed
expectation.

A report (its exit status, its JSON document and any CSV it writes) is
flattened to ``{path: [category, value]}``:

* ``exact``  -- flags, integers, strings, witness ``trial`` indices, and a
  digest of the inputs of every violation witness: must be equal;
* ``value``  -- a defect above VIOLATION_THRESHOLD, or any other float
  (restriction factors, parameters): must agree within REL_TOL;
* ``clean``  -- a defect at or below VIOLATION_THRESHOLD: rounding noise
  that moves when a sum is reordered, so it must only stay under its
  tolerance.  A flattened report keeps ``[clean, defect, tolerance]``;
  the committed expectation keeps ``[clean, tolerance]``.

Timestamps and the witnesses of clean checks are left out.  The gate
compares the path sets too, so a defect crossing the threshold in either
direction is a mismatch.
"""

from __future__ import annotations

import csv
import hashlib
import json

# These mirror hamalg's published thresholds (brackets.VIOLATION_THRESHOLD,
# brackets.PASS_TOLERANCE, uniqueness.FIT_RESIDUAL_TOLERANCE); they are
# restated so that a change to the program cannot relax its own gate.
VIOLATION_THRESHOLD = 1e-6
PASS_TOLERANCE = 1e-10
FIT_RESIDUAL_TOLERANCE = 1e-10

#: Relative tolerance for defects above the threshold and other floats.
#: Fixed in advance: a reordered float64 sum moves a defect of a few
#: hundred terms by ~1e-14 relative; 1e-9 leaves five orders of headroom
#: for that and still rejects any change of the inputs or the algebra.
REL_TOL = 1e-9

DEFECT_KEYS = frozenset({
    "max_relative_defect", "mean_relative_defect", "antisymmetry_defect",
    "jacobi_defect", "derivation_defect", "defect", "replay_defect",
    "fit_residual", "back_reaction_gap",
})
WITNESS_KEYS = frozenset({"elements", "worst_witness"})
SKIP_KEYS = frozenset({"timestamp"})


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _clean_tolerance(path: str, parent: dict) -> float:
    if "tolerance" in parent:          # a verify check carries its own
        return float(parent["tolerance"])
    if path.endswith("fit_residual"):
        return FIT_RESIDUAL_TOLERANCE
    return PASS_TOLERANCE


def _witness_defect(parent: dict):
    """Defect that decides whether a sibling witness list is kept."""
    for key in ("defect", "max_relative_defect"):
        if key in parent:
            return parent[key]
    return None


def _flatten(obj, path: str, out: dict, parent=None) -> None:
    if isinstance(obj, dict):
        for key, val in obj.items():
            if key in SKIP_KEYS:
                continue
            sub = f"{path}.{key}" if path else key
            if key in WITNESS_KEYS:
                defect = _witness_defect(obj)
                if defect is not None and defect > VIOLATION_THRESHOLD:
                    out[sub] = ["exact", _digest(val)]
                continue
            _flatten(val, sub, out, obj)
        return
    if isinstance(obj, list):
        for i, val in enumerate(obj):
            _flatten(val, f"{path}[{i}]", out, parent)
        return
    key = path.rsplit(".", 1)[-1]
    if isinstance(obj, float):
        if key in DEFECT_KEYS and obj <= VIOLATION_THRESHOLD:
            out[path] = ["clean", obj, _clean_tolerance(path, parent or {})]
        else:
            out[path] = ["value", obj]
        return
    out[path] = ["exact", obj]


def flatten_report(exit_status: int, document, csv_text: str | None = None) -> dict:
    """Flatten one report to the gate's {path: [category, value]} form."""
    out = {"exit": ["exact", exit_status]}
    if document is not None:
        _flatten(document, "report", out)
    if csv_text is not None:
        rows = list(csv.reader(csv_text.splitlines()))
        out["csv.rows"] = ["exact", len(rows)]
        for i, cell in enumerate(rows[-1]):
            val = float(cell)
            out[f"csv.last[{i}]"] = (["value", val] if abs(val) > VIOLATION_THRESHOLD
                                     else ["clean", abs(val), PASS_TOLERANCE])
    return out


def expectation(flat: dict) -> dict:
    """The committed form of a flattened report: clean defects are
    replaced by the tolerance they must stay under."""
    return {path: [entry[0], entry[2]] if entry[0] == "clean" else entry
            for path, entry in flat.items()}


def mismatches(expected: dict, actual: dict) -> list:
    """Human-readable differences between two flattened reports; empty
    when the actual report passes against the expected one."""
    problems = []
    for path in sorted(set(expected) ^ set(actual)):
        where = "missing" if path in expected else "unexpected"
        problems.append(f"{path}: {where}")
    for path in sorted(set(expected) & set(actual)):
        cat, want = expected[path]
        got = actual[path][1]
        if cat == "clean":
            if not (isinstance(got, float) and abs(got) <= want):
                problems.append(f"{path}: {got!r} exceeds clean tolerance {want!r}")
        elif cat == "value":
            if not (isinstance(got, (int, float)) and not isinstance(got, bool)
                    and abs(got - want) <= REL_TOL * max(abs(want), abs(got))):
                problems.append(f"{path}: {got!r} != {want!r} within {REL_TOL}")
        elif got != want or type(got) is not type(want):
            problems.append(f"{path}: {got!r} != {want!r}")
    return problems
