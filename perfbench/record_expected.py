"""Record the correctness gate's expectations under perfbench/expected/.

Runs every report of a workload (and the set-up probe) once at every
pool seed and stores its flattened form (see gate.py).  Re-record only
after a deliberate, documented change of a verdict or an RNG stream;
a faster implementation must pass against the committed files as they
are.

Run from the repository root:  python3 perfbench/record_expected.py [WORKLOAD ...]
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import gate
import run
from workloads import PROBE, SEED_POOL, WORKLOADS


def record(name: str) -> dict:
    seeds = {}
    for seed in range(SEED_POOL):
        with tempfile.TemporaryDirectory(dir=run.TMP_DIR) as tmp:
            work = run.Workload(name, seed, Path(tmp), {})
            reports = (PROBE, *work.reports)
            _, statuses = work.repeat(reports=reports)
            entry = {}
            for report, status in zip(reports, statuses):
                flat, document = work.load(report, status)
                problems = [e.message for e in work.validator.iter_errors(document)]
                expected = gate.expectation(flat)
                problems += gate.mismatches(expected, flat)
                if problems:
                    raise SystemExit(f"{name} seed {seed} {report.label}: {problems[:5]}")
                entry[report.label] = expected
        seeds[str(seed)] = entry
        print(f"{name} seed {seed}: exit statuses {statuses}", file=sys.stderr)
    return {"workload": name, "seeds": seeds}


def main(names) -> int:
    run.pin_environment()
    run.import_hamalg()
    run.TMP_DIR.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        path = run.EXPECTED_DIR / f"{name}.json"
        path.write_text(_dump(record(name)))
    return 0


def _dump(recorded: dict) -> str:
    """JSON with one line per seed and report, so diffs stay readable."""
    seeds = ",\n".join(
        f"{json.dumps(seed)}: {{\n" + ",\n".join(
            f"  {json.dumps(label)}: {json.dumps(exp, sort_keys=True, separators=(',', ':'))}"
            for label, exp in entry.items()) + "}"
        for seed, entry in recorded["seeds"].items())
    return f'{{"workload": {json.dumps(recorded["workload"])}, "seeds": {{\n{seeds}}}}}\n'


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
