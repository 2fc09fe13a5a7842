"""Time-to-verdict benchmark for hamalg.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classical --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30   # every workload, one table

One workload runs in one process.  It drives ``hamalg.cli.main(argv)``
in-process, repeating the workload's reports until ``--seconds`` have
passed, and checks every report of every repetition against the
expectations committed under ``perfbench/expected/`` (see gate.py).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (wall time of
one repetition, first ``main`` call to last report written), ``setup_s``
(time from a fresh interpreter's start to its first report written) and
``peak_rss_mb`` (peak resident memory of the driving process).  The two
times are in reference seconds (see speed.py).
``--trace 1`` alternates untraced repetitions with repetitions traced by
tracing.py, runs the kernel check, and reports the per-layer metrics of
the fastest traced repetition.  ``failed_reports`` is the ``failed`` /
``attempted`` pair of the result.

Times are medians over a run's repetitions, and each report's time is
divided by the speed of a fixed reference loop timed just before and
just after it (speed.py).  On a shared 2-core machine the CPU speed one
process gets swings by up to 2x over minutes, so even the fastest
repetition follows the load: over eight 30-second windows of ``hybrid``
the fastest repetition spread by 13% (quartile spread over median) and
the median scaled one by 2%.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run's provenance.  Spans and per-repetition times are written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import gate
import kernel_check
import speed
import tracing
from workloads import PROBE, WORKLOADS, argv_for, hamalg_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_DIR = HERE / "expected"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

#: fresh interpreters started to measure set-up time; the median counts
SETUP_PROBES = 15
CHILD_TIMEOUT_S = 120
#: PYTHONHASHSEED the measuring process runs with (see the end of this file)
HASH_SEED = "0"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: derived per-layer metrics besides <layer>.{calls,self_s,<work>}
DERIVED = (
    ("serialize.witnesses_kept", "count"),
    ("serialize.witness_useful_ratio", "ratio"),
    ("uniqueness.pairs_drawn", "count"),
    ("uniqueness.draw_accept_ratio", "ratio"),
    ("share.kernels_elements", "ratio"),
    ("share.compose_brackets", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def per_layer_metrics() -> list:
    """(name, unit) of every metric a traced run reports."""
    out = []
    for layer in tracing.LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
        if layer in tracing.WORK_LABELS:
            out.append((f"{layer}.{tracing.WORK_LABELS[layer]}", "count"))
    return out + list(DERIVED) + kernel_check.metric_names()


# ---------------------------------------------------------------------------
# environment and provenance
# ---------------------------------------------------------------------------

def pin_environment() -> None:
    """Fix what silently changes inputs or timings.  Runs before numpy is
    imported, and is inherited by the set-up probes."""
    os.environ.pop("HAMALG_SEED", None)   # cli._resolve_seed falls back to it
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def import_hamalg():
    if not (SRC / "hamalg" / "cli.py").is_file():
        raise SystemExit(f"error: no hamalg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hamalg
    import hamalg.cli

    if Path(hamalg.__file__).resolve().parent != (SRC / "hamalg").resolve():
        raise SystemExit(f"error: imported hamalg from {hamalg.__file__}, not {SRC}")
    return hamalg


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hamalg").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return proc.stdout.strip() or None


def provenance(hamalg, args, seed: int) -> dict:
    import numpy

    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "hamalg": hamalg.__version__,
        "kernel_backend": hamalg.KERNEL_BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "workload": args.workload,
        "seed": args.seed,
        "hamalg_seed": seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


# ---------------------------------------------------------------------------
# running and checking reports
# ---------------------------------------------------------------------------

class Workload:
    """One workload at one seed: runs its reports and gates them."""

    def __init__(self, name: str, seed: int, outdir: Path, expected: dict):
        import jsonschema

        from hamalg.cli import main

        self.reports = WORKLOADS[name]
        self.seed = seed
        self.outdir = outdir
        self.expected = expected
        self.main = main
        with open(SRC / "hamalg" / "schemas" / "report.schema.json") as fh:
            schema = json.load(fh)
        self.validator = jsonschema.validators.validator_for(schema)(schema)
        self.speed_samples: list = []   # every speed sample scaled repetitions took
        self.attempted = 0
        self.failed = 0
        self.problems: list = []   # any entry makes the run incorrect

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def paths(self, report):
        return self.outdir / f"{report.label}.json", self.outdir / f"{report.label}.csv"

    def argv(self, report) -> list:
        json_path, csv_path = self.paths(report)
        return argv_for(report, str(json_path), str(csv_path), self.seed)

    def repeat(self, main=None, reports=None, scaled=False):
        """One repetition: (wall seconds, exit status per report).

        With ``scaled`` the time is in reference seconds: a speed sample is
        taken before the first report and after each one, and each report's
        time is scaled by the two samples around it (see speed.py)."""
        main = main or self.main
        reports = reports or self.reports
        for report in reports:
            for path in self.paths(report):
                path.unlink(missing_ok=True)
        argvs = [self.argv(r) for r in reports]
        times, statuses, samples = [], [], []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if scaled:
                samples.append(speed.sample())
            for argv in argvs:
                start = time.perf_counter()
                statuses.append(main(argv))
                times.append(time.perf_counter() - start)
                if scaled:
                    samples.append(speed.sample())
        if not scaled:
            return sum(times), statuses
        self.speed_samples += samples
        return sum(speed.to_reference(times, samples)), statuses

    def load(self, report, status: int):
        """Flattened form (see gate.py) and JSON document of one written report."""
        json_path, csv_path = self.paths(report)
        document = json.loads(json_path.read_text())
        csv_text = csv_path.read_text() if report.writes_csv else None
        return gate.flatten_report(status, document, csv_text), document

    def check(self, report, status: int) -> dict | None:
        """Gate one report; returns its JSON document, or None on failure."""
        self.attempted += 1
        try:
            flat, document = self.load(report, status)
        except (OSError, ValueError) as exc:
            self.fail(f"{report.label}: unreadable output ({exc})")
            return None
        errors = [f"schema: {e.message}" for e in self.validator.iter_errors(document)]
        if report.label not in self.expected:
            errors.append(f"no committed expectation for hamalg seed {self.seed}")
        else:
            errors += gate.mismatches(self.expected[report.label], flat)
        if errors:
            self.fail(f"{report.label}: " + "; ".join(errors[:5]))
            return None
        return document

    def check_all(self, statuses, reports=None) -> list:
        return [self.check(r, s) for r, s in zip(reports or self.reports, statuses)]


def measure_setup(work: Workload):
    """Start-up-to-first-report times of SETUP_PROBES fresh interpreters,
    and speed samples around them."""
    json_path, _ = work.paths(PROBE)
    times, samples = [], [speed.sample()]
    for _ in range(SETUP_PROBES):
        json_path.unlink(missing_ok=True)
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "probe.py"), str(SRC), *work.argv(PROBE)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        try:
            times.append(float(proc.stdout.split()[-1]) - start)
        except (IndexError, ValueError):
            work.problems.append(f"setup probe printed no clock: {proc.stderr[-300:]}")
            break
        samples.append(speed.sample())
        work.check(PROBE, proc.returncode)
    return times, samples


def _kept_witness_elements(document) -> int:
    if isinstance(document, dict):
        return sum(len(v or ()) if k in gate.WITNESS_KEYS else _kept_witness_elements(v)
                   for k, v in document.items())
    if isinstance(document, list):
        return sum(_kept_witness_elements(v) for v in document)
    return 0


def layer_metrics(spans, wall: float, documents) -> dict:
    """Per-layer metrics of one traced repetition."""
    table = tracing.aggregate(spans)
    out = {}
    for layer in tracing.LAYERS:
        row = table.get(layer, {"calls": 0, "self_s": 0.0, "work": 0})
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.self_s"] = row["self_s"]
        if layer in tracing.WORK_LABELS:
            out[f"{layer}.{tracing.WORK_LABELS[layer]}"] = row["work"]

    kept = sum(_kept_witness_elements(d) for d in documents)
    serialised = out["serialize.element_to_json.calls"]
    out["serialize.witnesses_kept"] = kept
    out["serialize.witness_useful_ratio"] = kept / serialised if serialised else 0.0

    # A restriction fit draws pairs until enough are non-degenerate and
    # evaluates the composed bracket once per accepted pair.
    checks = {i for i, s in enumerate(spans) if s[tracing.NAME] == "uniqueness.uniqueness_check"}
    under = [s[tracing.NAME] for s in spans if s[tracing.PARENT] in checks]
    drawn = under.count("algebra.random_element") // 2
    out["uniqueness.pairs_drawn"] = drawn
    out["uniqueness.draw_accept_ratio"] = under.count("compose.alpha.qq") / drawn if drawn else 0.0

    def share(prefixes):
        return sum(row["self_s"] for name, row in table.items()
                   if name.startswith(prefixes)) / wall

    out["share.kernels_elements"] = share(("kernels.", "elements."))
    out["share.compose_brackets"] = share(("compose.", "brackets."))
    return out


COUNT_SUFFIXES = (".calls", ".term_pairs", ".out_terms", ".trials", ".pairs_drawn",
                  ".witnesses_kept")


def run_traced(work: Workload, seconds: float, seed: int):
    """Alternate untraced and traced repetitions; per-layer medians."""
    warm_up(work)
    untraced, traced, rows, fastest_spans = [], [], [], []
    deadline = time.monotonic() + seconds
    while not traced or time.monotonic() < deadline:
        wall, statuses = work.repeat()
        work.check_all(statuses)
        untraced.append(wall)
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            wall, statuses = work.repeat(tracer.wrap(work.main, "cli.main"))
        documents = work.check_all(statuses)
        traced.append(wall)
        rows.append(layer_metrics(tracer.spans, wall, [d for d in documents if d]))
        if wall <= min(traced):
            fastest_spans = tracer.spans

    for name in rows[0]:
        values = {row[name] for row in rows}
        if name.endswith(COUNT_SUFFIXES) and len(values) != 1:
            work.problems.append(f"{name} differs between traced repetitions: {values}")
    fastest = min(range(len(traced)), key=traced.__getitem__)
    metrics = dict(rows[fastest])
    metrics["trace.wall_s"] = traced[fastest]
    metrics["trace.overhead_s"] = traced[fastest] - min(untraced)

    kernel_metrics, kernel_problems = kernel_check.run(seed)
    work.attempted += len(kernel_metrics) // 2
    for problem in kernel_problems:
        work.fail(problem)
    metrics.update(kernel_metrics)
    detail = {"untraced_wall_s": untraced, "traced_wall_s": traced,
              "spans": [list(s) for s in fastest_spans]}
    return metrics, detail


def warm_up(work: Workload) -> None:
    """One in-process report, so lazy imports and first-call set-up inside
    numpy are not charged to the first timed repetition."""
    _, statuses = work.repeat(reports=(PROBE,))
    work.check_all(statuses, (PROBE,))


def run_untraced(work: Workload, seconds: float):
    setup, setup_samples = measure_setup(work)
    warm_up(work)
    walls = []
    deadline = time.monotonic() + seconds
    while len(walls) < 3 or time.monotonic() < deadline:
        wall, statuses = work.repeat(scaled=True)
        work.check_all(statuses)
        walls.append(wall)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss   # KiB on Linux
    setup_ref = speed.to_reference(setup, setup_samples)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_ref) if setup_ref else 0.0,
        "peak_rss_mb": peak_kib / 1024.0,
    }
    return metrics, {"wall_s": walls, "setup_s": setup_ref, "raw_setup_s": setup,
                     "speed_samples_s": work.speed_samples + setup_samples}


def describe(name: str, metrics: dict, detail: dict, work: Workload) -> list:
    lines = []
    if "wall_s" in detail:
        walls, setup = detail["wall_s"], detail["setup_s"]
        lines.append(f"wall_s         {metrics['wall_s']:.4f} s   reference seconds, median of "
                     f"{len(walls)} repetitions")
        lines.append(f"setup_s        {metrics['setup_s']:.4f} s   reference seconds, median of "
                     f"{len(setup)} fresh interpreters")
        loop_ms = statistics.median(detail["speed_samples_s"]) * 1e3
        lines.append(f"speed          reference loop took {loop_ms:.2f} ms (median), "
                     f"{speed.REFERENCE_S * 1e3:.1f} ms at reference speed")
        lines.append(f"peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB")
    else:
        lines.append(f"trace          {len(detail['traced_wall_s'])} traced repetitions, "
                     f"wall {metrics['trace.wall_s']:.4f} s, "
                     f"overhead {metrics['trace.overhead_s']:+.4f} s")
    lines.append(f"failed_reports {work.failed} of {work.attempted} "
                 f"({work.failed / max(work.attempted, 1):.3f})")
    return [f"{name}: {line}" for line in lines]


def run_one(args) -> int:
    pin_environment()
    hamalg = import_hamalg()
    seed = hamalg_seed(args.seed)
    TMP_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_DIR) as tmp:
        with open(EXPECTED_DIR / f"{args.workload}.json") as fh:
            expected = json.load(fh)["seeds"].get(str(seed), {})
        work = Workload(args.workload, seed, Path(tmp), expected)
        if args.trace:
            metrics, detail = run_traced(work, args.seconds, seed)
            units = dict(per_layer_metrics())
        else:
            metrics, detail = run_untraced(work, args.seconds)
            units = dict(END_TO_END)
    prov = provenance(hamalg, args, seed)
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"provenance": prov, "metrics": metrics,
                                    "problems": work.problems, **detail}) + "\n")
    for problem in work.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for line in describe(args.workload, metrics, detail, work):
        print(line)
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": not work.problems,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, summarised in one table."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 4 * args.seconds)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.splitlines()[-1])))
    for name, result in rows:
        cells = [f"{m} {v['value']:.4g} {v['unit']}" for m, v in result["metrics"].items()]
        if not args.trace:
            cells.append(f"failed_reports {result['failed']}/{result['attempted']}")
        print(f"{name:<14} " + "  ".join(cells))
    return 0 if all(r["correct"] for _, r in rows) else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashes, and with them dict and set layouts, change from
        # process to process unless pinned; across five 30-second runs of the
        # same inputs that moved wall_s by 5% (quartile spread) against 3%
        # pinned.  exec replaces this process, so no child is left behind.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    sys.exit(main())
