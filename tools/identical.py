"""Check that a change leaves every output of a fixed command corpus
byte-identical to a given revision's, timestamps aside.

Run from the root of a checkout:

    python3 tools/identical.py --against HEAD~1

REV's ``src`` is extracted with ``git archive`` into a temporary
directory, which registers nothing in the repository and leaves nothing
behind; the other side is the checkout's ``src``, uncommitted edits
included.  One child interpreter per tree runs the whole corpus in-process
through ``hamalg.cli.main``, the two trees side by side, and keeps what
each command left: its exit code, stdout, stderr and every file it wrote.

Compared are the exit codes, stdout and stderr with the tree's paths
replaced by placeholders, and every output file with its ``"timestamp"``
value blanked.  Each difference prints as command, stream or file, and
JSON path, with the old and new values and, for floats, their distance in
units in the last place.  A CSV text -- a ``*.csv`` file, or a text whose
header and every row hold the same number of cells, two or more -- prints
the same way by row and column name, and any other text by line.  The
exit status is 1 on any difference and 0 on none.

The corpus (``corpus()``) is every report of the benchmark's workloads on
each pool seed, read from ``perfbench/workloads.py``, and the command
lines of ``EXTRA``: each subcommand at its defaults, the heavy ``verify``
variants, composed algebras on 2 x 3 and 3 x 1 factors, hybrid blocks at
d = 3 on two pairs, a bracket scan past ``MAX_BLOCK_TRIALS``,
``uniqueness`` triples and grids, ``simulate`` in both regimes, the NaN,
small-hbar and extreme-constant cases, and the usage errors of
``tests/test_cli.py`` that need no input file.  In a command line
``{json}`` and ``{csv}`` name its output files and ``{dir}`` its output
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the output file names that ``{json}`` and ``{csv}`` stand for
OUTPUT_NAMES = {"json": "report.json", "csv": "out.csv"}
#: differing lines printed per text that is neither JSON nor CSV
SHOWN_LINES = 5

#: (label, argv) of the command lines run besides the workloads' reports
EXTRA = (
    # each subcommand at its defaults, and the heavy verify variants
    ("verify", ("verify",)),
    ("verify-hybrid", ("verify", "--hybrid")),
    ("verify-phase-space", ("verify", "--realization", "phase-space")),
    ("verify-phase-space-20", ("verify", "--realization", "phase-space", "--trials", "20")),
    ("verify-phase-space-pairs2", ("verify", "--realization", "phase-space", "--pairs", "2")),
    ("verify-composed", ("verify", "--composed", "--a1", "1", "--a2", "2", "--a12", "1.5")),
    # composed layouts with l != r and with r = 1, where a partial transpose
    # of the right factor is easiest to get wrong
    ("verify-composed-2x3", ("verify", "--composed", "--dim1", "2", "--dim2", "3",
                             "--a1", "1", "--a2", "2", "--a12", "1.5")),
    ("verify-composed-3x1", ("verify", "--composed", "--dim1", "3", "--dim2", "1",
                             "--a1", "1", "--a2", "1", "--a12", "1")),
    ("brackets", ("brackets",)),
    ("brackets-aleksandrov", ("brackets", "--kind", "aleksandrov", "--hbar", "0.3",
                              "--seed", "5", "--out", "{json}")),
    # hybrid blocks past d = 2 and one pair, and a witness search that scans
    # a block of MAX_BLOCK_TRIALS trials, then a shorter one
    ("verify-hybrid-dim3-pairs2", ("verify", "--hybrid", "--dim", "3", "--pairs", "2",
                                   "--trials", "20")),
    ("brackets-anderson-300", ("brackets", "--kind", "anderson", "--trials", "300",
                               "--budget", "600")),
    ("simulate", ("simulate",)),
    ("uniqueness-scan", ("uniqueness", "scan")),
    ("uniqueness-scan-files", ("uniqueness", "scan", "--out", "{csv}", "--json-out", "{json}")),
    ("uniqueness-grid6", ("uniqueness", "scan", "--grid", "0.5:2:6", "--out", "{csv}",
                          "--json-out", "{json}")),
    ("uniqueness-equal", ("uniqueness", "--a1", "1", "--a2", "1", "--a12", "1")),
    ("uniqueness-1-4-9", ("uniqueness", "--a1", "1", "--a2", "4", "--a12", "9",
                          "--out", "{json}")),
    ("uniqueness-2.25", ("uniqueness", "--a1", "2.25", "--a2", "2.25", "--a12", "2.25",
                         "--seed", "3", "--out", "{json}")),
    # simulate in both regimes, on several seeds and hbar, and a window
    # that opens before t = 0
    *((f"simulate-{regime}-seed{seed}",
       ("simulate", "--regime", regime, "--seed", str(seed), "--out", "{csv}",
        "--summary-out", "{json}"))
      for regime in ("qq", "qc") for seed in (0, 3, 7)),
    *((f"simulate-hbar{hbar}", ("simulate", "--hbar", hbar, "--out", "{csv}",
                                "--summary-out", "{json}")) for hbar in ("0.3", "2.5")),
    ("simulate-negative-t0", ("simulate", "--t0=-0.5", "--out", "{csv}",
                              "--summary-out", "{json}")),
    # NaN defects, and the small-hbar and vacuous cases that verify fails or
    # passes today
    ("verify-hbar-1e-160", ("verify", "--hbar", "1e-160", "--trials", "3")),
    ("brackets-hbar-1e-160", ("brackets", "--kind", "hybrid_paper", "--hbar", "1e-160",
                              "--trials", "3", "--budget", "5")),
    ("verify-hbar-1e-4", ("verify", "--hbar", "1e-4", "--trials", "20")),
    ("verify-hbar-1e-6", ("verify", "--hbar", "1e-6", "--trials", "20")),
    ("verify-composed-1e-8", ("verify", "--composed", "--a1", "1e-8", "--a2", "1e-8",
                              "--a12", "1e-8", "--trials", "20")),
    ("verify-degree1", ("verify", "--realization", "phase-space", "--degree", "1")),
    # constants whose products a1 * a2 or a1 / a12 leave the floats, and a
    # restriction factor of 1e6
    ("verify-composed-1e300", ("verify", "--composed", "--a1", "1e300", "--a2", "1e300",
                               "--a12", "1")),
    ("uniqueness-1e6", ("uniqueness", "--a1", "1e6", "--a2", "1", "--a12", "1e-6")),
    ("uniqueness-1e300", ("uniqueness", "--a1", "1e300", "--a2", "1", "--a12", "1e-300",
                          "--out", "{json}")),
    # usage errors
    *((f"usage-{i}", argv) for i, argv in enumerate((
        ("verify", "--hybrid", "--hbar", "5", "--trials", "1"),
        ("verify", "--realization", "phase-space", "--dim", "7", "--trials", "1"),
        ("verify", "--dim", "1"),
        ("verify", "--hybrid", "--dim", "1", "--trials", "2"),
        ("verify", "--realization", "phase-space", "--degree", "0"),
        ("verify", "--dim", "0"),
        ("verify", "--tolerance", "-1"),
        ("verify", "--trials", "0"),
        ("verify", "--pairs", "1.5"),
        ("verify", "--composed", "--a12", "0"),
        ("verify", "--hbar", "inf"),
        ("verify", "--hbar", "0"),
        ("verify", "--trials", "1", "--out", "{dir}/nodir/x.json"),
        ("brackets", "--kind", "anderson", "--budget", "0"),
        ("brackets", "--hbar", "nan"),
        ("brackets", "--hbar", "x"),
        ("simulate", "--hbar", "0"),
        ("simulate", "--hbar", "nan"),
        ("simulate", "--t0=-5"),
        ("simulate", "--samples", "1"),
        ("simulate", "--m2", "-1"),
        ("simulate", "--g0=-inf"),
        ("simulate", "--dt", "inf"),
        ("uniqueness",),
        ("uniqueness", "--a1", "1", "--a2", "1"),
        ("uniqueness", "scan", "--grid", "4:1:5"),
        ("uniqueness", "scan", "--grid", "1:inf:2"),
        ("uniqueness", "scan", "--a1", "1"),
        ("uniqueness", "--a1", "1", "--a2", "1", "--a12", "1", "--grid", "1:2:9"),
        ("uniqueness", "--a2", "nan"),
        ("uniqueness", "--a1", "inf", "--a2", "2", "--a12", "1.5"),
    ))),
)


def _load_workloads():
    """``perfbench/workloads.py``, loaded by path under a name of its own."""
    name = "_identical_workloads"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def corpus() -> list:
    """(label, argv) of every command line compared."""
    workloads = _load_workloads()
    lines = [(f"{workload}/{report.label}/seed{seed}",
              tuple(workloads.argv_for(report, "{json}", "{csv}", seed)))
             for workload, reports in workloads.WORKLOADS.items()
             for seed in range(workloads.SEED_POOL) for report in reports]
    return lines + list(EXTRA)


# ---------------------------------------------------------------------------
# the child: one tree, the whole corpus, in-process
# ---------------------------------------------------------------------------

def run_corpus(src: Path, run_dir: Path, lines: list) -> None:
    """Run every command line through ``hamalg.cli.main`` from ``src``;
    command i leaves ``exit``, ``stdout`` and ``stderr`` in ``run_dir/i``
    and its files in ``run_dir/i/out``."""
    sys.path.insert(0, str(src))
    from hamalg.cli import main

    for i, (_, argv) in enumerate(lines):
        here = run_dir / str(i)
        out = here / "out"
        out.mkdir(parents=True)
        names = {key: str(out / name) for key, name in OUTPUT_NAMES.items()}
        argv = [a.format(dir=out, **names) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = "raised"
        (here / "exit").write_text(f"{code}\n")
        (here / "stdout").write_text(stdout.getvalue())
        (here / "stderr").write_text(stderr.getvalue())


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def _ordinal(x: float) -> int:
    """The position of a float in the ordered doubles, so that adjacent
    doubles differ by 1."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF)


def _value_text(old, new) -> str:
    text = f"{old!r} -> {new!r}"
    if (isinstance(old, float) and isinstance(new, float)
            and math.isfinite(old) and math.isfinite(new)):
        text += f" ({abs(_ordinal(old) - _ordinal(new))} ulp)"
    return text


def json_differences(old, new, path: str = "$") -> list:
    """(JSON path, description) of each value that differs; floats are
    compared by their text, so -0.0 differs from 0.0 and NaN equals NaN."""
    if type(old) is not type(new):
        return [(path, _value_text(old, new))]
    if isinstance(old, dict):
        found = []
        for key in list(old) + [k for k in new if k not in old]:
            if key not in new or key not in old:
                side = "old" if key in old else "new"
                found.append((f"{path}.{key}", f"only in {side}"))
            else:
                found += json_differences(old[key], new[key], f"{path}.{key}")
        if not found and list(old) != list(new):
            found.append((path, f"key order {list(old)} -> {list(new)}"))
        return found
    if isinstance(old, list):
        found = [d for i, (a, b) in enumerate(zip(old, new))
                 for d in json_differences(a, b, f"{path}[{i}]")]
        if len(old) != len(new):
            found.append((path, f"length {len(old)} -> {len(new)}"))
        return found
    return [] if repr(old) == repr(new) else [(path, _value_text(old, new))]


def _csv_rows(text: str, is_csv: bool):
    """The rows of a CSV text: always for a ``*.csv`` file (``is_csv``),
    otherwise only if the header and every row hold the same number of
    cells, two or more; else None."""
    rows = list(csv.reader(io.StringIO(text)))
    if not is_csv and not (rows and len(rows[0]) >= 2
                           and all(len(row) == len(rows[0]) for row in rows)):
        return None
    return rows


def _cell_value(text: str):
    """A CSV cell as a float where it reads as one, else as its text."""
    try:
        return float(text)
    except ValueError:
        return text


def csv_differences(old: list, new: list) -> list:
    """(row and column, description) of each cell that differs between
    two CSV texts' rows; rows count from 1 after the header, and a column
    is named by the old header."""
    header = old[0] if old else []
    found = []
    for i, (a, b) in enumerate(zip(old, new)):
        where = "header" if i == 0 else f"row {i}"
        found += [(f"{where} {header[j] if j < len(header) else j}",
                   _value_text(_cell_value(x), _cell_value(y)))
                  for j, (x, y) in enumerate(zip(a, b)) if x != y]
        if len(a) != len(b):
            found.append((where, f"cells {len(a)} -> {len(b)}"))
    if len(old) != len(new):
        found.append(("rows", f"{len(old) - 1} -> {len(new) - 1}"))
    return found


def text_differences(old: str, new: str, is_csv: bool) -> list:
    """(where, description) of the differences between two texts: by JSON
    path when both parse as JSON, by row and column when both are CSV
    (always, with ``is_csv``), else by line, at most ``SHOWN_LINES``
    lines."""
    if old == new:
        return []
    try:
        found = json_differences(json.loads(old), json.loads(new))
    except ValueError:
        found = []
    if found:
        return found
    old_rows, new_rows = _csv_rows(old, is_csv), _csv_rows(new, is_csv)
    if old_rows is not None and new_rows is not None and old_rows != new_rows:
        return csv_differences(old_rows, new_rows)
    old_lines, new_lines = old.splitlines(), new.splitlines()
    lines = [(f"line {i + 1}", _value_text(a, b))
             for i, (a, b) in enumerate(zip(old_lines, new_lines)) if a != b]
    if len(old_lines) != len(new_lines):
        lines.append(("lines", f"{len(old_lines)} -> {len(new_lines)}"))
    if not lines:   # the same lines, different line ends
        lines.append(("text", "differs in line ends"))
    more = len(lines) - SHOWN_LINES
    return lines[:SHOWN_LINES] + ([("...", f"{more} more")] if more > 0 else [])


def _read(path: Path, run_dir: Path, src: Path) -> str:
    """A kept output with the tree's paths and the timestamps blanked."""
    text = path.read_text()
    text = text.replace(str(run_dir), "<run>").replace(str(src), "<src>")
    return _TIMESTAMP.sub('"timestamp": ""', text)


def compare_runs(lines: list, old: tuple, new: tuple) -> list:
    """Difference lines between two finished runs of ``lines``, each given
    as (src, run_dir)."""
    found = []
    for i, (label, _) in enumerate(lines):
        dirs = [run / str(i) for _, run in (old, new)]
        files = sorted({str(p.relative_to(d)) for d in dirs for p in d.rglob("*") if p.is_file()})
        for name in files:
            paths = [d / name for d in dirs]
            if not all(p.is_file() for p in paths):
                side = "old" if paths[0].is_file() else "new"
                found.append(f"{label}: {name}: only in {side}")
                continue
            texts = [_read(p, run, src) for p, (src, run) in zip(paths, (old, new))]
            found += [f"{label}: {name}: {where}: {what}"
                      for where, what in text_differences(*texts, name.endswith(".csv"))]
    return found


def compare_trees(old_src: Path, new_src: Path, lines: list, work: Path) -> list:
    """Run ``lines`` from both source trees, one child interpreter each,
    side by side, and return the difference lines."""
    spec = work / "corpus.json"
    spec.write_text(json.dumps(lines))
    env = {k: v for k, v in os.environ.items() if k not in ("HAMALG_SEED", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    sides = []
    for side, src in (("old", old_src), ("new", new_src)):
        run = work / side
        run.mkdir()
        proc = subprocess.Popen([sys.executable, __file__, "--child", str(src), str(run),
                                 str(spec)], env=env)
        sides.append((Path(src), run, proc))
    for src, _, proc in sides:
        if proc.wait() != 0:
            raise RuntimeError(f"the corpus run from {src} failed (exit {proc.returncode})")
    return compare_runs(lines, *((src, run) for src, run, _ in sides))


def _archive_src(rev: str, dest: Path) -> Path:
    """REV's ``src`` tree extracted under ``dest``."""
    tar = dest / "src.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(tar), rev, "src"], check=True)
    subprocess.run(["tar", "-x", "-f", str(tar), "-C", str(dest)], check=True)
    return dest / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="the revision whose outputs the checkout's must equal")
    parser.add_argument("--child", nargs=3, metavar=("SRC", "RUN", "CORPUS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        src, run, spec = args.child
        run_corpus(Path(src), Path(run), json.loads(Path(spec).read_text()))
        return 0
    if not args.against:
        parser.error("--against REV is required")
    lines = corpus()
    work = Path(tempfile.mkdtemp(prefix="identical-"))
    try:
        found = compare_trees(_archive_src(args.against, work), ROOT / "src", lines,
                              work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in found:
        print(line)
    print(f"{len(lines)} command lines, {len(found)} differences against {args.against}",
          file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
