"""The benchmark's workloads: which hamalg reports one repetition writes.

Each workload is shaped to load one layer.

* ``classical`` -- the phase-space identity suite at 2 pairs, degree 3.
  Random polynomials have 35 terms and nested products hundreds, so the
  sparse kernel (``mul``/``poisson``) and ``PhaseSpacePoly`` term
  validation do the work; the compose and brackets layers are idle.
* ``hybrid`` -- every mixed bracket with its witness searches, plus the
  quantum (x) classical identity suite.  The hybrid term-pair loops
  (bracket, associative product, qc sigma/alpha), witness serialisation
  and dense-oracle replay do the work; the kernel sees only 1-term
  Poisson calls.  The three ``hybrid_paper`` searches run their whole
  budget because that bracket has no violation to find.
* ``short-reports`` -- a sweep of sub-second reports, where per-call and
  per-report overhead dominates: random draws, ``_lr_table``, schema
  validation.  The broken-bracket searches stop at trial 0, so a batched
  search would lose here while it wins on ``hybrid``; the sparse kernel
  is bypassed, so a faster kernel should change nothing.

Trial counts and budgets are small, so that one repetition takes under
a second on one core of a 2-core x86-64 container and a run's median is
taken over dozens of repetitions: on a shared machine single repetitions
of one workload vary by up to 2x.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The benchmark seed n selects hamalg seed n % SEED_POOL; expectations
#: are committed for every pool seed.  Tune on seed 0; confirm a claimed
#: gain on HELD_OUT_SEED, which is kept out of tuning.
SEED_POOL = 8
HELD_OUT_SEED = 7


@dataclass(frozen=True)
class Report:
    """One CLI call.  ``{json}`` and ``{csv}`` in argv name its outputs;
    ``--seed`` is appended."""

    label: str
    argv: tuple

    @property
    def writes_csv(self) -> bool:
        return "{csv}" in self.argv


def _verify(label, *extra):
    return Report(label, ("verify", *extra, "--out", "{json}"))


def _brackets(label, *extra):
    return Report(label, ("brackets", *extra, "--out", "{json}"))


#: The first report a fresh interpreter writes when set-up time is measured.
PROBE = _verify("probe", "--dim", "2", "--trials", "1")

WORKLOADS = {
    "classical": (
        _verify("verify_phase_space", "--realization", "phase-space",
                "--pairs", "2", "--degree", "3", "--trials", "2"),
    ),
    "hybrid": (
        _brackets("brackets_all", "--trials", "3", "--budget", "25"),
        _verify("verify_hybrid", "--hybrid", "--trials", "5"),
    ),
    "short-reports": (
        *(_verify(f"verify_dim{d}", "--dim", str(d), "--trials", "20") for d in (2, 3, 4, 6)),
        _verify("verify_composed_equal", "--composed", "--a1", "1", "--a2", "1",
                "--a12", "1", "--trials", "20"),
        _verify("verify_composed_unequal", "--composed", "--a1", "1", "--a2", "2",
                "--a12", "1.5", "--trials", "20"),
        Report("uniqueness_scan", ("uniqueness", "scan", "--grid", "0.25:4:3",
                                   "--out", "{csv}", "--json-out", "{json}")),
        *(Report(f"simulate_{r}", ("simulate", "--regime", r, "--out", "{csv}",
                                   "--summary-out", "{json}")) for r in ("qq", "qc")),
        *(_brackets(f"brackets_{k}", "--kind", k, "--trials", "1")
          for k in ("anderson", "aleksandrov", "boucher_traschen")),
    ),
}


def hamalg_seed(seed: int) -> int:
    return seed % SEED_POOL


def argv_for(report: Report, json_path: str, csv_path: str, seed: int) -> list:
    return [a.format(json=json_path, csv=csv_path) for a in report.argv] + ["--seed", str(seed)]
