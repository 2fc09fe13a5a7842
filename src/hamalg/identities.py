"""Randomized defect measurement for Hamilton-algebra identities.

Any object exposing ``sigma``, ``alpha``, ``tau``, ``associator_sigma``
(read by the canonical relation), ``random_element`` and ``constant`` can
be checked; ``block_entries`` is optional (see below).  Each identity is
evaluated on random input tuples; the reported defect is
||LHS - RHS|| / (1 + prod of input norms).
A failing identity is a reported result, never an exception, so the same
machinery certifies honest algebras and exposes corrupted ones.

Trials run in blocks.  An algebra that declares ``block_entries`` (the
operator algebras and quantum (x) quantum composition) draws a block of
T input tuples in one call, as elements whose entries carry a leading
trial axis (T, n, n), and each product of an identity then runs once per
block; T is at most ``kernels.MAX_BLOCK_TRIALS`` and at most
``kernels.BLOCK_PAIRS`` matrix entries per element.  Any other algebra is
checked one trial per block, on single elements, through the same loop.
The RNG stream, every defect, the mean and the witness are those of the
trial-by-trial loop, to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum

import numpy as np

from .algebra import HamiltonAlgebra, relative_defect
from .kernels import BLOCK_PAIRS, MAX_BLOCK_TRIALS
from .serialize import element_from_json, element_to_json


class Identity(str, Enum):
    ANTISYMMETRY = "antisymmetry"
    JACOBI = "jacobi"
    SYMMETRY = "symmetry"
    DERIVATION = "derivation"
    CANONICAL_RELATION = "canonical_relation"
    JORDAN = "jordan"
    TAU_ASSOCIATIVITY = "tau_associativity"


#: identities defining a Hamilton algebra (the axioms), in defining order
AXIOM_IDENTITIES = (
    Identity.ANTISYMMETRY,
    Identity.JACOBI,
    Identity.SYMMETRY,
    Identity.DERIVATION,
    Identity.CANONICAL_RELATION,
)

#: composed-algebra lemma number -> identity it asserts
LEMMA_IDENTITIES = {
    1: Identity.ANTISYMMETRY,
    2: Identity.SYMMETRY,
    3: Identity.JACOBI,
    4: Identity.DERIVATION,
    5: Identity.CANONICAL_RELATION,
}

_ARITY = {
    Identity.ANTISYMMETRY: 2,
    Identity.JACOBI: 3,
    Identity.SYMMETRY: 2,
    Identity.DERIVATION: 3,
    Identity.CANONICAL_RELATION: 3,
    Identity.JORDAN: 2,
    Identity.TAU_ASSOCIATIVITY: 3,
}


def identity_defect(alg: HamiltonAlgebra, identity: Identity, elements) -> float | np.ndarray:
    """Relative defect of one identity on one input tuple; on a tuple of
    blocks, the array of the defects of its trials."""
    identity = Identity(identity)
    if identity is Identity.ANTISYMMETRY:
        f, g = elements
        diff = alg.alpha(f, g) + alg.alpha(g, f)
        norms = (f.norm(), g.norm())
    elif identity is Identity.JACOBI:
        f, g, h = elements
        diff = (alg.alpha(f, alg.alpha(g, h))
                + alg.alpha(g, alg.alpha(h, f))
                + alg.alpha(h, alg.alpha(f, g)))
        norms = (f.norm(), g.norm(), h.norm())
    elif identity is Identity.SYMMETRY:
        f, g = elements
        diff = alg.sigma(f, g) - alg.sigma(g, f)
        norms = (f.norm(), g.norm())
    elif identity is Identity.DERIVATION:
        f, g, h = elements
        diff = (alg.alpha(f, alg.sigma(g, h))
                - alg.sigma(alg.alpha(f, g), h)
                - alg.sigma(g, alg.alpha(f, h)))
        norms = (f.norm(), g.norm(), h.norm())
    elif identity is Identity.CANONICAL_RELATION:
        f, g, h = elements
        rhs = alg.alpha(alg.alpha(f, h), g).scale(alg.constant.a)
        diff = alg.associator_sigma(f, g, h) - rhs
        norms = (f.norm(), g.norm(), h.norm())
    elif identity is Identity.JORDAN:
        f, g = elements
        fsq = alg.sigma(f, f)
        diff = alg.sigma(fsq, alg.sigma(g, f)) - alg.sigma(alg.sigma(fsq, g), f)
        norms = (f.norm(), f.norm(), g.norm(), f.norm())
    elif identity is Identity.TAU_ASSOCIATIVITY:
        f, g, h = elements
        diff = alg.tau(alg.tau(f, g), h) - alg.tau(f, alg.tau(g, h))
        norms = (f.norm(), g.norm(), h.norm())
    else:  # pragma: no cover
        raise ValueError(f"unknown identity {identity}")
    return relative_defect(diff.norm(), norms)


@dataclass(frozen=True)
class IdentityCheck:
    identity: Identity
    trials: int = 200
    tolerance: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")


@dataclass
class CheckResult:
    identity: Identity
    trials: int
    tolerance: float
    seed: int
    max_relative_defect: float
    mean_relative_defect: float
    worst_witness: list
    passed: bool

    def to_json(self) -> dict:
        return {
            "identity": self.identity.value,
            "trials": self.trials,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "max_relative_defect": self.max_relative_defect,
            "mean_relative_defect": self.mean_relative_defect,
            "worst_witness": self.worst_witness,
            "passed": self.passed,
        }


@dataclass
class VerificationReport:
    algebra: dict
    checks: list = field(default_factory=list)
    timestamp: str = ""

    def __post_init__(self):
        if not self.timestamp:
            self.timestamp = datetime.now(timezone.utc).isoformat()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "report_kind": "verify",
            "algebra": self.algebra,
            "checks": [c.to_json() for c in self.checks],
            "passed": self.passed,
            "timestamp": self.timestamp,
        }


def block_trials(alg) -> int | None:
    """Trials per block for the algebra's block draws; None where it draws
    single elements only."""
    entries = getattr(alg, "block_entries", None)
    if entries is None:
        return None
    return max(1, min(MAX_BLOCK_TRIALS, BLOCK_PAIRS // entries))


def check_identity(alg: HamiltonAlgebra, check: IdentityCheck) -> CheckResult:
    """Run one identity check: `trials` random tuples, worst case kept.

    Deterministic given the check's seed; the RNG stream is salted with
    the identity so the checks of a suite draw independent inputs.  The
    tuples are drawn and evaluated a block at a time (see the module
    docstring), and their defects are then taken in trial order: the mean
    is their Python-float sum over the trials, and the witness is the last
    tuple attaining the max defect (a NaN defect never counts), serialized
    once at the end.  A NaN defect fails the check.
    """
    identity = Identity(check.identity)
    arity = _ARITY[identity]
    salt = list(Identity).index(identity)
    rng = np.random.default_rng([check.seed, salt])
    size = block_trials(alg)
    worst = 0.0
    worst_at = None   # (elements, trial in block, or None for single elements)
    total = 0.0
    nan_seen = False
    for start in range(0, check.trials, size or 1):
        if size is None:   # one tuple of single elements
            trials, elements = None, [alg.random_element(rng) for _ in range(arity)]
        else:              # a block of tuples, as ``arity`` blocks
            trials = min(size, check.trials - start)
            elements = alg.random_element(rng, block=(trials, arity))
        defects = identity_defect(alg, identity, elements)
        for t, defect in enumerate(np.atleast_1d(defects).tolist()):
            total += defect
            nan_seen = nan_seen or math.isnan(defect)
            if defect >= worst:
                worst = defect
                worst_at = elements, None if trials is None else t
    witness = []
    if worst_at is not None:
        elements, t = worst_at
        witness = [element_to_json(e if t is None else e.trial(t)) for e in elements]
    return CheckResult(
        identity=identity,
        trials=check.trials,
        tolerance=check.tolerance,
        seed=check.seed,
        max_relative_defect=worst,
        mean_relative_defect=total / check.trials,
        worst_witness=witness,
        passed=worst <= check.tolerance and not nan_seen,
    )


def run_axiom_suite(alg: HamiltonAlgebra, trials: int = 200, tolerance: float = 1e-9,
                    seed: int = 0) -> VerificationReport:
    """All identity checks against one algebra; aggregate pass is their
    conjunction."""
    report = VerificationReport(algebra=alg.describe())
    for identity in Identity:
        check = IdentityCheck(identity=identity, trials=trials,
                              tolerance=tolerance, seed=seed)
        report.checks.append(check_identity(alg, check))
    return report


def check_lemma(composed, lemma_id: int, trials: int = 200, tolerance: float = 1e-9,
                seed: int = 0) -> CheckResult:
    """Check one composition lemma (1..5) on a composed algebra, on the
    draws of ``verify --composed``."""
    if lemma_id not in LEMMA_IDENTITIES:
        raise ValueError(f"lemma_id must be 1..5, got {lemma_id}")
    check = IdentityCheck(identity=LEMMA_IDENTITIES[lemma_id], trials=trials,
                          tolerance=tolerance, seed=seed)
    return check_identity(composed, check)


def replay_witness(alg: HamiltonAlgebra, identity: Identity, witness: list) -> float:
    """Recompute the defect of a serialized witness tuple."""
    elements = [element_from_json(w) for w in witness]
    return identity_defect(alg, Identity(identity), elements)
