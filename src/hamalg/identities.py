"""Randomized defect measurement for Hamilton-algebra identities.

Any object exposing ``sigma``, ``alpha``, ``tau``, ``associator_sigma``
(read by the canonical relation), ``random_element``, ``block_entries``
and ``constant`` can be checked, and an identity reads only the operations
it names.  Each identity is evaluated on
random input tuples; the reported defect is
||LHS - RHS|| / (1 + prod of input norms).  Jacobi is the left-nested
cyclic sum alpha(alpha(f, g), h) + cyclic; the right-nested form differs on
a bracket that is not antisymmetric.  A failing identity is a reported
result, never an exception, so the same machinery certifies honest
algebras and exposes corrupted ones.

``check_identity`` returns its result in the one form the ``verify``
report holds it: the dict of an entry of the report's ``checks``, which
the schema validates.  ``run_axiom_suite`` returns the list of those
entries, and ``cli`` assembles the report around them.

``scan`` draws and scores the input tuples a block at a time: an algebra
draws a block of T input tuples in one call, as elements whose
coefficients carry a trial axis, (T, n, n) for a matrix, and (T,) or
(d, d, T), the trial axis innermost, per monomial for a polynomial; each
product of an identity then runs once per block.  ``check_identity``
takes T at most ``kernels.MAX_BLOCK_TRIALS`` and at most
``kernels.BLOCK_PAIRS`` over the ``block_entries`` coefficient entries of
the largest element one trial forms.  ``worst_trial`` reduces a scan (the last maximal trial wins, a NaN
never does) and ``first_over`` stops one at its first defect over a
threshold or NaN.  The RNG stream, every defect, the mean and the witness
are those of the trial-by-trial loop, to the bit.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .algebra import HamiltonAlgebra, relative_defect
from .kernels import BLOCK_PAIRS, MAX_BLOCK_TRIALS
from .serialize import element_to_json


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
        diff = (alg.alpha(alg.alpha(f, g), h)
                + alg.alpha(alg.alpha(g, h), f)
                + alg.alpha(alg.alpha(h, f), g))
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
    return relative_defect(diff.norm(), norms)


def block_trials(alg: HamiltonAlgebra) -> int:
    """Trials per block for the algebra's block draws."""
    return max(1, min(MAX_BLOCK_TRIALS, BLOCK_PAIRS // alg.block_entries))


def scan(alg, identity: Identity, rng: np.random.Generator, trials: int, size: int,
         start: int = 0):
    """Draw the random input tuples of trials ``start`` to ``trials`` - 1 of
    ``identity`` and score them ``size`` trials a block at a time: yield
    (first trial, elements, defects) per block, the defects as Python
    floats in trial order.  A scan from ``start`` > 0 resumes one that
    stopped there, on ``rng`` in the state that scan left it."""
    identity = Identity(identity)
    arity = _ARITY[identity]
    for first in range(start, trials, size):
        elements = alg.random_element(rng, block=(min(size, trials - first), arity))
        yield first, elements, identity_defect(alg, identity, elements).tolist()


def _trial_inputs(elements, t: int) -> list:
    """Trial ``t`` of a scanned block as single elements."""
    return [e.trial(t) for e in elements]


def worst_trial(blocks) -> tuple:
    """Reduce a scan to (max defect, the last trial attaining it as single
    elements, whether any defect was NaN, the Python-float sum of the
    defects in trial order).  A NaN defect never attains the max; with no
    finite defect the max is 0.0 and the trial None."""
    worst, worst_at, total, nan_seen = 0.0, None, 0.0, False
    for _, elements, defects in blocks:
        for t, defect in enumerate(defects):
            total += defect
            nan_seen = nan_seen or math.isnan(defect)
            if defect >= worst:
                worst, worst_at = defect, (elements, t)
    return worst, None if worst_at is None else _trial_inputs(*worst_at), nan_seen, total


def first_over(blocks, threshold: float):
    """(trial, defect, inputs) of a scan's first trial whose defect is not
    <= ``threshold`` (a NaN is not); None if there is none.  The scan stops
    there: no later block is drawn."""
    for start, elements, defects in blocks:
        for t, defect in enumerate(defects):
            if not defect <= threshold:
                return start + t, defect, _trial_inputs(elements, t)
    return None


def check_identity(alg: HamiltonAlgebra, identity: Identity, trials: int,
                   tolerance: float, seed: int) -> dict:
    """Run one identity check, ``trials`` random tuples with the worst case
    kept, and return its entry of the ``verify`` report's ``checks``.

    Deterministic given the seed; the RNG stream is salted with the
    identity so the checks of a suite draw independent inputs.  The
    tuples are scanned in blocks of ``block_trials(alg)`` and reduced by
    ``worst_trial``: the mean is the sum over the trials, and the witness,
    serialized once at the end, is the last tuple attaining the max defect.
    A NaN trial makes the max defect NaN, which fails the check; the
    witness is still the last maximal finite trial.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not tolerance > 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    identity = Identity(identity)
    rng = np.random.default_rng([seed, list(Identity).index(identity)])
    worst, inputs, nan_seen, total = worst_trial(
        scan(alg, identity, rng, trials, block_trials(alg)))
    max_defect = math.nan if nan_seen else worst
    return {
        "identity": identity.value,
        "trials": trials,
        "tolerance": tolerance,
        "seed": seed,
        "max_relative_defect": max_defect,
        "mean_relative_defect": total / trials,
        "worst_witness": [element_to_json(e) for e in inputs or ()],
        "passed": max_defect <= tolerance,
    }


def run_axiom_suite(alg: HamiltonAlgebra, trials: int, tolerance: float,
                    seed: int) -> list:
    """The ``checks`` entries of every identity against one algebra, in
    the order of ``Identity``."""
    return [check_identity(alg, identity, trials, tolerance, seed) for identity in Identity]

