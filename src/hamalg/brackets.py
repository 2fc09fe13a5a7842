"""Published mixed quantum-classical brackets and their defect profiles.

All brackets act on observable-valued functions (HybridElement): matrix
coefficients on classical monomials.  Writing [A,B]- = (AB - BA)/(i*hbar),
[A,B]+ = (AB + BA)/2 and {.,.}_P for the Poisson bracket, where each
matrix product AB is ``compose.coefficient_product`` (sums over k, never
``@``, so a term pair's product has the same bits in a block of trials as
alone; the dense oracle ``reference.py`` deliberately keeps ``@``, so the
two routes share no product formula):

* product_rule (``boucher_traschen``): defined on simple products Xx and
  extended bilinearly, {Xx, Yy} -> xy [X,Y]- + {x,y}_P [X,Y]+ (the
  composition rule valid only at equal constants, misapplied to a
  classical factor)
* symmetrized (``aleksandrov``): [U,V]- + ({U,V}_P - {V,U}_P)/2 on whole
  elements, with matrix coefficients multiplied in written order
* unsymmetrized (``anderson``): [U,V]- + {U,V}_P, written order (not
  antisymmetric; the written-order choice is itself an interpretation,
  flagged in reports)
* hybrid (``hybrid_paper``): [U,V]- with classical parts multiplied
  pointwise; the bracket of the quantum (x) classical Hamilton algebra

Every bracket is scored against the three dynamics desiderata:
antisymmetry, the Jacobi identity, and the derivation identity over the
associative product.  The hybrid bracket satisfies all three; the
product_rule/symmetrized pair is antisymmetric but breaks Jacobi and
derivation; the unsymmetrized bracket breaks all three.

The desiderata are the Hamilton-algebra identities of the same names:
``identities`` checks them on ``BracketAlgebra(kind, hbar)`` (``alpha``
the mixed bracket, ``sigma`` the associative product, ``random_element``
blocks of random hybrid observables, drawn by ``compose`` as the quantum
(x) classical algebra draws its elements), defining each defect (Jacobi as the
left-nested cyclic sum), scanning the trials and picking the witness.

A witness search reads the scan its desideratum's measurement made, so
each (bracket, desideratum) is scanned once.  While ``measure_defects``
reduces a desideratum's trials it notes the first one over
VIOLATION_THRESHOLD or NaN and the generator state after the last; a
search returns the noted trial if the budget reaches it, and otherwise
draws only the trials past the measured ones, in blocks of at most
MAX_BLOCK_TRIALS.  It finds the trial, the defect and the inputs of the
trial-by-trial loop, to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .compose import HybridElement, coefficient_product, random_hybrid_observable
from .errors import AlgebraError
from .identities import first_over, scan, worst_trial
from .kernels import MAX_BLOCK_TRIALS
# not called here: perfbench/tracing.py wraps this name as a layer
from .kernels import poisson_terms as _poly_poisson  # noqa: F401
from .serialize import element_to_json

#: defect above this (relative) counts as a genuine violation; three
#: orders of magnitude above the identity-suite pass tolerance
VIOLATION_THRESHOLD = 1e-6
PASS_TOLERANCE = 1e-10


class MixedBracketKind(str, Enum):
    BOUCHER_TRASCHEN = "boucher_traschen"
    ALEKSANDROV = "aleksandrov"
    ANDERSON = "anderson"
    HYBRID_PAPER = "hybrid_paper"


DESIDERATA = ("antisymmetry", "jacobi", "derivation")

#: which desiderata each bracket is expected to satisfy (True = clean)
EXPECTED_CLEAN = {
    MixedBracketKind.HYBRID_PAPER: {"antisymmetry": True, "jacobi": True, "derivation": True},
    MixedBracketKind.BOUCHER_TRASCHEN: {"antisymmetry": True, "jacobi": False,
                                        "derivation": False},
    MixedBracketKind.ALEKSANDROV: {"antisymmetry": True, "jacobi": False, "derivation": False},
    MixedBracketKind.ANDERSON: {"antisymmetry": False, "jacobi": False, "derivation": False},
}


def _commutator_bracket(u: HybridElement, v: HybridElement, hbar: float) -> HybridElement:
    """[U,V]- : commutator/(i*hbar) on coefficients, pointwise classical
    product.  This is also the hybrid Hamilton-algebra bracket."""
    return u.pair_sum(v, lambda A, B: (coefficient_product(A, B)
                                       - coefficient_product(B, A)) / (1j * hbar))


def ordered_poisson(u: HybridElement, v: HybridElement) -> HybridElement:
    """{U,V}_P with matrix coefficients multiplied in written order:
    sum_k dU/dx_k . dV/dp_k - dU/dp_k . dV/dx_k."""
    return u.pair_sum(v, lambda A, B: (None, coefficient_product(A, B)), poisson=True)


def _product_rule_bracket(u: HybridElement, v: HybridElement, hbar: float) -> HybridElement:
    """Simple-product definition extended bilinearly: each monomial term
    A x^m is a simple product, so
    {U,V} = sum (x^m x^n)[A,B]- + {x^m, x^n}_P [A,B]+ ."""
    def combine(A, B):
        AB, BA = coefficient_product(A, B), coefficient_product(B, A)
        return (AB - BA) / (1j * hbar), 0.5 * (AB + BA)

    return u.pair_sum(v, combine, poisson=True)


def _symmetrized_bracket(u: HybridElement, v: HybridElement, hbar: float) -> HybridElement:
    """Whole-element form: [U,V]- + half the antisymmetrized ordered
    Poisson bracket.  Coincides with the simple-product rule on all
    inputs; kept as a distinct code path (cross-checked in tests)."""
    sym = (ordered_poisson(u, v) - ordered_poisson(v, u)).scale(0.5)
    return _commutator_bracket(u, v, hbar) + sym


def _unsymmetrized_bracket(u: HybridElement, v: HybridElement, hbar: float) -> HybridElement:
    """[U,V]- + {U,V}_P with the ordered Poisson term taken as written."""
    return _commutator_bracket(u, v, hbar) + ordered_poisson(u, v)


_BRACKETS = {
    MixedBracketKind.BOUCHER_TRASCHEN: _product_rule_bracket,
    MixedBracketKind.ALEKSANDROV: _symmetrized_bracket,
    MixedBracketKind.ANDERSON: _unsymmetrized_bracket,
    MixedBracketKind.HYBRID_PAPER: _commutator_bracket,
}


def mixed_bracket(kind: MixedBracketKind, u: HybridElement, v: HybridElement,
                  hbar: float = 1.0) -> HybridElement:
    """Evaluate one mixed bracket on two hybrid observables."""
    if hbar <= 0:
        raise AlgebraError(f"hbar must be > 0, got {hbar}")
    return _BRACKETS[MixedBracketKind(kind)](u, v, hbar)


@dataclass(frozen=True)
class BracketAlgebra:
    """The bracket algebra one mixed bracket acts on, as ``identities``
    reads it: enough for the antisymmetry, Jacobi and derivation
    identities, which are the three desiderata."""
    kind: MixedBracketKind
    hbar: float

    def alpha(self, u: HybridElement, v: HybridElement) -> HybridElement:
        return mixed_bracket(self.kind, u, v, self.hbar)

    def sigma(self, u: HybridElement, v: HybridElement) -> HybridElement:
        return u.assoc_product(v)

    def random_element(self, rng: np.random.Generator, block: tuple) -> list:
        return random_hybrid_observable(rng, block=block)


@dataclass(frozen=True)
class MeasuredScan:
    """What a witness search reads of one desideratum's measured trials:
    ``hit``, the first trial over VIOLATION_THRESHOLD or NaN as
    ``first_over`` gives it, (trial, defect, inputs), or None; and
    ``rng_state``, the PCG64 state after the last measured trial, from
    which every search resumes alike."""
    hit: tuple | None
    rng_state: dict


@dataclass
class DefectTriple:
    kind: MixedBracketKind
    antisymmetry_defect: float = 0.0
    jacobi_defect: float = 0.0
    derivation_defect: float = 0.0
    witnesses: dict = field(default_factory=dict)
    trials: int = 0
    seed: int = 0
    hbar: float = 1.0
    #: desideratum -> MeasuredScan; not part of the report
    scans: dict = field(default_factory=dict, repr=False)

    def defect(self, desideratum: str) -> float:
        return getattr(self, f"{desideratum}_defect")

    def matches_expected_pattern(self) -> bool:
        """Each clean desideratum under PASS_TOLERANCE and each broken one
        over VIOLATION_THRESHOLD; a NaN defect is neither."""
        expected = EXPECTED_CLEAN[self.kind]
        for name in DESIDERATA:
            if expected[name] and not self.defect(name) <= PASS_TOLERANCE:
                return False
            if not expected[name] and not self.defect(name) > VIOLATION_THRESHOLD:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "trials": self.trials,
            "seed": self.seed,
            "antisymmetry_defect": self.antisymmetry_defect,
            "jacobi_defect": self.jacobi_defect,
            "derivation_defect": self.derivation_defect,
            "witnesses": self.witnesses,
            "matches_expected_pattern": self.matches_expected_pattern(),
            "notes": self._notes(),
        }

    def _notes(self) -> list:
        notes = ["simple-product bracket extended bilinearly to general elements"] \
            if self.kind is MixedBracketKind.BOUCHER_TRASCHEN else []
        if self.kind is MixedBracketKind.ANDERSON:
            notes.append("Poisson term orders matrix coefficients left-to-right as written; "
                         "the source rule fixes no ordering")
        return notes


def _noting_first_hit(blocks, found: list):
    """A scan's blocks, passed on unchanged; the first trial over
    VIOLATION_THRESHOLD or NaN, as ``first_over`` gives it, is appended
    to ``found``."""
    for block in blocks:
        if not found:
            hit = first_over([block], VIOLATION_THRESHOLD)
            if hit is not None:
                found.append(hit)
        yield block


def measure_defects(kind: MixedBracketKind, trials: int = 200, seed: int = 0,
                    hbar: float = 1.0) -> DefectTriple:
    """Max relative defect of each desideratum over random hybrid triples,
    with the worst witness kept per desideratum: the last trial attaining
    the max, serialized once at the end.  A desideratum with a NaN trial
    reports a NaN defect; its witness is still the last maximal finite
    trial.  The triple also keeps, in ``scans``, what a witness search
    from it reads: each desideratum's first trial over VIOLATION_THRESHOLD
    or NaN and its generator's state after the measured trials."""
    if trials < 1:
        raise AlgebraError(f"trials must be >= 1, got {trials}")
    kind = MixedBracketKind(kind)
    result = DefectTriple(kind=kind, trials=trials, seed=seed, hbar=hbar)
    alg = BracketAlgebra(kind, hbar)
    for di, name in enumerate(DESIDERATA):
        rng = np.random.default_rng([seed, di])
        hits = []
        worst, inputs, nan_seen, _ = worst_trial(
            _noting_first_hit(scan(alg, name, rng, trials, MAX_BLOCK_TRIALS), hits))
        setattr(result, f"{name}_defect", np.nan if nan_seen else worst)
        result.witnesses[name] = {
            "defect": worst,
            "elements": None if inputs is None else [element_to_json(e) for e in inputs],
        }
        result.scans[name] = MeasuredScan(hits[0] if hits else None, rng.bit_generator.state)
    return result


def find_violation_witness(measured: DefectTriple, desideratum: str, budget: int):
    """First random tuple of trials 0 to ``budget`` - 1 whose defect
    exceeds VIOLATION_THRESHOLD or is NaN; None if there is none.

    ``measured`` is the ``measure_defects`` triple whose scan the search
    continues: its kind, seed and hbar are the search's, its noted first
    hit is the answer if it lies within the budget, and otherwise the
    trials from its ``trials`` to the budget are drawn, in blocks, from
    its noted generator state."""
    if budget < 1:
        raise AlgebraError(f"budget must be >= 1, got {budget}")
    noted = measured.scans[desideratum]
    if noted.hit is not None:
        hit = noted.hit if noted.hit[0] < budget else None
    else:
        rng = np.random.default_rng([measured.seed, DESIDERATA.index(desideratum)])
        rng.bit_generator.state = noted.rng_state
        hit = first_over(scan(BracketAlgebra(measured.kind, measured.hbar), desideratum, rng,
                              budget, MAX_BLOCK_TRIALS, start=measured.trials),
                         VIOLATION_THRESHOLD)
    if hit is None:
        return None
    trial, defect, inputs = hit
    return {
        "kind": measured.kind.value,
        "desideratum": desideratum,
        "trial": trial,
        "defect": defect,
        "elements": [element_to_json(e) for e in inputs],
    }
