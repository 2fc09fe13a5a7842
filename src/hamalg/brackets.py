"""Published mixed quantum-classical brackets and their defect profiles.

All brackets act on observable-valued functions (HybridElement): matrix
coefficients on classical monomials.  Writing [A,B]- = (AB - BA)/(i*hbar),
[A,B]+ = (AB + BA)/2 and {.,.}_P for the Poisson bracket:

* product_rule    : defined on simple products Xx and extended bilinearly,
                    {Xx, Yy} -> xy [X,Y]- + {x,y}_P [X,Y]+
                    (the composition rule valid only at equal constants,
                    misapplied to a classical factor)
* symmetrized     : [U,V]- + ({U,V}_P - {V,U}_P)/2 on whole elements,
                    with matrix coefficients multiplied in written order
* unsymmetrized   : [U,V]- + {U,V}_P, written order (not antisymmetric;
                    the written-order choice is itself an interpretation,
                    flagged in reports)
* hybrid          : [U,V]- with classical parts multiplied pointwise; the
                    bracket of the quantum (x) classical Hamilton algebra

Every bracket is scored against the three dynamics desiderata:
antisymmetry, the Jacobi identity, and the derivation identity over the
associative product.  The hybrid bracket satisfies all three; the
product_rule/symmetrized pair is antisymmetric but breaks Jacobi and
derivation; the unsymmetrized bracket breaks all three.

Trials run in blocks: one draw gives a block of T random input tuples,
held as HybridElements whose coefficients carry a leading trial axis
(T, d, d), and each bracket and product of a desideratum then runs once
per block, not once per trial.  ``measure_defects`` takes its trials in
blocks of at most MAX_BLOCK_TRIALS; a witness search evaluates trial 0
alone, where a broken bracket already fails, and then the rest of its
budget in such blocks.  The RNG stream, every defect and every witness
are those of the trial-by-trial loop, to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .algebra import hermitian_from_normals, relative_defect
from .compose import HybridElement, nonzero_terms, term_pair_sum
from .elements import monomials_up_to_degree
from .errors import AlgebraError
# not called here: perfbench/tracing.py wraps this name as a layer
from .kernels import poisson as _poly_poisson  # noqa: F401
from .serialize import element_from_json, element_to_json

#: defect above this (relative) counts as a genuine violation; three
#: orders of magnitude above the identity-suite pass tolerance
VIOLATION_THRESHOLD = 1e-6
PASS_TOLERANCE = 1e-10

#: most trials evaluated in one block: bounds the block's temporaries and
#: the trials a search evaluates past its first violation
MAX_BLOCK_TRIALS = 256


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
    return term_pair_sum(u, v, lambda A, B: (A @ B - B @ A) / (1j * hbar),
                         u.hermitian and v.hermitian)


def ordered_poisson(u: HybridElement, v: HybridElement) -> HybridElement:
    """{U,V}_P with matrix coefficients multiplied in written order:
    sum_k dU/dx_k . dV/dp_k - dU/dp_k . dV/dx_k."""
    return term_pair_sum(u, v, lambda A, B: (None, A @ B), False, poisson=True)


def _product_rule_bracket(u: HybridElement, v: HybridElement, hbar: float) -> HybridElement:
    """Simple-product definition extended bilinearly: each monomial term
    A x^m is a simple product, so
    {U,V} = sum (x^m x^n)[A,B]- + {x^m, x^n}_P [A,B]+ ."""
    def combine(A, B):
        AB, BA = A @ B, B @ A
        return (AB - BA) / (1j * hbar), 0.5 * (AB + BA)

    return term_pair_sum(u, v, combine, u.hermitian and v.hermitian, poisson=True)


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


# ---------------------------------------------------------------------------
# desiderata defects
# ---------------------------------------------------------------------------

def desideratum_defect(kind: MixedBracketKind, desideratum: str, elements,
                       hbar: float = 1.0) -> float | np.ndarray:
    """Relative defect of one dynamics desideratum on one input tuple; on a
    tuple of blocks, the array of the defects of its trials."""
    kind = MixedBracketKind(kind)
    if desideratum == "antisymmetry":
        u, v = elements
        diff = mixed_bracket(kind, u, v, hbar) + mixed_bracket(kind, v, u, hbar)
        norms = (u.norm(), v.norm())
    elif desideratum == "jacobi":
        u, v, w = elements
        diff = (mixed_bracket(kind, mixed_bracket(kind, u, v, hbar), w, hbar)
                + mixed_bracket(kind, mixed_bracket(kind, v, w, hbar), u, hbar)
                + mixed_bracket(kind, mixed_bracket(kind, w, u, hbar), v, hbar))
        norms = (u.norm(), v.norm(), w.norm())
    elif desideratum == "derivation":
        u, v, w = elements
        diff = (mixed_bracket(kind, u, v.assoc_product(w), hbar)
                - mixed_bracket(kind, u, v, hbar).assoc_product(w)
                - v.assoc_product(mixed_bracket(kind, u, w, hbar)))
        norms = (u.norm(), v.norm(), w.norm())
    else:
        raise ValueError(f"unknown desideratum {desideratum!r}")
    return relative_defect(diff.norm(), norms)


def random_hybrid_observable(rng: np.random.Generator, dim: int = 2, num_pairs: int = 1,
                             degree: int = 2, block: tuple | None = None):
    """Hermitian-coefficient random hybrid element on every monomial up to
    ``degree``.

    With ``block=(trials, arity)``, ``trials`` input tuples of ``arity``
    elements in one draw, returned as ``arity`` blocks: the numbers, in
    order, of ``trials * arity`` single calls.
    """
    monos = monomials_up_to_degree(2 * num_pairs, degree)
    trials, arity = block or (1, 1)
    h = hermitian_from_normals(rng.standard_normal((trials, arity, len(monos), 2, dim, dim)))
    # by element, then monomial: each coefficient (trials, dim, dim)
    h = np.ascontiguousarray(h.transpose(1, 2, 0, 3, 4))
    if block is None:
        return HybridElement._trusted(dim, num_pairs, nonzero_terms(monos, h[0, :, 0]), True)
    return [HybridElement._trusted(dim, num_pairs, nonzero_terms(monos, c), True, trials)
            for c in h]


def _trial_blocks(total: int, first: int | None = None):
    """(start, stop) of the blocks covering range(total): ``first`` trials
    (default MAX_BLOCK_TRIALS), then blocks of at most MAX_BLOCK_TRIALS."""
    start, size = 0, first or MAX_BLOCK_TRIALS
    while start < total:
        stop = min(start + size, total)
        yield start, stop
        start, size = stop, MAX_BLOCK_TRIALS


@dataclass
class DefectTriple:
    kind: MixedBracketKind
    antisymmetry_defect: float = 0.0
    jacobi_defect: float = 0.0
    derivation_defect: float = 0.0
    witnesses: dict = field(default_factory=dict)
    trials: int = 0
    seed: int = 0
    #: some trial's defect was NaN; the defects above skip it
    nan_seen: bool = field(default=False, init=False)

    def defect(self, desideratum: str) -> float:
        return getattr(self, f"{desideratum}_defect")

    def matches_expected_pattern(self) -> bool:
        if self.nan_seen:
            return False
        expected = EXPECTED_CLEAN[self.kind]
        for name in DESIDERATA:
            if expected[name] and self.defect(name) > PASS_TOLERANCE:
                return False
            if not expected[name] and self.defect(name) <= VIOLATION_THRESHOLD:
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


def measure_defects(kind: MixedBracketKind, trials: int = 200, seed: int = 0,
                    hbar: float = 1.0) -> DefectTriple:
    """Max relative defect of each desideratum over random hybrid triples,
    with the worst witness kept per desideratum: the last trial attaining
    the max (a NaN defect never counts, but breaks the expected pattern),
    serialized once at the end."""
    kind = MixedBracketKind(kind)
    result = DefectTriple(kind=kind, trials=trials, seed=seed)
    for di, name in enumerate(DESIDERATA):
        rng = np.random.default_rng([seed, di])
        arity = 2 if name == "antisymmetry" else 3
        worst, worst_at = 0.0, None  # worst_at: (block, trial in block)
        for start, stop in _trial_blocks(trials):
            block = random_hybrid_observable(rng, block=(stop - start, arity))
            d = desideratum_defect(kind, name, block, hbar)
            result.nan_seen = result.nan_seen or bool(np.isnan(d).any())
            candidates = d[d >= worst]  # NaN compares False
            if candidates.size:
                worst = float(candidates.max())
                worst_at = block, int(np.flatnonzero(d == worst)[-1])
        setattr(result, f"{name}_defect", worst)
        result.witnesses[name] = {
            "defect": worst,
            "elements": None if worst_at is None else _serialize_trial(*worst_at),
        }
    return result


def _serialize_trial(block, t: int) -> list:
    return [element_to_json(e.trial(t)) for e in block]


def find_violation_witness(kind: MixedBracketKind, desideratum: str, budget: int,
                           seed: int = 0, hbar: float = 1.0):
    """First random tuple whose defect exceeds VIOLATION_THRESHOLD; None if
    the budget is exhausted.  Trial 0 runs alone, then the rest of the
    budget in blocks."""
    if budget < 1:
        raise AlgebraError(f"budget must be >= 1, got {budget}")
    kind = MixedBracketKind(kind)
    di = DESIDERATA.index(desideratum)
    rng = np.random.default_rng([seed, di])
    arity = 2 if desideratum == "antisymmetry" else 3
    for start, stop in _trial_blocks(budget, first=1):
        block = random_hybrid_observable(rng, block=(stop - start, arity))
        d = desideratum_defect(kind, desideratum, block, hbar)
        over = np.flatnonzero(d > VIOLATION_THRESHOLD)
        if over.size:
            t = int(over[0])
            return {
                "kind": kind.value,
                "desideratum": desideratum,
                "trial": start + t,
                "defect": float(d[t]),
                "elements": _serialize_trial(block, t),
            }
    return None


def replay_witness_defect(witness: dict, hbar: float = 1.0) -> float:
    """Recompute a serialized witness's defect through the main path."""
    elements = [element_from_json(e) for e in witness["elements"]]
    return desideratum_defect(MixedBracketKind(witness["kind"]),
                              witness["desideratum"], elements, hbar)
