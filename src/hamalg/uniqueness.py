"""Restriction of composed products to their components, and the
resulting pin on the quantum constant.

Restricting the composed bracket to one component (other factor held at
its unit) always yields a scalar multiple of that component's bracket;
the scalar is sqrt(a_k / a12).  The standard restriction requirement --
that a composed product restrict to the component product with unit
factor -- therefore forces a1 = a12 and a2 = a12: one constant for every
composable pair.

The factor is measured numerically by a least-squares fit over random
embedded pairs, so the scaling law itself is validated rather than
assumed; the closed form enters only as the expected value.  The pairs
are drawn and evaluated in blocks, with the stream, the accepted pairs
and the fit of the pair-by-pair loop, to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import OperatorAlgebra
from .compose import ComposedAlgebra, KroneckerElement, kron_blocks
from .elements import frobenius_norms
from .errors import AlgebraError
from .identities import block_trials

DEFAULT_FACTOR_TOLERANCE = 1e-8
FIT_RESIDUAL_TOLERANCE = 1e-10
#: random pairs each restriction fit uses
MIN_FIT_PAIRS = 8
#: draws allowed per fit pair; a dim-1 bracket vanishes on every draw
MAX_DRAWS_PER_PAIR = 20
#: a pair whose component product is below this, relative to 1 + |f||g|,
#: is degenerate and resampled
_DEGENERATE_RTOL = 1e-12


@dataclass
class RestrictionResult:
    component: str           # "left" or "right"
    product: str             # "alpha" or "sigma"
    measured_factor: float
    expected_factor: float
    fit_residual: float      # relative to the reference magnitude
    satisfies_requirement: bool

    def to_json(self) -> dict:
        return {
            "component": self.component,
            "product": self.product,
            "measured_factor": self.measured_factor,
            "expected_factor": self.expected_factor,
            "fit_residual": self.fit_residual,
            "satisfies_requirement": self.satisfies_requirement,
        }


def _require_qq(c: ComposedAlgebra):
    if c.kind != "qq" or c.a1 <= 0 or c.a2 <= 0:
        raise AlgebraError("restriction analysis needs quantum (x) quantum with "
                           "positive constants")


def _sum_of_squares(norms) -> float:
    """The square of each norm, ``n ** 2``, added in turn from the first,
    as ``HybridElement.norm`` adds its squares: unlike the builtin ``sum``,
    which compensates float rounding since Python 3.12, an order that
    does not change with the interpreter."""
    total = 0.0
    for n in norms:
        total += n ** 2
    return total


def _restrict_fit(c: ComposedAlgebra, component: str, product: str,
                  seed: int, tolerance: float) -> RestrictionResult:
    """Least-squares scalar lambda with composed(f (x) e, g (x) e) =
    lambda * (component product)(f, g) (x) e, over MIN_FIT_PAIRS random
    pairs.  A residual above tolerance means the restricted product is
    not proportional to the embedded one, which is an internal error."""
    _require_qq(c)
    if component == "left":
        comp, other = c.left, c.right
        expected = np.sqrt(c.a1 / c.a12) if product == "alpha" else 1.0
    elif component == "right":
        comp, other = c.right, c.left
        expected = np.sqrt(c.a2 / c.a12) if product == "alpha" else 1.0
    else:
        raise AlgebraError(f"component must be 'left' or 'right', got {component!r}")

    unit = other.unit().entries

    def embed(f):
        """A block of component elements, each tensored with the unit."""
        ent = (kron_blocks(f.entries, unit) if component == "left"
               else kron_blocks(unit, f.entries))
        return KroneckerElement._trusted(c.left.dim, c.right.dim, ent)

    composed_op = c.alpha if product == "alpha" else c.sigma
    component_op = comp.alpha if product == "alpha" else comp.sigma

    rng = np.random.default_rng(seed)
    num = 0.0
    den = 0.0
    refs, vals = [], []
    cap = MAX_DRAWS_PER_PAIR * MIN_FIT_PAIRS
    attempts = 0
    while len(refs) < MIN_FIT_PAIRS and attempts < cap:
        # as many pairs as are still needed, so no pair past the last is drawn
        size = min(MIN_FIT_PAIRS - len(refs), cap - attempts, block_trials(c))
        f, g = comp.random_element(rng, block=(size, 2))
        attempts += size
        ref = embed(component_op(f, g))
        degenerate = ref.norm() < _DEGENERATE_RTOL * (1.0 + f.norm() * g.norm())
        val = composed_op(embed(f), embed(g))
        for t in np.flatnonzero(~degenerate).tolist():  # the rest is resampled
            num += float(np.real(np.vdot(ref.entries[t], val.entries[t])))
            den += float(np.real(np.vdot(ref.entries[t], ref.entries[t])))
            refs.append(ref.entries[t])
            vals.append(val.entries[t])
    if len(refs) < MIN_FIT_PAIRS:
        raise AlgebraError(f"the {component} component's {product} vanished on "
                           f"{attempts - len(refs)} of {attempts} random pairs "
                           f"(dim {comp.dim}); the restriction factor cannot be fitted")
    lam = num / den
    refs, vals = np.array(refs), np.array(vals)
    resid_sq = _sum_of_squares(frobenius_norms(vals - lam * refs))
    ref_sq = _sum_of_squares(frobenius_norms(refs))
    residual = np.sqrt(resid_sq) / np.sqrt(ref_sq)
    if residual > FIT_RESIDUAL_TOLERANCE:
        raise AlgebraError(
            f"restricted {product} is not proportional to the component product "
            f"(residual {residual:.3e}); composition is inconsistent"
        )
    return RestrictionResult(
        component=component,
        product=product,
        measured_factor=lam,
        expected_factor=float(expected),
        fit_residual=float(residual),
        satisfies_requirement=abs(lam - 1.0) <= tolerance,
    )


def restrict_alpha(c: ComposedAlgebra, component: str, seed: int = 0,
                   tolerance: float = DEFAULT_FACTOR_TOLERANCE) -> RestrictionResult:
    """Scaling factor of the composed bracket on one component."""
    return _restrict_fit(c, component, "alpha", seed, tolerance)


def restrict_sigma(c: ComposedAlgebra, component: str, seed: int = 0,
                   tolerance: float = DEFAULT_FACTOR_TOLERANCE) -> RestrictionResult:
    """Scaling factor of the composed symmetric product on one component;
    unit for all constants (the cross term dies on embedded pairs because
    the bracket of the unit with itself vanishes)."""
    return _restrict_fit(c, component, "sigma", seed, tolerance)


def uniqueness_check(a1: float, a2: float, a12: float,
                     tolerance: float = DEFAULT_FACTOR_TOLERANCE,
                     seed: int = 0) -> dict:
    """Verdict on one constant triple, on 2x2 matrix components: passes
    iff both restriction factors are unit within tolerance, i.e. iff
    a1 = a12 = a2."""
    if min(a1, a2, a12) <= 0:
        raise AlgebraError("uniqueness analysis needs positive constants")
    c = ComposedAlgebra(OperatorAlgebra(2, hbar=2.0 * np.sqrt(a1)),
                        OperatorAlgebra(2, hbar=2.0 * np.sqrt(a2)),
                        a12=a12)
    left = restrict_alpha(c, "left", seed, tolerance)
    right = restrict_alpha(c, "right", seed + 1, tolerance)
    return {
        "a1": float(a1),
        "a2": float(a2),
        "a12": float(a12),
        "left": left.to_json(),
        "right": right.to_json(),
        "passed": left.satisfies_requirement and right.satisfies_requirement,
    }


def scan_constants(values, tolerance: float = DEFAULT_FACTOR_TOLERANCE,
                   seed: int = 0) -> list:
    """Verdict table over a grid: every (a1, a2, a12) triple from the
    flat list ``values``."""
    values = list(values)
    return [uniqueness_check(a1, a2, a12, tolerance, seed)
            for a1 in values for a2 in values for a12 in values]
