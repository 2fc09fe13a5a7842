"""Restriction of the composed bracket to its components, and the
resulting pin on the quantum constant.

Restricting the composed bracket alpha12 to one component (other factor
held at its unit) always yields a scalar multiple of that component's
bracket alpha; the scalar is sqrt(a_k / a12) = hbar_k / hbar12.  The
standard restriction requirement -- that the composed bracket restrict
to the component bracket with unit factor -- therefore forces a1 = a12
and a2 = a12: one constant for every composable pair.

The factor is measured numerically by a least-squares fit over
MIN_FIT_PAIRS random embedded pairs, so the scaling law itself is
validated rather than assumed; the closed form enters only as the
expected value.  The pairs are drawn once each, in blocks, with the
stream of the pair-by-pair loop, and every pair drawn is fitted: the
entries of all pairs are joined into one array first, and lambda =
Re <ref, val> / |ref|^2 over it, to which a pair whose component
bracket nearly vanishes adds a near-zero term on both sides.  Every
reduction runs on the joined array, so the fit does not depend on the
block size.  Only a dim-1 component, whose bracket is identically zero,
leaves nothing to fit, and it is refused before any draw.  The fit's
residual is |val - lambda*ref| / |val| over all pairs, the misfit
relative to the fitted values themselves: at most 1 by least squares,
and independent of lambda, so one tolerance holds at every constant.
A NaN residual fails it too.

Results are returned in the one form the ``uniqueness`` report holds
them: ``restrict_alpha`` returns a component's ``restriction_result``
dict and ``uniqueness_check`` a triple's verdict dict, both as the
schema validates them, and ``cli`` assembles the report around the
verdicts.  The components are built from the constants a1 and a2
themselves, so the verdict echoes them unrounded, and the closed-form
factor as sqrt(a_k) / sqrt(a12), the bits of the coefficient hbar_k /
hbar12 that alpha12 applies.
"""

from __future__ import annotations

import numpy as np

from .algebra import OperatorAlgebra
from .compose import ComposedAlgebra, KroneckerElement, kron_blocks
from .errors import AlgebraError
from .identities import block_trials

FIT_RESIDUAL_TOLERANCE = 1e-10
#: random pairs each restriction fit draws and fits
MIN_FIT_PAIRS = 8


def _require_qq(c: ComposedAlgebra):
    if c.kind != "qq":
        raise AlgebraError("restriction analysis needs quantum (x) quantum")


def restrict_alpha(c: ComposedAlgebra, component: str, seed: int, tolerance: float) -> dict:
    """Scaling factor of the composed bracket on one component: the
    least-squares scalar lambda with alpha12(f (x) e, g (x) e) =
    lambda * alpha(f, g) (x) e, over MIN_FIT_PAIRS random pairs, returned
    as the component's ``restriction_result`` entry of a ``uniqueness``
    verdict.  A residual above tolerance means the restricted bracket is
    not proportional to the embedded one, which is an internal error, as
    is a NaN fit."""
    _require_qq(c)
    if component == "left":
        comp, other, a = c.left, c.right, c.a1
    elif component == "right":
        comp, other, a = c.right, c.left, c.a2
    else:
        raise AlgebraError(f"component must be 'left' or 'right', got {component!r}")
    if comp.dim == 1:
        raise AlgebraError(f"the {component} component has dim 1, where alpha vanishes "
                           f"identically; the restriction factor cannot be fitted")

    unit = other.unit().entries

    def embed(f):
        """A block of component elements, each tensored with the unit."""
        ent = (kron_blocks(f.entries, unit) if component == "left"
               else kron_blocks(unit, f.entries))
        return KroneckerElement._trusted(c.left.dim, c.right.dim, ent)

    rng = np.random.default_rng(seed)
    refs, vals = [], []
    size = block_trials(c)
    for first in range(0, MIN_FIT_PAIRS, size):
        f, g = comp.random_element(rng, block=(min(size, MIN_FIT_PAIRS - first), 2))
        refs.append(embed(comp.alpha(f, g)).entries)
        vals.append(c.alpha(embed(f), embed(g)).entries)
    # every pair's entries in one array, so no reduction sees a block
    ref, val = np.concatenate(refs), np.concatenate(vals)
    lam = float(np.vdot(ref, val).real / np.vdot(ref, ref).real)
    residual = float(np.linalg.norm(val - lam * ref) / np.linalg.norm(val))
    if not residual <= FIT_RESIDUAL_TOLERANCE:
        raise AlgebraError(
            f"restricted alpha is not proportional to the component product "
            f"(residual {residual:.3e}); composition is inconsistent"
        )
    return {
        "component": component,
        "product": "alpha",
        "measured_factor": lam,
        "expected_factor": float(np.sqrt(a) / np.sqrt(c.a12)),
        "fit_residual": residual,
        "satisfies_requirement": abs(lam - 1.0) <= tolerance,
    }


def uniqueness_check(a1: float, a2: float, a12: float, tolerance: float, seed: int) -> dict:
    """Verdict on one constant triple, on 2x2 matrix components: passes
    iff both restriction factors are unit within tolerance, i.e. iff
    a1 = a12 = a2; the constructors refuse a constant <= 0."""
    c = ComposedAlgebra(OperatorAlgebra(2, a=a1), OperatorAlgebra(2, a=a2), a12=a12)
    left = restrict_alpha(c, "left", seed, tolerance)
    right = restrict_alpha(c, "right", seed + 1, tolerance)
    return {
        "a1": float(a1),
        "a2": float(a2),
        "a12": float(a12),
        "left": left,
        "right": right,
        "passed": left["satisfies_requirement"] and right["satisfies_requirement"],
    }


def scan_constants(values, tolerance: float, seed: int) -> list:
    """Verdict table over a grid: every (a1, a2, a12) triple from the
    flat list ``values``."""
    values = list(values)
    return [uniqueness_check(a1, a2, a12, tolerance, seed)
            for a1 in values for a2 in values for a12 in values]
