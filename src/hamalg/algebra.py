"""Hamilton algebras: two-product algebras with a symmetric (Jordan-type)
product ``sigma`` and an antisymmetric (Lie-type) bracket ``alpha``,
classified by a quantum constant a >= 0.

Concrete realizations:

* :class:`OperatorAlgebra` (a > 0): Hermitian matrices with
  sigma(f, g) = (fg + gf)/2 and alpha(f, g) = (fg - gf)/(i*hbar),
  hbar = 2*sqrt(a).
* :class:`PhaseSpaceAlgebra` (a = 0): phase-space polynomials with the
  pointwise product and the Poisson bracket.

The complexified envelope product tau = sigma + sqrt(-a)*alpha is
associative; sigma and alpha are recovered from tau as its symmetric and
antisymmetric parts.
"""

from __future__ import annotations

import numpy as np

from .elements import (
    OperatorElement,
    PhaseSpacePoly,
    QuantumConstant,
    exponent_rows,
    monomials_up_to_degree,
    product_monomials,
)
from .errors import AlgebraError, ShapeError
from .kernels import _ieee_quiet

def relative_defect(diff_norm: float, arg_norms) -> float:
    """Defect normalization: ||LHS - RHS|| / (1 + prod of argument norms);
    on arrays of per-trial norms, the array of per-trial defects."""
    scale = 1.0
    for n in arg_norms:
        scale *= n
    return diff_norm / (1.0 + scale)


def hermitian_from_normals(z: np.ndarray) -> np.ndarray:
    """Random Hermitian matrices 0.5 * (m + m^H), m = z[..., 0] + i z[..., 1],
    from standard normals z of shape (..., 2, dim, dim).

    One draw of that shape consumes the stream as, matrix by matrix, a
    (dim, dim) call for the real parts and one for the imaginary parts.
    The result is exactly Hermitian, which is checked.
    """
    m = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    h = 0.5 * (m + m.conj().swapaxes(-1, -2))
    if not np.array_equal(h, h.conj().swapaxes(-1, -2)):
        raise AlgebraError("random matrices are not exactly Hermitian")
    return h


def random_hermitian(rng: np.random.Generator, dim: int, block: tuple) -> list:
    """``arity`` stacks of ``trials`` random Hermitian dim x dim matrices,
    for ``block=(trials, arity)``, from one draw of standard normals: the
    matrices, in order, of ``trials * arity`` single draws."""
    trials, arity = block
    h = hermitian_from_normals(rng.standard_normal((trials, arity, 2, dim, dim)))
    return [np.ascontiguousarray(h[:, i]) for i in range(arity)]


class HamiltonAlgebra:
    """Common surface shared by all realizations.

    Subclasses provide sigma, alpha, unit and random_element; the
    envelope product and the operations derived from it live here.

    ``random_element(rng, block=(trials, arity))`` draws ``trials`` input
    tuples at once, as ``arity`` blocks whose trial t is what the t-th
    round of ``arity`` single draws gives, and ``block_entries`` counts the
    coefficient entries of the largest element one trial forms, which
    bounds the trials per block.
    """

    constant: QuantumConstant
    block_entries: int

    def __init__(self, constant: QuantumConstant):
        self.constant = constant

    # -- products -----------------------------------------------------

    def sigma(self, f, g):
        raise NotImplementedError

    def alpha(self, f, g):
        raise NotImplementedError

    def tau(self, f, g):
        """Envelope product sigma + sqrt(-a)*alpha, with sqrt(-a) = i*hbar/2."""
        s = self.sigma(f, g)
        if self.constant.is_classical:
            return s
        return s + self.alpha(f, g).scale(0.5j * self.constant.hbar)

    def associator_sigma(self, f, g, h):
        """(f sigma g) sigma h - f sigma (g sigma h)."""
        return self.sigma(self.sigma(f, g), h) - self.sigma(f, self.sigma(g, h))

    # -- elements -----------------------------------------------------

    def unit(self):
        raise NotImplementedError

    def random_element(self, rng: np.random.Generator, block: tuple | None = None):
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


class OperatorAlgebra(HamiltonAlgebra):
    """Quantum realization on dim x dim Hermitian matrices, with the
    constant ``a`` > 0 (hbar = 2*sqrt(a)).  The constant is kept as given:
    hbar = 2*sqrt(a) converted back by ``QuantumConstant.from_hbar`` may
    differ from a in the last bit."""

    def __init__(self, dim: int, a: float):
        if dim < 1:
            raise AlgebraError(f"dim must be >= 1, got {dim}")
        constant = QuantumConstant(float(a))
        if constant.is_classical:
            raise AlgebraError("operator realization needs a > 0 (hbar > 0)")
        super().__init__(constant)
        self.dim = int(dim)

    def _check_operands(self, f: OperatorElement, g: OperatorElement):
        """Both operands plain operator elements of this algebra's dim; a
        ``KroneckerElement`` is refused, it belongs to a composed algebra."""
        if type(f) is not OperatorElement:
            raise ShapeError(f"expected OperatorElement, got {type(f).__name__}")
        f._check_like(g)
        if f.dim != self.dim:
            raise AlgebraError(f"element dim {f.dim} does not match algebra dim {self.dim}")

    def sigma(self, f: OperatorElement, g: OperatorElement) -> OperatorElement:
        self._check_operands(f, g)
        return OperatorElement._trusted(0.5 * (f.entries @ g.entries + g.entries @ f.entries))

    @_ieee_quiet
    def alpha(self, f: OperatorElement, g: OperatorElement) -> OperatorElement:
        self._check_operands(f, g)
        hbar = self.constant.hbar
        return OperatorElement._trusted(
            (f.entries @ g.entries - g.entries @ f.entries) / (1j * hbar))

    def unit(self) -> OperatorElement:
        return OperatorElement.identity(self.dim)

    @property
    def block_entries(self) -> int:
        return self.dim * self.dim

    def random_element(self, rng: np.random.Generator, block: tuple | None = None):
        """Random Hermitian element.  With ``block=(trials, arity)``,
        ``trials`` input tuples of ``arity`` elements in one draw, returned
        as ``arity`` blocks: the numbers, in order, of ``trials * arity``
        single calls; a single draw is trial 0 of a block of one."""
        drawn = [OperatorElement._trusted(h)
                 for h in random_hermitian(rng, self.dim, block or (1, 1))]
        return drawn if block else drawn[0].trial(0)

    def describe(self) -> dict:
        return {
            "realization": "operator",
            "dim": self.dim,
            "a": self.constant.a,
            "hbar": self.constant.hbar,
        }


class PhaseSpaceAlgebra(HamiltonAlgebra):
    """Classical realization (a = 0) on phase-space polynomials."""

    def __init__(self, num_pairs: int, max_random_degree: int):
        super().__init__(QuantumConstant(0.0))
        if num_pairs < 1:
            raise AlgebraError(f"num_pairs must be >= 1, got {num_pairs}")
        if max_random_degree < 0:
            raise AlgebraError(f"max_random_degree must be >= 0, got {max_random_degree}")
        self.num_pairs = int(num_pairs)
        self.max_random_degree = int(max_random_degree)

    def sigma(self, f: PhaseSpacePoly, g: PhaseSpacePoly) -> PhaseSpacePoly:
        if f.num_pairs != self.num_pairs:
            raise AlgebraError(
                f"element num_pairs {f.num_pairs} does not match algebra {self.num_pairs}"
            )
        return f.product(g)

    def alpha(self, f: PhaseSpacePoly, g: PhaseSpacePoly) -> PhaseSpacePoly:
        if f.num_pairs != self.num_pairs:
            raise AlgebraError(
                f"element num_pairs {f.num_pairs} does not match algebra {self.num_pairs}"
            )
        return f.poisson(g)

    def unit(self) -> PhaseSpacePoly:
        return PhaseSpacePoly.unit(self.num_pairs)

    @property
    def block_entries(self) -> int:
        """Terms of the largest element one trial forms: every monomial an
        identity's deepest product can reach."""
        return product_monomials(2 * self.num_pairs, self.max_random_degree)

    def random_element(self, rng: np.random.Generator, block: tuple | None = None):
        """A coefficient uniform on [-1, 1) on every monomial up to the
        degree, one scalar draw per monomial.  With ``block=(trials,
        arity)``, ``arity`` blocks from one draw, as ``OperatorAlgebra``."""
        monos = monomials_up_to_degree(2 * self.num_pairs, self.max_random_degree)
        trials, arity = block or (1, 1)
        coeffs = rng.uniform(-1.0, 1.0, (trials, arity, len(monos)))
        exps = exponent_rows(monos, 2 * self.num_pairs)
        drawn = [PhaseSpacePoly._trusted(exps, c.T) for c in coeffs.transpose(1, 0, 2)]
        return drawn if block else drawn[0].trial(0)

    def describe(self) -> dict:
        return {
            "realization": "phase-space",
            "num_pairs": self.num_pairs,
            "max_random_degree": self.max_random_degree,
            "a": 0.0,
        }


class CorruptedAlgebra(HamiltonAlgebra):
    """Wrapper that rescales the products of a base algebra.

    Used by the suite-sensitivity checks: a scaled bracket must make the
    canonical-relation check fail loudly, proving the suite is not
    vacuously green.
    """

    def __init__(self, base: HamiltonAlgebra, alpha_scale: float = 1.0,
                 sigma_scale: float = 1.0):
        super().__init__(base.constant)
        self.base = base
        self.alpha_scale = float(alpha_scale)
        self.sigma_scale = float(sigma_scale)

    def sigma(self, f, g):
        return self.base.sigma(f, g).scale(self.sigma_scale)

    def alpha(self, f, g):
        return self.base.alpha(f, g).scale(self.alpha_scale)

    def unit(self):
        return self.base.unit()

    @property
    def block_entries(self) -> int:
        return self.base.block_entries

    def random_element(self, rng, block: tuple | None = None):
        return self.base.random_element(rng, block)

    def describe(self) -> dict:
        d = dict(self.base.describe())
        d["corruption"] = {"alpha_scale": self.alpha_scale, "sigma_scale": self.sigma_scale}
        return d

