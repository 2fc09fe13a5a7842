"""Tensor-product composition of Hamilton algebras.

Two component algebras with constants a1, a2 compose into an algebra on
the tensor space with a free constant a12.  On simple tensors the
composed products are

    sigma12(f1 (x) f2, g1 (x) g2) = (f sigma g)1 (x) (f sigma g)2
                                    - sqrt(a1*a2) (f alpha g)1 (x) (f alpha g)2
    alpha12(f1 (x) f2, g1 (x) g2) = sqrt(a1/a12) (f alpha g)1 (x) (f sigma g)2
                                    + sqrt(a2/a12) (f sigma g)1 (x) (f alpha g)2

and extend bilinearly to sums of simple tensors.  Composed elements are
stored in canonical forms so equality and norms are well defined; the
products below are the bilinear extensions computed directly on those
canonical forms.  A quantum (x) quantum element is a matrix on the l*r
dimensional product space, an algebra of the same type as its factors:
``KroneckerElement`` is an ``OperatorElement`` that adds only its factor
layout (l, r).  A quantum (x) classical element, ``HybridElement``, is a
polynomial with matrix coefficients.  The envelope product tau12 is the
base algebra's, sigma12 + (i*hbar12/2) alpha12, so the
``tau_associativity`` check of a composed algebra tests the composition
law above.  The law's coefficients are formed from the hbars,
sqrt(a1*a2) = hbar1*hbar2/4 and sqrt(a_k/a12) = hbar_k/hbar12, which
overflow only where the coefficient itself does.

Supported pairings: quantum (x) quantum at a free a12, and its
hbar2 -> 0 limit, quantum (x) classical.

Every element of the tensor space is a sum of simple tensors, so random
composed elements range over the whole space: Hermitian matrices on
C^l (x) C^r, or polynomials with a Hermitian coefficient on every monomial
up to the classical degree.

Quantum (x) classical products, and each mixed bracket, are one
``HybridElement.pair_sum`` on ``kernels.term_pair_sum``, the engine that
also multiplies real polynomials, and form every product of two matrix
coefficients with ``coefficient_product``: elementwise sums over k, never
``@``, so a pair's product has the same bits in a block as alone.  Only
the quantum (x) quantum table ``_lr_table`` keeps ``@``: one matrix
product of a stack, each trial its own, whose mixed orders come from
partial transposes of the right factor.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    HamiltonAlgebra,
    OperatorAlgebra,
    PhaseSpaceAlgebra,
    hermitian_from_normals,
    random_hermitian,
)
from .elements import (
    OperatorElement,
    PhaseSpacePoly,
    QuantumConstant,
    TermArray,
    check_trials,
    exponent_rows,
    exponent_tuple,
    monomials_up_to_degree,
    product_monomials,
)
from .errors import AlgebraError, ShapeError
from .kernels import term_pair_sum


class KroneckerElement(OperatorElement):
    """Element of quantum (x) quantum: an ``OperatorElement`` on the l*r
    dimensional product space that also records its factor layout (l, r).
    Entry [(i1*r + i2), (j1*r + j2)] = A[i1,j1] B[i2,j2] on simple tensors.

    The arithmetic, norms, blocks and ``trial`` are the operator's; this
    class adds the layout, which ``_derived`` carries to every result and
    ``_check_like`` compares.
    """

    __slots__ = ("left_dim", "right_dim")

    def __init__(self, left_dim: int, right_dim: int, entries):
        n = left_dim * right_dim
        if np.shape(entries) != (n, n):
            raise ShapeError(f"expected shape {(n, n)}, got {np.shape(entries)}")
        super().__init__(entries)
        self.left_dim = int(left_dim)
        self.right_dim = int(right_dim)

    @classmethod
    def _trusted(cls, left_dim: int, right_dim: int, entries: np.ndarray) -> "KroneckerElement":
        """Internal constructor for derived values; skips re-validation."""
        self = super()._trusted(entries)
        self.left_dim = int(left_dim)
        self.right_dim = int(right_dim)
        return self

    def _derived(self, entries: np.ndarray) -> "KroneckerElement":
        return KroneckerElement._trusted(self.left_dim, self.right_dim, entries)

    def _check_like(self, other: "KroneckerElement"):
        super()._check_like(other)
        if (other.left_dim, other.right_dim) != (self.left_dim, self.right_dim):
            raise ShapeError("component dimensions mismatch")

    def __repr__(self):
        block = "" if self.trials is None else f", trials={self.trials}"
        return f"KroneckerElement({self.left_dim}x{self.right_dim}{block})"


def coefficient_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product of the matrix axes 2 and 3 of two broadcast
    coefficient stacks, (rows, Nb, d, d) or, in a block, (rows, Nb, d, d,
    T): written as sum_k A[:, :, :, k] B[:, :, k, :], the k = 0 term, then
    the others added in turn, k ascending.

    Each entry is formed by elementwise multiplies and adds alone, so a
    pair's product has the same bits whatever the stacks around it: in a
    batch of term pairs and trials as in a call on that pair alone.  The
    trial axis, where there is one, is innermost, so each multiply and add
    runs over contiguous runs of trials.  One (rows, Nb, d, d[, T])
    product a k is the only temporary.
    """
    out = A[:, :, :, :1] * B[:, :, :1]
    for k in range(1, A.shape[3]):
        out += A[:, :, :, k:k + 1] * B[:, :, k:k + 1]
    return out


class HybridElement(TermArray):
    """Element of quantum (x) classical: a polynomial in the classical
    canonical pairs whose coefficients are dim x dim complex matrices, a
    ``TermArray`` of complex128 coefficients (N, dim, dim), or
    (N, dim, dim, trials) in a block, the trial axis innermost.  An
    observable-valued function has a Hermitian coefficient on every
    monomial.
    """

    __slots__ = ()
    COEFF_RANK = 2

    def __init__(self, dim: int, num_pairs: int, terms: dict):
        if dim < 1 or num_pairs < 1:
            raise ShapeError(f"invalid dim={dim} / num_pairs={num_pairs}")
        keys, mats = [], []
        for exps, mat in terms.items():
            keys.append(exponent_tuple(exps, 2 * num_pairs))
            mats.append(np.array(mat, dtype=np.complex128))
            if mats[-1].shape != (dim, dim):
                raise ShapeError(f"coefficient at {exps} has shape {mats[-1].shape}")
        coeffs = np.array(mats, dtype=np.complex128).reshape(len(mats), dim, dim)
        self._set(exponent_rows(keys, 2 * num_pairs), coeffs)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def pair_sum(self, other: "HybridElement", combine,
                 poisson: bool = False) -> "HybridElement":
        """The sum over term pairs of ``combine`` of their coefficients, as
        ``kernels.term_pair_sum`` forms it: the plain term of each pair,
        and with ``poisson`` its canonical pairs' terms, ``combine`` then
        giving both parts.  ``combine`` gets the broadcast stacks
        (rows, 1, ...) and (1, Nb, ...) of every pair at once; one that
        multiplies them with ``coefficient_product`` gives each pair's
        coefficient the bits of a call on that pair alone."""
        self._check_like(other)
        return HybridElement._trusted(*term_pair_sum(self.exps, other.exps, self.coeffs,
                                                     other.coeffs, combine, True, poisson))

    def assoc_product(self, other: "HybridElement") -> "HybridElement":
        """Associative product: matrix coefficients multiply in written
        order, by ``coefficient_product``; classical monomials multiply
        commutatively."""
        return self.pair_sum(other, coefficient_product)

    def __repr__(self):
        block = "" if self.trials is None else f", trials={self.trials}"
        return (f"HybridElement(dim={self.dim}, num_pairs={self.num_pairs}, "
                f"nterms={len(self)}{block})")


def random_hybrid_observable(rng: np.random.Generator, dim: int = 2, num_pairs: int = 1,
                             degree: int = 2, block: tuple | None = None):
    """Hermitian-coefficient random hybrid element on every monomial up to
    ``degree``.

    With ``block=(trials, arity)``, ``trials`` input tuples of ``arity``
    elements in one draw, returned as ``arity`` blocks: the numbers, in
    order, of ``trials * arity`` single calls.  A single call is trial 0 of
    a block of one.
    """
    monos = monomials_up_to_degree(2 * num_pairs, degree)
    trials, arity = block or (1, 1)
    h = hermitian_from_normals(rng.standard_normal((trials, arity, len(monos), 2, dim, dim)))
    # by element, then monomial: each coefficient (dim, dim, trials)
    exps = exponent_rows(monos, 2 * num_pairs)
    drawn = [HybridElement._trusted(exps, c) for c in h.transpose(1, 2, 3, 4, 0)]
    return drawn if block else drawn[0].trial(0)


# ---------------------------------------------------------------------------
# simple tensors and the switching map
# ---------------------------------------------------------------------------

def simple_tensor(f, g):
    """Embed a pair of component elements as a canonical tensor element.

    quantum (x) quantum   -> KroneckerElement
    quantum (x) classical -> HybridElement

    Blocks pair trial by trial, and only with blocks of as many trials:
    trial t of the result is ``simple_tensor`` of the factors' trials t.
    """
    if type(f) is OperatorElement and type(g) is OperatorElement:
        check_trials(f.trials, g.trials)
        return KroneckerElement._trusted(f.dim, g.dim, kron_blocks(f.entries, g.entries))
    if type(f) is OperatorElement and isinstance(g, PhaseSpacePoly):
        check_trials(f.trials, g.trials)
        # (N[, T]) scalars times (d, d[, T]) matrices: (N, d, d[, T])
        mats = f.entries if f.trials is None else f.entries.transpose(1, 2, 0)
        return HybridElement._trusted(g.exps, g.coeffs[:, None, None] * mats)
    raise AlgebraError(
        f"unsupported tensor pairing {type(f).__name__} (x) {type(g).__name__}; "
        "put the quantum factor on the left"
    )


def switching_map(u_terms, v_terms):
    """Reorder the pairing of two sums of simple tensors.

    Inputs are term lists [(f1, f2), ...] and [(g1, g2), ...]; the output
    pairs factors side by side: [((f1, g1), (f2, g2)), ...] for every
    combination of a u-term with a v-term (bilinearity).
    """
    return [((f1, g1), (f2, g2)) for (f1, f2) in u_terms for (g1, g2) in v_terms]


def compose_product_on_terms(op1, op2, u_terms, v_terms):
    """Literal composition route: apply component products factorwise
    across the switching map and sum the resulting simple tensors.

    op1, op2 are binary maps on the component algebras.  This is the
    definitional form of (op1 (x) op2) o S; the ComposedAlgebra methods
    compute the same bilinear extension directly on canonical forms.
    """
    out = None
    for (f1, g1), (f2, g2) in switching_map(u_terms, v_terms):
        term = simple_tensor(op1(f1, g1), op2(f2, g2))
        out = term if out is None else out + term
    if out is None:
        raise AlgebraError("empty term lists")
    return out


# ---------------------------------------------------------------------------
# the composed algebra
# ---------------------------------------------------------------------------

def kron_blocks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of the trailing matrices of a and b, over their broadcast
    leading axes: every entry is the product np.kron forms, to the bit."""
    l, r = a.shape[-1], b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (l * r, l * r))


def _right_swapped(x: np.ndarray, l: int, r: int) -> np.ndarray:
    """x's trailing l*r square matrices as a (..., l, r, l, r) view with
    the two r axes swapped: T_R, the transpose of the right factor,
    (A (x) B)^{T_R} = A (x) B^T extended linearly.  Reshaped back it is
    x^{T_R}; a contiguous x assigned a (..., l, r, l, r) value through it
    holds T_R of that value."""
    return x.reshape(x.shape[:-2] + (l, r, l, r)).swapaxes(-3, -1)


def _lr_table(u: KroneckerElement, v: KroneckerElement):
    """Factorwise products of two Kronecker-form elements (or blocks, trial
    by trial: each trial's products are the single elements' to the bit).

    Writing L/R for left/right multiplication order in a factor, returns
    (LL, LR, RL, RR) where e.g. LR(u, v) multiplies the left factors in
    order u.v and the right factors in order v.u.  Every composed product
    is a linear combination of these four.  On u = sum A (x) B and
    v = sum C (x) D, u^{T_R} v^{T_R} = sum AC (x) B^T D^T = sum AC (x)
    (DB)^T, so

        LR(u, v) = sum (AC) (x) (DB) = (u^{T_R} v^{T_R})^{T_R}
        RL(u, v) = sum (CA) (x) (BD) = (v^{T_R} u^{T_R})^{T_R}

    the bilinear extension of the factorwise component products over
    matrix-unit decompositions.  One ``@`` of the stack [u, u^{T_R},
    v^{T_R}, v] with its reverse gives LL, LR^{T_R}, RL^{T_R} and RR; each
    trial is still a matrix product of its own.
    """
    u._check_like(v)
    l, r = u.left_dim, u.right_dim
    shape = u.entries.shape
    # [u, u^{T_R}, v^{T_R}, v]; its reverse pairs each with its partner
    stack = np.empty((4,) + shape, np.complex128)
    stack[0], stack[3] = u.entries, v.entries
    factors = (2,) + shape[:-2] + (l, r, l, r)
    _right_swapped(stack[1:3], l, r)[...] = stack[::3].reshape(factors)
    # LL, LR^{T_R}, RL^{T_R}, RR
    products = stack @ stack[::-1]
    mixed = _right_swapped(products[1:3], l, r).reshape((2,) + shape)
    return products[0], mixed[0], mixed[1], products[3]


class ComposedAlgebra(HamiltonAlgebra):
    """Tensor product of two Hamilton algebras with constant a12, a free
    parameter > 0: quantum (x) quantum (kind ``qq``) or quantum (x)
    classical (kind ``qc``).
    """

    def __init__(self, left: HamiltonAlgebra, right: HamiltonAlgebra, a12: float):
        if isinstance(left, PhaseSpaceAlgebra) and isinstance(right, OperatorAlgebra):
            raise AlgebraError("classical (x) quantum unsupported; put the quantum factor first")
        if isinstance(left, OperatorAlgebra) and isinstance(right, OperatorAlgebra):
            self.kind = "qq"
        elif isinstance(left, OperatorAlgebra) and isinstance(right, PhaseSpaceAlgebra):
            self.kind = "qc"
        else:
            raise AlgebraError(
                f"unsupported component algebras {type(left).__name__}, {type(right).__name__}"
            )
        constant = QuantumConstant(float(a12))
        if constant.is_classical:
            raise AlgebraError("a12 must be > 0 when a component is quantum")
        super().__init__(constant)
        self.left = left
        self.right = right

    # -- coefficients of the composition law ---------------------------

    @property
    def a1(self) -> float:
        return self.left.constant.a

    @property
    def a2(self) -> float:
        return self.right.constant.a

    @property
    def a12(self) -> float:
        return self.constant.a

    def _check_element(self, u):
        if self.kind == "qq":
            if not isinstance(u, KroneckerElement):
                raise ShapeError(f"expected KroneckerElement, got {type(u).__name__}")
            if (u.left_dim, u.right_dim) != (self.left.dim, self.right.dim):
                raise ShapeError("element does not match component dimensions")
        else:
            if not isinstance(u, HybridElement):
                raise ShapeError(f"expected HybridElement, got {type(u).__name__}")
            if (u.dim, u.num_pairs) != (self.left.dim, self.right.num_pairs):
                raise ShapeError("element does not match component shapes")

    # -- composed products ---------------------------------------------

    def sigma(self, u, v):
        self._check_element(u)
        self._check_element(v)
        if self.kind == "qq":
            h1, h2 = self.left.constant.hbar, self.right.constant.hbar
            LL, LR, RL, RR = _lr_table(u, v)
            sig_sig = 0.25 * (LL + LR + RL + RR)
            alp_alp = -(LL - LR - RL + RR) / (h1 * h2)
            return u._derived(sig_sig - (h1 * h2 / 4) * alp_alp)
        # cross term carries sqrt(a1 * a2) = 0 for a classical right
        # component, so only the factorwise symmetric products remain
        return u.pair_sum(v, lambda A, B: 0.5 * (coefficient_product(A, B)
                                                 + coefficient_product(B, A)))

    def alpha(self, u, v):
        self._check_element(u)
        self._check_element(v)
        h1, h2, h12 = self.left.constant.hbar, self.right.constant.hbar, self.constant.hbar
        c1, c2 = h1 / h12, h2 / h12
        if self.kind == "qq":
            LL, LR, RL, RR = _lr_table(u, v)
            alp_sig = (LL + LR - RL - RR) / (2j * h1)
            sig_alp = (LL - LR + RL - RR) / (2j * h2)
            return u._derived(c1 * alp_sig + c2 * sig_alp)
        # quantum (x) classical: c2 = 0 kills the classical-bracket term,
        # which is the algebraic root of the no-back-reaction result
        return u.pair_sum(v, lambda A, B: c1 * (coefficient_product(A, B)
                                                - coefficient_product(B, A)) / (1j * h1))

    # -- elements -------------------------------------------------------

    def unit(self):
        return simple_tensor(self.left.unit(), self.right.unit())

    @property
    def block_entries(self) -> int:
        """Entries of the largest element one trial forms: an l*r square
        matrix for quantum (x) quantum; for quantum (x) classical, a d x d
        coefficient on each monomial an identity's deepest product can
        reach."""
        if self.kind == "qq":
            return (self.left.dim * self.right.dim) ** 2
        return (product_monomials(2 * self.right.num_pairs, self.right.max_random_degree)
                * self.left.dim ** 2)

    def random_element(self, rng: np.random.Generator, block: tuple | None = None):
        """Random element over the whole tensor space, drawn as the algebra
        of its shape draws: quantum (x) quantum as ``OperatorAlgebra(l*r)``,
        quantum (x) classical by ``random_hybrid_observable``.  With
        ``block=(trials, arity)``, ``arity`` blocks of ``trials`` elements
        from one draw; a single draw is trial 0 of a block of one."""
        if self.kind == "qc":
            return random_hybrid_observable(rng, self.left.dim, self.right.num_pairs,
                                            self.right.max_random_degree, block)
        l, r = self.left.dim, self.right.dim
        drawn = [KroneckerElement._trusted(l, r, h)
                 for h in random_hermitian(rng, l * r, block or (1, 1))]
        return drawn if block else drawn[0].trial(0)

    def describe(self) -> dict:
        return {
            "realization": "composed",
            "kind": self.kind,
            "a1": self.a1,
            "a2": self.a2,
            "a12": self.a12,
            "left": self.left.describe(),
            "right": self.right.describe(),
        }
