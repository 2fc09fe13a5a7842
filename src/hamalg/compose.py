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
polynomial with matrix coefficients.  The envelope product tau12 is
implemented as an independent route (plain associative multiplication of
canonical forms) and serves as a cross-check against the sigma/alpha
composition path.

Supported pairings: quantum (x) quantum at a free a12, and its
hbar2 -> 0 limit, quantum (x) classical.

Every element of the tensor space is a sum of simple tensors, so random
composed elements range over the whole space: Hermitian matrices on
C^l (x) C^r, or polynomials with a Hermitian coefficient on every monomial
up to the classical degree.

Quantum (x) classical products and the mixed brackets run on one batched
term-pair engine, ``term_pair_sum``: the polynomial kernel's packing and
its one slotting routine for scalar and matrix coefficients.
"""

from __future__ import annotations

import math

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
    check_trials,
    exponent_tuple,
    frobenius_norms,
    is_hermitian,
    monomials_up_to_degree,
    product_monomials,
)
from .errors import AlgebraError, ShapeError
from .kernels import accumulate, keys_of, pack, poisson_weights, row_blocks


class KroneckerElement(OperatorElement):
    """Element of quantum (x) quantum: an ``OperatorElement`` on the l*r
    dimensional product space that also records its factor layout (l, r).
    Entry [(i1*r + i2), (j1*r + j2)] = A[i1,j1] B[i2,j2] on simple tensors.

    The arithmetic, norms, blocks and ``trial`` are the operator's; this
    class adds the layout, which ``_derived`` carries to every result and
    ``_check_like`` compares.
    """

    __slots__ = ("left_dim", "right_dim")

    def __init__(self, left_dim: int, right_dim: int, entries, hermitian: bool | None = None):
        n = left_dim * right_dim
        if np.shape(entries) != (n, n):
            raise ShapeError(f"expected shape {(n, n)}, got {np.shape(entries)}")
        super().__init__(entries, hermitian)
        self.left_dim = int(left_dim)
        self.right_dim = int(right_dim)

    @classmethod
    def _trusted(cls, left_dim: int, right_dim: int, entries: np.ndarray,
                 hermitian: bool) -> "KroneckerElement":
        """Internal constructor for derived values; skips re-validation
        (see OperatorElement._trusted for why)."""
        self = super()._trusted(entries, hermitian)
        self.left_dim = int(left_dim)
        self.right_dim = int(right_dim)
        return self

    def _derived(self, entries: np.ndarray, hermitian: bool) -> "KroneckerElement":
        return KroneckerElement._trusted(self.left_dim, self.right_dim, entries, hermitian)

    def _check_like(self, other: "KroneckerElement"):
        super()._check_like(other)
        if (other.left_dim, other.right_dim) != (self.left_dim, self.right_dim):
            raise ShapeError("component dimensions mismatch")

    def __repr__(self):
        block = "" if self.trials is None else f", trials={self.trials}"
        return (f"KroneckerElement({self.left_dim}x{self.right_dim}, "
                f"hermitian={self.hermitian}{block})")


class HybridElement:
    """Element of quantum (x) classical: a polynomial in the classical
    canonical pairs whose coefficients are dim x dim complex matrices.

    The Hermitian flag means every matrix coefficient is Hermitian, i.e.
    the element is an observable-valued function.  Zero coefficients are
    never stored, and stored coefficients are read-only complex128.

    A *block* of ``trials`` elements carries a leading trial axis on every
    coefficient, ``(trials, dim, dim)``, so that one call of each operation
    evaluates all of its trials.  A block stores a key unless its
    coefficient is zero in every trial; ``trial(t)`` slices out one
    ordinary element.  Blocks combine only with blocks of as many trials.
    """

    __slots__ = ("dim", "num_pairs", "terms", "hermitian", "trials")

    def __init__(self, dim: int, num_pairs: int, terms: dict | None = None,
                 hermitian: bool | None = None):
        if dim < 1 or num_pairs < 1:
            raise ShapeError(f"invalid dim={dim} / num_pairs={num_pairs}")
        self.dim = int(dim)
        self.num_pairs = int(num_pairs)
        self.trials = None
        clean: dict = {}
        for exps, mat in (terms or {}).items():
            e = exponent_tuple(exps, 2 * self.num_pairs)
            arr = np.array(mat, dtype=np.complex128, copy=True)
            if arr.shape != (dim, dim):
                raise ShapeError(f"coefficient at {exps} has shape {arr.shape}")
            if np.any(arr != 0):
                arr.setflags(write=False)
                clean[e] = arr
        self.terms = clean
        if hermitian is None:
            hermitian = all(is_hermitian(m) for m in clean.values())
        elif hermitian and not all(is_hermitian(m) for m in clean.values()):
            raise AlgebraError("terms flagged Hermitian but some coefficient is not")
        self.hermitian = bool(hermitian)

    @classmethod
    def _trusted(cls, dim: int, num_pairs: int, terms: dict, hermitian: bool,
                 trials: int | None = None) -> "HybridElement":
        """Internal constructor for derived values: the caller guarantees
        nonzero read-only complex128 coefficients of the right shape, so
        nothing is re-validated or pruned."""
        self = object.__new__(cls)
        self.dim = int(dim)
        self.num_pairs = int(num_pairs)
        self.terms = terms
        self.hermitian = hermitian
        self.trials = trials
        return self

    def _derived(self, terms: dict, hermitian: bool) -> "HybridElement":
        return HybridElement._trusted(self.dim, self.num_pairs, terms, hermitian, self.trials)

    @property
    def nvars(self) -> int:
        return 2 * self.num_pairs

    @property
    def coeff_shape(self) -> tuple:
        """Shape of one stored coefficient: (dim, dim), led by the trial axis
        in a block."""
        square = (self.dim, self.dim)
        return square if self.trials is None else (self.trials,) + square

    def norm(self):
        """Frobenius norm over all coefficients; in a block, an array of the
        norm of each trial, equal to ``trial(t).norm()`` to the bit.

        The norm of each coefficient is squared as a Python float and the
        squares are summed in key order, as ``math.sqrt(sum(float(
        np.linalg.norm(m)) ** 2 for m in coefficients))`` sums them.
        """
        trials = 1 if self.trials is None else self.trials
        stacked = np.array(list(self.terms.values()), dtype=np.complex128)
        norms = frobenius_norms(stacked.reshape(-1, self.dim, self.dim))  # key-major
        totals = [math.sqrt(sum(n ** 2 for n in norms[t::trials])) for t in range(trials)]
        return totals[0] if self.trials is None else np.array(totals)

    def trial(self, t: int) -> "HybridElement":
        """Trial t of a block as an ordinary element, without the keys that
        are zero in that trial."""
        if self.trials is None:
            raise ShapeError("trial() needs a block")
        terms = {e: m[t] for e, m in self.terms.items() if m[t].any()}
        return HybridElement._trusted(self.dim, self.num_pairs, terms, self.hermitian)

    def _check_like(self, other: "HybridElement"):
        if not isinstance(other, HybridElement):
            raise ShapeError(f"expected HybridElement, got {type(other).__name__}")
        if (other.dim, other.num_pairs) != (self.dim, self.num_pairs):
            raise ShapeError("dim/num_pairs mismatch")
        check_trials(self.trials, other.trials)

    def __add__(self, other):
        self._check_like(other)
        out = dict(self.terms)
        for e, m in other.terms.items():
            if e not in out:
                out[e] = m
                continue
            total = out[e] + m
            if total.any():  # a sum is the only value that can cancel to zero
                total.setflags(write=False)
                out[e] = total
            else:
                del out[e]
        return self._derived(out, self.hermitian and other.hermitian)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, c: complex):
        herm = self.hermitian and complex(c).imag == 0.0
        stacked = np.array(list(self.terms.values()), dtype=np.complex128)
        stacked = c * stacked.reshape((-1,) + self.coeff_shape)  # keeps the shape when empty
        return self._derived(nonzero_terms(self.terms, stacked), herm)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def assoc_product(self, other: "HybridElement") -> "HybridElement":
        """Associative product: matrix coefficients multiply in written
        order, classical monomials multiply commutatively."""
        return term_pair_sum(self, other, lambda A, B: A @ B, False)

    def __repr__(self):
        block = "" if self.trials is None else f", trials={self.trials}"
        return (f"HybridElement(dim={self.dim}, num_pairs={self.num_pairs}, "
                f"nterms={len(self.terms)}, hermitian={self.hermitian}{block})")


def nonzero_terms(keys, stacked: np.ndarray) -> dict:
    """Keys to the read-only slices of ``stacked`` that are nonzero: a
    product like ``c * m`` can underflow to zero."""
    stacked.setflags(write=False)
    live = stacked.reshape(len(stacked), math.prod(stacked.shape[1:])).any(axis=1)
    return {e: m for e, m, keep in zip(keys, stacked, live.tolist()) if keep}


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
    # by element, then monomial: each coefficient (trials, dim, dim)
    h = np.ascontiguousarray(h.transpose(1, 2, 0, 3, 4))
    drawn = [HybridElement._trusted(dim, num_pairs, nonzero_terms(monos, c), True, trials)
             for c in h]
    return drawn if block else drawn[0].trial(0)


def term_pair_sum(u: HybridElement, v: HybridElement, combine, hermitian: bool,
                  poisson: bool = False) -> HybridElement:
    """Batched term-pair loop: the sum over term pairs of u and v of
    ``combine(A, B)`` at exponent ea + eb.  With ``poisson``, combine gives
    (plain, anti): plain goes to ea + eb, then, k ascending, w_k * anti to
    ea + eb - e_xk - e_pk wherever w_k = xa_k pb_k - pa_k xb_k is nonzero.
    A plain of None contributes nothing: only the weighted anti terms are
    summed, which is the monomial Poisson bracket with coefficient anti.

    ``combine`` maps stacks (Na, 1, *c) and (1, Nb, *c) to (Na, Nb, *c),
    where c is the coefficient shape, (d, d) or, for blocks, (T, d, d).
    Broadcast ``@`` equals per-pair ``A @ B`` to the bit (``einsum`` does
    not) and sums run in loop order, so the result, key order included, is
    the written-out double loop's to the bit, in every trial of a block;
    only the sign and payload of a NaN, which IEEE 754 leaves open, may
    differ.  Where packed keys would overflow int64, the exponent rows are
    the keys (the loop summed Python ints); ``ShapeError`` only where a
    Poisson weight could overflow.
    """
    u._check_like(v)
    if not u.terms or not v.terms:
        return u._derived({}, hermitian)
    shape = u.coeff_shape
    ea, eb, A, B, radix, strides = pack(u.terms, v.terms, u.nvars, np.complex128)
    ka, kb = keys_of(ea, strides), keys_of(eb, strides)
    # exponent shift per contribution: the plain term, then each canonical pair
    shifts = np.eye(1 + u.num_pairs, u.num_pairs, -1, dtype=np.int64).repeat(2, axis=1)
    shifts = shifts[:1 + u.num_pairs * poisson]
    offsets = keys_of(shifts, strides)

    def blocks():
        for rows in row_blocks(len(ka), len(kb) * len(offsets) * math.prod(shape)):
            keys = (ka[rows, None] + kb)[:, :, None] - offsets
            vals = combine(A[rows, None], B[None])
            if poisson:
                plain, anti = vals
                w = poisson_weights(ea[rows], eb)
                vals = (w.astype(np.complex128).reshape(w.shape + (1,) * len(shape))
                        * anti[:, :, None])
                live = w != 0
                if plain is None:
                    keys = keys[:, :, 1:]
                else:
                    vals = np.concatenate([plain[:, :, None], vals], axis=2)
                    live = np.concatenate([np.ones_like(live[..., :1]), live], axis=2)
                keys, vals = keys[live], vals[live]
            yield keys.reshape((-1,) + kb.shape[1:]), vals.reshape((-1,) + shape)

    pairs = len(ka) * len(kb) * len(offsets)
    return u._derived(accumulate(blocks(), radix, strides, pairs, shape, np.complex128),
                      hermitian)


# ---------------------------------------------------------------------------
# simple tensors and the switching map
# ---------------------------------------------------------------------------

def simple_tensor(f, g):
    """Embed a pair of component elements as a canonical tensor element.

    quantum (x) quantum   -> KroneckerElement
    quantum (x) classical -> HybridElement
    """
    if type(f) is OperatorElement and type(g) is OperatorElement:
        return KroneckerElement._trusted(f.dim, g.dim, np.kron(f.entries, g.entries),
                                         f.hermitian and g.hermitian)
    if type(f) is OperatorElement and isinstance(g, PhaseSpacePoly):
        coeffs = np.array(list(g.terms.values()))[:, None, None]
        return HybridElement._trusted(f.dim, g.num_pairs,
                                      nonzero_terms(g.terms, coeffs * f.entries), f.hermitian)
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


def _lr_table(u: KroneckerElement, v: KroneckerElement):
    """Factorwise products of two Kronecker-form elements (or blocks, trial
    by trial: each trial's products are the single elements' to the bit).

    Writing L/R for left/right multiplication order in a factor, returns
    (LL, LR, RL, RR) where e.g. LR(u, v) multiplies the left factors in
    order u.v and the right factors in order v.u.  Every composed product
    is a linear combination of these four; evaluating them with einsum on
    the 4-index reshape is exactly the bilinear extension of the
    factorwise component products over matrix-unit decompositions.
    """
    u._check_like(v)
    l, r = u.left_dim, u.right_dim
    shape = u.entries.shape
    U = u.entries.reshape(shape[:-2] + (l, r, l, r))
    V = v.entries.reshape(shape[:-2] + (l, r, l, r))
    LL = u.entries @ v.entries
    RR = v.entries @ u.entries
    LR = np.einsum("...iakb,...kjla->...ijlb", U, V).reshape(shape)
    RL = np.einsum("...iakb,...kjla->...ijlb", V, U).reshape(shape)
    return LL, LR, RL, RR


class ComposedAlgebra(HamiltonAlgebra):
    """Tensor product of two Hamilton algebras with constant a12.

    a12 > 0 is a free parameter.  It must be given explicitly for
    quantum (x) quantum (kind ``qq``); for quantum (x) classical (kind
    ``qc``) it defaults to the quantum component's constant.
    """

    def __init__(self, left: HamiltonAlgebra, right: HamiltonAlgebra,
                 a12: float | None = None):
        if isinstance(left, PhaseSpaceAlgebra) and isinstance(right, OperatorAlgebra):
            raise AlgebraError("classical (x) quantum unsupported; put the quantum factor first")
        if isinstance(left, OperatorAlgebra) and isinstance(right, OperatorAlgebra):
            self.kind = "qq"
            if a12 is None:
                raise AlgebraError("quantum (x) quantum composition needs an explicit a12")
        elif isinstance(left, OperatorAlgebra) and isinstance(right, PhaseSpaceAlgebra):
            self.kind = "qc"
            if a12 is None:
                a12 = left.constant.a
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
        herm = u.hermitian and v.hermitian
        if self.kind == "qq":
            h1, h2 = self.left.constant.hbar, self.right.constant.hbar
            LL, LR, RL, RR = _lr_table(u, v)
            sig_sig = 0.25 * (LL + LR + RL + RR)
            alp_alp = -(LL - LR - RL + RR) / (h1 * h2)
            return u._derived(sig_sig - math.sqrt(self.a1 * self.a2) * alp_alp, herm)
        # cross term carries sqrt(a1 * a2) = 0 for a classical right
        # component, so only the factorwise symmetric products remain
        return term_pair_sum(u, v, lambda A, B: 0.5 * (A @ B + B @ A), herm)

    def alpha(self, u, v):
        self._check_element(u)
        self._check_element(v)
        herm = u.hermitian and v.hermitian
        c1 = math.sqrt(self.a1 / self.a12)
        c2 = math.sqrt(self.a2 / self.a12)
        if self.kind == "qq":
            h1, h2 = self.left.constant.hbar, self.right.constant.hbar
            LL, LR, RL, RR = _lr_table(u, v)
            alp_sig = (LL + LR - RL - RR) / (2j * h1)
            sig_alp = (LL - LR + RL - RR) / (2j * h2)
            return u._derived(c1 * alp_sig + c2 * sig_alp, herm)
        # quantum (x) classical: c2 = 0 kills the classical-bracket term,
        # which is the algebraic root of the no-back-reaction result
        h1 = self.left.constant.hbar
        return term_pair_sum(u, v, lambda A, B: c1 * (A @ B - B @ A) / (1j * h1), herm)

    def tau(self, u, v):
        """Envelope product, computed on the independent route: plain
        associative multiplication of canonical forms."""
        self._check_element(u)
        self._check_element(v)
        if self.kind == "qq":
            u._check_like(v)
            return u._derived(u.entries @ v.entries, False)
        return u.assoc_product(v)

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
        drawn = [KroneckerElement._trusted(l, r, h, True)
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
