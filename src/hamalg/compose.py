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

Supported pairings: quantum (x) quantum, quantum (x) classical, and
classical (x) classical.  The classical pair composes to an ordinary
phase-space algebra on the disjoint union of canonical pairs.

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
)
from .elements import (
    OperatorElement,
    PhaseSpacePoly,
    QuantumConstant,
    check_trials,
    exponent_tuple,
    frobenius_norms,
    is_hermitian,
)
from .errors import AlgebraError, ShapeError
from .kernels import accumulate, keys_of, pack, poisson_weights, row_blocks

#: Random composed elements sum 1..MAX_RANDOM_TERMS simple tensors.
MAX_RANDOM_TERMS = 3


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
    the written-out double loop's to the bit, in every trial of a block.
    Where packed keys would overflow int64, the exponent rows are the keys
    (the loop summed Python ints); ``ShapeError`` only where a Poisson
    weight could overflow.
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
    classical (x) classical -> PhaseSpacePoly on the disjoint variables
    """
    if type(f) is OperatorElement and type(g) is OperatorElement:
        return KroneckerElement._trusted(f.dim, g.dim, np.kron(f.entries, g.entries),
                                         f.hermitian and g.hermitian)
    if type(f) is OperatorElement and isinstance(g, PhaseSpacePoly):
        coeffs = np.array(list(g.terms.values()))[:, None, None]
        return HybridElement._trusted(f.dim, g.num_pairs,
                                      nonzero_terms(g.terms, coeffs * f.entries), f.hermitian)
    if isinstance(f, PhaseSpacePoly) and isinstance(g, PhaseSpacePoly):
        terms = {}
        for ea, ca in f.terms.items():
            for eb, cb in g.terms.items():
                terms[ea + eb] = ca * cb
        return PhaseSpacePoly(f.num_pairs + g.num_pairs, terms)
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

    a12 is a free parameter.  It must be given explicitly for
    quantum (x) quantum; for quantum (x) classical it defaults to the
    quantum component's constant; classical (x) classical requires
    a12 = 0 (the composition is the ordinary joint phase-space algebra).
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
        elif isinstance(left, PhaseSpaceAlgebra) and isinstance(right, PhaseSpaceAlgebra):
            self.kind = "cc"
            if a12 is None:
                a12 = 0.0
            if a12 != 0.0:
                raise AlgebraError("classical (x) classical composes to a classical algebra; "
                                   "a12 must be 0")
        else:
            raise AlgebraError(
                f"unsupported component algebras {type(left).__name__}, {type(right).__name__}"
            )
        constant = QuantumConstant(float(a12))
        if constant.is_classical and self.kind != "cc":
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
        elif self.kind == "qc":
            if not isinstance(u, HybridElement):
                raise ShapeError(f"expected HybridElement, got {type(u).__name__}")
            if (u.dim, u.num_pairs) != (self.left.dim, self.right.num_pairs):
                raise ShapeError("element does not match component shapes")
        else:
            if not isinstance(u, PhaseSpacePoly):
                raise ShapeError(f"expected PhaseSpacePoly, got {type(u).__name__}")
            if u.num_pairs != self.left.num_pairs + self.right.num_pairs:
                raise ShapeError("element does not match the joint variable count")

    # -- composed products ---------------------------------------------

    def sigma(self, u, v):
        self._check_element(u)
        self._check_element(v)
        herm = u.hermitian and v.hermitian if self.kind != "cc" else None
        if self.kind == "qq":
            h1, h2 = self.left.constant.hbar, self.right.constant.hbar
            LL, LR, RL, RR = _lr_table(u, v)
            sig_sig = 0.25 * (LL + LR + RL + RR)
            alp_alp = -(LL - LR - RL + RR) / (h1 * h2)
            return u._derived(sig_sig - math.sqrt(self.a1 * self.a2) * alp_alp, herm)
        if self.kind == "qc":
            # cross term carries sqrt(a1 * a2) = 0 for a classical right
            # component, so only the factorwise symmetric products remain
            return term_pair_sum(u, v, lambda A, B: 0.5 * (A @ B + B @ A), herm)
        return u.product(v)

    def alpha(self, u, v):
        self._check_element(u)
        self._check_element(v)
        if self.kind == "cc":
            # equal-constant classical law: the joint Poisson bracket
            return u.poisson(v)
        if self.a12 <= 0:
            raise AlgebraError("alpha12 needs a12 > 0")
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
        if self.kind == "qc":
            return u.assoc_product(v)
        return u.product(v)

    # -- elements -------------------------------------------------------

    def unit(self):
        return simple_tensor(self.left.unit(), self.right.unit())

    def zero(self):
        if self.kind == "qq":
            n = self.left.dim * self.right.dim
            return KroneckerElement(self.left.dim, self.right.dim, np.zeros((n, n)),
                                    hermitian=True)
        if self.kind == "qc":
            return HybridElement(self.left.dim, self.right.num_pairs, {}, hermitian=True)
        return PhaseSpacePoly.zero(self.left.num_pairs + self.right.num_pairs)

    def random_simple_terms(self, rng: np.random.Generator, n_terms: int):
        """Draw n_terms random simple-tensor factor pairs."""
        return [(self.left.random_element(rng), self.right.random_element(rng))
                for _ in range(n_terms)]

    def embed_terms(self, terms):
        out = None
        for f1, f2 in terms:
            t = simple_tensor(f1, f2)
            out = t if out is None else out + t
        return self.zero() if out is None else out

    @property
    def block_entries(self) -> int | None:
        return (self.left.dim * self.right.dim) ** 2 if self.kind == "qq" else None

    def random_element(self, rng: np.random.Generator, block: tuple | None = None):
        """Random sum of simple tensors, their number drawn from
        1..MAX_RANDOM_TERMS.

        With ``block=(trials, arity)`` (quantum (x) quantum only),
        ``trials`` input tuples of ``arity`` elements in one draw, returned
        as ``arity`` blocks, each element drawing its number of terms: the
        numbers, in order, of ``trials * arity`` single calls, and the
        entries of their canonical forms to the bit.
        """
        if block is not None:
            return self._kronecker_block(rng, *block)
        n_terms = int(rng.integers(1, MAX_RANDOM_TERMS + 1))
        return self.embed_terms(self.random_simple_terms(rng, n_terms))

    def _kronecker_block(self, rng, trials: int, arity: int) -> list:
        if self.kind != "qq":
            raise AlgebraError(f"block draws need quantum (x) quantum, not {self.kind}")
        dl, dr = self.left.dim, self.right.dim
        split = 2 * dl * dl
        counts, draws = [], []
        for _ in range(trials * arity):   # per element: its term count, then its factors
            counts.append(int(rng.integers(1, MAX_RANDOM_TERMS + 1)))
            draws.append(rng.standard_normal(counts[-1] * (split + 2 * dr * dr)))
        z = np.concatenate(draws).reshape(sum(counts), -1)   # one row per simple tensor
        terms = kron_blocks(hermitian_from_normals(z[:, :split].reshape(-1, 2, dl, dl)),
                            hermitian_from_normals(z[:, split:].reshape(-1, 2, dr, dr)))
        counts = np.array(counts)
        first = np.cumsum(counts) - counts
        out = terms[first]
        for k in range(1, MAX_RANDOM_TERMS):   # add each element's terms in term order
            more = counts > k
            out[more] = out[more] + terms[first[more] + k]
        out = out.reshape((trials, arity) + out.shape[1:])
        return [KroneckerElement._trusted(dl, dr, np.ascontiguousarray(out[:, i]), True)
                for i in range(arity)]

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
