"""Element types for Hamilton algebras.

Two concrete realizations are supported:

* quantum observables: finite-dimensional complex matrices;
* classical observables: sparse real-coefficient polynomials in canonical
  phase-space pairs (x1, p1, x2, p2, ...).

A polynomial is a ``TermArray``: exponent rows and a coefficient stack.
``PhaseSpacePoly`` holds real coefficients, and the quantum (x) classical
``compose.HybridElement`` matrix ones; both inherit the arithmetic and
trial blocks from ``TermArray``, and their sums, products and Poisson
brackets run on the one engine of :mod:`hamalg.kernels`.

All are immutable values holding only their arrays; every operation
returns a new element.  Every element's norm is ``column_norms`` of its
entries, one column a trial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import AlgebraError, ShapeError
from .kernels import _ieee_quiet, term_sum
from .kernels import mul_terms as _poly_mul
from .kernels import poisson_terms as _poly_poisson


@dataclass(frozen=True)
class QuantumConstant:
    """The constant a >= 0 classifying a Hamilton algebra.

    a > 0 marks a quantum algebra with hbar = 2*sqrt(a); a = 0 marks a
    classical one.  Stored as a, with hbar derived, so that hbar**2 == 4*a
    holds to one floating rounding.
    """

    a: float

    def __post_init__(self):
        if not math.isfinite(self.a) or self.a < 0:
            raise AlgebraError(f"quantum constant must be finite and >= 0, got {self.a}")

    @property
    def hbar(self) -> float:
        return 2.0 * math.sqrt(self.a)

    @property
    def is_classical(self) -> bool:
        return self.a == 0.0

    @classmethod
    def from_hbar(cls, hbar: float) -> "QuantumConstant":
        if not math.isfinite(hbar) or hbar < 0:
            raise AlgebraError(f"hbar must be finite and >= 0, got {hbar}")
        a = hbar * hbar / 4.0
        if hbar > 0 and not 0 < a < math.inf:
            raise AlgebraError(f"hbar {hbar} gives a = hbar**2/4 = {a}; "
                               "a must be positive and finite")
        return cls(a=a)


def check_trials(mine, theirs) -> None:
    """Refuse to combine a block with a single element or with a block of
    another number of trials."""
    if theirs != mine:
        raise ShapeError(f"trials mismatch: {mine} and {theirs} (None is a single element)")


@_ieee_quiet
def column_norms(stack: np.ndarray) -> np.ndarray:
    """The norm of each column of an (M, T) stack: sqrt of the sum of |x|^2
    down it, added in turn from row 0.  So trial t of a block, a column,
    has the bits of trial t alone, whose dropped zero rows add nothing."""
    squares = stack.real * stack.real
    if np.iscomplexobj(stack):
        squares += stack.imag * stack.imag
    if not len(squares):
        return np.zeros(stack.shape[1])
    return np.sqrt(np.add.accumulate(squares)[-1])   # sequential, unlike np.sum


class OperatorElement:
    """A dim x dim complex matrix.

    A *block* of ``trials`` elements carries a leading trial axis on its
    entries, ``(trials, dim, dim)``, so that one call of each operation
    evaluates all of its trials; only ``_trusted`` makes one.  ``trial(t)``
    slices out one ordinary element, and blocks combine only with blocks
    of as many trials.  The element holds its entries alone: ``dim`` and
    ``trials`` are read off their shape.

    Every derived value is built by ``_derived``, so a subclass that adds a
    layout to the matrix (``compose.KroneckerElement``, a quantum (x)
    quantum element) overrides that hook and ``_check_like`` and inherits
    the arithmetic, ``norm`` and ``trial``.  Elements of different classes
    never combine.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.complex128)  # a copy, made read-only
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ShapeError(f"operator entries must be square, got shape {arr.shape}")
        arr.setflags(write=False)
        self.entries = arr

    @classmethod
    def _trusted(cls, entries: np.ndarray) -> "OperatorElement":
        """Internal constructor for values derived from validated inputs;
        entries of shape (trials, dim, dim) make a block."""
        self = object.__new__(cls)
        arr = np.asarray(entries, dtype=np.complex128)
        if arr.flags.writeable:
            arr.setflags(write=False)
        self.entries = arr
        return self

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]

    @property
    def trials(self) -> int | None:
        return self.entries.shape[0] if self.entries.ndim == 3 else None

    def _derived(self, entries: np.ndarray) -> "OperatorElement":
        """A value derived from this element: same class and layout."""
        return OperatorElement._trusted(entries)

    @classmethod
    def identity(cls, dim: int) -> "OperatorElement":
        return cls(np.eye(dim))

    def norm(self):
        """Frobenius norm, ``column_norms`` of the entries in C order; in a
        block, an array of the norm of each trial."""
        norms = column_norms(self.entries.reshape(-1, self.dim ** 2).T)
        return float(norms[0]) if self.trials is None else norms

    def trial(self, t: int) -> "OperatorElement":
        """Trial t of a block as an ordinary element."""
        if self.trials is None:
            raise ShapeError("trial() needs a block")
        return self._derived(self.entries[t])

    def _check_like(self, other: "OperatorElement"):
        if type(other) is not type(self):
            raise ShapeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other.dim != self.dim:
            raise ShapeError(f"dimension mismatch: {self.dim} vs {other.dim}")
        check_trials(self.trials, other.trials)

    @_ieee_quiet
    def __add__(self, other: "OperatorElement") -> "OperatorElement":
        self._check_like(other)
        return self._derived(self.entries + other.entries)

    def __sub__(self, other: "OperatorElement") -> "OperatorElement":
        self._check_like(other)
        return self._derived(self.entries - other.entries)

    def __neg__(self) -> "OperatorElement":
        return self._derived(-self.entries)

    @_ieee_quiet
    def scale(self, c: complex) -> "OperatorElement":
        return self._derived(c * self.entries)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __repr__(self):
        block = "" if self.trials is None else f", trials={self.trials}"
        return f"OperatorElement(dim={self.dim}{block})"


def exponent_tuple(exps, nvars: int) -> tuple:
    """``exps`` as a tuple of ints: ``nvars`` exponents, none negative."""
    e = tuple(int(v) for v in exps)
    if len(e) != nvars or any(v < 0 for v in e):
        raise ShapeError(f"exponent tuple {exps} invalid for {nvars} variables")
    return e


def exponent_rows(keys, nvars: int) -> np.ndarray:
    """Exponent tuples as the rows of an int64 array."""
    return np.array(keys, dtype=np.int64).reshape(len(keys), nvars)


class TermArray:
    """Sparse polynomial in ``num_pairs`` canonical (x, p) pairs, stored as
    exponent rows ``exps`` (N, 2 * num_pairs) int64 and a coefficient stack
    ``coeffs`` (N, *shape), both read-only and C-contiguous.  Variable order
    is (x1, p1, x2, p2, ...), and no row is zero in every entry.

    A subclass fixes the coefficient: ``COEFF_RANK`` trailing axes, 0 for a
    scalar, 2 for a matrix.  A *block* of ``trials`` elements carries a
    trial axis after those, the last and innermost axis of the stack, so
    that one call of each operation evaluates all of its trials on
    contiguous runs of trials: (N, trials) for a scalar, (N, d, d, trials)
    for a matrix.  A row stays unless its coefficient is zero in every
    trial, and ``trial(t)`` slices out one ordinary element.  Blocks combine
    only with blocks of as many trials.  The element holds its two arrays
    and nothing else: ``num_pairs`` and ``trials`` are read off their
    shapes.
    """

    __slots__ = ("exps", "coeffs")
    COEFF_RANK = 0

    @classmethod
    def _trusted(cls, exps: np.ndarray, coeffs: np.ndarray):
        """Internal constructor for arrays derived from validated inputs."""
        self = object.__new__(cls)
        self._set(exps, coeffs)
        return self

    def _set(self, exps: np.ndarray, coeffs: np.ndarray):
        """Drop the rows that are zero in every entry (a sum can cancel, a
        product underflow) and take the arrays over, read-only."""
        live = coeffs.reshape(len(coeffs), math.prod(coeffs.shape[1:])).any(axis=1)
        if not live.all():
            exps, coeffs = exps[live], coeffs[live]
        coeffs = np.ascontiguousarray(coeffs)
        exps.setflags(write=False)
        coeffs.setflags(write=False)
        self.exps = exps
        self.coeffs = coeffs

    @property
    def num_pairs(self) -> int:
        return self.exps.shape[1] // 2

    @property
    def trials(self) -> int | None:
        return self.coeffs.shape[-1] if self.coeffs.ndim > 1 + self.COEFF_RANK else None

    @property
    def terms(self) -> dict:
        """Exponent tuples to coefficients, in row order: Python floats for a
        real polynomial, read-only array views otherwise."""
        values = self.coeffs.tolist() if self.coeffs.ndim == 1 else self.coeffs
        return dict(zip(map(tuple, self.exps.tolist()), values))

    def __len__(self) -> int:
        return len(self.exps)

    def norm(self):
        """sqrt of the sum of |c|^2 over every coefficient entry,
        ``column_norms`` of the stack in C order; in a block, an array of
        the norm of each trial."""
        norms = column_norms(self.coeffs.reshape(-1, 1 if self.trials is None else self.trials))
        return float(norms[0]) if self.trials is None else norms

    def trial(self, t: int):
        """Trial t of a block as an ordinary element, without the rows that
        are zero in that trial."""
        if self.trials is None:
            raise ShapeError("trial() needs a block")
        return self._trusted(self.exps, self.coeffs[..., t])

    def _check_like(self, other: "TermArray"):
        if type(other) is not type(self):
            raise ShapeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other.num_pairs != self.num_pairs:
            raise ShapeError(f"num_pairs mismatch: {self.num_pairs} vs {other.num_pairs}")
        check_trials(self.trials, other.trials)
        if other.coeffs.shape[1:] != self.coeffs.shape[1:]:
            raise ShapeError(f"coefficient shape mismatch: {self.coeffs.shape[1:]} vs "
                             f"{other.coeffs.shape[1:]}")

    def __add__(self, other: "TermArray"):
        self._check_like(other)
        return self._trusted(*term_sum(self.exps, other.exps, self.coeffs, other.coeffs))

    def __sub__(self, other: "TermArray"):
        return self + other.scale(-1.0)

    def __neg__(self):
        return self.scale(-1.0)

    @_ieee_quiet
    def scale(self, c):
        return self._trusted(self.exps, c * self.coeffs)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__


def _check_finite(exps: np.ndarray, coeffs: np.ndarray):
    """AlgebraError naming the first row with a non-finite coefficient."""
    flat = coeffs.reshape(len(coeffs), math.prod(coeffs.shape[1:]))
    bad = ~np.isfinite(flat)
    if bad.any():
        row = int(bad.any(axis=1).argmax())
        raise AlgebraError(f"non-finite coefficient {float(flat[row][bad[row]][0])} "
                           f"at {tuple(exps[row].tolist())}")


class PhaseSpacePoly(TermArray):
    """Sparse real polynomial in num_pairs canonical (x, p) pairs: a
    ``TermArray`` of float coefficients, (N,) or (N, trials) in a block.

    Products are exact; zero coefficients are never stored, and a
    non-finite one is refused.
    """

    __slots__ = ()

    def __init__(self, num_pairs: int, terms: dict):
        if num_pairs < 1:
            raise ShapeError(f"num_pairs must be >= 1, got {num_pairs}")
        exps = exponent_rows([exponent_tuple(e, 2 * num_pairs) for e in terms], 2 * num_pairs)
        coeffs = np.array([float(c) for c in terms.values()], dtype=np.float64)
        _check_finite(exps, coeffs)
        self._set(exps, coeffs)

    @classmethod
    def _trusted(cls, exps: np.ndarray, coeffs: np.ndarray) -> "PhaseSpacePoly":
        """Also rejects non-finite coefficients (a product or sum can
        overflow), naming the first non-finite term."""
        _check_finite(exps, coeffs)
        return super()._trusted(exps, coeffs)

    @classmethod
    def unit(cls, num_pairs: int) -> "PhaseSpacePoly":
        return cls(num_pairs, {(0,) * (2 * num_pairs): 1.0})

    @classmethod
    def variable(cls, num_pairs: int, name: str) -> "PhaseSpacePoly":
        """Coordinate polynomial, e.g. 'x1' or 'p2'."""
        kind, idx = name[0], int(name[1:])
        if kind not in "xp" or not (1 <= idx <= num_pairs):
            raise ShapeError(f"unknown canonical variable {name!r}")
        e = [0] * (2 * num_pairs)
        e[2 * (idx - 1) + (0 if kind == "x" else 1)] = 1
        return cls(num_pairs, {tuple(e): 1.0})

    def degree(self) -> int:
        return int(self.exps.sum(axis=1).max(initial=0))

    def scale(self, c: float) -> "PhaseSpacePoly":
        return super().scale(float(c))

    def product(self, other: "PhaseSpacePoly") -> "PhaseSpacePoly":
        self._check_like(other)
        return PhaseSpacePoly._trusted(
            *_poly_mul(self.exps, other.exps, self.coeffs, other.coeffs))

    def poisson(self, other: "PhaseSpacePoly") -> "PhaseSpacePoly":
        self._check_like(other)
        return PhaseSpacePoly._trusted(
            *_poly_poisson(self.exps, other.exps, self.coeffs, other.coeffs))

    def __repr__(self):
        block = "" if self.trials is None else f", trials={self.trials}"
        return f"PhaseSpacePoly(num_pairs={self.num_pairs}, nterms={len(self)}{block})"


@functools.cache
def monomials_up_to_degree(nvars: int, degree: int) -> tuple:
    """All exponent tuples over nvars variables with total degree <= degree,
    by degree, then in ``combinations_with_replacement`` order; built once
    per (nvars, degree) and shared, hence a tuple."""
    out = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(range(nvars), d):
            e = [0] * nvars
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return tuple(out)


def product_monomials(nvars: int, degree: int) -> int:
    """Monomials of degree <= 4 * degree over nvars variables,
    C(nvars + 4 degree, 4 degree): the most terms a product of four random
    polynomials of degree ``degree``, an identity's deepest product, holds."""
    return math.comb(nvars + 4 * degree, 4 * degree)
