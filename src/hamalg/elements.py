"""Element types for Hamilton algebras.

Two concrete realizations are supported:

* quantum observables: finite-dimensional complex matrices, flagged
  Hermitian when they represent physical observables;
* classical observables: sparse real-coefficient polynomials in canonical
  phase-space pairs (x1, p1, x2, p2, ...), whose products and Poisson
  brackets run on the numpy kernel in :mod:`hamalg.kernels`.

Both are immutable values; every operation returns a new element.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import AlgebraError, ShapeError
from .kernels import mul as _poly_mul
from .kernels import poisson as _poly_poisson

HERMITIAN_RTOL = 1e-12


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
        return cls(a=hbar * hbar / 4.0)


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


def is_hermitian(entries: np.ndarray) -> bool:
    return float(np.linalg.norm(entries - entries.conj().T)) <= HERMITIAN_RTOL * float(
        np.linalg.norm(entries)
    )


def check_trials(mine, theirs) -> None:
    """Refuse to combine a block with a single element or with a block of
    another number of trials."""
    if theirs != mine:
        raise ShapeError(f"trials mismatch: {mine} and {theirs} (None is a single element)")


def frobenius_norms(stack: np.ndarray) -> list:
    """Frobenius norm of each ``stack[i]``, as Python floats:
    sqrt(re.re + im.im) over the slice in C order.

    On a C-contiguous complex matrix this is what ``np.linalg.norm``
    computes, both dot products reaching BLAS ``ddot`` at the same strides,
    so each norm is that call's to the bit; one ``np.vecdot`` call serves
    the whole stack.  Only there: ``np.linalg.norm`` sums a Fortran-ordered
    or transposed matrix in memory order, this helper always in C order,
    so on such entries the two may differ in the last bits.
    """
    flat = stack.reshape(len(stack), math.prod(stack.shape[1:]))
    re, im = flat.real, flat.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im)).tolist()


class OperatorElement:
    """A dim x dim complex matrix, optionally flagged Hermitian.

    A *block* of ``trials`` elements carries a leading trial axis on its
    entries, ``(trials, dim, dim)``, so that one call of each operation
    evaluates all of its trials; only ``_trusted`` makes one.  ``trial(t)``
    slices out one ordinary element, and blocks combine only with blocks
    of as many trials.  The Hermitian flag of a block covers every trial.

    Every derived value is built by ``_derived``, so a subclass that adds a
    layout to the matrix (``compose.KroneckerElement``, a quantum (x)
    quantum element) overrides that hook and ``_check_like`` and inherits
    the arithmetic, ``norm`` and ``trial``.  Elements of different classes
    never combine.
    """

    __slots__ = ("entries", "dim", "hermitian", "trials")

    def __init__(self, entries, hermitian: bool | None = None):
        arr = _as_readonly(np.asarray(entries))
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ShapeError(f"operator entries must be square, got shape {arr.shape}")
        if hermitian is None:
            hermitian = is_hermitian(arr)
        elif hermitian and not is_hermitian(arr):
            raise AlgebraError("entries flagged Hermitian but are not (beyond tolerance)")
        self.entries = arr
        self.dim = arr.shape[0]
        self.hermitian = bool(hermitian)
        self.trials = None

    @classmethod
    def _trusted(cls, entries: np.ndarray, hermitian: bool) -> "OperatorElement":
        """Internal constructor for values derived from validated inputs;
        entries of shape (trials, dim, dim) make a block.

        Skips the Hermitian check: exact algebra on Hermitian inputs stays
        Hermitian up to ulp-level rounding, which the relative check would
        misjudge on results that cancel to ~0.
        """
        self = object.__new__(cls)
        arr = np.asarray(entries, dtype=np.complex128)
        if arr.flags.writeable:
            arr.setflags(write=False)
        self.entries = arr
        self.dim = arr.shape[-1]
        self.hermitian = hermitian
        self.trials = arr.shape[0] if arr.ndim == 3 else None
        return self

    def _derived(self, entries: np.ndarray, hermitian: bool) -> "OperatorElement":
        """A value derived from this element: same class and layout."""
        return OperatorElement._trusted(entries, hermitian)

    @classmethod
    def identity(cls, dim: int) -> "OperatorElement":
        return cls(np.eye(dim), hermitian=True)

    def norm(self):
        """Frobenius norm; in a block, an array of the norm of each trial,
        equal to ``trial(t).norm()`` to the bit."""
        if self.trials is None:
            return frobenius_norms(self.entries[None])[0]
        return np.array(frobenius_norms(self.entries))

    def trial(self, t: int) -> "OperatorElement":
        """Trial t of a block as an ordinary element."""
        if self.trials is None:
            raise ShapeError("trial() needs a block")
        return self._derived(self.entries[t], self.hermitian)

    def _check_like(self, other: "OperatorElement"):
        if type(other) is not type(self):
            raise ShapeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other.dim != self.dim:
            raise ShapeError(f"dimension mismatch: {self.dim} vs {other.dim}")
        check_trials(self.trials, other.trials)

    def __add__(self, other: "OperatorElement") -> "OperatorElement":
        self._check_like(other)
        return self._derived(self.entries + other.entries, self.hermitian and other.hermitian)

    def __sub__(self, other: "OperatorElement") -> "OperatorElement":
        self._check_like(other)
        return self._derived(self.entries - other.entries, self.hermitian and other.hermitian)

    def __neg__(self) -> "OperatorElement":
        return self._derived(-self.entries, self.hermitian)

    def scale(self, c: complex) -> "OperatorElement":
        herm = self.hermitian and complex(c).imag == 0.0
        return self._derived(c * self.entries, herm)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __repr__(self):
        block = "" if self.trials is None else f", trials={self.trials}"
        return f"OperatorElement(dim={self.dim}, hermitian={self.hermitian}{block})"


def exponent_tuple(exps, nvars: int) -> tuple:
    """``exps`` as a tuple of ints: ``nvars`` exponents, none negative."""
    e = tuple(int(v) for v in exps)
    if len(e) != nvars or any(v < 0 for v in e):
        raise ShapeError(f"exponent tuple {exps} invalid for {nvars} variables")
    return e


def _validate_terms(terms: dict, nvars: int) -> dict:
    clean: dict = {}
    for exps, coeff in terms.items():
        e = exponent_tuple(exps, nvars)
        c = float(coeff)
        if not math.isfinite(c):
            raise AlgebraError(f"non-finite coefficient {coeff} at {exps}")
        if c != 0.0:
            clean[e] = c
    return clean


class PhaseSpacePoly:
    """Sparse real polynomial in num_pairs canonical (x, p) pairs.

    Variable order in exponent tuples is (x1, p1, x2, p2, ...).  Products
    are exact; zero coefficients are never stored.
    """

    __slots__ = ("num_pairs", "terms")

    def __init__(self, num_pairs: int, terms: dict | None = None):
        if num_pairs < 1:
            raise ShapeError(f"num_pairs must be >= 1, got {num_pairs}")
        self.num_pairs = int(num_pairs)
        self.terms = _validate_terms(terms or {}, 2 * self.num_pairs)

    @classmethod
    def _trusted(cls, num_pairs: int, terms: dict) -> "PhaseSpacePoly":
        """Internal constructor for terms derived from validated inputs.

        Skips the exponent checks, whose inputs already passed them, but
        still rejects non-finite coefficients (a product or sum can
        overflow) and drops zeros (a sum can cancel, a product underflow),
        in one array pass.  Keeps ``terms`` itself when it has no zero, so
        callers pass a dict of their own.
        """
        coeffs = np.fromiter(terms.values(), dtype=np.float64, count=len(terms))
        if not np.isfinite(coeffs).all():
            for exps, coeff in terms.items():  # name the first non-finite term
                if not math.isfinite(coeff):
                    raise AlgebraError(f"non-finite coefficient {coeff} at {exps}")
        nonzero = coeffs != 0.0
        if not nonzero.all():
            terms = {e: c for e, c, keep in zip(terms, terms.values(), nonzero.tolist()) if keep}
        self = object.__new__(cls)
        self.num_pairs = num_pairs
        self.terms = terms
        return self

    @property
    def nvars(self) -> int:
        return 2 * self.num_pairs

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
        return max((sum(e) for e in self.terms), default=0)

    def norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.terms.values()))

    def _check_like(self, other: "PhaseSpacePoly"):
        if not isinstance(other, PhaseSpacePoly):
            raise ShapeError(f"expected PhaseSpacePoly, got {type(other).__name__}")
        if other.num_pairs != self.num_pairs:
            raise ShapeError(f"num_pairs mismatch: {self.num_pairs} vs {other.num_pairs}")

    def __add__(self, other: "PhaseSpacePoly") -> "PhaseSpacePoly":
        self._check_like(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return PhaseSpacePoly._trusted(self.num_pairs, out)

    def __sub__(self, other: "PhaseSpacePoly") -> "PhaseSpacePoly":
        return self + other.scale(-1.0)

    def __neg__(self) -> "PhaseSpacePoly":
        return self.scale(-1.0)

    def scale(self, c: float) -> "PhaseSpacePoly":
        c = float(c)
        return PhaseSpacePoly._trusted(self.num_pairs,
                                       {e: c * v for e, v in self.terms.items()})

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def product(self, other: "PhaseSpacePoly") -> "PhaseSpacePoly":
        self._check_like(other)
        return PhaseSpacePoly._trusted(self.num_pairs,
                                       _poly_mul(self.terms, other.terms, self.nvars))

    def poisson(self, other: "PhaseSpacePoly") -> "PhaseSpacePoly":
        self._check_like(other)
        return PhaseSpacePoly._trusted(
            self.num_pairs, _poly_poisson(self.terms, other.terms, self.num_pairs)
        )

    def __repr__(self):
        return f"PhaseSpacePoly(num_pairs={self.num_pairs}, nterms={len(self.terms)})"


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
