"""Helpers of the tests: Pauli matrices, scripted inputs, and the literal
loops that the batched main path is checked against.  Each loop is an
oracle written out the plain way, never a second route of the package.

Imported as ``tests.helpers``, a name of its own, so that it resolves when
``perfbench/tests`` is collected in the same run."""

import math

import numpy as np

from hamalg import OperatorElement, PhaseSpaceAlgebra

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: (kernels.DENSE_SLOTS_PER_PAIR, kernels.DENSE_BOX_SLOTS) that force each
#: packed-key route of ``kernels.slot_plan``
FORCED_ROUTES = {"dense": (10 ** 9, 10 ** 9), "sorted": (0, 0)}

def sequential_sum(values):
    """The floats added in turn, left to right, from 0.0: the order the
    norms promise.  Python's ``sum`` of floats gave this order before 3.12
    and compensates its rounding since."""
    total = 0.0
    for value in values:
        total += value
    return total


#: scripted defects over blocks [0, 3), [3, 6), [6]: trials 1, 3 and 5 tie
#: for the max, within and across blocks; trials 2 and 6 are NaN, the last
#: one at the end.  The last maximal trial, 5, is the witness; no NaN is.
TIES_AND_NANS = (0.5, 2.0, math.nan, 2.0, 1.0, 2.0, math.nan)


def loop_phase_space_draw(rng, num_pairs, degree):
    """A random phase-space polynomial drawn one scalar per monomial, as
    ``PhaseSpaceAlgebra.random_element`` drew it."""
    from hamalg import PhaseSpacePoly
    from hamalg.elements import monomials_up_to_degree

    terms = {}
    for e in monomials_up_to_degree(2 * num_pairs, degree):
        terms[e] = rng.uniform(-1.0, 1.0)
    return PhaseSpacePoly(num_pairs, terms)


def random_hybrid(rng, dim, num_pairs, degree, density=0.6):
    """Hybrid element with complex, non-Hermitian coefficients on a random
    subset of the monomials up to ``degree``, listed in shuffled order."""
    from hamalg import HybridElement
    from hamalg.elements import monomials_up_to_degree

    monos = monomials_up_to_degree(2 * num_pairs, degree)
    terms = {}
    for i in rng.permutation(len(monos)):
        if rng.uniform() <= density:
            terms[monos[i]] = (rng.standard_normal((dim, dim))
                               + 1j * rng.standard_normal((dim, dim)))
    return HybridElement(dim, num_pairs, terms)


def one_pair(A, B):
    """Two coefficients, (d, d) or a block's (d, d, T), as the stacks
    (1, 1, ...) of one term pair: what the engine hands ``combine`` for a
    pair alone."""
    return A[None, None], B[None, None]


def pair_product(A, B):
    """``coefficient_product`` of one term pair's coefficients alone."""
    from hamalg.compose import coefficient_product

    return coefficient_product(*one_pair(A, B))[0, 0]


def loop_term_pairs(u, v, combine):
    """The literal term-pair loop the batched engine replaces: each
    exponent's matrix summed in loop order, zero matrices dropped;
    ``combine`` takes each pair alone (``one_pair``)."""
    out = {}
    for ea, ma in u.terms.items():
        for eb, mb in v.terms.items():
            ec = tuple(a + b for a, b in zip(ea, eb))
            val = combine(*one_pair(ma, mb))[0, 0]
            out[ec] = out[ec] + val if ec in out else val
    return {e: m for e, m in out.items() if np.any(m != 0)}


def assert_terms_bitwise(got, want):
    """Same keys in the same order, and every matrix equal to the bit."""
    assert list(got) == list(want)
    for e, m in want.items():
        assert np.array_equal(got[e], m, equal_nan=True)
        assert got[e].tobytes() == m.tobytes()  # signed zeros and NaNs too


def assert_nan_alike(got, want):
    """Two arrays equal to the bit, signed zeros too, except that any NaN
    matches any NaN: IEEE 754 leaves a NaN's sign and payload open."""
    assert got.shape == want.shape
    g, w = (np.ascontiguousarray(x).view(np.float64) for x in (got, want))
    nan = np.isnan(w)
    assert np.array_equal(np.isnan(g), nan)
    assert g[~nan].tobytes() == w[~nan].tobytes()


def loop_draws(rng, trials, arity, dim=2, num_pairs=1, degree=2):
    """Input tuples drawn one element at a time, as the trial loops drew them."""
    from hamalg.brackets import random_hybrid_observable

    return [[random_hybrid_observable(rng, dim, num_pairs, degree) for _ in range(arity)]
            for _ in range(trials)]


def loop_desideratum_defect(kind, desideratum, elements, hbar):
    """Relative defect of one desideratum, written out from ``mixed_bracket``
    and ``assoc_product``: Jacobi as the left-nested cyclic sum."""
    from hamalg.algebra import relative_defect
    from hamalg.brackets import mixed_bracket

    def br(u, v):
        return mixed_bracket(kind, u, v, hbar)

    if desideratum == "antisymmetry":
        u, v = elements
        diff = br(u, v) + br(v, u)
    elif desideratum == "jacobi":
        u, v, w = elements
        diff = br(br(u, v), w) + br(br(v, w), u) + br(br(w, u), v)
    else:
        u, v, w = elements
        diff = (br(u, v.assoc_product(w)) - br(u, v).assoc_product(w)
                - v.assoc_product(br(u, w)))
    return relative_defect(diff.norm(), [e.norm() for e in elements])


def loop_defects(kind, desideratum, blocks, hbar):
    """Defects of a tuple of blocks, trial by trial on single elements."""
    return [loop_desideratum_defect(kind, desideratum, [b.trial(t) for b in blocks], hbar)
            for t in range(blocks[0].trials)]


def loop_measure_defects(kind, trials, seed=0, hbar=1.0):
    """The trial loop of ``measure_defects``, as its ``defects[]`` entry:
    each tuple drawn and scored alone, the running worst replaced on
    ``>=``, the defect NaN if any trial's is."""
    from hamalg.brackets import DESIDERATA, NOTES, MixedBracketKind, matches_expected_pattern
    from hamalg.serialize import element_to_json

    kind = MixedBracketKind(kind)
    defects, witnesses = {}, {}
    for di, name in enumerate(DESIDERATA):
        rng = np.random.default_rng([seed, di])
        arity = 2 if name == "antisymmetry" else 3
        worst, worst_witness, nan_seen = 0.0, None, False
        for elements in loop_draws(rng, trials, arity):
            d = loop_desideratum_defect(kind, name, elements, hbar)
            nan_seen = nan_seen or np.isnan(d)
            if d >= worst:
                worst = d
                worst_witness = [element_to_json(e) for e in elements]
        defects[name] = np.nan if nan_seen else worst
        witnesses[name] = {"defect": float(worst), "elements": worst_witness}
    return {
        "kind": kind.value,
        "trials": trials,
        "seed": seed,
        "antisymmetry_defect": defects["antisymmetry"],
        "jacobi_defect": defects["jacobi"],
        "derivation_defect": defects["derivation"],
        "witnesses": witnesses,
        "matches_expected_pattern": matches_expected_pattern(kind, defects),
        "notes": list(NOTES[kind]),
    }


def loop_find_violation_witness(kind, desideratum, budget, seed=0, threshold=1e-6,
                                hbar=1.0):
    """The trial loop of ``find_violation_witness``: the first tuple over
    the threshold or NaN, drawn and scored alone."""
    from hamalg.brackets import DESIDERATA, MixedBracketKind
    from hamalg.serialize import element_to_json

    kind = MixedBracketKind(kind)
    rng = np.random.default_rng([seed, DESIDERATA.index(desideratum)])
    arity = 2 if desideratum == "antisymmetry" else 3
    for trial in range(budget):
        elements = loop_draws(rng, 1, arity)[0]
        d = loop_desideratum_defect(kind, desideratum, elements, hbar)
        if not d <= threshold:
            return {"kind": kind.value, "desideratum": desideratum, "trial": trial,
                    "defect": float(d),
                    "elements": [element_to_json(e) for e in elements]}
    return None


def loop_operator_element(rng, dim):
    """A random Hermitian matrix drawn as the single-element loop drew it:
    one (dim, dim) call for the real parts, one for the imaginary parts."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return OperatorElement(0.5 * (m + m.conj().T))


def loop_kronecker_element(rng, left_dim, right_dim):
    """A random quantum (x) quantum element drawn as the single-element loop
    draws it: a Hermitian matrix on the whole l*r dimensional space."""
    from hamalg import KroneckerElement

    flat = loop_operator_element(rng, left_dim * right_dim)
    return KroneckerElement(left_dim, right_dim, flat.entries)


def loop_hybrid_element(rng, dim, num_pairs, degree):
    """A random hybrid observable drawn one monomial at a time: a Hermitian
    coefficient on each, drawn as ``loop_operator_element`` draws it."""
    from hamalg import HybridElement
    from hamalg.elements import monomials_up_to_degree

    return HybridElement(dim, num_pairs,
                         {e: loop_operator_element(rng, dim).entries
                          for e in monomials_up_to_degree(2 * num_pairs, degree)})


def loop_element_draws(alg, rng, trials, arity):
    """Input tuples of an operator algebra, a phase-space algebra or a
    composition, drawn one element at a time."""
    from hamalg import ComposedAlgebra

    alg = getattr(alg, "base", alg)   # a CorruptedAlgebra draws as its base

    def draw():
        if isinstance(alg, PhaseSpaceAlgebra):
            return loop_phase_space_draw(rng, alg.num_pairs, alg.max_random_degree)
        if isinstance(alg, ComposedAlgebra) and alg.kind == "qc":
            return loop_hybrid_element(rng, alg.left.dim, alg.right.num_pairs,
                                       alg.right.max_random_degree)
        if isinstance(alg, ComposedAlgebra):
            return loop_kronecker_element(rng, alg.left.dim, alg.right.dim)
        return loop_operator_element(rng, alg.dim)

    return [[draw() for _ in range(arity)] for _ in range(trials)]


def simple_tensor_terms(alg, rng, n_terms):
    """``n_terms`` random simple-tensor factor pairs of a composed algebra
    and their sum, added in list order: the explicit term lists that the
    switching-map oracle ``compose_product_on_terms`` reads."""
    from hamalg import simple_tensor

    terms = [(alg.left.random_element(rng), alg.right.random_element(rng))
             for _ in range(n_terms)]
    out = simple_tensor(*terms[0])
    for f1, f2 in terms[1:]:
        out = out + simple_tensor(f1, f2)
    return terms, out


def loop_identity_defects(alg, identity, blocks):
    """Defects of a tuple of blocks, trial by trial on single elements."""
    from hamalg.identities import identity_defect

    return [identity_defect(alg, identity, [b.trial(t) for b in blocks])
            for t in range(blocks[0].trials)]


def loop_check_identity(alg, identity, trials, tolerance, seed):
    """The trial loop of ``check_identity``: each tuple drawn and scored
    alone, the running worst replaced on ``>=``."""
    from hamalg.identities import _ARITY, Identity, identity_defect
    from hamalg.serialize import element_to_json

    identity = Identity(identity)
    rng = np.random.default_rng([seed, list(Identity).index(identity)])
    worst, worst_elements, total, nan_seen = 0.0, [], 0.0, False
    for _ in range(trials):
        elements = loop_element_draws(alg, rng, 1, _ARITY[identity])[0]
        defect = identity_defect(alg, identity, elements)
        total += defect
        nan_seen = nan_seen or np.isnan(defect)
        if defect >= worst:
            worst, worst_elements = defect, elements
    return {"identity": identity.value, "trials": trials, "tolerance": tolerance,
            "seed": seed, "max_relative_defect": worst,
            "mean_relative_defect": total / trials,
            "worst_witness": [element_to_json(e) for e in worst_elements],
            "passed": worst <= tolerance and not nan_seen}


# The dense oracle's products as double loops over exponent pairs, the
# semantics ``reference.py`` vectorizes.

def loop_dense_poly_mul(a, b):
    shape = tuple(sa + sb - 1 for sa, sb in zip(a.shape, b.shape))
    out = np.zeros(shape)
    for ea in np.ndindex(a.shape):
        ca = a[ea]
        if ca == 0.0:
            continue
        for eb in np.ndindex(b.shape):
            cb = b[eb]
            if cb == 0.0:
                continue
            out[tuple(x + y for x, y in zip(ea, eb))] += ca * cb
    return out


def loop_dense_poly_poisson(a, b, num_pairs):
    shape = tuple(sa + sb - 1 for sa, sb in zip(a.shape, b.shape))
    out = np.zeros(shape)
    for ea in np.ndindex(a.shape):
        ca = a[ea]
        if ca == 0.0:
            continue
        for eb in np.ndindex(b.shape):
            cb = b[eb]
            if cb == 0.0:
                continue
            for k in range(num_pairs):
                ix, ip = 2 * k, 2 * k + 1
                w = ea[ix] * eb[ip] - ea[ip] * eb[ix]
                if w == 0:
                    continue
                e = list(x + y for x, y in zip(ea, eb))
                e[ix] -= 1
                e[ip] -= 1
                out[tuple(e)] += ca * cb * w
    return out


def loop_dense_to_poly_terms(arr):
    return {e: float(arr[e]) for e in np.ndindex(arr.shape) if arr[e] != 0.0}


def loop_dense_hybrid_mul(a, b):
    shape = tuple(sa + sb - 1 for sa, sb in zip(a.shape[:-2], b.shape[:-2]))
    out = np.zeros(shape + a.shape[-2:], dtype=np.complex128)
    for ea in np.ndindex(a.shape[:-2]):
        ma = a[ea]
        if not ma.any():
            continue
        for eb in np.ndindex(b.shape[:-2]):
            mb = b[eb]
            if not mb.any():
                continue
            out[tuple(x + y for x, y in zip(ea, eb))] += ma @ mb
    return out


def loop_dense_product_rule_poisson(a, b, num_pairs):
    shape = tuple(sa + sb - 1 for sa, sb in zip(a.shape[:-2], b.shape[:-2]))
    pois = np.zeros(shape + a.shape[-2:], dtype=np.complex128)
    for ea in np.ndindex(a.shape[:-2]):
        ma = a[ea]
        if not ma.any():
            continue
        for eb in np.ndindex(b.shape[:-2]):
            mb = b[eb]
            if not mb.any():
                continue
            plus = 0.5 * (ma @ mb + mb @ ma)
            for k in range(num_pairs):
                ix, ip = 2 * k, 2 * k + 1
                w = ea[ix] * eb[ip] - ea[ip] * eb[ix]
                if w == 0:
                    continue
                e = list(x + y for x, y in zip(ea, eb))
                e[ix] -= 1
                e[ip] -= 1
                pois[tuple(e)] += w * plus
    return pois


def loop_dense_hybrid_partial(a, var):
    shape = list(a.shape[:-2])
    shape[var] = max(shape[var] - 1, 1)
    out = np.zeros(tuple(shape) + a.shape[-2:], dtype=np.complex128)
    for e in np.ndindex(a.shape[:-2]):
        if e[var] == 0:
            continue
        de = list(e)
        de[var] -= 1
        out[tuple(de)] += e[var] * a[e]
    return out


def loop_hybrid_json_to_dense(data):
    dim = int(data["dim"])
    extent = [1] * (2 * int(data["num_pairs"]))
    for p in data["parts"]:
        for i, v in enumerate(p["exponents"]):
            extent[i] = max(extent[i], v + 1)
    out = np.zeros(tuple(extent) + (dim, dim), dtype=np.complex128)
    for p in data["parts"]:
        mat = np.array([complex(re, im) for re, im in p["matrix"]]).reshape(dim, dim)
        out[tuple(p["exponents"])] += mat
    return out


# The normal-ordered commutator of two canonical pairs, the route by which
# the measurement model's generator was once derived: the oracle its
# composed-bracket route is pinned against.

def loop_mono_mul(e1, e2, hbars):
    """Product of two normal-ordered monomials over (x1, p1, x2, p2), x
    before p in each pair.

    Reordering p^m x^n across a canonical pair with constant hbar gives
    sum_k k! C(m,k) C(n,k) (-i hbar)^k x^(n-k) p^(m-k); a classical pair
    (hbar = 0) keeps only k = 0.
    """
    a1, b1, c1, d1 = e1
    a2, b2, c2, d2 = e2
    out = {}
    for k1 in range(min(b1, a2) + 1):
        co1 = (math.factorial(k1) * math.comb(b1, k1) * math.comb(a2, k1)
               * (-1j * hbars[0]) ** k1)
        if co1 == 0:
            continue
        for k2 in range(min(d1, c2) + 1):
            co2 = (math.factorial(k2) * math.comb(d1, k2) * math.comb(c2, k2)
                   * (-1j * hbars[1]) ** k2)
            if co2 == 0:
                continue
            e = (a1 + a2 - k1, b1 + b2 - k1, c1 + c2 - k2, d1 + d2 - k2)
            out[e] = out.get(e, 0) + co1 * co2
    return out


def loop_normal_ordered_mul(f, g, hbars):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            for e, c in loop_mono_mul(e1, e2, hbars).items():
                out[e] = out.get(e, 0) + c1 * c2 * c
    return {e: c for e, c in out.items() if c != 0}


def loop_evolution_bracket(f, h, regime, hbar):
    """(f h - h f) / (i hbar) on normal-ordered polynomials, as complex
    coefficients: both pairs carry hbar in the quantum-quantum regime, the
    second pair none in the quantum-classical one."""
    from hamalg.measurement import Regime

    hbars = (hbar, hbar) if regime is Regime.QUANTUM_QUANTUM else (hbar, 0.0)
    out = dict(loop_normal_ordered_mul(f, h, hbars))
    for e, c in loop_normal_ordered_mul(h, f, hbars).items():
        out[e] = out.get(e, 0) - c
    return {e: c / (1j * hbar) for e, c in out.items() if c != 0}


def loop_generator(h, regime, hbar):
    """The 5x5 generator, row i the loop bracket of basis observable i with
    h decomposed over the basis; a non-real coefficient fails."""
    from hamalg.measurement import _BASIS_EXPONENTS, BASIS

    basis_index = {_BASIS_EXPONENTS[name]: i for i, name in enumerate(BASIS)}
    gen = np.zeros((len(BASIS), len(BASIS)))
    for i, name in enumerate(BASIS):
        for e, c in loop_evolution_bracket({_BASIS_EXPONENTS[name]: 1.0}, h, regime,
                                           hbar).items():
            assert abs(c.imag) <= 1e-13 * max(1.0, abs(c)), (name, e, c)
            gen[i, basis_index[e]] = c.real
    return gen
