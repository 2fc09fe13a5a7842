"""The polynomial kernel: equivalence and algebraic properties.

The kernel must agree with the brute-force dense expansion, to the bit
on exact inputs (small integers, infinities and NaNs) and within rounding
on generic ones, and to the bit (coefficients and term order) with the
literal dict loop below, which is the semantics it vectorizes, on each
of its two slotting routes: a dense box of packed keys, and sorted
exponent rows, whether their box is sparse or past int64.

Slotting plans: a product or sum built on a plan kept from an earlier
call equals one that builds its plan afresh, to the bit (any NaN
matching any NaN), and a plan is reused exactly where the structure it
stands for repeats: the same exponent rows and the same contributions,
whatever the coefficients and the trials of a block.  Plans live for one
``cli.main`` call and no longer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamalg import kernels
from hamalg.brackets import mixed_bracket
from hamalg.cli import main
from hamalg.compose import random_hybrid_observable
from hamalg.elements import monomials_up_to_degree
from hamalg.errors import ShapeError
from hamalg.reference import (
    dense_poly_mul,
    dense_poly_poisson,
    dense_to_poly_terms,
    poly_terms_to_dense,
)
from tests.helpers import FORCED_ROUTES, assert_nan_alike


def loop_mul(a, b, nvars):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            ec = tuple(ea[i] + eb[i] for i in range(nvars))
            out[ec] = out.get(ec, 0.0) + ca * cb
    return {e: c for e, c in out.items() if c != 0.0}


def loop_poisson(a, b, num_pairs):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            for k in range(num_pairs):
                ix, ip = 2 * k, 2 * k + 1
                w = ea[ix] * eb[ip] - ea[ip] * eb[ix]
                if w == 0:
                    continue
                ec = tuple(ea[i] + eb[i] - (1 if i in (ix, ip) else 0)
                           for i in range(2 * num_pairs))
                out[ec] = out.get(ec, 0.0) + ca * cb * w
    return {e: c for e, c in out.items() if c != 0.0}


def random_terms(rng, num_pairs, degree, density=1.0):
    out = {}
    for e in monomials_up_to_degree(2 * num_pairs, degree):
        if rng.uniform() <= density:
            out[e] = rng.uniform(-1, 1)
    return out


def terms_close(a, b, tol=1e-12):
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in keys)


def random_sparse_terms(rng, num_pairs, num_terms, max_exp):
    """Up to ``num_terms`` terms with exponents uniform in [0, max_exp]:
    a few keys scattered over a large box."""
    exps = rng.integers(0, max_exp + 1, size=(num_terms, 2 * num_pairs))
    return {tuple(e): rng.uniform(-1, 1) for e in exps.tolist()}


def assert_same_terms(got, want):
    """Same keys in the same order, and every coefficient a Python float
    equal to the bit (a NaN's too)."""
    assert list(got) == list(want)
    assert all(type(c) is float for c in got.values())
    assert (np.array(list(got.values())).tobytes()
            == np.array(list(want.values()), dtype=np.float64).tobytes())


def kernel_routes(a, b, num_pairs):
    """The slotting route of ``mul`` and of ``poisson`` on a and b."""
    radix = kernels.product_box(kernels.dict_rows(a, 2 * num_pairs)[0],
                                kernels.dict_rows(b, 2 * num_pairs)[0])
    pairs = len(a) * len(b)
    return kernels.route(radix, pairs), kernels.route(radix, pairs * num_pairs)


def assert_bitwise(a, b, num_pairs, route=None):
    """Both operations equal their loops to the bit; with ``route``, both
    take that route."""
    if route is not None:
        assert kernel_routes(a, b, num_pairs) == (route, route)
    nvars = 2 * num_pairs
    assert_same_terms(kernels.mul(a, b, nvars), loop_mul(a, b, nvars))
    assert_same_terms(kernels.poisson(a, b, num_pairs), loop_poisson(a, b, num_pairs))


@pytest.mark.parametrize("num_pairs,degree", [(1, 3), (2, 3), (2, 6), (3, 4)])
def test_mul_matches_dense_reference(num_pairs, degree):
    rng = np.random.default_rng(7)
    a = random_terms(rng, num_pairs, degree, density=0.7)
    b = random_terms(rng, num_pairs, degree, density=0.7)
    got = kernels.mul(a, b, 2 * num_pairs)
    expected = dense_to_poly_terms(
        dense_poly_mul(poly_terms_to_dense(a, 2 * num_pairs),
                       poly_terms_to_dense(b, 2 * num_pairs))
    )
    assert terms_close(got, expected)


@pytest.mark.parametrize("num_pairs,degree", [(1, 3), (2, 3), (2, 5)])
def test_poisson_matches_dense_reference(num_pairs, degree):
    rng = np.random.default_rng(11)
    a = random_terms(rng, num_pairs, degree, density=0.7)
    b = random_terms(rng, num_pairs, degree, density=0.7)
    got = kernels.poisson(a, b, num_pairs)
    expected = dense_to_poly_terms(
        dense_poly_poisson(poly_terms_to_dense(a, 2 * num_pairs),
                           poly_terms_to_dense(b, 2 * num_pairs), num_pairs)
    )
    assert terms_close(got, expected)


@st.composite
def exact_operands(draw):
    """(num_pairs, a, b): up to eight terms of degree <= 3 on 1-3 pairs,
    each coefficient a small nonzero integer, and at times one of them
    infinite or NaN.  Every sum of their products is exact, and the
    spread of an infinity or a NaN through a sum does not depend on its
    order."""
    num_pairs = draw(st.integers(1, 3))
    monos = monomials_up_to_degree(2 * num_pairs, 3)

    def operand():
        terms = draw(st.dictionaries(st.sampled_from(monos),
                                     st.integers(-3, 3).filter(bool).map(float),
                                     min_size=1, max_size=8))
        special = draw(st.sampled_from((None, None, np.inf, -np.inf, np.nan)))
        if special is not None:
            terms[draw(st.sampled_from(sorted(terms)))] = special
        return terms

    return num_pairs, operand(), operand()


def assert_equal_values(got, want):
    """Equal terms, in any order: every coefficient equal, a NaN to a NaN."""
    assert set(got) == set(want)
    for e, c in want.items():
        assert got[e] == c or (np.isnan(got[e]) and np.isnan(c)), (e, got[e], c)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=80, deadline=None, derandomize=True)
@given(exact_operands())
def test_mul_and_poisson_equal_dense_reference_on_exact_inputs(case):
    num_pairs, a, b = case
    da, db = (poly_terms_to_dense(x, 2 * num_pairs) for x in (a, b))
    assert_equal_values(kernels.mul(a, b, 2 * num_pairs),
                        dense_to_poly_terms(dense_poly_mul(da, db)))
    assert_equal_values(kernels.poisson(a, b, num_pairs),
                        dense_to_poly_terms(dense_poly_poisson(da, db, num_pairs)))


@pytest.mark.parametrize("num_pairs,d1,d2,route", [
    (1, 3, 3, "dense"), (2, 3, 3, "dense"), (2, 6, 6, "dense"),
    (3, 4, 4, "sorted"),  # 9**6 slots for 210 x 210 term pairs
])
def test_matches_loop_bitwise(num_pairs, d1, d2, route):
    # every monomial up to the degree; the two largest cases span several
    # blocks of term pairs
    rng = np.random.default_rng(0)
    a = random_terms(rng, num_pairs, d1)
    b = random_terms(rng, num_pairs, d2)
    assert_bitwise(a, b, num_pairs, route)


@pytest.mark.parametrize("num_pairs,num_terms,max_exp", [(1, 12, 40), (2, 40, 9), (2, 120, 14)])
def test_sparse_keys_match_loop_bitwise(num_pairs, num_terms, max_exp):
    # few terms in a large box: sorted exponent rows; the last case spans
    # several blocks of term pairs
    rng = np.random.default_rng([num_pairs, num_terms])
    a = random_sparse_terms(rng, num_pairs, num_terms, max_exp)
    b = random_sparse_terms(rng, num_pairs, num_terms, max_exp)
    assert_bitwise(a, b, num_pairs, "sorted")


def grid(value):
    """Every monomial x^i p^j with i, j < 4, listed from the high corner down."""
    return {(i, j): value * (1 + i + 3 * j) / 7 for i in range(3, -1, -1) for j in range(4)}


@pytest.mark.parametrize("corner,route", [
    # 17 x 16 term pairs allow 4 * 272 = 1088 box slots
    ((28, 30), "dense"),    # box 32 x 34 = 1088
    ((29, 29), "sorted"),   # box 33 x 33 = 1089
])
def test_dense_slot_limit(corner, route):
    a = {**grid(0.75), corner: -0.75}
    b = grid(-1.25)
    assert kernels.DENSE_SLOTS_PER_PAIR * len(a) * len(b) == 1088
    assert_bitwise(a, b, 1, route)


@pytest.mark.parametrize("radix,pairs,route", [
    ([64, 17], 272, "dense"),            # 1088 slots, 4 a pair
    ([1089, 1], 272, "sorted"),          # one slot more
    ([1024, 1024], 2 ** 18, "dense"),    # DENSE_BOX_SLOTS slots
    ([1025, 1024], 2 ** 20, "sorted"),   # past it, though 4 a pair allow more
    ([2 ** 32, 2 ** 32], 2 ** 62, "sorted"),  # a box past int64
    ([-2 ** 63, 2], 1, "sorted"),        # a radix wrapped past int64
])
def test_route_rule(radix, pairs, route):
    # the box and the contributions alone pick the route: a plan is shared
    # by every coefficient shape, and the box holds no coefficient
    assert kernels.route(np.array(radix), pairs) == route


coeffs = st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False)


def poly_strategy(num_pairs, degree, max_size=6):
    monos = monomials_up_to_degree(2 * num_pairs, degree)
    return st.dictionaries(st.sampled_from(monos), coeffs, min_size=1, max_size=max_size)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=poly_strategy(2, 3, 12), b=poly_strategy(2, 3, 12))
def test_matches_loop_bitwise_on_random_terms(a, b):
    assert_bitwise(a, b, 2)


#: every exponent tuple of 2 pairs with each exponent at most 2
GRID_2PAIRS = list(np.ndindex(3, 3, 3, 3))

special = st.sampled_from([0.0, -0.0, 1e-300, -1e300, np.inf, -np.inf, np.nan])


@st.composite
def grid_polys(draw):
    """A coefficient on every exponent of GRID_2PAIRS, in shuffled order:
    finite, except up to four that are zero of either sign, tiny, huge,
    infinite or NaN."""
    values = draw(st.lists(coeffs, min_size=81, max_size=81))
    for i, v in draw(st.lists(st.tuples(st.integers(0, 80), special), max_size=4)):
        values[i] = v
    return {GRID_2PAIRS[i]: values[i] for i in draw(st.permutations(range(81)))}


#: term pairs formed at once in the many-block tests: where the right
#: operand has more terms than this, each left term is a block of its own
FEW_PAIRS = 7


def route_inputs(a, b):
    """(a, b, num_pairs, route) for each route: the grids fill a small box;
    one far term leaves that box sparse; shifted and doubled to 8
    variables, their box passes int64, and the rows are sorted too."""
    far = {(200, 0, 200, 0): 0.5, **a}

    def shifted(t):
        return {tuple(v + 400 for v in e * 2): c for e, c in t.items()}
    return [(a, b, 2, "dense"), (far, b, 2, "sorted"), (shifted(a), shifted(b), 4, "sorted")]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(a=grid_polys(), b=grid_polys())
def test_routes_match_loop_on_special_values(a, b):
    # at the default block size, and one block per term of a: a's terms are
    # shuffled, so later blocks bring keys that sort before and between
    # the slots of earlier ones
    for block_pairs in (kernels.BLOCK_PAIRS, FEW_PAIRS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "BLOCK_PAIRS", block_pairs)
            for x, y, num_pairs, route in route_inputs(a, b):
                assert_bitwise(x, y, num_pairs, route)


def loop_pair_sum(ea, eb, A, B, poisson):
    """The loop of the kernel's docstring on term arrays, as ``mul_terms``
    (``poisson`` False) or ``poisson_terms`` form their contributions: an
    exponent's first contribution copied, later ones added in loop order,
    exponents zero in every entry dropped.  A scalar coefficient is added
    as a 1-entry array, as the kernel adds it: on two NaNs, NumPy's scalar
    arithmetic keeps the sign of the other one."""
    out = {}
    with np.errstate(all="ignore"):
        for ra, ca in zip(ea.tolist(), A.reshape(len(A), -1)):
            for rb, cb in zip(eb.tolist(), B.reshape(len(B), -1)):
                e = [x + y for x, y in zip(ra, rb)]
                contributions = [] if poisson else [(e, ca * cb)]
                for k in range(len(ra) // 2 if poisson else 0):
                    w = ra[2 * k] * rb[2 * k + 1] - ra[2 * k + 1] * rb[2 * k]
                    if w:
                        ek = list(e)
                        ek[2 * k] -= 1
                        ek[2 * k + 1] -= 1
                        contributions.append((ek, np.float64(w) * (ca * cb)))
                for ec, val in contributions:
                    ec = tuple(ec)
                    out[ec] = out[ec] + val if ec in out else val
    return {e: c.reshape(A.shape[1:]) for e, c in out.items() if np.any(c != 0)}


def array_route_inputs(ea, eb, A, B):
    """``route_inputs`` on term arrays: (ea, eb, A, B, route) for each route."""
    far = np.concatenate([np.full((1,) + A.shape[1:], 0.5), A])
    return [(ea, eb, A, B, "dense"),
            (np.vstack([[200, 0, 200, 0], ea]), eb, far, B, "sorted"),
            (np.tile(ea, 2) + 400, np.tile(eb, 2) + 400, A, B, "sorted")]


def special_coefficients(rng, n):
    """Coefficients of a and b, (n, 3): a's trial 0 is -0.0 throughout and
    b's positive, so every contribution there is -0.0 and each slot starts
    with a signed zero; trial 1 holds -0.0, inf, -inf and NaN among finite
    values, and trial 2 finite values alone."""
    A, B = rng.uniform(-1, 1, (2, n, 3))
    A[:, 0], B[:, 0] = -0.0, rng.uniform(0.5, 1, n)
    A[rng.choice(n, 3, replace=False), 1] = (-0.0, np.inf, -np.inf)
    B[rng.choice(n, 2, replace=False), 1] = (-np.inf, np.nan)
    return A, B


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("trials", [None, 3])
def test_every_route_matches_loop_over_many_blocks(trials, monkeypatch):
    # scalar coefficients (trial 1 of the block), or a block of 3 trials
    monkeypatch.setattr(kernels, "BLOCK_PAIRS", FEW_PAIRS)
    rng = np.random.default_rng(12)
    ea, eb = (np.array(GRID_2PAIRS)[rng.permutation(len(GRID_2PAIRS))] for _ in range(2))
    A, B = special_coefficients(rng, len(GRID_2PAIRS))
    if trials is None:
        A, B = A[:, 1], B[:, 1]
    for x, y, X, Y, route in array_route_inputs(ea, eb, A, B):
        for op, poisson in ((kernels.mul_terms, False), (kernels.poisson_terms, True)):
            pairs = len(x) * len(y) * (x.shape[1] // 2 if poisson else 1)
            assert kernels.route(kernels.product_box(x, y), pairs) == route
            assert len(y) > FEW_PAIRS and len(x) > 10  # one block per term of x
            exps, coeffs = op(x, y, X, Y)
            want = loop_pair_sum(x, y, X, Y, poisson)
            assert list(map(tuple, exps.tolist())) == list(want)
            assert coeffs.tobytes() == np.array(list(want.values())).tobytes()


def test_each_block_is_sorted_alone(monkeypatch):
    """The sorted route of the plan builder, on a sparse box and on one
    past int64, sorts no more keys than the block being slotted holds,
    however many slots the earlier blocks found: slotting is linear in
    the term pairs, not quadratic in the blocks."""
    monkeypatch.setattr(kernels, "BLOCK_PAIRS", FEW_PAIRS)
    blocks, sorts = [], []  # keys of each block; (block, keys) of each sort
    slot_plan = kernels.slot_plan

    def spied_slot_plan(keyed, *args):
        def counted(strides):
            for keys, live in keyed(strides):
                blocks.append(len(keys))
                yield keys, live
        return slot_plan(counted, *args)

    def spy(sort, size):
        def spied(a, *args, **kwargs):
            sorts.append((len(blocks) - 1, size(a)))
            return sort(a, *args, **kwargs)
        return spied

    monkeypatch.setattr(kernels, "slot_plan", spied_slot_plan)
    for name in ("argsort", "sort", "unique"):
        monkeypatch.setattr(np, name, spy(getattr(np, name), len))
    monkeypatch.setattr(np, "lexsort", spy(np.lexsort, lambda keys: np.shape(keys)[-1]))
    rng = np.random.default_rng(13)
    a, b = ({GRID_2PAIRS[i]: rng.uniform(-1, 1) for i in rng.permutation(len(GRID_2PAIRS))}
            for _ in range(2))
    for x, y, num_pairs, route in route_inputs(a, b)[1:]:
        assert kernel_routes(x, y, num_pairs) == (route, route)
        for op in (lambda: kernels.mul(x, y, 2 * num_pairs),
                   lambda: kernels.poisson(x, y, num_pairs)):
            blocks.clear()
            sorts.clear()
            slots = len(op())
            assert len(blocks) > 10 and slots > 2 * max(blocks)
            assert sorts and all(0 <= i and n <= blocks[i] for i, n in sorts)


def loop_sum(a, b):
    """Merging b's terms into a's dict, the sum ``term_sum`` vectorizes."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0.0) + c
    return {e: c for e, c in out.items() if c != 0.0}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(a=grid_polys(), b=grid_polys())
def test_term_sum_matches_dict_merge_on_every_route(a, b):
    for x, y, num_pairs, route in route_inputs(a, b):
        (ex, cx), (ey, cy) = (kernels.dict_rows(t, 2 * num_pairs) for t in (x, y))
        radix = np.concatenate([ex, ey]).max(axis=0) + 1
        assert kernels.route(radix, len(x) + len(y)) == route
        exps, coeffs = kernels.term_sum(ex, ey, cx, cy)
        assert_same_terms(dict(zip(map(tuple, exps.tolist()), coeffs.tolist())), loop_sum(x, y))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(a=grid_polys(), b=grid_polys())
def test_dense_and_sorted_routes_agree(a, b):
    # the same blocks through both packed routes: the same dict, to the bit
    x, y = route_inputs(a, b)[1][:2]  # a sparse box, so dense is forced past its limit
    got = {}
    for route, (per_pair, box_slots) in FORCED_ROUTES.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "DENSE_SLOTS_PER_PAIR", per_pair)
            mp.setattr(kernels, "DENSE_BOX_SLOTS", box_slots)
            assert kernel_routes(x, y, 2) == (route, route)
            got[route] = (kernels.mul(x, y, 4), kernels.poisson(x, y, 2))
    for dense, sorted_ in zip(got["dense"], got["sorted"]):
        assert_same_terms(dense, sorted_)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=poly_strategy(1, 2), b=poly_strategy(1, 2), c=poly_strategy(1, 2))
def test_mul_is_commutative_and_distributive(a, b, c):
    ab = kernels.mul(a, b, 2)
    ba = kernels.mul(b, a, 2)
    assert terms_close(ab, ba, tol=1e-10)
    # a*(b+c) == a*b + a*c
    bc = dict(b)
    for e, v in c.items():
        bc[e] = bc.get(e, 0.0) + v
    lhs = kernels.mul(a, bc, 2)
    rhs = kernels.mul(a, b, 2)
    for e, v in kernels.mul(a, c, 2).items():
        rhs[e] = rhs.get(e, 0.0) + v
    assert terms_close(lhs, rhs, tol=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=poly_strategy(1, 2), b=poly_strategy(1, 2), c=poly_strategy(1, 2))
def test_mul_is_associative(a, b, c):
    lhs = kernels.mul(kernels.mul(a, b, 2), c, 2)
    rhs = kernels.mul(a, kernels.mul(b, c, 2), 2)
    assert terms_close(lhs, rhs, tol=1e-9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=poly_strategy(2, 2), b=poly_strategy(2, 2))
def test_poisson_antisymmetric(a, b):
    ab = kernels.poisson(a, b, 2)
    ba = kernels.poisson(b, a, 2)
    neg = {e: -v for e, v in ba.items()}
    assert terms_close(ab, neg, tol=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=poly_strategy(1, 2), b=poly_strategy(1, 2), c=poly_strategy(1, 2))
def test_poisson_leibniz(a, b, c):
    # {a, b*c} == {a,b}*c + b*{a,c}
    lhs = kernels.poisson(a, kernels.mul(b, c, 2), 1)
    rhs = kernels.mul(kernels.poisson(a, b, 1), c, 2)
    for e, v in kernels.mul(b, kernels.poisson(a, c, 1), 2).items():
        rhs[e] = rhs.get(e, 0.0) + v
    assert terms_close(lhs, rhs, tol=1e-9)


def test_poisson_degree_bound():
    rng = np.random.default_rng(5)
    a = random_terms(rng, 2, 3)
    b = random_terms(rng, 2, 4)
    pb = kernels.poisson(a, b, 2)
    assert max(sum(e) for e in pb) <= 3 + 4 - 2


def test_zero_coefficients_pruned():
    a = {(1, 0): 1.0, (0, 1): 1.0}
    b = {(1, 0): 1.0, (0, 1): -1.0}
    prod = kernels.mul(a, b, 2)  # (x+p)(x-p) = x^2 - p^2, xp terms cancel
    assert (1, 1) not in prod
    assert prod == {(2, 0): 1.0, (0, 2): -1.0}


def test_canonical_pair_bracket():
    x = {(1, 0): 1.0}
    p = {(0, 1): 1.0}
    assert kernels.poisson(x, p, 1) == {(0, 0): 1.0}
    assert kernels.poisson(p, x, 1) == {(0, 0): -1.0}
    assert kernels.poisson(x, x, 1) == {}


def test_large_exponents_do_not_wrap():
    assert kernels.mul({(40000, 0): 1.0}, {(30000, 0): 1.0}, 2) == {(70000, 0): 1.0}


def test_exponent_sum_past_int64_is_rejected():
    # 2**62 + 2**62 wraps int64: the key radix must not go negative
    a = {(2 ** 62, 0): 1.0}
    with pytest.raises(ShapeError):
        kernels.mul(a, a, 2)
    with pytest.raises(ShapeError):
        kernels.poisson(a, a, 1)


#: two polynomials in 4 pairs whose key radix, 801 on 8 variables, gives
#: a box past int64: the kernel sorts their exponent rows
PAST_INT64 = ({(400,) * 8: 1.5, (400, 1, 0, 399, 2, 400, 7, 0): -0.25, (1,) * 8: 2.0},
              {(400,) * 8: 0.5, (0, 400, 399, 1, 400, 2, 0, 7): 3.0, (2, 1) * 4: -1.0})


def test_key_space_past_int64_matches_loop():
    assert_bitwise(*PAST_INT64, 4, "sorted")


def test_sum_of_the_largest_exponents_matches_dict_merge():
    # the radix of a sum's box, one more than int64 max, wraps below 1:
    # the rows are sorted, never packed
    top = np.iinfo(np.int64).max
    a, b = {(top, 0): 1.5, (0, 1): -0.25}, {(top, 1): 2.0, (0, 1): 0.25}
    (ea, ca), (eb, cb) = (kernels.dict_rows(t, 2) for t in (a, b))
    assert kernels.route(np.concatenate([ea, eb]).max(axis=0) + 1, 4) == "sorted"
    exps, coeffs = kernels.term_sum(ea, eb, ca, cb)
    assert_same_terms(dict(zip(map(tuple, exps.tolist()), coeffs.tolist())), loop_sum(a, b))


@pytest.fixture
def builds(monkeypatch):
    """The plans built from here on, one entry each."""
    built = []
    slot_plan = kernels.slot_plan

    def counted(*args):
        plan = slot_plan(*args)
        built.append(plan)
        return plan

    monkeypatch.setattr(kernels, "slot_plan", counted)
    return built


def assert_same_result(got, want):
    """The same exponent rows, and coefficients equal to the bit but for
    the sign and payload of a NaN."""
    assert got[0].tobytes() == want[0].tobytes() and got[0].shape == want[0].shape
    assert_nan_alike(got[1], want[1])


def assert_same_elements(got, want):
    assert_same_result((got.exps, got.coeffs), (want.exps, want.coeffs))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", range(3), ids=["dense", "sorted", "past-int64"])
def test_a_plan_hit_equals_a_miss_on_every_route(case, builds, monkeypatch):
    # many blocks of term pairs; the plan is built on finite scalar
    # coefficients and reused on a block of 3 trials holding -0.0, +-inf
    # and NaN
    monkeypatch.setattr(kernels, "BLOCK_PAIRS", FEW_PAIRS)
    rng = np.random.default_rng(14)
    ea, eb = (np.array(GRID_2PAIRS)[rng.permutation(len(GRID_2PAIRS))] for _ in range(2))
    A, B = special_coefficients(rng, len(GRID_2PAIRS))
    x, y, X, Y, route = array_route_inputs(ea, eb, A, B)[case]
    assert kernels.route(kernels.product_box(x, y), len(x) * len(y)) == route
    for op in (kernels.mul_terms, kernels.poisson_terms, kernels.term_sum):
        want = op(x, y, X, Y)  # outside a scope: the plan is built and dropped
        builds.clear()
        with kernels.plan_scope():
            op(x, y, X[:, 2], Y[:, 2])
            got = op(x, y, X, Y)
        assert len(builds) == 1
        assert_same_result(got, want)


def test_past_int64_keys_inside_a_scope(builds):
    with kernels.plan_scope():
        for _ in range(2):
            assert_bitwise(*PAST_INT64, 4, "sorted")
    assert len(builds) == 2  # one for mul, one for poisson


def test_blocks_of_any_trials_share_one_plan(builds):
    # every draw has a coefficient on every monomial, so the blocks' rows agree
    rng = np.random.default_rng(15)
    blocks = {t: random_hybrid_observable(rng, dim=2, num_pairs=1, degree=2, block=(t, 2))
              for t in (1, 3, 24)}
    assert len({u.exps.tobytes() for u, _ in blocks.values()}) == 1

    def products(u, v):
        return u.assoc_product(v), mixed_bracket("anderson", u, v, 1.0)

    want = {t: products(u, v) for t, (u, v) in blocks.items()}
    builds.clear()
    with kernels.plan_scope():
        got = {1: products(*blocks[1])}
        first = len(builds)
        got.update({t: products(*blocks[t]) for t in (3, 24)})
    assert first > 0 and len(builds) == first
    for t in blocks:
        for g, w in zip(got[t], want[t]):
            assert_same_elements(g, w)


@pytest.mark.parametrize("order", ["poisson_first", "product_rule_first"])
def test_a_sum_without_its_plain_part_gets_its_own_plan(order, builds):
    # the Poisson bracket of real coefficients has no plain slots, while
    # the product rule's plan on the same rows has them
    u, v = random_hybrid_observable(np.random.default_rng(16), dim=2, num_pairs=1, degree=2,
                                    block=(3, 2))
    U, V = (x.coeffs[:, 0, 0].real for x in (u, v))

    def product_rule():
        w = mixed_bracket("boucher_traschen", u, v, 1.0)
        return w.exps, w.coeffs

    ops = [lambda: kernels.poisson_terms(u.exps, v.exps, U, V), product_rule]
    if order == "product_rule_first":
        ops.reverse()
    want = [op() for op in ops]
    builds.clear()
    with kernels.plan_scope():
        got = [op() for op in ops]
        assert len(kernels._plans) == 2
    assert len(builds) == 2 and len(builds[0].slots) != len(builds[1].slots)
    for g, w in zip(got, want):
        assert_same_result(g, w)


def test_an_operand_with_a_cancelled_row_gets_its_own_plan(builds):
    rng = np.random.default_rng(17)
    ea, eb = (np.array(GRID_2PAIRS)[rng.permutation(len(GRID_2PAIRS))] for _ in range(2))
    A, B = rng.uniform(-1, 1, (2, len(GRID_2PAIRS), 2))
    with kernels.plan_scope():
        whole = kernels.mul_terms(ea, eb, A, B)
        # a - (a's row 3): that row's sum is zero in every entry, so dropped
        ec, C = kernels.term_sum(ea, ea[3:4], A, -A[3:4])
        assert len(ec) == len(ea) - 1
        cancelled = kernels.mul_terms(ec, eb, C, B)
        assert len(kernels._plans) == 3
    assert len(builds) == 3
    assert_same_result(whole, kernels.mul_terms(ea, eb, A, B))
    assert_same_result(cancelled, kernels.mul_terms(ec, eb, C, B))


class TestPlanLifetime:
    """``cli.main`` holds a scope for its whole call, and none outlives it."""

    def test_a_report_builds_its_plans_in_a_scope_it_drops(self, builds, tmp_path,
                                                            monkeypatch):
        scoped = []
        planned = kernels._planned

        def spied(key, build):
            scoped.append(kernels._plans is not None)
            return planned(key, build)

        monkeypatch.setattr(kernels, "_planned", spied)
        assert main(["verify", "--hybrid", "--trials", "2",
                     "--out", str(tmp_path / "r.json")]) == 0
        assert scoped and all(scoped) and builds
        assert len(builds) < len(scoped)  # some products reused a plan
        assert kernels._plans is None

    def test_a_usage_error_drops_the_scope(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--bogus"])
        assert exc.value.code == 2
        assert kernels._plans is None
        assert main(["verify", "--composed", "--hybrid"]) == 2
        assert kernels._plans is None

    def test_a_failing_command_drops_the_scope(self, monkeypatch, tmp_path):
        def broken(key, build):
            assert kernels._plans is not None
            raise RuntimeError("broken")

        monkeypatch.setattr(kernels, "_planned", broken)
        with pytest.raises(RuntimeError, match="broken"):
            main(["verify", "--hybrid", "--trials", "1", "--out", str(tmp_path / "r.json")])
        assert kernels._plans is None

    def test_a_scope_inside_another_shares_its_plans(self):
        with kernels.plan_scope():
            outer = kernels._plans
            with kernels.plan_scope():
                assert kernels._plans is outer
            assert kernels._plans is outer
        assert kernels._plans is None
