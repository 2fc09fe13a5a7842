"""The polynomial kernel: equivalence and algebraic properties.

The kernel must agree with the brute-force dense expansion, and to the
bit (coefficients and term order) with the literal dict loop below,
which is the semantics it vectorizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamalg import kernels
from hamalg.elements import monomials_up_to_degree
from hamalg.errors import ShapeError
from hamalg.reference import (
    dense_poly_mul,
    dense_poly_poisson,
    dense_to_poly_terms,
    poly_terms_to_dense,
)


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


def assert_bitwise(a, b, num_pairs):
    nvars = 2 * num_pairs
    assert list(kernels.mul(a, b, nvars).items()) == list(loop_mul(a, b, nvars).items())
    assert (list(kernels.poisson(a, b, num_pairs).items())
            == list(loop_poisson(a, b, num_pairs).items()))


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


@pytest.mark.parametrize("num_pairs,d1,d2", [(1, 3, 3), (2, 3, 3), (2, 6, 6), (3, 4, 4)])
def test_matches_loop_bitwise(num_pairs, d1, d2):
    # the two largest cases span several blocks of term pairs
    rng = np.random.default_rng(0)
    a = random_terms(rng, num_pairs, d1)
    b = random_terms(rng, num_pairs, d2)
    assert_bitwise(a, b, num_pairs)


coeffs = st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False)


def poly_strategy(num_pairs, degree, max_size=6):
    monos = monomials_up_to_degree(2 * num_pairs, degree)
    return st.dictionaries(st.sampled_from(monos), coeffs, min_size=1, max_size=max_size)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=poly_strategy(2, 3, 12), b=poly_strategy(2, 3, 12))
def test_matches_loop_bitwise_on_random_terms(a, b):
    assert_bitwise(a, b, 2)


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


def test_key_space_past_int64_matches_loop():
    # radix 801 on 8 variables overflows packed int64 keys, so the kernel
    # keys exponent rows
    a = {(400,) * 8: 1.5, (400, 1, 0, 399, 2, 400, 7, 0): -0.25, (1,) * 8: 2.0}
    b = {(400,) * 8: 0.5, (0, 400, 399, 1, 400, 2, 0, 7): 3.0, (2, 1) * 4: -1.0}
    assert kernels.pack(a, b, 8)[-1] is None
    assert_bitwise(a, b, 4)
