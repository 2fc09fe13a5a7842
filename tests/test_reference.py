"""The dense oracle against its literal loops.

Each vectorized product in ``reference.py`` must give the bits of the
double loop over exponent pairs in ``helpers.py``: the same terms, added
into each output cell in the same order.  Inputs are sparse boxes of
every shape up to three pairs, some holding an infinity, a NaN, a huge or
tiny value or signed zeros, so that a term the loops skip cannot hide in
the vectorized sum.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamalg.reference import (
    dense_hybrid_mul,
    dense_hybrid_partial,
    dense_poly_mul,
    dense_poly_poisson,
    dense_product_rule_poisson,
    dense_to_poly_terms,
    hybrid_json_to_dense,
)
from tests.helpers import (
    loop_dense_hybrid_mul,
    loop_dense_hybrid_partial,
    loop_dense_poly_mul,
    loop_dense_poly_poisson,
    loop_dense_product_rule_poisson,
    loop_dense_to_poly_terms,
    loop_hybrid_json_to_dense,
)

SPECIALS = (None, np.inf, -np.inf, np.nan, 1e300, 1e-300)

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def assert_same_bits(got, want):
    """Equal shapes and dtypes and equal bits in every entry, except that a
    NaN need only meet a NaN: IEEE 754 leaves the sign and payload of an
    operation's NaN result to the implementation, and numpy's contiguous
    and strided loops pick differently."""
    assert got.shape == want.shape and got.dtype == want.dtype
    g, w = got.view(np.float64), want.view(np.float64)
    nan = np.isnan(w)
    assert np.array_equal(np.isnan(g), nan)
    assert np.where(nan, 0.0, g).tobytes() == np.where(nan, 0.0, w).tobytes()


@st.composite
def operand(draw, shape, dim):
    """A dense array on the exponent box ``shape`` (with (dim, dim) matrix
    cells unless ``dim`` is None): a random subset of nonzero cells, the
    zero ones of either sign, and at times one special entry."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    full = shape + (() if dim is None else (dim, dim))
    x = rng.standard_normal(full)
    if dim is not None:
        x = x + 1j * rng.standard_normal(full)
    zero = rng.uniform(size=shape) >= draw(st.sampled_from((0.0, 0.3, 0.7, 1.0)))
    x[zero] = draw(st.sampled_from((0.0, -0.0)))
    special = draw(st.sampled_from(SPECIALS))
    if special is not None:
        at = tuple(int(rng.integers(n)) for n in full)
        if dim is None:
            x[at] = special
        else:
            x[at] = complex(special, 0.0) if rng.uniform() < 0.5 else complex(0.0, special)
    return x


@st.composite
def operands(draw, matrix):
    """(num_pairs, a, b) on independent boxes of 1-3 pairs; the extents run
    to 3 up to two pairs, to 2 at three pairs."""
    num_pairs = draw(st.integers(1, 3))
    extent = st.integers(1, 3 if num_pairs < 3 else 2)
    box = st.lists(extent, min_size=2 * num_pairs, max_size=2 * num_pairs).map(tuple)
    dim = draw(st.integers(1, 3)) if matrix else None
    return num_pairs, draw(operand(draw(box), dim)), draw(operand(draw(box), dim))


@settings(max_examples=60, deadline=None)
@given(operands(matrix=True))
def test_hybrid_mul_equals_loop(case):
    _, a, b = case
    assert_same_bits(dense_hybrid_mul(a, b), loop_dense_hybrid_mul(a, b))


@settings(max_examples=60, deadline=None)
@given(operands(matrix=True))
def test_product_rule_poisson_equals_loop(case):
    num_pairs, a, b = case
    assert_same_bits(dense_product_rule_poisson(a, b, num_pairs),
                     loop_dense_product_rule_poisson(a, b, num_pairs))


@settings(max_examples=60, deadline=None)
@given(operands(matrix=True))
def test_hybrid_partial_equals_loop(case):
    num_pairs, a, _ = case
    for var in range(2 * num_pairs):
        assert_same_bits(dense_hybrid_partial(a, var), loop_dense_hybrid_partial(a, var))


@settings(max_examples=60, deadline=None)
@given(operands(matrix=False))
def test_poly_mul_equals_loop(case):
    _, a, b = case
    assert_same_bits(dense_poly_mul(a, b), loop_dense_poly_mul(a, b))


@settings(max_examples=60, deadline=None)
@given(operands(matrix=False))
def test_poly_poisson_equals_loop(case):
    num_pairs, a, b = case
    assert_same_bits(dense_poly_poisson(a, b, num_pairs),
                     loop_dense_poly_poisson(a, b, num_pairs))


@settings(max_examples=60, deadline=None)
@given(operands(matrix=False))
def test_dense_to_poly_terms_equals_loop(case):
    _, a, _ = case
    got, want = dense_to_poly_terms(a), loop_dense_to_poly_terms(a)
    assert list(got) == list(want)
    assert all(type(c) is float for c in got.values())
    assert_same_bits(np.array(list(got.values())), np.array(list(want.values())))


@settings(max_examples=60, deadline=None)
@given(operands(matrix=True))
def test_hybrid_json_to_dense_equals_loop(case):
    num_pairs, a, _ = case
    dim = a.shape[-1]
    data = {"dim": dim, "num_pairs": num_pairs, "parts": [
        {"exponents": list(e), "matrix": [[z.real, z.imag] for z in a[e].ravel().tolist()]}
        for e in np.ndindex(a.shape[:-2])]}
    assert_same_bits(hybrid_json_to_dense(data), loop_hybrid_json_to_dense(data))


@pytest.mark.parametrize("matrix", [False, True])
def test_poisson_terms_of_one_cell_arrive_pair_k_descending(matrix):
    # cell (1,0,1,0) gets 1e16 from a's x1 (pair 0), then 1 (pair 0) and
    # -1e16 (pair 1) from a's x1 x2: the loop meets b's (0,0,1,1) before
    # (1,1,0,0), so the sum is (1e16 - 1e16) + 1 = 1, where pair 0 first
    # would give (1e16 + 1) - 1e16 = 0
    a = np.zeros((2, 1, 2, 1))
    a[1, 0, 0, 0] = a[1, 0, 1, 0] = 1.0
    b = np.zeros((2, 2, 2, 2))
    b[1, 1, 1, 0], b[1, 1, 0, 0], b[0, 0, 1, 1] = 1e16, 1.0, -1e16
    if matrix:
        a, b = (x.astype(np.complex128)[..., None, None] for x in (a, b))
        got, want = (dense_product_rule_poisson(a, b, 2),
                     loop_dense_product_rule_poisson(a, b, 2))
    else:
        got, want = dense_poly_poisson(a, b, 2), loop_dense_poly_poisson(a, b, 2)
    assert want[1, 0, 1, 0] == 1.0
    assert_same_bits(got, want)
