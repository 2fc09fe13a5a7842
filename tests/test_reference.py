"""The dense oracle against values worked out from the definitions.

``test_kernels.py`` and ``test_brackets.py`` hold the oracle against the
main path: to the bit on exact inputs, within rounding on generic ones.
Here each of its routes meets a few products and brackets worked out by
hand, on small-integer inputs where no summation order can move a bit,
so that a mistake the oracle shared with the main path would still
show: the sign of a Poisson weight, the pair a term moves on, the order
of a matrix product, the half of an anticommutator, a zero cell that
meets an infinity, and the real and imaginary parts of a witness.
"""

import numpy as np
import pytest

from hamalg.reference import (
    dense_hybrid_mul,
    dense_ordered_poisson,
    dense_poly_mul,
    dense_poly_poisson,
    dense_product_rule_poisson,
    dense_to_poly_terms,
    hybrid_json_to_dense,
    poly_terms_to_dense,
)
from tests.helpers import PAULI_X, PAULI_Y, PAULI_Z

I2 = np.eye(2)


@pytest.mark.parametrize("a, b, want", [
    # {x1, p1} = 1 and {p1, x1} = -1, on each pair of two (x1, p1, x2, p2)
    ({(1, 0, 0, 0): 1.0}, {(0, 1, 0, 0): 1.0}, {(0, 0, 0, 0): 1.0}),
    ({(0, 1, 0, 0): 1.0}, {(1, 0, 0, 0): 1.0}, {(0, 0, 0, 0): -1.0}),
    ({(0, 0, 1, 0): 1.0}, {(0, 0, 0, 1): 1.0}, {(0, 0, 0, 0): 1.0}),
    # {x1^2 x2, 3 p1 p2} = 2 x1 x2 * 3 p2 + x1^2 * 3 p1
    ({(2, 0, 1, 0): 1.0}, {(0, 1, 0, 1): 3.0}, {(1, 0, 1, 1): 6.0, (2, 1, 0, 0): 3.0}),
    # {x1 p2, x2 p1} = p2 * x2 - x1 * p1
    ({(1, 0, 0, 1): 1.0}, {(0, 1, 1, 0): 1.0}, {(0, 0, 1, 1): 1.0, (1, 1, 0, 0): -1.0}),
])
def test_poly_poisson_on_monomials(a, b, want):
    got = dense_poly_poisson(poly_terms_to_dense(a, 4), poly_terms_to_dense(b, 4), 2)
    assert dense_to_poly_terms(got) == want


def test_poly_mul_on_a_binomial():
    # (2 x + p)(x - p) = 2 x^2 - x p - p^2
    got = dense_poly_mul(poly_terms_to_dense({(1, 0): 2.0, (0, 1): 1.0}, 2),
                         poly_terms_to_dense({(1, 0): 1.0, (0, 1): -1.0}, 2))
    assert dense_to_poly_terms(got) == {(2, 0): 2.0, (1, 1): -1.0, (0, 2): -1.0}


def test_a_zero_cell_never_meets_an_infinity():
    # (inf x)(1 + x^2) and {inf x, p + x^2}: the x^0 cell of the left
    # operand and the x^1 and x p cells of the right ones are zero, so no
    # cell holds inf * 0
    a = poly_terms_to_dense({(1, 0): np.inf}, 2)
    b = poly_terms_to_dense({(0, 0): 1.0, (2, 0): 1.0}, 2)
    assert dense_poly_mul(a, b)[:, 0].tolist() == [0.0, np.inf, 0.0, np.inf]
    assert dense_poly_poisson(a, poly_terms_to_dense({(0, 1): 1.0, (2, 0): 1.0}, 2),
                              1).tolist() == [[np.inf, 0.0]] + [[0.0, 0.0]] * 3


def hybrid(terms):
    """A one-pair dense hybrid array from {(i, j): matrix of x^i p^j}."""
    out = np.zeros((3, 3, 2, 2), dtype=np.complex128)
    for e, m in terms.items():
        out[e] = m
    return out


def test_hybrid_products_keep_the_written_order():
    # XY = iZ = -YX
    u, v = hybrid({(1, 0): PAULI_X}), hybrid({(0, 1): PAULI_Y})
    assert np.array_equal(dense_hybrid_mul(u, v)[1, 1], 1j * PAULI_Z)
    assert np.array_equal(dense_hybrid_mul(v, u)[1, 1], -1j * PAULI_Z)
    # {x, p} XY = iZ and {p, x} YX = (-1)(-iZ) = iZ
    assert np.array_equal(dense_ordered_poisson(u, v, 1)[0, 0], 1j * PAULI_Z)
    assert np.array_equal(dense_ordered_poisson(v, u, 1)[0, 0], 1j * PAULI_Z)
    # the anticommutator's half: {x, p} (XX + XX) / 2 = I
    w = hybrid({(0, 1): PAULI_X})
    assert np.array_equal(dense_product_rule_poisson(u, w, 1)[0, 0], I2)
    assert np.array_equal(dense_product_rule_poisson(u, v, 1)[0, 0], 0 * I2)


def test_hybrid_json_to_dense_reads_re_im_pairs_row_by_row():
    data = {"dim": 2, "num_pairs": 1, "parts": [
        {"exponents": [0, 2], "matrix": [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, -3.0]]}]}
    got = hybrid_json_to_dense(data)
    assert got.shape == (1, 3, 2, 2)
    assert got[0, 2].tolist() == [[1.0, 1j], [2.0, -3j]]
    assert not got[0, :2].any()
