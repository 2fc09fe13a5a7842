import numpy as np
import pytest

from hamalg import OperatorAlgebra, OperatorElement, PhaseSpaceAlgebra

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.fixture
def paulis():
    return (OperatorElement(PAULI_X), OperatorElement(PAULI_Y), OperatorElement(PAULI_Z))


@pytest.fixture
def qha2():
    """Quantum algebra with hbar = 2 (a = 1) on 2x2 matrices."""
    return OperatorAlgebra(2, hbar=2.0)


@pytest.fixture
def cha1():
    return PhaseSpaceAlgebra(1, max_random_degree=3)


@pytest.fixture
def cha2():
    return PhaseSpaceAlgebra(2, max_random_degree=3)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


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


def loop_term_pairs(u, v, combine):
    """The literal term-pair loop the batched engine replaces: each
    exponent's matrix summed in loop order, zero matrices dropped."""
    out = {}
    for ea, ma in u.terms.items():
        for eb, mb in v.terms.items():
            ec = tuple(a + b for a, b in zip(ea, eb))
            val = combine(ma, mb)
            out[ec] = out[ec] + val if ec in out else val
    return {e: m for e, m in out.items() if np.any(m != 0)}


def assert_terms_bitwise(got, want):
    """Same keys in the same order, and every matrix equal to the bit."""
    assert list(got) == list(want)
    for e, m in want.items():
        assert np.array_equal(got[e], m)
        assert got[e].tobytes() == m.tobytes()  # signed zeros too
