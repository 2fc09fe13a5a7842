"""Hermiticity as a computed property of results, not a stored flag.

The Hamilton-algebra products sigma and alpha map observables (Hermitian
elements) to observables, and the envelope product tau does not; of the
mixed brackets, the hybrid, Boucher-Traschen and Aleksandrov ones keep
observables Hermitian, while the Anderson bracket, the ordered Poisson
bracket it adds and the associative product do not.  Each check measures
||X - X^H|| / ||X|| on every trial of a block drawn from Hermitian inputs.
"""

import numpy as np
import pytest

from hamalg import (
    ComposedAlgebra,
    HybridElement,
    MixedBracketKind,
    OperatorAlgebra,
    PhaseSpaceAlgebra,
    mixed_bracket,
)
from hamalg.brackets import ordered_poisson, random_hybrid_observable

TRIALS = 8
HERMITIAN = 1e-12   # the most a Hermitian result's relative defect may be
NOT_HERMITIAN = 0.1  # the least a non-Hermitian result's relative defect may be


def hermitian_defects(x):
    """||X - X^H|| / ||X|| of each trial of a block, X^H the conjugate
    transpose of its matrix, or of every matrix coefficient."""
    defects = []
    for t in range(x.trials):
        single = x.trial(t)
        m = single.coeffs if isinstance(single, HybridElement) else single.entries
        defects.append(float(np.linalg.norm(m - m.conj().swapaxes(-1, -2))
                             / np.linalg.norm(m)))
    return defects


ALGEBRAS = {
    "operator": OperatorAlgebra(3, a=0.25),
    "qq": ComposedAlgebra(OperatorAlgebra(2, a=1.0),
                          OperatorAlgebra(3, a=2.0), a12=1.5),
    "qc": ComposedAlgebra(OperatorAlgebra(2, a=1.0),
                          PhaseSpaceAlgebra(1, max_random_degree=2), a12=1.0),
}


def draw(name):
    alg = ALGEBRAS[name]
    f, g = alg.random_element(np.random.default_rng(11), block=(TRIALS, 2))
    assert hermitian_defects(f) == hermitian_defects(g) == [0.0] * TRIALS
    return alg, f, g


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_sigma_and_alpha_keep_observables_hermitian(name):
    alg, f, g = draw(name)
    for product in (alg.sigma, alg.alpha):
        assert max(hermitian_defects(product(f, g))) <= HERMITIAN


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_tau_does_not(name):
    alg, f, g = draw(name)
    assert min(hermitian_defects(alg.tau(f, g))) > NOT_HERMITIAN


def hybrid_inputs():
    u, v = random_hybrid_observable(np.random.default_rng(12), dim=2, num_pairs=1, degree=2,
                                    block=(TRIALS, 2))
    assert hermitian_defects(u) == hermitian_defects(v) == [0.0] * TRIALS
    return u, v


@pytest.mark.parametrize("kind", [MixedBracketKind.HYBRID_PAPER,
                                  MixedBracketKind.BOUCHER_TRASCHEN,
                                  MixedBracketKind.ALEKSANDROV])
def test_hermitian_brackets(kind):
    u, v = hybrid_inputs()
    assert max(hermitian_defects(mixed_bracket(kind, u, v, 1.0))) <= HERMITIAN


@pytest.mark.parametrize("op", [
    lambda u, v: mixed_bracket(MixedBracketKind.ANDERSON, u, v, 1.0),
    ordered_poisson,
    lambda u, v: u.assoc_product(v),
], ids=["anderson", "ordered_poisson", "assoc_product"])
def test_non_hermitian_products(op):
    u, v = hybrid_inputs()
    assert min(hermitian_defects(op(u, v))) > NOT_HERMITIAN
