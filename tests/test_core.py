"""Algebra-core operations against independent matrix/polynomial oracles.

Expected values are either frozen literals (Pauli arithmetic done by
hand) or recomputed inline with raw numpy expressions, never through the
methods under test.
"""

import math

import numpy as np
import pytest

from hamalg import (
    AlgebraError,
    OperatorAlgebra,
    OperatorElement,
    PhaseSpaceAlgebra,
    PhaseSpacePoly,
    QuantumConstant,
    relative_defect,
)
from tests.helpers import PAULI_X, PAULI_Y, PAULI_Z, loop_phase_space_draw


class TestOperatorProducts:
    def test_sigma_pauli_xy_is_zero(self, qha2, paulis):
        sx, sy, _ = paulis
        # oracle: (sx.sy + sy.sx)/2 with sx.sy = i sz, sy.sx = -i sz
        assert qha2.sigma(sx, sy).norm() == 0.0

    def test_alpha_pauli_xy_is_pauli_z(self, qha2, paulis):
        sx, sy, sz = paulis
        # oracle: (sx sy - sy sx)/(2i) = (2i sz)/(2i) = sz
        got = qha2.alpha(sx, sy)
        oracle = (PAULI_X @ PAULI_Y - PAULI_Y @ PAULI_X) / (2j)
        assert np.allclose(oracle, PAULI_Z)
        assert np.allclose(got.entries, PAULI_Z)

    def test_sigma_unit_law(self, rng):
        alg = OperatorAlgebra(4, a=0.25)
        f = alg.random_element(rng)
        assert np.allclose(alg.sigma(alg.unit(), f).entries, f.entries)

    def test_alpha_antisymmetry_on_equal_args(self, rng):
        alg = OperatorAlgebra(3, a=0.0625)
        f = alg.random_element(rng)
        assert alg.alpha(f, f).norm() == 0.0

    def test_alpha_with_unit_vanishes(self, rng):
        alg = OperatorAlgebra(3, a=0.25)
        f = alg.random_element(rng)
        assert alg.alpha(f, alg.unit()).norm() == 0.0

    def test_products_with_zero(self, rng):
        alg = OperatorAlgebra(3, a=0.25)
        f = alg.random_element(rng)
        z = OperatorElement(np.zeros((3, 3)))
        assert alg.sigma(f, z).norm() == 0.0
        assert alg.alpha(z, f).norm() == 0.0

    def test_shape_mismatch(self, rng):
        alg = OperatorAlgebra(2, a=0.25)
        f = alg.random_element(rng)
        g = OperatorAlgebra(3, a=0.25).random_element(rng)
        with pytest.raises(Exception):
            alg.sigma(f, g)

    @pytest.mark.parametrize("a", [2.0, 0.3, 0.7])
    def test_operator_algebra_keeps_its_constant(self, a):
        # each of these changes on the round trip through hbar = 2 sqrt(a)
        assert QuantumConstant.from_hbar(2 * math.sqrt(a)).a != a
        assert OperatorAlgebra(2, a=a).constant.a == a
        assert OperatorAlgebra(2, a=a).describe()["a"] == a

    def test_operator_algebra_requires_quantum_constant(self):
        with pytest.raises(AlgebraError):
            OperatorAlgebra(2, a=0.0)
        with pytest.raises(AlgebraError):
            OperatorAlgebra(0, a=0.25)


def tau_parts(alg, f, g):
    """sigma and alpha recovered from tau as its symmetric and antisymmetric
    parts; the antisymmetric part carries 1/(2 sqrt(-a)) = 1/(i hbar)."""
    tfg, tgf = alg.tau(f, g), alg.tau(g, f)
    return (tfg + tgf).scale(0.5), (tfg - tgf).scale(1.0 / (1j * alg.constant.hbar))


class TestEnvelope:
    def test_tau_equals_matrix_product(self, rng):
        alg = OperatorAlgebra(3, a=0.25)
        f, g = alg.random_element(rng), alg.random_element(rng)
        assert np.allclose(alg.tau(f, g).entries, f.entries @ g.entries, atol=1e-13)

    def test_tau_associative(self, rng):
        alg = OperatorAlgebra(4, a=0.0625)
        f, g, h = (alg.random_element(rng) for _ in range(3))
        diff = alg.tau(alg.tau(f, g), h) - alg.tau(f, alg.tau(g, h))
        assert relative_defect(diff.norm(), [f.norm(), g.norm(), h.norm()]) <= 1e-12

    def test_tau_is_sigma_for_classical(self, cha1, rng):
        f, g = cha1.random_element(rng), cha1.random_element(rng)
        assert cha1.tau(f, g).terms == cha1.sigma(f, g).terms

    def test_recover_products_from_tau_paulis(self, qha2, paulis):
        sx, sy, _ = paulis
        sig, alp = tau_parts(qha2, sx, sy)
        assert sig.norm() <= 1e-15
        assert np.allclose(alp.entries, PAULI_Z, atol=1e-14)

    def test_recover_products_equal_args(self, qha2, paulis):
        sx, _, _ = paulis
        sig, alp = tau_parts(qha2, sx, sx)
        assert np.allclose(sig.entries, qha2.sigma(sx, sx).entries)
        assert alp.norm() <= 1e-15

    def test_recover_products_random_dim5(self, rng):
        alg = OperatorAlgebra(5, a=0.4225)
        f, g = alg.random_element(rng), alg.random_element(rng)
        sig, alp = tau_parts(alg, f, g)
        scale = 1.0 + f.norm() * g.norm()
        assert (sig - alg.sigma(f, g)).norm() <= 1e-12 * scale
        assert (alp - alg.alpha(f, g)).norm() <= 1e-12 * scale


class TestAssociator:
    def test_classical_sigma_associative(self, cha2, rng):
        f, g, h = (cha2.random_element(rng) for _ in range(3))
        defect = cha2.associator_sigma(f, g, h).norm()
        assert relative_defect(defect, [f.norm(), g.norm(), h.norm()]) <= 1e-12

    def test_associator_matches_double_bracket_paulis(self, qha2, paulis):
        sx, sy, sz = paulis
        got = qha2.associator_sigma(sx, sy, sz)
        # inline oracle, plain numpy: both sides of the canonical relation
        def sig(a, b):
            return 0.5 * (a @ b + b @ a)

        def alp(a, b):
            return (a @ b - b @ a) / (2j)

        lhs = sig(sig(PAULI_X, PAULI_Y), PAULI_Z) - sig(PAULI_X, sig(PAULI_Y, PAULI_Z))
        rhs = 1.0 * alp(alp(PAULI_X, PAULI_Z), PAULI_Y)  # a = 1
        assert np.allclose(lhs, rhs, atol=1e-14)
        assert np.allclose(got.entries, lhs, atol=1e-14)

    def test_associator_degenerate_f_equals_h(self, rng):
        # with f = h the canonical relation right side dies by antisymmetry,
        # leaving the Jordan-type residual, which must vanish
        alg = OperatorAlgebra(3, a=1.0)
        f, g = alg.random_element(rng), alg.random_element(rng)
        residual = alg.associator_sigma(f, g, f) - alg.alpha(alg.alpha(f, f), g).scale(
            alg.constant.a
        )
        assert relative_defect(residual.norm(), [f.norm(), g.norm(), f.norm()]) <= 1e-12


class TestPhaseSpaceProducts:
    def test_sigma_is_pointwise_product(self, cha1):
        x = PhaseSpacePoly.variable(1, "x1")
        p = PhaseSpacePoly.variable(1, "p1")
        assert cha1.sigma(x, p).terms == {(1, 1): 1.0}

    def test_alpha_is_poisson(self, cha1):
        x = PhaseSpacePoly.variable(1, "x1")
        p = PhaseSpacePoly.variable(1, "p1")
        assert cha1.alpha(x, p).terms == {(0, 0): 1.0}

    def test_unit_laws(self, cha2, rng):
        f = cha2.random_element(rng)
        assert cha2.sigma(cha2.unit(), f).terms == f.terms
        assert cha2.alpha(f, cha2.unit()).terms == {}


class TestRandomElements:
    def test_deterministic_given_state(self):
        alg = OperatorAlgebra(4, a=0.25)
        a = alg.random_element(np.random.default_rng(42))
        b = alg.random_element(np.random.default_rng(42))
        assert np.array_equal(a.entries, b.entries)

    def test_operator_exactly_hermitian(self, rng):
        alg = OperatorAlgebra(6, a=0.25)
        f = alg.random_element(rng)
        assert np.linalg.norm(f.entries - f.entries.conj().T) <= 1e-15

    def test_different_seeds_differ(self):
        alg = OperatorAlgebra(3, a=0.25)
        a = alg.random_element(np.random.default_rng(1))
        b = alg.random_element(np.random.default_rng(2))
        assert abs(a.norm() - b.norm()) > 0

    def test_phase_space_degree_capped(self):
        alg = PhaseSpaceAlgebra(2, max_random_degree=3)
        f = alg.random_element(np.random.default_rng(0))
        assert f.degree() <= 3

    @pytest.mark.parametrize("num_pairs,degree", [(1, 0), (1, 3), (2, 3), (3, 2)])
    def test_phase_space_draw_matches_scalar_loop(self, num_pairs, degree):
        alg = PhaseSpaceAlgebra(num_pairs, max_random_degree=degree)
        rng, loop_rng = np.random.default_rng(31), np.random.default_rng(31)
        for _ in range(3):
            got = alg.random_element(rng).terms
            want = loop_phase_space_draw(loop_rng, num_pairs, degree).terms
            assert list(got) == list(want)
            assert (np.array(list(got.values())).tobytes()
                    == np.array(list(want.values())).tobytes())
        # the generator is left where the scalar loop leaves it
        assert rng.bit_generator.state == loop_rng.bit_generator.state

    def test_phase_space_deterministic(self):
        alg = PhaseSpaceAlgebra(1, max_random_degree=2)
        a = alg.random_element(np.random.default_rng(9))
        b = alg.random_element(np.random.default_rng(9))
        assert a.terms == b.terms


def hermitian_basis(dim):
    """A real basis of the Hermitian dim x dim matrices: E_ii,
    E_ij + E_ji and i(E_ij - E_ji) for i < j."""
    basis = []
    for i in range(dim):
        for j in range(i, dim):
            unit = np.zeros((dim, dim), dtype=np.complex128)
            unit[i, j] = 1.0
            if i == j:
                basis.append(unit)
            else:
                basis.append(unit + unit.T)
                basis.append(1j * (unit - unit.T))
    return basis


class TestCentrality:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_full_matrix_algebra_is_central(self, dim):
        # alpha(f, x) = 0 for every Hermitian f forces x = c * unit: the
        # kernel of x -> [alpha(b, x) for b in basis], built column by
        # column through the algebra's own bracket, is the span of the unit
        alg = OperatorAlgebra(dim, a=0.25)
        basis = [OperatorElement(b) for b in hermitian_basis(dim)]
        assert len(basis) == dim * dim
        columns = []
        for x in basis:
            images = np.stack([alg.alpha(b, x).entries for b in basis])
            columns.append(np.concatenate([images.real.ravel(), images.imag.ravel()]))
        _, svals, vh = np.linalg.svd(np.stack(columns, axis=1))
        nullity = int(np.sum(svals <= 1e-10 * svals[0]))
        assert nullity == 1
        kernel = sum(c * b.entries for c, b in zip(vh[-1], basis))
        coeff = np.trace(kernel) / dim
        assert abs(coeff) > 0.1
        assert np.linalg.norm(kernel - coeff * np.eye(dim)) <= 1e-10


def test_relative_defect_normalization():
    assert relative_defect(1.0, [3.0, 3.0]) == 1.0 / 10.0
    assert relative_defect(0.0, [100.0]) == 0.0
