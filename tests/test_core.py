"""Algebra-core operations against independent matrix/polynomial oracles.

Expected values are either frozen literals (Pauli arithmetic done by
hand) or recomputed inline with raw numpy expressions, never through the
methods under test.
"""

import numpy as np
import pytest

from hamalg import (
    AlgebraError,
    OperatorAlgebra,
    OperatorElement,
    PhaseSpaceAlgebra,
    PhaseSpacePoly,
    centrality_report,
    relative_defect,
)
from tests.conftest import PAULI_X, PAULI_Y, PAULI_Z, loop_phase_space_draw


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
        assert got.hermitian

    def test_sigma_unit_law(self, rng):
        alg = OperatorAlgebra(4, hbar=1.0)
        f = alg.random_element(rng)
        assert np.allclose(alg.sigma(alg.unit(), f).entries, f.entries)

    def test_alpha_antisymmetry_on_equal_args(self, rng):
        alg = OperatorAlgebra(3, hbar=0.5)
        f = alg.random_element(rng)
        assert alg.alpha(f, f).norm() == 0.0

    def test_alpha_with_unit_vanishes(self, rng):
        alg = OperatorAlgebra(3, hbar=1.0)
        f = alg.random_element(rng)
        assert alg.alpha(f, alg.unit()).norm() == 0.0

    def test_hermitian_in_hermitian_out(self, rng):
        alg = OperatorAlgebra(4, hbar=2.0)
        f, g = alg.random_element(rng), alg.random_element(rng)
        for out in (alg.sigma(f, g), alg.alpha(f, g)):
            assert out.hermitian
            assert np.linalg.norm(out.entries - out.entries.conj().T) <= 1e-12 * max(
                out.norm(), 1.0
            )

    def test_products_with_zero(self, rng):
        alg = OperatorAlgebra(3, hbar=1.0)
        f = alg.random_element(rng)
        z = alg.zero()
        assert alg.sigma(f, z).norm() == 0.0
        assert alg.alpha(z, f).norm() == 0.0

    def test_shape_mismatch(self, rng):
        alg = OperatorAlgebra(2, hbar=1.0)
        f = alg.random_element(rng)
        g = OperatorAlgebra(3, hbar=1.0).random_element(rng)
        with pytest.raises(Exception):
            alg.sigma(f, g)

    def test_operator_algebra_requires_quantum_constant(self):
        with pytest.raises(AlgebraError):
            OperatorAlgebra(2, hbar=0.0)
        with pytest.raises(AlgebraError):
            OperatorAlgebra(0, hbar=1.0)


class TestEnvelope:
    def test_tau_equals_matrix_product(self, rng):
        alg = OperatorAlgebra(3, hbar=1.0)
        f, g = alg.random_element(rng), alg.random_element(rng)
        assert np.allclose(alg.tau(f, g).entries, f.entries @ g.entries, atol=1e-13)

    def test_tau_associative(self, rng):
        alg = OperatorAlgebra(4, hbar=0.5)
        f, g, h = (alg.random_element(rng) for _ in range(3))
        diff = alg.tau(alg.tau(f, g), h) - alg.tau(f, alg.tau(g, h))
        assert relative_defect(diff.norm(), [f.norm(), g.norm(), h.norm()]) <= 1e-12

    def test_tau_is_sigma_for_classical(self, cha1, rng):
        f, g = cha1.random_element(rng), cha1.random_element(rng)
        assert cha1.tau(f, g).terms == cha1.sigma(f, g).terms

    def test_recover_products_from_tau_paulis(self, qha2, paulis):
        sx, sy, _ = paulis
        sig, alp = qha2.derive_products_from_tau(sx, sy)
        assert sig.norm() <= 1e-15
        assert np.allclose(alp.entries, PAULI_Z, atol=1e-14)

    def test_recover_products_equal_args(self, qha2, paulis):
        sx, _, _ = paulis
        sig, alp = qha2.derive_products_from_tau(sx, sx)
        assert np.allclose(sig.entries, qha2.sigma(sx, sx).entries)
        assert alp.norm() <= 1e-15

    def test_recover_products_random_dim5(self, rng):
        alg = OperatorAlgebra(5, hbar=1.3)
        f, g = alg.random_element(rng), alg.random_element(rng)
        sig, alp = alg.derive_products_from_tau(f, g)
        scale = 1.0 + f.norm() * g.norm()
        assert (sig - alg.sigma(f, g)).norm() <= 1e-12 * scale
        assert (alp - alg.alpha(f, g)).norm() <= 1e-12 * scale

    def test_recovery_rejected_for_classical(self, cha1, rng):
        f, g = cha1.random_element(rng), cha1.random_element(rng)
        with pytest.raises(AlgebraError):
            cha1.derive_products_from_tau(f, g)


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
        alg = OperatorAlgebra(3, hbar=2.0)
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
        alg = OperatorAlgebra(4, hbar=1.0)
        a = alg.random_element(np.random.default_rng(42))
        b = alg.random_element(np.random.default_rng(42))
        assert np.array_equal(a.entries, b.entries)

    def test_operator_exactly_hermitian(self, rng):
        alg = OperatorAlgebra(6, hbar=1.0)
        f = alg.random_element(rng)
        assert np.linalg.norm(f.entries - f.entries.conj().T) <= 1e-15

    def test_different_seeds_differ(self):
        alg = OperatorAlgebra(3, hbar=1.0)
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


class TestCentrality:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_full_matrix_algebra_is_central(self, dim):
        report = centrality_report(OperatorAlgebra(dim, hbar=1.0))
        assert report["central"]
        assert report["nullity"] == 1


def test_relative_defect_normalization():
    assert relative_defect(1.0, [3.0, 3.0]) == 1.0 / 10.0
    assert relative_defect(0.0, [100.0]) == 0.0
