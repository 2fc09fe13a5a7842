import math

import numpy as np
import pytest

from hamalg import (
    AlgebraError,
    OperatorElement,
    PhaseSpacePoly,
    QuantumConstant,
    ShapeError,
)


class TestQuantumConstant:
    def test_hbar_relation_exact(self):
        for a in (0.25, 1.0, 2.0, 9.0, 0.3):
            qc = QuantumConstant(a)
            assert qc.hbar == 2.0 * math.sqrt(a)
            assert abs(qc.hbar**2 - 4 * a) <= 4 * a * 1e-15

    def test_from_hbar(self):
        assert QuantumConstant.from_hbar(2.0).a == 1.0
        assert QuantumConstant.from_hbar(1.0).a == 0.25

    def test_classical_marker(self):
        assert QuantumConstant(0.0).is_classical
        assert not QuantumConstant(1.0).is_classical

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(AlgebraError):
            QuantumConstant(-1.0)
        with pytest.raises(AlgebraError):
            QuantumConstant(float("nan"))
        with pytest.raises(AlgebraError):
            QuantumConstant.from_hbar(-2.0)


class TestOperatorElement:
    def test_hermitian_flag_validated(self):
        with pytest.raises(AlgebraError):
            OperatorElement([[0, 1], [0, 0]], hermitian=True)
        el = OperatorElement([[0, 1], [1, 0]], hermitian=True)
        assert el.hermitian

    def test_hermitian_autodetect(self):
        assert OperatorElement([[1, 2j], [-2j, 3]]).hermitian
        assert not OperatorElement([[0, 1], [0, 0]]).hermitian

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            OperatorElement(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            OperatorElement(np.zeros(4))

    def test_arithmetic_and_flags(self):
        a = OperatorElement([[1, 0], [0, -1]])
        b = OperatorElement([[0, 1], [1, 0]])
        assert (a + b).hermitian
        assert (a - b).hermitian
        assert (a.scale(2.0)).hermitian
        assert not a.scale(1j).hermitian
        assert np.array_equal((a + b).entries, [[1, 1], [1, -1]])

    def test_norm_is_frobenius(self):
        a = OperatorElement([[3, 0], [0, 4]])
        assert a.norm() == 5.0

    def test_entries_immutable(self):
        a = OperatorElement([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5

    def test_mismatched_dims_raise(self):
        a = OperatorElement(np.eye(2))
        b = OperatorElement(np.eye(3))
        with pytest.raises(ShapeError):
            a + b


class TestPhaseSpacePoly:
    def test_zero_coefficients_absent(self):
        p = PhaseSpacePoly(1, {(1, 0): 1.0, (0, 1): 0.0})
        assert (0, 1) not in p.terms

    def test_rejects_bad_terms(self):
        with pytest.raises(ShapeError):
            PhaseSpacePoly(1, {(1,): 1.0})
        with pytest.raises(ShapeError):
            PhaseSpacePoly(1, {(-1, 0): 1.0})
        with pytest.raises(AlgebraError):
            PhaseSpacePoly(1, {(1, 0): float("inf")})

    def test_derived_coefficients_checked_finite(self):
        # overflow raises AlgebraError, and no numpy RuntimeWarning escapes
        p = PhaseSpacePoly(1, {(1, 0): 1e200})
        with pytest.raises(AlgebraError):
            p.product(p)  # 1e400 overflows to inf
        with pytest.raises(AlgebraError):
            p.scale(1e200)
        huge = PhaseSpacePoly(1, {(1, 0): 1e308})
        with pytest.raises(AlgebraError):
            huge + huge
        with pytest.raises(AlgebraError):
            huge.poisson(PhaseSpacePoly(1, {(0, 2): 1e308}))

    def test_first_non_finite_term_is_named(self):
        # the first in dict order, which is not the first in exponent order
        p = PhaseSpacePoly(1, {(2, 0): 1.0, (1, 0): 1e300, (0, 1): -1e300})
        with pytest.raises(AlgebraError, match=r"^non-finite coefficient inf at \(1, 0\)$"):
            p.scale(1e300)
        exps = np.array([(2, 0), (1, 0), (0, 1)])
        with pytest.raises(AlgebraError, match=r"^non-finite coefficient -inf at \(1, 0\)$"):
            PhaseSpacePoly._trusted(1, exps, np.array([1.0, -math.inf, math.nan]), True)
        # in a block, the first row with a non-finite coefficient in any trial
        block = np.array([[1.0, 2.0], [0.5, math.nan], [math.inf, 1.0]])
        with pytest.raises(AlgebraError, match=r"^non-finite coefficient nan at \(1, 0\)$"):
            PhaseSpacePoly._trusted(1, exps, block, True)

    def test_derived_zero_terms_dropped(self):
        p = PhaseSpacePoly(1, {(1, 0): 1.5, (0, 1): -2.0})
        q = PhaseSpacePoly(1, {(1, 0): -1.5, (2, 0): 1.0})
        assert list((p + q).terms.items()) == [((0, 1), -2.0), ((2, 0), 1.0)]
        assert (p - p).terms == {}
        assert p.scale(0).terms == {}
        # 1e-300 * 1e-300 underflows to zero
        tiny = PhaseSpacePoly(1, {(1, 0): 1e-300, (0, 1): 1.0, (2, 0): -1e-300})
        assert tiny.scale(1e-300).terms == {(0, 1): 1e-300}
        assert tiny.product(tiny.scale(1e-300)).terms == {(0, 2): 1e-300}

    def test_monomial_table_is_built_once_and_shared_read_only(self):
        from itertools import combinations_with_replacement

        from hamalg.elements import monomials_up_to_degree

        for nvars, degree in [(2, 0), (2, 3), (4, 3), (6, 2)]:
            want = []  # the list the table was built as, call by call
            for d in range(degree + 1):
                for combo in combinations_with_replacement(range(nvars), d):
                    e = [0] * nvars
                    for i in combo:
                        e[i] += 1
                    want.append(tuple(e))
            table = monomials_up_to_degree(nvars, degree)
            assert list(table) == want
            assert monomials_up_to_degree(nvars, degree) is table
            assert type(table) is tuple and all(type(e) is tuple for e in table)
            with pytest.raises(TypeError):
                table[0] = (1,) * nvars

    def test_variable_constructor(self):
        x1 = PhaseSpacePoly.variable(2, "x1")
        p2 = PhaseSpacePoly.variable(2, "p2")
        assert x1.terms == {(1, 0, 0, 0): 1.0}
        assert p2.terms == {(0, 0, 0, 1): 1.0}
        with pytest.raises(ShapeError):
            PhaseSpacePoly.variable(1, "x2")

    def test_product_is_exact(self):
        x = PhaseSpacePoly.variable(1, "x1")
        p = PhaseSpacePoly.variable(1, "p1")
        xp = x.product(p)
        assert xp.terms == {(1, 1): 1.0}
        # (x + p)^2 = x^2 + 2xp + p^2, no truncation
        s = x + p
        sq = s.product(s)
        assert sq.terms == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}

    def test_poisson_canonical_pair(self):
        x = PhaseSpacePoly.variable(1, "x1")
        p = PhaseSpacePoly.variable(1, "p1")
        one = x.poisson(p)
        assert one.terms == {(0, 0): 1.0}

    def test_poisson_degree_bound(self, rng):
        from hamalg import PhaseSpaceAlgebra

        alg = PhaseSpaceAlgebra(2, max_random_degree=3)
        f, g = alg.random_element(rng), alg.random_element(rng)
        assert f.poisson(g).degree() <= f.degree() + g.degree() - 2

    def test_norm_l2(self):
        p = PhaseSpacePoly(1, {(1, 0): 3.0, (0, 1): 4.0})
        assert p.norm() == 5.0
        # a square past the float range is inf, as Python floats give it
        assert PhaseSpacePoly(1, {(1, 0): 1e200}).norm() == math.inf

    def test_unit_and_zero(self):
        u = PhaseSpacePoly.unit(2)
        z = PhaseSpacePoly(2, {})
        assert u.terms == {(0, 0, 0, 0): 1.0}
        assert z.terms == {}
        assert z.norm() == 0.0
