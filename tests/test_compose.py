"""Tensor composition against the literal simple-tensor law.

The canonical-form products (matrix products of partial transposes / the
term-pair engine) are cross-checked against compose_product_on_terms,
which applies the component products factor by factor across the
switching map -- the definitional route.  The quantum (x) quantum table
``_lr_table`` is also pinned on its own: each trial of a block to the
single call's bits, and against its definition over matrix-unit
decompositions, exactly on small-integer inputs.
"""

import math

import numpy as np
import pytest

from hamalg import (
    AlgebraError,
    ComposedAlgebra,
    HybridElement,
    KroneckerElement,
    OperatorAlgebra,
    OperatorElement,
    PhaseSpaceAlgebra,
    PhaseSpacePoly,
    compose_product_on_terms,
    simple_tensor,
    switching_map,
)
from hamalg import kernels
from hamalg.brackets import mixed_bracket
from hamalg.compose import coefficient_product
from hamalg.errors import ShapeError
from hamalg.identities import Identity, check_identity
from tests.helpers import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    assert_nan_alike,
    assert_terms_bitwise,
    loop_term_pairs,
    pair_product,
    random_hybrid,
    sequential_sum,
    simple_tensor_terms,
)


def anderson(u, v):
    """The Anderson bracket, which has both a plain and a Poisson part."""
    return mixed_bracket("anderson", u, v, 1.0)


def qq_algebra(a1=1.0, a2=1.0, a12=1.0, d1=2, d2=2):
    return ComposedAlgebra(OperatorAlgebra(d1, a=a1),
                           OperatorAlgebra(d2, a=a2), a12=a12)


def qc_algebra(a=1.0, a12=None, dim=2, pairs=1, degree=2):
    """Quantum (x) classical at a12 = a unless a12 is given."""
    return ComposedAlgebra(OperatorAlgebra(dim, a=a),
                           PhaseSpaceAlgebra(pairs, max_random_degree=degree),
                           a12=a if a12 is None else a12)


class TestSimpleTensor:
    def test_operator_times_unit_poly(self, paulis):
        _, _, sz = paulis
        one = PhaseSpacePoly.unit(1)
        t = simple_tensor(sz, one)
        assert isinstance(t, HybridElement)
        assert set(t.terms) == {(0, 0)}
        assert np.array_equal(t.terms[(0, 0)], PAULI_Z)

    def test_identity_kron_identity(self):
        t = simple_tensor(OperatorElement.identity(2), OperatorElement.identity(3))
        assert isinstance(t, KroneckerElement)
        assert np.array_equal(t.entries, np.eye(6))

    def test_operator_times_monomial(self, paulis):
        sx, _, _ = paulis
        xp = PhaseSpacePoly(1, {(1, 1): 1.0})
        t = simple_tensor(sx, xp)
        assert set(t.terms) == {(1, 1)}
        assert np.array_equal(t.terms[(1, 1)], PAULI_X)

    def test_classical_quantum_rejected(self, paulis):
        sx, _, _ = paulis
        with pytest.raises(AlgebraError):
            simple_tensor(PhaseSpacePoly.unit(1), sx)

    @pytest.mark.parametrize("right", [OperatorAlgebra(3, a=0.5),
                                       PhaseSpaceAlgebra(2, max_random_degree=2)])
    def test_block_trials_are_the_trials_tensors_bitwise(self, right, rng):
        # a zero coefficient in one trial drops that row from the trial alone
        f = OperatorAlgebra(2, a=0.25).random_element(rng, block=(4, 1))[0]
        g = right.random_element(rng, block=(4, 1))[0]
        if isinstance(g, PhaseSpacePoly):
            c = g.coeffs.copy()
            c[1, 2] = 0.0
            g = PhaseSpacePoly._trusted(g.exps, c)
        block = simple_tensor(f, g)
        assert block.trials == 4
        if isinstance(block, HybridElement):
            assert block.coeffs.shape == (len(g), 2, 2, 4)
        for t in range(4):
            single = simple_tensor(f.trial(t), g.trial(t))
            assert single.trials is None
            if isinstance(block, HybridElement):
                assert_terms_bitwise(block.trial(t).terms, single.terms)
            else:
                assert (block.left_dim, block.right_dim) == (2, 3)
                assert block.trial(t).entries.tobytes() == single.entries.tobytes()

    @pytest.mark.parametrize("right", [OperatorAlgebra(3, a=0.5),
                                       PhaseSpaceAlgebra(1, max_random_degree=1)])
    def test_mismatched_trials_are_refused(self, right, rng):
        left = OperatorAlgebra(2, a=0.25)
        single, two, three = (left.random_element(rng),
                              *(left.random_element(rng, block=(n, 1))[0] for n in (2, 3)))
        g_single, g_two = right.random_element(rng), right.random_element(rng, block=(2, 1))[0]
        for f, g in ((single, g_two), (three, g_two), (two, g_single)):
            with pytest.raises(ShapeError, match="trials"):
                simple_tensor(f, g)


class TestSwitchingMap:
    def test_single_pair(self):
        out = switching_map([("f1", "f2")], [("g1", "g2")])
        assert out == [(("f1", "g1"), ("f2", "g2"))]

    def test_bilinearity_term_count(self):
        out = switching_map([("f1", "f2"), ("h1", "h2")], [("g1", "g2"), ("k1", "k2")])
        assert len(out) == 4

    def test_identity_factors_pass_through(self):
        out = switching_map([("e1", "e2")], [("e1", "e2")])
        assert out == [(("e1", "e1"), ("e2", "e2"))]


class TestComposedProductsQQ:
    def test_sigma12_frozen_pauli_example(self, paulis):
        sx, sy, sz = paulis
        c = qq_algebra(a1=1.0, a2=1.0, a12=1.0)
        u = simple_tensor(sx, sx)
        v = simple_tensor(sy, sy)
        got = c.sigma(u, v)
        # sigma(sx,sy) = 0 and alpha(sx,sy) = sz at hbar 2, so the law
        # leaves -sqrt(a1 a2) sz (x) sz
        assert np.allclose(got.entries, -np.kron(PAULI_Z, PAULI_Z), atol=1e-14)

    def test_alpha12_frozen_scaling_example(self, paulis):
        sx, sy, sz = paulis
        c = qq_algebra(a1=1.0, a2=4.0, a12=9.0)
        e2 = c.right.unit()
        got = c.alpha(simple_tensor(sx, e2), simple_tensor(sy, e2))
        assert np.allclose(got.entries, np.kron(PAULI_Z, np.eye(2)) / 3.0, atol=1e-14)

    def test_sigma12_unit_law(self, rng):
        c = qq_algebra(a1=1.0, a2=4.0, a12=2.0, d2=3)
        u = c.random_element(rng)
        assert np.allclose(c.sigma(c.unit(), u).entries, u.entries, atol=1e-13)

    def test_alpha12_unit_annihilates(self, rng):
        c = qq_algebra(a1=0.25, a2=2.0, a12=5.0)
        u = c.random_element(rng)
        assert c.alpha(c.unit(), u).norm() <= 1e-14 * (1 + u.norm())

    @pytest.mark.parametrize("constants", [(1, 1, 1), (1, 4, 9), (0.25, 2.0, 5.0)])
    def test_matches_literal_switching_route(self, constants, rng):
        a1, a2, a12 = constants
        c = qq_algebra(a1, a2, a12, d1=2, d2=3)
        ut, u = simple_tensor_terms(c, rng, 2)
        vt, v = simple_tensor_terms(c, rng, 3)

        sig_oracle = (
            compose_product_on_terms(c.left.sigma, c.right.sigma, ut, vt)
            - compose_product_on_terms(c.left.alpha, c.right.alpha, ut, vt).scale(
                math.sqrt(a1 * a2))
        )
        alp_oracle = (
            compose_product_on_terms(c.left.alpha, c.right.sigma, ut, vt).scale(
                math.sqrt(a1 / a12))
            + compose_product_on_terms(c.left.sigma, c.right.alpha, ut, vt).scale(
                math.sqrt(a2 / a12))
        )
        scale = 1 + u.norm() * v.norm()
        assert (c.sigma(u, v) - sig_oracle).norm() <= 1e-12 * scale
        assert (c.alpha(u, v) - alp_oracle).norm() <= 1e-12 * scale

    def test_tau12_is_kronecker_matmul(self, rng):
        c = qq_algebra(a1=1.0, a2=1.0, a12=1.0)
        u, v = c.random_element(rng), c.random_element(rng)
        assert np.allclose(c.tau(u, v).entries, u.entries @ v.entries)

    def test_tau12_decomposes_into_sigma_alpha(self, rng):
        c = qq_algebra(a1=1.0, a2=4.0, a12=9.0, d2=3)
        u, v = c.random_element(rng), c.random_element(rng)
        # tau's symmetric and antisymmetric parts, by the tau route alone
        tuv, tvu = c.tau(u, v), c.tau(v, u)
        sig, alp = (tuv + tvu).scale(0.5), (tuv - tvu).scale(1 / (1j * c.constant.hbar))
        scale = 1 + u.norm() * v.norm()
        assert (sig - c.sigma(u, v)).norm() <= 1e-12 * scale
        assert (alp - c.alpha(u, v)).norm() <= 1e-12 * scale

    def test_tau12_associativity(self, rng):
        c = qq_algebra(a1=0.25, a2=2.0, a12=5.0, d2=3)
        f, g, h = (c.random_element(rng) for _ in range(3))
        diff = c.tau(c.tau(f, g), h) - c.tau(f, c.tau(g, h))
        assert diff.norm() <= 1e-12 * (1 + f.norm() * g.norm() * h.norm())

    def test_law_is_finite_where_a1_a2_overflows(self):
        # sqrt(a1 a2) = hbar1 hbar2 / 4 = 1e300, while a1 * a2 is inf
        c = qq_algebra(a1=1e300, a2=1e300, a12=1.0)
        for identity in Identity:
            assert check_identity(c, identity, 5, 1e-9, 0)["passed"], identity

    def test_bilinearity_exact(self, rng):
        c = qq_algebra(a1=1.0, a2=4.0, a12=9.0)
        (_, u1), (_, u2) = simple_tensor_terms(c, rng, 1), simple_tensor_terms(c, rng, 1)
        v = c.random_element(rng)
        lhs = c.sigma(u1 + u2, v)
        rhs = c.sigma(u1, v) + c.sigma(u2, v)
        assert (lhs - rhs).norm() <= 1e-13 * (1 + v.norm())


class TestComposedProductsQC:
    def test_sigma12_drops_cross_term(self, rng):
        c = qc_algebra(a=1.0)
        ut, u = simple_tensor_terms(c, rng, 2)
        vt, v = simple_tensor_terms(c, rng, 2)
        oracle = compose_product_on_terms(c.left.sigma, c.right.sigma, ut, vt)
        assert (c.sigma(u, v) - oracle).norm() <= 1e-12 * (1 + u.norm() * v.norm())

    def test_alpha12_is_quantum_bracket_times_product(self, rng):
        c = qc_algebra(a=1.0)  # a12 = a, so the prefactor is 1
        ut, u = simple_tensor_terms(c, rng, 2)
        vt, v = simple_tensor_terms(c, rng, 2)
        oracle = compose_product_on_terms(c.left.alpha, c.right.sigma, ut, vt)
        assert (c.alpha(u, v) - oracle).norm() <= 1e-12 * (1 + u.norm() * v.norm())

    def test_alpha12_carries_constant_ratio(self, paulis):
        sx, sy, sz = paulis
        c = qc_algebra(a=1.0, a12=4.0)
        one = PhaseSpacePoly.unit(1)
        got = c.alpha(simple_tensor(sx, one), simple_tensor(sy, one))
        # sqrt(a1/a12) = 1/2 on top of alpha1(sx, sy) = sz
        assert np.allclose(got.terms[(0, 0)], 0.5 * PAULI_Z, atol=1e-14)

    def test_tau12_equals_coefficient_convolution_within_rounding(self, rng):
        # the envelope theorem: sigma12 + (i hbar12 / 2) alpha12 is the
        # plain product, which tau12 no longer computes directly
        c = qc_algebra(a=1.0)
        u, v = c.random_element(rng), c.random_element(rng)
        assert (c.tau(u, v) - u.assoc_product(v)).norm() <= 1e-14 * (1 + u.norm() * v.norm())

    def test_hybrid_classical_bracket_absent(self, paulis):
        # alpha12 of two pure-classical embeddings vanishes even when the
        # classical Poisson bracket of the parts does not
        c = qc_algebra(a=1.0)
        e1 = c.left.unit()
        x = PhaseSpacePoly.variable(1, "x1")
        p = PhaseSpacePoly.variable(1, "p1")
        out = c.alpha(simple_tensor(e1, x), simple_tensor(e1, p))
        assert out.norm() == 0.0


class TestTauReadsTheLaw:
    """tau12 is the base envelope sigma12 + (i hbar12 / 2) alpha12, so
    its associativity check fails when either product is off."""

    def test_composed_algebra_defines_no_tau_of_its_own(self):
        assert "tau" not in vars(ComposedAlgebra)

    @pytest.mark.parametrize("product", ["sigma", "alpha"])
    @pytest.mark.parametrize("kind", ["qq", "qc"])
    def test_scaled_product_fails_tau_associativity(self, kind, product, monkeypatch):
        c = qq_algebra(a1=1.0, a2=2.0, a12=1.5, d2=3) if kind == "qq" else qc_algebra()
        assert check_identity(c, Identity.TAU_ASSOCIATIVITY, 50, 1e-9, 0)["passed"]
        exact = getattr(ComposedAlgebra, product)
        monkeypatch.setattr(ComposedAlgebra, product,
                            lambda self, u, v: exact(self, u, v).scale(1.1))
        assert not check_identity(c, Identity.TAU_ASSOCIATIVITY, 50, 1e-9, 0)["passed"]


class TestEqualConstantPath:
    def test_matches_general_law(self, rng):
        # a1 = a2 = a12 = a: unit coefficients on the bracket terms, -a on
        # the double-bracket term of sigma
        a = 2.25
        c = qq_algebra(a1=a, a2=a, a12=a)
        (ut, u), (vt, v) = simple_tensor_terms(c, rng, 2), simple_tensor_terms(c, rng, 3)
        sig = (compose_product_on_terms(c.left.sigma, c.right.sigma, ut, vt)
               - compose_product_on_terms(c.left.alpha, c.right.alpha, ut, vt).scale(a))
        alp = (compose_product_on_terms(c.left.alpha, c.right.sigma, ut, vt)
               + compose_product_on_terms(c.left.sigma, c.right.alpha, ut, vt))
        scale = 1 + u.norm() * v.norm()
        assert (sig - c.sigma(u, v)).norm() <= 1e-12 * scale
        assert (alp - c.alpha(u, v)).norm() <= 1e-12 * scale

    def test_alpha_law_is_constant_independent(self, rng):
        """At fixed component-product values the assembled bracket law is
        identical for every equal constant (unit coefficients), while the
        symmetric law keeps an explicit -a on its cross term."""
        base = OperatorAlgebra(2, a=1.0)
        f1, g1, f2, g2 = (base.random_element(rng) for _ in range(4))
        u, v = simple_tensor(f1, f2), simple_tensor(g1, g2)
        scale = 1 + u.norm() * v.norm()

        for a in (1.0, 4.0):
            comp = OperatorAlgebra(2, a=a)
            s1, s2 = comp.sigma(f1, g1), comp.sigma(f2, g2)
            b1, b2 = comp.alpha(f1, g1), comp.alpha(f2, g2)
            c = qq_algebra(a, a, a)
            sig, alp = c.sigma(u, v), c.alpha(u, v)
            # bracket law: coefficients exactly 1, for either a
            assert (alp - (simple_tensor(b1, s2) + simple_tensor(s1, b2))).norm() \
                <= 1e-12 * scale
            # symmetric law: cross term scaled by -a
            assert (sig - (simple_tensor(s1, s2) - simple_tensor(b1, b2).scale(a))).norm() \
                <= 1e-12 * scale

        # holding the component values fixed, only the sigma law moves with a
        s1, s2 = base.sigma(f1, g1), base.sigma(f2, g2)
        b1, b2 = base.alpha(f1, g1), base.alpha(f2, g2)
        sig_at = {a: simple_tensor(s1, s2) - simple_tensor(b1, b2).scale(a)
                  for a in (1.0, 4.0)}
        alp_at = {a: simple_tensor(b1, s2) + simple_tensor(s1, b2)
                  for a in (1.0, 4.0)}
        assert (sig_at[1.0] - sig_at[4.0]).norm() > 1e-6
        assert (alp_at[1.0] - alp_at[4.0]).norm() == 0.0


class TestConstruction:
    def test_quantum_pairing_rejects_zero_a12(self):
        with pytest.raises(AlgebraError):
            ComposedAlgebra(OperatorAlgebra(2, a=0.25), OperatorAlgebra(2, a=0.25),
                            a12=0.0)
        with pytest.raises(AlgebraError):
            qc_algebra(a=1.0, a12=0.0)

    def test_classical_pair_is_refused(self):
        with pytest.raises(AlgebraError):
            ComposedAlgebra(PhaseSpaceAlgebra(1, 3), PhaseSpaceAlgebra(1, 3), a12=1.0)
        with pytest.raises(AlgebraError):
            simple_tensor(PhaseSpacePoly.unit(1), PhaseSpacePoly.unit(1))

    def test_classical_quantum_order_rejected(self):
        with pytest.raises(AlgebraError):
            ComposedAlgebra(PhaseSpaceAlgebra(1, 3), OperatorAlgebra(2, a=0.25), a12=1.0)

    def test_element_shape_checks(self, rng):
        c = qq_algebra(a1=1.0, a2=1.0, a12=1.0)
        other = qq_algebra(a1=1.0, a2=1.0, a12=1.0, d2=3)
        with pytest.raises(Exception):
            c.sigma(c.random_element(rng), other.random_element(rng))


class TestHybridElementType:
    def test_zero_coefficients_pruned(self):
        el = HybridElement(2, 1, {(0, 0): np.zeros((2, 2)), (1, 0): PAULI_X})
        assert set(el.terms) == {(1, 0)}

    def test_norm_is_l2_over_all_entries(self):
        el = HybridElement(2, 1, {(0, 0): np.eye(2), (1, 0): PAULI_X})
        assert el.norm() == pytest.approx(2.0)
        # a norm past the float range is inf, and no numpy warning escapes
        assert HybridElement(2, 1, {(1, 0): 1e200 * PAULI_X}).norm() == math.inf

    def test_kronecker_validation(self):
        with pytest.raises(Exception):
            KroneckerElement(2, 2, np.zeros((3, 3)))


def stored_matrices(el):
    return list(el.terms.values())


def block_of(*elements):
    """A block whose trial t is elements[t] (every element on the same keys)."""
    first = elements[0]
    assert all(np.array_equal(el.exps, first.exps) for el in elements)
    return HybridElement._trusted(first.exps, np.stack([el.coeffs for el in elements], axis=-1))


class TestPruneOnce:
    """Derived elements prune only where a value can become zero."""

    def test_cancelled_keys_vanish_in_add(self):
        u = HybridElement(2, 1, {(1, 0): PAULI_X, (0, 1): PAULI_Y, (0, 0): PAULI_Z})
        v = HybridElement(2, 1, {(0, 1): -PAULI_Y, (2, 0): PAULI_X})
        assert list((u + v).terms) == [(1, 0), (0, 0), (2, 0)]
        assert (u - u).terms == {}
        assert (u + u.scale(-1.0)).terms == {}

    def test_scale_by_zero_prunes(self):
        u = HybridElement(2, 1, {(1, 0): PAULI_X, (0, 1): PAULI_Y})
        assert u.scale(0).terms == {}
        assert (0.0 * u).terms == {}

    def test_underflowing_scale_prunes(self):
        u = HybridElement(1, 1, {(1, 0): [[1e-300]], (0, 1): [[1.0]]})
        assert list(u.scale(1e-300).terms) == [(0, 1)]

    def test_underflowing_simple_tensor_prunes(self):
        f = OperatorElement(np.eye(2) * 1e-300)
        g = PhaseSpacePoly(1, {(1, 0): 1e-300, (0, 1): 1.0})
        assert list(simple_tensor(f, g).terms) == [(0, 1)]

    def test_nothing_stored_is_writable(self, rng):
        from hamalg.compose import random_hybrid_observable
        u, v = random_hybrid(rng, 2, 1, 2), random_hybrid(rng, 2, 1, 2)
        block = random_hybrid_observable(rng, block=(3, 2))
        f, g = OperatorElement(PAULI_X), PhaseSpacePoly(1, {(1, 0): 2.0})
        derived = [u + v, u - v, u.scale(0.5), anderson(u, v), u.assoc_product(v),
                   simple_tensor(f, g), random_hybrid_observable(rng), *block,
                   block[0] + block[1], block[0].scale(2.0), anderson(*block),
                   block[0].assoc_product(block[1]), block[0].trial(2)]
        for el in derived:
            assert el.terms
            for m in stored_matrices(el):
                assert m.dtype == np.complex128
                assert not m.flags.writeable


class TestBlocks:
    def test_mixing_blocks_and_elements_is_refused(self, rng):
        from hamalg.compose import random_hybrid_observable
        u = random_hybrid_observable(rng)
        two = random_hybrid_observable(rng, block=(2, 1))[0]
        three = random_hybrid_observable(rng, block=(3, 1))[0]
        for a, b in ((u, two), (two, u), (two, three)):
            with pytest.raises(ShapeError, match="trials"):
                a + b
            with pytest.raises(ShapeError, match="trials"):
                a.assoc_product(b)
        with pytest.raises(ShapeError):
            u.trial(0)

    def test_a_key_stays_until_zero_in_every_trial(self):
        a = HybridElement(2, 1, {(1, 0): PAULI_X, (0, 1): PAULI_Y})
        b = HybridElement(2, 1, {(1, 0): PAULI_Z, (0, 1): PAULI_Y})
        block = block_of(a, b)
        minus = block_of(HybridElement(2, 1, {(1, 0): -PAULI_X, (0, 1): -PAULI_Y}),
                         HybridElement(2, 1, {(1, 0): -PAULI_X, (0, 1): -PAULI_Y}))
        total = block + minus
        # (0, 1) cancels in both trials, (1, 0) only in trial 0
        assert list(total.terms) == [(1, 0)]
        assert total.trial(0).terms == {}
        assert list(total.trial(1).terms) == [(1, 0)]
        assert block.scale(0.0).terms == {}

    def test_block_operations_equal_trial_loops_bitwise(self):
        from hamalg.elements import monomials_up_to_degree
        rng = np.random.default_rng(8)

        def full():  # every trial on the same keys in the same order
            return HybridElement(2, 1, {e: rng.standard_normal((2, 2))
                                        + 1j * rng.standard_normal((2, 2))
                                        for e in monomials_up_to_degree(2, 2)})

        singles = [(full(), full()) for _ in range(3)]
        u, v = block_of(*(s[0] for s in singles)), block_of(*(s[1] for s in singles))
        c = qc_algebra(a=0.7, a12=1.9)
        ops = [lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x.scale(0.3),
               anderson, lambda x, y: x.assoc_product(y), c.sigma, c.alpha]
        for op in ops:
            got = op(u, v)
            assert got.trials == 3
            for t, (x, y) in enumerate(singles):
                assert_terms_bitwise(got.trial(t).terms, op(x, y).terms)


def matrix_unit_terms(x, l, r):
    """An l*r square matrix as simple tensors over the l x l matrix units:
    the pairs (E_ij, x's r x r block (i, j)), whose ``np.kron`` sum is x."""
    blocks = x.reshape(l, r, l, r).swapaxes(1, 2)
    terms = []
    for i in range(l):
        for j in range(l):
            unit = np.zeros((l, l), dtype=complex)
            unit[i, j] = 1
            terms.append((unit, blocks[i, j]))
    return terms


def definition_lr_table(u, v):
    """(LL, LR, RL, RR) of two single Kronecker elements by definition:
    with u = sum A (x) B and v = sum C (x) D over matrix units, the
    factorwise products of every pair of terms in each order, tensored
    with ``np.kron`` and added in turn."""
    l, r = u.left_dim, u.right_dim
    tables = [np.zeros((l * r, l * r), dtype=complex) for _ in range(4)]
    for A, B in matrix_unit_terms(u.entries, l, r):
        for C, D in matrix_unit_terms(v.entries, l, r):
            orders = ((A @ C, B @ D), (A @ C, D @ B), (C @ A, B @ D), (C @ A, D @ B))
            for table, (left, right) in zip(tables, orders):
                table += np.kron(left, right)
    return tuple(tables)


class TestMatrixBlocks:
    """Operator and Kronecker blocks against single elements, to the bit."""

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_lr_table_blocks_equal_single_trials_bitwise(self, l, r):
        from hamalg.compose import _lr_table

        n = l * r
        rng = np.random.default_rng([2, l, r])
        ent = rng.standard_normal((2, 5, n, n)) + 1j * rng.standard_normal((2, 5, n, n))
        u, v = (KroneckerElement._trusted(l, r, e) for e in ent)
        blocks = _lr_table(u, v)
        for t in range(5):
            for b, single in zip(blocks, _lr_table(u.trial(t), v.trial(t))):
                assert b[t].tobytes() == single.tobytes()

    def test_lr_table_equals_the_definition_on_exact_inputs(self):
        # small-integer entries: every product and sum on both sides is
        # exact in floats, so the tables agree to the bit, not just
        # closely; adding 0.0 only turns a -0.0, whose sign a matrix
        # product's summation order may set, into 0.0
        from hamalg.compose import _lr_table

        rng = np.random.default_rng(12)
        for l in range(1, 5):
            for r in range(1, 4):
                n = l * r
                ent = (rng.integers(-3, 4, (2, n, n))
                       + 1j * rng.integers(-3, 4, (2, n, n)))
                u, v = (KroneckerElement._trusted(l, r, e) for e in ent)
                for got, want in zip(_lr_table(u, v), definition_lr_table(u, v)):
                    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()

    def test_lr_table_is_near_the_definition_on_generic_inputs(self):
        from hamalg.compose import _lr_table

        rng = np.random.default_rng(13)
        for l in range(1, 5):
            for r in range(1, 4):
                n = l * r
                ent = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
                u, v = (KroneckerElement._trusted(l, r, e) for e in ent)
                bound = 1e-15 * (1 + u.norm() * v.norm())
                for got, want in zip(_lr_table(u, v), definition_lr_table(u, v)):
                    assert np.linalg.norm(got - want) <= bound

    def test_kron_blocks_matches_np_kron(self):
        from hamalg.compose import kron_blocks

        rng = np.random.default_rng(3)
        for l, r in [(1, 1), (1, 3), (2, 2), (3, 2), (4, 3)]:
            a = rng.standard_normal((4, l, l)) + 1j * rng.standard_normal((4, l, l))
            b = rng.standard_normal((4, r, r)) + 1j * rng.standard_normal((4, r, r))
            unit = np.eye(r, dtype=complex)
            for t in range(4):
                assert kron_blocks(a, b)[t].tobytes() == np.kron(a[t], b[t]).tobytes()
                assert kron_blocks(a, unit)[t].tobytes() == np.kron(a[t], unit).tobytes()
                assert kron_blocks(unit, a)[t].tobytes() == np.kron(unit, a[t]).tobytes()

    @pytest.mark.parametrize("make", [
        lambda e: OperatorElement._trusted(e),
        lambda e: KroneckerElement._trusted(2, e.shape[-1] // 2, e),
    ])
    def test_block_norms_equal_slice_norms_bitwise(self, make):
        rng = np.random.default_rng(4)
        for n in (2, 4, 6):
            big = rng.standard_normal((12, n, n)) + 1j * rng.standard_normal((12, n, n))
            views = [big, big[::3], big[1::2, ::-1], big.swapaxes(1, 2),
                     np.asfortranarray(big)]
            for entries in views:
                block = make(entries)
                norms = block.norm()
                assert norms.shape == (len(entries),)
                for t in range(len(entries)):
                    assert norms[t].tobytes() == np.float64(block.trial(t).norm()).tobytes()
            for t in range(12):   # |x|^2 of each entry added in turn, in C order
                assert make(big[t]).norm() == math.sqrt(sequential_sum(
                    x.real * x.real + x.imag * x.imag for x in big[t].ravel().tolist()))

    def test_hybrid_block_norms_equal_slice_norms_bitwise(self):
        from hamalg.compose import random_hybrid_observable

        rng = np.random.default_rng(6)
        u = random_hybrid_observable(rng, dim=3, num_pairs=1, degree=2, block=(7, 1))[0]
        strided = HybridElement._trusted(u.exps, u.coeffs[..., ::2])
        flipped = HybridElement._trusted(u.exps, u.coeffs.swapaxes(1, 2)[:, ::-1])
        for block in (u, strided, flipped):
            norms = block.norm()
            for t in range(block.trials):
                single = block.trial(t)
                want = math.sqrt(sequential_sum(
                    x.real * x.real + x.imag * x.imag
                    for m in single.terms.values() for x in m.ravel().tolist()))
                assert norms[t].tobytes() == np.float64(single.norm()).tobytes()
                assert single.norm() == want
        assert HybridElement(2, 1, {}).norm() == 0.0
        empty = HybridElement._trusted(np.empty((0, 2), np.int64),
                                       np.empty((0, 2, 2, 3), np.complex128))
        assert empty.norm().tolist() == [0.0, 0.0, 0.0]

    def test_mixing_blocks_and_elements_is_refused(self):
        rng = np.random.default_rng(7)
        for alg in (OperatorAlgebra(2, a=0.25), qq_algebra()):
            u = alg.random_element(rng)
            two = alg.random_element(rng, block=(2, 1))[0]
            three = alg.random_element(rng, block=(3, 1))[0]
            for a, b in ((u, two), (two, u), (two, three)):
                with pytest.raises(ShapeError, match="trials"):
                    a + b
                with pytest.raises(ShapeError, match="trials"):
                    alg.alpha(a, b)
            with pytest.raises(ShapeError):
                u.trial(0)
            assert two.trial(1).trials is None and "trials=2" in repr(two)


class TestKroneckerIsAnOperator:
    """A Kronecker element is an operator element with a factor layout: each
    operation gives the operator's entries, keeps the layout, and never
    mixes the two classes."""

    OPS = {
        "add": lambda x, y: x + y,
        "sub": lambda x, y: x - y,
        "neg": lambda x, y: -x,
        "scale": lambda x, y: x.scale(0.3 - 0.2j),
        "mul": lambda x, y: x * 1.7,
        "rmul": lambda x, y: -2.5 * x,
        "trial": lambda x, y: x.trial(1),
    }

    @pytest.mark.parametrize("name", list(OPS))
    def test_operations_keep_the_layout_and_the_operator_entries(self, name):
        op = self.OPS[name]
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal((2, 3, 6, 6)) + 1j * rng.standard_normal((2, 3, 6, 6))
        got = op(KroneckerElement._trusted(2, 3, a), KroneckerElement._trusted(2, 3, b))
        want = op(OperatorElement._trusted(a), OperatorElement._trusted(b))
        assert type(got) is KroneckerElement and type(want) is OperatorElement
        assert (got.left_dim, got.right_dim, got.dim) == (2, 3, 6)
        assert got.trials == want.trials
        assert got.entries.tobytes() == want.entries.tobytes()

    def test_operator_and_kronecker_never_mix(self):
        k = KroneckerElement(2, 2, np.eye(4))
        o = OperatorElement(np.eye(4))
        for x, y in ((k, o), (o, k)):
            for op in (lambda: x + y, lambda: x - y):
                with pytest.raises(ShapeError, match=f"expected {type(x).__name__}, "
                                                     f"got {type(y).__name__}"):
                    op()
        with pytest.raises(ShapeError, match="component dimensions"):
            KroneckerElement(2, 3, np.eye(6)) + KroneckerElement(3, 2, np.eye(6))

    def test_simple_tensor_refuses_a_kronecker_factor(self):
        k = KroneckerElement(2, 2, np.eye(4))
        o = OperatorElement(np.eye(2))
        for f, g in ((k, o), (o, k), (k, k), (k, PhaseSpacePoly.unit(1))):
            with pytest.raises(AlgebraError, match="unsupported tensor pairing"):
                simple_tensor(f, g)

    def test_operator_algebra_refuses_kronecker_elements(self, rng):
        alg = OperatorAlgebra(4, a=0.25)
        k = KroneckerElement(2, 2, np.eye(4))
        block = qq_algebra().random_element(rng, block=(3, 1))[0]
        for op in (alg.sigma, alg.alpha, alg.tau):
            for f, g in ((k, k), (block, block)):
                with pytest.raises(ShapeError, match="expected OperatorElement, "
                                                     "got KroneckerElement"):
                    op(f, g)
            with pytest.raises(ShapeError):
                op(OperatorElement(np.eye(4)), k)


class TestTermPairEngine:
    """The batched engine against the literal term-pair loops it replaced,
    to the bit: same keys in the same order, equal matrices."""

    @staticmethod
    def qc_products(dim, num_pairs, a=0.7, a12=1.9):
        c = qc_algebra(a=a, a12=a12, dim=dim, pairs=num_pairs)
        h1 = c.left.constant.hbar
        c1 = h1 / c.constant.hbar
        return [
            (lambda u, v: u.assoc_product(v), coefficient_product),
            (c.sigma, lambda A, B: 0.5 * (coefficient_product(A, B)
                                          + coefficient_product(B, A))),
            (c.alpha, lambda A, B: c1 * (coefficient_product(A, B)
                                         - coefficient_product(B, A)) / (1j * h1)),
        ]

    @pytest.mark.parametrize("num_pairs", [1, 2])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_loop_bitwise(self, dim, num_pairs):
        rng = np.random.default_rng([dim, num_pairs])
        for op, combine in self.qc_products(dim, num_pairs):
            for _ in range(3):
                u = random_hybrid(rng, dim, num_pairs, 2)
                v = random_hybrid(rng, dim, num_pairs, 3)
                assert_terms_bitwise(op(u, v).terms, loop_term_pairs(u, v, combine))

    def test_matches_loop_bitwise_over_several_blocks(self):
        # 126 x 126 term pairs: more than one block of rows
        rng = np.random.default_rng(3)
        u = random_hybrid(rng, 2, 2, 5, density=1.0)
        v = random_hybrid(rng, 2, 2, 5, density=1.0)
        assert_terms_bitwise(u.assoc_product(v).terms,
                             loop_term_pairs(u, v, coefficient_product))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_empty_operand(self, dim):
        rng = np.random.default_rng(dim)
        u = random_hybrid(rng, dim, 1, 2, density=1.0)
        empty = HybridElement(dim, 1, {})
        for op, _ in self.qc_products(dim, 1):
            assert op(u, empty).terms == {}
            assert op(empty, u).terms == {}

    def test_cancelled_key_is_pruned(self):
        # (X x1 + Y p1)(X p1 - Y x1): the x1 p1 coefficient X X - Y Y is 0
        u = HybridElement(2, 1, {(1, 0): PAULI_X, (0, 1): PAULI_Y})
        v = HybridElement(2, 1, {(0, 1): PAULI_X, (1, 0): -PAULI_Y})
        want = loop_term_pairs(u, v, coefficient_product)
        assert list(want) == [(2, 0), (0, 2)]
        assert_terms_bitwise(u.assoc_product(v).terms, want)
        c = qc_algebra()
        single = HybridElement(2, 1, {(1, 0): PAULI_X})
        assert c.alpha(single, single).terms == {}

    def test_results_are_read_only(self, rng):
        u, v = random_hybrid(rng, 2, 1, 2), random_hybrid(rng, 2, 1, 2)
        for m in u.assoc_product(v).terms.values():
            assert not m.flags.writeable

    def test_key_space_past_int64_matches_loop(self):
        # the loops summed Python ints: radix 2**21 + 1 on 4 variables
        # gives a box past int64, so the engine sorts exponent rows
        u = HybridElement(2, 2, {(2 ** 20,) * 4: PAULI_X, (2 ** 20, 0, 1, 2): PAULI_Y})
        radix = kernels.product_box(u.exps, u.exps)
        assert math.prod(radix.tolist()) > np.iinfo(np.int64).max
        assert kernels.route(radix, len(u) ** 2) == "sorted"
        for op, combine in self.qc_products(2, 2):
            assert_terms_bitwise(op(u, u).terms, loop_term_pairs(u, u, combine))

    def test_weight_overflow_is_rejected(self):
        # exponents near 2**32: a Poisson weight x_a p_b would pass int64
        u = HybridElement(2, 2, {(2 ** 32,) * 4: PAULI_X})
        for op, _ in self.qc_products(2, 2):
            with pytest.raises(ShapeError):
                op(u, u)


def coefficient_stacks(rng, d, trials, special):
    """(A, B) stacks (Na, d, d, trials) and (Nb, d, d, trials) of complex
    coefficients in several memory layouts, with ``special`` put in a few
    entries of each."""
    def draw(n, t=trials):
        x = rng.standard_normal((n, d, d, t)) + 1j * rng.standard_normal((n, d, d, t))
        for value in special:
            x.flat[rng.integers(x.size, size=2)] = value
        return x

    a, b = draw(3), draw(4)
    wide = draw(3, 2 * trials)
    return [
        (a, b),                                          # contiguous
        (a[:1], b[:1]),                                  # length 1
        (a.swapaxes(1, 2), b.swapaxes(1, 2)),            # transposed
        (wide[..., ::2], b),                             # trial-strided
        (np.broadcast_to(a[..., :1], a.shape), b),       # broadcast over trials
        (np.asfortranarray(a), b[::-1]),                 # Fortran order, reversed
    ]


class TestCoefficientProduct:
    """``coefficient_product``: roundoff-close to ``@``, and the same bits
    for a pair in a batch as alone, whatever the layout."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_matmul_within_roundoff(self, d):
        rng = np.random.default_rng(d)
        A = rng.standard_normal((5, 1, 3, d, d)) + 1j * rng.standard_normal((5, 1, 3, d, d))
        B = rng.standard_normal((1, 6, 3, d, d)) + 1j * rng.standard_normal((1, 6, 3, d, d))
        got = coefficient_product(np.moveaxis(A, 2, -1), np.moveaxis(B, 2, -1))
        assert got.shape == (5, 6, d, d, 3)
        scale = np.abs(A) @ np.abs(B)  # sum_k |A_ik| |B_kj|
        assert np.all(np.abs(np.moveaxis(got, -1, 2) - A @ B)
                      <= 4 * d * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_equals_matmul_on_gaussian_integers_bitwise(self, d):
        # small Gaussian integers: every sum of products is exact, in any
        # order, so the product is ``@``'s to the bit, whatever the layout;
        # only the sign of an exact zero, which the order sets, may differ
        rng = np.random.default_rng([d, 5])
        for a, b in coefficient_stacks(rng, d, 3, ()):
            a, b = (np.round(4 * x) for x in (a, b))
            got = coefficient_product(a[:, None], b[None])
            want = np.moveaxis(np.moveaxis(a, -1, 1)[:, None] @ np.moveaxis(b, -1, 1)[None],
                               2, -1)
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes()

    @pytest.mark.parametrize("special", [(), (-0.0,), (np.inf, -np.inf), (np.nan,),
                                         (-0.0, np.inf, np.nan)])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_batched_equals_each_pair_alone_bitwise(self, d, special):
        rng = np.random.default_rng([d, len(special)])
        with np.errstate(invalid="ignore", over="ignore"):
            for a, b in coefficient_stacks(rng, d, 3, special):
                got = coefficient_product(a[:, None], b[None])
                for i, j, t in np.ndindex(len(a), len(b), 3):
                    alone = pair_product(a[i, ..., t], b[j, ..., t])
                    assert_nan_alike(got[i, j, ..., t], alone)

    @pytest.mark.parametrize("trials", [1, 3, 256])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_trial_runs_equal_each_trial_alone_bitwise(self, d, trials):
        # the product on contiguous runs of trials against the same product
        # on each trial's (rows, Nb, d, d) stacks, whose innermost axis is a
        # matrix axis: a numpy build that fused the multiply and add of its
        # contiguous loops would round them differently
        rng = np.random.default_rng([d, trials])
        with np.errstate(invalid="ignore", over="ignore"):
            for a, b in coefficient_stacks(rng, d, trials, (-0.0, np.inf, -np.inf, np.nan)):
                got = coefficient_product(a[:, None], b[None])
                assert got.shape == (len(a), len(b), d, d, trials)
                for t in range(trials):
                    alone = coefficient_product(np.ascontiguousarray(a[:, None, ..., t]),
                                                np.ascontiguousarray(b[None, ..., t]))
                    assert_nan_alike(got[..., t], alone)

    def test_k_ascending_from_the_k0_term(self):
        # (1 + 1e16) - 1e16 is 0 in doubles, 1 summed the other way round
        A = np.array([[1.0, 1e16, -1e16]] * 3, dtype=complex)
        B = np.ones((3, 3), dtype=complex)
        assert np.all(pair_product(A, B) == 0)
        # the sum starts at the k = 0 term, not at +0.0: -0.0 stays
        zero = pair_product(np.ones((1, 1), dtype=complex),
                            np.full((1, 1), complex(-0.0, 0.0)))
        assert np.signbit(zero.real).all()
