import math

import numpy as np
import pytest

from hamalg import (
    AlgebraError,
    ComposedAlgebra,
    OperatorAlgebra,
    PhaseSpaceAlgebra,
    restrict_alpha,
    scan_constants,
    simple_tensor,
    uniqueness_check,
)


def composed(a1, a2, a12, d1=2, d2=2):
    return ComposedAlgebra(OperatorAlgebra(d1, a=a1),
                           OperatorAlgebra(d2, a=a2), a12=a12)


#: (a1, a2, a12), (dim1, dim2) of the restriction-fit cases
FIT_CASES = [
    ((1.0, 1.0, 1.0), (2, 2)),
    ((1.0, 2.0, 1.5), (2, 3)),
    ((0.25, 4.0, 1.0), (3, 2)),
    ((4.0, 0.25, 0.5), (1, 2)),
]


def fit_runs(c):
    """(component, MIN_FIT_PAIRS, seed) of each fit of a case: two pair
    counts on each component whose bracket does not vanish."""
    return [(component, n_pairs, seed)
            for component in ("left", "right")
            if (c.left if component == "left" else c.right).dim > 1
            for n_pairs, seed in ((8, 0), (13, 5))]


def ulp_distance(x, y):
    """Distance of two positive floats in units in the last place."""
    return abs(int(np.float64(x).view(np.int64)) - int(np.float64(y).view(np.int64)))


class TestBlockFit:
    """The fit reduces over all pairs at once: the same verdict whatever
    the block size, and the closed-form factor within a few ulp."""

    @pytest.mark.parametrize("constants, dims", FIT_CASES)
    def test_fit_does_not_depend_on_the_block_size(self, constants, dims, monkeypatch):
        from hamalg import identities, uniqueness
        from hamalg.identities import block_trials

        c = composed(*constants, *dims)
        for component, n_pairs, seed in fit_runs(c):
            monkeypatch.setattr(uniqueness, "MIN_FIT_PAIRS", n_pairs)
            assert block_trials(c) >= n_pairs   # one block at the default
            whole = restrict_alpha(c, component, seed, 1e-8)
            # blocks of 3, 3 and a short last one (and 3, 3, 3, 3 and 1)
            with monkeypatch.context() as patch:
                patch.setattr(identities, "MAX_BLOCK_TRIALS", 3)
                assert block_trials(c) == 3
                assert restrict_alpha(c, component, seed, 1e-8) == whole

    @pytest.mark.parametrize("constants, dims", FIT_CASES)
    def test_measured_factor_is_within_4_ulp_of_the_closed_form(self, constants, dims,
                                                                monkeypatch):
        from hamalg import uniqueness

        c = composed(*constants, *dims)
        for component, n_pairs, seed in fit_runs(c):
            monkeypatch.setattr(uniqueness, "MIN_FIT_PAIRS", n_pairs)
            got = restrict_alpha(c, component, seed, 1e-8)
            a = c.a1 if component == "left" else c.a2
            assert ulp_distance(got["measured_factor"], math.sqrt(a) / math.sqrt(c.a12)) <= 4


class TestRestrictAlpha:
    def test_left_factor_matches_closed_form(self):
        res = restrict_alpha(composed(1.0, 4.0, 4.0), "left", 0, 1e-8)
        assert res["expected_factor"] == pytest.approx(0.5)
        assert res["measured_factor"] == pytest.approx(0.5, abs=1e-10)
        assert not res["satisfies_requirement"]

    def test_unit_factor_when_constants_match(self):
        res = restrict_alpha(composed(2.25, 1.0, 2.25), "left", 0, 1e-8)
        assert res["measured_factor"] == pytest.approx(1.0, abs=1e-10)
        assert res["satisfies_requirement"]

    def test_right_component(self):
        res = restrict_alpha(composed(1.0, 9.0, 9.0), "right", 0, 1e-8)
        assert res["measured_factor"] == pytest.approx(1.0, abs=1e-10)
        res = restrict_alpha(composed(1.0, 4.0, 9.0), "right", 0, 1e-8)
        assert res["measured_factor"] == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_factor_law_over_grid(self):
        for a1 in (0.25, 1.0):
            for a12 in (0.5, 2.0):
                res = restrict_alpha(composed(a1, 1.0, a12), "left", 0, 1e-8)
                assert abs(res["measured_factor"] - math.sqrt(a1 / a12)) <= 1e-10

    def test_fit_residual_small(self):
        res = restrict_alpha(composed(0.25, 2.0, 5.0), "left", 0, 1e-8)
        assert res["fit_residual"] <= 1e-10

    @pytest.mark.parametrize("constants", [(1e6, 1.0, 1e-6), (1.0, 1e10, 1e-10),
                                           (1e-10, 1.0, 1e10)])
    def test_residual_does_not_grow_with_the_factor(self, constants):
        # divided by the fitted values' norm, not the reference's, the
        # residual is the relative misfit whatever lambda is
        v = uniqueness_check(*constants, 1e-8, 0)
        assert not v["passed"]
        for side in ("left", "right"):
            assert v[side]["fit_residual"] <= 1e-14

    def test_extreme_factors_are_finite(self):
        # sqrt(a1 / a12) = 1e300 is a float although a1 / a12 is not
        v = uniqueness_check(1e300, 1.0, 1e-300, 1e-8, 0)
        assert v["left"]["expected_factor"] == pytest.approx(1e300, rel=1e-15)
        assert v["right"]["expected_factor"] == pytest.approx(1e150, rel=1e-15)
        for side in ("left", "right"):
            assert v[side]["measured_factor"] == pytest.approx(v[side]["expected_factor"])

    def test_relative_misfit_raises_at_a_small_factor(self, monkeypatch):
        # a 1e-6 relative miss at lambda = 1e-10 read 1e-16 relative to
        # the reference; relative to the fitted values it reads ~1e-6
        c = composed(1e-10, 1.0, 1e10)
        assert restrict_alpha(c, "left", 0, 1e-8)["fit_residual"] <= 1e-14
        exact = ComposedAlgebra.alpha
        skew = 1 + 1e-6 * np.arange(16).reshape(4, 4)
        monkeypatch.setattr(ComposedAlgebra, "alpha",
                            lambda self, u, v: u._derived(exact(self, u, v).entries * skew))
        with pytest.raises(AlgebraError, match="not proportional"):
            restrict_alpha(c, "left", 0, 1e-8)

    def test_nan_fit_raises(self, monkeypatch):
        monkeypatch.setattr(ComposedAlgebra, "alpha",
                            lambda self, u, v: u._derived(np.full_like(u.entries, np.nan)))
        with pytest.raises(AlgebraError, match="residual nan"):
            restrict_alpha(composed(1.0, 1.0, 1.0), "left", 0, 1e-8)

    def test_rejects_hybrid_composition(self):
        hybrid = ComposedAlgebra(OperatorAlgebra(2, a=0.25),
                                 PhaseSpaceAlgebra(1, 3), a12=0.25)
        with pytest.raises(AlgebraError):
            restrict_alpha(hybrid, "left", 0, 1e-8)

    def test_vanishing_bracket_raises_instead_of_hanging(self, monkeypatch):
        # a dim-1 bracket is identically zero, so there is nothing to fit:
        # the component is refused before any pair is drawn
        draws = []
        monkeypatch.setattr(OperatorAlgebra, "random_element",
                            lambda *args, **kwargs: draws.append(args))
        c = composed(1.0, 1.0, 1.0, 1, 2)
        with pytest.raises(AlgebraError, match="left component has dim 1"):
            restrict_alpha(c, "left", 0, 1e-8)
        assert draws == []

    def test_rejects_bad_component_name(self):
        with pytest.raises(AlgebraError):
            restrict_alpha(composed(1, 1, 1), "middle", 0, 1e-8)


class TestRestrictSigma:
    def test_unit_pair_maps_to_unit(self):
        c = composed(1.0, 4.0, 9.0)
        e = c.unit()
        assert (c.sigma(e, e) - e).norm() <= 1e-14


class TestTauRestriction:
    def test_tau_restricts_to_component_product(self, rng):
        c = composed(1.0, 4.0, 9.0)
        e2 = c.right.unit()
        f, g = c.left.random_element(rng), c.left.random_element(rng)
        got = c.tau(simple_tensor(f, e2), simple_tensor(g, e2))
        expected = simple_tensor(c.left.tau(f, g), e2)
        assert (got - expected).norm() <= 1e-12 * (1 + f.norm() * g.norm())


class TestUniquenessCheck:
    def test_diagonal_passes(self):
        assert uniqueness_check(1.0, 1.0, 1.0, 1e-8, 0)["passed"]
        assert uniqueness_check(2.25, 2.25, 2.25, 1e-8, 0)["passed"]

    def test_off_diagonal_fails_with_known_factors(self):
        v = uniqueness_check(1.0, 4.0, 9.0, 1e-8, 0)
        assert not v["passed"]
        assert v["left"]["measured_factor"] == pytest.approx(1 / 3, abs=1e-10)
        assert v["right"]["measured_factor"] == pytest.approx(2 / 3, abs=1e-10)

    def test_verdict_equivalence(self):
        # passes iff both constants match a12 within tolerance
        for a1, a2, a12 in [(1, 1, 1.0000000001), (1, 1, 2), (2, 1, 2), (1, 2, 2)]:
            v = uniqueness_check(a1, a2, a12, tolerance=1e-8, seed=0)
            expected = (abs(math.sqrt(a1 / a12) - 1) <= 1e-8
                        and abs(math.sqrt(a2 / a12) - 1) <= 1e-8)
            assert v["passed"] == expected, (a1, a2, a12)

    def test_rejects_nonpositive_constants(self):
        with pytest.raises(AlgebraError):
            uniqueness_check(0.0, 1.0, 1.0, 1e-8, 0)


class TestScan:
    def test_pass_set_is_exactly_the_diagonal(self):
        values = np.geomspace(0.25, 4.0, 3)  # 27 triples, keeps the test fast
        verdicts = scan_constants(values, 1e-8, 0)
        for v in verdicts:
            on_diagonal = v["a1"] == v["a2"] == v["a12"]
            assert v["passed"] == on_diagonal, v
        assert sum(v["passed"] for v in verdicts) == 3
