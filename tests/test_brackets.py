import contextlib
import functools
import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamalg import (
    AlgebraError,
    ComposedAlgebra,
    HybridElement,
    MixedBracketKind,
    OperatorAlgebra,
    PhaseSpaceAlgebra,
    PhaseSpacePoly,
    find_violation_witness,
    measure_defects,
    mixed_bracket,
    simple_tensor,
)
from hamalg import brackets
from hamalg.brackets import (
    DESIDERATA,
    VIOLATION_THRESHOLD,
    BracketAlgebra,
    random_hybrid_observable,
)
from hamalg.compose import coefficient_product
from hamalg.elements import monomials_up_to_degree
from hamalg import cli, identities, kernels
from hamalg.cli import _load_schema
from hamalg.algebra import relative_defect
from hamalg.identities import Identity, identity_defect
from hamalg.errors import ShapeError
from hamalg.reference import (
    dense_hybrid_add,
    dense_hybrid_mul,
    dense_hybrid_norm,
    dense_mixed_bracket,
    hybrid_json_to_dense,
    replay_defect,
)
from hamalg.serialize import element_from_json, element_to_json
from tests.helpers import (
    FORCED_ROUTES,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    TIES_AND_NANS,
    assert_nan_alike,
    assert_terms_bitwise,
    loop_defects,
    loop_desideratum_defect,
    loop_draws,
    loop_find_violation_witness,
    loop_measure_defects,
    loop_term_pairs,
    random_hybrid,
)

HBAR = 1.0


def hybrid_xy():
    """u = X (x) x1, v = Y (x) p1 as hybrid observables."""
    x = PhaseSpacePoly.variable(1, "x1")
    p = PhaseSpacePoly.variable(1, "p1")
    X = HybridElement(2, 1, {(1, 0): PAULI_X})
    Y = HybridElement(2, 1, {(0, 1): PAULI_Y})
    return x, p, X, Y


class TestBracketValues:
    def test_hybrid_on_simple_products(self):
        _, _, u, v = hybrid_xy()
        out = mixed_bracket(MixedBracketKind.HYBRID_PAPER, u, v, hbar=HBAR)
        # [X, Y]^- (x) x p, nothing else
        comm = (PAULI_X @ PAULI_Y - PAULI_Y @ PAULI_X) / (1j * HBAR)
        assert set(out.terms) == {(1, 1)}
        assert np.allclose(out.terms[(1, 1)], comm)

    def test_product_rule_on_simple_products(self):
        # A = X, B = X + Y so both the commutator and the anticommutator
        # parts are nonzero
        A, B = PAULI_X, PAULI_X + PAULI_Y
        u = HybridElement(2, 1, {(1, 0): A})
        v = HybridElement(2, 1, {(0, 1): B})
        out = mixed_bracket(MixedBracketKind.BOUCHER_TRASCHEN, u, v, hbar=HBAR)
        comm = (A @ B - B @ A) / (1j * HBAR)
        anti = 0.5 * (A @ B + B @ A)
        # x p [A,B]^- + {x, p}_P [A,B]^+ with {x,p}_P = 1
        assert set(out.terms) == {(1, 1), (0, 0)}
        assert np.allclose(out.terms[(1, 1)], comm)
        assert np.allclose(out.terms[(0, 0)], anti)

    def test_product_rule_poisson_term_drops_for_commuting_pair(self):
        # for X, Y the anticommutator vanishes, so only the commutator
        # term survives and the zero coefficient is pruned
        _, _, u, v = hybrid_xy()
        out = mixed_bracket(MixedBracketKind.BOUCHER_TRASCHEN, u, v, hbar=HBAR)
        comm = (PAULI_X @ PAULI_Y - PAULI_Y @ PAULI_X) / (1j * HBAR)
        assert set(out.terms) == {(1, 1)}
        assert np.allclose(out.terms[(1, 1)], comm)

    def test_equal_arguments(self, rng):
        u = random_hybrid_observable(rng, degree=2)
        assert mixed_bracket(MixedBracketKind.BOUCHER_TRASCHEN, u, u, hbar=HBAR).norm() \
            <= 1e-13 * (1 + u.norm() ** 2)
        assert mixed_bracket(MixedBracketKind.ALEKSANDROV, u, u, hbar=HBAR).norm() \
            <= 1e-13 * (1 + u.norm() ** 2)
        assert mixed_bracket(MixedBracketKind.HYBRID_PAPER, u, u, hbar=HBAR).norm() \
            <= 1e-13 * (1 + u.norm() ** 2)
        # the unsymmetrized Poisson term survives on equal arguments
        anderson = mixed_bracket(MixedBracketKind.ANDERSON, u, u, hbar=HBAR)
        assert anderson.norm() > 1e-6

    @pytest.mark.parametrize("kind, poisson_part", [
        # [A, B]- = Z on x p for every kind; {x, p}_P = 1 carries the
        # Poisson part: (AB + BA)/2 = I, AB = I + iZ, or nothing
        (MixedBracketKind.BOUCHER_TRASCHEN, np.eye(2)),
        (MixedBracketKind.ALEKSANDROV, np.eye(2)),
        (MixedBracketKind.ANDERSON, np.eye(2) + 1j * PAULI_Z),
        (MixedBracketKind.HYBRID_PAPER, None),
    ])
    def test_hand_worked_values(self, kind, poisson_part):
        # A = X on x, B = X + Y on p, hbar 2: AB = I + iZ, BA = I - iZ, so
        # (AB - BA)/(2i) = Z; every product, sum and quotient is exact
        A, B = PAULI_X, PAULI_X + PAULI_Y
        u = HybridElement(2, 1, {(1, 0): A})
        v = HybridElement(2, 1, {(0, 1): B})
        want = {(1, 1): PAULI_Z}
        if poisson_part is not None:
            want[(0, 0)] = poisson_part
        got = mixed_bracket(kind, u, v, hbar=2.0).terms
        assert list(got) == list(want)
        for e, m in want.items():
            assert np.array_equal(got[e], m)
        # written the other way round, {p, x}_P = -1 and Anderson's part is
        # BA = I - iZ: -(I - iZ) on the unit monomial
        back = mixed_bracket(kind, v, u, hbar=2.0).terms
        assert np.array_equal(back[(1, 1)], -PAULI_Z)
        if kind is MixedBracketKind.ANDERSON:
            assert np.array_equal(back[(0, 0)], -(np.eye(2) - 1j * PAULI_Z))
        elif poisson_part is not None:
            assert np.array_equal(back[(0, 0)], -poisson_part)

    def test_hybrid_matches_composed_bracket(self, rng):
        a, hbar = 1.0, 2.0
        hybrid_alg = ComposedAlgebra(OperatorAlgebra(2, a=a),
                                     PhaseSpaceAlgebra(1, max_random_degree=2), a12=a)
        for _ in range(5):
            u = random_hybrid_observable(rng, degree=2)
            v = random_hybrid_observable(rng, degree=2)
            via_bracket = mixed_bracket(MixedBracketKind.HYBRID_PAPER, u, v, hbar=hbar)
            via_compose = hybrid_alg.alpha(u, v)
            assert (via_bracket - via_compose).norm() \
                <= 1e-12 * (1 + u.norm() * v.norm())

    def test_hbar_validation(self, rng):
        u = random_hybrid_observable(rng)
        with pytest.raises(AlgebraError):
            mixed_bracket(MixedBracketKind.HYBRID_PAPER, u, u, hbar=0.0)


class TestDefectProfiles:
    def test_expected_patterns(self):
        bt, _ = measure_defects(MixedBracketKind.BOUCHER_TRASCHEN, trials=60, seed=0, hbar=HBAR)
        assert bt["antisymmetry_defect"] <= 1e-12
        assert bt["jacobi_defect"] > VIOLATION_THRESHOLD
        assert bt["derivation_defect"] > VIOLATION_THRESHOLD
        assert bt["matches_expected_pattern"]

        al, _ = measure_defects(MixedBracketKind.ALEKSANDROV, trials=60, seed=0, hbar=HBAR)
        assert al["antisymmetry_defect"] <= 1e-12
        assert al["jacobi_defect"] > VIOLATION_THRESHOLD

        an, _ = measure_defects(MixedBracketKind.ANDERSON, trials=60, seed=0, hbar=HBAR)
        assert an["antisymmetry_defect"] > VIOLATION_THRESHOLD
        assert an["matches_expected_pattern"]

        hy, _ = measure_defects(MixedBracketKind.HYBRID_PAPER, trials=60, seed=0, hbar=HBAR)
        assert hy["antisymmetry_defect"] <= 1e-10
        assert hy["jacobi_defect"] <= 1e-10
        assert hy["derivation_defect"] <= 1e-10
        assert hy["matches_expected_pattern"]

    def test_determinism(self):
        a, _ = measure_defects(MixedBracketKind.ANDERSON, trials=20, seed=3, hbar=HBAR)
        b, _ = measure_defects(MixedBracketKind.ANDERSON, trials=20, seed=3, hbar=HBAR)
        assert a["jacobi_defect"] == b["jacobi_defect"]
        assert a["witnesses"] == b["witnesses"]

    def test_anderson_ordering_note_in_report(self):
        an, _ = measure_defects(MixedBracketKind.ANDERSON, trials=5, seed=0, hbar=HBAR)
        assert any("order" in note for note in an["notes"])

    @pytest.mark.parametrize("kind", list(MixedBracketKind))
    def test_entries_validate_as_report_defects(self, kind):
        schema = _load_schema()
        entry_schema = {"$ref": "#/$defs/defect_triple", "$defs": schema["$defs"]}
        entry, _ = measure_defects(kind, trials=3, seed=2, hbar=0.7)
        jsonschema.validate(entry, entry_schema)
        assert list(entry) == ["kind", "trials", "seed", "antisymmetry_defect",
                               "jacobi_defect", "derivation_defect", "witnesses",
                               "matches_expected_pattern", "notes"]
        assert (entry["kind"], entry["trials"], entry["seed"]) == (kind.value, 3, 2)
        assert list(entry["witnesses"]) == list(DESIDERATA)


class TestWitnessSearch:
    def test_product_rule_jacobi_witness_found(self):
        _, scans = measure_defects(MixedBracketKind.BOUCHER_TRASCHEN, trials=1, seed=0, hbar=HBAR)
        w = find_violation_witness(scans, "jacobi", budget=1000)
        assert w is not None
        assert w["defect"] > VIOLATION_THRESHOLD

    def test_hybrid_yields_no_witness(self):
        _, scans = measure_defects(MixedBracketKind.HYBRID_PAPER, trials=1, seed=0, hbar=HBAR)
        assert find_violation_witness(scans, "jacobi", budget=1000) is None
        for d in ("antisymmetry", "derivation"):
            assert find_violation_witness(scans, d, budget=200) is None

    def test_anderson_antisymmetry_witness_found(self):
        _, scans = measure_defects(MixedBracketKind.ANDERSON, trials=1, seed=0, hbar=HBAR)
        w = find_violation_witness(scans, "antisymmetry", budget=1000)
        assert w is not None
        assert w["defect"] > VIOLATION_THRESHOLD

    def test_witness_replays_through_main_path(self):
        _, scans = measure_defects(MixedBracketKind.BOUCHER_TRASCHEN, trials=1, seed=0, hbar=HBAR)
        w = find_violation_witness(scans, "jacobi", budget=100)
        replayed = identity_defect(BracketAlgebra(w["kind"], HBAR), w["desideratum"],
                                   [element_from_json(e) for e in w["elements"]])
        assert replayed == pytest.approx(w["defect"], rel=1e-12)

    def test_witness_replays_through_dense_oracle(self):
        for kind, desideratum in ((MixedBracketKind.BOUCHER_TRASCHEN, "jacobi"),
                                  (MixedBracketKind.ANDERSON, "antisymmetry"),
                                  (MixedBracketKind.ALEKSANDROV, "jacobi")):
            _, scans = measure_defects(kind, trials=1, seed=0, hbar=HBAR)
            w = find_violation_witness(scans, desideratum, budget=200)
            assert w is not None
            replayed = replay_defect(w, hbar=HBAR)
            assert abs(replayed - w["defect"]) <= 1e-10 * max(1.0, w["defect"])

    def test_budget_validation(self):
        _, scans = measure_defects(MixedBracketKind.ANDERSON, trials=1, seed=0, hbar=HBAR)
        with pytest.raises(AlgebraError):
            find_violation_witness(scans, "jacobi", budget=0)


class TestDenseOracleAgreement:
    @pytest.mark.parametrize("kind", list(MixedBracketKind))
    @pytest.mark.parametrize("desideratum", ["antisymmetry", "jacobi", "derivation"])
    def test_main_path_matches_dense_expansion(self, kind, desideratum, rng):
        arity = 2 if desideratum == "antisymmetry" else 3
        elements = [random_hybrid_observable(rng, degree=2) for _ in range(arity)]
        main = identity_defect(BracketAlgebra(kind, HBAR), desideratum, elements)
        witness = {
            "kind": kind.value,
            "desideratum": desideratum,
            "elements": [element_to_json(e) for e in elements],
        }
        dense = replay_defect(witness, hbar=HBAR)
        assert abs(main - dense) <= 1e-10 * max(1.0, main)


def engine_ops(hbar):
    """Every mixed bracket and the associative product, as maps of (u, v)."""
    return [functools.partial(mixed_bracket, kind, hbar=hbar) for kind in MixedBracketKind] \
        + [lambda u, v: u.assoc_product(v)]


def engine_routes(u, v):
    """The slotting routes of the term-pair engine on u and v, for the
    plain term pairs and with the canonical pairs' Poisson terms."""
    radix = kernels.product_box(u.exps, v.exps)
    pairs = len(u) * len(v)
    return {kernels.route(radix, pairs * (1 + u.num_pairs * poisson))
            for poisson in (False, True)}


ROUTES = tuple(FORCED_ROUTES)


@contextlib.contextmanager
def forced_route(route):
    """Every term-pair sum and term sum inside slotted by ``route``, by the
    dense route's limits."""
    per_pair, box_slots = FORCED_ROUTES[route]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "DENSE_SLOTS_PER_PAIR", per_pair)
        mp.setattr(kernels, "DENSE_BOX_SLOTS", box_slots)
        yield


def gaussian_integers(u, rng):
    """u's terms with Gaussian-integer coefficients, on which every sum of
    products is exact."""
    parts = rng.integers(-3, 4, (2,) + u.coeffs.shape).astype(float)
    return HybridElement._trusted(u.exps, parts[0] + 1j * parts[1])


def with_far_term(u):
    """u plus one last term far out in its box, which leaves the box sparse."""
    far = np.full((1,) + u.coeffs.shape[1:], 0.5 + 0.25j)
    return HybridElement._trusted(np.vstack([u.exps, np.full_like(u.exps[:1], 60)]),
                                  np.concatenate([u.coeffs, far]))


def spread_past_int64(u):
    """A one-pair u on four canonical pairs: each exponent tuple repeated
    four times and raised by 400, so its box passes int64."""
    return HybridElement._trusted(np.tile(u.exps, 4) + 400, u.coeffs)


def route_cases(u, v):
    """(u, v, route) for each route of the engine, from one-pair u and v
    whose box the term pairs fill: that box, one left sparse by a far
    term, and one past int64."""
    return [(u, v, "dense"), (with_far_term(u), v, "sorted"),
            (spread_past_int64(u), spread_past_int64(v), "sorted")]


def assert_terms_nan_alike(got, want):
    """``assert_terms_bitwise``, except that any NaN matches any NaN."""
    assert list(got) == list(want)
    for e, m in want.items():
        assert_nan_alike(got[e], m)


def assert_assoc_matches_loop(cases, same=assert_terms_bitwise):
    for u, v, route in cases:
        assert engine_routes(u, v) == {route}
        same(u.assoc_product(v).terms, loop_term_pairs(u, v, coefficient_product))


def assert_brackets_equal_dense_oracle(u, v, hbar):
    """Every mixed bracket of exact u and v, on every route: equal to the
    dense oracle, and the same terms in the same order on each route."""
    for kind in MixedBracketKind:
        got = {}
        for route in ROUTES:
            with forced_route(route):
                got[route] = mixed_bracket(kind, u, v, hbar)
        assert_equals_dense(got["dense"], dense_mixed_bracket(kind.value, dense(u), dense(v),
                                                              hbar, u.num_pairs))
        for route in ROUTES[1:]:
            assert_terms_bitwise(got[route].terms, got["dense"].terms)


def with_entry(u, value):
    """u with entry (0, 1) of its first coefficient set to ``value``, in
    every trial of a block."""
    coeffs = u.coeffs.copy()
    coeffs[0, 0, 1] = value
    return HybridElement._trusted(u.exps, coeffs)


def random_block(rng, dim, num_pairs, degree, trials):
    """``random_hybrid`` on every monomial, with ``trials`` random
    coefficients a term in a block, or one where ``trials`` is None."""
    u = random_hybrid(rng, dim, num_pairs, degree, density=1.0)
    if trials is None:
        return u
    shape = (len(u), trials, dim, dim)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return HybridElement._trusted(u.exps, c.transpose(0, 2, 3, 1))


class TestTermPairEngine:
    """The term-pair engine on each slotting route: the associative product
    against its literal loop, to the bit; every mixed bracket equal to the
    dense oracle on exact inputs, and the same bits on every route."""

    @pytest.mark.parametrize("num_pairs", [1, 2])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_brackets_equal_dense_oracle_on_every_route(self, dim, num_pairs):
        rng = np.random.default_rng([dim, num_pairs, 1])
        for _ in range(2):
            u = gaussian_integers(random_hybrid(rng, dim, num_pairs, 2), rng)
            v = gaussian_integers(random_hybrid(rng, dim, num_pairs, 3), rng)
            for hbar in (0.5, 1.0, 2.0):
                assert_brackets_equal_dense_oracle(u, v, hbar)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_every_route_matches_loop_bitwise(self, dim):
        rng = np.random.default_rng([dim, 2])
        u = random_hybrid(rng, dim, 1, 2, density=1.0)
        v = random_hybrid(rng, dim, 1, 3, density=1.0)
        assert_assoc_matches_loop(route_cases(u, v))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value,same", [
        (np.inf, assert_terms_bitwise), (-np.inf, assert_terms_bitwise),
        # a NaN's sign bit and payload, which IEEE 754 leaves open, are
        # not pinned: any NaN matches any NaN, on every route alike
        (np.nan, assert_terms_nan_alike), (complex(np.inf, np.nan), assert_terms_nan_alike)])
    def test_special_values_match_loop_on_every_route(self, value, same):
        rng = np.random.default_rng(6)
        u = with_entry(random_hybrid(rng, 2, 1, 2, density=1.0), value)
        v = with_entry(random_hybrid(rng, 2, 1, 3, density=1.0), -value)
        assert_assoc_matches_loop(route_cases(u, v), same)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("trials", [None, 3])
    @pytest.mark.parametrize("value", [-0.0, np.inf, -np.inf, np.nan])
    def test_every_route_matches_loop_over_many_blocks(self, value, trials, monkeypatch):
        # 7 term pairs at once: each of u's shuffled terms is a block, so
        # later blocks bring keys that sort before and between the slots
        # of earlier ones; (d, d) coefficients, or a block of (3, d, d)
        monkeypatch.setattr(kernels, "BLOCK_PAIRS", 7)
        rng = np.random.default_rng(10)
        u = with_entry(random_block(rng, 2, 1, 2, trials), value)
        v = with_entry(random_block(rng, 2, 1, 3, trials), -value)
        assert len(v) * u.coeffs[0].size > 7
        same = assert_terms_nan_alike if np.isnan(value) else assert_terms_bitwise
        assert_assoc_matches_loop(route_cases(u, v), same)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [1.0, np.inf, np.nan, complex(np.inf, np.nan)])
    def test_every_route_gives_the_same_bits(self, value):
        # the same blocks through every route: the same terms, to the bit,
        # NaNs too, for every bracket and the associative product
        rng = np.random.default_rng(8)
        u = with_far_term(with_entry(random_hybrid(rng, 3, 1, 2, density=1.0), value))
        v = with_entry(random_hybrid(rng, 3, 1, 3, density=1.0), -value)
        got = {}
        for route in ROUTES:
            with forced_route(route):
                assert engine_routes(u, v) == {route}
                got[route] = [op(u, v).terms for op in engine_ops(HBAR)]
        for route in ROUTES[1:]:
            for terms, dense_terms in zip(got[route], got["dense"]):
                assert_terms_bitwise(terms, dense_terms)

    @pytest.mark.parametrize("p_max", [16, 17])
    def test_a_block_takes_the_route_of_its_box(self, p_max):
        # 256 trials of 2 x 2 coefficients, 1024 entries a slot, in a box
        # of 1024 or 1056 slots: over a million entries in all, but the
        # dense box holds no coefficient, so the 4 slots a pair that 17 x 18
        # term pairs allow pick the route
        rng = np.random.default_rng(p_max)

        def block(exps):
            c = rng.standard_normal((len(exps), 256, 2, 2, 2)).view(np.complex128)[..., 0]
            return HybridElement._trusted(np.array(exps), c.transpose(0, 2, 3, 1))

        u = block([(i, 0) for i in range(15, -1, -1)] + [(0, 15)])
        v = block([(j, 0) for j in range(17)] + [(0, p_max)])
        box = 32 * (15 + p_max + 1)
        assert box * u.coeffs[0].size >= 1 << 20
        assert box <= kernels.DENSE_SLOTS_PER_PAIR * 17 * 18
        assert_assoc_matches_loop([(u, v, "dense")])

    def test_brackets_equal_dense_oracle_over_several_blocks(self):
        # 70 x 70 term pairs, three contributions each: several blocks
        rng = np.random.default_rng(4)
        u = gaussian_integers(random_hybrid(rng, 2, 2, 4, density=1.0), rng)
        v = gaussian_integers(random_hybrid(rng, 2, 2, 4, density=1.0), rng)
        assert len(u) * len(v) * 3 * 4 > kernels.BLOCK_PAIRS
        assert_brackets_equal_dense_oracle(u, v, HBAR)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_empty_operand(self, dim):
        u = random_hybrid(np.random.default_rng(dim), dim, 2, 2, density=1.0)
        empty = HybridElement(dim, 2, {})
        for op in engine_ops(HBAR):
            assert op(u, empty).terms == {}
            assert op(empty, u).terms == {}

    def test_cancellation_prunes_every_key(self):
        # {x p, x p}_P = 0 and [A, A]- = 0: nothing survives
        u = HybridElement(2, 1, {(1, 1): PAULI_X + PAULI_Z})
        for kind in MixedBracketKind:
            assert mixed_bracket(kind, u, u, HBAR).terms == {}

    @pytest.mark.parametrize("route", ROUTES)
    def test_signed_zeros_on_every_route(self, route):
        # weight -1 on the anticommutator I puts -0.0 off the diagonal, as
        # the first contribution to its key
        u = HybridElement(2, 1, {(0, 1): PAULI_X})
        v = HybridElement(2, 1, {(1, 0): PAULI_X + PAULI_Z})
        with forced_route(route):
            for kind in (MixedBracketKind.BOUCHER_TRASCHEN, MixedBracketKind.ALEKSANDROV):
                got = mixed_bracket(kind, u, v, HBAR).terms
                assert np.array_equal(got[(0, 0)], -np.eye(2))
                assert np.signbit(got[(0, 0)].real).all()

    def test_nested_bracket_past_int64_keys(self):
        # 12 pairs at degree 2: the outer bracket of a Jacobi triple has
        # radix 7 on each of its 24 variables, a box past int64, so the
        # engine sorts exponent rows, over several blocks
        rng = np.random.default_rng(12)
        squares = [tuple(2 * (i == j) for j in range(24)) for i in range(24)]

        def element():
            # every x_i**2 and p_i**2, plus a few other monomials
            el = random_hybrid(rng, 2, 12, 2, density=0.03)
            el = el + HybridElement(2, 12, {e: rng.standard_normal((2, 2)) for e in squares})
            return gaussian_integers(el, rng)

        u, v, w = element(), element(), element()
        inner = mixed_bracket(MixedBracketKind.HYBRID_PAPER, v, w, HBAR)
        assert engine_routes(u, inner) == {"sorted"}
        assert_terms_bitwise(u.assoc_product(inner).terms,
                             loop_term_pairs(u, inner, coefficient_product))
        # on exact inputs the antisymmetric brackets cancel to the bit
        for kind in MixedBracketKind:
            if kind is not MixedBracketKind.ANDERSON:
                there = mixed_bracket(kind, u, inner, HBAR)
                assert len(there) > 0
                assert (there + mixed_bracket(kind, inner, u, HBAR)).terms == {}

    def test_weight_overflow_is_rejected(self):
        u = HybridElement(2, 2, {(2 ** 32,) * 4: PAULI_X})
        for op in engine_ops(HBAR):
            with pytest.raises(ShapeError):
                op(u, u)


coeffs = st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False)


@st.composite
def hybrid_pairs(draw, entry=coeffs, specials=()):
    """Two hybrid elements of one shape: dim 1-3, 1-2 canonical pairs,
    up to five terms of degree <= 2 with complex coefficients, each real
    and imaginary part drawn from ``entry``; with ``specials``, at times
    one part of one coefficient is one of them."""
    dim = draw(st.integers(1, 3))
    num_pairs = draw(st.integers(1, 2))
    monos = monomials_up_to_degree(2 * num_pairs, 2)
    entries = st.lists(entry, min_size=2 * dim * dim, max_size=2 * dim * dim)

    def element():
        exps = draw(st.lists(st.sampled_from(monos), max_size=5, unique=True))
        parts = {e: draw(entries) for e in exps}
        special = draw(st.sampled_from((None, None, *specials))) if specials and exps else None
        if special is not None:
            e = draw(st.sampled_from(exps))
            parts[e][draw(st.integers(0, 2 * dim * dim - 1))] = special
        return HybridElement(dim, num_pairs, {
            e: np.array(p).view(np.complex128).reshape(dim, dim) for e, p in parts.items()})

    return element(), element()


#: Gaussian-integer coefficients, on which every sum of products is exact
GAUSSIAN_INTEGERS = st.integers(-3, 3).map(float)


def dense(u):
    return hybrid_json_to_dense(element_to_json(u))


def assert_matches_dense(got, want, scale):
    assert dense_hybrid_norm(dense_hybrid_add(dense(got), -want)) <= 1e-12 * (1 + scale)


def assert_equals_dense(got, want):
    """``got``, densely, equals ``want`` to the bit on the box holding
    both, a zero of either sign matching a zero and any NaN any NaN."""
    got = dense(got)
    nexp = got.ndim - 2
    box = tuple(max(g, w) for g, w in zip(got.shape[:nexp], want.shape[:nexp]))
    padded = []
    for x in (got, want):
        out = np.zeros(box + x.shape[nexp:], dtype=np.complex128)
        out[tuple(slice(0, n) for n in x.shape[:nexp])] = x
        padded.append(out + 0.0)
    assert_nan_alike(*padded)


class TestDenseOracleProperties:
    """The main path against the dense oracle: within rounding on generic
    inputs, and to the bit on exact ones, where every summation order
    gives the same result."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pair=hybrid_pairs(), hbar=st.sampled_from([0.5, 1.0, 2.0]))
    def test_mixed_brackets_match_dense_oracle(self, pair, hbar):
        u, v = pair
        scale = u.norm() * v.norm() / min(hbar, 1.0)
        for kind in MixedBracketKind:
            want = dense_mixed_bracket(kind.value, dense(u), dense(v), hbar, u.num_pairs)
            assert_matches_dense(mixed_bracket(kind, u, v, hbar), want, scale)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pair=hybrid_pairs())
    def test_assoc_product_matches_dense_oracle(self, pair):
        u, v = pair
        assert_matches_dense(u.assoc_product(v), dense_hybrid_mul(dense(u), dense(v)),
                             u.norm() * v.norm())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(pair=hybrid_pairs(GAUSSIAN_INTEGERS, (np.inf, -np.inf, np.nan)),
           hbar=st.sampled_from([0.5, 1.0, 2.0]))
    def test_mixed_brackets_equal_dense_oracle_on_exact_inputs(self, pair, hbar):
        # an infinite part spreads as NaN: dividing by i hbar and the complex
        # Poisson weights turn every non-finite entry into NaN + NaN j
        for x, y in (pair, pair[::-1]):
            for kind in MixedBracketKind:
                want = dense_mixed_bracket(kind.value, dense(x), dense(y), hbar, x.num_pairs)
                assert_equals_dense(mixed_bracket(kind, x, y, hbar), want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(pair=hybrid_pairs(GAUSSIAN_INTEGERS, (np.nan,)))
    def test_assoc_product_equals_dense_oracle_on_exact_inputs(self, pair):
        # NaN cells only: a product entry with an infinite factor is
        # inf + inf j from elementwise complex products but nan + nan j
        # from BLAS, so where an infinity lands as such depends on the
        # algorithm
        for x, y in (pair, pair[::-1]):
            assert_equals_dense(x.assoc_product(y), dense_hybrid_mul(dense(x), dense(y)))


def draw_blocks(seed, trials, arity):
    return random_hybrid_observable(np.random.default_rng(seed), block=(trials, arity))


def broken_from_trial(kind, desideratum, first):
    """A violation threshold under which trials 0 to ``first`` - 1 of a
    desideratum's seed-0 stream stay and some later trial of 12 does not."""
    rng = np.random.default_rng([0, DESIDERATA.index(desideratum)])
    defects = [loop_desideratum_defect(kind, desideratum, e, 1.0)
               for e in loop_draws(rng, 12, 3)]
    threshold = max(defects[:first])
    assert max(defects[first:]) > threshold
    return threshold


@pytest.fixture
def drawn_blocks(monkeypatch):
    """The (trials, arity) of every draw the bracket searches make."""
    sizes = []
    draw = brackets.random_hybrid_observable

    def recording(*args, block=None, **kw):
        sizes.append(block)
        return draw(*args, block=block, **kw)

    monkeypatch.setattr(brackets, "random_hybrid_observable", recording)
    return sizes


class TestTrialBlocks:
    """Blocks of trials against the literal trial loops, to the bit."""

    @pytest.mark.parametrize("kind", list(MixedBracketKind))
    @pytest.mark.parametrize("desideratum", DESIDERATA)
    def test_block_defects_match_loop_bitwise(self, kind, desideratum):
        arity = 2 if desideratum == "antisymmetry" else 3
        for trials in (1, 2, 5):
            for hbar in (1.0, 0.3):
                block = draw_blocks([trials, 9], trials, arity)
                got = identity_defect(BracketAlgebra(kind, hbar), desideratum, block)
                assert got.shape == (trials,)
                want = np.array(loop_defects(kind, desideratum, block, hbar))
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim, num_pairs, degree", [(2, 1, 2), (3, 2, 1), (1, 1, 3)])
    def test_block_draw_equals_single_draws(self, dim, num_pairs, degree):
        rng_block, rng_loop = np.random.default_rng(5), np.random.default_rng(5)
        block = random_hybrid_observable(rng_block, dim, num_pairs, degree, block=(4, 3))
        singles = loop_draws(rng_loop, 4, 3, dim, num_pairs, degree)
        monos = monomials_up_to_degree(2 * num_pairs, degree)
        for i, b in enumerate(block):
            assert b.trials == 4
            # (N, d, d, T), the trial axis innermost, in C order
            assert b.coeffs.shape == (len(monos), dim, dim, 4)
            assert b.coeffs.flags.c_contiguous
            assert np.array_equal(b.coeffs, b.coeffs.conj().swapaxes(1, 2))
            for t in range(4):
                assert_terms_bitwise(b.trial(t).terms, singles[t][i].terms)
        # the same stream was consumed
        assert rng_block.standard_normal() == rng_loop.standard_normal()

    def test_block_norms_equal_slice_norms_bitwise(self):
        u, v = draw_blocks(3, 6, 2)
        for el in (u, v, mixed_bracket(MixedBracketKind.ANDERSON, u, v, 0.3)):
            norms = el.norm()
            assert norms.shape == (6,)
            for t in range(6):
                assert norms[t].tobytes() == np.float64(el.trial(t).norm()).tobytes()

    def test_first_violation_past_a_block_boundary(self, monkeypatch):
        monkeypatch.setattr(brackets, "MAX_BLOCK_TRIALS", 3)
        kind, desideratum = MixedBracketKind.BOUCHER_TRASCHEN, "jacobi"
        # every trial up to 5 stays under: the measured [0], then the searched
        # blocks [1, 4), [4, 7) are passed over
        threshold = broken_from_trial(kind, desideratum, 6)
        monkeypatch.setattr(brackets, "VIOLATION_THRESHOLD", threshold)
        want = loop_find_violation_witness(kind, desideratum, 12, threshold=threshold)
        assert want is not None and want["trial"] >= 6
        _, scans = measure_defects(kind, trials=1, seed=0, hbar=HBAR)
        assert find_violation_witness(scans, desideratum, 12) == want

    def test_trial_zero_find_draws_one_trial(self, drawn_blocks):
        # the measurement draws trial 0 of each desideratum; a broken
        # bracket fails there, so its search draws nothing more
        _, scans = measure_defects(MixedBracketKind.ANDERSON, trials=1, seed=0, hbar=HBAR)
        assert drawn_blocks == [(1, 2), (1, 3), (1, 3)]
        drawn_blocks.clear()
        w = find_violation_witness(scans, "antisymmetry", budget=1000)
        assert w["trial"] == 0
        assert drawn_blocks == []
        assert w == loop_find_violation_witness(MixedBracketKind.ANDERSON, "antisymmetry", 1)

    def test_blocks_never_exceed_the_cap(self, monkeypatch, drawn_blocks):
        monkeypatch.setattr(brackets, "MAX_BLOCK_TRIALS", 4)
        _, scans = measure_defects(MixedBracketKind.HYBRID_PAPER, trials=1, seed=0, hbar=HBAR)
        drawn_blocks.clear()
        assert find_violation_witness(scans, "jacobi", 11) is None
        assert drawn_blocks == [(4, 3), (4, 3), (2, 3)]
        drawn_blocks.clear()
        measure_defects(MixedBracketKind.HYBRID_PAPER, trials=9, seed=0, hbar=HBAR)
        assert [t for t, _ in drawn_blocks] == [4, 4, 1] * len(DESIDERATA)

    @pytest.mark.parametrize("kind", list(MixedBracketKind))
    def test_measure_defects_matches_loop_over_several_blocks(self, kind, monkeypatch):
        monkeypatch.setattr(brackets, "MAX_BLOCK_TRIALS", 3)
        got, _ = measure_defects(kind, trials=7, seed=2, hbar=0.3)
        assert got == loop_measure_defects(kind, 7, seed=2, hbar=0.3)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_too_few_trials_are_refused_before_any_draw(self, trials, drawn_blocks):
        with pytest.raises(AlgebraError, match="trials must be >= 1"):
            measure_defects(MixedBracketKind.ANDERSON, trials=trials, seed=0, hbar=HBAR)
        assert drawn_blocks == []

    def test_last_maximal_trial_wins_and_nan_never_does(self, monkeypatch):
        # TIES_AND_NANS, also run through ``check_identity`` in
        # tests/test_identities.py: the defect reads NaN, the witness is the
        # last maximal finite trial
        sequences = {}

        def scripted(alg, identity, block):
            seq = sequences.setdefault(identity, iter(TIES_AND_NANS))
            return np.array([next(seq) for _ in range(block[0].trials)])

        monkeypatch.setattr(brackets, "MAX_BLOCK_TRIALS", 3)
        monkeypatch.setattr(identities, "identity_defect", scripted)
        entry, _ = measure_defects(MixedBracketKind.HYBRID_PAPER, trials=7, seed=4, hbar=HBAR)
        for di, name in enumerate(DESIDERATA):
            rng = np.random.default_rng([4, di])
            want = loop_draws(rng, 7, 2 if name == "antisymmetry" else 3)[5]
            assert math.isnan(entry[f"{name}_defect"])
            assert entry["witnesses"][name] == {
                "defect": 2.0, "elements": [element_to_json(e) for e in want]}

    def test_nan_defect_ends_a_search_as_a_hit(self, monkeypatch):
        # the measured [0], then the searched block [1, 4): trial 2 is the
        # first NaN, trial 3 a violation
        sequences = {}

        def scripted(alg, identity, block):
            seq = sequences.setdefault(identity, iter([0.0, 0.0, np.nan, 1.0]))
            return np.array([next(seq) for _ in range(block[0].trials)])

        monkeypatch.setattr(brackets, "MAX_BLOCK_TRIALS", 3)
        monkeypatch.setattr(identities, "identity_defect", scripted)
        _, scans = measure_defects(MixedBracketKind.HYBRID_PAPER, trials=1, seed=0, hbar=HBAR)
        w = find_violation_witness(scans, "jacobi", 10)
        assert w["trial"] == 2 and math.isnan(w["defect"])

    def test_nan_only_defects_keep_no_witness(self, monkeypatch):
        monkeypatch.setattr(identities, "identity_defect",
                            lambda alg, identity, block: np.full(block[0].trials, np.nan))
        entry, _ = measure_defects(MixedBracketKind.HYBRID_PAPER, trials=3, seed=0, hbar=HBAR)
        assert entry["witnesses"]["jacobi"] == {"defect": 0.0, "elements": None}
        assert all(math.isnan(entry[f"{name}_defect"]) for name in DESIDERATA)
        assert not entry["matches_expected_pattern"]

    @pytest.mark.parametrize("kind", list(MixedBracketKind))
    def test_one_nan_defect_breaks_the_expected_pattern(self, kind, monkeypatch):
        # derivation NaN, the others exactly at their expected side
        expected = brackets.EXPECTED_CLEAN[kind]

        def scripted(alg, identity, block):
            value = (np.nan if identity is Identity.DERIVATION
                     else 0.0 if expected[identity.value] else 1.0)
            return np.full(block[0].trials, value)

        monkeypatch.setattr(identities, "identity_defect", scripted)
        entry, _ = measure_defects(kind, trials=2, seed=0, hbar=HBAR)
        assert math.isnan(entry["derivation_defect"])
        assert not entry["matches_expected_pattern"]
        defects = {name: entry[f"{name}_defect"] for name in DESIDERATA}
        defects["derivation"] = 0.0 if expected["derivation"] else 1.0
        assert brackets.matches_expected_pattern(kind, defects)

    @pytest.mark.parametrize("kind, desideratum, value, matches", [
        # a clean desideratum passes up to PASS_TOLERANCE, 1e-10, and no further
        (MixedBracketKind.HYBRID_PAPER, "jacobi", 1e-9, False),
        (MixedBracketKind.HYBRID_PAPER, "jacobi", 1e-10, True),
        # a broken one must lie strictly over VIOLATION_THRESHOLD, 1e-6
        (MixedBracketKind.ALEKSANDROV, "jacobi", VIOLATION_THRESHOLD, False),
        (MixedBracketKind.ALEKSANDROV, "jacobi", math.nextafter(1e-6, 1), True),
    ], ids=["clean-1e-9", "clean-1e-10", "broken-at-threshold", "broken-past-threshold"])
    def test_the_pattern_bounds(self, kind, desideratum, value, matches, monkeypatch):
        # the one desideratum at ``value``, the others at 0.0 if clean, else 1.0
        expected = brackets.EXPECTED_CLEAN[kind]

        def scripted(alg, identity, block):
            got = (value if identity.value == desideratum
                   else 0.0 if expected[identity.value] else 1.0)
            return np.full(block[0].trials, got)

        monkeypatch.setattr(identities, "identity_defect", scripted)
        entry, _ = measure_defects(kind, trials=2, seed=0, hbar=HBAR)
        assert entry[f"{desideratum}_defect"] == value
        assert entry["matches_expected_pattern"] == matches


class TestSharedScan:
    """A witness search reads the trials its measurement scored and draws
    only those past them: the literal loops' results, to the bit, and no
    trial drawn twice."""

    @pytest.mark.parametrize("trials, budget", [(3, 25), (1, 1), (30, 5), (7, 7), (2, 300)])
    @pytest.mark.parametrize("kind", list(MixedBracketKind))
    def test_measured_searches_match_the_loops(self, kind, trials, budget, monkeypatch):
        monkeypatch.setattr(brackets, "MAX_BLOCK_TRIALS", 3)
        entry, scans = measure_defects(kind, trials=trials, seed=1, hbar=0.7)
        want = loop_measure_defects(kind, trials, seed=1, hbar=0.7)
        assert json.dumps(entry) == json.dumps(want)
        for desideratum in cli._SEARCH_PLAN[kind]:
            got = find_violation_witness(scans, desideratum, budget)
            want = loop_find_violation_witness(kind, desideratum, budget, seed=1, hbar=0.7)
            assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize("kind", [k for k in MixedBracketKind
                                      if k is not MixedBracketKind.HYBRID_PAPER])
    def test_a_broken_brackets_search_draws_nothing(self, kind, drawn_blocks):
        _, scans = measure_defects(kind, trials=3, seed=0, hbar=HBAR)
        drawn_blocks.clear()
        found = {d: find_violation_witness(scans, d, 25)
                 for d in cli._SEARCH_PLAN[kind]}
        assert drawn_blocks == []
        for desideratum, w in found.items():
            assert w["trial"] == 0
            assert w == loop_find_violation_witness(kind, desideratum, 25)

    def test_a_clean_search_draws_only_past_the_measured_trials(self, monkeypatch,
                                                                drawn_blocks):
        monkeypatch.setattr(brackets, "MAX_BLOCK_TRIALS", 4)
        kind = MixedBracketKind.HYBRID_PAPER
        _, scans = measure_defects(kind, trials=3, seed=0, hbar=HBAR)
        assert drawn_blocks == [(3, 2), (3, 3), (3, 3)]
        for desideratum, arity in zip(DESIDERATA, (2, 3, 3)):
            drawn_blocks.clear()
            assert find_violation_witness(scans, desideratum, 11) is None
            assert drawn_blocks == [(4, arity), (4, arity)]

    def test_a_measured_hit_past_the_budget_is_not_reported(self, monkeypatch,
                                                           drawn_blocks):
        kind, desideratum = MixedBracketKind.BOUCHER_TRASCHEN, "jacobi"
        threshold = broken_from_trial(kind, desideratum, 6)
        monkeypatch.setattr(brackets, "VIOLATION_THRESHOLD", threshold)
        _, scans = measure_defects(kind, trials=12, seed=0, hbar=HBAR)
        assert scans[desideratum].hit[0] >= 6
        drawn_blocks.clear()
        assert find_violation_witness(scans, desideratum, 6) is None
        assert drawn_blocks == []
        assert loop_find_violation_witness(kind, desideratum, 6, threshold=threshold) is None

    def test_two_searches_from_one_triple_are_equal(self, monkeypatch, drawn_blocks):
        # no hit among the 3 measured trials: both searches resume drawing
        kind, desideratum = MixedBracketKind.BOUCHER_TRASCHEN, "jacobi"
        threshold = broken_from_trial(kind, desideratum, 6)
        monkeypatch.setattr(brackets, "MAX_BLOCK_TRIALS", 4)
        monkeypatch.setattr(brackets, "VIOLATION_THRESHOLD", threshold)
        _, scans = measure_defects(kind, trials=3, seed=0, hbar=HBAR)
        assert scans[desideratum].hit is None
        drawn_blocks.clear()
        first = find_violation_witness(scans, desideratum, 12)
        draws = list(drawn_blocks)
        assert find_violation_witness(scans, desideratum, 12) == first
        assert drawn_blocks == draws * 2
        assert first == loop_find_violation_witness(kind, desideratum, 12, threshold=threshold)
        assert first["trial"] >= 6

    @pytest.mark.parametrize("other", [dict(kind=MixedBracketKind.ALEKSANDROV),
                                       dict(seed=1), dict(hbar=0.5)])
    def test_the_search_follows_its_triples_scan(self, other):
        # kind, seed and hbar come from the measured scans alone, for a
        # measured hit and for a search that resumes past the measured trials
        scan = {"kind": MixedBracketKind.ANDERSON, "seed": 0, "hbar": 1.0, **other}
        _, scans = measure_defects(trials=2, **scan)
        for desideratum in DESIDERATA:
            got = find_violation_witness(scans, desideratum, 5)
            assert got == loop_find_violation_witness(desideratum=desideratum, budget=5,
                                                      **scan)
            assert got is None or got["kind"] == scan["kind"].value

    def test_the_brackets_report_scans_each_desideratum_once(self, tmp_path, drawn_blocks):
        # every kind measures 3 trials a desideratum; only the clean
        # bracket's searches draw, and only the 22 trials past those
        assert cli.main(["brackets", "--trials", "3", "--budget", "25",
                     "--out", str(tmp_path / "r.json")]) == 0
        measured = [(3, 2), (3, 3), (3, 3)]
        assert drawn_blocks == measured * 4 + [(22, 2), (22, 3), (22, 3)]


class TestSharedRules:
    """``brackets`` and ``verify`` share one Jacobi form."""

    def test_jacobi_is_the_left_nested_cyclic_sum(self):
        alg = BracketAlgebra(MixedBracketKind.ANDERSON, 0.3)
        u, v, w = draw_blocks(11, 6, 3)
        br = alg.alpha
        norms = [e.norm() for e in (u, v, w)]
        left = relative_defect((br(br(u, v), w) + br(br(v, w), u) + br(br(w, u), v)).norm(),
                               norms)
        right = relative_defect((br(u, br(v, w)) + br(v, br(w, u)) + br(w, br(u, v))).norm(),
                                norms)
        got = identity_defect(alg, Identity.JACOBI, [u, v, w])
        assert got.tobytes() == left.tobytes()
        # the Anderson bracket is not antisymmetric, so the two forms differ
        assert np.all(np.abs(got - right) > VIOLATION_THRESHOLD)
