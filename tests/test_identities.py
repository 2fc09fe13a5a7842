import json
import math

import jsonschema
import numpy as np
import pytest

from hamalg import (
    ComposedAlgebra,
    CorruptedAlgebra,
    Identity,
    OperatorAlgebra,
    PhaseSpaceAlgebra,
    PhaseSpacePoly,
    check_identity,
    run_axiom_suite,
)
from hamalg.cli import _load_schema
from hamalg.identities import AXIOM_IDENTITIES, replay_witness
from hamalg.serialize import element_to_json
from tests.helpers import TIES_AND_NANS, sequential_sum


#: the ``verify`` command's default tolerance
TOLERANCE = 1e-9


def composed(a1, a2, a12, d1=2, d2=2):
    return ComposedAlgebra(OperatorAlgebra(d1, a=a1),
                           OperatorAlgebra(d2, a=a2), a12=a12)


class TestCheckIdentity:
    def test_operator_canonical_relation_passes(self):
        alg = OperatorAlgebra(3, a=0.25)
        res = check_identity(alg, Identity.CANONICAL_RELATION, 200, TOLERANCE, 0)
        assert res["passed"]
        assert res["max_relative_defect"] <= 1e-10

    def test_phase_space_canonical_relation_is_associativity(self):
        alg = PhaseSpaceAlgebra(1, max_random_degree=3)
        res = check_identity(alg, Identity.CANONICAL_RELATION, 100, TOLERANCE, 0)
        assert res["passed"]

    def test_corrupted_algebra_fails_loudly(self):
        base = OperatorAlgebra(3, a=0.25)
        bad = CorruptedAlgebra(base, alpha_scale=1.1)
        honest = check_identity(base, Identity.CANONICAL_RELATION, 50, TOLERANCE, 0)
        broken = check_identity(bad, Identity.CANONICAL_RELATION, 50, TOLERANCE, 0)
        assert not broken["passed"]
        # scaling the bracket by 1.1 scales the double-bracket side by 1.21,
        # leaving a defect of order 0.21 * a * (input scale)
        assert broken["max_relative_defect"] > 1e-2
        assert broken["max_relative_defect"] >= 1e3 * honest["max_relative_defect"]

    def test_corruption_spares_homogeneous_identities(self):
        bad = CorruptedAlgebra(OperatorAlgebra(3, a=0.25), alpha_scale=1.1)
        for identity in (Identity.ANTISYMMETRY, Identity.JACOBI, Identity.SYMMETRY,
                         Identity.DERIVATION):
            res = check_identity(bad, identity, 30, TOLERANCE, 0)
            assert res["passed"], identity

    def test_determinism_bit_identical(self):
        alg = OperatorAlgebra(4, a=1.0)
        check = (Identity.JACOBI, 25, TOLERANCE, 77)
        a = check_identity(alg, *check)
        b = check_identity(alg, *check)
        assert a["max_relative_defect"] == b["max_relative_defect"]
        assert a["mean_relative_defect"] == b["mean_relative_defect"]
        assert a["worst_witness"] == b["worst_witness"]

    def test_different_seeds_draw_different_inputs(self):
        alg = OperatorAlgebra(4, a=1.0)
        a = check_identity(alg, Identity.JACOBI, 5, TOLERANCE, 0)
        b = check_identity(alg, Identity.JACOBI, 5, TOLERANCE, 1)
        assert a["worst_witness"] != b["worst_witness"]

    def test_witness_replay_reproduces_defect(self):
        alg = PhaseSpaceAlgebra(2, max_random_degree=2)
        res = check_identity(alg, Identity.DERIVATION, 20, TOLERANCE, 0)
        replayed = replay_witness(alg, res["identity"], res["worst_witness"])
        assert replayed == pytest.approx(res["max_relative_defect"], rel=1e-12, abs=1e-15)

    def test_last_maximal_trial_wins_and_nan_never_does(self, monkeypatch):
        from hamalg import identities
        monkeypatch.setattr(identities, "MAX_BLOCK_TRIALS", 3)
        # the script ``measure_defects`` runs in tests/test_brackets.py
        script = iter(TIES_AND_NANS)
        drawn, serialized = [], []

        def scripted(alg, identity, blocks):
            drawn.append(blocks)
            return np.array([next(script) for _ in range(blocks[0].trials)])

        def counting(el):
            serialized.append(el)
            return element_to_json(el)

        monkeypatch.setattr(identities, "identity_defect", scripted)
        monkeypatch.setattr(identities, "element_to_json", counting)
        res = check_identity(OperatorAlgebra(2, a=0.25), Identity.JACOBI, 7, TOLERANCE, 0)
        assert [b[0].trials for b in drawn] == [3, 3, 1]
        # a NaN trial makes the max NaN, as in ``measure_defects``
        assert math.isnan(res["max_relative_defect"])
        assert not res["passed"]
        # the witness is serialized once, from the last maximal trial: trial 5,
        # which is trial 2 of the second block
        assert len(serialized) == 3
        for got, block in zip(serialized, drawn[1]):
            assert got.entries.tobytes() == block.entries[2].tobytes()
        assert res["worst_witness"] == [element_to_json(b.trial(2)) for b in drawn[1]]
        assert math.isnan(res["mean_relative_defect"])

    def test_nan_only_defects_keep_no_witness(self, monkeypatch):
        from hamalg import identities
        monkeypatch.setattr(identities, "MAX_BLOCK_TRIALS", 2)
        blocks = []

        def scripted(alg, identity, elements):
            blocks.append(elements[0].trials)
            return np.full(elements[0].trials, math.nan)

        monkeypatch.setattr(identities, "identity_defect", scripted)
        res = check_identity(OperatorAlgebra(2, a=0.25), Identity.JACOBI, 3, TOLERANCE, 0)
        assert blocks == [2, 1]
        assert math.isnan(res["max_relative_defect"])
        assert res["worst_witness"] == []
        assert not res["passed"]

    def test_check_validation(self):
        alg = OperatorAlgebra(2, a=0.25)
        with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
            check_identity(alg, Identity.JACOBI, 0, TOLERANCE, 0)
        with pytest.raises(ValueError, match="tolerance must be > 0, got 0.0"):
            check_identity(alg, Identity.JACOBI, 1, 0.0, 0)


class TestAxiomSuite:
    @pytest.mark.parametrize("dim,a", [(2, 1.0), (3, 0.25), (4, 0.0625)])
    def test_operator_suites_pass(self, dim, a):
        checks = run_axiom_suite(OperatorAlgebra(dim, a=a), 60, TOLERANCE, 0)
        assert all(c["passed"] for c in checks)
        assert [c["identity"] for c in checks] == [i.value for i in Identity]

    def test_classical_suite_passes(self):
        checks = run_axiom_suite(PhaseSpaceAlgebra(1, max_random_degree=3), 40, TOLERANCE, 0)
        assert all(c["passed"] for c in checks)

    def test_composed_suite_passes_theorem(self):
        checks = run_axiom_suite(composed(1.0, 4.0, 9.0), 40, TOLERANCE, 0)
        assert all(c["passed"] for c in checks)

    def test_entries_validate_as_report_checks(self):
        schema = _load_schema()
        entry = {"$ref": "#/$defs/check_result", "$defs": schema["$defs"]}
        checks = run_axiom_suite(OperatorAlgebra(2, a=0.25), 5, TOLERANCE, 3)
        for check in json.loads(json.dumps(checks)):
            jsonschema.validate(check, entry)
            assert (check["trials"], check["tolerance"], check["seed"]) == (5, TOLERANCE, 3)

    def test_entries_of_a_corrupted_algebra_pass_and_fail(self):
        bad = CorruptedAlgebra(OperatorAlgebra(2, a=0.25), alpha_scale=1.1)
        checks = run_axiom_suite(bad, 20, TOLERANCE, 0)
        assert any(c["passed"] for c in checks)
        assert any(not c["passed"] for c in checks)


class TestLemmas:
    """The composition lemmas: every axiom holds on a composed algebra."""

    @pytest.mark.parametrize("identity", AXIOM_IDENTITIES)
    def test_lemmas_on_unequal_constants(self, identity):
        res = check_identity(composed(1.0, 1.0, 2.0), identity, 50, TOLERANCE, 0)
        assert res["passed"], (identity, res["max_relative_defect"])

    def test_lemma_on_hybrid(self):
        hybrid = ComposedAlgebra(OperatorAlgebra(2, a=1.0),
                                 PhaseSpaceAlgebra(1, max_random_degree=2), a12=1.0)
        res = check_identity(hybrid, Identity.CANONICAL_RELATION, 50, TOLERANCE, 0)
        assert res["passed"]

    def test_lemma5_fails_on_scaled_bracket(self):
        bad = CorruptedAlgebra(composed(1.0, 1.0, 2.0), alpha_scale=1.1)
        res = check_identity(bad, Identity.CANONICAL_RELATION, 30, TOLERANCE, 0)
        assert not res["passed"]

    def test_lemma1_fails_on_symmetric_admixture(self):
        # plant a bug that actually breaks antisymmetry: leak a bit of the
        # symmetric product into the bracket
        base = composed(1.0, 1.0, 2.0)

        class Leaky:
            constant = base.constant
            block_entries = base.block_entries
            random_element = staticmethod(base.random_element)
            describe = staticmethod(base.describe)

            @staticmethod
            def alpha(u, v):
                return base.alpha(u, v) + base.sigma(u, v).scale(0.1)

            sigma = staticmethod(base.sigma)
            tau = staticmethod(base.tau)
            associator_sigma = staticmethod(base.associator_sigma)

        res = check_identity(Leaky(), Identity.ANTISYMMETRY, 20, TOLERANCE, 0)
        assert not res["passed"]
        assert res["max_relative_defect"] > 1e-3


class TestMutationMonotonicity:
    @pytest.mark.parametrize("factory", [
        lambda: OperatorAlgebra(2, a=1.0),
        lambda: OperatorAlgebra(6, a=0.0625),
        lambda: composed(1.0, 4.0, 9.0),
        lambda: ComposedAlgebra(OperatorAlgebra(2, a=1.0),
                                PhaseSpaceAlgebra(1, max_random_degree=2), a12=1.0),
    ])
    def test_scaled_bracket_breaks_canonical_relation(self, factory):
        base = factory()
        bad = CorruptedAlgebra(base, alpha_scale=1.1)
        honest = check_identity(base, Identity.CANONICAL_RELATION, 30, TOLERANCE, 0)
        broken = check_identity(bad, Identity.CANONICAL_RELATION, 30, TOLERANCE, 0)
        assert honest["passed"]
        assert not broken["passed"]
        assert broken["max_relative_defect"] >= 1e3 * broken["tolerance"]
        assert broken["max_relative_defect"] >= 1e3 * max(honest["max_relative_defect"], 1e-300)


def matrix_algebras():
    """Operator algebras at dims 1-6 and quantum (x) quantum compositions at
    several dims and constants, ħ and a12 varied."""
    ops = [OperatorAlgebra(d, a=a) for d, a in zip(range(1, 7), (0.25, 1.0, 0.0625) * 2)]
    qq = [composed(a1, a2, a12, d1, d2)
          for (a1, a2, a12), (d1, d2) in zip([(1.0, 1.0, 1.0), (1.0, 2.0, 1.5),
                                              (0.25, 4.0, 1.0), (1.0, 4.0, 9.0),
                                              (2.0, 0.5, 0.3)],
                                             [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)])]
    return ops + qq


def hybrid_algebras():
    """Quantum (x) classical compositions at several dims, pairs, degrees
    and constants."""
    return [ComposedAlgebra(OperatorAlgebra(dim, a=a),
                            PhaseSpaceAlgebra(pairs, max_random_degree=degree), a12=a12)
            for dim, a, pairs, degree, a12 in [(2, 1.0, 1, 2, 1.0), (3, 0.0625, 1, 1, 1.5),
                                               (2, 0.25, 2, 1, 0.3), (1, 0.25, 1, 3, 0.25)]]


class TestTrialBlocks:
    """Blocks of trials against the literal trial loops, to the bit."""

    @pytest.mark.parametrize("identity", list(Identity))
    def test_block_defects_match_loop_bitwise(self, identity):
        from hamalg.identities import _ARITY, identity_defect
        from tests.helpers import loop_identity_defects

        rng = np.random.default_rng([3, list(Identity).index(identity)])
        for alg in matrix_algebras():
            for trials in (1, 2, 5):
                blocks = alg.random_element(rng, block=(trials, _ARITY[identity]))
                got = identity_defect(alg, identity, blocks)
                assert got.shape == (trials,)
                want = np.array(loop_identity_defects(alg, identity, blocks))
                assert got.tobytes() == want.tobytes(), alg.describe()

    @pytest.mark.parametrize("alg", matrix_algebras()[1::2],
                             ids=lambda alg: alg.describe()["realization"])
    def test_block_draws_equal_single_draws(self, alg):
        from tests.helpers import loop_element_draws

        rng_block, rng_loop = np.random.default_rng(5), np.random.default_rng(5)
        blocks = alg.random_element(rng_block, block=(6, 3))
        singles = loop_element_draws(alg, rng_loop, 6, 3)
        for i, b in enumerate(blocks):
            assert b.trials == 6 and not b.entries.flags.writeable
            assert np.array_equal(b.entries, b.entries.conj().swapaxes(1, 2))
            for t in range(6):
                assert b.trial(t).entries.tobytes() == singles[t][i].entries.tobytes()
        # the same stream was consumed
        assert rng_block.standard_normal() == rng_loop.standard_normal()

    @pytest.mark.parametrize("identity", [Identity.JACOBI, Identity.CANONICAL_RELATION,
                                          Identity.JORDAN])
    @pytest.mark.parametrize("factory", [lambda: OperatorAlgebra(2, a=0.0625),
                                         lambda: OperatorAlgebra(6, a=1.0),
                                         lambda: composed(1.0, 2.0, 1.5),
                                         lambda: hybrid_algebras()[0]])   # 45-trial blocks
    def test_check_identity_matches_loop_across_the_cap(self, identity, factory):
        from tests.helpers import loop_check_identity

        alg = factory()
        check = (identity, 300, TOLERANCE, 4)   # past the 256-trial cap
        assert check_identity(alg, *check) == loop_check_identity(alg, *check)

    @pytest.mark.parametrize("identity", [Identity.ANTISYMMETRY, Identity.JACOBI,
                                          Identity.CANONICAL_RELATION])
    def test_lemma_max_terms_path_matches_loop(self, identity, monkeypatch):
        from hamalg import identities
        from tests.helpers import loop_check_identity

        monkeypatch.setattr(identities, "MAX_BLOCK_TRIALS", 3)
        alg = composed(1.0, 2.0, 1.5, 2, 3)
        check = (identity, 8, TOLERANCE, 1)
        assert check_identity(alg, *check) == loop_check_identity(alg, *check)

    @pytest.mark.parametrize("base", [composed(1.0, 1.0, 2.0), hybrid_algebras()[0]],
                             ids=["qq", "qc"])
    def test_corrupted_algebra_forwards_block_draws(self, base, monkeypatch):
        from hamalg import identities
        from tests.helpers import loop_check_identity

        monkeypatch.setattr(identities, "MAX_BLOCK_TRIALS", 4)
        seen = []
        original = identities.identity_defect

        def spy(alg, identity, elements):
            seen.append(elements[0].trials)
            return original(alg, identity, elements)

        monkeypatch.setattr(identities, "identity_defect", spy)
        bad = CorruptedAlgebra(base, alpha_scale=1.1)
        check = (Identity.CANONICAL_RELATION, 10, TOLERANCE, 0)
        got = check_identity(bad, *check)
        assert seen == [4, 4, 2]
        assert not got["passed"]
        assert got == loop_check_identity(bad, *check)

    def test_blocks_are_capped_by_entries(self, monkeypatch):
        from hamalg import identities
        from hamalg.cli import _build_algebra, build_parser
        from hamalg.identities import block_trials
        from hamalg.kernels import MAX_BLOCK_TRIALS

        def hybrid(*options):
            return _build_algebra(build_parser().parse_args(
                ["verify", "--hybrid", "--seed", "0", *options]))

        # (algebra, coefficient entries of the largest element one trial
        # forms): a matrix's n^2; on phase space every monomial of degree
        # <= 4 deg, C(2n + 4 deg, 4 deg) of them; and for quantum (x)
        # classical a d x d coefficient on each of those monomials
        cases = [
            (OperatorAlgebra(2, a=0.25), 4),
            (OperatorAlgebra(64, a=0.25), 4096),
            (OperatorAlgebra(128, a=0.25), 16384),
            (composed(1.0, 1.0, 1.0, 8, 8), 4096),
            (PhaseSpaceAlgebra(1, 3), math.comb(2 + 12, 12)),
            (PhaseSpaceAlgebra(2, max_random_degree=3), math.comb(4 + 12, 12)),
            (PhaseSpaceAlgebra(1, max_random_degree=1), math.comb(2 + 4, 4)),
            (CorruptedAlgebra(OperatorAlgebra(30, a=0.25)), 900),
            (hybrid(), 180),
            (hybrid("--pairs", "4"), math.comb(8 + 8, 8) * 4),
            (CorruptedAlgebra(hybrid()), 180),
        ]
        # the rule, at today's budget and at a four times larger one
        for budget in (8192, 32768):
            monkeypatch.setattr(identities, "BLOCK_PAIRS", budget)
            for alg, entries in cases:
                assert alg.block_entries == entries
                assert block_trials(alg) == max(1, min(MAX_BLOCK_TRIALS, budget // entries))


class TestHybridBlocks:
    """Quantum (x) classical trial blocks against the trial-by-trial loops."""

    @pytest.mark.parametrize("alg", hybrid_algebras(), ids=lambda alg: (
        f"dim{alg.left.dim}-pairs{alg.right.num_pairs}-degree{alg.right.max_random_degree}"))
    def test_block_and_single_draws_equal_the_loop_bitwise(self, alg):
        from tests.helpers import assert_terms_bitwise, loop_element_draws

        rngs = [np.random.default_rng(5) for _ in range(3)]
        blocks = alg.random_element(rngs[0], block=(6, 3))
        singles = [[alg.random_element(rngs[1]) for _ in range(3)] for _ in range(6)]
        loop = loop_element_draws(alg, rngs[2], 6, 3)
        for i, b in enumerate(blocks):
            assert b.trials == 6
            assert np.array_equal(b.coeffs, b.coeffs.conj().swapaxes(1, 2))
            assert not any(m.flags.writeable for m in b.terms.values())
            for t in range(6):
                assert singles[t][i].trials is None
                assert_terms_bitwise(b.trial(t).terms, loop[t][i].terms)
                assert_terms_bitwise(singles[t][i].terms, loop[t][i].terms)
        # the same stream was consumed
        assert len({rng.standard_normal() for rng in rngs}) == 1

    @pytest.mark.parametrize("argv", [
        ["verify", "--hybrid", "--trials", "50"],
        ["verify", "--composed", "--a1", "1", "--a2", "2", "--a12", "1.5", "--trials", "50"],
        ["verify", "--realization", "phase-space", "--pairs", "2", "--trials", "50"],
        ["brackets", "--trials", "20", "--budget", "40"],
    ])
    def test_reports_do_not_depend_on_the_block_size(self, argv, tmp_path, monkeypatch):
        import re

        from hamalg import brackets, identities
        from hamalg.cli import main

        def report(name):
            path = tmp_path / name
            assert main([*argv, "--seed", "3", "--out", str(path)]) == 0
            return re.sub(r'"timestamp": "[^"]*"', "", path.read_text())

        blocked = report("blocked.json")
        # one trial per block: the identity checks size their blocks from
        # BLOCK_PAIRS, the bracket scans take MAX_BLOCK_TRIALS
        monkeypatch.setattr(identities, "BLOCK_PAIRS", 1)
        monkeypatch.setattr(brackets, "MAX_BLOCK_TRIALS", 1)
        assert identities.block_trials(hybrid_algebras()[0]) == 1
        assert report("single.json") == blocked


def phase_space_algebras():
    """Phase-space algebras at several pairs and degrees."""
    return [PhaseSpaceAlgebra(pairs, max_random_degree=degree)
            for pairs, degree in [(1, 3), (1, 1), (2, 2), (3, 1)]]


def assert_poly_terms_bitwise(got, want):
    """Same keys in the same order, and every coefficient a Python float
    equal to the bit."""
    assert list(got) == list(want)
    assert all(type(c) is float for c in got.values())
    assert (np.array(list(got.values())).tobytes()
            == np.array(list(want.values()), dtype=np.float64).tobytes())


class TestPhaseSpaceBlocks:
    """Phase-space trial blocks against the trial-by-trial loops, to the bit."""

    @pytest.mark.parametrize("alg", phase_space_algebras(), ids=lambda alg: (
        f"pairs{alg.num_pairs}-degree{alg.max_random_degree}"))
    def test_block_and_single_draws_equal_the_loop_bitwise(self, alg):
        from tests.helpers import loop_element_draws

        rngs = [np.random.default_rng(5) for _ in range(3)]
        blocks = alg.random_element(rngs[0], block=(6, 3))
        singles = [[alg.random_element(rngs[1]) for _ in range(3)] for _ in range(6)]
        loop = loop_element_draws(alg, rngs[2], 6, 3)
        for i, b in enumerate(blocks):
            assert b.trials == 6 and b.coeffs.shape == (len(b), 6)
            assert not b.coeffs.flags.writeable and not b.exps.flags.writeable
            for t in range(6):
                assert singles[t][i].trials is None
                assert_poly_terms_bitwise(b.trial(t).terms, loop[t][i].terms)
                assert_poly_terms_bitwise(singles[t][i].terms, loop[t][i].terms)
        # the same stream was consumed
        assert len({rng.uniform() for rng in rngs}) == 1

    @pytest.mark.parametrize("identity", list(Identity))
    def test_block_defects_match_loop_bitwise(self, identity):
        from hamalg.identities import _ARITY, identity_defect
        from tests.helpers import loop_identity_defects

        rng = np.random.default_rng([4, list(Identity).index(identity)])
        for alg in phase_space_algebras():
            for trials in (1, 3):
                blocks = alg.random_element(rng, block=(trials, _ARITY[identity]))
                got = identity_defect(alg, identity, blocks)
                assert got.shape == (trials,)
                want = np.array(loop_identity_defects(alg, identity, blocks))
                assert got.tobytes() == want.tobytes(), alg.describe()

    def test_block_norms_equal_trial_norms_bitwise(self):
        alg = PhaseSpaceAlgebra(2, max_random_degree=2)
        f, g = alg.random_element(np.random.default_rng(9), block=(5, 2))
        # drawn blocks, products, brackets, a block that cancels in trial 2
        # and one that cancels in every trial, so holds no row
        h = f.product(g)
        k = PhaseSpacePoly._trusted(h.exps, h.coeffs * np.array([0.5, 2, 1, 3, 0.25]))
        assert (h - k).trial(2).terms == {} and len(f - f) == 0
        for block in (f, h, f.poisson(g), f + g.scale(0.5), h - k, f - f):
            norms = block.norm()
            assert norms.shape == (5,)
            for t in range(5):
                single = block.trial(t)
                assert norms[t].tobytes() == np.float64(single.norm()).tobytes()
                want = math.sqrt(sequential_sum(c * c for c in single.terms.values()))
                assert single.norm() == want

    @pytest.mark.parametrize("identity", [Identity.JACOBI, Identity.DERIVATION,
                                          Identity.CANONICAL_RELATION])
    @pytest.mark.parametrize("alg", [PhaseSpaceAlgebra(1, max_random_degree=1),   # 256-trial cap
                                     PhaseSpaceAlgebra(2, max_random_degree=1)],  # 117 a block
                             ids=["pairs1", "pairs2"])
    def test_check_identity_matches_loop_across_the_cap(self, alg, identity):
        from hamalg.identities import block_trials
        from tests.helpers import loop_check_identity

        check = (identity, 300, TOLERANCE, 2)
        assert block_trials(alg) < check[1]
        assert check_identity(alg, *check) == loop_check_identity(alg, *check)
