import json
import math

import jsonschema
import numpy as np
import pytest

from hamalg import (
    ComposedAlgebra,
    CorruptedAlgebra,
    Identity,
    IdentityCheck,
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


def composed(a1, a2, a12, d1=2, d2=2):
    return ComposedAlgebra(OperatorAlgebra(d1, hbar=2 * math.sqrt(a1)),
                           OperatorAlgebra(d2, hbar=2 * math.sqrt(a2)), a12=a12)


class TestCheckIdentity:
    def test_operator_canonical_relation_passes(self):
        alg = OperatorAlgebra(3, hbar=1.0)
        res = check_identity(alg, IdentityCheck(Identity.CANONICAL_RELATION, trials=200))
        assert res.passed
        assert res.max_relative_defect <= 1e-10

    def test_phase_space_canonical_relation_is_associativity(self):
        alg = PhaseSpaceAlgebra(1, max_random_degree=3)
        res = check_identity(alg, IdentityCheck(Identity.CANONICAL_RELATION, trials=100))
        assert res.passed

    def test_corrupted_algebra_fails_loudly(self):
        base = OperatorAlgebra(3, hbar=1.0)
        bad = CorruptedAlgebra(base, alpha_scale=1.1)
        honest = check_identity(base, IdentityCheck(Identity.CANONICAL_RELATION, trials=50))
        broken = check_identity(bad, IdentityCheck(Identity.CANONICAL_RELATION, trials=50))
        assert not broken.passed
        # scaling the bracket by 1.1 scales the double-bracket side by 1.21,
        # leaving a defect of order 0.21 * a * (input scale)
        assert broken.max_relative_defect > 1e-2
        assert broken.max_relative_defect >= 1e3 * honest.max_relative_defect

    def test_corruption_spares_homogeneous_identities(self):
        bad = CorruptedAlgebra(OperatorAlgebra(3, hbar=1.0), alpha_scale=1.1)
        for identity in (Identity.ANTISYMMETRY, Identity.JACOBI, Identity.SYMMETRY,
                         Identity.DERIVATION):
            res = check_identity(bad, IdentityCheck(identity, trials=30))
            assert res.passed, identity

    def test_determinism_bit_identical(self):
        alg = OperatorAlgebra(4, hbar=2.0)
        check = IdentityCheck(Identity.JACOBI, trials=25, seed=77)
        a = check_identity(alg, check)
        b = check_identity(alg, check)
        assert a.max_relative_defect == b.max_relative_defect
        assert a.mean_relative_defect == b.mean_relative_defect
        assert a.worst_witness == b.worst_witness

    def test_different_seeds_draw_different_inputs(self):
        alg = OperatorAlgebra(4, hbar=2.0)
        a = check_identity(alg, IdentityCheck(Identity.JACOBI, trials=5, seed=0))
        b = check_identity(alg, IdentityCheck(Identity.JACOBI, trials=5, seed=1))
        assert a.worst_witness != b.worst_witness

    def test_witness_replay_reproduces_defect(self):
        alg = PhaseSpaceAlgebra(2, max_random_degree=2)
        res = check_identity(alg, IdentityCheck(Identity.DERIVATION, trials=20))
        replayed = replay_witness(alg, res.identity, res.worst_witness)
        assert replayed == pytest.approx(res.max_relative_defect, rel=1e-12, abs=1e-15)

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
        res = check_identity(OperatorAlgebra(2), IdentityCheck(Identity.JACOBI, trials=7))
        assert [b[0].trials for b in drawn] == [3, 3, 1]
        # a NaN trial makes the max NaN, as in ``measure_defects``
        assert math.isnan(res.max_relative_defect)
        assert not res.passed
        # the witness is serialized once, from the last maximal trial: trial 5,
        # which is trial 2 of the second block
        assert len(serialized) == 3
        for got, block in zip(serialized, drawn[1]):
            assert got.entries.tobytes() == block.entries[2].tobytes()
        assert res.worst_witness == [element_to_json(b.trial(2)) for b in drawn[1]]
        assert math.isnan(res.mean_relative_defect)

    def test_nan_only_defects_keep_no_witness(self, monkeypatch):
        from hamalg import identities
        monkeypatch.setattr(identities, "MAX_BLOCK_TRIALS", 2)
        blocks = []

        def scripted(alg, identity, elements):
            blocks.append(elements[0].trials)
            return np.full(elements[0].trials, math.nan)

        monkeypatch.setattr(identities, "identity_defect", scripted)
        res = check_identity(OperatorAlgebra(2), IdentityCheck(Identity.JACOBI, trials=3))
        assert blocks == [2, 1]
        assert math.isnan(res.max_relative_defect)
        assert res.worst_witness == []
        assert not res.passed

    def test_check_validation(self):
        with pytest.raises(ValueError):
            IdentityCheck(Identity.JACOBI, trials=0)
        with pytest.raises(ValueError):
            IdentityCheck(Identity.JACOBI, tolerance=0.0)


class TestAxiomSuite:
    @pytest.mark.parametrize("dim,hbar", [(2, 2.0), (3, 1.0), (4, 0.5)])
    def test_operator_suites_pass(self, dim, hbar):
        report = run_axiom_suite(OperatorAlgebra(dim, hbar=hbar), trials=60)
        assert report.passed
        assert {c.identity for c in report.checks} == set(Identity)

    def test_classical_suite_passes(self):
        report = run_axiom_suite(PhaseSpaceAlgebra(1, max_random_degree=3), trials=40)
        assert report.passed

    def test_composed_suite_passes_theorem(self):
        report = run_axiom_suite(composed(1.0, 4.0, 9.0), trials=40)
        assert report.passed

    def test_report_json_validates_against_schema(self):
        report = run_axiom_suite(OperatorAlgebra(2, hbar=1.0), trials=5)
        doc = json.loads(json.dumps(report.to_json()))
        jsonschema.validate(doc, _load_schema())

    def test_aggregate_pass_is_conjunction(self):
        bad = CorruptedAlgebra(OperatorAlgebra(2, hbar=1.0), alpha_scale=1.1)
        report = run_axiom_suite(bad, trials=20)
        assert not report.passed
        assert any(c.passed for c in report.checks)
        assert any(not c.passed for c in report.checks)


class TestLemmas:
    """The composition lemmas: every axiom holds on a composed algebra."""

    @pytest.mark.parametrize("identity", AXIOM_IDENTITIES)
    def test_lemmas_on_unequal_constants(self, identity):
        res = check_identity(composed(1.0, 1.0, 2.0), IdentityCheck(identity, trials=50))
        assert res.passed, (identity, res.max_relative_defect)

    def test_lemma_on_hybrid(self):
        hybrid = ComposedAlgebra(OperatorAlgebra(2, hbar=2.0),
                                 PhaseSpaceAlgebra(1, max_random_degree=2), a12=1.0)
        res = check_identity(hybrid, IdentityCheck(Identity.CANONICAL_RELATION, trials=50))
        assert res.passed

    def test_lemma5_fails_on_scaled_bracket(self):
        bad = CorruptedAlgebra(composed(1.0, 1.0, 2.0), alpha_scale=1.1)
        res = check_identity(bad, IdentityCheck(Identity.CANONICAL_RELATION, trials=30))
        assert not res.passed

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

        res = check_identity(Leaky(), IdentityCheck(Identity.ANTISYMMETRY, trials=20))
        assert not res.passed
        assert res.max_relative_defect > 1e-3


class TestMutationMonotonicity:
    @pytest.mark.parametrize("factory", [
        lambda: OperatorAlgebra(2, hbar=2.0),
        lambda: OperatorAlgebra(6, hbar=0.5),
        lambda: composed(1.0, 4.0, 9.0),
        lambda: ComposedAlgebra(OperatorAlgebra(2, hbar=2.0),
                                PhaseSpaceAlgebra(1, max_random_degree=2), a12=1.0),
    ])
    def test_scaled_bracket_breaks_canonical_relation(self, factory):
        base = factory()
        bad = CorruptedAlgebra(base, alpha_scale=1.1)
        honest = check_identity(base, IdentityCheck(Identity.CANONICAL_RELATION, trials=30))
        broken = check_identity(bad, IdentityCheck(Identity.CANONICAL_RELATION, trials=30))
        assert honest.passed
        assert not broken.passed
        assert broken.max_relative_defect >= 1e3 * broken.tolerance
        assert broken.max_relative_defect >= 1e3 * max(honest.max_relative_defect, 1e-300)


def matrix_algebras():
    """Operator algebras at dims 1-6 and quantum (x) quantum compositions at
    several dims and constants, ħ and a12 varied."""
    ops = [OperatorAlgebra(d, hbar=h) for d, h in zip(range(1, 7), (1.0, 2.0, 0.5) * 2)]
    qq = [composed(a1, a2, a12, d1, d2)
          for (a1, a2, a12), (d1, d2) in zip([(1.0, 1.0, 1.0), (1.0, 2.0, 1.5),
                                              (0.25, 4.0, 1.0), (1.0, 4.0, 9.0),
                                              (2.0, 0.5, 0.3)],
                                             [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)])]
    return ops + qq


def hybrid_algebras():
    """Quantum (x) classical compositions at several dims, pairs, degrees
    and constants."""
    return [ComposedAlgebra(OperatorAlgebra(dim, hbar=hbar),
                            PhaseSpaceAlgebra(pairs, max_random_degree=degree), a12=a12)
            for dim, hbar, pairs, degree, a12 in [(2, 2.0, 1, 2, None), (3, 0.5, 1, 1, 1.5),
                                                  (2, 1.0, 2, 1, 0.3), (1, 1.0, 1, 3, None)]]


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
    @pytest.mark.parametrize("factory", [lambda: OperatorAlgebra(2, hbar=0.5),
                                         lambda: OperatorAlgebra(6, hbar=2.0),
                                         lambda: composed(1.0, 2.0, 1.5),
                                         lambda: hybrid_algebras()[0]])   # 45-trial blocks
    def test_check_identity_matches_loop_across_the_cap(self, identity, factory):
        from tests.helpers import loop_check_identity

        alg = factory()
        check = IdentityCheck(identity, trials=300, seed=4)   # past the 256-trial cap
        assert check_identity(alg, check).to_json() == loop_check_identity(alg, check).to_json()

    @pytest.mark.parametrize("identity", [Identity.ANTISYMMETRY, Identity.JACOBI,
                                          Identity.CANONICAL_RELATION])
    def test_lemma_max_terms_path_matches_loop(self, identity, monkeypatch):
        from hamalg import identities
        from tests.helpers import loop_check_identity

        monkeypatch.setattr(identities, "MAX_BLOCK_TRIALS", 3)
        alg = composed(1.0, 2.0, 1.5, 2, 3)
        check = IdentityCheck(identity, trials=8, seed=1)
        assert check_identity(alg, check).to_json() == loop_check_identity(alg, check).to_json()

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
        check = IdentityCheck(Identity.CANONICAL_RELATION, trials=10)
        got = check_identity(bad, check)
        assert seen == [4, 4, 2]
        assert not got.passed
        assert got.to_json() == loop_check_identity(bad, check).to_json()

    def test_blocks_are_capped_by_entries(self, monkeypatch):
        from hamalg.cli import _build_algebra, build_parser
        from hamalg.elements import product_monomials
        from hamalg.identities import block_trials
        from hamalg.kernels import BLOCK_PAIRS

        assert block_trials(OperatorAlgebra(2)) == 256
        assert block_trials(OperatorAlgebra(64)) == BLOCK_PAIRS // 64 ** 2
        assert block_trials(OperatorAlgebra(128)) == 1
        assert block_trials(composed(1.0, 1.0, 1.0, 8, 8)) == 2
        # a phase-space trial's largest element holds every monomial of
        # degree <= 4 deg: C(2n + 4 deg, 4 deg) of them
        assert block_trials(PhaseSpaceAlgebra(1)) == BLOCK_PAIRS // 91 == 90
        assert block_trials(PhaseSpaceAlgebra(2, max_random_degree=3)) == 4
        assert block_trials(PhaseSpaceAlgebra(1, max_random_degree=1)) == 256
        assert block_trials(CorruptedAlgebra(OperatorAlgebra(30))) == BLOCK_PAIRS // 900

        # a quantum (x) classical trial's largest element is its deepest
        # product: a d x d coefficient on each of C(2n + 4 deg, 4 deg) monomials
        def hybrid(*options):
            return _build_algebra(build_parser().parse_args(
                ["verify", "--hybrid", "--seed", "0", *options]))

        assert hybrid().block_entries == product_monomials(2, 2) * 2 ** 2 == 180
        assert block_trials(hybrid()) == 45
        assert block_trials(hybrid("--pairs", "4")) == 1
        assert block_trials(CorruptedAlgebra(hybrid())) == 45


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
            assert np.array_equal(b.coeffs, b.coeffs.conj().swapaxes(2, 3))
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

        check = IdentityCheck(identity, trials=300, seed=2)
        assert block_trials(alg) < check.trials
        assert check_identity(alg, check).to_json() == loop_check_identity(alg, check).to_json()
