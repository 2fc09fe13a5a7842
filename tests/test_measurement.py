import itertools

import numpy as np
import pytest

from hamalg import (
    AlgebraError,
    ComposedAlgebra,
    HybridElement,
    MeasurementConfig,
    OperatorAlgebra,
    PhaseSpaceAlgebra,
    Regime,
    back_reaction_gap,
    eom_generator,
    evolve,
)
from hamalg import PhaseSpacePoly, measurement
from hamalg.elements import monomials_up_to_degree
from hamalg.measurement import (
    _BASIS_EXPONENTS,
    BASIS,
    TRACKED,
    _segments,
    evolve_rk4,
    generator_from_hamiltonian,
    propagator,
)
from tests.helpers import loop_evolution_bracket, loop_generator


def config(regime=Regime.QUANTUM_QUANTUM, **kw):
    defaults = dict(m1=1.0, m2=1.0, g0=0.7, t0=0.0, dt=1.3)
    defaults.update(kw)
    return MeasurementConfig(regime=regime, **defaults)


class TestHamiltonian:
    def test_three_terms_inside_window(self):
        terms = config(m1=2.0, m2=4.0).hamiltonian(0.5)
        assert terms[(0, 2, 0, 0)] == 0.25   # 1/(2 m1)
        assert terms[(0, 0, 0, 2)] == 0.125  # 1/(2 m2)
        assert terms[(0, 1, 1, 0)] == 0.7

    def test_coupling_zero_outside_window(self):
        cfg = config(t0=1.0, dt=0.5)
        assert (0, 1, 1, 0) not in cfg.hamiltonian(0.5)
        assert (0, 1, 1, 0) in cfg.hamiltonian(1.2)
        assert (0, 1, 1, 0) not in cfg.hamiltonian(1.6)

    def test_zero_coupling_gives_free_hamiltonian(self):
        assert set(config(g0=0.0).hamiltonian(0.5)) == {(0, 2, 0, 0), (0, 0, 0, 2)}


class TestGeneratorDerivation:
    def test_qq_rows_match_printed_equations(self):
        cfg = config(m1=2.0, m2=4.0, g0=0.7)
        gen = eom_generator(cfg, 0.5)  # inside the window
        # basis order (p1, x1, p2, x2, 1)
        assert np.array_equal(gen[0], [0, 0, 0, 0, 0])            # p1' = 0
        assert np.allclose(gen[1], [0.5, 0, 0, 0.7, 0])           # x1' = p1/m1 + g x2
        assert np.array_equal(gen[2], [-0.7, 0, 0, 0, 0])         # p2' = -g p1
        assert np.allclose(gen[3], [0, 0, 0.25, 0, 0])            # x2' = p2/m2
        assert np.array_equal(gen[4], [0, 0, 0, 0, 0])

    def test_qc_rows_freeze_classical_side(self, monkeypatch):
        # x2 and p2 enter with the classical pair's weight
        # sqrt(a2/a12) = 0, so their trials are empty and their rows zero,
        # signed zeros included
        blocks = []
        original = PhaseSpacePoly.poisson
        monkeypatch.setattr(PhaseSpacePoly, "poisson",
                            lambda f, h: blocks.append(f) or original(f, h))
        gen = eom_generator(config(regime=Regime.QUANTUM_CLASSICAL), 0.5)
        [f] = blocks
        assert [f.trial(i).terms for i in range(len(BASIS))] == [
            {(0, 1, 0, 0): 1.0}, {(1, 0, 0, 0): 1.0}, {}, {}, {}]
        assert gen[2:4].tobytes() == np.zeros((2, 5)).tobytes()  # p2, x2 frozen
        # forward action persists: x1 still sees x2 with weight g0
        assert gen[1, 3] == 0.7

    def test_outside_window_both_regimes_free(self):
        for regime in Regime:
            gen = eom_generator(config(regime=regime, t0=1.0), 0.5)
            assert gen[2, 0] == 0.0
            assert gen[1, 3] == 0.0

    def test_generator_is_derived_from_bracket(self, monkeypatch):
        # the rows come out of one Poisson bracket on a block, not a table:
        # trial i holds basis observable i, h repeats over the trials
        calls = []
        original = PhaseSpacePoly.poisson

        def spy(f, h):
            calls.append((f, h, original(f, h)))
            return calls[-1][-1]

        monkeypatch.setattr(PhaseSpacePoly, "poisson", spy)
        cfg = config()
        gen = eom_generator(cfg, 0.5)
        [(f, h, df)] = calls
        assert f.trials == h.trials == len(BASIS)
        for i, name in enumerate(BASIS):
            want = {} if name == "1" else {_BASIS_EXPONENTS[name]: 1.0}
            assert f.trial(i).terms == want
            assert h.trial(i).terms == cfg.hamiltonian(0.5)
        # p2' = {p2, g0 p1 x2} = -g0 p1, from the canonical pair's weight
        assert df.trial(2).terms == {(0, 1, 0, 0): -0.7}
        assert gen[2, 0] == -0.7

    def test_nonclosing_hamiltonian_rejected(self):
        # a cubic term drives linear observables out of the tracked span;
        # the generator derivation must refuse, not truncate
        with pytest.raises(AlgebraError, match="left the canonical span"):
            generator_from_hamiltonian({(3, 0, 0, 0): 1.0}, config())


#: model Hamiltonians (m1, m2, g0, t) inside and outside the window
MODEL_GRID = list(itertools.product((0.3, 1.0, 1.7, 4.0), (0.3, 1.0, 4.0),
                                    (-0.9, 0.0, 0.7, 2.3), (0.5, 5.0)))


class TestAgainstNormalOrderedLoop:
    """The composed-bracket generator, which takes no hbar, against the
    normal-ordered commutator (f h - h f)/(i hbar) of ``tests/helpers.py``
    at several hbar."""

    @pytest.mark.parametrize("regime", list(Regime))
    def test_generator_equals_loop_bitwise(self, regime):
        # at a power-of-two hbar the loop's product by and division by
        # i hbar are exact, so the two routes agree to the bit
        for (m1, m2, g0, t), hbar in itertools.product(MODEL_GRID, (0.25, 1.0, 4.0)):
            cfg = config(regime=regime, m1=m1, m2=m2, g0=g0)
            got, want = eom_generator(cfg, t), loop_generator(cfg.hamiltonian(t), regime, hbar)
            assert got.tobytes() == want.tobytes(), (m1, m2, g0, t, hbar)

    @pytest.mark.parametrize("regime", list(Regime))
    def test_generator_within_a_rounding_of_loop(self, regime):
        # elsewhere the loop rounds g hbar before dividing by hbar, and can
        # land one unit in the last place off (g0 = -0.9 at hbar = 0.3)
        for (m1, m2, g0, t), hbar in itertools.product(MODEL_GRID, (1e-6, 0.3, 2.5)):
            cfg = config(regime=regime, m1=m1, m2=m2, g0=g0)
            got, want = eom_generator(cfg, t), loop_generator(cfg.hamiltonian(t), regime, hbar)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("regime", list(Regime))
    def test_variable_bracket_equals_poisson_for_any_ordering(self, regime):
        # for a canonical variable of pair j, [f, h]/(i hbar) on a
        # normal-ordered h of degree 3 is c_j {f, h}: the bracket the
        # generator takes, with c_1 = 1 and c_2 = 1 (qq) or 0 (qc)
        rng = np.random.default_rng(21)
        monos = monomials_up_to_degree(4, 3)
        weight = {"1": 1.0, "2": 1.0 if regime is Regime.QUANTUM_QUANTUM else 0.0}
        worst, compared = 0.0, 0
        for hbar in (1e-6, 0.3, 1.0, 2.5):
            for _ in range(38):
                h = {e: rng.uniform(-1.0, 1.0) for e in monos if rng.uniform() < 0.6}
                for name in TRACKED:
                    want = loop_evolution_bracket({_BASIS_EXPONENTS[name]: 1.0}, h, regime,
                                                  hbar)
                    got = (PhaseSpacePoly.variable(2, name).scale(weight[name[1]])
                           .poisson(PhaseSpacePoly(2, h)).terms)
                    assert set(want) <= set(got)
                    if not got:
                        continue
                    compared += 1
                    diff = [abs(want.get(e, 0.0) - c) for e, c in got.items()]
                    worst = max(worst, max(diff) / max(map(abs, got.values())))
        assert worst <= 1e-15
        assert compared >= 4 * 38 * 2  # at least the p1 and x1 brackets


class TestEvolution:
    def test_momentum_transfer_relation(self):
        cfg = config()
        traj = evolve(cfg, 2.0, 9)
        p2 = traj.observable("p2")
        # final p2 = p2 - g0*dt * p1 exactly
        assert abs(p2[-1][0] - (-0.91)) <= 1e-12
        assert np.array_equal(p2[-1][1:], [0, 1, 0, 0])

    def test_p1_invariant_both_regimes(self):
        for regime in Regime:
            traj = evolve(config(regime=regime), 2.0, 7)
            p1 = traj.observable("p1")
            expected = np.zeros(5)
            expected[0] = 1.0
            assert all(np.array_equal(row, expected) for row in p1)

    def test_classical_rows_constant(self):
        traj = evolve(config(regime=Regime.QUANTUM_CLASSICAL), 2.0, 9)
        for name, idx in (("p2", 2), ("x2", 3)):
            rows = traj.observable(name)
            expected = np.zeros(5)
            expected[idx] = 1.0
            assert all(np.array_equal(r, expected) for r in rows)

    def test_free_particle_drift(self):
        cfg = config(g0=0.0, m1=2.0)
        traj = evolve(cfg, 3.0, 4)
        x1 = traj.observable("x1")
        assert np.allclose(x1[-1], [1.5, 1, 0, 0, 0])  # x1 + (t/m1) p1

    def test_first_sample_is_identity_embedding(self):
        traj = evolve(config(), 1.0, 3)
        expected = np.zeros((4, 5))
        for i in range(4):
            expected[i, i] = 1.0
        assert np.array_equal(traj.coefficients[0], expected)

    def test_segment_chaining_agrees_with_one_shot(self):
        cfg = config(t0=0.3, dt=0.9)
        one = propagator(cfg, 2.0)
        # chain: evolve to 1.1 (mid-window), then continue with a config
        # whose window is what remains
        first = propagator(cfg, 1.1)
        rest = MeasurementConfig(m1=cfg.m1, m2=cfg.m2, g0=cfg.g0, t0=0.0,
                                 dt=cfg.t0 + cfg.dt - 1.1, regime=cfg.regime)
        chained = propagator(rest, 0.9) @ first
        assert np.abs(chained - one).max() <= 1e-13

    def test_rk4_cross_check(self):
        for regime in Regime:
            cfg = config(regime=regime, m1=1.7, m2=0.4, g0=-0.9, t0=0.2, dt=0.8)
            exact = propagator(cfg, 2.0)
            rk4 = evolve_rk4(cfg, 2.0)
            assert np.abs(exact - rk4).max() <= 1e-10

    def test_correlation_readout_grid(self):
        for g0 in (0.3, 1.0, -0.5):
            for dt in (0.5, 1.3):
                cfg = config(g0=g0, dt=dt)
                traj = evolve(cfg, cfg.t0 + dt + 0.4, 5)
                slope = traj.observable("p2")[-1][0]
                assert abs(slope - (-g0 * dt)) <= 1e-12

    def test_samples_equal_one_shot_propagators(self):
        # samples land on both cuts (t = 1 and t = 2) and between them
        for regime in Regime:
            cfg = config(regime=regime, t0=1.0, dt=1.0)
            traj = evolve(cfg, 5.0, 11)
            rows = [BASIS.index(name) for name in ("p1", "x1", "p2", "x2")]
            for t, coeffs in zip(traj.times, traj.coefficients):
                one_shot = propagator(cfg, float(t))[rows]
                assert np.array_equal(coeffs, one_shot)
                assert coeffs.tobytes() == one_shot.tobytes()  # signed zeros too

    def test_generator_derived_once_per_segment(self, monkeypatch):
        calls = []
        original = measurement.eom_generator

        def counting(cfg, t):
            calls.append(t)
            return original(cfg, t)

        monkeypatch.setattr(measurement, "eom_generator", counting)
        cfg = config(t0=1.0, dt=1.0)
        evolve(cfg, 5.0, 11)
        assert len(calls) == len(_segments(cfg, 5.0)) == 3
        calls.clear()
        propagator(cfg, 1.5)
        assert len(calls) == 2

    def test_sampling_validation(self):
        with pytest.raises(AlgebraError):
            evolve(config(), -1.0, 5)
        with pytest.raises(AlgebraError):
            evolve(config(), 1.0, 1)

    def test_series_refuses_a_non_nilpotent_generator(self):
        with pytest.raises(AlgebraError, match="generator is not nilpotent"):
            measurement._expm_nilpotent(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)

    def test_series_keeps_a_large_finite_exponential(self):
        got = measurement._expm_nilpotent(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e308)
        assert got.tolist() == [[1.0, 1e308], [0.0, 1.0]]

    @pytest.mark.parametrize("dt", [1e103, 1e150, 1e300])
    def test_an_overflowing_segment_is_refused_as_such(self, dt):
        # inside the window G^4 = 0 exactly, but G^3 dt^3 passes the float
        # range: an overflow, not a term that never vanishes
        with pytest.raises(AlgebraError, match=r"exp\(G\*dt\) overflows over a segment"):
            evolve(config(dt=dt), dt, 2)

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_non_finite_end_time_is_refused(self, t):
        with pytest.raises(AlgebraError, match="finite"):
            evolve(config(), t, 5)
        with pytest.raises(AlgebraError, match="finite"):
            propagator(config(), t)


class TestBackReaction:
    def test_qq_gap_value(self):
        assert back_reaction_gap(evolve(config(), 2.0, 2)) == pytest.approx(0.91, abs=1e-12)

    def test_qc_gap_zero(self):
        assert back_reaction_gap(evolve(config(regime=Regime.QUANTUM_CLASSICAL), 2.0, 2)) <= 1e-12

    def test_zero_coupling_gap_zero(self):
        for regime in Regime:
            assert back_reaction_gap(evolve(config(regime=regime, g0=0.0), 2.0, 2)) == 0.0


class TestFreezing:
    def test_universal_freezing(self):
        # d/dt (e1 (x) f2) = alpha(e1 (x) f2, H) over 50 random hybrid
        # Hamiltonians (2x2 coefficients, one pair, degree 2) and the basis
        # of classical observables up to degree 3: zero, since the hybrid
        # bracket has no classical-bracket term
        hybrid = ComposedAlgebra(OperatorAlgebra(2, a=0.25),
                                 PhaseSpaceAlgebra(1, max_random_degree=2), a12=0.25)
        rng = np.random.default_rng(0)
        classical_basis = [HybridElement(2, 1, {e: np.eye(2)})
                           for e in monomials_up_to_degree(2, 3)]
        worst = 0.0
        for _ in range(50):
            h = hybrid.random_element(rng)
            for f in classical_basis:
                worst = max(worst, hybrid.alpha(f, h).norm())
        assert worst <= 1e-12

    def test_config_validation(self):
        with pytest.raises(AlgebraError):
            config(m1=0.0, g0=0.1, dt=1.0)
        with pytest.raises(AlgebraError):
            config(g0=0.1, dt=-1.0)

    @pytest.mark.parametrize("name", ["m1", "m2", "g0", "t0", "dt"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_config_is_refused(self, name, value):
        with pytest.raises(AlgebraError, match=f"^{name} must be finite"):
            config(**{name: value})
