import numpy as np
import pytest

from hamalg import (
    AlgebraError,
    MeasurementConfig,
    Regime,
    back_reaction_gap,
    classical_freezing_defect,
    eom_generator,
    evolve,
)
from hamalg import measurement
from hamalg.measurement import (
    BASIS,
    _segments,
    evolution_bracket,
    evolve_rk4,
    propagator,
)


def config(regime=Regime.QUANTUM_QUANTUM, **kw):
    defaults = dict(m1=1.0, m2=1.0, g0=0.7, t0=0.0, dt=1.3, hbar=1.0)
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

    def test_qc_rows_freeze_classical_side(self):
        gen = eom_generator(config(regime=Regime.QUANTUM_CLASSICAL), 0.5)
        assert np.array_equal(gen[2], np.zeros(5))  # p2 frozen
        assert np.array_equal(gen[3], np.zeros(5))  # x2 frozen
        # forward action persists: x1 still sees x2 with weight g0
        assert gen[1, 3] == 0.7

    def test_outside_window_both_regimes_free(self):
        for regime in Regime:
            gen = eom_generator(config(regime=regime, t0=1.0), 0.5)
            assert gen[2, 0] == 0.0
            assert gen[1, 3] == 0.0

    def test_generator_is_derived_from_bracket(self):
        # the p2 row comes out of the canonical commutation relations, not
        # a table: check the bracket value directly
        cfg = config()
        h = cfg.hamiltonian(0.5)
        db = evolution_bracket({(0, 0, 0, 1): 1.0}, h, cfg)
        assert set(db) == {(0, 1, 0, 0)}
        assert db[(0, 1, 0, 0)] == pytest.approx(-0.7)

    def test_nonclosing_hamiltonian_rejected(self):
        # a cubic term drives linear observables out of the tracked span;
        # the generator derivation must refuse, not truncate
        from hamalg.measurement import generator_from_hamiltonian

        with pytest.raises(AlgebraError):
            generator_from_hamiltonian({(3, 0, 0, 0): 1.0}, config())


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
                                 dt=cfg.t0 + cfg.dt - 1.1, hbar=cfg.hbar,
                                 regime=cfg.regime)
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


class TestBackReaction:
    def test_qq_gap_value(self):
        assert back_reaction_gap(config(), 2.0) == pytest.approx(0.91, abs=1e-12)

    def test_qc_gap_zero(self):
        assert back_reaction_gap(config(regime=Regime.QUANTUM_CLASSICAL), 2.0) <= 1e-12

    def test_zero_coupling_gap_zero(self):
        for regime in Regime:
            assert back_reaction_gap(config(regime=regime, g0=0.0), 2.0) == 0.0


class TestFreezing:
    def test_universal_freezing(self):
        assert classical_freezing_defect() <= 1e-12

    def test_config_validation(self):
        with pytest.raises(AlgebraError):
            MeasurementConfig(m1=0.0, m2=1.0, g0=0.1, t0=0.0, dt=1.0)
        with pytest.raises(AlgebraError):
            MeasurementConfig(m1=1.0, m2=1.0, g0=0.1, t0=0.0, dt=-1.0)
        with pytest.raises(AlgebraError):
            MeasurementConfig(m1=1.0, m2=1.0, g0=0.1, t0=0.0, dt=1.0, hbar=0.0)
