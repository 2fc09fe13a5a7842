"""Heisenberg-picture dynamics of the coupled free-particle measurement
model, in quantum-quantum and quantum-classical regimes.

The model (``MeasurementConfig``): particle 1, whose momentum p1 is read
out, couples to particle 2 through a p1 x2 term switched on for a finite
window.

Observables are evolved, not states.  The tracked space is the linear
span of (p1, x1, p2, x2, 1), which is closed under the equations of
motion; its generator is *derived*, never hand-coded, from the composed
bracket f' = alpha12(f, h) of the two particles' algebras, whose law
weights the bracket of pair j by sqrt(a_j/a12).  On a canonical variable
that bracket is exactly its pair's weight times the Poisson bracket,
whatever the ordering of h, so one ``PhaseSpacePoly.poisson`` call on a
block gives the whole generator.  In the quantum-classical regime a2 = 0
removes the classical-bracket term, which freezes every pure-classical
observable: the no-back-reaction result.

Since g is piecewise constant and the generator is nilpotent, each
segment integrates in closed form as a finite exponential series; a
segment-aligned RK4 integrator is kept as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .elements import PhaseSpacePoly, exponent_rows
from .errors import AlgebraError

BASIS = ("p1", "x1", "p2", "x2", "1")
_BASIS_EXPONENTS = {
    "p1": (0, 1, 0, 0),   # exponent order (x1, p1, x2, p2)
    "x1": (1, 0, 0, 0),
    "p2": (0, 0, 0, 1),
    "x2": (0, 0, 1, 0),
    "1": (0, 0, 0, 0),
}
TRACKED = ("p1", "x1", "p2", "x2")
#: RK4 steps per constant-coupling segment of the cross-check integrator
RK4_STEPS = 64


class Regime(str, Enum):
    QUANTUM_QUANTUM = "qq"
    QUANTUM_CLASSICAL = "qc"


@dataclass(frozen=True)
class MeasurementConfig:
    """h = p1^2/(2 m1) + p2^2/(2 m2) + g(t) p1 x2, g piecewise constant:
    g0 inside the window [t0, t0 + dt), zero outside.

    The model takes no hbar: each canonical variable's bracket with h is
    the Poisson bracket weighted by hbar_j / hbar12, which is 1 or 0
    whatever hbar is (``generator_from_hamiltonian``).  It draws nothing
    either, so ``simulate`` accepts ``--seed`` only for the command line
    every subcommand shares, and never reads it."""

    m1: float
    m2: float
    g0: float
    t0: float
    dt: float
    regime: Regime

    def __post_init__(self):
        for name in ("m1", "m2", "g0", "t0", "dt"):
            if not math.isfinite(getattr(self, name)):
                raise AlgebraError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.m1 > 0 and self.m2 > 0):
            raise AlgebraError("masses must be positive")
        if not self.dt > 0:
            raise AlgebraError("measurement window dt must be positive")
        object.__setattr__(self, "regime", Regime(self.regime))

    def coupling(self, t: float) -> float:
        return self.g0 if self.t0 <= t < self.t0 + self.dt else 0.0

    def hamiltonian(self, t: float) -> dict:
        """h at time t as a monomial map (exponents over x1,p1,x2,p2 -> coefficient)."""
        terms = {
            (0, 2, 0, 0): 1.0 / (2.0 * self.m1),
            (0, 0, 0, 2): 1.0 / (2.0 * self.m2),
        }
        g = self.coupling(t)
        if g != 0.0:
            terms[(0, 1, 1, 0)] = g
        return terms


# ---------------------------------------------------------------------------
# generator derivation and exact evolution
# ---------------------------------------------------------------------------

def generator_from_hamiltonian(h: dict, cfg: MeasurementConfig) -> np.ndarray:
    """Derive the 5x5 real generator from the composed bracket
    f' = alpha12(f, h).

    For a canonical variable f of pair j, alpha12(f, h) is c_j {f, h}
    exactly, whatever the ordering of h: the commutator of a canonical
    variable with any polynomial is i hbar times their Poisson bracket,
    and the other pair enters through sigma alone.  Here c_j is the
    composition-law coefficient sqrt(a_j/a12) = hbar_j/hbar12, with
    hbar12 = hbar1: 1 on pair 1, 1 on pair 2 in the quantum-quantum regime
    and 0 in the quantum-classical one, which freezes x2 and p2 (no
    back-reaction).  No weight depends on hbar, so the model takes none.

    So one Poisson bracket of two blocks gives every row: trial i holds
    basis observable i weighted by its pair's c_j, against h in every
    trial.  Row i is trial i decomposed back over the basis
    (p1, x1, p2, x2, 1); degree growth means the canonical span is not
    closed and is rejected.
    """
    pair_weights = {"1": 1.0, "2": 1.0 if cfg.regime is Regime.QUANTUM_QUANTUM else 0.0}
    # c_j of each variable's pair; the unit has no pair
    weights = [pair_weights[name[1:]] if name in TRACKED else 0.0 for name in BASIS]
    f = PhaseSpacePoly._trusted(exponent_rows([_BASIS_EXPONENTS[name] for name in BASIS], 4),
                                np.diag(weights))
    h_block = np.array([[v] * len(BASIS) for v in h.values()]).reshape(len(h), len(BASIS))
    df = f.poisson(PhaseSpacePoly._trusted(exponent_rows(list(h), 4), h_block))
    basis_index = {_BASIS_EXPONENTS[name]: i for i, name in enumerate(BASIS)}
    gen = np.zeros((len(BASIS), len(BASIS)))
    for e, row in zip(map(tuple, df.exps.tolist()), df.coeffs):
        if e not in basis_index:
            name = BASIS[np.flatnonzero(row)[0]]
            raise AlgebraError(f"evolution of {name} left the canonical span at {e}")
        gen[:, basis_index[e]] += row  # onto +0.0: a weight-0 trial's -0.0 drops its sign
    return gen


def eom_generator(cfg: MeasurementConfig, t: float) -> np.ndarray:
    """Generator of the measurement model at time t (d/dt c = G c)."""
    return generator_from_hamiltonian(cfg.hamiltonian(t), cfg)


@np.errstate(over="ignore", invalid="ignore")
def _expm_nilpotent(gen: np.ndarray, dt: float) -> np.ndarray:
    """exp(gen*dt) as a finite series; the generator must be nilpotent.  A
    term or sum past the float range is refused as such, never read as a
    term that does not vanish."""
    n = gen.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, n + 2):
        term = term @ (gen * dt) / k
        if not np.any(term) or not np.isfinite(term).all():
            break
        if k > n:
            raise AlgebraError("generator is not nilpotent")
        out = out + term
    if not (np.isfinite(term).all() and np.isfinite(out).all()):
        raise AlgebraError(f"exp(G*dt) overflows over a segment of length {float(dt)}")
    return out


def _segments(cfg: MeasurementConfig, t_end: float):
    """Constant-coupling segments of [0, t_end] as (start, end) pairs."""
    cuts = sorted({0.0, t_end} | {b for b in (cfg.t0, cfg.t0 + cfg.dt) if 0.0 < b < t_end})
    return list(zip(cuts[:-1], cuts[1:]))


@dataclass
class Trajectory:
    """Sampled Heisenberg evolution: tracked observables expressed in the
    initial-time basis."""

    times: np.ndarray
    coefficients: np.ndarray  # shape (n_samples, len(TRACKED), len(BASIS))

    def observable(self, name: str) -> np.ndarray:
        return self.coefficients[:, TRACKED.index(name), :]


def _propagators(cfg: MeasurementConfig, times) -> np.ndarray:
    """Propagators at ascending times >= 0 by one walk over the
    constant-coupling segments.

    Each segment's generator is derived once.  The propagator at t is
    exp(G (t - start)) @ phi(start), where start is the last cut before t
    and phi(start) the product over the segments before it: the same
    products, in the same order, as a walk to t alone.
    """
    out = np.empty((len(times), len(BASIS), len(BASIS)))
    phi = np.eye(len(BASIS))
    segments = iter(_segments(cfg, times[-1]))
    start = end = 0.0
    gen = None
    for s, t in enumerate(times):
        while end < t:
            if gen is not None:
                phi = _expm_nilpotent(gen, end - start) @ phi
            start, end = next(segments)
            gen = eom_generator(cfg, 0.5 * (start + end))
        out[s] = phi if t == start else _expm_nilpotent(gen, t - start) @ phi
    return out


def propagator(cfg: MeasurementConfig, t: float) -> np.ndarray:
    """Basis evolution matrix: basis_i(t) = sum_j phi[i, j] basis_j(0)."""
    if not 0 <= t < math.inf:
        raise AlgebraError(f"evolution runs forward from t = 0 to a finite time, got {t}")
    return _propagators(cfg, [t])[0]


def evolve(cfg: MeasurementConfig, t_end: float, n_samples: int) -> Trajectory:
    if not 0 < t_end < math.inf:
        raise AlgebraError(f"t_end must be positive and finite, got {t_end}")
    if n_samples < 2:
        raise AlgebraError(f"n_samples must be >= 2, got {n_samples}")
    times = np.linspace(0.0, t_end, int(n_samples))
    rows = [BASIS.index(name) for name in TRACKED]
    return Trajectory(times=times, coefficients=_propagators(cfg, times)[:, rows, :])


def evolve_rk4(cfg: MeasurementConfig, t_end: float) -> np.ndarray:
    """Propagator at t_end by segment-aligned RK4, RK4_STEPS steps per
    segment; cross-check path."""
    phi = np.eye(len(BASIS))
    for start, end in _segments(cfg, t_end):
        gen = eom_generator(cfg, 0.5 * (start + end))
        h = (end - start) / RK4_STEPS
        for _ in range(RK4_STEPS):
            k1 = gen @ phi
            k2 = gen @ (phi + 0.5 * h * k1)
            k3 = gen @ (phi + 0.5 * h * k2)
            k4 = gen @ (phi + h * k3)
            phi = phi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return phi


def back_reaction_gap(traj: Trajectory) -> float:
    """Coefficient norm of p2(t_end) - p2(0), read off the trajectory's last
    sample, whose propagator the walk to t_end alone would give.

    Quantum-quantum: |g0| * dt once the window has closed (the momentum
    transferred onto p1's coefficient).  Quantum-classical: 0, the
    classical side is frozen.
    """
    diff = traj.observable("p2")[-1].copy()
    diff[BASIS.index("p2")] -= 1.0
    return float(np.linalg.norm(diff))
