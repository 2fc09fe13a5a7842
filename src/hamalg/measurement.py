"""Heisenberg-picture dynamics of the coupled free-particle measurement
model, in quantum-quantum and quantum-classical regimes.

The model (``MeasurementConfig``): particle 1, whose momentum p1 is read
out, couples to particle 2 through a p1 x2 term switched on for a finite
window.

Observables are evolved, not states.  The tracked space is the linear
span of (p1, x1, p2, x2, 1), which is closed under the equations of
motion; its generator is *derived* by applying the evolution bracket
f' = alpha(f, h) term by term with the canonical commutation relations,
never hand-coded.  In the quantum-classical regime the bracket is the
hybrid one (commutator on the quantum factor only), which freezes every
pure-classical observable: the no-back-reaction result.

Since g is piecewise constant and the generator is nilpotent, each
segment integrates in closed form as a finite exponential series; a
segment-aligned RK4 integrator is kept as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import OperatorAlgebra, PhaseSpaceAlgebra
from .brackets import random_hybrid_observable
from .compose import ComposedAlgebra, HybridElement
from .elements import monomials_up_to_degree
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
    g0 inside the window [t0, t0 + dt), zero outside."""

    m1: float
    m2: float
    g0: float
    t0: float
    dt: float
    hbar: float = 1.0
    regime: Regime = Regime.QUANTUM_QUANTUM

    def __post_init__(self):
        for name in ("m1", "m2", "g0", "t0", "dt", "hbar"):
            if not math.isfinite(getattr(self, name)):
                raise AlgebraError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.m1 > 0 and self.m2 > 0):
            raise AlgebraError("masses must be positive")
        if not self.dt > 0:
            raise AlgebraError("measurement window dt must be positive")
        if not self.hbar > 0:
            raise AlgebraError("hbar must be positive")
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
# canonical-pair polynomial algebra (normal ordering x before p per pair)
# ---------------------------------------------------------------------------

def _mono_mul(e1, e2, hbars):
    """Product of two normal-ordered monomials.

    Reordering p^m x^n across a canonical pair with constant hbar gives
    sum_k k! C(m,k) C(n,k) (-i hbar)^k x^(n-k) p^(m-k); a classical pair
    (hbar = 0) keeps only k = 0.
    """
    a1, b1, c1, d1 = e1
    a2, b2, c2, d2 = e2
    out = {}
    for k1 in range(min(b1, a2) + 1):
        co1 = (math.factorial(k1) * math.comb(b1, k1) * math.comb(a2, k1)
               * (-1j * hbars[0]) ** k1)
        if co1 == 0:
            continue
        for k2 in range(min(d1, c2) + 1):
            co2 = (math.factorial(k2) * math.comb(d1, k2) * math.comb(c2, k2)
                   * (-1j * hbars[1]) ** k2)
            if co2 == 0:
                continue
            e = (a1 + a2 - k1, b1 + b2 - k1, c1 + c2 - k2, d1 + d2 - k2)
            out[e] = out.get(e, 0) + co1 * co2
    return out


def _weyl_mul(f: dict, g: dict, hbars) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            for e, c in _mono_mul(e1, e2, hbars).items():
                out[e] = out.get(e, 0) + c1 * c2 * c
    return {e: c for e, c in out.items() if c != 0}


def evolution_bracket(f: dict, h: dict, cfg: MeasurementConfig) -> dict:
    """df/dt = (f h - h f) / (i hbar) on canonical-pair polynomials.

    Quantum-quantum: both pairs carry the commutator at hbar.
    Quantum-classical: the second pair is classical (its variables
    commute exactly), which makes this the hybrid bracket."""
    hbars = ((cfg.hbar, cfg.hbar) if cfg.regime is Regime.QUANTUM_QUANTUM
             else (cfg.hbar, 0.0))
    fh = _weyl_mul(f, h, hbars)
    hf = _weyl_mul(h, f, hbars)
    out = dict(fh)
    for e, c in hf.items():
        out[e] = out.get(e, 0) - c
    return {e: c / (1j * cfg.hbar) for e, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# generator derivation and exact evolution
# ---------------------------------------------------------------------------

def generator_from_hamiltonian(h: dict, cfg: MeasurementConfig) -> np.ndarray:
    """Derive the 5x5 real generator from the bracket f' = alpha(f, h).

    Row i is the bracket of basis observable i with h, decomposed back
    over the basis (p1, x1, p2, x2, 1); degree growth or a complex
    coefficient means the canonical span is not closed and is rejected.
    """
    basis_index = {_BASIS_EXPONENTS[name]: i for i, name in enumerate(BASIS)}
    gen = np.zeros((len(BASIS), len(BASIS)))
    for i, name in enumerate(BASIS):
        df = evolution_bracket({_BASIS_EXPONENTS[name]: 1.0}, h, cfg)
        for e, c in df.items():
            if e not in basis_index:
                raise AlgebraError(f"evolution of {name} left the canonical span at {e}")
            if abs(c.imag) > 1e-13 * max(1.0, abs(c)):
                raise AlgebraError(f"non-real evolution coefficient {c} for {name}")
            gen[i, basis_index[e]] = c.real
    return gen


def eom_generator(cfg: MeasurementConfig, t: float) -> np.ndarray:
    """Generator of the measurement model at time t (d/dt c = G c)."""
    return generator_from_hamiltonian(cfg.hamiltonian(t), cfg)


def _expm_nilpotent(gen: np.ndarray, dt: float) -> np.ndarray:
    """exp(gen*dt) as a finite series; the generator must be nilpotent."""
    n = gen.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, n + 2):
        term = term @ (gen * dt) / k
        if not np.any(term):
            return out
        if k > n:
            raise AlgebraError("generator is not nilpotent")
        out = out + term
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


def back_reaction_gap(cfg: MeasurementConfig, t_end: float) -> float:
    """Coefficient norm of p2(t_end) - p2(0).

    Quantum-quantum: |g0| * dt once the window has closed (the momentum
    transferred onto p1's coefficient).  Quantum-classical: 0, the
    classical side is frozen.
    """
    phi = propagator(cfg, t_end)
    i = BASIS.index("p2")
    diff = phi[i, :].copy()
    diff[i] -= 1.0
    return float(np.linalg.norm(diff))


# ---------------------------------------------------------------------------
# freezing of classical observables under any hybrid Hamiltonian
# ---------------------------------------------------------------------------

def classical_freezing_defect() -> float:
    """Max norm of d/dt (e1 (x) f2) over 50 random hybrid Hamiltonians
    (2x2 coefficients on one canonical pair, degree 2, hbar 1, seed 0)
    and the basis of classical observables f2 up to degree 3; exactly
    zero in theory because the hybrid bracket contains no
    classical-bracket term."""
    hybrid = ComposedAlgebra(OperatorAlgebra(2, hbar=1.0),
                             PhaseSpaceAlgebra(1, max_random_degree=2))
    rng = np.random.default_rng(0)
    classical_basis = [HybridElement(2, 1, {e: np.eye(2)}, hermitian=True)
                       for e in monomials_up_to_degree(2, 3)]
    worst = 0.0
    for _ in range(50):
        h = random_hybrid_observable(rng)
        for f in classical_basis:
            worst = max(worst, hybrid.alpha(f, h).norm())
    return worst
