import numpy as np
import pytest

from hamalg import OperatorAlgebra, OperatorElement, PhaseSpaceAlgebra

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.fixture
def paulis():
    return (OperatorElement(PAULI_X), OperatorElement(PAULI_Y), OperatorElement(PAULI_Z))


@pytest.fixture
def qha2():
    """Quantum algebra with hbar = 2 (a = 1) on 2x2 matrices."""
    return OperatorAlgebra(2, hbar=2.0)


@pytest.fixture
def cha1():
    return PhaseSpaceAlgebra(1, max_random_degree=3)


@pytest.fixture
def cha2():
    return PhaseSpaceAlgebra(2, max_random_degree=3)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_hybrid(rng, dim, num_pairs, degree, density=0.6):
    """Hybrid element with complex, non-Hermitian coefficients on a random
    subset of the monomials up to ``degree``, listed in shuffled order."""
    from hamalg import HybridElement
    from hamalg.elements import monomials_up_to_degree

    monos = monomials_up_to_degree(2 * num_pairs, degree)
    terms = {}
    for i in rng.permutation(len(monos)):
        if rng.uniform() <= density:
            terms[monos[i]] = (rng.standard_normal((dim, dim))
                               + 1j * rng.standard_normal((dim, dim)))
    return HybridElement(dim, num_pairs, terms)


def loop_term_pairs(u, v, combine):
    """The literal term-pair loop the batched engine replaces: each
    exponent's matrix summed in loop order, zero matrices dropped."""
    out = {}
    for ea, ma in u.terms.items():
        for eb, mb in v.terms.items():
            ec = tuple(a + b for a, b in zip(ea, eb))
            val = combine(ma, mb)
            out[ec] = out[ec] + val if ec in out else val
    return {e: m for e, m in out.items() if np.any(m != 0)}


def assert_terms_bitwise(got, want):
    """Same keys in the same order, and every matrix equal to the bit."""
    assert list(got) == list(want)
    for e, m in want.items():
        assert np.array_equal(got[e], m)
        assert got[e].tobytes() == m.tobytes()  # signed zeros too


def loop_draws(rng, trials, arity, dim=2, num_pairs=1, degree=2):
    """Input tuples drawn one element at a time, as the trial loops drew them."""
    from hamalg.brackets import random_hybrid_observable

    return [[random_hybrid_observable(rng, dim, num_pairs, degree) for _ in range(arity)]
            for _ in range(trials)]


def loop_defects(kind, desideratum, blocks, hbar):
    """Defects of a tuple of blocks, trial by trial on single elements."""
    from hamalg.brackets import desideratum_defect

    return [desideratum_defect(kind, desideratum, [b.trial(t) for b in blocks], hbar)
            for t in range(blocks[0].trials)]


def loop_measure_defects(kind, trials, seed=0, dim=2, num_pairs=1, degree=2, hbar=1.0):
    """The trial loop of ``measure_defects``: each tuple drawn and scored
    alone, the running worst replaced on ``>=``."""
    from hamalg.brackets import (DESIDERATA, DefectTriple, MixedBracketKind,
                                 desideratum_defect)
    from hamalg.serialize import element_to_json

    kind = MixedBracketKind(kind)
    result = DefectTriple(kind=kind, trials=trials, seed=seed)
    for di, name in enumerate(DESIDERATA):
        rng = np.random.default_rng([seed, di])
        arity = 2 if name == "antisymmetry" else 3
        worst, worst_witness = 0.0, None
        for elements in loop_draws(rng, trials, arity, dim, num_pairs, degree):
            d = desideratum_defect(kind, name, elements, hbar)
            if d >= worst:
                worst = d
                worst_witness = [element_to_json(e) for e in elements]
        setattr(result, f"{name}_defect", worst)
        result.witnesses[name] = {"defect": float(worst), "elements": worst_witness}
    return result


def loop_find_violation_witness(kind, desideratum, budget, seed=0, threshold=1e-6,
                                dim=2, num_pairs=1, degree=2, hbar=1.0):
    """The trial loop of ``find_violation_witness``: the first tuple over
    the threshold, drawn and scored alone."""
    from hamalg.brackets import DESIDERATA, MixedBracketKind, desideratum_defect
    from hamalg.serialize import element_to_json

    kind = MixedBracketKind(kind)
    rng = np.random.default_rng([seed, DESIDERATA.index(desideratum)])
    arity = 2 if desideratum == "antisymmetry" else 3
    for trial in range(budget):
        elements = loop_draws(rng, 1, arity, dim, num_pairs, degree)[0]
        d = desideratum_defect(kind, desideratum, elements, hbar)
        if d > threshold:
            return {"kind": kind.value, "desideratum": desideratum, "trial": trial,
                    "defect": float(d),
                    "elements": [element_to_json(e) for e in elements]}
    return None


def load_perfbench_module(name):
    """A module of the benchmark's ``perfbench/`` directory, loaded by file
    path under a name of its own so that it cannot shadow ``tests``."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    unique = f"_hamalg_perfbench_{name}"
    spec = importlib.util.spec_from_file_location(unique, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[unique] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module
