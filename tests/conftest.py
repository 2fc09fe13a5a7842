"""Fixtures shared by the tests.  Plain helpers and reference loops live in
``tests/helpers.py``, imported under that name: collected together with
``perfbench/tests``, the name ``tests.conftest`` can resolve to that
directory's conftest."""

import numpy as np
import pytest

from hamalg import OperatorAlgebra, OperatorElement, PhaseSpaceAlgebra
from tests.helpers import PAULI_X, PAULI_Y, PAULI_Z


@pytest.fixture
def paulis():
    return (OperatorElement(PAULI_X), OperatorElement(PAULI_Y), OperatorElement(PAULI_Z))


@pytest.fixture
def qha2():
    """Quantum algebra with hbar = 2 (a = 1) on 2x2 matrices."""
    return OperatorAlgebra(2, a=1.0)


@pytest.fixture
def cha1():
    return PhaseSpaceAlgebra(1, max_random_degree=3)


@pytest.fixture
def cha2():
    return PhaseSpaceAlgebra(2, max_random_degree=3)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def load_perfbench_module():
    """A loader of the modules of the benchmark's ``perfbench/`` directory.

    Each module is loaded by file path under a name of its own, so that it
    cannot shadow ``tests``.  A fixture, not an import: collected together
    with ``perfbench/tests``, the name ``tests.conftest`` can resolve to
    that directory's conftest.
    """
    import importlib.util
    import sys
    from pathlib import Path

    def load(name):
        path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
        unique = f"_hamalg_perfbench_{name}"
        spec = importlib.util.spec_from_file_location(unique, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[unique] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
        return module
    return load
