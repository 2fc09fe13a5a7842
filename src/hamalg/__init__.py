"""hamalg: quantum and classical Hamilton algebras, their tensor
composition, mixed quantum-classical brackets, measurement dynamics, and
the restriction argument pinning the quantum constant -- all exposed as
tolerance-checked, replayable verification suites.
"""

from .algebra import (
    CorruptedAlgebra,
    HamiltonAlgebra,
    OperatorAlgebra,
    PhaseSpaceAlgebra,
    relative_defect,
)
from .brackets import (
    MixedBracketKind,
    find_violation_witness,
    measure_defects,
    mixed_bracket,
)
from .compose import (
    ComposedAlgebra,
    HybridElement,
    KroneckerElement,
    compose_product_on_terms,
    simple_tensor,
    switching_map,
)
from .elements import OperatorElement, PhaseSpacePoly, QuantumConstant
from .errors import AlgebraError, HamalgError, ShapeError
from .identities import (
    Identity,
    check_identity,
    run_axiom_suite,
)
from .kernels import BACKEND as KERNEL_BACKEND
from .measurement import (
    MeasurementConfig,
    Regime,
    Trajectory,
    back_reaction_gap,
    eom_generator,
    evolve,
)
from .serialize import element_from_json, element_to_json
from .uniqueness import (
    restrict_alpha,
    scan_constants,
    uniqueness_check,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "ComposedAlgebra",
    "CorruptedAlgebra",
    "HamalgError",
    "HamiltonAlgebra",
    "HybridElement",
    "Identity",
    "KERNEL_BACKEND",
    "KroneckerElement",
    "MeasurementConfig",
    "MixedBracketKind",
    "OperatorAlgebra",
    "OperatorElement",
    "PhaseSpaceAlgebra",
    "PhaseSpacePoly",
    "QuantumConstant",
    "Regime",
    "ShapeError",
    "Trajectory",
    "back_reaction_gap",
    "check_identity",
    "compose_product_on_terms",
    "element_from_json",
    "element_to_json",
    "eom_generator",
    "evolve",
    "find_violation_witness",
    "measure_defects",
    "mixed_bracket",
    "relative_defect",
    "restrict_alpha",
    "run_axiom_suite",
    "scan_constants",
    "simple_tensor",
    "switching_map",
    "uniqueness_check",
]
