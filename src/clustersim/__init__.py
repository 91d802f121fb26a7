"""Desk-scale simulation of the four-qubit cluster-state experiment:
fidelity witnesses, Schmidt-rank discrimination, one-way QC patterns with
feedforward, classical no-entanglement bounds, and coincidence statistics."""

from types import ModuleType as _ModuleType

from .classical_bound import (
    GroupingStrategy,
    classical_bound,
    margin_report,
    optimal_group_state,
)
from .counts import (
    CountRecord,
    born_distribution,
    expectation_from_counts,
    parse_counts,
    probabilities,
    sample_counts,
    serialize_counts,
    witness_from_counts,
)
from .entclass import classify_by_fidelity, fidelity_ceiling, rank_signature
from .mbqc import (
    SINGLE_QUBIT_INSTRUCTIONS,
    TWO_QUBIT_INSTRUCTIONS,
    GateInstruction,
    MeasurementPattern,
    basis_reassignment_check,
    derive_feedforward,
    execute,
    execute_density,
    single_rotation_pattern,
    target_single,
    target_two_qubit,
    two_qubit_pattern,
)
from .noise import NoiseSpec, apply_noise
from .states import (
    CZ,
    RX,
    RZ,
    DensityMatrix,
    LocalBasis,
    PauliString,
    PureState,
    apply_gate,
    cluster4,
    fidelity,
    measure,
    named_state,
    pauli_expectation,
    schmidt_coefficients,
)
from .witness import (
    ObservableSum,
    TomographicSetting,
    build_b2,
    build_b4,
    build_fidelity,
    required_settings,
    verify_dominance,
    witness_expectation,
)

__all__ = [k for k, v in globals().items() if not (k.startswith("_") or isinstance(v, _ModuleType))]
__version__ = "0.1.0"
