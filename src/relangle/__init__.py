"""Optimal estimation of the relative rotation angle between two spin systems.

The pipeline: exact SU(2) numerics (su2), group-averaged block-diagonal
signal states (states), utility-weighted measurement operators and fidelity
evaluation (estimator), optimal POVMs with optimality certificates
(optimizer), and the classical-reference limit plus large-j2 sweeps (limits).
"""
from .su2 import (
    DomainError,
    HalfInt,
    clebsch_gordan,
    couple_range,
    half,
    m_range,
    wigner_d_matrix,
)
from .states import (
    BlockedOperator,
    GenericState,
    averaged_state,
    averaged_state_oracle,
    coupling_structure,
    signal_density,
    state_from_text,
    state_to_text,
)
from .estimator import (
    BlockPovm,
    PovmSpec,
    StructureMismatchError,
    TrigBlock,
    TrigBlocks,
    fidelity,
    fidelity_montecarlo,
    signal_trig_blocks,
)
from .optimizer import (
    OptimizationResult,
    UnsupportedBlockError,
    helstrom_certificate,
    max_fidelity,
    optimize_state,
    optimize_trig_blocks,
    two_term_nu,
)
from .limits import (
    asymptotic_deviation,
    classical_fidelity,
    classical_sigma,
    classical_trig_blocks,
    default_sweep_grid,
    sweep_optimal_vs_j2,
)

__all__ = [
    "DomainError",
    "HalfInt",
    "clebsch_gordan",
    "couple_range",
    "half",
    "m_range",
    "wigner_d_matrix",
    "BlockedOperator",
    "GenericState",
    "averaged_state",
    "averaged_state_oracle",
    "coupling_structure",
    "signal_density",
    "state_from_text",
    "state_to_text",
    "BlockPovm",
    "PovmSpec",
    "StructureMismatchError",
    "TrigBlock",
    "TrigBlocks",
    "fidelity",
    "fidelity_montecarlo",
    "signal_trig_blocks",
    "OptimizationResult",
    "UnsupportedBlockError",
    "helstrom_certificate",
    "max_fidelity",
    "optimize_state",
    "optimize_trig_blocks",
    "two_term_nu",
    "asymptotic_deviation",
    "classical_fidelity",
    "classical_sigma",
    "classical_trig_blocks",
    "default_sweep_grid",
    "sweep_optimal_vs_j2",
]

__version__ = "1.0.0"
