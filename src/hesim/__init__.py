"""Simulation toolkit for qubit-boson hybrid entangled states.

Builds even/odd cat codewords on truncated Fock spaces, the pseudospin
parity algebra, CHSH Bell analysis with the k(z) closed form and the
singular-value maximum over all settings, entanglement measures, and seeded
teleportation / entanglement swapping protocols, plus a batch CLI
(``hesim``).
"""

from .bellchsh import (
    CIRELSON_BOUND,
    CLASSICAL_BOUND,
    ChshResult,
    ChshSettings,
    analytic_optimum,
    correlation_matrix,
    optimize_chsh,
)
from .entanglement import (
    SchmidtSpectrum,
    entanglement_entropy,
    schmidt_coefficients,
)
from .fock import (
    DEFAULT_RESIDUAL_TOL,
    Encoding,
    FactorKind,
    LogicalState,
    SpaceDescriptor,
    StateVector,
    TruncationError,
    even_coherent,
    inner,
    mode_dim_for,
    odd_coherent,
    tensor,
)
from .protocols import (
    BellLabel,
    Correction,
    HesLabel,
    ParityBellLabel,
    RngStream,
    SpinBellLabel,
    SwapRecord,
    TeleportRecord,
    bell_pair,
    correction_for,
    hes_state,
    measure_spin_bell,
    parity_bell_state,
    parity_measurement,
    run_trials,
    spin_bell_state,
    swap_entanglement,
    teleport_parity,
    teleport_spin,
)
from .pseudospin import Direction, k_matrix, k_series

__version__ = "0.1.0"

__all__ = [
    "CIRELSON_BOUND",
    "CLASSICAL_BOUND",
    "DEFAULT_RESIDUAL_TOL",
    "BellLabel",
    "ChshResult",
    "ChshSettings",
    "Correction",
    "Direction",
    "Encoding",
    "FactorKind",
    "HesLabel",
    "LogicalState",
    "ParityBellLabel",
    "RngStream",
    "SchmidtSpectrum",
    "SpaceDescriptor",
    "SpinBellLabel",
    "StateVector",
    "SwapRecord",
    "TeleportRecord",
    "TruncationError",
    "analytic_optimum",
    "bell_pair",
    "correction_for",
    "correlation_matrix",
    "entanglement_entropy",
    "even_coherent",
    "hes_state",
    "inner",
    "k_matrix",
    "k_series",
    "measure_spin_bell",
    "mode_dim_for",
    "odd_coherent",
    "optimize_chsh",
    "parity_bell_state",
    "parity_measurement",
    "run_trials",
    "schmidt_coefficients",
    "spin_bell_state",
    "swap_entanglement",
    "tensor",
    "teleport_parity",
    "teleport_spin",
]
