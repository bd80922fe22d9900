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
    analytic_settings,
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
    FactorKind,
    SpaceDescriptor,
    StateVector,
    TruncationError,
    apply,
    even_coherent,
    inner,
    mode_dim_for,
    odd_coherent,
    partial_inner,
    qubit_state,
    tensor,
)
from .protocols import (
    BellLabel,
    Correction,
    Encoding,
    HesLabel,
    ParityBellLabel,
    RngStream,
    SpinBellLabel,
    SwapRecord,
    TeleportRecord,
    bell_pair,
    correction_for,
    draw,
    hes_state,
    measure_parity_bell,
    measure_spin_bell,
    parity_bell_state,
    parity_measurement,
    spin_bell_state,
    swap_entanglement,
    teleport_parity,
    teleport_spin,
)
from .pseudospin import (
    Direction,
    PseudospinOps,
    build_pseudospin,
    k_matrix,
    k_series,
)

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
    "ParityBellLabel",
    "PseudospinOps",
    "RngStream",
    "SchmidtSpectrum",
    "SpaceDescriptor",
    "SpinBellLabel",
    "StateVector",
    "SwapRecord",
    "TeleportRecord",
    "TruncationError",
    "analytic_optimum",
    "analytic_settings",
    "apply",
    "bell_pair",
    "build_pseudospin",
    "correction_for",
    "correlation_matrix",
    "draw",
    "entanglement_entropy",
    "even_coherent",
    "hes_state",
    "inner",
    "k_matrix",
    "k_series",
    "measure_parity_bell",
    "measure_spin_bell",
    "mode_dim_for",
    "odd_coherent",
    "optimize_chsh",
    "parity_bell_state",
    "parity_measurement",
    "partial_inner",
    "qubit_state",
    "schmidt_coefficients",
    "spin_bell_state",
    "swap_entanglement",
    "tensor",
    "teleport_parity",
    "teleport_spin",
]
