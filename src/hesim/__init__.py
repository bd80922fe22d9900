"""Simulation toolkit for qubit-boson hybrid entangled states.

Encodes a qubit, or an even/odd cat pair on a truncated Fock mode, as
scalars: no state holds a codeword, and only the dense check of ``kz``
builds the cat codewords (``even_coherent``, ``odd_coherent``). On top sit
the pseudospin parity algebra, CHSH Bell analysis with the k(z) closed form
and the singular-value maximum over all settings of any two-party state
(a hybrid pair, a spin pair or a cat pair), entanglement measures,
and seeded teleportation / entanglement swapping protocols, plus a batch
CLI (``hesim``). The package needs only the standard library.

``import hesim`` loads ``fock``, ``protocols`` and ``pseudospin``, which
every command runs. The names of ``bellchsh`` (``CIRELSON_BOUND``,
``CLASSICAL_BOUND``, ``ChshResult``, ``ChshSettings``, ``analytic_optimum``,
``correlation_matrix``, ``optimize_chsh``) and of ``entanglement``
(``SchmidtSpectrum``, ``entanglement_entropy``, ``schmidt_coefficients``)
load their module on first access and are bound here from then on, as are
the two modules themselves; only ``chsh`` needs the first and only ``swap``
and ``entropy`` the second.
"""

from .fock import (
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

# each deferred name of __all__, and each deferred module, to its module
_LAZY = {
    name: module
    for module, names in (
        ("bellchsh", ("CIRELSON_BOUND", "CLASSICAL_BOUND", "ChshResult", "ChshSettings",
                      "analytic_optimum", "correlation_matrix", "optimize_chsh")),
        ("entanglement", ("SchmidtSpectrum", "entanglement_entropy", "schmidt_coefficients")),
    )
    for name in (module, *names)
}


def __getattr__(name: str):
    """A deferred name: its module is imported and the name bound here, so
    this runs once a name."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = globals()[name] = module if name == _LAZY[name] else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
