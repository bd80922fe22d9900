"""Public calls given an argument of the wrong type end in one TypeError that
names the argument and its value, "NAME must be ..., got VALUE", worded by
``fock._require`` for a class and by ``fock._integer`` for an integer:
never an AttributeError, nor Python's own message, which names neither."""

import re

import pytest

from hesim import (
    ChshResult,
    ChshSettings,
    Direction,
    Encoding,
    HesLabel,
    LogicalState,
    SchmidtSpectrum,
    SpaceDescriptor,
    StateVector,
    TeleportRecord,
    analytic_optimum,
    correlation_matrix,
    entanglement_entropy,
    even_coherent,
    hes_state,
    inner,
    k_matrix,
    k_series,
    measure_spin_bell,
    mode_dim_for,
    optimize_chsh,
    parity_measurement,
    schmidt_coefficients,
    teleport_spin,
)
from hesim.fock import _coherent_weights

PAIR = hes_state(HesLabel.PHI_PLUS, 1.0, 18)
SETTINGS = ChshSettings.in_plane(0.0, 0.0, 0.0, 0.0)

# (call, its refusal): each call once raised an AttributeError, a TypeError
# that named nothing, or nothing at all
CALLS = {
    "Encoding": (lambda: Encoding("q"), "space must be SpaceDescriptor, got 'q'"),
    "inner": (lambda: inner(PAIR, 1), "b must be LogicalState, got 1"),
    "correlation_matrix": (lambda: correlation_matrix(1), "state must be LogicalState, got 1"),
    "optimize_chsh": (lambda: optimize_chsh(None), "state must be LogicalState, got None"),
    "schmidt_coefficients_state": (lambda: schmidt_coefficients(1, {0}),
                                   "state must be LogicalState, got 1"),
    "entanglement_entropy_state": (lambda: entanglement_entropy(1, {0}),
                                   "state must be LogicalState, got 1"),
    "schmidt_coefficients_index": (lambda: schmidt_coefficients(PAIR, (0.0,)),
                                   "factor index must be an integer, got 0.0"),
    "measure_spin_bell": (lambda: measure_spin_bell(PAIR, (0, 1.0)),
                          "factor index must be an integer, got 1.0"),
    "parity_measurement": (lambda: parity_measurement(PAIR, 1.0),
                           "factor index must be an integer, got 1.0"),
    "even_coherent": (lambda: even_coherent(1.0, 18.0), "dim must be an integer, got 18.0"),
    "k_matrix": (lambda: k_matrix(1.0, "x"), "dim must be an integer, got 'x'"),
    "teleport_spin": (lambda: teleport_spin(0.6, 0.8, HesLabel.PHI_PLUS, 1.0, 18.0),
                      "dim must be an integer, got 18.0"),
    "StateVector": (lambda: StateVector(SpaceDescriptor.mode(4), 1.0),
                    "amps must be a sequence of real numbers, got 1.0"),
    "TeleportRecord": (lambda: TeleportRecord(1, PAIR, PAIR), "correction must be Correction, got 1"),
    # a z that is no number fails in the coherent walk, or in its cache as it
    # hashes z; each reader of the walk names it
    "Encoding.cat_z": (lambda: Encoding.cat("1", 18), "z must be a real number, got '1'"),
    "Encoding.cat_unhashable_z": (lambda: Encoding.cat([1], 18),
                                  "z must be a real number, got [1]"),
    "mode_dim_for": (lambda: mode_dim_for([1]), "z must be a real number, got [1]"),
    "k_series": (lambda: k_series(1j), "z must be a real number, got 1j"),
    "analytic_optimum": (lambda: analytic_optimum("1"), "z must be a real number, got '1'"),
    "ChshResult_value": (lambda: ChshResult("x", SETTINGS), "value must be a real number, got 'x'"),
    "ChshResult_settings": (lambda: ChshResult(1.0, 3), "settings must be ChshSettings, got 3"),
    "Direction": (lambda: Direction("a", 0, 0),
                  "nx, ny and nz must be real numbers, got ('a', 0, 0)"),
    "LogicalState": (lambda: LogicalState((Encoding.qubit(),), (None, 1)),
                     "coeffs must be complex numbers, got (None, 1)"),
    "LogicalState_string": (lambda: LogicalState((Encoding.qubit(),), ("x", 1)),
                            "coeffs must be complex numbers, got ('x', 1)"),
    "SchmidtSpectrum": (lambda: SchmidtSpectrum((None,)),
                        "coefficients must be real numbers, got (None,)"),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_a_wrong_type_is_a_type_error_that_names_it(name):
    call, message = CALLS[name]
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


def test_the_walks_cache_keeps_no_z_it_refused():
    _coherent_weights.cache_clear()
    for z in ("1", [1], 1j):
        with pytest.raises(TypeError, match="^z must be a real number"):
            Encoding.cat(z, 18)
    assert _coherent_weights.cache_info().currsize == 0
