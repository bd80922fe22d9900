"""Public calls given an argument of the wrong type end in one TypeError that
names the argument and its value, "NAME must be ..., got VALUE", worded by
``fock._require`` for a class and by ``fock._integer`` for an integer:
never an AttributeError, nor Python's own message, which names neither."""

import re

import pytest

from hesim import (
    Encoding,
    HesLabel,
    SpaceDescriptor,
    StateVector,
    TeleportRecord,
    correlation_matrix,
    entanglement_entropy,
    even_coherent,
    hes_state,
    inner,
    k_matrix,
    measure_spin_bell,
    optimize_chsh,
    parity_measurement,
    schmidt_coefficients,
    teleport_spin,
)

PAIR = hes_state(HesLabel.PHI_PLUS, 1.0, 18)

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
}


@pytest.mark.parametrize("name", list(CALLS))
def test_a_wrong_type_is_a_type_error_that_names_it(name):
    call, message = CALLS[name]
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()
