"""Public calls given an argument of the wrong type end in one TypeError that
names the argument and its value, "NAME must be ..., got VALUE", worded by
``fock._require`` for a class and by ``fock._as`` for an argument it
converts: never an AttributeError, nor Python's own message, which names
neither. A derandomized sweep holds every callable of ``hesim.__all__`` to
that, or to a ValueError of hesim's own."""

import inspect
import math
import re
import traceback

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hesim
from hesim import (
    ChshResult,
    ChshSettings,
    Correction,
    Direction,
    Encoding,
    FactorKind,
    HesLabel,
    LogicalState,
    ParityBellLabel,
    SchmidtSpectrum,
    SpaceDescriptor,
    SpinBellLabel,
    StateVector,
    TeleportRecord,
    analytic_optimum,
    correction_for,
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
    parity_bell_state,
    parity_measurement,
    run_trials,
    schmidt_coefficients,
    spin_bell_state,
    teleport_parity,
    teleport_spin,
    tensor,
)
from hesim.fock import _coherent_weights

PAIR = hes_state(HesLabel.PHI_PLUS, 1.0, 18)
SETTINGS = ChshSettings.in_plane(0.0, 0.0, 0.0, 0.0)
# a measurement's table: its rows carry branch states, which have no fidelity
MEASURED = measure_spin_bell(tensor(Encoding.qubit().state(1, 0), PAIR), (0, 1))

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
    # text that complex or float would parse, a complex CHSH value, and what
    # the sweep below found
    "LogicalState_numeric_strings": (lambda: LogicalState((Encoding.qubit(),), ("1", "0")),
                                     "coeffs must be complex numbers, got ('1', '0')"),
    "LogicalState_text": (lambda: LogicalState((Encoding.qubit(),), "10"),
                          "coeffs must be complex numbers, got '10'"),
    "LogicalState_bytes": (lambda: LogicalState((Encoding.qubit(),), b"\x01\x00"),
                           "coeffs must be complex numbers, got b'\\x01\\x00'"),
    "LogicalState_bytearray": (lambda: LogicalState((Encoding.qubit(),), bytearray(b"\x01\x00")),
                               "coeffs must be complex numbers, got bytearray(b'\\x01\\x00')"),
    "SchmidtSpectrum_string": (lambda: SchmidtSpectrum(("1",)),
                               "coefficients must be real numbers, got ('1',)"),
    "SchmidtSpectrum_bytes": (lambda: SchmidtSpectrum((b"1",)),
                              "coefficients must be real numbers, got (b'1',)"),
    "SchmidtSpectrum_numpy_string": (lambda: SchmidtSpectrum((np.str_("1"),)),
                                     "coefficients must be real numbers, got (np.str_('1'),)"),
    "ChshResult_complex": (lambda: ChshResult(1j, SETTINGS), "value must be a real number, got 1j"),
    "ChshResult_numpy_complex": (lambda: ChshResult(np.complex128(1), SETTINGS),
                                 "value must be a real number, got np.complex128(1+0j)"),
    "run_trials_measurement": (lambda: run_trials(MEASURED, 0, 3),
                               "branches must be (outcome, p, record) rows, each record with a "
                               f"fidelity, got {MEASURED!r}"),
    "run_trials_pairs": (lambda: run_trials([(HesLabel.PHI_PLUS, 1.0)], 0, 3),
                         "branches must be (outcome, p, record) rows, each record with a "
                         "fidelity, got [(<HesLabel.PHI_PLUS: 'phi+'>, 1.0)]"),
    # the walk's cache told 1 + 0j from 1.0 by value alone
    "Encoding.cat_complex_z": (lambda: (mode_dim_for(1.0), Encoding.cat(1 + 0j, 18)),
                               "z must be a real number, got (1+0j)"),
    "k_series_numpy_complex": (lambda: k_series(np.complex128(1)),
                               "z must be a real number, got np.complex128(1+0j)"),
    "Direction_numpy_complex": (lambda: Direction(np.complex128(1), 0, 0),
                                "nx, ny and nz must be real numbers, got "
                                "(np.complex128(1+0j), 0, 0)"),
    "SpaceDescriptor": (lambda: SpaceDescriptor(1.5),
                        "factors must be a sequence of (kind, dim) pairs, got 1.5"),
    "SpaceDescriptor_pair": (lambda: SpaceDescriptor(((FactorKind.QUBIT,),)),
                             "factors must be a sequence of (kind, dim) pairs, "
                             "got ((<FactorKind.QUBIT: 'qubit'>,),)"),
    "StateVector_residual": (lambda: StateVector(SpaceDescriptor.qubit(), (1.0, 0.0), "0"),
                             "truncation_residual must be a real number, got '0'"),
    "LogicalState_encodings": (lambda: LogicalState(1, (1, 0)),
                               "encodings must be a sequence of Encodings, got 1"),
    "measure_spin_bell_state": (lambda: measure_spin_bell("x", (0, 1)),
                                "state must be LogicalState, got 'x'"),
    "parity_measurement_state": (lambda: parity_measurement("x", 1),
                                 "state must be LogicalState, got 'x'"),
    "correction_for": (lambda: correction_for([1], HesLabel.PHI_PLUS),
                       "outcome must be BellLabel, got [1]"),
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


# the derandomized sweep over hesim.__all__: each parameter is drawn from
# valid values of its annotation and from the wrong ones every parameter gets
QUBIT, CAT = Encoding.qubit(), Encoding.cat(1.0, 18)
DIRECTION = Direction(0.0, 0.0, 1.0)
STATES = (PAIR, spin_bell_state(SpinBellLabel.PHI_PLUS), QUBIT.state(0.6, 0.8j),
          parity_bell_state(ParityBellLabel.PSI_MINUS, 1.0, 0.5, 18),
          tensor(QUBIT.state(1, 0), PAIR))
# two protocols' tables, two measurements' (another family of table) and two
# of the wrong width
TABLES = (teleport_spin(0.6, 0.8, HesLabel.PSI_PLUS, 1.0, 18),
          teleport_parity(0.6, 0.8, 0.5, HesLabel.PHI_MINUS, 1.0, 18),
          MEASURED, parity_measurement(PAIR, 1),
          [(HesLabel.PHI_PLUS, 1.0)], [(HesLabel.PHI_PLUS, 1.0, None, 0)])
LABELS = (*HesLabel, *SpinBellLabel, *ParityBellLabel)
VALID = {
    "float": (0.0, 0.5, 1.0, 1.7, 1e-300, np.float64(0.8)),
    "int": (0, 1, 2, 4, 18, np.int64(18)),
    "complex": (0.6, 0.8, 0.8j, 1, 0, np.complex128(0.6)),
    "LogicalState": STATES,
    "Encoding": (QUBIT, CAT, CAT.flip()),
    "SpaceDescriptor": (SpaceDescriptor.qubit(), SpaceDescriptor.mode(4),
                        SpaceDescriptor.qubit() * SpaceDescriptor.mode(4)),
    "Direction": (DIRECTION, Direction.from_polar(1.0)),
    "ChshSettings": (SETTINGS,),
    "Correction": tuple(Correction),
    "BellLabel": LABELS, "HesLabel": LABELS, "SpinBellLabel": LABELS,
    "ParityBellLabel": LABELS,
    "tuple[int, int]": ((0, 1), (1, 0), (0, 2), (0,), (0, 1, 2), (1, 1), [0, 1], ("0", "1"),
                        (0, 1.0)),
    "Iterable[int]": ((0,), {1}, [0, 1], (), (2,), (0, 0), range(1), ("0",), (0.0,), (1j,)),
    "list[tuple]": TABLES,
    "tuple[Encoding, ...]": ((QUBIT,), (QUBIT, CAT), (), [CAT], (CAT, QUBIT, QUBIT)),
    "tuple[complex, ...]": ((1, 0), (0.6, 0.8j), (0.5, 0.5, 0.5, 0.5), (1,), [0, 1], ("1", "0"),
                            (b"1", 0), (np.str_("1"), 0)),
    "tuple[float, ...]": ((1.0,), (0.8, 0.6), (0.6, 0.8), (1.0, 0.0), (-1.0,), [], ("1",),
                          (b"1",), (1j,), (math.nan,)),
    "tuple[tuple[FactorKind, int], ...]": (((FactorKind.QUBIT, 2),), ((FactorKind.MODE, 4),),
                                           (("mode", 6), ("qubit", 2)), ((FactorKind.MODE, 3),),
                                           ((FactorKind.QUBIT,),), (), (("qubit", "2"),)),
    # StateVector's amps and an Enum's value, which carry no annotation
    "amps": ((1.0, 0.0), [0.0, 1.0, 0.0, 0.0], (0.6, 0.8), (1.0,) * 4, (0.5,) * 4, ("1", 0.0),
             (1j, 0.0), (np.complex128(1), 0.0)),
    "value": ("phi+", "Psi-", "phi~+", "qubit", "s_z", HesLabel.PHI_PLUS),
}
WRONG = (None, "1", "0.5", b"1", bytearray(b"1"), np.str_("1"), 1j, np.complex128(1),
         math.nan, math.inf, -math.inf, -1, 1.5, [1], (), object())
# every callable of __all__ but BellLabel, the Enum base with no members, which
# Python's Enum refuses to call at all, and TruncationError, an exception
CALLABLES = [name for name in hesim.__all__ if callable(getattr(hesim, name))
             and name not in ("BellLabel", "TruncationError")]


def pools(call) -> list[tuple]:
    """The valid values of each parameter of call that a caller passes by
    position: by its annotation, else by its name."""
    return [VALID[p.name if p.annotation is p.empty else p.annotation]
            for p in inspect.signature(call).parameters.values()
            if p.kind is p.POSITIONAL_OR_KEYWORD and (p.annotation is not p.empty or p.name in VALID)]


@st.composite
def arguments(draw, call):
    """Each parameter's value: a valid one three times in four, else a wrong one."""
    return [draw(st.sampled_from(valid) if draw(st.integers(0, 3)) else st.sampled_from(WRONG))
            for valid in pools(call)]


@pytest.mark.parametrize("name", CALLABLES)
@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_every_public_call_returns_or_refuses_what_it_names(name, data):
    """A call returns, or raises a TypeError worded "NAME must be ..., got
    VALUE" or a ValueError, each from a ``raise`` of hesim's own checks
    (or of an Enum's lookup, which names the value): never an
    AttributeError, an unpack, iteration or arithmetic error, nor a warning,
    which pytest makes an error."""
    call = getattr(hesim, name)
    args = data.draw(arguments(call))
    try:
        call(*args)
    except (TypeError, ValueError) as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        # one of hesim's own refusals, not Python's failing inside hesim's code
        assert where.line.startswith("raise "), f"{type(exc).__name__}: {exc} at {where}"
        if isinstance(exc, TypeError):
            assert re.fullmatch(r".+ must be .+, got .+", str(exc), re.DOTALL), str(exc)
