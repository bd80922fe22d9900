"""Bipartite entanglement of pure states: Schmidt spectra and entropy.

A cut's Schmidt coefficients are the singular values of the state's
coefficients laid out over the cut by ``fock._cut``, taken by ``fock._svd``
in Python complex numbers, so no numpy is loaded.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .fock import (_NORM2_MAX, _NORM2_MIN, LogicalState, _as, _cut, _reals, _require, _rest,
                   _set, _svd, _Value)

_EIGENVALUE_FLOOR = 1e-14


class SchmidtSpectrum(_Value):
    """Schmidt coefficients in descending order; their squares sum to one.

    The squares sum to the squared norm of the state they came from, so the
    sum must lie between ``fock``'s bounds on a squared norm, ``_NORM2_MIN``
    and ``_NORM2_MAX``. A coefficient must be a real number: text, which
    ``float`` would parse, and a complex number are a TypeError.
    """

    _fields = ("coefficients",)

    def __init__(self, coefficients: tuple[float, ...]) -> None:
        coeffs = _as("coefficients", "real numbers", _reals, coefficients)
        if any(c < 0.0 for c in coeffs):  # -0.0 passes
            raise ValueError("Schmidt coefficients must be nonnegative")
        if any(coeffs[i] < coeffs[i + 1] for i in range(len(coeffs) - 1)):
            raise ValueError("Schmidt coefficients must be sorted descending")
        total = sum(c * c for c in coeffs)
        if not _NORM2_MIN <= total <= _NORM2_MAX:  # NaN fails it
            raise ValueError(f"squared Schmidt coefficients sum to {total!r}")
        _set(self, "coefficients", coeffs)

    def entropy(self) -> float:
        """Von Neumann entropy of the spectrum, in bits (ebits).

        Squared coefficients below 1e-14 count as exact zeros so that
        truncation dust never produces 0*log(0) artifacts, and a leading
        square rounded above 1 cannot push a product state below zero.
        """
        entropy = 0.0
        for c in self.coefficients:
            p = c * c
            if p >= _EIGENVALUE_FLOOR:
                entropy -= p * math.log2(p)
        return max(entropy, 0.0)


def schmidt_coefficients(state: LogicalState, side_a: Iterable[int]) -> SchmidtSpectrum:
    """Schmidt coefficients between side a's factors and every other factor.

    The encodings are orthonormal, so these are the singular values of the
    coefficient tensor with side a's parties as rows: min(2**|a|, 2**(n-|a|))
    of them for n parties, two for a pair. Side a names its factor indices
    by ``fock._rest``'s rule, each an integer (a float index is a
    ``TypeError``, not rounded to a factor) in range and named once, and
    must be a nonempty proper subset of them. A state that is not a
    ``LogicalState`` is a TypeError.
    """
    _require(LogicalState, state=state)
    a = sorted(set(range(state.space.nfactors)).difference(_rest(state.space, side_a)))
    if not a or len(a) == state.space.nfactors:
        raise ValueError(f"side a {a} is not a nonempty proper subset of the "
                         f"{state.space.nfactors} factors of {state.space.describe()}")
    s, _, _ = _svd(_cut(state, a))
    return SchmidtSpectrum(tuple(s))


def entanglement_entropy(state: LogicalState, side_a: Iterable[int]) -> float:
    """Von Neumann entropy between side a and the rest, in bits (ebits):
    the entropy of ``schmidt_coefficients(state, side_a)``."""
    return schmidt_coefficients(state, side_a).entropy()
