"""Bipartite entanglement of pure states: Schmidt spectra and entropy.

A cut's Schmidt coefficients are the singular values of the state's
coefficient tuple laid out as a matrix, taken by ``fock._svd`` in Python
complex numbers, so no numpy is loaded.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable

from .fock import LogicalState, _party_order, _set, _svd, _Value

_EIGENVALUE_FLOOR = 1e-14
_SCHMIDT_NORM_TOL = 1e-10


class SchmidtSpectrum(_Value):
    """Schmidt coefficients in descending order; their squares sum to one."""

    _fields = ("coefficients",)

    def __init__(self, coefficients: tuple[float, ...]) -> None:
        coeffs = tuple(float(c) for c in coefficients)
        if any(c < 0.0 for c in coeffs):  # -0.0 passes
            raise ValueError("Schmidt coefficients must be nonnegative")
        if any(coeffs[i] < coeffs[i + 1] for i in range(len(coeffs) - 1)):
            raise ValueError("Schmidt coefficients must be sorted descending")
        total = sum(c * c for c in coeffs)
        if not abs(total - 1.0) <= _SCHMIDT_NORM_TOL:  # written so that NaN fails it
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
    of them for n parties, two for a pair. Side a must be a nonempty proper
    subset of the state's factor indices, each an integer: a float index is
    a ``TypeError``, not rounded to a factor.
    """
    a = set(map(operator.index, side_a))
    nf = state.space.nfactors
    if not a or not a < set(range(nf)):
        raise ValueError(
            f"side a {sorted(a)} is not a nonempty proper subset of the "
            f"{nf} factors of {state.space.describe()}"
        )
    order = (*sorted(a), *(i for i in range(nf) if i not in a))
    c = list(map(state.coeffs.__getitem__, _party_order(nf, order)))
    width = 2 ** (nf - len(a))
    s, _, _ = _svd([c[i : i + width] for i in range(0, len(c), width)])
    return SchmidtSpectrum(tuple(s))


def entanglement_entropy(state: LogicalState, side_a: Iterable[int]) -> float:
    """Von Neumann entropy between side a and the rest, in bits (ebits):
    the entropy of ``schmidt_coefficients(state, side_a)``."""
    return schmidt_coefficients(state, side_a).entropy()
