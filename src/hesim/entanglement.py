"""Bipartite entanglement of pure states: Schmidt spectra and entropy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .fock import SpaceDescriptor, StateVector

_EIGENVALUE_FLOOR = 1e-14
_NEGATIVE_COEFF_TOL = 1e-15
_SCHMIDT_NORM_TOL = 1e-10


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint groups of factor indices covering a whole space."""

    side_a: frozenset[int]
    side_b: frozenset[int]

    def __post_init__(self) -> None:
        side_a = frozenset(int(i) for i in self.side_a)
        side_b = frozenset(int(i) for i in self.side_b)
        if not side_a or not side_b:
            raise ValueError("both sides of a bipartition must be nonempty")
        if side_a & side_b:
            raise ValueError(f"bipartition sides overlap: {sorted(side_a & side_b)}")
        object.__setattr__(self, "side_a", side_a)
        object.__setattr__(self, "side_b", side_b)

    @classmethod
    def of(cls, space: SpaceDescriptor, side_a: Iterable[int]) -> "Bipartition":
        """Bipartition of the given space with everything else on side b."""
        a = frozenset(int(i) for i in side_a)
        b = frozenset(range(space.nfactors)) - a
        return cls(a, b)


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Schmidt coefficients in descending order; their squares sum to one."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if any(c < -_NEGATIVE_COEFF_TOL for c in coeffs):
            raise ValueError("Schmidt coefficients must be nonnegative")
        if any(coeffs[i] < coeffs[i + 1] for i in range(len(coeffs) - 1)):
            raise ValueError("Schmidt coefficients must be sorted descending")
        total = sum(c * c for c in coeffs)
        if not abs(total - 1.0) <= _SCHMIDT_NORM_TOL:  # written so that NaN fails it
            raise ValueError(f"squared Schmidt coefficients sum to {total!r}")
        object.__setattr__(self, "coefficients", coeffs)

    def entropy(self) -> float:
        """Von Neumann entropy of the spectrum, in bits (ebits).

        Squared coefficients below 1e-14 count as exact zeros so that
        truncation dust never produces 0*log(0) artifacts.
        """
        entropy = 0.0
        for c in self.coefficients:
            p = c * c
            if p >= _EIGENVALUE_FLOOR:
                entropy -= p * math.log2(p)
        return entropy


def _validate_cut(space: SpaceDescriptor, cut: Bipartition) -> None:
    everything = frozenset(range(space.nfactors))
    if cut.side_a | cut.side_b != everything:
        raise ValueError(
            f"bipartition {sorted(cut.side_a)} | {sorted(cut.side_b)} does not "
            f"cover all {space.nfactors} factors of {space.describe()}"
        )


def schmidt_coefficients(state: StateVector, cut: Bipartition) -> SchmidtSpectrum:
    """Singular values of the amplitude matrix reshaped along the cut."""
    _validate_cut(state.space, cut)
    a_sorted = sorted(cut.side_a)
    b_sorted = sorted(cut.side_b)
    dims = state.space.dims
    da = math.prod(dims[i] for i in a_sorted)
    m = state.amps.reshape(dims).transpose(a_sorted + b_sorted).reshape(da, -1)
    singular = np.linalg.svd(m, compute_uv=False)
    return SchmidtSpectrum(tuple(float(s) for s in singular))


def entanglement_entropy(state: StateVector, cut: Bipartition) -> float:
    """Von Neumann entropy across the cut, in bits (ebits).

    The entropy of ``schmidt_coefficients(state, cut)``; see
    ``SchmidtSpectrum.entropy``.
    """
    return schmidt_coefficients(state, cut).entropy()
