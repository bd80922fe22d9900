"""CHSH correlation analysis for qubit x mode states.

For the hybrid entangled states the in-plane optimum 2*sqrt(1 + k(z)^2) is
available in closed form from k(z). Independently, the maximum over all
settings for any qubit x mode state follows from the singular values of its
3x3 correlation matrix, which confirms the closed form numerically. Every
Bell expectation is bilinear in the settings through that matrix, so no
Bell operator is built here. A state is all the analysis takes, and the
mode's pseudospin acts on its 2*dim amplitudes by index operations at the
mode dimension the state carries, so no dim x dim matrix is built either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FactorKind, HesLabel, LogicalState, StateVector
from .pseudospin import PAULI_X, PAULI_Y, PAULI_Z, Direction, k_series

CIRELSON_BOUND = 2.0 * math.sqrt(2.0)
CLASSICAL_BOUND = 2.0

_VALUE_SLACK = 1e-9  # rounding allowed above the Cirelson bound
_NONREAL_TOL = 1e-10  # largest imaginary part an expectation may carry
# the entries of s_y and s_z on each (even, odd) pair of Fock states, as
# the pseudospin module defines them: s_y = [[0, -i], [i, 0]], s_z = diag(1, -1)
_S_Y_PAIR = np.array([complex(0.0, -1.0), complex(0.0, 1.0)])
_S_Z_PAIR = np.array([1.0 + 0.0j, -1.0 + 0.0j])


@dataclass(frozen=True)
class ChshSettings:
    """The four measurement directions entering the Bell combination."""

    a: Direction
    a_prime: Direction
    b: Direction
    b_prime: Direction

    @classmethod
    def in_plane(
        cls,
        theta_a: float,
        theta_a_prime: float,
        theta_b: float,
        theta_b_prime: float,
    ) -> "ChshSettings":
        """Settings confined to the x-z plane, given by polar angles."""
        return cls(
            Direction.from_polar(theta_a),
            Direction.from_polar(theta_a_prime),
            Direction.from_polar(theta_b),
            Direction.from_polar(theta_b_prime),
        )


@dataclass(frozen=True)
class ChshResult:
    value: float
    settings: ChshSettings

    def __post_init__(self) -> None:
        if abs(self.value) > CIRELSON_BOUND + _VALUE_SLACK:
            raise ValueError(
                f"CHSH value {self.value!r} exceeds the quantum bound "
                f"{CIRELSON_BOUND}"
            )


def _qubit_mode_amps(state: StateVector | LogicalState) -> np.ndarray:
    """The 2*dim amplitudes of a qubit⊗mode state. A LogicalState's are the
    sum, in row-major order, of (qubit codeword ⊗ mode codeword) * coefficient
    over its nonzero coefficients; on a Bell pair's codewords, of disjoint
    support, that is bit for bit (|0_L>|x> ± |1_L>|y>) * 2**-0.5."""
    space = state.space
    if tuple(kind for kind, _ in space.factors) != (FactorKind.QUBIT, FactorKind.MODE):
        raise ValueError(f"state on {space.describe()} is not qubit⊗mode")
    if isinstance(state, StateVector):
        return state.amps
    (qubit, mode), c = state.encodings, state.coeffs
    terms = [np.outer(a.amps, b.amps) * c[i, j]
             for i, a in enumerate((qubit.zero, qubit.one))
             for j, b in enumerate((mode.zero, mode.one)) if c[i, j]]
    return sum(terms[1:], start=terms[0]).ravel()


def analytic_settings(z: float, label: HesLabel = HesLabel.PHI_PLUS) -> ChshSettings:
    """In-plane settings that reach 2*sqrt(1 + k^2) for the given state.

    The canonical choice (0, pi/2, atan k, -atan k) is exact for the phi+
    pairing; the other three labels flip the correlator signs, which a
    reflected qubit axis or swapped mode angles undo.
    """
    t = math.atan(k_series(z))
    if label is HesLabel.PHI_PLUS:
        return ChshSettings.in_plane(0.0, math.pi / 2.0, t, -t)
    if label is HesLabel.PHI_MINUS:
        return ChshSettings.in_plane(0.0, math.pi / 2.0, -t, t)
    if label is HesLabel.PSI_PLUS:
        return ChshSettings.in_plane(math.pi, math.pi / 2.0, t, -t)
    return ChshSettings.in_plane(math.pi, -math.pi / 2.0, t, -t)


def analytic_optimum(z: float, label: HesLabel = HesLabel.PHI_PLUS) -> ChshResult:
    """Closed-form maximal Bell expectation 2*sqrt(1 + k(z)^2) for a hybrid pair."""
    k = k_series(z)
    return ChshResult(
        value=2.0 * math.sqrt(1.0 + k * k),
        settings=analytic_settings(z, label),
    )


def correlation_matrix(state: StateVector | LogicalState) -> np.ndarray:
    """3x3 matrix of <sigma_k x s_l> expectations, with s_l the pseudospin
    of the state's mode; every Bell expectation is bilinear in the settings
    through it.

    s_l acts within each (even, odd) pair of Fock amplitudes: s_x swaps the
    pair, s_y swaps it and multiplies by (-i, i), and s_z flips the sign of
    the odd one. Memory is O(dim), not the O(dim**2) of dense s_l.
    """
    psi = _qubit_mode_amps(state).reshape(2, -1)
    m = np.empty((3, 3))
    for i, sig in enumerate((PAULI_X, PAULI_Y, PAULI_Z)):
        pairs = (sig @ psi).reshape(2, -1, 2)  # sig acts on the qubit index
        swapped = pairs[:, :, ::-1]
        spun = (swapped, swapped * _S_Y_PAIR, pairs * _S_Z_PAIR)
        for j, moved in enumerate(spun):
            val = complex(np.vdot(psi, moved))
            if abs(val.imag) > _NONREAL_TOL:
                raise ValueError(f"correlation has nonreal residue {val.imag!r}")
            m[i, j] = val.real
    return m


def optimize_chsh(state: StateVector | LogicalState) -> ChshResult:
    """Maximal Bell expectation over all settings, in closed form.

    With M = U diag(s) V^T the correlation matrix, the maximum is
    2*sqrt(s1^2 + s2^2) (Horodecki, Horodecki & Horodecki, Phys. Lett. A
    200, 340 (1995)), reached by a = u1, a' = u2 and
    b, b' = cos(t) v1 ± sin(t) v2 with tan(t) = s2/s1.
    """
    u, s, vt = np.linalg.svd(correlation_matrix(state))
    t = math.atan2(s[1], s[0])
    b = math.cos(t) * vt[0] + math.sin(t) * vt[1]
    bp = math.cos(t) * vt[0] - math.sin(t) * vt[1]
    settings = ChshSettings(
        *(Direction(*map(float, v)) for v in (u[:, 0], u[:, 1], b, bp))
    )
    return ChshResult(value=2.0 * math.hypot(s[0], s[1]), settings=settings)
