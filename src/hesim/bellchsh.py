"""CHSH correlation analysis for qubit x mode states.

For the hybrid entangled states the in-plane optimum 2*sqrt(1 + k(z)^2) is
available in closed form from k(z). Independently, the maximum over all
settings for any qubit x mode state follows from the singular values of its
3x3 correlation matrix, which confirms the closed form numerically. Every
Bell expectation is bilinear in the settings through that matrix, so no
Bell operator is built here. A state is all the analysis takes: its 2x2
coefficients and each party's pseudospin elements, (k sigma_x, k sigma_y,
sigma_z) with k its encoding's overlap, give the matrix, so no codeword and
no dim x dim matrix is built. The closed form's settings are those of
``analytic_optimum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import HesLabel, LogicalState
from .pseudospin import Direction, encoded_pseudospin, k_series

CIRELSON_BOUND = 2.0 * math.sqrt(2.0)
CLASSICAL_BOUND = 2.0

_VALUE_SLACK = 1e-9  # rounding allowed above the Cirelson bound
_NONREAL_TOL = 1e-10  # largest imaginary part an expectation may carry


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


def _settings_for(k: float, label: HesLabel) -> ChshSettings:
    """In-plane settings that reach 2*sqrt(1 + k^2) for the given state.

    The canonical choice (0, pi/2, atan k, -atan k) is exact for the phi+
    pairing; the other three labels flip the correlator signs, which a
    reflected qubit axis or swapped mode angles undo.
    """
    t = math.atan(k)
    if label is HesLabel.PHI_PLUS:
        return ChshSettings.in_plane(0.0, math.pi / 2.0, t, -t)
    if label is HesLabel.PHI_MINUS:
        return ChshSettings.in_plane(0.0, math.pi / 2.0, -t, t)
    if label is HesLabel.PSI_PLUS:
        return ChshSettings.in_plane(math.pi, math.pi / 2.0, t, -t)
    return ChshSettings.in_plane(math.pi, -math.pi / 2.0, t, -t)


def analytic_optimum(z: float, label: HesLabel = HesLabel.PHI_PLUS) -> ChshResult:
    """Closed-form maximal Bell expectation 2*sqrt(1 + k(z)^2) for a hybrid
    pair, with in-plane settings that reach it."""
    k = k_series(z)
    return ChshResult(
        value=2.0 * math.sqrt(1.0 + k * k),
        settings=_settings_for(k, label),
    )


def correlation_matrix(state: LogicalState) -> np.ndarray:
    """3x3 matrix of <sigma_k x s_l> expectations, with s_l the pseudospin
    of the state's mode; every Bell expectation is bilinear in the settings
    through it.

    With C the 2x2 coefficients and A, B the ``encoded_pseudospin`` of the
    qubit and the mode, entry (k, l) sums the entries of (C^H A_k C) * B_l:
    two small matrix products, whatever the mode's dim.
    """
    if [kind.value for kind, _ in state.space.factors] != ["qubit", "mode"]:
        raise ValueError(f"state on {state.space.describe()} is not qubit⊗mode")
    (qubit, mode), c = state.encodings, state.coeffs
    spun = c.conj().T @ encoded_pseudospin(qubit) @ c
    m = spun.reshape(3, 4) @ encoded_pseudospin(mode).reshape(3, 4).T
    residue = float(m.imag.flat[np.argmax(np.abs(m.imag))])
    if abs(residue) > _NONREAL_TOL:
        raise ValueError(f"correlation has nonreal residue {residue!r}")
    return m.real


def optimize_chsh(state: LogicalState) -> ChshResult:
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
