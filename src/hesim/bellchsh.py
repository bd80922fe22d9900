"""CHSH correlation analysis for qubit x mode states.

For the hybrid entangled states the in-plane optimum 2*sqrt(1 + k(z)^2) is
available in closed form from k(z). Independently, the maximum over all
settings for any qubit x mode state follows from the singular values of its
3x3 correlation matrix, which confirms the closed form numerically. Every
Bell expectation is bilinear in the settings through that matrix, so no
Bell operator is built here. A state is all the analysis takes: its 2x2
coefficients and each party's pseudospin elements, (k sigma_x, k sigma_y,
sigma_z) with k its encoding's overlap, give the matrix, so no codeword and
no dim x dim matrix is built. The matrix is three rows of Python floats,
and its singular values come from ``fock._svd``, so no numpy is loaded.
The closed form's settings are those of ``analytic_optimum``.
"""

from __future__ import annotations

import math
import operator

from .fock import _NORM_TOL, HesLabel, LogicalState, _set, _svd, _Value
from .pseudospin import Direction, encoded_pseudospin, k_series

CIRELSON_BOUND = 2.0 * math.sqrt(2.0)
CLASSICAL_BOUND = 2.0


class ChshSettings(_Value):
    """The four measurement directions entering the Bell combination."""

    _fields = ("a", "a_prime", "b", "b_prime")

    def __init__(self, a: Direction, a_prime: Direction, b: Direction, b_prime: Direction) -> None:
        _set(self, "a", a)
        _set(self, "a_prime", a_prime)
        _set(self, "b", b)
        _set(self, "b_prime", b_prime)

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


class ChshResult(_Value):
    """A CHSH value and the settings that reach it.

    Every correlation entry scales with the squared norm of the state, which
    a ``LogicalState`` holds within _NORM_TOL of 1, so a value may pass the
    Cirelson bound by at most the factor (1 + _NORM_TOL)**2.
    """

    _fields = ("value", "settings")

    def __init__(self, value: float, settings: ChshSettings) -> None:
        if not abs(value) <= CIRELSON_BOUND * (1.0 + _NORM_TOL) ** 2:  # NaN fails it
            raise ValueError(
                f"CHSH value {value!r} is not within the quantum bound "
                f"{CIRELSON_BOUND}"
            )
        _set(self, "value", value)
        _set(self, "settings", settings)


def _settings_for(k: float, label: HesLabel) -> ChshSettings:
    """In-plane settings that reach 2*sqrt(1 + k^2) for the given state.

    The canonical choice (0, pi/2, atan k, -atan k) is exact for phi+. A psi
    pair anticorrelates z, which the qubit axis a = pi undoes; a minus sign
    flips the x correlator, which the sign s undoes on the mode angles of a
    phi pair and on a' of a psi pair.
    """
    s, t = label.sign, math.atan(k)
    if label.is_phi:
        return ChshSettings.in_plane(0.0, math.pi / 2.0, s * t, -s * t)
    return ChshSettings.in_plane(math.pi, s * math.pi / 2.0, t, -t)


def analytic_optimum(z: float, label: HesLabel = HesLabel.PHI_PLUS) -> ChshResult:
    """Closed-form maximal Bell expectation 2*sqrt(1 + k(z)^2) for a hybrid
    pair, with in-plane settings that reach it."""
    k = k_series(z)
    return ChshResult(
        value=2.0 * math.sqrt(1.0 + k * k),
        settings=_settings_for(k, label),
    )


def correlation_matrix(state: LogicalState) -> tuple[tuple[float, ...], ...]:
    """3x3 matrix of <sigma_k x s_l> expectations, as three rows of floats
    (row k, column l), with s_l the pseudospin of the state's mode; every
    Bell expectation is bilinear in the settings through it.

    With C the 2x2 coefficients and A, B the ``encoded_pseudospin`` of the
    qubit and the mode, entry (k, l) sums the entries of (C^H A_k C) * B_l:
    small matrix products, whatever the mode's dim, taken as (C^H A_k) C.
    Products by a Pauli matrix A_k are exact, so each entry's imaginary part
    is a product plus its exact conjugate, which floating-point arithmetic
    rounds symmetrically: it is exactly 0, and the real part is returned.
    """
    if [kind.value for kind, _ in state.space.factors] != ["qubit", "mode"]:
        raise ValueError(f"state on {state.space.describe()} is not qubit⊗mode")
    (qubit, mode), (c00, c01, c10, c11) = state.encodings, state.coeffs
    c_h = ((c00.conjugate(), c10.conjugate()), (c01.conjugate(), c11.conjugate()))
    b_flat = [b[0] + b[1] for b in encoded_pseudospin(mode)]
    m = []
    for (a00, a01), (a10, a11) in encoded_pseudospin(qubit):
        spun = []  # C^H A_k C, row by row
        for x0, x1 in c_h:
            y0, y1 = x0 * a00 + x1 * a10, x0 * a01 + x1 * a11
            spun += (y0 * c00 + y1 * c10, y0 * c01 + y1 * c11)
        m.append([sum(map(operator.mul, spun, b)).real for b in b_flat])
    return tuple(map(tuple, m))


def optimize_chsh(state: LogicalState) -> ChshResult:
    """Maximal Bell expectation over all settings, in closed form.

    With M = U diag(s) V^T the correlation matrix, the maximum is
    2*sqrt(s1^2 + s2^2) (Horodecki, Horodecki & Horodecki, Phys. Lett. A
    200, 340 (1995)), reached by a = u1, a' = u2 and
    b, b' = cos(t) v1 ± sin(t) v2 with tan(t) = s2/s1. Where singular
    values tie the settings are a convention: on a hybrid pair's diagonal
    matrix, u1 and u2 are the axes of the two largest entries, the later
    axis first among equal ones, and the v's carry the entries' signs.
    """
    s, u, v = _svd(correlation_matrix(state))
    t = math.atan2(s[1], s[0])
    cos, sin = math.cos(t), math.sin(t)
    b = [cos * x + sin * y for x, y in zip(v[0], v[1])]
    bp = [cos * x - sin * y for x, y in zip(v[0], v[1])]
    settings = ChshSettings(*(Direction(*w) for w in (u[0], u[1], b, bp)))
    return ChshResult(value=2.0 * math.hypot(s[0], s[1]), settings=settings)
