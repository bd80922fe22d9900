"""CHSH correlation analysis for two-party states.

For the hybrid entangled states the in-plane optimum 2*sqrt(1 + k(z)^2) is
available in closed form from k(z). Independently, the maximum over all
settings for any two-party state follows from the singular values of its
3x3 correlation matrix, which confirms the closed form numerically and
gives 2*sqrt(2) on a spin Bell pair and 2*sqrt(1 + (k k')^2) on a cat pair.
Every Bell expectation is bilinear in the settings through that matrix, so
no Bell operator is built here. A state is all the analysis takes: its 2x2
coefficients give the Pauli correlation matrix, and each party's
pseudospin, (k sigma_x, k sigma_y, sigma_z) on its codewords with k its
encoding's overlap, scales it, so no codeword and no dim x dim matrix is
built. The matrix is three rows of Python floats, and its singular values
come from ``fock._svd``, so no numpy is loaded. The closed form's settings
are those of ``analytic_optimum``.
"""

from __future__ import annotations

import math
import operator

from .fock import (_NORM_TOL, BellLabel, HesLabel, LogicalState, _refused, _require, _set,
                   _svd, _Value)
from .pseudospin import PAULI_X, PAULI_Y, PAULI_Z, Direction, k_series

CIRELSON_BOUND = 2.0 * math.sqrt(2.0)
CLASSICAL_BOUND = 2.0
_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


class ChshSettings(_Value):
    """The four measurement directions entering the Bell combination; a
    setting that is not a ``Direction`` is a TypeError that names it."""

    _fields = ("a", "a_prime", "b", "b_prime")

    def __init__(self, a: Direction, a_prime: Direction, b: Direction, b_prime: Direction) -> None:
        _require(Direction, a=a, a_prime=a_prime, b=b, b_prime=b_prime)
        for name, direction in zip(self._fields, (a, a_prime, b, b_prime)):
            _set(self, name, direction)

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
    Cirelson bound by at most the factor (1 + _NORM_TOL)**2. A value that
    is no number, or settings that are not ``ChshSettings``, are a TypeError.
    """

    _fields = ("value", "settings")

    def __init__(self, value: float, settings: ChshSettings) -> None:
        try:
            bounded = abs(value) <= CIRELSON_BOUND * (1.0 + _NORM_TOL) ** 2  # NaN fails it
        except TypeError:
            raise _refused("value", "a real number", value) from None
        if not bounded:
            raise ValueError(
                f"CHSH value {value!r} is not within the quantum bound "
                f"{CIRELSON_BOUND}"
            )
        _require(ChshSettings, settings=settings)
        _set(self, "value", value)
        _set(self, "settings", settings)


def _settings_for(k: float, label: BellLabel) -> ChshSettings:
    """In-plane settings that reach 2*sqrt(1 + k^2) on the Bell pair of a
    label of any family whose parties' overlaps multiply to k.

    The canonical choice (0, pi/2, atan k, -atan k) is exact for phi+. A psi
    pair anticorrelates z, which party a's axis a = pi undoes; a minus sign
    flips the x correlator, which the sign s undoes on party b's angles of a
    phi pair and on a' of a psi pair.
    """
    s, t = label.sign, math.atan(k)
    if label.is_phi:
        return ChshSettings.in_plane(0.0, math.pi / 2.0, s * t, -s * t)
    return ChshSettings.in_plane(math.pi, s * math.pi / 2.0, t, -t)


def analytic_optimum(z: float, label: HesLabel = HesLabel.PHI_PLUS) -> ChshResult:
    """Closed-form maximal Bell expectation 2*sqrt(1 + k(z)^2) for a hybrid
    pair, with in-plane settings that reach it. The label must be a
    ``HesLabel``: another family's pair has another optimum, so its label
    is a TypeError."""
    _require(HesLabel, label=label)
    k = k_series(z)
    return ChshResult(
        value=2.0 * math.sqrt(1.0 + k * k),
        settings=_settings_for(k, label),
    )


def correlation_matrix(state: LogicalState) -> tuple[tuple[float, ...], ...]:
    """3x3 matrix of <s_i x s_j> expectations of a two-party state, as three
    rows of floats (row i for party a's pseudospin, column j for party b's);
    every Bell expectation is bilinear in the settings through it.

    On an encoding's two codewords the pseudospin is (k sigma_x, k sigma_y,
    sigma_z), with k the encoding's overlap (1 on a qubit). So the matrix is
    the Pauli correlation matrix of the 2x2 coefficients C, with rows and
    columns x and y scaled by the two parties' k: entry (i, j) sums the
    entries of (C^H sigma_i C) * sigma_j, small matrix products taken as
    (C^H sigma_i) C, and its real part is scaled. Products by a Pauli matrix
    are exact, so each entry's imaginary part is a product plus its exact
    conjugate, which floating-point arithmetic rounds symmetrically: it is
    exactly 0, and the real part is returned with nothing dropped. A state
    that is not a ``LogicalState`` is a TypeError, and one of any other
    party count a ValueError.
    """
    _require(LogicalState, state=state)
    if len(state.encodings) != 2:
        raise ValueError(f"CHSH needs two parties, the state has {len(state.encodings)}")
    (enc_a, enc_b), (c00, c01, c10, c11) = state.encodings, state.coeffs
    c_h = ((c00.conjugate(), c10.conjugate()), (c01.conjugate(), c11.conjugate()))
    b_flat = [b[0] + b[1] for b in _PAULIS]
    scales_b = (enc_b.k, enc_b.k, 1.0)
    m = []
    for ((a00, a01), (a10, a11)), scale_a in zip(_PAULIS, (enc_a.k, enc_a.k, 1.0)):
        spun = []  # C^H sigma_i C, row by row
        for x0, x1 in c_h:
            y0, y1 = x0 * a00 + x1 * a10, x0 * a01 + x1 * a11
            spun += (y0 * c00 + y1 * c10, y0 * c01 + y1 * c11)
        m.append([sum(map(operator.mul, spun, b)).real * scale_a * scale_b
                  for b, scale_b in zip(b_flat, scales_b)])
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
