"""Spin-1/2-like operator algebra on a truncated bosonic mode.

The mode's Fock ladder splits into (even, odd) photon-number pairs; the
parity operator s_z = (-1)^N and the two parity-flip operators acting
within those pairs obey the spin-1/2 commutation relations, exactly so on
an even-dimensional truncation. s_plus maps |2n+1> -> |2n> and annihilates
even states, s_minus is its adjoint, s_x = s_plus + s_minus and
s_y = -i(s_plus - s_minus); on a qubit they are the Pauli matrices. They
act only through their elements between an encoding's two codewords
(``encoded_pseudospin``): on the qubit those are the Pauli matrices, and on
the cat codewords and on their parity flips they are the parity and the
even/odd overlap k(z), so no codeword and no dim x dim matrix is built.
k(z) sets the strength of the Bell-CHSH violation. ``k_series`` sums it
over the untruncated coherent weights, ``Encoding.cat`` over the levels
below its cutoff, and ``k_matrix`` reads it off the truncated cat
codewords. All three start from the one walk over those weights in
``fock``, so their agreement checks the truncation, not the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    Encoding,
    _check_z,
    _coherent_weights,
    _pair_overlap,
    even_coherent,
    odd_coherent,
)

_UNIT_TOL = 1e-12
_NONREAL_TOL = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class Direction:
    """Unit vector on the Bloch sphere; a measurement setting."""

    nx: float
    ny: float
    nz: float

    def __post_init__(self) -> None:
        norm = math.sqrt(self.nx**2 + self.ny**2 + self.nz**2)
        if not abs(norm - 1.0) <= _UNIT_TOL:  # written so that NaN fails it
            raise ValueError(f"direction must be a unit vector, |n| = {norm!r}")

    @classmethod
    def from_polar(cls, theta: float) -> "Direction":
        """In-plane direction (sin theta, 0, cos theta)."""
        return cls(math.sin(theta), 0.0, math.cos(theta))

    @property
    def theta(self) -> float:
        return math.atan2(math.hypot(self.nx, self.ny), self.nz)

    @property
    def phi(self) -> float:
        return math.atan2(self.ny, self.nx)


def encoded_pseudospin(enc: Encoding) -> np.ndarray:
    """<a_L|s_l|b_L> for l = x, y, z and a, b in (0, 1), as a (3, 2, 2) array:
    (k sigma_x, k sigma_y, sigma_z) with k the encoding's overlap.

    s_l acts on every (even, odd) pair of amplitudes as sigma_l on a qubit.
    The codewords have parities (even, odd), so s_z reads the parity, and
    s_x and s_y, which flip it, meet the other codeword with overlap k: on a
    cat, plain or flipped, k(z), and on the qubit 1, so there the elements
    are the Pauli matrices.
    """
    return np.stack((enc.k * PAULI_X, enc.k * PAULI_Y, PAULI_Z))


def k_series(z: float) -> float:
    """Even/odd parity-flip overlap k(z) of the untruncated cat codewords.

    With u_m = sqrt(w_m) the coherent amplitudes of |z> up to a common
    factor, k = sum u_2n u_2n+1 / sqrt(sum u_2n**2 * sum u_2n+1**2), summed
    over the weights of ``fock._coherent_weights`` around the Poisson peak,
    so the common factor cancels and every finite z the Fock cap admits is
    reached. At z = 0 the odd branch degenerates; its limit 1 is returned.
    """
    _check_z(z)
    if z * z == 0.0:
        return 1.0
    _, w = _coherent_weights(z)
    even, odd = w[0::2], w[1::2]  # the walk starts at an even level
    return _pair_overlap(even, odd, math.fsum(even), math.fsum(odd))


def k_matrix(z: float, dim: int) -> float:
    """k(z) as the matrix element <even| s_x |odd> between the cat codewords
    on the truncated mode, read off the codewords themselves: the dense
    check of the overlap that ``Encoding.cat`` carries. s_x moves each odd
    amplitude onto the even level below it, so the element is the overlap
    of the even cat's even levels with the odd cat's odd ones."""
    parts = np.array([even_coherent(z, dim).amps[0::2], odd_coherent(z, dim).amps[1::2]])
    val = (parts.conj() @ parts.T)[0, 1]
    if abs(val.imag) > _NONREAL_TOL:
        raise ValueError(f"overlap has a nonreal component {val.imag!r}")
    return float(val.real)
