"""Spin-1/2-like operator algebra on a truncated bosonic mode.

The mode's Fock ladder splits into (even, odd) photon-number pairs; the
parity operator s_z = (-1)^N and the two parity-flip operators acting
within those pairs obey the spin-1/2 commutation relations, exactly so on
an even-dimensional truncation. s_plus maps |2n+1> -> |2n> and annihilates
even states, s_minus is its adjoint, s_x = s_plus + s_minus and
s_y = -i(s_plus - s_minus); on a qubit they are the Pauli matrices. They
act only through their elements between an encoding's two codewords,
(k sigma_x, k sigma_y, sigma_z) with k the encoding's overlap: 1 on the
qubit, and on the cat codewords and on their parity flips the even/odd
overlap k(z), as s_x and s_y flip the parity that s_z reads. So the Pauli
matrices here and an encoding's k are all its users need, and no codeword
and no dim x dim matrix is built. The Pauli matrices are nested tuples of
Python complex numbers, rows first; only ``k_matrix`` builds codewords.
k(z) sets the strength of the Bell-CHSH violation. ``k_series`` sums it
over the untruncated coherent weights, ``Encoding.cat`` over the levels
below its cutoff, and ``k_matrix`` reads it off the truncated cat
codewords. All three start from the one walk over those weights in
``fock``, so their agreement checks the truncation, not the weights.
"""

from __future__ import annotations

import math
import operator

from .fock import (
    _NORM_TOL,
    _coherent_weights,
    _pair_overlap,
    _refused,
    _set,
    _Value,
    even_coherent,
    odd_coherent,
)

# rows of complex numbers; -1j is complex(-0.0, -1.0)
PAULI_X = ((0j, 1 + 0j), (1 + 0j, 0j))
PAULI_Y = ((0j, -1j), (1j, 0j))
PAULI_Z = ((1 + 0j, 0j), (0j, -1 + 0j))


class Direction(_Value):
    """Unit vector on the Bloch sphere; a measurement setting."""

    _fields = ("nx", "ny", "nz")

    def __init__(self, nx: float, ny: float, nz: float) -> None:
        try:
            norm = math.hypot(nx, ny, nz)
        except TypeError:
            raise _refused("nx, ny and nz", "real numbers", (nx, ny, nz)) from None
        if not abs(norm - 1.0) <= _NORM_TOL:  # written so that NaN fails it
            raise ValueError(f"direction must be a unit vector, |n| = {norm!r}")
        _set(self, "nx", nx)
        _set(self, "ny", ny)
        _set(self, "nz", nz)

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


def k_series(z: float) -> float:
    """Even/odd parity-flip overlap k(z) of the untruncated cat codewords.

    With u_m = sqrt(w_m) the coherent amplitudes of |z> up to a common
    factor, k = sum u_2n u_2n+1 / sqrt(sum u_2n**2 * sum u_2n+1**2), summed
    over the weights of ``fock._coherent_weights`` around the Poisson peak,
    so the common factor cancels and every finite z the Fock cap admits is
    reached. At z = 0 the odd branch degenerates; the walk's limit gives 1.
    """
    try:
        _, w = _coherent_weights(z)
    except TypeError:
        raise _refused("z", "a real number", z) from None
    even, odd = w[0::2], w[1::2]  # the walk starts at an even level
    return _pair_overlap(even, odd, math.fsum(even), math.fsum(odd))


def k_matrix(z: float, dim: int) -> float:
    """k(z) as the matrix element <even| s_x |odd> between the cat codewords
    on the truncated mode, read off the codewords themselves: the dense
    check of the overlap that ``Encoding.cat`` carries. s_x moves each odd
    amplitude onto the even level below it, so the element is the overlap
    of the even cat's even levels with the odd cat's odd ones. Both
    codewords' amplitudes are real, so the element is the ``math.fsum`` of
    their products, correctly rounded. It is summed over the walk's support
    only, from its first level lo: below lo both codewords are exactly 0.0,
    so the products left out are exact zeros, which add nothing to the
    exact sum."""
    even, odd = even_coherent(z, dim).amps, odd_coherent(z, dim).amps
    lo, _ = _coherent_weights(z)
    return math.fsum(map(operator.mul, even[lo::2], odd[lo + 1 :: 2]))
