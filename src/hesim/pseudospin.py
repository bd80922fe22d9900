"""Spin-1/2-like operator algebra on a truncated bosonic mode.

The mode's Fock ladder splits into (even, odd) photon-number pairs; the
parity operator s_z = (-1)^N and the two parity-flip operators acting
within those pairs obey the spin-1/2 commutation relations, exactly so on
an even-dimensional truncation. s_plus maps |2n+1> -> |2n> and annihilates
even states, s_minus is its adjoint, s_x = s_plus + s_minus and
s_y = -i(s_plus - s_minus); on a qubit they are the Pauli matrices. They
act here by moving amplitudes within each pair, so no dim x dim matrix is
built; ``encoded_pseudospin`` gives their elements between two codewords.
The module also evaluates the even/odd overlap k(z) that sets the
strength of the Bell-CHSH violation, by two independent routes: a scalar
series and a matrix-element computation on the truncated space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    Encoding,
    StateVector,
    _check_z,
    _log_sinh,
    even_coherent,
    inner,
    odd_coherent,
)

_UNIT_TOL = 1e-12
_NONREAL_TOL = 1e-12
_FLIP_NORM_TOL = 1e-10  # a parity flip must keep the norm of the state it acts on

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_PAULIS = np.stack((PAULI_X, PAULI_Y, PAULI_Z))


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


def _flip(state: StateVector, source: int) -> StateVector:
    """Move the amplitude at parity ``source`` of each (even, odd) pair to its
    partner. Writes a full-length vector and renormalizes it by its norm,
    which the flip must keep: the state must have parity ``source``."""
    if state.space.nfactors != 1 or state.space.dims[0] % 2 != 0:
        raise ValueError(f"a parity flip acts on one qubit or mode, not {state.space.describe()}")
    out = np.zeros(state.space.dim, dtype=complex)
    out[1 - source :: 2] = state.amps[source::2]
    norm = float(np.linalg.norm(out))
    if abs(norm - 1.0) > _FLIP_NORM_TOL:
        raise ValueError(f"parity flip is not norm-preserving on this state (|result| = {norm!r})")
    return StateVector(state.space, out / norm, state.truncation_residual)


def s_plus(state: StateVector) -> StateVector:
    """s_plus|state> for an odd-parity state: each |2n+1> amplitude moves to |2n>."""
    return _flip(state, 1)


def s_minus(state: StateVector) -> StateVector:
    """s_minus|state> for an even-parity state: each |2n> amplitude moves to |2n+1>."""
    return _flip(state, 0)


def encoded_pseudospin(enc: Encoding) -> np.ndarray:
    """<a_L|s_l|b_L> for l = x, y, z and a, b in (0, 1), as a (3, 2, 2) array.

    s_l acts on every (even, odd) pair of amplitudes n as sigma_l on a qubit,
    so the element sums a_n^H sigma_l b_n over n: it needs only the 4x4
    overlaps of the codewords' even and odd parts, O(dim). On
    ``Encoding.qubit()`` it is the Pauli matrices.
    """
    parts = np.array([w.amps[parity::2] for w in (enc.zero, enc.one) for parity in (0, 1)])
    overlaps = (parts.conj() @ parts.T).reshape(2, 2, 2, 2)  # [a, j, b, k]
    return np.einsum("ljk,ajbk->lab", _PAULIS, overlaps)


def k_series(z: float) -> float:
    """Even/odd parity-flip overlap k(z) summed as a scalar series.

    Terms are evaluated in the log domain so large z neither overflows the
    powers of z nor the factorials. Summation stops once a term falls below
    1e-15 on the way down (the terms first grow with n when z is large),
    and raises ValueError if that has not happened within 100 000 terms,
    which is the case from z of about 443.5 on. At z = 0 the series prefactor
    degenerates; the limit value 1 is returned, and z below 1e-8 is treated
    the same way.
    """
    _check_z(z)
    if z < 1e-8:
        return 1.0
    logz = math.log(z)
    log_pref = -0.5 * (_log_sinh(2.0 * z * z) - math.log(2.0))
    total = 0.0
    prev = -1.0
    for n in range(100_000):
        lt = (
            (4 * n + 1) * logz
            - 0.5 * (math.lgamma(2 * n + 1) + math.lgamma(2 * n + 2))
            + log_pref
        )
        t = math.exp(lt) if lt > -745.0 else 0.0
        total += t
        if t < 1e-15 and t < prev:
            return total
        prev = t
    raise ValueError(
        f"the k(z) series at z = {z!r} has not converged after 100000 terms; "
        f"z is too large for it"
    )


def k_matrix(z: float, dim: int) -> float:
    """k(z) as the matrix element <even| s_plus |odd> on the truncated mode."""
    e = even_coherent(z, dim)
    o = odd_coherent(z, dim)
    val = inner(e, s_plus(o))
    if abs(val.imag) > _NONREAL_TOL:
        raise ValueError(f"overlap has a nonreal component {val.imag!r}")
    return val.real
