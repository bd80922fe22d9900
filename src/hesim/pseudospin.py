"""Spin-1/2-like operator algebra on a truncated bosonic mode.

The mode's Fock ladder splits into (even, odd) photon-number pairs; the
parity operator and the two parity-flip operators acting within those pairs
obey the spin-1/2 commutation relations, exactly so on an even-dimensional
truncation. The operators are read-only matrices whose dimension is the
mode's. The module also evaluates the even/odd overlap k(z) that sets
the strength of the Bell-CHSH violation, by two independent routes: a
scalar series and a matrix-element computation on the truncated space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    _check_z,
    _log_sinh,
    apply,
    even_coherent,
    inner,
    odd_coherent,
)

_UNIT_TOL = 1e-12
_NONREAL_TOL = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class PseudospinOps:
    """Parity operator s_z = (-1)^N and parity-flip ladder on one mode.

    Each is a read-only square matrix of the mode's dimension. s_plus maps
    |2n+1> -> |2n> and annihilates even states; s_minus is its exact
    adjoint; s_x = s_plus + s_minus and s_y = -i(s_plus - s_minus).
    """

    s_z: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray
    s_x: np.ndarray
    s_y: np.ndarray


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


def build_pseudospin(dim: int) -> PseudospinOps:
    """Construct the parity algebra on an even-dimensional truncated mode."""
    if dim < 2 or dim % 2 != 0:
        # an odd cutoff leaves an unpaired Fock state and breaks the algebra
        raise ValueError(f"pseudospin needs an even dimension >= 2, got {dim}")
    signs = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    sz = np.diag(signs.astype(complex))
    sp = np.zeros((dim, dim), dtype=complex)
    evens = np.arange(0, dim, 2)
    sp[evens, evens + 1] = 1.0
    sm = sp.conj().T
    mats = dict(s_z=sz, s_plus=sp, s_minus=sm, s_x=sp + sm, s_y=-1.0j * (sp - sm))
    for m in mats.values():
        m.setflags(write=False)
    return PseudospinOps(**mats)


def k_series(z: float) -> float:
    """Even/odd parity-flip overlap k(z) summed as a scalar series.

    Terms are evaluated in the log domain so large z neither overflows the
    powers of z nor the factorials. Summation stops once a term falls below
    1e-15 on the way down (the terms first grow with n when z is large). At
    z = 0 the series prefactor degenerates; the limit value 1 is returned,
    and z below 1e-8 is treated the same way.
    """
    _check_z(z)
    if z < 1e-8:
        return 1.0
    logz = math.log(z)
    log_pref = -0.5 * (_log_sinh(2.0 * z * z) - math.log(2.0))
    total = 0.0
    prev = -1.0
    n = 0
    while n < 100_000:
        lt = (
            (4 * n + 1) * logz
            - 0.5 * (math.lgamma(2 * n + 1) + math.lgamma(2 * n + 2))
            + log_pref
        )
        t = math.exp(lt) if lt > -745.0 else 0.0
        total += t
        if t < 1e-15 and t < prev:
            break
        prev = t
        n += 1
    return total


def k_matrix(z: float, dim: int) -> float:
    """k(z) as the matrix element <even| s_plus |odd> on the truncated mode."""
    e = even_coherent(z, dim)
    o = odd_coherent(z, dim)
    ops = build_pseudospin(dim)
    val = inner(e, apply(ops.s_plus, o, 0))
    if abs(val.imag) > _NONREAL_TOL:
        raise ValueError(f"overlap has a nonreal component {val.imag!r}")
    return val.real
