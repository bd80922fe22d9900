"""Cat codewords on truncated Fock spaces, and states over logical codeword bases.

A composite space is an ordered tensor product of factors, each either a
qubit (dimension 2) or a bosonic mode truncated to an even Fock dimension.
Mode dimensions are kept even so that the parity-flip algebra built on top
of them closes exactly on the truncated space.

Only pure states are represented. A ``LogicalState`` holds a coefficient
tensor over its parties' ``Encoding``s; every state is one, so products
and overlaps cost 2**n numbers, never dim**2 amplitudes. An encoding is
scalars: the qubit, or a cat's amplitude, cutoff, flip, residuals and
even/odd overlap, so no state holds a codeword. A ``StateVector`` holds
the amplitudes of one mode: ``even_coherent`` and ``odd_coherent`` build
the cat codewords, which only the dense check ``pseudospin.k_matrix``
reads. The cat codewords, their truncation residuals and overlap, the
adaptive Fock cutoff ``mode_dim_for`` and the overlap k(z) of
``pseudospin`` all read one list of coherent weights, walked outward from
the Poisson peak by term ratios; a command walks each of its z once. All
values are immutable after construction; every operation here is a pure
function and safe to share across workers. The Bell-pair label enums live
here too, so that the analysis and protocol layers share them without
importing each other.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

DEFAULT_RESIDUAL_TOL = 1e-12

_NORM_TOL = 1e-12
# |alpha|^2 + |beta|^2 may differ from 1 by this much in a logical state
_AMP_NORM_TOL = 1e-12
_MODE_DIM_CAP = 1_000_000


class TruncationError(ValueError):
    """A truncated construction lost more probability mass than allowed."""


class FactorKind(Enum):
    QUBIT = "qubit"
    MODE = "mode"


class BellLabel(Enum):
    """Label of a Bell pair; family and sign are read off the member name.

    PHI members pair equal codewords (|0_L 0_L> ± |1_L 1_L>), PSI members
    crossed ones (|0_L 1_L> ± |1_L 0_L>); PLUS/MINUS give the relative sign.
    """

    @property
    def is_phi(self) -> bool:
        return self.name.startswith("PHI")

    @property
    def sign(self) -> float:
        return 1.0 if self.name.endswith("PLUS") else -1.0


class SpinBellLabel(BellLabel):
    PSI_PLUS = "Psi+"
    PSI_MINUS = "Psi-"
    PHI_PLUS = "Phi+"
    PHI_MINUS = "Phi-"


class HesLabel(BellLabel):
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"


class ParityBellLabel(BellLabel):
    PHI_PLUS = "phi~+"
    PHI_MINUS = "phi~-"
    PSI_PLUS = "psi~+"
    PSI_MINUS = "psi~-"


@dataclass(frozen=True)
class SpaceDescriptor:
    """Ordered factors of a composite Hilbert space."""

    factors: tuple[tuple[FactorKind, int], ...]
    # read off the factors once; equality, hashing and repr use the factors
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        factors = tuple((FactorKind(kind), int(dim)) for kind, dim in self.factors)
        if not factors:
            raise ValueError("a space needs at least one factor")
        for kind, dim in factors:
            if kind is FactorKind.QUBIT and dim != 2:
                raise ValueError(f"qubit factors have dimension 2, got {dim}")
            if kind is FactorKind.MODE and (dim < 2 or dim % 2 != 0):
                raise ValueError(
                    f"mode dimension must be an even integer >= 2, got {dim}"
                )
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "dims", tuple(dim for _, dim in factors))
        object.__setattr__(self, "dim", math.prod(self.dims))

    @classmethod
    def qubit(cls) -> "SpaceDescriptor":
        return cls(((FactorKind.QUBIT, 2),))

    @classmethod
    def mode(cls, dim: int) -> "SpaceDescriptor":
        return cls(((FactorKind.MODE, dim),))

    def __mul__(self, other: "SpaceDescriptor") -> "SpaceDescriptor":
        return SpaceDescriptor(self.factors + other.factors)

    @property
    def nfactors(self) -> int:
        return len(self.factors)

    def kind(self, index: int) -> FactorKind:
        return self.factors[index][0]

    def describe(self) -> str:
        parts = []
        for kind, dim in self.factors:
            parts.append("qubit" if kind is FactorKind.QUBIT else f"mode({dim})")
        return "⊗".join(parts)


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitude vector over a composite space.

    ``truncation_residual`` records the probability mass the construction
    dropped by working on a truncated space (0 for exact constructions);
    it is carried along verbatim through later operations.
    """

    space: SpaceDescriptor
    amps: np.ndarray
    truncation_residual: float = 0.0

    def __post_init__(self) -> None:
        amps = np.array(self.amps, dtype=complex).reshape(-1)
        if amps.shape != (self.space.dim,):
            raise ValueError(
                f"amplitude vector has length {amps.shape[0]}, "
                f"space {self.space.describe()} needs {self.space.dim}"
            )
        norm = math.sqrt(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= _NORM_TOL:  # written so that NaN fails it
            raise ValueError(f"state vector is not normalized: |amps| = {norm!r}")
        if not self.truncation_residual >= 0.0:
            raise ValueError("truncation_residual must be nonnegative")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)


def _check_z(z: float) -> None:
    # NaN fails every comparison, so it must be rejected before any loop on z
    if not (math.isfinite(z) and z >= 0.0):
        raise ValueError(f"z must be finite and nonnegative, got {z!r}")


def _combined_residual(a: float, b: float) -> float:
    """Mass lost by a product of two truncations losing a and b: 1-(1-a)(1-b).

    Written as a + b - a*b so residuals near machine precision survive.
    """
    return a + b - a * b


# mode_dim_for, Encoding.cat and k_series walk the same z in one command, so
# the walks of the last few z are kept; a walk at the Fock cap is 27 043
# floats. Across commands no z repeats, so no other caller gains from it.
@functools.lru_cache(maxsize=4)
def _coherent_weights(z: float) -> tuple[int, tuple[float, ...]]:
    """The Poisson weights z**(2m)/m! of |z> up to a common factor, as (lo, w)
    with w[i] the weight of Fock level lo + i; lo is even.

    The walk starts at the peak m = floor(z**2) with weight 1 and steps
    outward by the ratios z**2/(m+1) and m/z**2, so no power or factorial is
    formed and the common factor cancels wherever the weights are normalized.
    Each side stops below 1e-40 of the peak, where the weights fall faster
    than a geometric series, so less than about 1e-40 of the mass is left
    out; tolerances below that are not resolved. The walk reaches level 1
    at least, so that the odd branch of a tiny z is |1>. z must be finite
    with z**2 > 0; a z whose peak lies past the largest cutoff is refused.
    """
    lam = z * z
    if lam > _MODE_DIM_CAP:
        raise ValueError(
            f"z = {z!r} is too large: its Poisson peak z**2 passes {_MODE_DIM_CAP} levels")
    peak = int(lam)
    down, w = [], 1.0
    for m in range(peak, 0, -1):  # w is the weight of level m
        if w < 1e-40 and m % 2 == 0:
            break
        w *= m / lam
        down.append(w)
    up, w, m = [], 1.0, peak
    while w >= 1e-40 or m < 1:
        m += 1
        w *= lam / m
        up.append(w)
    return peak - len(down), tuple(down[::-1] + [1.0] + up)


def _tails(weights: tuple[float, ...]) -> list[float]:
    """Suffix sums of weights, then 0.0: tails[i] sums weights[i:], added from
    the small end so that tiny tails keep their precision."""
    tails = list(itertools.accumulate(reversed(weights), initial=0.0))
    tails.reverse()
    return tails


def mode_dim_for(z: float, tol: float) -> int:
    """Smallest even Fock dimension whose Poisson tail at mean z**2 is < tol.

    The photon-number distribution of a coherent amplitude z is Poisson with
    mean z**2; the returned dimension keeps the coherent state's out-of-range
    mass below tol. A renormalized even or odd cat can lose more than tol at
    that dimension; its TruncationError then names the dimension it needs.
    Never returns less than 4, nor more than 1 000 000: a z that needs more
    (at tol 1e-14, every z above 996.1769613439574) is refused.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol!r}")
    _check_z(z)
    if z * z == 0.0:
        return 4
    lo, w = _coherent_weights(z)
    tails = _tails(w)
    d = max(4, lo)  # below lo the whole mass, 1 >= tol, is out of range
    while d - lo < len(w) and tails[d - lo] / tails[0] >= tol:
        d += 2
    if d > _MODE_DIM_CAP:
        raise ValueError(
            f"z = {z!r} is too large: its adaptive cutoff passes {_MODE_DIM_CAP} levels")
    return d


def _branch(
    z: float, dim: int, parity: int, residual_tol: float
) -> tuple[int, tuple[float, ...], float, float]:
    """(lo, kept, mass, residual) of one parity branch of |z> on dim levels:
    the walk's weights of the levels lo + parity, lo + parity + 2, ... below
    dim, their sum, and the share of the branch's mass at or past dim.
    Raises TruncationError, naming the dim needed, if that share exceeds
    residual_tol. z**2 must be positive."""
    lo, w = _coherent_weights(z)
    branch = w[parity::2]
    tails = _tails(branch)
    kept = min(len(branch), max(0, (dim - lo - parity + 1) // 2))  # levels below dim
    residual = tails[kept] / tails[0]
    if residual > residual_tol:
        # keeping c levels of the branch is the cutoff lo + 2c, for either parity
        need = next(c for c in range(kept, len(tails)) if tails[c] / tails[0] <= residual_tol)
        raise TruncationError(
            f"truncation at dim {dim} loses probability {residual:.3e} "
            f"(> {residual_tol:.1e}) for z = {z!r}; "
            f"use dim >= {lo + 2 * need} or raise the tolerance"
        )
    return lo, branch[:kept], tails[0] - tails[kept], residual


def _pair_overlap(even, odd, mass_even: float, mass_odd: float) -> float:
    """<even|s_x|odd> of two branches with these weights on the (even, odd)
    level pairs, each normalized to its mass: sum sqrt(w_2n w_2n+1) over
    sqrt(mass_even * mass_odd)."""
    pairs = math.fsum(map(math.sqrt, map(operator.mul, even, odd)))
    return pairs / math.sqrt(mass_even * mass_odd)


def _coherent_branch(
    z: float, dim: int, parity: int, residual_tol: float
) -> StateVector:
    """One parity branch of |z> on a mode of dimension dim, renormalized."""
    space = SpaceDescriptor.mode(dim)
    _check_z(z)
    amps = np.zeros(dim, dtype=complex)
    if z * z == 0.0:
        amps[parity] = 1.0
        return StateVector(space, amps, 0.0)
    lo, kept, mass, residual = _branch(z, dim, parity, residual_tol)
    amps[lo + parity : lo + parity + 2 * len(kept) : 2] = np.sqrt(np.array(kept) / mass)
    return StateVector(space, amps, residual)


def even_coherent(
    z: float, dim: int, residual_tol: float = DEFAULT_RESIDUAL_TOL
) -> StateVector:
    """Even-photon-number projection of the coherent state |z>, renormalized.

    Amplitudes are proportional to z**(2n)/sqrt((2n)!) on |2n> and vanish on
    odd Fock states. Raises TruncationError if dim loses more mass than
    residual_tol, naming the smallest dim that does not.
    """
    return _coherent_branch(z, dim, 0, residual_tol)


def odd_coherent(
    z: float, dim: int, residual_tol: float = DEFAULT_RESIDUAL_TOL
) -> StateVector:
    """Odd-photon-number projection of the coherent state |z>, renormalized.

    Amplitudes are proportional to z**(2n+1)/sqrt((2n+1)!) on |2n+1>. At
    z = 0 the normalized series degenerates; its limit |1> is returned.
    """
    return _coherent_branch(z, dim, 1, residual_tol)


@dataclass(frozen=True)
class Encoding:
    """The logical basis |0_L>, |1_L> of one qubit or one mode, as the scalars
    every claim reads.

    ``Encoding.qubit()`` is spin up and down. ``Encoding.cat(z, dim)`` is the
    even and odd cat at amplitude z or, ``flipped``, their parity flips
    s_plus|odd>, s_minus|even>: codewords of parities (even, odd), so
    orthonormal. It holds the truncation ``residuals`` of the even and the
    odd cat and their overlap k = <even|s_x|odd> on the mode, which the flips
    share. The qubit is the case k = 1 with no residual, and its own flip.
    No codeword is built. Equal space, z and flip are equal encodings.
    """

    space: SpaceDescriptor
    z: float = 0.0
    residuals: tuple[float, float] = field(default=(0.0, 0.0), compare=False)
    k: float = field(default=1.0, compare=False)
    flipped: bool = False
    # the mean of the residuals, read off them once
    residual: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "residual", 0.5 * (self.residuals[0] + self.residuals[1]))

    @classmethod
    def qubit(cls) -> "Encoding":
        """Spin up and spin down."""
        return cls(SpaceDescriptor.qubit())

    @classmethod
    def cat(cls, z: float, dim: int) -> "Encoding":
        """Even and odd cat states at amplitude z on a mode of dimension dim, each
        checked at the default truncation tolerance.

        Reads one walk of the coherent weights and builds no codeword."""
        space = SpaceDescriptor.mode(dim)
        _check_z(z)
        if z * z == 0.0:  # the limits |0> and |1>
            return cls(space, z)
        _, even, mass_even, r_even = _branch(z, dim, 0, DEFAULT_RESIDUAL_TOL)
        _, odd, mass_odd, r_odd = _branch(z, dim, 1, DEFAULT_RESIDUAL_TOL)
        return cls(space, z, (r_even, r_odd), _pair_overlap(even, odd, mass_even, mass_odd))

    def flip(self) -> "Encoding":
        """The encoding on s_plus|1_L>, s_minus|0_L>: a qubit's are its own codewords."""
        if self.space.kind(0) is FactorKind.QUBIT:
            return self
        return Encoding(self.space, self.z, self.residuals, self.k, not self.flipped)

    def state(self, alpha: complex, beta: complex) -> "LogicalState":
        """Logical state alpha|0_L> + beta|1_L>; the amplitudes must be normalized."""
        norm2 = abs(alpha) ** 2 + abs(beta) ** 2
        if not abs(norm2 - 1.0) <= _AMP_NORM_TOL:  # written so that NaN fails it
            raise ValueError(
                f"input qubit amplitudes are not normalized: |a|^2 + |b|^2 = {norm2!r}"
            )
        return LogicalState((self,), np.array([alpha, beta]), self.residual)


@dataclass(frozen=True, eq=False)
class LogicalState:
    """Normalized coefficients over the logical bases of its parties.

    Party k is factor k of ``space`` and carries ``encodings[k]``;
    ``coeffs[i0, i1, ...]``, of shape (2,) * parties, is the amplitude of
    |i0_L>|i1_L>.... ``truncation_residual`` is as on a ``StateVector``.
    """

    encodings: tuple[Encoding, ...]
    coeffs: np.ndarray
    truncation_residual: float = 0.0

    def __post_init__(self) -> None:
        encodings = tuple(self.encodings)
        coeffs = np.array(self.coeffs, dtype=complex)
        if not encodings or coeffs.shape != (2,) * len(encodings):
            raise ValueError(
                f"coefficients of shape {coeffs.shape} do not fit "
                f"{len(encodings)} encoded parties"
            )
        norm = math.sqrt(np.vdot(coeffs, coeffs).real)
        if not abs(norm - 1.0) <= _NORM_TOL:  # written so that NaN fails it
            raise ValueError(f"logical state is not normalized: |coeffs| = {norm!r}")
        if not self.truncation_residual >= 0.0:
            raise ValueError("truncation_residual must be nonnegative")
        coeffs.setflags(write=False)
        object.__setattr__(self, "encodings", encodings)
        object.__setattr__(self, "coeffs", coeffs)

    @functools.cached_property
    def space(self) -> SpaceDescriptor:
        """The parties' factors, each already checked by its encoding."""
        return SpaceDescriptor(tuple(enc.space.factors[0] for enc in self.encodings))


def tensor(a: LogicalState, b: LogicalState) -> LogicalState:
    """Tensor product, a's parties first."""
    residual = _combined_residual(a.truncation_residual, b.truncation_residual)
    coeffs = np.multiply.outer(a.coeffs, b.coeffs)
    return LogicalState(a.encodings + b.encodings, coeffs, residual)


def _check_factor(space: SpaceDescriptor, index: int) -> None:
    if not 0 <= index < space.nfactors:
        raise ValueError(f"factor index {index} out of range for {space.nfactors} factors")


def inner(a: LogicalState, b: LogicalState) -> complex:
    """Inner product <a|b> (conjugate-linear in a) of two LogicalStates over
    equal encodings."""
    if a.encodings != b.encodings:
        raise ValueError(
            f"inner product between states on {a.space.describe()} and "
            f"{b.space.describe()} over different encodings is undefined"
        )
    return complex(np.vdot(a.coeffs, b.coeffs))
