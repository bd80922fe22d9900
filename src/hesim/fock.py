"""Dense complex linear algebra over composite qubit/boson Hilbert spaces.

A composite space is an ordered tensor product of factors, each either a
qubit (dimension 2) or a bosonic mode truncated to an even Fock dimension.
Mode dimensions are kept even so that the parity-flip algebra built on top
of them closes exactly on the truncated space.

Only pure states are represented: operators act on one factor of a state
vector, and reduced states are read off the Schmidt spectrum rather than
built as density matrices. All values are immutable after construction;
every operation here is a pure function and safe to share across workers.
The Bell-pair label enums live here too, so that the analysis and protocol
layers share them without importing each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

DEFAULT_RESIDUAL_TOL = 1e-12

_NORM_TOL = 1e-12
_APPLY_NORM_TOL = 1e-10
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

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def kind(self, index: int) -> FactorKind:
        return self.factors[index][0]

    def subspace(self, indices: Iterable[int]) -> "SpaceDescriptor":
        return SpaceDescriptor(tuple(self.factors[i] for i in indices))

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
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= _NORM_TOL:  # written so that NaN fails it
            raise ValueError(f"state vector is not normalized: |amps| = {norm!r}")
        if not self.truncation_residual >= 0.0:
            raise ValueError("truncation_residual must be nonnegative")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)


@dataclass(frozen=True)
class Operator:
    """Dense matrix acting on a composite space."""

    space: SpaceDescriptor
    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=complex)
        d = self.space.dim
        if matrix.shape != (d, d):
            raise ValueError(
                f"operator matrix has shape {matrix.shape}, "
                f"space {self.space.describe()} needs ({d}, {d})"
            )
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)


def _log_cosh(x: float) -> float:
    if x > 20.0:
        return x + math.log1p(math.exp(-2.0 * x)) - math.log(2.0)
    return math.log(math.cosh(x))


def _log_sinh(x: float) -> float:
    if x <= 0.0:
        raise ValueError("log sinh needs a positive argument")
    if x > 20.0:
        return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)
    return math.log(math.sinh(x))


def _check_z(z: float) -> None:
    # NaN fails every comparison, so it must be rejected before any loop on z
    if not (math.isfinite(z) and z >= 0.0):
        raise ValueError(f"z must be finite and nonnegative, got {z!r}")


def _combined_residual(a: float, b: float) -> float:
    """Mass lost by a product of two truncations losing a and b: 1-(1-a)(1-b).

    Written as a + b - a*b so residuals near machine precision survive.
    """
    return a + b - a * b


def mode_dim_for(z: float, tol: float) -> int:
    """Smallest even Fock dimension whose Poisson tail at mean z**2 is < tol.

    The photon-number distribution of a coherent amplitude z is Poisson with
    mean z**2; the returned dimension keeps the coherent state's out-of-range
    mass below tol. A renormalized even or odd cat can lose more than tol at
    that dimension; its TruncationError then names the dimension it needs.
    Never returns less than 4.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol!r}")
    _check_z(z)
    lam = z * z
    if lam == 0.0:
        return 4
    loglam = math.log(lam)
    terms = []
    n = 0
    while True:
        lt = -lam + n * loglam - math.lgamma(n + 1)
        terms.append(math.exp(lt) if lt > -745.0 else 0.0)
        if n > 2.0 * lam + 20.0 and terms[-1] < tol * 1e-12:
            break
        n += 1
        if n > _MODE_DIM_CAP:
            raise ValueError(f"z = {z!r} is too large for a dense representation")
    # suffix sums from the small end keep tiny tails accurate
    tails = [0.0] * (len(terms) + 1)
    acc = 0.0
    for i in range(len(terms) - 1, -1, -1):
        acc += terms[i]
        tails[i] = acc
    d = 4
    while d < len(terms) and tails[d] >= tol:
        d += 2
    return d


def _cat_tail(
    z: float, parity: int, log_norm: float, dim: int
) -> tuple[list[float], float]:
    """Weights of one parity branch of |z> on the occupations dim discards,
    in increasing order until negligible, and their sum. Summing the lost
    mass directly avoids the cancellation of 1 - kept near machine precision.
    """
    logz = math.log(z)
    terms = []
    residual = 0.0
    n = dim if dim % 2 == parity else dim + 1
    while True:
        lt = 2 * n * logz - math.lgamma(n + 1) - log_norm
        t = math.exp(lt) if lt > -745.0 else 0.0
        terms.append(t)
        residual += t
        if n > z * z and t <= residual * 1e-18 + 1e-300:
            return terms, residual
        n += 2


def _coherent_branch(
    z: float, dim: int, parity: int, residual_tol: float
) -> StateVector:
    """One parity branch of |z> on a mode of dimension dim, renormalized."""
    space = SpaceDescriptor.mode(dim)
    _check_z(z)
    amps = np.zeros(dim, dtype=complex)
    if z == 0.0 or z * z == 0.0:
        amps[parity] = 1.0
        return StateVector(space, amps, 0.0)
    log_norm = _log_cosh(z * z) if parity == 0 else _log_sinh(z * z)
    logz = math.log(z)
    for n in range(parity, dim, 2):
        la = n * logz - 0.5 * math.lgamma(n + 1) - 0.5 * log_norm
        amps[n] = math.exp(la) if la > -745.0 else 0.0
    tail, residual = _cat_tail(z, parity, log_norm, dim)
    if residual > residual_tol:
        # dim + 2j drops the tail from term j on; confirm the suffix estimate
        j, suffix = len(tail), 0.0
        while j > 1 and suffix + tail[j - 1] <= residual_tol:
            j -= 1
            suffix += tail[j]
        while _cat_tail(z, parity, log_norm, dim + 2 * j)[1] > residual_tol:
            j += 1
        raise TruncationError(
            f"truncation at dim {dim} loses probability {residual:.3e} "
            f"(> {residual_tol:.1e}) for z = {z!r}; "
            f"use dim >= {dim + 2 * j} or raise the tolerance"
        )
    return StateVector(space, amps / np.linalg.norm(amps), residual)


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


def qubit_state(alpha: complex, beta: complex) -> StateVector:
    """Qubit alpha|0> + beta|1>; amplitudes must already be normalized."""
    return StateVector(SpaceDescriptor.qubit(), np.array([alpha, beta]))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product, a's factors first."""
    residual = _combined_residual(a.truncation_residual, b.truncation_residual)
    return StateVector(a.space * b.space, np.kron(a.amps, b.amps), residual)


def apply(op: Operator, state: StateVector, factor_index: int) -> StateVector:
    """Act with op on one factor, extending it by the identity elsewhere.

    The operator must be norm-preserving on this state (all uses here are
    parity rotations or parity flips of definite-parity states); a result
    drifting off the unit sphere is rejected rather than silently rescaled.
    """
    nf = state.space.nfactors
    if not 0 <= factor_index < nf:
        raise ValueError(f"factor index {factor_index} out of range for {nf} factors")
    target = state.space.subspace((factor_index,))
    if op.space != target:
        raise ValueError(
            f"operator on {op.space.describe()} cannot act on factor "
            f"{factor_index} of {state.space.describe()}"
        )
    t = state.amps.reshape(state.space.dims)
    moved = np.tensordot(op.matrix, t, axes=([1], [factor_index]))
    out = np.moveaxis(moved, 0, factor_index).reshape(-1)
    norm = float(np.linalg.norm(out))
    if abs(norm - 1.0) > _APPLY_NORM_TOL:
        raise ValueError(
            f"operator is not norm-preserving on this state (|result| = {norm!r})"
        )
    return StateVector(state.space, out / norm, state.truncation_residual)


def inner(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b> (conjugate-linear in a)."""
    if a.space != b.space:
        raise ValueError(
            f"inner product between {a.space.describe()} and "
            f"{b.space.describe()} is undefined"
        )
    return complex(np.vdot(a.amps, b.amps))


def partial_inner(
    bra: StateVector, state: StateVector, factors: Sequence[int]
) -> np.ndarray:
    """Contract <bra| against the given factors of state.

    ``factors[k]`` names the state factor matched with bra factor k, so the
    pairing may be given in any order. Returns the unnormalized amplitude
    vector on the remaining factors (in their original order); its squared
    norm is the projection probability onto |bra>.
    """
    factors = tuple(int(i) for i in factors)
    if len(set(factors)) != len(factors):
        raise ValueError(f"factor indices must be distinct, got {factors}")
    if len(factors) != bra.space.nfactors:
        raise ValueError(
            f"bra has {bra.space.nfactors} factors but {len(factors)} were targeted"
        )
    if len(factors) >= state.space.nfactors:
        raise ValueError("partial projection must leave at least one factor")
    paired = state.space.subspace(factors)
    if paired != bra.space:
        raise ValueError(
            f"bra space {bra.space.describe()} does not match targeted factors "
            f"{factors} of {state.space.describe()}"
        )
    b = bra.amps.conj().reshape(bra.space.dims)
    t = state.amps.reshape(state.space.dims)
    out = np.tensordot(b, t, axes=(tuple(range(b.ndim)), factors))
    return out.reshape(-1)
