"""Bell pairs over qubit and cat encodings, and the protocols built on them.

Every entangled state here is one Bell pair between two parties, each
carrying a logical qubit in an ``Encoding``: the spin itself (up, down) or
the even/odd cat at amplitude z. ``bell_pair`` builds all three families:
two-qubit Bell states, qubit-mode hybrid states and two-mode parity Bell
states. One projective measurement in such a basis drives the protocols:
teleporting a spin qubit through a hybrid channel onto its mode,
teleporting a parity qubit onto its spin, and entanglement swapping between
two hybrid pairs.

Parties are always laid out in the order their subscripts suggest: the
sender's qubit first, then channel factors in index order. Measurements and
protocols return their branch table, one ``(outcome, probability, result)``
per outcome, worked out once; a protocol's result record holds only what
the row does not. ``draw`` samples a table with exactly one
uniform variate from an RngStream, by inverse CDF over the probabilities,
so a seed fixes the transcript: ``draw(teleport_spin(...), RngStream(s))``
is one seeded trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .fock import (
    DEFAULT_RESIDUAL_TOL,
    BellLabel,
    FactorKind,
    HesLabel,
    Operator,
    ParityBellLabel,
    SpaceDescriptor,
    SpinBellLabel,
    StateVector,
    _combined_residual,
    apply,
    even_coherent,
    inner,
    odd_coherent,
    partial_inner,
    qubit_state,
    tensor,
)
from .pseudospin import build_pseudospin

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# |alpha|^2 + |beta|^2 may differ from 1 by this much in a logical state
_AMP_NORM_TOL = 1e-12
# rounding slack on the [0, 1] range of a recorded probability / fidelity
_PROB_SLACK = 1e-12
_FIDELITY_SLACK = 1e-9
# weight a measured state may carry outside the measured basis
_SPAN_TOL = 1e-10
# deviation allowed of a swap expansion coefficient from its signed half
_SWAP_COEFF_TOL = 1e-10
# shortfall from 1 allowed of the swapped modes' fidelity with their pair
_SWAP_FIDELITY_TOL = 1e-9


class Correction(Enum):
    """Conditional single-party fix-up after a Bell measurement."""

    IDENTITY = "identity"
    S_Z = "s_z"
    S_X = "s_x"
    S_Y = "s_y"


@dataclass(frozen=True)
class Encoding:
    """The two logical codewords |0_L>, |1_L> of one party."""

    zero: StateVector
    one: StateVector

    @classmethod
    def qubit(cls) -> "Encoding":
        """Spin up and spin down."""
        return cls(qubit_state(1.0, 0.0), qubit_state(0.0, 1.0))

    @classmethod
    def cat(
        cls, z: float, dim: int, residual_tol: float = DEFAULT_RESIDUAL_TOL
    ) -> "Encoding":
        """Even and odd cat states at amplitude z on a mode of dimension dim."""
        return cls(
            even_coherent(z, dim, residual_tol), odd_coherent(z, dim, residual_tol)
        )

    @property
    def space(self) -> SpaceDescriptor:
        return self.zero.space

    @property
    def residual(self) -> float:
        """Mean truncation residual of the two codewords."""
        return 0.5 * (self.zero.truncation_residual + self.one.truncation_residual)

    def state(self, alpha: complex, beta: complex) -> StateVector:
        """Logical state alpha|0_L> + beta|1_L>; the amplitudes must be normalized."""
        norm2 = abs(alpha) ** 2 + abs(beta) ** 2
        if not abs(norm2 - 1.0) <= _AMP_NORM_TOL:  # written so that NaN fails it
            raise ValueError(
                f"input qubit amplitudes are not normalized: |a|^2 + |b|^2 = {norm2!r}"
            )
        amps = alpha * self.zero.amps + beta * self.one.amps
        return StateVector(self.space, amps, self.residual)


_QUBIT = Encoding.qubit()


def bell_pair(label: BellLabel, enc_a: Encoding, enc_b: Encoding) -> StateVector:
    """(|0_L>|0_L> ± |1_L>|1_L>)/√2 for phi labels, (|0_L>|1_L> ± |1_L>|0_L>)/√2
    for psi labels, party a's factors first."""
    b0, b1 = (enc_b.zero, enc_b.one) if label.is_phi else (enc_b.one, enc_b.zero)
    amps = np.kron(enc_a.zero.amps, b0.amps) + label.sign * np.kron(
        enc_a.one.amps, b1.amps
    )
    residual = _combined_residual(enc_a.residual, enc_b.residual)
    return StateVector(enc_a.space * enc_b.space, amps * _SQRT_HALF, residual)


@dataclass
class RngStream:
    """Counted, seeded source of uniform variates for measurement sampling."""

    seed: int
    counter: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._gen = np.random.default_rng(self.seed)

    def uniform(self) -> float:
        self.counter += 1
        return float(self._gen.random())


def draw(branches: list[tuple], rng: RngStream) -> tuple:
    """Sample one (outcome, probability, result) branch of a table.

    One uniform variate, scaled by the summed probability, picks the first
    nonzero branch whose cumulative probability exceeds it; a variate on the
    floating-point remainder falls back to the likeliest branch. A table
    missing more than _SPAN_TOL of weight measured a state outside its
    basis, which is an error rather than a fifth outcome.
    """
    total = sum(p for _, p, _ in branches)
    if 1.0 - total > _SPAN_TOL:
        raise ValueError(
            f"state carries weight {1.0 - total:.3e} outside the span of the "
            f"measured basis"
        )
    u = rng.uniform() * total
    acc = 0.0
    for branch in branches:
        acc += branch[1]
        if u < acc and branch[1] > 0.0:
            return branch
    return max(branches, key=lambda branch: branch[1])


@dataclass(frozen=True)
class TeleportRecord:
    """One teleportation branch; its table row holds the outcome and p."""

    correction: Correction
    output_state: StateVector
    target_state: StateVector
    fidelity: float

    def __post_init__(self) -> None:
        if not -_FIDELITY_SLACK <= self.fidelity <= 1.0 + _FIDELITY_SLACK:
            raise ValueError(f"fidelity {self.fidelity!r} outside [0, 1]")


@dataclass(frozen=True)
class SwapRecord:
    """One entanglement-swapping branch; its row holds the spin outcome and p."""

    parity_label: ParityBellLabel
    fidelity: float
    mode_state: StateVector


def spin_bell_state(label: SpinBellLabel) -> StateVector:
    """Two-qubit Bell state, amplitudes ordered (uu, ud, du, dd)."""
    return bell_pair(label, _QUBIT, _QUBIT)


def hes_state(
    label: HesLabel,
    z: float,
    dim: int,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> StateVector:
    """Qubit-mode hybrid Bell state at cat amplitude z.

    The psi states pair spin-up with the odd cat component, the phi states
    pair spin-up with the even one; signs follow the label.
    """
    return bell_pair(label, _QUBIT, Encoding.cat(z, dim, residual_tol))


def parity_bell_state(
    label: ParityBellLabel,
    z: float,
    z_prime: float,
    dim: int,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> StateVector:
    """Two-mode entangled cat pair at amplitudes (z, z_prime)."""
    cat = Encoding.cat(z, dim, residual_tol)
    return bell_pair(label, cat, Encoding.cat(z_prime, dim, residual_tol))


def correction_for(outcome: BellLabel, channel: HesLabel) -> Correction:
    """Receiver-side fix-up for a sender Bell outcome over a given channel.

    Matching family and sign need no correction; a sign mismatch within the
    family is a parity phase flip; crossing families costs a parity flip,
    with s_y absorbing the extra sign.
    """
    same_sign = outcome.sign == channel.sign
    if outcome.is_phi == channel.is_phi:
        return Correction.IDENTITY if same_sign else Correction.S_Z
    return Correction.S_X if same_sign else Correction.S_Y


def _check_kinds(
    state: StateVector, indices: tuple[int, ...], kinds: tuple[FactorKind, ...]
):
    if len(set(indices)) != len(indices):
        raise ValueError(f"measured factors must be distinct, got {indices}")
    for i, kind in zip(indices, kinds):
        if not 0 <= i < state.space.nfactors:
            raise ValueError(f"factor index {i} out of range")
        if state.space.kind(i) is not kind:
            raise ValueError(
                f"factor {i} of {state.space.describe()} is not a {kind.value}"
            )


def _branch(outcome, amps: np.ndarray, space, residual: float) -> tuple:
    """(outcome, p, amps renormalized on space) with p the squared norm of amps
    itself, so any branch draw may pick renormalizes; the state is None at p = 0."""
    p = float(np.real(np.vdot(amps, amps)))
    if not p <= 1.0 + _PROB_SLACK:  # written so that NaN fails it
        raise ValueError(f"outcome probability {p!r}")
    if p == 0.0:
        return outcome, p, None
    if p < np.finfo(float).tiny:  # the root of a subnormal p has lost precision
        amps = amps / np.max(np.abs(amps))
        return outcome, p, StateVector(space, amps / np.linalg.norm(amps), residual)
    return outcome, p, StateVector(space, amps / math.sqrt(p), residual)


def _measure_bell(state, factors, labels, enc_a, enc_b):
    """Branch table of projecting factors onto bell_pair(label, enc_a, enc_b).

    One (label, probability, renormalized state on the remaining factors)
    per label. The basis may span only part of the measured factors' space;
    the probabilities then sum to less than 1, which draw refuses.
    """
    _check_kinds(state, factors, (enc_a.space.kind(0), enc_b.space.kind(0)))
    rest = tuple(i for i in range(state.space.nfactors) if i not in factors)
    space = state.space.subspace(rest)
    branches = []
    for label in labels:
        amp = partial_inner(bell_pair(label, enc_a, enc_b), state, factors)
        branches.append(_branch(label, amp, space, state.truncation_residual))
    return branches


def measure_spin_bell(
    state: StateVector, qubit_indices: tuple[int, int]
) -> list[tuple[SpinBellLabel, float, StateVector | None]]:
    """Projective Bell measurement on two qubit factors.

    Returns each outcome with its probability and the renormalized state on
    the remaining factors (the measured qubits are removed).
    """
    return _measure_bell(state, qubit_indices, SpinBellLabel, _QUBIT, _QUBIT)


def measure_parity_bell(
    state: StateVector,
    mode_indices: tuple[int, int],
    z: float,
    z_prime: float,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> list[tuple[ParityBellLabel, float, StateVector | None]]:
    """Projective measurement in the entangled two-cat basis at (z, z_prime).

    The four basis states span only the 4-dimensional even/odd product
    subspace of the two modes, so the input must lie in that span for its
    table to be drawn from.
    """
    _check_kinds(state, mode_indices, (FactorKind.MODE, FactorKind.MODE))
    i, j = mode_indices
    enc_a = Encoding.cat(z, state.space.dims[i], residual_tol)
    enc_b = Encoding.cat(z_prime, state.space.dims[j], residual_tol)
    return _measure_bell(state, mode_indices, ParityBellLabel, enc_a, enc_b)


def parity_measurement(
    state: StateVector, mode_index: int
) -> list[tuple[int, float, StateVector | None]]:
    """Measure the photon-number parity of one mode factor in place.

    Outcome 1 is even parity, -1 odd; the collapsed states keep every factor.
    """
    _check_kinds(state, (mode_index,), (FactorKind.MODE,))
    dims = state.space.dims
    shape = [1] * len(dims)
    shape[mode_index] = dims[mode_index]
    odd = np.arange(dims[mode_index]).reshape(shape) % 2
    t, residual = state.amps.reshape(dims), state.truncation_residual
    return [
        _branch(outcome, np.where(odd == bit, t, 0.0).ravel(), state.space, residual)
        for outcome, bit in ((1, 0), (-1, 1))
    ]


def _teleport(
    alpha: complex,
    beta: complex,
    joint: StateVector,
    factors: tuple[int, int],
    labels: type[BellLabel],
    basis: tuple[Encoding, Encoding],
    channel: HesLabel,
    receiver: Encoding,
) -> list[tuple[BellLabel, float, TeleportRecord]]:
    """Bell-measure the sender's factors of joint; correct every branch.

    The receiver's codewords carry the parity algebra of build_pseudospin
    (on a qubit it is exactly the Pauli set), so one correction and one
    target serve both directions. A parity flip maps the codewords onto
    s_plus|1_L> and s_minus|0_L>, unit vectors of even/odd parity, so the
    cross-family branches target their superposition.
    """
    ops = build_pseudospin(receiver.space.dim)
    plain = receiver.state(alpha, beta)
    amps = alpha * (ops.s_plus.matrix @ receiver.one.amps) + beta * (
        ops.s_minus.matrix @ receiver.zero.amps
    )
    flipped = StateVector(receiver.space, amps, receiver.residual)
    table = []
    for outcome, p, received in _measure_bell(joint, factors, labels, *basis):
        correction = correction_for(outcome, channel)
        output, target = received, plain
        if correction is not Correction.IDENTITY:
            fix = Operator(receiver.space, getattr(ops, correction.value).matrix)
            output = apply(fix, received, 0)
            if correction is not Correction.S_Z:
                target = flipped
        fidelity = abs(inner(target, output)) ** 2
        record = TeleportRecord(correction, output, target, fidelity)
        table.append((outcome, p, record))
    return table


def teleport_spin(
    alpha: complex,
    beta: complex,
    channel: HesLabel,
    z: float,
    dim: int,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> list[tuple[SpinBellLabel, float, TeleportRecord]]:
    """Teleport an unknown spin qubit onto the mode of a hybrid channel.

    The sender Bell-measures her qubit against the channel qubit; on each
    of the four branches the conditional mode state is fixed up by the
    parity operation the outcome dictates and compared against the analytic
    branch target.
    """
    cat = Encoding.cat(z, dim, residual_tol)
    joint = tensor(_QUBIT.state(alpha, beta), bell_pair(channel, _QUBIT, cat))
    return _teleport(
        alpha, beta, joint, (0, 1), SpinBellLabel, (_QUBIT, _QUBIT), channel, cat
    )


def teleport_parity(
    alpha: complex,
    beta: complex,
    z_dblprime: float,
    channel: HesLabel,
    z: float,
    dim: int,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> list[tuple[ParityBellLabel, float, TeleportRecord]]:
    """Teleport an unknown parity qubit at amplitude z_dblprime onto a spin.

    The joint state is (channel qubit, channel mode at z, input mode at
    z_dblprime); the sender measures the two modes in the entangled-cat
    basis at (z_dblprime, z) and on each branch the spin picks up the
    matching Pauli.
    """
    source = Encoding.cat(z_dblprime, dim, residual_tol)
    cat = Encoding.cat(z, dim, residual_tol)
    joint = tensor(bell_pair(channel, _QUBIT, cat), source.state(alpha, beta))
    return _teleport(
        alpha, beta, joint, (2, 1), ParityBellLabel, (source, cat), channel, _QUBIT
    )


_SWAP_PAIRING = {
    SpinBellLabel.PHI_PLUS: (ParityBellLabel.PHI_PLUS, 0.5),
    SpinBellLabel.PHI_MINUS: (ParityBellLabel.PHI_MINUS, -0.5),
    SpinBellLabel.PSI_PLUS: (ParityBellLabel.PSI_PLUS, -0.5),
    SpinBellLabel.PSI_MINUS: (ParityBellLabel.PSI_MINUS, 0.5),
}


def swap_entanglement(
    z: float,
    z_prime: float,
    dim: int,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> list[tuple[SpinBellLabel, float, SwapRecord]]:
    """Swap entanglement between two hybrid pairs by a joint spin measurement.

    Builds psi-(z) on parties (1,2) and psi-(z') on (3,4), measures the two
    qubits (1,3), and on every branch checks the signed half-weight
    expansion coefficient and that the modes (2,4) collapse onto the
    partnered entangled-cat state.
    """
    cat = Encoding.cat(z, dim, residual_tol)
    cat_prime = Encoding.cat(z_prime, dim, residual_tol)
    joint = tensor(
        bell_pair(HesLabel.PSI_MINUS, _QUBIT, cat),
        bell_pair(HesLabel.PSI_MINUS, _QUBIT, cat_prime),
    )
    table = []
    for spin_label, p, modes in measure_spin_bell(joint, (0, 2)):
        parity_label, expected = _SWAP_PAIRING[spin_label]
        # the coefficient of the joint state on spin Bell x paired cat Bell
        overlap = inner(bell_pair(parity_label, cat, cat_prime), modes)
        coeff = math.sqrt(p) * overlap
        if abs(coeff - expected) > _SWAP_COEFF_TOL:
            raise ValueError(
                f"expansion coefficient for ({spin_label.value}, "
                f"{parity_label.value}) is {coeff!r}, expected {expected}"
            )
        fidelity = abs(overlap) ** 2
        if fidelity < 1.0 - _SWAP_FIDELITY_TOL:
            raise ValueError(
                f"modes failed to collapse onto {parity_label.value} "
                f"(fidelity {fidelity!r})"
            )
        record = SwapRecord(parity_label, fidelity, modes)
        table.append((spin_label, p, record))
    return table
