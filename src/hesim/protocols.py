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
sender's qubit first, then channel factors in index order. Measurements
draw exactly one uniform variate from the supplied RngStream and select an
outcome by inverse CDF over the branch probabilities, so a seed fixes the
full transcript.
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
        if not abs(norm2 - 1.0) <= 1e-12:  # written so that NaN fails it
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


@dataclass(frozen=True)
class TeleportRecord:
    """Transcript of one teleportation run."""

    outcome: BellLabel
    outcome_probability: float
    correction: Correction
    output_state: StateVector
    target_state: StateVector
    fidelity: float

    def __post_init__(self) -> None:
        if not -1e-12 <= self.outcome_probability <= 1.0 + 1e-12:
            raise ValueError(f"outcome probability {self.outcome_probability!r}")
        if not -1e-9 <= self.fidelity <= 1.0 + 1e-9:
            raise ValueError(f"fidelity {self.fidelity!r} outside [0, 1]")


@dataclass(frozen=True)
class SwapRecord:
    """Transcript of one entanglement-swapping run."""

    outcome: SpinBellLabel
    parity_label: ParityBellLabel
    probability: float
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


def decompose_teleport_input(
    alpha: complex,
    beta: complex,
    z: float,
    channel: HesLabel,
    dim: int,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> list[tuple[SpinBellLabel, StateVector]]:
    """Expand (unknown qubit) x (hybrid channel) over the sender's Bell basis.

    Returns the four (outcome, conditional mode state) pairs; each branch
    carries weight 1/2, so summing Bell x branch / 2 reassembles the input
    product state exactly.
    """
    spin = _QUBIT.state(alpha, beta)
    joint = tensor(spin, hes_state(channel, z, dim, residual_tol))
    mode_space = joint.space.subspace((2,))
    out = []
    for label in SpinBellLabel:
        branch = 2.0 * partial_inner(spin_bell_state(label), joint, (0, 1))
        out.append(
            (label, StateVector(mode_space, branch, joint.truncation_residual))
        )
    return out


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


parity_correction_for = correction_for


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


def _measure_bell(state, factors, labels, enc_a, enc_b, rng=None):
    """Project factors onto bell_pair(label, enc_a, enc_b) for each label.

    Without rng, returns the outcome distribution. With one, draws a single
    variate, selects an outcome by inverse CDF and returns (label,
    probability, renormalized state on the remaining factors). The basis may
    span only part of the measured factors' space; weight outside it above
    1e-10 is then an error rather than a fifth outcome.
    """
    _check_kinds(state, factors, (enc_a.space.kind(0), enc_b.space.kind(0)))
    branches = []
    for label in labels:
        amp = partial_inner(bell_pair(label, enc_a, enc_b), state, factors)
        branches.append((label, amp, float(np.real(np.vdot(amp, amp)))))
    if rng is None:
        return {label: p for label, _, p in branches}
    total = sum(p for _, _, p in branches)
    if 1.0 - total > 1e-10:
        raise ValueError(
            f"state carries weight {1.0 - total:.3e} outside the span of the "
            f"measured Bell basis on factors {factors}"
        )
    u = rng.uniform() * total
    acc = 0.0
    chosen = None
    for label, amp, p in branches:
        acc += p
        if u < acc and p > 0.0:
            chosen = (label, amp, p)
            break
    if chosen is None:  # u landed on the floating-point remainder
        chosen = max(branches, key=lambda t: t[2])
    label, amp, p = chosen
    rest = tuple(i for i in range(state.space.nfactors) if i not in factors)
    collapsed = StateVector(
        state.space.subspace(rest), amp / math.sqrt(p), state.truncation_residual
    )
    return label, p, collapsed


def spin_bell_probabilities(
    state: StateVector, qubit_indices: tuple[int, int]
) -> dict[SpinBellLabel, float]:
    """Outcome distribution of a Bell measurement on two qubit factors."""
    return _measure_bell(state, qubit_indices, SpinBellLabel, _QUBIT, _QUBIT)


def measure_spin_bell(
    state: StateVector, qubit_indices: tuple[int, int], rng: RngStream
) -> tuple[SpinBellLabel, float, StateVector]:
    """Projective Bell measurement on two qubit factors.

    Returns the sampled outcome, its probability, and the renormalized
    state on the remaining factors (the measured qubits are removed).
    """
    return _measure_bell(state, qubit_indices, SpinBellLabel, _QUBIT, _QUBIT, rng)


def _cat_encodings(
    state: StateVector,
    mode_indices: tuple[int, int],
    z: float,
    z_prime: float,
    residual_tol: float,
) -> tuple[Encoding, Encoding]:
    """Cat encodings at (z, z_prime) on the dims of the two measured modes."""
    _check_kinds(state, mode_indices, (FactorKind.MODE, FactorKind.MODE))
    i, j = mode_indices
    return (
        Encoding.cat(z, state.space.dims[i], residual_tol),
        Encoding.cat(z_prime, state.space.dims[j], residual_tol),
    )


def parity_bell_probabilities(
    state: StateVector,
    mode_indices: tuple[int, int],
    z: float,
    z_prime: float,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> dict[ParityBellLabel, float]:
    """Outcome distribution of a parity Bell measurement on two mode factors."""
    encs = _cat_encodings(state, mode_indices, z, z_prime, residual_tol)
    return _measure_bell(state, mode_indices, ParityBellLabel, *encs)


def measure_parity_bell(
    state: StateVector,
    mode_indices: tuple[int, int],
    z: float,
    z_prime: float,
    rng: RngStream,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> tuple[ParityBellLabel, float, StateVector]:
    """Projective measurement in the entangled two-cat basis at (z, z_prime).

    The four basis states span only the 4-dimensional even/odd product
    subspace of the two modes, so the input must lie in that span; weight
    outside it above 1e-10 is an error rather than a fifth outcome.
    """
    encs = _cat_encodings(state, mode_indices, z, z_prime, residual_tol)
    return _measure_bell(state, mode_indices, ParityBellLabel, *encs, rng)


def parity_measurement(
    state: StateVector, mode_index: int, rng: RngStream
) -> tuple[int, float, StateVector]:
    """Measure the photon-number parity of one mode factor in place."""
    _check_kinds(state, (mode_index,), (FactorKind.MODE,))
    dims = state.space.dims
    t = state.amps.reshape(dims)
    occ = np.arange(dims[mode_index])
    even_mask = (occ % 2 == 0)
    shape = [1] * len(dims)
    shape[mode_index] = dims[mode_index]
    mask = even_mask.reshape(shape)
    even_part = np.where(mask, t, 0.0)
    p_even = float(np.real(np.vdot(even_part, even_part)))
    u = rng.uniform()
    if u < p_even:
        part, p, outcome = even_part, p_even, 1
    else:
        part, p, outcome = np.where(mask, 0.0, t), 1.0 - p_even, -1
    collapsed = StateVector(
        state.space, part.reshape(-1) / math.sqrt(p), state.truncation_residual
    )
    return outcome, p, collapsed


def _teleport(
    alpha: complex,
    beta: complex,
    joint: StateVector,
    factors: tuple[int, int],
    labels: type[BellLabel],
    basis: tuple[Encoding, Encoding],
    channel: HesLabel,
    receiver: Encoding,
    rng: RngStream,
) -> TeleportRecord:
    """Bell-measure the sender's factors of joint, correct the receiver.

    The receiver's codewords carry the parity algebra of build_pseudospin
    (on a qubit it is exactly the Pauli set), so one correction and one
    target serve both directions. A parity flip maps the codewords onto
    s_plus|1_L> and s_minus|0_L>, unit vectors of even/odd parity, so the
    cross-family branches target their superposition.
    """
    outcome, p, received = _measure_bell(joint, factors, labels, *basis, rng)
    correction = correction_for(outcome, channel)
    output, target = received, receiver.state(alpha, beta)
    if correction is not Correction.IDENTITY:
        ops = build_pseudospin(receiver.space.dim)
        fix = Operator(receiver.space, getattr(ops, correction.value).matrix)
        output = apply(fix, received, 0)
        if correction is not Correction.S_Z:
            amps = alpha * (ops.s_plus.matrix @ receiver.one.amps) + beta * (
                ops.s_minus.matrix @ receiver.zero.amps
            )
            target = StateVector(receiver.space, amps, receiver.residual)
    fidelity = abs(inner(target, output)) ** 2
    return TeleportRecord(outcome, p, correction, output, target, fidelity)


def teleport_spin(
    alpha: complex,
    beta: complex,
    channel: HesLabel,
    z: float,
    dim: int,
    rng: RngStream,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> TeleportRecord:
    """Teleport an unknown spin qubit onto the mode of a hybrid channel.

    The sender Bell-measures her qubit against the channel qubit; the
    conditional mode state is fixed up by the parity operation the outcome
    dictates and compared against the analytic branch target.
    """
    cat = Encoding.cat(z, dim, residual_tol)
    joint = tensor(_QUBIT.state(alpha, beta), bell_pair(channel, _QUBIT, cat))
    return _teleport(
        alpha, beta, joint, (0, 1), SpinBellLabel, (_QUBIT, _QUBIT), channel, cat, rng
    )


def teleport_parity(
    alpha: complex,
    beta: complex,
    z_dblprime: float,
    channel: HesLabel,
    z: float,
    dim: int,
    rng: RngStream,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> TeleportRecord:
    """Teleport an unknown parity qubit at amplitude z_dblprime onto a spin.

    The joint state is (channel qubit, channel mode at z, input mode at
    z_dblprime); the sender measures the two modes in the entangled-cat
    basis at (z_dblprime, z) and the spin picks up the matching Pauli.
    """
    source = Encoding.cat(z_dblprime, dim, residual_tol)
    cat = Encoding.cat(z, dim, residual_tol)
    joint = tensor(bell_pair(channel, _QUBIT, cat), source.state(alpha, beta))
    return _teleport(
        alpha, beta, joint, (2, 1), ParityBellLabel, (source, cat), channel, _QUBIT,
        rng,
    )


_SWAP_PAIRING = {
    SpinBellLabel.PHI_PLUS: (ParityBellLabel.PHI_PLUS, 0.5),
    SpinBellLabel.PHI_MINUS: (ParityBellLabel.PHI_MINUS, -0.5),
    SpinBellLabel.PSI_PLUS: (ParityBellLabel.PSI_PLUS, -0.5),
    SpinBellLabel.PSI_MINUS: (ParityBellLabel.PSI_MINUS, 0.5),
}


def _swap_expansion(z: float, z_prime: float, dim: int, residual_tol: float):
    """psi-(z) x psi-(z') on parties (1,2,3,4), and its expansion over
    (spin Bell on 1,3) x (cat Bell on 2,4) as (spin label, parity label,
    parity Bell state, coefficient) terms, each state built once."""
    cat = Encoding.cat(z, dim, residual_tol)
    cat_prime = Encoding.cat(z_prime, dim, residual_tol)
    joint = tensor(
        bell_pair(HesLabel.PSI_MINUS, _QUBIT, cat),
        bell_pair(HesLabel.PSI_MINUS, _QUBIT, cat_prime),
    )
    terms = []
    for spin_label, (parity_label, _) in _SWAP_PAIRING.items():
        sb = spin_bell_state(spin_label).amps.reshape(2, 2)
        pb = bell_pair(parity_label, cat, cat_prime)
        # bra factor order matches the joint layout (qubit1, mode2, qubit3, mode4)
        bra = np.einsum("ik,jl->ijkl", sb, pb.amps.reshape(dim, dim))
        coeff = complex(np.vdot(bra.reshape(-1), joint.amps))
        terms.append((spin_label, parity_label, pb, coeff))
    return joint, terms


def swap_expansion_coefficients(
    z: float,
    z_prime: float,
    dim: int,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> list[tuple[SpinBellLabel, ParityBellLabel, complex]]:
    """Coefficients of psi- x psi- over (spin Bell on 1,3) x (cat Bell on 2,4)."""
    _, terms = _swap_expansion(z, z_prime, dim, residual_tol)
    return [(spin, parity, coeff) for spin, parity, _, coeff in terms]


def swap_entanglement(
    z: float,
    z_prime: float,
    dim: int,
    rng: RngStream,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> SwapRecord:
    """Swap entanglement between two hybrid pairs by a joint spin measurement.

    Builds psi-(z) on parties (1,2) and psi-(z') on (3,4), checks the signed
    half-weight expansion over the paired Bell bases, measures the two
    qubits (1,3), and verifies the modes (2,4) collapse onto the partnered
    entangled-cat state.
    """
    joint, terms = _swap_expansion(z, z_prime, dim, residual_tol)
    targets = {}
    for spin_label, parity_label, pb, coeff in terms:
        expected = _SWAP_PAIRING[spin_label][1]
        if abs(coeff - expected) > 1e-10:
            raise ValueError(
                f"expansion coefficient for ({spin_label.value}, "
                f"{parity_label.value}) is {coeff!r}, expected {expected}"
            )
        targets[spin_label] = pb
    outcome, p, modes = measure_spin_bell(joint, (0, 2), rng)
    parity_label = _SWAP_PAIRING[outcome][0]
    fidelity = abs(inner(targets[outcome], modes)) ** 2
    if fidelity < 1.0 - 1e-9:
        raise ValueError(
            f"modes failed to collapse onto {parity_label.value} "
            f"(fidelity {fidelity!r})"
        )
    return SwapRecord(outcome, parity_label, p, fidelity, modes)
