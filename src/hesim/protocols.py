"""Bell pairs over qubit and cat encodings, and the protocols built on them.

Every entangled state here is one Bell pair between two parties, each
carrying a logical qubit in an ``Encoding``: the spin itself (up, down) or
the even/odd cat at amplitude z. A state is a ``LogicalState`` over those
encodings: a joint state of four parties is 16 Python complex numbers plus
its encodings, at any cutoff. A measurement reorders a state's parties by
index arithmetic on its coefficient tuple. ``bell_pair`` builds all three
families: two-qubit Bell states, qubit-mode hybrid states and two-mode
parity Bell states. One core, a projective measurement in such a basis
followed by each outcome's correction and comparison with its target,
drives the protocols: teleporting a spin qubit through a hybrid channel
onto its mode, teleporting a parity qubit onto its spin, and entanglement
swapping between two hybrid pairs, the teleportation of entanglement.

Parties are always laid out in the order their subscripts suggest: the
sender's qubit first, then channel factors in index order. Measurements and
protocols return their branch table, one ``(outcome, probability, result)``
per outcome, worked out once; every protocol's result is one record, a
``TeleportRecord``, which holds only what the row does not and works out
its fidelity from its states. A branch's state carries only its own
parties' truncation residual.
``run_trials(table, seed, trials)`` draws trial i from
``RngStream(seed + i)`` with one uniform variate, by inverse CDF over the
probabilities, so a seed fixes the transcript, and returns each row's count
and the summed fidelity: a Monte-Carlo command's whole run, in one call.
A stream's variates are those of ``np.random.default_rng(s)``. Its first is
computed from s, one seed at a time or a block of seeds in one numpy batch,
and the generator is built only for a second draw, so a command, which
draws once a trial, never imports numpy.random. Those are the only numpy
kernels here, each importing numpy when first run: a run of fewer than
_BATCH_MIN_TRIALS trials never loads numpy at all.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import sys
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:
    import numpy as np

from .fock import (
    _NORM_TOL,
    BellLabel,
    Encoding,
    FactorKind,
    HesLabel,
    LogicalState,
    ParityBellLabel,
    SpinBellLabel,
    _check_factor,
    _party_order,
    _set,
    _Value,
    even_coherent,  # noqa: F401  unused; the benchmark traces hesim.protocols.even_coherent
    inner,
    tensor,
)
from .pseudospin import PAULI_X, PAULI_Y, PAULI_Z

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# a block of at least this many seeds computes its first variates in one batch:
# timed inside run_trials on a 2-vCPU x86 VM (trials 2-32, min of 7 runs), the
# batch took about 95 us at any count and the seed-by-seed path about 19 us a
# trial, so the batch was first faster at 5 trials (at 6 in one of three passes)
_BATCH_MIN_TRIALS = 5
_BATCH_BLOCK = 4096  # seeds per batch, so memory stays flat in the trial count
# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier M
_SEQ_INIT_A, _SEQ_MULT_A = 0x43B0D7E5, 0x931E8875
_SEQ_INIT_B, _SEQ_MULT_B = 0x8B51F9DD, 0x58F38DED
_SEQ_MIX_L, _SEQ_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# M**2 and c = M**2 + M + 1, mod 2**128, of the seeded state (see _first_uniforms)
_PCG_MULT2 = _PCG_MULT**2 % 2**128
_PCG_C = (_PCG_MULT2 + _PCG_MULT + 1) % 2**128
_M32, _M64 = 2**32 - 1, 2**64 - 1
_MIX_ORDER = tuple(itertools.permutations(range(4), 2))  # (source, destination) pool words


class Correction(Enum):
    """Conditional single-party fix-up after a Bell measurement."""

    IDENTITY = "identity"
    S_Z = "s_z"
    S_X = "s_x"
    S_Y = "s_y"


_QUBIT = Encoding.qubit()
# each correction on the receiver's coefficients: its Pauli matrix (none for the
# identity, which leaves any number of parties as they are), and whether it
# moves them onto the flipped codewords s_plus|1_L>, s_minus|0_L>
_CORRECTIONS = {Correction.IDENTITY: (None, False), Correction.S_Z: (PAULI_Z, False),
                Correction.S_X: (PAULI_X, True), Correction.S_Y: (PAULI_Y, True)}


@functools.cache
def _bell_coeffs(label: BellLabel) -> tuple[complex, ...]:
    """A Bell label's four coefficients: c00 and c11 for phi, c01 and c10 for psi."""
    first, second = complex(_SQRT_HALF), complex(label.sign * _SQRT_HALF)
    return (first, 0j, 0j, second) if label.is_phi else (0j, first, second, 0j)


def bell_pair(label: BellLabel, enc_a: Encoding, enc_b: Encoding) -> LogicalState:
    """(|0_L>|0_L> ± |1_L>|1_L>)/√2 for phi labels, (|0_L>|1_L> ± |1_L>|0_L>)/√2
    for psi labels, party a first."""
    return LogicalState((enc_a, enc_b), _bell_coeffs(label))


class RngStream:
    """Counted, seeded source of ``np.random.default_rng(seed)``'s variates.

    The first variate is ``first`` when a batch computed it, else
    ``_first_uniform(seed)``. The generator is built only if a second draw
    needs it, so a run that draws once a trial never imports numpy.random.
    """

    __slots__ = ("seed", "first", "counter", "_gen")

    def __init__(self, seed: int, first: float | None = None) -> None:
        self.seed, self.counter, self._gen = seed, 0, None
        self.first = _first_uniform(seed) if first is None else first

    def uniform(self) -> float:
        self.counter += 1
        if self.counter == 1:
            return self.first
        if self._gen is None:
            from numpy.random import default_rng
            self._gen = default_rng(self.seed)
            self._gen.random()  # the variate already handed out
        return float(self._gen.random())


def _stream_blocks(seed: int, trials: int) -> Iterator[list[RngStream]]:
    """``RngStream(seed + i)`` for trial i of a run, _BATCH_BLOCK trials at a time.

    A block of at least _BATCH_MIN_TRIALS seeds, all >= 0 and below 2**64
    (two SeedSequence entropy words each), computes its first variates in
    one ``_first_uniforms`` batch; any other block computes each from its
    seed with ``_first_uniform``. So a run that straddles 2**32 or 2**64
    batches every block below 2**64.
    """
    for start in range(seed, seed + trials, _BATCH_BLOCK):
        seeds = range(start, min(start + _BATCH_BLOCK, seed + trials))
        firsts = [None] * len(seeds)
        if len(seeds) >= _BATCH_MIN_TRIALS and start >= 0 and seeds.stop <= 2**64:
            import numpy as np
            firsts = _first_uniforms(np.arange(start, seeds.stop, dtype=np.uint64)).tolist()
        yield list(map(RngStream, seeds, firsts))


def _first_uniform(seed: int) -> float:
    """``np.random.default_rng(seed).random()`` for one seed >= 0, bit for bit.

    The steps of ``_first_uniforms`` in Python integers, for a seed of any
    number of 32-bit words. As in numpy's ``SeedSequence``, the words past a
    pool's fourth are mixed into every pool word after the pool's own mixing.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> shift & _M32 for shift in range(0, seed.bit_length() or 1, 32)]
    n = max(len(words), 4)
    # 4 hashes fill the pool; then each pool word is mixed into every other
    # and each word past the fourth into every pool word, a hash per mix
    consts = _hash_consts(_SEQ_INIT_A, _SEQ_MULT_A, 4 * n)
    pool = [_hash(v, *c) for v, c in zip((words + [0, 0, 0])[:4], consts)] + words[4:]
    mixes = itertools.chain(_MIX_ORDER, itertools.product(range(4, n), range(4)))
    for (src, dst), c in zip(mixes, consts[4:]):
        v = _SEQ_MIX_L * pool[dst] - _SEQ_MIX_R * _hash(pool[src], *c) & _M32
        pool[dst] = v ^ v >> 16
    consts = _hash_consts(_SEQ_INIT_B, _SEQ_MULT_B, 8)
    w = [_hash(pool[k % 4], *c) for k, c in enumerate(consts)]
    # uint64 j is words 2j (low half) and 2j + 1; s0 is uint64s 0 (high) and 1, i0 2 and 3
    s0 = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    i0 = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
    hi, lo = divmod((s0 * _PCG_MULT2 + (2 * i0 + 1) * _PCG_C) % 2**128, 2**64)
    x, rot = hi ^ lo, hi >> 58
    x = (x >> rot | x << (64 - rot)) & _M64
    return (x >> 11) * 2.0**-53


@functools.cache
def _hash_consts(init: int, mult: int, n: int) -> tuple[tuple[int, int], ...]:
    """The first n (xor, multiplier) pairs of a SeedSequence hash constant,
    which each hash xors in, steps by ``mult`` and multiplies by."""
    steps = list(itertools.accumulate([mult] * n, lambda c, m: c * m & _M32, initial=init))
    return tuple(zip(steps, steps[1:]))


def _hash(v, xor, mul):
    """One SeedSequence hash of uint32 words, in numpy or Python integers:
    xor, multiply, xorshift."""
    v = (v ^ xor) * mul & _M32
    return v ^ v >> 16


def _mul128(hi, lo, c_hi, c_lo):
    """(hi, lo) * (c_hi, c_lo) mod 2**128, on 64-bit limbs."""
    lo0, lo1, c0, c1 = lo & _M32, lo >> 32, c_lo & _M32, c_lo >> 32
    mid0, mid1 = lo1 * c0, lo0 * c1
    carry = ((lo0 * c0 >> 32) + (mid0 & _M32) + (mid1 & _M32)) >> 32
    return lo1 * c1 + (mid0 >> 32) + (mid1 >> 32) + carry + lo * c_hi + hi * c_lo, lo * c_lo


@functools.cache
def _seed_tables() -> tuple:
    """Constant arrays of ``_first_uniforms``, built on its first call."""
    import numpy as np
    # 17 constants: the unused diagonal of k below reaches 16
    a_xor, a_mul = np.array(_hash_consts(_SEQ_INIT_A, _SEQ_MULT_A, 17), np.uint32).T[:, :, None]
    b_xor, b_mul = np.array(_hash_consts(_SEQ_INIT_B, _SEQ_MULT_B, 8), np.uint32).T.reshape(
        2, 2, 4, 1)
    src, dst = np.ogrid[:4, :4]
    k = 4 + 3 * src + dst - (dst > src)  # hash call mixing word src into dst; diagonal unused
    mul = np.array([divmod(_PCG_MULT2, 2**64), divmod(2 * _PCG_C % 2**128, 2**64)],
                   np.uint64).T[:, :, None]
    return (a_xor[:4], a_mul[:4], a_xor[k], a_mul[k], b_xor, b_mul, mul, divmod(_PCG_C, 2**64))


def _first_uniforms(seeds: np.ndarray) -> np.ndarray:
    """``np.random.default_rng(s).random()`` for each seed 0 <= s < 2**64, bit for bit.

    As numpy's ``SeedSequence`` documentation and O'Neill's "PCG: A Family
    of Simple Fast Space-Efficient Statistically Good Algorithms for Random
    Number Generation" (2014) describe: hash the low and high 32-bit words
    of s and two zeros into a pool of four uint32 words (a seed below 2**32
    is one word, which the hash pads with the same zeros), mix every word
    into every other, and hash eight words out: PCG64's 128-bit state seed
    s0 and stream i0. Seeding steps the LCG twice and the draw once, to
    s0*M**2 + (2*i0 + 1)*c mod 2**128 with c = M**2 + M + 1; the XSL-RR
    output x gives ``(x >> 11) * 2**-53``.
    """
    import numpy as np
    in_xor, in_mul, mix_xor, mix_mul, out_xor, out_mul, mul, (c_hi, c_lo) = _seed_tables()
    entropy = np.zeros((4, len(seeds)), np.uint32)
    entropy[0], entropy[1] = seeds & _M32, seeds >> 32
    pool = _hash(entropy, in_xor, in_mul)
    for src in range(4):
        mixed = _SEQ_MIX_L * pool - _SEQ_MIX_R * _hash(pool[src], mix_xor[src], mix_mul[src])
        mixed ^= mixed >> 16
        mixed[src] = pool[src]  # a word does not mix into itself
        pool = mixed
    words = _hash(pool, out_xor, out_mul).astype(np.uint64)  # row 0 makes s0, row 1 i0
    # s0 * M**2 and i0 * 2c as (hi, lo) halves, then their sum plus c, with carries
    hi, lo = _mul128(words[:, 0] | words[:, 1] << 32, words[:, 2] | words[:, 3] << 32, *mul)
    lo_sum = lo[0] + lo[1]
    state_lo = lo_sum + c_lo
    state_hi = hi[0] + hi[1] + c_hi + (lo_sum < lo[0]) + (state_lo < lo_sum)
    x, rot = state_hi ^ state_lo, state_hi >> 58
    x = x >> rot | x << ((64 - rot) & 63)
    return (x >> 11).astype(np.float64) * 2.0**-53


def run_trials(branches: list[tuple], seed: int, trials: int) -> tuple[list[int], float]:
    """Trials seed, ..., seed + trials - 1 of one table, trial i drawn with one
    uniform variate u from ``RngStream(seed + i)``.

    A trial draws the first nonzero row whose running sum of probabilities
    exceeds u times their total; a variate past the last sum, on the
    floating-point remainder, counts for the likeliest row. A measurement's
    table holds the measured state's whole squared norm, at least the square
    of 1 - _NORM_TOL; one that sums to less, or to NaN, measured a state
    outside its basis, which is an error rather than a fifth outcome.
    Returns each row's count and the drawn records' fidelities summed in
    trial order, so every row's record must carry a ``fidelity``. A trial
    takes one ``RngStream.uniform`` call and one bisection of the running
    sums. A negative trial count is refused before any draw; 0 trials is
    the empty run.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials!r}")
    ps = [p for _, p, _ in branches]
    total = sum(ps)
    if not total >= (1.0 - _NORM_TOL) ** 2:  # written so that NaN fails it
        raise ValueError(
            f"state carries weight {1.0 - total:.3e} outside the span of the "
            f"measured basis"
        )
    # 0.0 + p0 + p1 + ... in row order; a zero row repeats the sum before it,
    # so the first sum above a variate is never a zero row's
    sums = list(itertools.accumulate(ps, initial=0.0))[1:]
    likeliest = max(range(len(ps)), key=ps.__getitem__)
    fidelities = [rec.fidelity for _, _, rec in branches]
    fidelities.append(fidelities[likeliest])  # the row past the sums
    counts = [0] * len(fidelities)
    fidelity = 0.0
    uniform = RngStream.uniform  # read per run: a wrapper on the class sees every draw
    bisect_right = bisect.bisect_right
    for streams in _stream_blocks(seed, trials):
        for rng in streams:  # in trial order, one rounding of the sum per trial
            row = bisect_right(sums, uniform(rng) * total)
            counts[row] += 1
            fidelity += fidelities[row]
    counts[likeliest] += counts.pop()
    return counts, fidelity


class TeleportRecord(_Value):
    """One protocol branch, a teleport's or a swap's; its table row holds the
    outcome and p. Its ``fidelity`` |<target_state|output_state>|**2 is
    worked out from the states, which must be over the same encodings."""

    _fields = ("correction", "output_state", "target_state")

    def __init__(self, correction: Correction, output_state: LogicalState,
                 target_state: LogicalState) -> None:
        _set(self, "correction", correction)
        _set(self, "output_state", output_state)
        _set(self, "target_state", target_state)
        _set(self, "fidelity", abs(inner(target_state, output_state)) ** 2)


def spin_bell_state(label: SpinBellLabel) -> LogicalState:
    """Two-qubit Bell state; coefficients indexed (first spin, second spin)."""
    return bell_pair(label, _QUBIT, _QUBIT)


def hes_state(label: HesLabel, z: float, dim: int) -> LogicalState:
    """Qubit-mode hybrid Bell state at cat amplitude z.

    The psi states pair spin-up with the odd cat component, the phi states
    pair spin-up with the even one; signs follow the label.
    """
    return bell_pair(label, _QUBIT, Encoding.cat(z, dim))


def parity_bell_state(
    label: ParityBellLabel, z: float, z_prime: float, dim: int
) -> LogicalState:
    """Two-mode entangled cat pair at amplitudes (z, z_prime)."""
    return bell_pair(label, Encoding.cat(z, dim), Encoding.cat(z_prime, dim))


@functools.cache
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
    state: LogicalState, indices: tuple[int, ...], kinds: tuple[FactorKind, ...]
):
    for i, kind in zip(indices, kinds):
        _check_factor(state.space, i)
        if state.space.kind(i) is not kind:
            raise ValueError(
                f"factor {i} of {state.space.describe()} is not a {kind.value}"
            )


def _norm2(coeffs) -> float:
    """The squared norm of a vector of complex numbers."""
    return sum(c.real * c.real + c.imag * c.imag for c in coeffs)


def _branch(outcome, coeffs: list[complex], encodings: tuple[Encoding, ...]) -> tuple:
    """(outcome, p, the state of coeffs renormalized over encodings) with p the
    squared norm of coeffs itself, so any branch draw may pick renormalizes;
    the state is None at p = 0. A projection of a LogicalState, whose norm
    is within _NORM_TOL of 1, has p at most the square of 1 + _NORM_TOL."""
    p = _norm2(coeffs)
    if not p <= (1.0 + _NORM_TOL) ** 2:  # written so that NaN fails it
        raise ValueError(f"outcome probability {p!r}")
    if p == 0.0:
        return outcome, p, None
    root = math.sqrt(p)
    if p < sys.float_info.min:  # the root of a subnormal p has lost precision
        top = max(map(abs, coeffs))
        coeffs = [c / top for c in coeffs]
        root = math.sqrt(_norm2(coeffs))
    return outcome, p, LogicalState(encodings, [c / root for c in coeffs])


def _measure_bell(state, factors, enc_a, enc_b):
    """Branch table of projecting factors onto bell_pair(label, enc_a, enc_b).

    One (label, probability, renormalized state on the remaining parties)
    per label, spin Bell labels on a qubit basis and parity Bell labels on a
    cat basis. The measured parties must carry the basis's encodings, so
    the probabilities sum to 1 up to rounding. A Bell pair's coefficients
    are real, so they are their own conjugates in the projection.
    """
    kind = enc_a.space.kind(0)
    _check_kinds(state, factors, (kind, enc_b.space.kind(0)))
    i, j = factors
    rest = tuple(k for k in range(state.space.nfactors) if k not in factors)
    if i == j or not rest:
        raise ValueError(f"cannot Bell-measure factors {factors} of {state.space.describe()}")
    if (state.encodings[i], state.encodings[j]) != (enc_a, enc_b):
        raise ValueError(f"factors {factors} of {state.space.describe()} are not "
                         f"encoded in the measured basis")
    encodings = tuple(state.encodings[k] for k in rest)
    # the measured parties' four values index the rows, the rest's the columns
    c = list(map(state.coeffs.__getitem__, _party_order(state.space.nfactors, (i, j, *rest))))
    columns = [c[k :: len(c) // 4] for k in range(len(c) // 4)]
    labels = SpinBellLabel if kind is FactorKind.QUBIT else ParityBellLabel
    return [_branch(label, [sum(map(operator.mul, row, col)) for col in columns], encodings)
            for label, row in zip(labels, map(_bell_coeffs, labels))]


def measure_spin_bell(
    state: LogicalState, qubit_indices: tuple[int, int]
) -> list[tuple[SpinBellLabel, float, LogicalState | None]]:
    """Projective Bell measurement on two qubit factors.

    Returns each outcome with its probability and the renormalized state on
    the remaining factors (the measured qubits are removed).
    """
    return _measure_bell(state, qubit_indices, _QUBIT, _QUBIT)


def parity_measurement(
    state: LogicalState, mode_index: int
) -> list[tuple[int, float, LogicalState | None]]:
    """Measure the photon-number parity of one mode factor in place.

    Outcome 1 is even parity, -1 odd; the collapsed states keep every factor.
    A mode's encoding, plain or flipped, has an even |0_L> and an odd
    |1_L>, so the outcome reads the logical index.
    """
    _check_kinds(state, (mode_index,), (FactorKind.MODE,))
    shift = state.space.nfactors - 1 - mode_index  # the mode's bit in a coefficient's index
    return [
        _branch(outcome, [c if j >> shift & 1 == bit else 0j for j, c in enumerate(state.coeffs)],
                state.encodings)
        for outcome, bit in ((1, 0), (-1, 1))
    ]


def _teleport(
    joint: LogicalState,
    factors: tuple[int, int],
    basis: tuple[Encoding, Encoding],
    plan: Callable[[BellLabel], tuple[Correction, tuple[complex, ...]]],
) -> list[tuple[BellLabel, float, TeleportRecord]]:
    """Bell-measure factors of joint in basis; correct and compare every branch.

    ``plan(outcome)`` gives the outcome's correction and its target's
    coefficients, which the target holds over the output's encodings. The
    identity leaves the branch state as it is, on any number of parties.
    Any other correction acts on one receiver, whose codewords carry the
    pseudospin's parity algebra (on a qubit it is exactly the Pauli set),
    so one correction and one target serve both teleport directions. s_z
    keeps the codewords and flips the sign of |1_L>. A parity flip maps
    them onto s_plus|1_L> and s_minus|0_L>, unit vectors of even/odd
    parity: on the coefficients, s_x and s_y act as their Pauli matrices
    onto that flipped encoding. On a qubit those are its own codewords,
    |0> and |1>; a cat's are its flipped encoding. The output carries only
    the receiver's residual: none on a spin.
    """

    def record(outcome: BellLabel, branch: LogicalState) -> TeleportRecord:
        correction, coeffs = plan(outcome)
        pauli, flips = _CORRECTIONS[correction]
        output = branch if pauli is None else LogicalState(
            [enc.flip() for enc in branch.encodings] if flips else branch.encodings,
            [sum(map(operator.mul, row, branch.coeffs)) for row in pauli])
        return TeleportRecord(correction, output, LogicalState(output.encodings, coeffs))

    return [(outcome, p, branch and record(outcome, branch))
            for outcome, p, branch in _measure_bell(joint, factors, *basis)]


def teleport_spin(
    alpha: complex,
    beta: complex,
    channel: HesLabel,
    z: float,
    dim: int,
) -> list[tuple[SpinBellLabel, float, TeleportRecord]]:
    """Teleport an unknown spin qubit onto the mode of a hybrid channel.

    The sender Bell-measures her qubit against the channel qubit; on each
    of the four branches the conditional mode state is fixed up by the
    parity operation the outcome dictates and compared against the analytic
    branch target.
    """
    cat = Encoding.cat(z, dim)
    joint = tensor(_QUBIT.state(alpha, beta), bell_pair(channel, _QUBIT, cat))
    return _teleport(joint, (0, 1), (_QUBIT, _QUBIT),
                     lambda outcome: (correction_for(outcome, channel), (alpha, beta)))


def teleport_parity(
    alpha: complex,
    beta: complex,
    z_dblprime: float,
    channel: HesLabel,
    z: float,
    dim: int,
) -> list[tuple[ParityBellLabel, float, TeleportRecord]]:
    """Teleport an unknown parity qubit at amplitude z_dblprime onto a spin.

    The joint state is (channel qubit, channel mode at z, input mode at
    z_dblprime); the sender measures the two modes in the entangled-cat
    basis at (z_dblprime, z) and on each branch the spin picks up the
    matching Pauli.
    """
    source = Encoding.cat(z_dblprime, dim)
    cat = Encoding.cat(z, dim)
    joint = tensor(bell_pair(channel, _QUBIT, cat), source.state(alpha, beta))
    return _teleport(joint, (2, 1), (source, cat),
                     lambda outcome: (correction_for(outcome, channel), (alpha, beta)))


def _swap_partner(outcome: SpinBellLabel) -> ParityBellLabel:
    """The cat pair a swap's spin outcome leaves the modes in: the one of the
    same family and sign, since
    psi-psi- = 1/2 (Phi+phi~+ - Phi-phi~- - Psi+psi~+ + Psi-psi~-)."""
    return ParityBellLabel[outcome.name]


def swap_entanglement(
    z: float, z_prime: float, dim: int
) -> list[tuple[SpinBellLabel, float, TeleportRecord]]:
    """Swap entanglement between two hybrid pairs by a joint spin measurement.

    Builds psi-(z) on parties (1,2) and psi-(z') on (3,4) and measures the
    two qubits (1,3): the teleportation of entanglement. No branch is
    corrected, and each targets the partnered entangled-cat pair of the
    modes (2,4), which its output is with fidelity 1.
    """
    cat = Encoding.cat(z, dim)
    cat_prime = Encoding.cat(z_prime, dim)
    joint = tensor(
        bell_pair(HesLabel.PSI_MINUS, _QUBIT, cat),
        bell_pair(HesLabel.PSI_MINUS, _QUBIT, cat_prime),
    )
    return _teleport(joint, (0, 2), (_QUBIT, _QUBIT),
                     lambda outcome: (Correction.IDENTITY, _bell_coeffs(_swap_partner(outcome))))
