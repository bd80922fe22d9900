"""Bell pairs over qubit and cat encodings, and the protocols built on them.

Every entangled state here is one Bell pair between two parties, each
carrying a logical qubit in an ``Encoding``: the spin itself (up, down) or
the even/odd cat at amplitude z. A state is a ``LogicalState`` over those
encodings: a joint state of four parties is 16 Python complex numbers plus
its encodings, at any cutoff. A Bell measurement reads the coefficients
as ``fock._cut`` lays them out over the measured parties, and every index a
measurement names is checked by ``fock._rest``. ``bell_pair`` builds all three
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
A stream's variates are those of ``np.random.default_rng(s)``, worked out
in Python integers: its first in one lane-packed batch, of a block of a
run's seeds or of a lone seed, and a later one by stepping PCG64 from the
seeded state. So no trial imports numpy.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import struct
import sys
from enum import Enum
from collections.abc import Callable, Iterator

from .fock import (
    _NORM2_MAX,
    _NORM2_MIN,
    BellLabel,
    Encoding,
    FactorKind,
    HesLabel,
    LogicalState,
    ParityBellLabel,
    SpinBellLabel,
    _as,
    _cut,
    _integer,
    _refused,
    _require,
    _rest,
    _rows,
    _set,
    _Value,
    even_coherent,  # noqa: F401  unused; the benchmark traces hesim.protocols.even_coherent
    inner,
    tensor,
)
from .pseudospin import PAULI_X, PAULI_Y, PAULI_Z

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# seeds per batch, so memory stays flat in the trial count: timed inside
# run_trials on a 2-vCPU x86 VM (16384 trials, min of 5 runs, two passes),
# blocks of 512 and 1024 took 1.32 us a trial, 256 1.4-1.5 and 4096 1.41
_BATCH_BLOCK = 1024
# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier M
_SEQ_INIT_A, _SEQ_MULT_A = 0x43B0D7E5, 0x931E8875
_SEQ_INIT_B, _SEQ_MULT_B = 0x8B51F9DD, 0x58F38DED
_SEQ_MIX_L, _SEQ_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# M**2, c = M**2 + M + 1 and 2c, mod 2**128, of the seeded state (see _seeded)
_PCG_MULT2 = _PCG_MULT**2 % 2**128
_PCG_C = (_PCG_MULT2 + _PCG_MULT + 1) % 2**128
_PCG_2C = 2 * _PCG_C % 2**128
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_MIX_ORDER = tuple(itertools.permutations(range(4), 2))  # (source, destination) pool words
# read as one global, so that _stream builds a stream as cheaply as a class call
_new = object.__new__


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


def _family(enc_a: Encoding, enc_b: Encoding) -> type[BellLabel]:
    """The Bell labels of a pair over enc_a and enc_b, by how many are modes:
    spin Bell labels on two qubits, hybrid on a qubit and a mode, in either
    order, and parity Bell labels on two modes."""
    modes = [enc.space.kind(0) for enc in (enc_a, enc_b)].count(FactorKind.MODE)
    return (SpinBellLabel, HesLabel, ParityBellLabel)[modes]


def bell_pair(label: BellLabel, enc_a: Encoding, enc_b: Encoding) -> LogicalState:
    """(|0_L>|0_L> ± |1_L>|1_L>)/√2 for phi labels, (|0_L>|1_L> ± |1_L>|0_L>)/√2
    for psi labels, party a first.

    The label must be one of the encodings' ``_family``, else a TypeError:
    every builder of a Bell pair has its label checked here. An encoding
    that is not an ``Encoding`` is a TypeError too.
    """
    _require(Encoding, enc_a=enc_a, enc_b=enc_b)
    _require(_family(enc_a, enc_b), label=label)
    return LogicalState((enc_a, enc_b), _bell_coeffs(label))


class RngStream:
    """Counted, seeded source of ``np.random.default_rng(seed)``'s variates,
    in Python integers.

    The seed must be an integer, as ``operator.index`` takes it, else a
    TypeError, and >= 0, else a ValueError. The first variate comes from a
    ``_first_uniforms`` batch: of one seed here, of a block of trials in
    ``_stream_blocks``. The second draw works out PCG64's state after the
    first, and every later draw steps its LCG once.
    """

    __slots__ = ("seed", "first", "counter", "_state", "_inc")

    def __init__(self, seed: int) -> None:
        seed = _integer("seed", seed)
        self.seed, self.first, self.counter = seed, _first_uniforms(seed, 1)[0], 0

    def uniform(self) -> float:
        self.counter += 1
        if self.counter == 1:
            return self.first
        if self.counter == 2:
            state, stream = _seeded(_words(self.seed), 1)
            self._state, self._inc = state & _M128, 2 * stream + 1
        self._state = (self._state * _PCG_MULT + self._inc) & _M128
        return _output(self._state >> 64, self._state & _M64)


def _stream(seed: int, first: float) -> RngStream:
    """``RngStream(seed)`` whose first variate a batch has worked out, built
    past ``__init__``."""
    rng = _new(RngStream)
    rng.seed, rng.first, rng.counter = seed, first, 0
    return rng


def _stream_blocks(seed: int, trials: int) -> Iterator[list[RngStream]]:
    """``RngStream(seed + i)`` for trial i of a run, a block of seeds at a time,
    each block's first variates one ``_first_uniforms`` batch.

    A block holds _BATCH_BLOCK seeds at most and ends at each multiple of
    2**64, so its seeds share their words above bit 64.
    """
    start, stop = seed, seed + trials
    while start < stop:
        end = min(start + _BATCH_BLOCK, stop, ((start >> 64) + 1) << 64)
        yield list(map(_stream, range(start, end), _first_uniforms(start, end - start)))
        start = end


def _first_uniforms(start: int, count: int) -> list[float]:
    """``np.random.default_rng(s).random()`` for s = start, ..., start +
    count - 1, bit for bit: one ``_seeded`` batch, a seed to a lane.

    The seeds must be >= 0, else a ValueError, and share their words above
    bit 64: each lane holds its seed's two low 32-bit words, and the words
    above are broadcast to every lane."""
    high = _words(start)[2:]  # checks start
    offsets, ones, mask, *_ = _lane_consts(count, 4)
    seeds = (start & _M64) * ones + offsets
    words = [seeds & mask, seeds >> 32 & mask, *(word * ones for word in high)]
    return _uniforms(_seeded(words, count)[0], count)


def _words(seed: int) -> list[int]:
    """A seed's 32-bit words, least significant first, as ``SeedSequence`` takes them."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    return [seed >> shift & _M32 for shift in range(0, seed.bit_length() or 1, 32)]


@functools.lru_cache(maxsize=8)
def _lane_consts(lanes: int, words: int) -> tuple:
    """The constants of a ``_seeded`` batch of seeds of ``words`` >= 4 words.

    Lane i of an int is its bits 64i to 64i + 63, or 256i to 256i + 255 for
    a wide lane. In that layout: 0, 1, ..., lanes - 1 (the seeds' offsets),
    1 and 2**32 - 1 in every lane; the 4 * words (xor, multiplier) pairs of
    the pool's hashes and the 8 of the output's, each xor in every lane;
    then 2**128 - 1 and c in every wide lane.
    """
    ones = (2 ** (64 * lanes) - 1) // _M64
    wide_ones = (2 ** (256 * lanes) - 1) // (2**256 - 1)
    offsets = int.from_bytes(struct.pack(f"<{lanes}Q", *range(lanes)), "little")
    pool, out = (tuple((xor * ones, mul) for xor, mul in _hash_consts(*seq))
                 for seq in ((_SEQ_INIT_A, _SEQ_MULT_A, 4 * words), (_SEQ_INIT_B, _SEQ_MULT_B, 8)))
    return offsets, ones, _M32 * ones, pool, out, _M128 * wide_ones, _PCG_C * wide_ones


def _seeded(words: list[int], lanes: int) -> tuple[int, int]:
    """PCG64's state after the first draw, and its stream, of
    ``np.random.default_rng(s)`` for the seed s in each lane, bit for bit.

    words[k] holds word k of every lane's seed, in 64-bit lanes. As numpy's
    ``SeedSequence`` documentation and O'Neill's "PCG: A Family of Simple
    Fast Space-Efficient Statistically Good Algorithms for Random Number
    Generation" (2014) describe: hash the first four words (zeros past the
    seed's own) into a pool, mix every pool word into every other and each
    word past the fourth into every pool word, a hash per mix, and hash
    eight words out: PCG64's 128-bit state seed s0 and stream i0. Seeding
    steps the LCG twice and the draw once, to s0*M**2 + (2*i0 + 1)*c mod
    2**128 with c = M**2 + M + 1. Returns that state plus up to twice
    2**128, and i0, each in a wide lane: SIMD within a register, as Fisher
    and Dietz (LCPC 1998) call it, where no lane's product reaches the next.
    """
    n = max(len(words), 4)
    _, _, mask, pool_consts, out_consts, mask128, c = _lane_consts(lanes, n)
    pool = [_hash(v, *k, mask) for v, k in zip((words + [0, 0, 0])[:4], pool_consts)] + words[4:]
    mixes = itertools.chain(_MIX_ORDER, itertools.product(range(4, n), range(4)))
    for (src, dst), k in zip(mixes, pool_consts[4:]):
        # L*x - R*h mod 2**32, as a sum that borrows from no lane above
        v = ((_SEQ_MIX_L * pool[dst] & mask) + (2**32 - _SEQ_MIX_R) * _hash(pool[src], *k, mask)
             & mask)
        pool[dst] = (v ^ v >> 16) & mask
    w = [_hash(pool[j % 4], *k, mask) for j, k in enumerate(out_consts)]
    # uint64 j is words 2j (low half) and 2j + 1; s0 is uint64s 0 (high) and 1, i0 2 and 3
    s0 = _widen(w[2] | w[3] << 32, w[0] | w[1] << 32, lanes)
    i0 = _widen(w[6] | w[7] << 32, w[4] | w[5] << 32, lanes)
    return (s0 * _PCG_MULT2 & mask128) + (i0 * _PCG_2C & mask128) + c, i0


@functools.cache
def _hash_consts(init: int, mult: int, n: int) -> tuple[tuple[int, int], ...]:
    """The first n (xor, multiplier) pairs of a SeedSequence hash constant,
    which each hash xors in, steps by ``mult`` and multiplies by."""
    steps = list(itertools.accumulate([mult] * n, lambda c, m: c * m & _M32, initial=init))
    return tuple(zip(steps, steps[1:]))


def _hash(v: int, xor: int, mul: int, mask: int) -> int:
    """One SeedSequence hash of the uint32 word in each lane of v: xor,
    multiply, xorshift. mask holds 2**32 - 1 in every lane: it keeps the
    product's low word, then drops what the shift brought down from the
    lane above."""
    v = (v ^ xor) * mul & mask
    return (v ^ v >> 16) & mask


def _widen(lo: int, hi: int, lanes: int) -> int:
    """hi * 2**64 + lo in each wide lane, from lo and hi in 64-bit lanes."""
    wide = bytearray(32 * lanes)
    words = memoryview(wide).cast("Q")  # copied whole, so the host's byte order does not matter
    words[0::4] = memoryview(lo.to_bytes(8 * lanes, "little")).cast("Q")
    words[1::4] = memoryview(hi.to_bytes(8 * lanes, "little")).cast("Q")
    return int.from_bytes(wide, "little")


def _uniforms(states: int, lanes: int) -> list[float]:
    """The variate of the state in each wide lane, read mod 2**128."""
    words = struct.unpack(f"<{4 * lanes}Q", states.to_bytes(32 * lanes, "little"))
    return list(map(_output, words[1::4], words[0::4]))


def _output(hi: int, lo: int) -> float:
    """``random()`` of PCG64 at state hi * 2**64 + lo: the XSL-RR output x,
    hi ^ lo rotated right by hi >> 58, as ``(x >> 11) * 2**-53``. Those 53
    bits are bits r + 11 .. r + 63 of x * (2**64 + 1), for a rotation by r."""
    return ((hi ^ lo) * (2**64 + 1) >> (hi >> 58) + 11 & 2**53 - 1) * 2.0**-53


_TABLE = "(outcome, p, record) rows, each record with a fidelity"


def run_trials(branches: list[tuple], seed: int, trials: int) -> tuple[list[int], float]:
    """Trials seed, ..., seed + trials - 1 of one table, trial i drawn with one
    uniform variate u from ``RngStream(seed + i)``.

    A trial draws the first nonzero row whose running sum of probabilities
    exceeds u times their total; a variate past the last sum, on the
    floating-point remainder, counts for the likeliest row. A measurement's
    table holds the measured state's whole squared norm, at least ``fock``'s
    lower bound on a squared norm, ``_NORM2_MIN``; one that sums to less, or
    to NaN, measured a state outside its basis, which is an error rather
    than a fifth outcome. Returns each row's count and the drawn records'
    fidelities summed in trial order, so every row's record must carry a
    ``fidelity``: a table whose rows are not (outcome, p, record) triples,
    or a record without one (a measurement's branch state, say), is a
    TypeError that names branches. A trial takes one ``RngStream.uniform``
    call and one bisection of the running sums. A seed or trial count that
    ``operator.index`` does not take is a TypeError, and a negative trial
    count a ValueError, each before any draw; 0 trials is the empty run.
    """
    seed, trials = _integer("seed", seed), _integer("trials", trials)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials!r}")
    rows = _as("branches", _TABLE, lambda table: _rows(3, table), branches)
    ps = [p for _, p, _ in rows]
    total = sum(ps)
    if not total >= _NORM2_MIN:  # written so that NaN fails it
        raise ValueError(
            f"state carries weight {1.0 - total:.3e} outside the span of the "
            f"measured basis"
        )
    # 0.0 + p0 + p1 + ... in row order; a zero row repeats the sum before it,
    # so the first sum above a variate is never a zero row's
    sums = list(itertools.accumulate(ps, initial=0.0))[1:]
    likeliest = max(range(len(ps)), key=ps.__getitem__)
    fidelities = [getattr(rec, "fidelity", None) for _, _, rec in rows]
    if None in fidelities:
        raise _refused("branches", _TABLE, branches)
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
    worked out from the states, which must be over the same encodings. A
    correction that is not a ``Correction`` is a TypeError, and so, through
    ``inner``, is a state that is not a ``LogicalState``."""

    _fields = ("correction", "output_state", "target_state")

    def __init__(self, correction: Correction, output_state: LogicalState,
                 target_state: LogicalState) -> None:
        _require(Correction, correction=correction)
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


def correction_for(outcome: BellLabel, channel: HesLabel) -> Correction:
    """Receiver-side fix-up for a sender Bell outcome over a given channel.

    Matching family and sign need no correction; a sign mismatch within the
    family is a parity phase flip; crossing families costs a parity flip,
    with s_y absorbing the extra sign. The outcome must be a ``BellLabel``
    and the channel a ``HesLabel``, else a TypeError.
    """
    _require(BellLabel, outcome=outcome)
    _require(HesLabel, channel=channel)
    same_sign = outcome.sign == channel.sign
    if outcome.is_phi == channel.is_phi:
        return Correction.IDENTITY if same_sign else Correction.S_Z
    return Correction.S_X if same_sign else Correction.S_Y


def _norm2(coeffs) -> float:
    """The squared norm of a vector of complex numbers."""
    return sum(c.real * c.real + c.imag * c.imag for c in coeffs)


def _branch(outcome, coeffs: list[complex], encodings: tuple[Encoding, ...]) -> tuple:
    """(outcome, p, the state of coeffs renormalized over encodings) with p the
    squared norm of coeffs itself, so any branch draw may pick renormalizes;
    the state is None at p = 0. A projection of a LogicalState has p at
    most ``fock``'s upper bound on a squared norm, ``_NORM2_MAX``."""
    p = _norm2(coeffs)
    if not p <= _NORM2_MAX:  # written so that NaN fails it
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
    cat basis. The measured parties must carry the basis's encodings, which
    decides their kinds too, so the probabilities sum to 1 up to rounding;
    ``fock._cut`` lays the coefficients out over them. A Bell pair's coefficients
    are real, so they are their own conjugates in the projection. Two
    factors must be named, and at least one left, else a ValueError; a
    state that is not a ``LogicalState`` is a TypeError.
    """
    _require(LogicalState, state=state)
    rest = _rest(state.space, factors)
    if not 0 < len(rest) == state.space.nfactors - 2:
        raise ValueError(f"cannot Bell-measure factors {factors} of {state.space.describe()}: "
                         f"a Bell measurement takes two factors and leaves at least one")
    i, j = factors
    if (state.encodings[i], state.encodings[j]) != (enc_a, enc_b):
        raise ValueError(f"factors {factors} of {state.space.describe()} are not "
                         f"encoded in the measured basis")
    encodings = tuple(state.encodings[k] for k in rest)
    # the measured parties' four values index the rows, the rest's the columns
    columns = list(zip(*_cut(state, factors)))
    labels = _family(enc_a, enc_b)
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
    |1_L>, so the outcome reads the logical index. A state that is not a
    ``LogicalState`` is a TypeError.
    """
    _require(LogicalState, state=state)
    _rest(state.space, (mode_index,))
    if state.space.kind(mode_index) is not FactorKind.MODE:
        raise ValueError(f"factor {mode_index} of {state.space.describe()} is not a mode")
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
