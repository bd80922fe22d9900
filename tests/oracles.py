"""Independent second routes to the paper's claims, for the tests only.

Each oracle reaches a quantity by a different computation from the one the
package uses: CHSH values through the kron-built Bell operator instead of
the correlation matrix's SVD, entropy through the reduced density matrix
instead of the Schmidt decomposition, the swap expansion by projecting
the joint state onto every product of Bell states, the CHSH correlation
matrix through dense pseudospin matrices, and a branch draw by a linear
scan over the table instead of a search over its precomputed sums.
``looped_trials`` is the Monte-Carlo loop the CLI ran before
``run_trials``: one ``sampler`` pick per stream of ``trial_streams``,
tallied a trial at a time; ``draw`` is one such pick.

The numpy routes the package took before its coefficients became Python
tuples live here too: ``numpy_correlation_matrix`` (matrix products of
arrays), ``lapack_optimize_chsh`` (LAPACK's SVD of that matrix) and
``numpy_schmidt`` (LAPACK's singular values of a cut), next to
``coefficient_array``, a state's coefficients as an array.

The dense route the package used before it kept states as coefficients
over their codewords lives here too: ``codewords`` builds an encoding's
two codewords, as the package did before an encoding became its scalars,
``dense`` expands a ``LogicalState`` into its full amplitude vector,
``kron`` multiplies dense states, ``dense_inner`` takes their overlap,
``partial_inner`` projects a dense state onto a bra over some of its
factors, and ``build_pseudospin``/``apply`` act with dense dim x dim
pseudospin matrices. ``s_plus``/``s_minus`` flip a codeword's parity by
moving its amplitudes within each (even, odd) pair, as the teleport once
built its flipped cat codewords. ``overlap_pseudospin`` takes the
pseudospin's elements on any two codewords from the 4x4 overlaps of their
even and odd parts, the route ``encoded_pseudospin`` took before it read
k, and ``overlap_k_matrix`` is ``k_matrix`` by that route.

So does the log-domain route the package took to the coherent weights
before it walked them from the Poisson peak: ``lgamma_mode_dim``,
``lgamma_branch`` and ``lgamma_k_series`` evaluate every weight with
``math.lgamma``. ``decimal_weights`` and what is built on it sum the same
weights in 60-digit ``decimal`` arithmetic, the reference for k(z) and the
cat codewords.

``TWINS`` holds the frozen dataclasses the package's ten value classes were
declared as before they became plain classes, one per class and of its
name, each field a class works out from its arguments declared as
derived (out of init, repr and ==); ``twin`` rebuilds a value as its
twin, whose repr, ==, hash and refusal to change are the reference for
the plain class's. The twins of
``StateVector`` and ``LogicalState`` compare by identity, as those classes
now do; the old ``StateVector`` dataclass raised on == and hash.
"""

import bisect
import decimal
import functools
import itertools
import math
from dataclasses import dataclass, field, fields, make_dataclass
from typing import Sequence

import numpy as np

from hesim import (
    ChshResult,
    ChshSettings,
    Correction,
    Encoding,
    FactorKind,
    HesLabel,
    ParityBellLabel,
    LogicalState,
    RngStream,
    SchmidtSpectrum,
    SpaceDescriptor,
    SpinBellLabel,
    StateVector,
    TeleportRecord,
    TruncationError,
    bell_pair,
    correction_for,
    even_coherent,
    hes_state,
    odd_coherent,
    parity_bell_state,
    spin_bell_state,
)
from hesim.fock import _NORM_TOL, _check_factor, _combined_residual
from hesim.protocols import _stream_blocks
from hesim.pseudospin import PAULI_X, PAULI_Y, PAULI_Z, Direction, encoded_pseudospin

# the Pauli matrices as arrays, x, y, z
PAULIS = np.array([PAULI_X, PAULI_Y, PAULI_Z])

# reduced-density eigenvalues below this count as exact zeros
EIGENVALUE_FLOOR = 1e-14
# a dense operator or a parity flip must keep the norm of the state it acts
# on to this much
APPLY_NORM_TOL = 1e-10
# largest entry difference between a pseudospin matrix element or CHSH
# correlation taken on codeword coefficients and the dense one: the two sum
# the same products in different orders (measured at most 5.6e-16 on
# hybrid states at z in [0, 9] and 4.4e-16 on random states)
DENSE_AGREEMENT_TOL = 4e-15
# largest entry difference between encoded_pseudospin of a cat encoding, plain
# or flipped, which sums k over the walk's weights, and the same elements on
# its codewords: the two round differently (measured at most 2.0e-15 over
# 7047 (z, dim) at z in [0, 30], dims from the adaptive cutoff -4 to +6)
CAT_PSEUDOSPIN_TOL = 4e-15
# largest difference between a recorded chsh optimizer_value and the dense
# correlation matrix's 2 * hypot(s1, s2) at the report's z, label and dim
GOLDEN_CHSH_TOL = 1e-12
# largest difference between fock._svd and numpy.linalg.svd on a matrix of
# spectral norm at most 1: of a singular value, of an entry of U^H U or V^H V
# from the identity, and of an entry of the reconstruction U diag(s) V^H
# (measured at most 4.1e-15 over 60 000 matrices of the shapes it serves)
SVD_AGREEMENT_TOL = 1e-14
# largest difference between a recorded teleport or swap fidelity (fidelity_min,
# fidelity_mean) and the dense oracle's at the report's state and dim (measured
# at most 8.9e-16 on the golden lines)
GOLDEN_FIDELITY_TOL = 1e-13
# largest difference between a recorded entropy report's Schmidt coefficients
# or entropy_bits and the dense oracles' at the report's state, the dense
# entanglement tests' tolerance (measured at most 3.2e-16 on the golden lines)
GOLDEN_ENTROPY_TOL = 1e-10
# largest |k_series(z) - decimal_k(z)| for z in [0, 30] (measured at most
# 2.2e-16 over 3001 z; the log-domain series was off by up to 4.6e-13)
K_DECIMAL_TOL = 1e-15
# largest |k_series(z) - k_asymptote(z)| for z in [300, 1000]: the next
# order of the expansion plus rounding (measured at most 2.2e-16 over 500 z)
K_ASYMPTOTE_TOL = 1e-15
# largest entry difference between a cat codeword and decimal_codeword
CODEWORD_DECIMAL_TOL = 1e-15


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


def _twin(cls, *specs, eq=True):
    """A frozen dataclass named as cls, over make_dataclass field specs."""
    return make_dataclass(cls.__name__, specs, frozen=True, eq=eq)


def _derived(kind):
    """The spec of a field read off the others: out of init, repr and ==."""
    return kind, field(init=False, repr=False, compare=False)


TWINS = {
    SpaceDescriptor: _twin(SpaceDescriptor, ("factors", tuple), ("dims", *_derived(tuple)),
                           ("dim", *_derived(int))),
    StateVector: _twin(StateVector, ("space", SpaceDescriptor), ("amps", np.ndarray),
                       ("truncation_residual", float, 0.0), eq=False),
    Encoding: _twin(Encoding, ("space", SpaceDescriptor), ("z", float, 0.0),
                    ("flipped", bool, False), ("residuals", *_derived(tuple)),
                    ("k", *_derived(float)), ("residual", *_derived(float))),
    LogicalState: _twin(LogicalState, ("encodings", tuple), ("coeffs", tuple),
                        ("truncation_residual", *_derived(float)), eq=False),
    Direction: _twin(Direction, ("nx", float), ("ny", float), ("nz", float)),
    ChshSettings: _twin(ChshSettings, ("a", Direction), ("a_prime", Direction),
                        ("b", Direction), ("b_prime", Direction)),
    ChshResult: _twin(ChshResult, ("value", float), ("settings", ChshSettings)),
    SchmidtSpectrum: _twin(SchmidtSpectrum, ("coefficients", tuple)),
    TeleportRecord: _twin(TeleportRecord, ("correction", Correction),
                          ("output_state", LogicalState), ("target_state", LogicalState),
                          ("fidelity", *_derived(float))),
}


def init_fields(cls) -> list[str]:
    """The names of cls's constructor arguments, in order, read off its twin."""
    return [f.name for f in fields(TWINS[cls]) if f.init]


def twin(value):
    """value's dataclass twin, built from value's constructor arguments."""
    cls = type(value)
    return TWINS[cls](*(getattr(value, name) for name in init_fields(cls)))


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


def qubit_state(alpha: complex, beta: complex) -> StateVector:
    """Qubit alpha|0> + beta|1>; amplitudes must already be normalized."""
    return StateVector(SpaceDescriptor.qubit(), np.array([alpha, beta]))


def codewords(enc: Encoding) -> tuple[StateVector, StateVector]:
    """|0_L> and |1_L> of an encoding: up and down on a qubit; on a mode the
    even and odd cat or, flipped, the other cat's amplitudes moved onto each
    within every (even, odd) pair, with that cat's truncation residual."""
    if enc.space.kind(0) is FactorKind.QUBIT:
        return qubit_state(1.0, 0.0), qubit_state(0.0, 1.0)
    words = []
    for logical in (0, 1):
        source = logical ^ enc.flipped
        word = (odd_coherent if source else even_coherent)(enc.z, enc.space.dim)
        if enc.flipped:
            amps = np.zeros(enc.space.dim, dtype=complex)
            amps[logical::2] = word.amps[source::2]
            word = StateVector(enc.space, amps, word.truncation_residual)
        words.append(word)
    return words[0], words[1]


def dense(state) -> StateVector:
    """The full amplitude vector of a LogicalState: the sum, in row-major
    coefficient order, of each coefficient times the Kronecker product of
    its codewords (a StateVector is returned as it is). On a Bell pair's
    codewords, of disjoint support, this is bit for bit the kron sum
    (|0_L>|x> ± |1_L>|y>) * 2**-0.5."""
    if isinstance(state, StateVector):
        return state
    words = [codewords(enc) for enc in state.encodings]
    amps = None
    for index, coeff in zip(itertools.product((0, 1), repeat=len(words)), state.coeffs):
        term = functools.reduce(lambda x, y: np.outer(x, y).ravel(),
                                [pair[i].amps for pair, i in zip(words, index)])
        term = term * coeff
        amps = term if amps is None else amps + term
    return StateVector(state.space, amps, state.truncation_residual)


def dense_inner(a: StateVector, b: StateVector) -> complex:
    """<a|b> (conjugate-linear in a) of two StateVectors on one space."""
    if a.space != b.space:
        raise ValueError(
            f"inner product between {a.space.describe()} and "
            f"{b.space.describe()} is undefined"
        )
    return complex(np.vdot(a.amps, b.amps))


def kron(a: StateVector, b: StateVector) -> StateVector:
    """Dense tensor product, a's factors first."""
    residual = _combined_residual(a.truncation_residual, b.truncation_residual)
    return StateVector(a.space * b.space, np.outer(a.amps, b.amps).ravel(), residual)


def apply(op: np.ndarray, state: StateVector, factor_index: int) -> StateVector:
    """Act with the matrix op on one factor, extending it by the identity elsewhere.

    The operator must be norm-preserving on this state; a result drifting
    off the unit sphere is rejected rather than silently rescaled.
    """
    _check_factor(state.space, factor_index)
    dims = state.space.dims
    d = dims[factor_index]
    if op.shape != (d, d):
        raise ValueError(
            f"operator of shape {op.shape} cannot act on factor "
            f"{factor_index} of {state.space.describe()}"
        )
    # np.tensordot(op, t, ([1], [factor_index])) without its argument handling:
    # the same transposed operand and the same single np.dot
    rest = [i for i in range(len(dims)) if i != factor_index]
    t = state.amps.reshape(dims).transpose([factor_index, *rest]).reshape(d, -1)
    moved = np.dot(op, t).reshape([d, *(dims[i] for i in rest)])
    out = np.moveaxis(moved, 0, factor_index).reshape(-1)
    norm = float(np.linalg.norm(out))
    if abs(norm - 1.0) > APPLY_NORM_TOL:
        raise ValueError(
            f"operator is not norm-preserving on this state (|result| = {norm!r})"
        )
    return StateVector(state.space, out / norm, state.truncation_residual)


def _flip(state: StateVector, source: int) -> StateVector:
    """Move the amplitude at parity ``source`` of each (even, odd) pair to its
    partner. Writes a full-length vector and renormalizes it by its norm,
    which the flip must keep: the state must have parity ``source``."""
    if state.space.nfactors != 1 or state.space.dims[0] % 2 != 0:
        raise ValueError(f"a parity flip acts on one qubit or mode, not {state.space.describe()}")
    out = np.zeros(state.space.dim, dtype=complex)
    out[1 - source :: 2] = state.amps[source::2]
    norm = float(np.linalg.norm(out))
    if abs(norm - 1.0) > APPLY_NORM_TOL:
        raise ValueError(f"parity flip is not norm-preserving on this state (|result| = {norm!r})")
    return StateVector(state.space, out / norm, state.truncation_residual)


def s_plus(state: StateVector) -> StateVector:
    """s_plus|state> for an odd-parity state: each |2n+1> amplitude moves to |2n>."""
    return _flip(state, 1)


def s_minus(state: StateVector) -> StateVector:
    """s_minus|state> for an even-parity state: each |2n> amplitude moves to |2n+1>."""
    return _flip(state, 0)


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
    for i in factors:
        _check_factor(state.space, i)
    if len(set(factors)) != len(factors):
        raise ValueError(f"factor indices must be distinct, got {factors}")
    if len(factors) >= state.space.nfactors:
        raise ValueError("partial projection must leave at least one factor")
    paired = SpaceDescriptor(tuple(state.space.factors[i] for i in factors))
    if paired != bra.space:
        raise ValueError(
            f"bra space {bra.space.describe()} does not match targeted factors "
            f"{factors} of {state.space.describe()}"
        )
    rest = [i for i in range(state.space.nfactors) if i not in factors]
    t = state.amps.reshape(state.space.dims).transpose([*factors, *rest])
    b = bra.amps.conj().reshape(1, -1)
    return np.dot(b, t.reshape(b.size, -1)).reshape(-1)


def direction(theta: float, phi: float) -> Direction:
    """Unit vector at polar angle theta and azimuth phi."""
    st = math.sin(theta)
    return Direction(st * math.cos(phi), st * math.sin(phi), math.cos(theta))


def pauli_dot(d: Direction) -> np.ndarray:
    """n . sigma on a qubit, in the (up, down) basis."""
    return d.nx * PAULIS[0] + d.ny * PAULIS[1] + d.nz * PAULIS[2]


def spin_dot(d: Direction, ops) -> np.ndarray:
    """n . s on the mode of ops."""
    return d.nx * ops.s_x + d.ny * ops.s_y + d.nz * ops.s_z


def bell_operator(settings, ops) -> np.ndarray:
    """Four-setting CHSH combination on qubit x mode, built by Kronecker products."""
    a, ap = pauli_dot(settings.a), pauli_dot(settings.a_prime)
    b, bp = spin_dot(settings.b, ops), spin_dot(settings.b_prime, ops)
    return np.kron(a, b) + np.kron(a, bp) + np.kron(ap, b) - np.kron(ap, bp)


def chsh_expectation(state, settings, ops) -> float:
    """<state| Bell operator |state>, which must come out real."""
    assert state.space.dims == (2, ops.s_z.shape[0]), state.space.describe()
    amps = dense(state).amps
    val = complex(np.vdot(amps, bell_operator(settings, ops) @ amps))
    assert abs(val.imag) <= 1e-10, val
    return val.real


def entropy_from_reduced_density(state, keep) -> float:
    """Von Neumann entropy (bits) from the eigenvalues of the reduced density
    matrix on the factors in keep."""
    keep = sorted(keep)
    rest = [i for i in range(state.space.nfactors) if i not in keep]
    dims = state.space.dims
    m = dense(state).amps.reshape(dims).transpose(keep + rest)
    m = m.reshape(math.prod(dims[i] for i in keep), -1)
    entropy = 0.0
    for ev in np.linalg.eigvalsh(m @ m.conj().T):
        p = float(ev)
        if p >= EIGENVALUE_FLOOR:
            entropy -= p * math.log2(p)
    return entropy


def swap_expansion(z: float, z_prime: float, dim: int) -> dict:
    """Coefficients of psi-(z) x psi-(z') over (spin Bell on qubits 1, 3) x
    (cat Bell on modes 2, 4), by direct projection, for all 16 label pairs."""
    joint = kron(
        dense(hes_state(HesLabel.PSI_MINUS, z, dim)),
        dense(hes_state(HesLabel.PSI_MINUS, z_prime, dim)),
    ).amps.reshape(2, dim, 2, dim)
    out = {}
    for spin in SpinBellLabel:
        sb = dense(spin_bell_state(spin)).amps.reshape(2, 2)
        for parity in ParityBellLabel:
            pb = dense(parity_bell_state(parity, z, z_prime, dim)).amps.reshape(dim, dim)
            out[spin, parity] = complex(np.einsum("ik,jl,ijkl->", sb.conj(), pb.conj(), joint))
    return out


def dense_correlation_matrix(state) -> np.ndarray:
    """<sigma_k x s_l> with s_l the dense pseudospin matrices of the mode,
    applied as a matrix product on the mode index."""
    dim = state.space.dims[1]
    ops = build_pseudospin(dim)
    psi = dense(state).amps.reshape(2, dim)
    m = np.empty((3, 3))
    for i, sig in enumerate(PAULIS):
        left = sig @ psi
        for j, s in enumerate((ops.s_x, ops.s_y, ops.s_z)):
            m[i, j] = complex(np.vdot(psi, left @ s.T)).real
    return m


def pair_correlation(label: HesLabel, k: float) -> np.ndarray:
    """The correlation matrix of a hybrid pair whose cats overlap by k: the
    two-qubit Bell state's diag(XX, YY, ZZ), with the x and y entries scaled
    by k. phi pairs give diag(s k, -s k, 1), psi pairs diag(s k, s k, -1),
    s the label's sign."""
    sign = label.sign
    return np.diag([sign * k, (-sign if label.is_phi else sign) * k, 1.0 if label.is_phi else -1.0])


def bell_value(m: np.ndarray, settings) -> float:
    """a.m.b + a.m.b' + a'.m.b - a'.m.b' for a correlation matrix m."""
    a, ap, b, bp = (np.array([d.nx, d.ny, d.nz]) for d in
                    (settings.a, settings.a_prime, settings.b, settings.b_prime))
    return float(a @ m @ (b + bp) + ap @ m @ (b - bp))


def spectrum_entropy(coefficients) -> float:
    """Von Neumann entropy (bits) of Schmidt coefficients, squares below
    EIGENVALUE_FLOOR counting as zeros."""
    return -sum(p * math.log2(p) for p in (c * c for c in coefficients) if p >= EIGENVALUE_FLOOR)


def overlap_pseudospin(zero: StateVector, one: StateVector) -> np.ndarray:
    """<a_L|s_l|b_L> for l = x, y, z on two codewords, as a (3, 2, 2) array.

    s_l acts on every (even, odd) pair of amplitudes n as sigma_l on a qubit,
    so the element sums a_n^H sigma_l b_n over n: it needs only the 4x4
    overlaps of the codewords' even and odd parts, O(dim)."""
    parts = np.array([w.amps[parity::2] for w in (zero, one) for parity in (0, 1)])
    overlaps = (parts.conj() @ parts.T).reshape(2, 2, 2, 2)  # [a, j, b, k]
    return np.einsum("ljk,ajbk->lab", PAULIS, overlaps)


def overlap_k_matrix(z: float, dim: int) -> float:
    """<even|s_x|odd> of the cat codewords at (z, dim) by ``overlap_pseudospin``:
    the real part of the element, as ``k_matrix`` once read it."""
    return float(overlap_pseudospin(even_coherent(z, dim), odd_coherent(z, dim))[0, 0, 1].real)


def linear_scan_draw(branches, rng):
    """One branch: the first nonzero row whose running sum of probabilities
    exceeds a uniform variate scaled by their total, else the likeliest row."""
    total = sum(p for _, p, _ in branches)
    assert 1.0 - total <= 1e-10, total
    u = rng.uniform() * total
    acc = 0.0
    for branch in branches:
        acc += branch[1]
        if u < acc and branch[1] > 0.0:
            return branch
    return max(branches, key=lambda branch: branch[1])


def trial_streams(seed: int, trials: int):
    """``RngStream(seed + i)`` for trial i of a run, in trial order: the
    streams ``run_trials`` draws from, one block at a time."""
    return itertools.chain.from_iterable(_stream_blocks(seed, trials))


def sampler(branches):
    """A function drawing one (outcome, probability, result) branch of a
    table per call from a stream, the table summed and checked once.

    One uniform variate, scaled by the summed probability, picks the first
    nonzero branch whose running sum exceeds it, by bisecting the sums
    0.0 + p0 + p1 + ...; a variate on the floating-point remainder falls back
    to the likeliest branch. A table summing to less than the square of
    1 - fock._NORM_TOL, the least squared norm of a state, or to NaN is refused."""
    ps = [p for _, p, _ in branches]
    total = sum(ps)
    if not total >= (1.0 - _NORM_TOL) ** 2:
        raise ValueError(
            f"state carries weight {1.0 - total:.3e} outside the span of the "
            f"measured basis"
        )
    sums = list(itertools.accumulate(ps, initial=0.0))[1:]
    likeliest = max(range(len(ps)), key=ps.__getitem__)

    def pick(rng: RngStream):
        row = bisect.bisect_right(sums, rng.uniform() * total)
        return branches[row if row < len(branches) else likeliest]

    return pick


def draw(branches, rng):
    """One branch of a table, drawn with one variate of rng as ``sampler`` draws it."""
    return sampler(branches)(rng)


def looped_trials(branches, seed, trials):
    """Each row's count and the drawn records' fidelities summed in trial
    order, one ``sampler`` pick per stream of ``trial_streams``."""
    rows = {id(branch): k for k, branch in enumerate(branches)}
    counts, fidelity = [0] * len(branches), 0.0
    pick = sampler(branches)
    for rng in trial_streams(seed, trials):
        branch = pick(rng)
        counts[rows[id(branch)]] += 1
        fidelity += branch[2].fidelity
    return counts, fidelity


def dense_schmidt(state, side_a) -> list[float]:
    """Singular values of the dense amplitude matrix with side a's factors as rows."""
    a = sorted(side_a)
    b = [i for i in range(state.space.nfactors) if i not in a]
    dims = state.space.dims
    m = dense(state).amps.reshape(dims).transpose(a + b).reshape(math.prod(dims[i] for i in a), -1)
    return [float(s) for s in np.linalg.svd(m, compute_uv=False)]


def coefficient_array(state) -> np.ndarray:
    """A LogicalState's coefficients as an array of shape (2,) * parties."""
    return np.array(state.coeffs).reshape((2,) * len(state.encodings))


def numpy_correlation_matrix(state) -> np.ndarray:
    """``correlation_matrix`` by numpy's matrix products, as the package took
    it: the real part of the entry sums of (C^H A_k C) * B_l, with C the 2x2
    coefficients and A, B the ``encoded_pseudospin`` of qubit and mode."""
    c = coefficient_array(state)
    qubit, mode = (np.array(encoded_pseudospin(enc)) for enc in state.encodings)
    return ((c.conj().T @ qubit @ c).reshape(3, 4) @ mode.reshape(3, 4).T).real


def lapack_optimize_chsh(state) -> tuple[float, tuple]:
    """``optimize_chsh`` by LAPACK's SVD of ``numpy_correlation_matrix``, as
    the package took it: the value and the settings a, a', b, b' as arrays."""
    u, s, vt = np.linalg.svd(numpy_correlation_matrix(state))
    t = math.atan2(s[1], s[0])
    b, bp = (math.cos(t) * vt[0] + sign * math.sin(t) * vt[1] for sign in (1.0, -1.0))
    return 2.0 * math.hypot(s[0], s[1]), (u[:, 0], u[:, 1], b, bp)


def numpy_schmidt(state, side_a) -> list[float]:
    """``schmidt_coefficients`` by LAPACK, as the package took it: singular
    values of the coefficient tensor with side a's parties as rows."""
    a = sorted(side_a)
    c = coefficient_array(state).transpose(a + [i for i in range(len(state.encodings)) if i not in a])
    return [float(s) for s in np.linalg.svd(c.reshape(2 ** len(a), -1), compute_uv=False)]


def dense_measure_bell(state: StateVector, factors, enc_a: Encoding, enc_b: Encoding, labels):
    """(label, p, renormalized dense state on the other factors) for every label,
    by projecting the dense state onto each dense Bell pair."""
    rest = [i for i in range(state.space.nfactors) if i not in factors]
    space = SpaceDescriptor(tuple(state.space.factors[i] for i in rest))
    rows = []
    for label in labels:
        amp = partial_inner(dense(bell_pair(label, enc_a, enc_b)), state, factors)
        p = float(np.vdot(amp, amp).real)
        rows.append((label, p, StateVector(space, amp / math.sqrt(p)) if p else None))
    return rows


def _dense_teleport(alpha, beta, joint, factors, basis, labels, channel, receiver):
    ops = build_pseudospin(receiver.space.dim)
    plain = dense(receiver.state(alpha, beta))
    zero, one = codewords(receiver)
    flipped = StateVector(receiver.space, alpha * (ops.s_plus @ one.amps)
                          + beta * (ops.s_minus @ zero.amps))
    rows = []
    for outcome, p, received in dense_measure_bell(joint, factors, *basis, labels):
        correction = correction_for(outcome, channel)
        output, target = received, plain
        if correction is not Correction.IDENTITY:
            output = apply(getattr(ops, correction.value), received, 0)
            if correction is not Correction.S_Z:
                target = flipped
        rows.append((outcome, p, correction, abs(dense_inner(target, output)) ** 2, output))
    return rows


def dense_teleport_spin(alpha, beta, channel, z, dim) -> list[tuple]:
    """(outcome, p, correction, fidelity, dense output) per branch of spin
    teleportation, on the dense joint state with dense pseudospin corrections."""
    qubit, cat = Encoding.qubit(), Encoding.cat(z, dim)
    joint = kron(dense(qubit.state(alpha, beta)), dense(bell_pair(channel, qubit, cat)))
    return _dense_teleport(alpha, beta, joint, (0, 1), (qubit, qubit), SpinBellLabel,
                           channel, cat)


def dense_teleport_parity(alpha, beta, z_dblprime, channel, z, dim) -> list[tuple]:
    """The rows of ``dense_teleport_spin`` for parity teleportation."""
    qubit, source, cat = Encoding.qubit(), Encoding.cat(z_dblprime, dim), Encoding.cat(z, dim)
    joint = kron(dense(bell_pair(channel, qubit, cat)), dense(source.state(alpha, beta)))
    return _dense_teleport(alpha, beta, joint, (2, 1), (source, cat), ParityBellLabel,
                           channel, qubit)


SWAP_PAIRING = {label: ParityBellLabel[label.name] for label in SpinBellLabel}


def dense_swap(z, z_prime, dim) -> list[tuple]:
    """(outcome, p, fidelity with the paired cat Bell state, Schmidt
    coefficients of the modes) per branch of swapping, on the dense
    four-party state."""
    qubit, cat, cat_prime = Encoding.qubit(), Encoding.cat(z, dim), Encoding.cat(z_prime, dim)
    joint = kron(dense(bell_pair(HesLabel.PSI_MINUS, qubit, cat)),
                 dense(bell_pair(HesLabel.PSI_MINUS, qubit, cat_prime)))
    rows = []
    for outcome, p, modes in dense_measure_bell(joint, (0, 2), qubit, qubit, SpinBellLabel):
        paired = dense(bell_pair(SWAP_PAIRING[outcome], cat, cat_prime))
        rows.append((outcome, p, abs(dense_inner(paired, modes)) ** 2, dense_schmidt(modes, [0])))
    return rows


def lgamma_mode_dim(z: float, tol: float) -> int:
    """``mode_dim_for`` by Poisson terms exp(-lam + n log lam - lgamma(n+1))
    summed from n = 0, and their suffix sums."""
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
    tails = [0.0] * (len(terms) + 1)
    acc = 0.0
    for i in range(len(terms) - 1, -1, -1):
        acc += terms[i]
        tails[i] = acc
    d = 4
    while d < len(terms) and tails[d] >= tol:
        d += 2
    return d


def _log_cosh_sinh(x: float, sign: int) -> float:
    """log cosh x (sign 1) or log sinh x (sign -1), without overflow at large x."""
    if x > 20.0:
        return x + math.log1p(sign * math.exp(-2.0 * x)) - math.log(2.0)
    return math.log(math.cosh(x) if sign > 0 else math.sinh(x))


def _lgamma_tail(z, parity, log_norm, dim):
    """Discarded weights of one parity branch, in increasing order, and their sum."""
    logz = math.log(z)
    terms, residual = [], 0.0
    n = dim if dim % 2 == parity else dim + 1
    while True:
        lt = 2 * n * logz - math.lgamma(n + 1) - log_norm
        t = math.exp(lt) if lt > -745.0 else 0.0
        terms.append(t)
        residual += t
        if n > z * z and t <= residual * 1e-18 + 1e-300:
            return terms, residual
        n += 2


def lgamma_branch(z: float, dim: int, parity: int, residual_tol: float):
    """(amplitudes, residual) of one parity branch of |z> at dim, normalized
    by log cosh or log sinh of z**2 and then renormalized; raises the
    TruncationError that ``even_coherent``/``odd_coherent`` raise."""
    log_norm = _log_cosh_sinh(z * z, 1 - 2 * parity)
    amps = np.zeros(dim)
    for n in range(parity, dim, 2):
        la = n * math.log(z) - 0.5 * math.lgamma(n + 1) - 0.5 * log_norm
        amps[n] = math.exp(la) if la > -745.0 else 0.0
    tail, residual = _lgamma_tail(z, parity, log_norm, dim)
    if residual > residual_tol:
        j, suffix = len(tail), 0.0
        while j > 1 and suffix + tail[j - 1] <= residual_tol:
            j -= 1
            suffix += tail[j]
        while _lgamma_tail(z, parity, log_norm, dim + 2 * j)[1] > residual_tol:
            j += 1
        raise TruncationError(
            f"truncation at dim {dim} loses probability {residual:.3e} "
            f"(> {residual_tol:.1e}) for z = {z!r}; "
            f"use dim >= {dim + 2 * j}"
        )
    return amps / np.linalg.norm(amps), residual


def lgamma_k_series(z: float) -> float:
    """k(z) as the series z**(4n+1)/sqrt((2n)!(2n+1)!) / sqrt(sinh(2 z**2)/2),
    term by term in the log domain; 1 below z = 1e-8."""
    if z < 1e-8:
        return 1.0
    log_pref = -0.5 * (_log_cosh_sinh(2.0 * z * z, -1) - math.log(2.0))
    total, prev = 0.0, -1.0
    for n in range(100_000):
        lt = ((4 * n + 1) * math.log(z) + log_pref
              - 0.5 * (math.lgamma(2 * n + 1) + math.lgamma(2 * n + 2)))
        t = math.exp(lt) if lt > -745.0 else 0.0
        total += t
        if t < 1e-15 and t < prev:
            return total
        prev = t
    raise ValueError(f"the k(z) series at z = {z!r} has not converged after 100000 terms")


def k_asymptote(z: float) -> float:
    """The large-z expansion 1 - 1/(8 z^2) - 7/(128 z^4) of k(z).

    With lam = z**2, k = sum over even m of w_m sqrt(lam/(m+1)), divided by
    sqrt(cosh(lam) sinh(lam)), the w_m being the Poisson weights times e**lam.
    Up to terms of order e**(-2 lam) that is the Poisson mean of
    (1 + X/lam)**(-1/2) with X = N + 1 - lam. Expanding the root, the moments
    E[X] = 1, E[X^2] = lam + 1, E[X^3] = 4 lam + 1 and E[X^4] = 3 lam^2 + O(lam)
    give 1 - (1/2 - 3/8)/lam + (3/8 - 5/4 + 105/128)/lam^2 + O(lam^-3).
    """
    return 1.0 - 1.0 / (8 * z**2) - 7.0 / (128 * z**4)


def decimal_weights(z: float) -> list[decimal.Decimal]:
    """z**(2m)/m! for m = 0, 1, ... from the exact binary value of z, until
    the terms past the peak fall below 1e-70 of it; call it, and do
    arithmetic on its result, in a 60-digit ``decimal.localcontext``."""
    lam = decimal.Decimal(z) * decimal.Decimal(z)
    w, top = [decimal.Decimal(1)], decimal.Decimal(1)
    while len(w) <= lam or w[-1] >= top * decimal.Decimal("1e-70"):
        w.append(w[-1] * lam / len(w))
        top = max(top, w[-1])
    return w


def decimal_k(z: float) -> float:
    """k(z) = sum u_2n u_2n+1 / sqrt(sum u_2n**2 * sum u_2n+1**2), u = sqrt(w),
    in 60-digit arithmetic; 1 at z = 0."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        w = decimal_weights(z)
        even, odd = w[0::2], w[1::2]
        if not any(odd):
            return 1.0
        pairs = sum((a * b).sqrt() for a, b in zip(even, odd))
        return float(pairs / (sum(even) * sum(odd)).sqrt())


def decimal_codeword(z: float, dim: int, parity: int) -> np.ndarray:
    """Amplitudes of one parity branch of |z> on the levels below dim,
    normalized over those levels in 60-digit arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        w = decimal_weights(z)[:dim]
        norm = sum(w[parity::2])
        out = np.zeros(dim)
        out[parity:len(w):2] = [float((x / norm).sqrt()) for x in w[parity::2]]
        return out
