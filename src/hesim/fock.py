"""Cat codewords on truncated Fock spaces, and states over logical codeword bases.

A composite space is an ordered tensor product of factors, each either a
qubit (dimension 2) or a bosonic mode truncated to an even Fock dimension.
Mode dimensions are kept even so that the parity-flip algebra built on top
of them closes exactly on the truncated space.

Only pure states are represented. A ``LogicalState`` holds a tuple of 2**n
Python complex coefficients over its n parties' ``Encoding``s; every state
is one, so products and overlaps cost 2**n numbers, never dim**2
amplitudes, and take no numpy. ``_svd``, a one-sided Jacobi SVD of such
small matrices, serves the Schmidt and the CHSH analyses. ``_cut`` lays
a state's coefficients out as a matrix between the parties a call names and
the rest, for the Bell measurements and the Schmidt cuts; ``_rest`` is the
one check of the factor indices a call names. An encoding is
scalars: the qubit, or a cat's mode, amplitude and flip, from which its
constructor works out the residuals and the even/odd overlap, so no state
holds a codeword; a state works out its truncation residual from its
encodings', the one use of the product rule. A ``StateVector`` holds the
real amplitudes of one mode in a read-only view of an ``array('d')``:
``even_coherent`` and ``odd_coherent`` build the cat codewords, which only
the dense check ``pseudospin.k_matrix`` reads, and import ``array`` when
called. No module of the package imports numpy.
The cat codewords, their truncation residuals and overlap, the adaptive
Fock cutoff ``mode_dim_for`` and the overlap k(z) of ``pseudospin`` all
read one list of coherent weights, walked outward from the Poisson peak by
term ratios; a command walks each of its z once. The walk alone checks z,
for a directly built encoding too, and defines the limit z -> 0 for all of
them. The truncation policy is fixed here as well: the cutoff is sized so
that |z> loses less than 1e-14, and a cat may lose at most 1e-12. All
values are immutable after construction; every operation here is a pure
function and safe to share across workers. The Bell-pair label enums live
here too, so that the analysis and protocol layers share them without
importing each other.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import sys
from enum import Enum

# The truncation policy. mode_dim_for sizes a mode so that the coherent state
# |z> loses less than _CUTOFF_TOL of its mass; a cat on it may lose at most
# _RESIDUAL_TOL of its own. A cat's branch holds about half of the mass, and
# the odd one of a small z far less, so its share past the cutoff exceeds the
# coherent one; the margin keeps every cat at the adaptive cutoff buildable,
# where sizing at _RESIDUAL_TOL left some two levels short.
_CUTOFF_TOL = 1e-14
_RESIDUAL_TOL = 1e-12

_NORM_TOL = 1e-12
_MODE_DIM_CAP = 1_000_000
# a pair of rows counts as orthogonal in _svd once their overlap is at most
# this share of the product of their norms
_SVD_TOL = 4 * sys.float_info.epsilon
# how a _Value's __init__ sets its attributes past its frozen __setattr__
_set = object.__setattr__


class _Value:
    """Base of the frozen value classes. ``_fields`` are the constructor's
    arguments in order, and ``Encoding``'s flip; ``_key`` is their values,
    which the repr shows and == (between instances of one class) and the
    hash read. Each ``__init__`` runs its class's checks and sets the
    attributes with ``_set``; any later assignment or deletion raises
    AttributeError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({args})"

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _refused(name: str, what: str, value) -> TypeError:
    """The one wording of a refused argument: "NAME must be WHAT, got VALUE"."""
    return TypeError(f"{name} must be {what}, got {value!r}")


def _require(cls: type, **named) -> None:
    """Refuse, with a TypeError that names it and its value, each keyword
    argument that is not an instance of cls."""
    for name, value in named.items():
        if not isinstance(value, cls):
            raise _refused(name, cls.__name__, value)


def _integer(name: str, value) -> int:
    """value as ``operator.index`` takes it, else a TypeError that names it
    and its value: the one check of an argument that must be an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise _refused(name, "an integer", value) from None


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


class SpaceDescriptor(_Value):
    """Ordered factors of a composite Hilbert space, as (kind, dim) pairs.

    A dim must be an integer, as ``_integer`` takes it, like a factor
    index: a float, NaN included, is a TypeError rather than cut to the
    integer below it."""

    # dims and dim are read off the factors once; equality, hashing and repr use the factors
    _fields = ("factors",)

    def __init__(self, factors: tuple[tuple[FactorKind, int], ...]) -> None:
        factors = tuple((FactorKind(kind), _integer("dim", dim)) for kind, dim in factors)
        if not factors:
            raise ValueError("a space needs at least one factor")
        for kind, dim in factors:
            if kind is FactorKind.QUBIT and dim != 2:
                raise ValueError(f"qubit factors have dimension 2, got {dim}")
            if kind is FactorKind.MODE and (dim < 2 or dim % 2 != 0):
                raise ValueError(
                    f"mode dimension must be an even integer >= 2, got {dim}"
                )
        _set(self, "factors", factors)
        _set(self, "dims", tuple(dim for _, dim in factors))
        _set(self, "dim", math.prod(self.dims))

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


class StateVector(_Value):
    """Normalized real amplitude vector over a composite space.

    ``amps`` is a read-only ``memoryview`` of format ``"d"`` over a copy of
    the amplitudes given, which must be a sequence of real numbers: a
    complex one, numpy's included, is a TypeError that names its index in
    amps, as is a space that is not a ``SpaceDescriptor`` or amps that are
    not iterable. The norm is taken with ``math.fsum``, and the repr shows
    the amplitudes as a list. ``truncation_residual`` records the
    probability mass the construction dropped by working on a truncated
    space (0 for exact constructions); it is carried along verbatim through
    later operations. A state vector is equal only to itself and pickles by
    its amplitudes.
    """

    _fields = ("space", "amps", "truncation_residual")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, space: SpaceDescriptor, amps,
                 truncation_residual: float = 0.0) -> None:
        _set(self, "space", space)
        _set(self, "amps", amps)
        _set(self, "truncation_residual", truncation_residual)
        self.__post_init__()

    def __post_init__(self) -> None:
        from array import array
        _require(SpaceDescriptor, space=self.space)
        amps = self.amps
        if not (isinstance(amps, array) and amps.typecode == "d"):
            from numbers import Real
            try:
                amps = list(amps)
            except TypeError:
                raise _refused("amps", "a sequence of real numbers", amps) from None
            # array("d") would drop a numpy complex's imaginary part
            _require(Real, **{f"amps[{i}]": a for i, a in enumerate(amps)})
        amps = array("d", amps)
        if len(amps) != self.space.dim:
            raise ValueError(f"amplitude vector has length {len(amps)}, "
                             f"space {self.space.describe()} needs {self.space.dim}")
        # a cat fills only its support, about 27 z levels of up to 10**6, and a
        # zero adds nothing to the exact sum, so fsum takes the nonzero squares
        norm = math.sqrt(math.fsum(a * a for a in filter(None, amps)))
        if not abs(norm - 1.0) <= _NORM_TOL:  # written so that NaN fails it
            raise ValueError(f"state vector is not normalized: |amps| = {norm!r}")
        if not self.truncation_residual >= 0.0:
            raise ValueError("truncation_residual must be nonnegative")
        _set(self, "amps", memoryview(amps).toreadonly())

    def _key(self) -> tuple:  # a memoryview shows its address and does not pickle; a list does
        return self.space, self.amps.tolist(), self.truncation_residual

    def __reduce__(self):
        return type(self), self._key()


def _combined_residual(a: float, b: float) -> float:
    """Mass lost by a product of two truncations losing a and b: 1-(1-a)(1-b).

    Written as a + b - a*b so residuals near machine precision survive.
    """
    return a + b - a * b


# mode_dim_for, an Encoding and k_series walk the same z in one command, so
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
    out, far below the truncation tolerances. The walk reaches level 1 at
    least, so the odd branch of a tiny z is |1>; where z**2 is 0, the limit
    z -> 0 is weight 1 on levels 0 and 1. It checks z for every reader, and
    refuses a z whose peak lies past the largest cutoff. A z that is no real
    number fails here, or in the cache as it hashes z, with a TypeError that
    each reader names as z's.
    """
    # NaN fails every comparison, so it must be rejected before any loop on z
    if not (math.isfinite(z) and z >= 0.0):
        raise ValueError(f"z must be finite and nonnegative, got {z!r}")
    lam = z * z
    if lam == 0.0:
        return 0, (1.0, 1.0)
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
    while w >= 1e-40:
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


def mode_dim_for(z: float) -> int:
    """Smallest even Fock dimension whose Poisson tail at mean z**2 is below
    1e-14, the adaptive cutoff.

    The photon-number distribution of a coherent amplitude z is Poisson with
    mean z**2; the returned dimension keeps the coherent state's out-of-range
    mass below 1e-14, so that the even and the odd cat there each lose at
    most 1e-12 of their own. Never returns less than 4, nor more than
    1 000 000: a z that needs more (every z above 996.1769613439574) is
    refused.
    """
    try:
        lo, w = _coherent_weights(z)
    except TypeError:
        raise _refused("z", "a real number", z) from None
    tails = _tails(w)
    start = max(4, lo)  # below lo the whole mass, 1 >= tol, is out of range
    # the first even d from start whose tail past it is below tol of the mass, else
    # the first even d past the walk: the tails never increase, so a bisection
    offsets = range(start - lo, len(w), 2)
    d = start + 2 * bisect.bisect_left(
        offsets, True, key=lambda i: tails[i] / tails[0] < _CUTOFF_TOL)
    if d > _MODE_DIM_CAP:
        raise ValueError(
            f"z = {z!r} is too large: its adaptive cutoff passes {_MODE_DIM_CAP} levels")
    return d


def _branch(z: float, dim: int, parity: int) -> tuple[int, tuple[float, ...], float, float]:
    """(lo, kept, mass, residual) of one parity branch of |z> on dim levels:
    the walk's weights of the levels lo + parity, lo + parity + 2, ... below
    dim, their sum, and the share of the branch's mass at or past dim.
    Raises TruncationError, naming the smallest dim that suffices, if that
    share exceeds 1e-12."""
    try:
        lo, w = _coherent_weights(z)
    except TypeError:
        raise _refused("z", "a real number", z) from None
    branch = w[parity::2]
    tails = _tails(branch)
    kept = min(len(branch), max(0, (dim - lo - parity + 1) // 2))  # levels below dim
    residual = tails[kept] / tails[0]
    if residual > _RESIDUAL_TOL:
        # keeping c levels of the branch is the cutoff lo + 2c, for either parity
        need = next(c for c in range(kept, len(tails)) if tails[c] / tails[0] <= _RESIDUAL_TOL)
        raise TruncationError(
            f"truncation at dim {dim} loses probability {residual:.3e} "
            f"(> {_RESIDUAL_TOL:.1e}) for z = {z!r}; "
            f"use dim >= {lo + 2 * need}"
        )
    return lo, branch[:kept], tails[0] - tails[kept], residual


def _pair_overlap(even, odd, mass_even: float, mass_odd: float) -> float:
    """<even|s_x|odd> of two branches with these weights on the (even, odd)
    level pairs, each normalized to its mass: sum sqrt(w_2n w_2n+1) over
    sqrt(mass_even * mass_odd)."""
    pairs = math.fsum(map(math.sqrt, map(operator.mul, even, odd)))
    return pairs / math.sqrt(mass_even * mass_odd)


def _coherent_branch(z: float, dim: int, parity: int) -> StateVector:
    """One parity branch of |z> on a mode of dimension dim, renormalized: the
    square roots of the kept weights over their mass, each division and root
    correctly rounded, on every other level from lo + parity."""
    from array import array
    space = SpaceDescriptor.mode(dim)  # checks dim before the walk reads it
    lo, kept, mass, residual = _branch(z, dim, parity)
    amps, start = array("d", [0.0]) * dim, lo + parity
    amps[start : start + 2 * len(kept) : 2] = array("d", [math.sqrt(w / mass) for w in kept])
    return StateVector(space, amps, residual)


def even_coherent(z: float, dim: int) -> StateVector:
    """Even-photon-number projection of the coherent state |z>, renormalized.

    Amplitudes are proportional to z**(2n)/sqrt((2n)!) on |2n> and vanish on
    odd Fock states. Raises TruncationError if dim loses more than 1e-12 of
    the cat's mass, naming the smallest dim that does not.
    """
    return _coherent_branch(z, dim, 0)


def odd_coherent(z: float, dim: int) -> StateVector:
    """Odd-photon-number projection of the coherent state |z>, renormalized.

    Amplitudes are proportional to z**(2n+1)/sqrt((2n+1)!) on |2n+1>. At
    z = 0 the normalized series degenerates; its limit |1> is returned.
    Refuses an undersized dim as ``even_coherent`` does.
    """
    return _coherent_branch(z, dim, 1)


class Encoding(_Value):
    """The logical basis |0_L>, |1_L> of one qubit or one mode, as the scalars
    every claim reads.

    ``Encoding.qubit()`` is spin up and down. On a mode of dimension dim,
    ``Encoding(space, z)`` is the even and odd cat at amplitude z, and its
    ``flip()`` their parity flips s_plus|odd>, s_minus|even>: codewords of
    parities (even, odd), so orthonormal. The constructor works out, from
    one walk of the coherent weights, the truncation ``residuals`` of the
    even and the odd cat and their overlap k = <even|s_x|odd> on the mode,
    which the flips share; no caller passes them. The qubit is the case
    k = 1 with no residual, and its own flip. No codeword is built. Equal
    space, z and ``flipped`` are equal encodings.

    Refuses, with a TypeError, a space that is not a ``SpaceDescriptor``;
    with a ValueError, any other space than one factor and a qubit other
    than spin up and down (z = 0); on a mode, a z that is not finite and
    nonnegative, then, with a TruncationError, a cat that loses more than
    1e-12 of its mass.
    """

    # flipped is set by flip(), not passed; residuals, k and residual, the
    # mean of the residuals, are worked out from space and z
    _fields = ("space", "z", "flipped")

    def __init__(self, space: SpaceDescriptor, z: float = 0.0) -> None:
        _require(SpaceDescriptor, space=space)
        if space.nfactors != 1:
            raise ValueError(f"an encoding has one factor, got {space.describe()}")
        if space.kind(0) is FactorKind.QUBIT:
            if z != 0.0:
                raise ValueError("a qubit encoding is spin up and down: z = 0")
            residuals, k = (0.0, 0.0), 1.0
        else:
            _, even, mass_even, r_even = _branch(z, space.dim, 0)
            _, odd, mass_odd, r_odd = _branch(z, space.dim, 1)
            residuals, k = (r_even, r_odd), _pair_overlap(even, odd, mass_even, mass_odd)
        _set(self, "space", space)
        _set(self, "z", z)
        _set(self, "residuals", residuals)
        _set(self, "k", k)
        _set(self, "flipped", False)
        _set(self, "residual", 0.5 * (residuals[0] + residuals[1]))

    @classmethod
    def qubit(cls) -> "Encoding":
        """Spin up and spin down."""
        return cls(SpaceDescriptor.qubit())

    @classmethod
    def cat(cls, z: float, dim: int) -> "Encoding":
        """Even and odd cat states at amplitude z on a mode of dimension dim; each
        may lose at most 1e-12 of its mass, as ``even_coherent`` checks.

        Refuses the dim first, then z; builds no codeword."""
        return cls(SpaceDescriptor.mode(dim), z)

    def flip(self) -> "Encoding":
        """The encoding on s_plus|1_L>, s_minus|0_L>: a qubit's are its own codewords.

        A cat's flip shares its residuals and k, so it walks nothing."""
        if self.space.kind(0) is FactorKind.QUBIT:
            return self
        flipped = object.__new__(Encoding)
        vars(flipped).update(vars(self), flipped=not self.flipped)
        return flipped

    def state(self, alpha: complex, beta: complex) -> "LogicalState":
        """Logical state alpha|0_L> + beta|1_L>; the amplitudes must be normalized."""
        return LogicalState((self,), (alpha, beta))


class LogicalState(_Value):
    """Normalized coefficients over the logical bases of its parties.

    Party k is factor k of ``space`` and carries ``encodings[k]``. ``coeffs``
    is a tuple of 2**n complex numbers for n parties, in row-major order with
    party 0 as the most significant index bit: ``coeffs[i]`` is the amplitude
    of |i0_L>|i1_L>... for i = i0 i1 ... in binary. ``truncation_residual``
    is worked out from the encodings, so a state on fewer parties carries
    only theirs. A state is equal only to itself.
    """

    # space and truncation_residual are worked out from the encodings
    _fields = ("encodings", "coeffs")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, encodings: tuple[Encoding, ...], coeffs: tuple[complex, ...]) -> None:
        encodings = tuple(encodings)
        try:
            coeffs = tuple(map(complex, coeffs))
        except (TypeError, ValueError):
            raise _refused("coeffs", "complex numbers", coeffs) from None
        if not encodings or len(coeffs) != 2 ** len(encodings):
            raise ValueError(
                f"{len(coeffs)} coefficients do not fit {len(encodings)} encoded parties"
            )
        norm = math.hypot(*map(abs, coeffs))
        if not abs(norm - 1.0) <= _NORM_TOL:  # written so that NaN fails it
            raise ValueError(f"logical state is not normalized: |coeffs| = {norm!r}")
        _set(self, "encodings", encodings)
        _set(self, "coeffs", coeffs)

    @functools.cached_property
    def space(self) -> SpaceDescriptor:
        """The parties' factors, each already checked by its encoding."""
        return SpaceDescriptor(tuple(enc.space.factors[0] for enc in self.encodings))

    @functools.cached_property
    def truncation_residual(self) -> float:
        """The mass the product of the parties' truncations loses: their
        encodings' ``residual``s combined by the product rule, in party order."""
        return functools.reduce(_combined_residual, (enc.residual for enc in self.encodings))


def tensor(a: LogicalState, b: LogicalState) -> LogicalState:
    """Tensor product, a's parties first. A factor that is not a LogicalState
    is a TypeError."""
    _require(LogicalState, a=a, b=b)
    return LogicalState(a.encodings + b.encodings, [x * y for x in a.coeffs for y in b.coeffs])


def inner(a: LogicalState, b: LogicalState) -> complex:
    """Inner product <a|b> (conjugate-linear in a) of two LogicalStates over
    equal encodings. A state that is not a LogicalState is a TypeError."""
    _require(LogicalState, a=a, b=b)
    if a.encodings != b.encodings:
        raise ValueError(
            f"inner product between states on {a.space.describe()} and "
            f"{b.space.describe()} over different encodings is undefined"
        )
    return sum(map(operator.mul, map(complex.conjugate, a.coeffs), b.coeffs), 0j)


@functools.cache
def _party_order(n: int, order: tuple[int, ...]) -> tuple[int, ...]:
    """Where entry j of an n-party coefficient tuple re-laid with its parties
    in ``order`` sits in the original: j's index bits, most significant first,
    are those of parties order[0], order[1], ...."""
    return tuple(
        sum((j >> (n - 1 - pos) & 1) << (n - 1 - party) for pos, party in enumerate(order))
        for j in range(2**n)
    )


def _rest(space: SpaceDescriptor, named) -> tuple[int, ...]:
    """The factors of space that named leaves, in order: the one check of the
    factor indices a call names.

    Each index must be an integer, as ``_integer`` takes it, so a float
    is a TypeError rather than rounded to a factor; then each must
    lie in 0 .. nfactors - 1, no negative index counting from the end, and
    be named once, else a ValueError. A named that is not iterable is a
    TypeError too."""
    try:
        indices = iter(named)
    except TypeError:
        raise _refused("factor indices", "a sequence of integers", named) from None
    named = tuple(_integer("factor index", index) for index in indices)
    for index in named:
        if not 0 <= index < space.nfactors:
            raise ValueError(f"factor index {index} out of range for {space.nfactors} factors")
    if len(set(named)) != len(named):
        raise ValueError(f"factor indices {named} name a factor more than once")
    return tuple(k for k in range(space.nfactors) if k not in named)


def _cut(state: LogicalState, named) -> list[list[complex]]:
    """state's coefficients as a matrix over the cut between the parties in
    named, a sequence of factor indices, and the rest: the row index's bits
    are the named parties' index bits, most significant first in named's
    order, and the column index's those of the other parties in order.
    Checks named with ``_rest``."""
    order = (*named, *_rest(state.space, named))
    c = list(map(state.coeffs.__getitem__, _party_order(len(order), order)))
    width = 2 ** (len(order) - len(named))
    return [c[i : i + width] for i in range(0, len(c), width)]


@functools.cache
def _identity(n: int) -> tuple[tuple[float, ...], ...]:
    """The n x n identity as rows of floats, where ``_svd`` starts w."""
    return tuple(tuple(float(i == j) for j in range(n)) for i in range(n))


def _svd(a) -> tuple[list[float], list[list], list[list]]:
    """(s, u, v) of a small dense matrix a, given as rows of floats or complex
    numbers: a = sum_j s[j] u[j] v[j]^H over min(rows, columns) terms, with s
    descending and equal values ordered from the later row down.

    One-sided Jacobi (Hestenes): rotate pairs of rows of a, or of a^H if a
    has more rows than columns, until every pair is orthogonal to _SVD_TOL
    of the product of their norms, each rotation applied as well to w, which
    starts as the identity. Then the rows of w a are s[j] v[j]^H, and u[j]
    is row j of w, conjugated. A row already orthogonal to the others is
    left as it is, so on a diagonal matrix w stays the identity and each
    v[j] carries the sign of its entry. A zero singular value's v (its u,
    for a^H) is the zero vector.
    """
    if len(a) > len(a[0]):  # work on a^H = sum s v u^H, whose rows are fewer
        s, v, u = _svd([[x.conjugate() for x in col] for col in zip(*a)])
        return s, u, v
    n = len(a)
    rows, w = list(a), list(_identity(n))
    norms = [math.hypot(*map(abs, row)) for row in rows]
    for _ in range(60):  # loop bound: a sweep past the first few rotates by rounding only
        rotated = False
        for p, q in itertools.combinations(range(n), 2):
            gamma = sum([x * y.conjugate() for x, y in zip(rows[p], rows[q])])
            g = abs(gamma)
            if g <= _SVD_TOL * norms[p] * norms[q]:
                continue
            rotated = True
            # phase row q so that the overlap is g, then rotate the real 2 x 2 Gram
            # matrix [[|p|**2, g], [g, |q|**2]] to diagonal by the smaller angle
            phase = gamma / g
            zeta = (norms[q] - norms[p]) * (norms[q] + norms[p]) / (2.0 * g)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            c = 1.0 / math.hypot(1.0, t)
            sc = c * t
            for m in (rows, w):
                xp, yq = m[p], [phase * y for y in m[q]]
                m[p] = [c * x - sc * y for x, y in zip(xp, yq)]
                m[q] = [sc * x + c * y for x, y in zip(xp, yq)]
            norms[p], norms[q] = math.hypot(*map(abs, rows[p])), math.hypot(*map(abs, rows[q]))
        if not rotated:
            break
    s = norms
    order = sorted(reversed(range(n)), key=s.__getitem__, reverse=True)  # stable: later rows first
    return ([s[j] for j in order], [[x.conjugate() for x in w[j]] for j in order],
            [[x.conjugate() / s[j] if s[j] else 0.0 * x for x in rows[j]] for j in order])
