import numpy as np
import pytest

from hesim import Encoding, LogicalState, SpaceDescriptor, TruncationError

from oracles import DenseState

# the largest z whose adaptive cutoff, at tol 1e-14, stays within the
# 1 000 000 Fock levels of the cap
Z_CAP = 996.1769613439574


def random_amps(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_state(space: SpaceDescriptor, rng) -> DenseState:
    return DenseState(space, random_amps(rng, space.dim))


def number_state(n: int, dim: int) -> DenseState:
    """Fock state |n> on a mode of dimension dim."""
    return DenseState(SpaceDescriptor.mode(dim), np.eye(dim)[n])


def random_cat(dim: int, rng) -> Encoding:
    """A cat encoding on a mode of dimension dim, plain or flipped, at a random
    amplitude below 3, halved until the mode holds both cats."""
    z = rng.uniform(0.0, 3.0)
    while True:
        try:
            enc = Encoding.cat(z, dim)
        except TruncationError:
            z /= 2
            continue
        return enc.flip() if rng.random() < 0.5 else enc


def random_logical(encodings, rng) -> LogicalState:
    """A LogicalState with random normalized coefficients over encodings."""
    return LogicalState(tuple(encodings), random_amps(rng, 2 ** len(encodings)))


# norms of a state just inside the bound LogicalState enforces, fock._NORM_TOL = 1e-12
NORMS_AT_THE_BOUND = (1.0 - 0.99e-12, 1.0 + 0.99e-12)


def at_norm(state: LogicalState, norm: float) -> LogicalState:
    """state with every coefficient scaled by norm, so its norm is about norm."""
    return LogicalState(state.encodings, [c * norm for c in state.coeffs])


def assert_leads_the_dense_spectrum(got, dense, parties, side_a, atol):
    """got, the Schmidt list of a cut of `parties` parties with side_a on one
    side, has min(2**|a|, 2**(n-|a|)) entries, equal within atol to the
    leading values of the dense spectrum; every dense value past them is at
    most 1e-10."""
    rank = min(2 ** len(side_a), 2 ** (parties - len(side_a)))
    assert len(got) == rank
    assert np.allclose(got, dense[:rank], rtol=0.0, atol=atol)
    assert all(s <= 1e-10 for s in dense[rank:])


def random_qubit_pair(rng):
    """Normalized (alpha, beta) for an unknown input qubit."""
    v = random_amps(rng, 2)
    return complex(v[0]), complex(v[1])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
