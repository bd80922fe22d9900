import numpy as np
import pytest

from hesim import SpaceDescriptor, StateVector


def random_amps(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_state(space: SpaceDescriptor, rng) -> StateVector:
    return StateVector(space, random_amps(rng, space.dim))


def number_state(n: int, dim: int) -> StateVector:
    """Fock state |n> on a mode of dimension dim."""
    return StateVector(SpaceDescriptor.mode(dim), np.eye(dim)[n])


def random_qubit_pair(rng):
    """Normalized (alpha, beta) for an unknown input qubit."""
    v = random_amps(rng, 2)
    return complex(v[0]), complex(v[1])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
