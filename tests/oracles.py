"""Independent second routes to the paper's claims, for the tests only.

Each oracle reaches a quantity by a different computation from the one the
package uses: CHSH values through the kron-built Bell operator instead of
the correlation matrix's SVD, entropy through the reduced density matrix
instead of the Schmidt decomposition, the swap expansion by projecting
the joint state onto every product of Bell states, the CHSH correlation
matrix through dense pseudospin matrices, and a branch draw by a linear
scan over the table instead of a search over its precomputed sums.
"""

import math

import numpy as np

from hesim import (
    HesLabel,
    ParityBellLabel,
    SpinBellLabel,
    hes_state,
    parity_bell_state,
    spin_bell_state,
    tensor,
)
from hesim.pseudospin import PAULI_X, PAULI_Y, PAULI_Z, Direction, build_pseudospin

# reduced-density eigenvalues below this count as exact zeros
EIGENVALUE_FLOOR = 1e-14


def direction(theta: float, phi: float) -> Direction:
    """Unit vector at polar angle theta and azimuth phi."""
    st = math.sin(theta)
    return Direction(st * math.cos(phi), st * math.sin(phi), math.cos(theta))


def pauli_dot(d: Direction) -> np.ndarray:
    """n . sigma on a qubit, in the (up, down) basis."""
    return d.nx * PAULI_X + d.ny * PAULI_Y + d.nz * PAULI_Z


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
    val = complex(np.vdot(state.amps, bell_operator(settings, ops) @ state.amps))
    assert abs(val.imag) <= 1e-10, val
    return val.real


def entropy_from_reduced_density(state, keep) -> float:
    """Von Neumann entropy (bits) from the eigenvalues of the reduced density
    matrix on the factors in keep."""
    keep = sorted(keep)
    rest = [i for i in range(state.space.nfactors) if i not in keep]
    dims = state.space.dims
    m = state.amps.reshape(dims).transpose(keep + rest)
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
    joint = tensor(
        hes_state(HesLabel.PSI_MINUS, z, dim), hes_state(HesLabel.PSI_MINUS, z_prime, dim)
    ).amps.reshape(2, dim, 2, dim)
    out = {}
    for spin in SpinBellLabel:
        sb = spin_bell_state(spin).amps.reshape(2, 2)
        for parity in ParityBellLabel:
            pb = parity_bell_state(parity, z, z_prime, dim).amps.reshape(dim, dim)
            out[spin, parity] = complex(np.einsum("ik,jl,ijkl->", sb.conj(), pb.conj(), joint))
    return out


def dense_correlation_matrix(state) -> np.ndarray:
    """<sigma_k x s_l> with s_l the dense pseudospin matrices of the mode,
    applied as a matrix product on the mode index."""
    dim = state.space.dims[1]
    ops = build_pseudospin(dim)
    psi = state.amps.reshape(2, dim)
    m = np.empty((3, 3))
    for i, sig in enumerate((PAULI_X, PAULI_Y, PAULI_Z)):
        left = sig @ psi
        for j, s in enumerate((ops.s_x, ops.s_y, ops.s_z)):
            m[i, j] = complex(np.vdot(psi, left @ s.T)).real
    return m


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
