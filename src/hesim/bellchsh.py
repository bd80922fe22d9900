"""CHSH correlation analysis for qubit x mode states.

The Bell combination pairs a qubit Pauli projection with a mode pseudospin
projection for four measurement settings. For the hybrid entangled states
the in-plane optimum 2*sqrt(1 + k(z)^2) is available in closed form; a
multi-start simplex search over all eight spherical angles confirms it
numerically and bounds arbitrary states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FactorKind, HesLabel, Operator, SpaceDescriptor, StateVector
from .pseudospin import Direction, PseudospinOps, dot_s, dot_sigma, k_series

CIRELSON_BOUND = 2.0 * math.sqrt(2.0)
CLASSICAL_BOUND = 2.0

_VALUE_SLACK = 1e-9


@dataclass(frozen=True)
class ChshSettings:
    """The four measurement directions entering the Bell combination."""

    a: Direction
    a_prime: Direction
    b: Direction
    b_prime: Direction

    @classmethod
    def in_plane(
        cls,
        theta_a: float,
        theta_a_prime: float,
        theta_b: float,
        theta_b_prime: float,
    ) -> "ChshSettings":
        """Settings confined to the x-z plane, given by polar angles."""
        return cls(
            Direction.from_polar(theta_a),
            Direction.from_polar(theta_a_prime),
            Direction.from_polar(theta_b),
            Direction.from_polar(theta_b_prime),
        )


@dataclass(frozen=True)
class ChshResult:
    value: float
    settings: ChshSettings
    iterations: int
    restarts_used: int

    def __post_init__(self) -> None:
        if abs(self.value) > CIRELSON_BOUND + _VALUE_SLACK:
            raise ValueError(
                f"CHSH value {self.value!r} exceeds the quantum bound "
                f"{CIRELSON_BOUND}"
            )


def _check_state_space(state: StateVector, ops: PseudospinOps) -> None:
    space = state.space
    if (
        space.nfactors != 2
        or space.kind(0) is not FactorKind.QUBIT
        or space.kind(1) is not FactorKind.MODE
        or space.dims[1] != ops.dim
    ):
        raise ValueError(
            f"state on {space.describe()} does not match qubit⊗mode({ops.dim})"
        )


def bell_operator(settings: ChshSettings, ops: PseudospinOps) -> Operator:
    """Four-setting Bell combination on the qubit x mode space."""
    a = dot_sigma(settings.a).matrix
    ap = dot_sigma(settings.a_prime).matrix
    b = dot_s(settings.b, ops).matrix
    bp = dot_s(settings.b_prime, ops).matrix
    m = np.kron(a, b) + np.kron(a, bp) + np.kron(ap, b) - np.kron(ap, bp)
    return Operator(SpaceDescriptor.qubit() * ops.s_z.space, m)


def chsh_value(
    state: StateVector, settings: ChshSettings, ops: PseudospinOps
) -> float:
    """Expectation of the Bell combination in the given state."""
    _check_state_space(state, ops)
    op = bell_operator(settings, ops)
    val = complex(np.vdot(state.amps, op.matrix @ state.amps))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"Bell expectation has nonreal residue {val.imag!r}")
    return val.real


def analytic_settings(z: float, label: HesLabel = HesLabel.PHI_PLUS) -> ChshSettings:
    """In-plane settings that reach 2*sqrt(1 + k^2) for the given state.

    The canonical choice (0, pi/2, atan k, -atan k) is exact for the phi+
    pairing; the other three labels flip the correlator signs, which a
    reflected qubit axis or swapped mode angles undo.
    """
    t = math.atan(k_series(z))
    if label is HesLabel.PHI_PLUS:
        return ChshSettings.in_plane(0.0, math.pi / 2.0, t, -t)
    if label is HesLabel.PHI_MINUS:
        return ChshSettings.in_plane(0.0, math.pi / 2.0, -t, t)
    if label is HesLabel.PSI_PLUS:
        return ChshSettings.in_plane(math.pi, math.pi / 2.0, t, -t)
    return ChshSettings.in_plane(math.pi, -math.pi / 2.0, t, -t)


def analytic_optimum(z: float, label: HesLabel = HesLabel.PHI_PLUS) -> ChshResult:
    """Closed-form maximal Bell expectation 2*sqrt(1 + k(z)^2) for a hybrid pair."""
    k = k_series(z)
    return ChshResult(
        value=2.0 * math.sqrt(1.0 + k * k),
        settings=analytic_settings(z, label),
        iterations=0,
        restarts_used=0,
    )


def correlation_matrix(state: StateVector, ops: PseudospinOps) -> np.ndarray:
    """3x3 matrix of <sigma_k x s_l> expectations; every Bell expectation
    is bilinear in the settings through it."""
    _check_state_space(state, ops)
    dim = ops.dim
    paulis = [
        dot_sigma(Direction(1.0, 0.0, 0.0)).matrix,
        dot_sigma(Direction(0.0, 1.0, 0.0)).matrix,
        dot_sigma(Direction(0.0, 0.0, 1.0)).matrix,
    ]
    spins = [ops.s_x.matrix, ops.s_y.matrix, ops.s_z.matrix]
    psi = state.amps.reshape(2, dim)
    m = np.empty((3, 3))
    for i, sig in enumerate(paulis):
        left = sig @ psi  # acts on the qubit index
        for j, s in enumerate(spins):
            val = complex(np.vdot(psi, left @ s.T))
            if abs(val.imag) > 1e-10:
                raise ValueError(f"correlation has nonreal residue {val.imag!r}")
            m[i, j] = val.real
    return m


def _angles_to_vec(theta: float, phi: float) -> np.ndarray:
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def _chsh_from_angles(x: np.ndarray, m: np.ndarray) -> float:
    a = _angles_to_vec(x[0], x[1])
    ap = _angles_to_vec(x[2], x[3])
    b = _angles_to_vec(x[4], x[5])
    bp = _angles_to_vec(x[6], x[7])
    ma, map_ = m @ b, m @ bp
    return float(a @ ma + a @ map_ + ap @ ma - ap @ map_)


def _nelder_mead(f, x0: np.ndarray, step: float, xatol: float, fatol: float,
                 max_iter: int) -> tuple[np.ndarray, float, int]:
    """Minimize f by the standard simplex moves; deterministic in x0."""
    n = len(x0)
    simplex = [np.array(x0, dtype=float)]
    for i in range(n):
        v = np.array(x0, dtype=float)
        v[i] += step
        simplex.append(v)
    values = [f(v) for v in simplex]
    it = 0
    while it < max_iter:
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if (
            max(np.max(np.abs(v - simplex[0])) for v in simplex[1:]) < xatol
            and values[-1] - values[0] < fatol
        ):
            break
        it += 1
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        fr = f(reflected)
        if fr < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            fe = f(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            fc = f(contracted)
            if fc < values[-1]:
                simplex[-1], values[-1] = contracted, fc
            else:  # shrink toward the best vertex
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = f(simplex[i])
    order = np.argsort(values)
    return simplex[order[0]], values[order[0]], it


def optimize_chsh(
    state: StateVector,
    ops: PseudospinOps,
    restarts: int = 16,
    seed: int = 0,
    max_iter: int = 2000,
) -> ChshResult:
    """Maximize the Bell expectation over all eight measurement angles.

    Runs a multi-start simplex descent on the negated expectation (the
    angles are periodic, so unconstrained steps are safe), then polishes
    the best start with progressively smaller simplices. Deterministic for
    a fixed seed; ties between restarts resolve to the earliest one.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    m = correlation_matrix(state, ops)

    def neg(x: np.ndarray) -> float:
        return -_chsh_from_angles(x, m)

    rng = np.random.default_rng(seed)
    best_x = None
    best_val = math.inf
    max_nit = 0
    for _ in range(restarts):
        x0 = rng.uniform(0.0, 2.0 * math.pi, size=8)
        x, val, nit = _nelder_mead(
            neg, x0, step=0.7, xatol=1e-9, fatol=1e-12, max_iter=max_iter
        )
        max_nit = max(max_nit, nit)
        if val < best_val:
            best_val, best_x = val, x
    for step in (1e-2, 1e-5):
        best_x, best_val, nit = _nelder_mead(
            neg, best_x, step=step, xatol=1e-11, fatol=1e-14, max_iter=max_iter
        )
        max_nit = max(max_nit, nit)
    settings = ChshSettings(
        Direction.from_angles(best_x[0], best_x[1]),
        Direction.from_angles(best_x[2], best_x[3]),
        Direction.from_angles(best_x[4], best_x[5]),
        Direction.from_angles(best_x[6], best_x[7]),
    )
    return ChshResult(
        value=-best_val,
        settings=settings,
        iterations=max_nit,
        restarts_used=restarts,
    )
