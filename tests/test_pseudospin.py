"""Parity algebra and the even/odd overlap k(z)."""

import math

import numpy as np
import pytest

from hesim import (
    Direction,
    apply,
    build_pseudospin,
    even_coherent,
    k_matrix,
    k_series,
    mode_dim_for,
    odd_coherent,
)

from conftest import number_state
from oracles import direction, spin_dot

# frozen from a 40-digit evaluation of the overlap series
K_ORACLE = {
    0.1: 0.99999553440420560381,
    0.5: 0.99729422912045614238,
    1.0: 0.97119171583531802583,
    2.0: 0.96550995224056439194,
    3.0: 0.98529477677516897314,
    5.0: 0.99490731343962401862,
}


def k_brute_force(z: float, terms: int = 200) -> float:
    """Overlap series with explicit factorials; no log-domain tricks."""
    pref = 1.0 / math.sqrt(0.5 * math.sinh(2.0 * z * z))
    total = 0.0
    for n in range(terms):
        num = z ** (4 * n + 1)
        den = math.sqrt(math.factorial(2 * n) * math.factorial(2 * n + 1))
        total += num / den
        if num / den < 1e-18 and n > z * z:
            break
    return pref * total


class TestAlgebra:
    def test_s_z_is_parity(self):
        ops = build_pseudospin(8)
        assert np.allclose(np.diag(ops.s_z.matrix), [1, -1] * 4)

    def test_s_plus_ladder_action(self):
        ops = build_pseudospin(6)
        e0, e1 = number_state(0, 6).amps, number_state(1, 6).amps
        assert np.allclose(ops.s_plus.matrix @ e1, e0)
        assert np.allclose(ops.s_plus.matrix @ e0, 0)

    def test_s_minus_is_exact_adjoint(self):
        ops = build_pseudospin(10)
        assert np.array_equal(ops.s_minus.matrix, ops.s_plus.matrix.conj().T)

    @pytest.mark.parametrize("dim", [2, 4, 10, 16])
    def test_commutators_exact(self, dim):
        ops = build_pseudospin(dim)
        sz, sp, sm = ops.s_z.matrix, ops.s_plus.matrix, ops.s_minus.matrix
        assert np.max(np.abs(sz @ sp - sp @ sz - 2 * sp)) <= 1e-13
        assert np.max(np.abs(sz @ sm - sm @ sz + 2 * sm)) <= 1e-13
        assert np.max(np.abs(sp @ sm - sm @ sp - sz)) <= 1e-13

    def test_xy_from_ladder(self):
        ops = build_pseudospin(6)
        sp, sm = ops.s_plus.matrix, ops.s_minus.matrix
        assert np.array_equal(ops.s_x.matrix, sp + sm)
        assert np.array_equal(ops.s_y.matrix, -1j * (sp - sm))

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            build_pseudospin(5)

    def test_dot_s_squares_to_identity(self, rng):
        ops = build_pseudospin(12)
        eye = np.eye(12)
        for _ in range(100):
            theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            m = spin_dot(direction(theta, phi), ops)
            assert np.max(np.abs(m @ m - eye)) <= 1e-13


class TestDirection:
    def test_from_polar_is_in_plane(self):
        d = Direction.from_polar(0.3)
        assert d.ny == 0.0
        assert (d.nx, d.nz) == (math.sin(0.3), math.cos(0.3))

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            Direction(1.0, 1.0, 0.0)

    def test_angle_roundtrip(self):
        d = direction(1.1, -2.2)
        d2 = direction(d.theta, d.phi)
        assert np.allclose((d.nx, d.ny, d.nz), (d2.nx, d2.ny, d2.nz), atol=1e-14)


class TestKSeries:
    def test_at_zero_is_one(self):
        assert k_series(0.0) == 1.0

    def test_tiny_z_uses_limit(self):
        assert k_series(1e-10) == 1.0

    @pytest.mark.parametrize("z", sorted(K_ORACLE))
    def test_frozen_values(self, z):
        assert k_series(z) == pytest.approx(K_ORACLE[z], abs=1e-13)

    @pytest.mark.parametrize("z", [0.3, 0.8, 1.7, 2.6])
    def test_matches_brute_force_series(self, z):
        assert k_series(z) == pytest.approx(k_brute_force(z), abs=1e-12)

    @pytest.mark.parametrize("z", [0.01, 0.2, 0.9, 1.5, 2.4, 3.7, 5.0])
    def test_below_one_for_positive_z(self, z):
        assert 0.0 < k_series(z) < 1.0

    def test_decreases_from_zero_up_to_its_minimum(self):
        # the overlap dips to ~0.9526 near z = 1.46 and climbs back
        # toward 1 afterwards, so monotonicity only holds on the way down
        grid = np.linspace(0.05, 1.4, 28)
        vals = [k_series(float(z)) for z in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rises_again_past_the_minimum(self):
        assert k_series(3.0) > k_series(2.0) > k_series(1.5)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            k_series(-1.0)
        with pytest.raises(ValueError):
            k_series(1.0, tol=0.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_rejects_non_finite_z(self, z):
        # k_series(nan) used to return 0.0
        with pytest.raises(ValueError, match="finite and nonnegative"):
            k_series(z)


class TestKMatrix:
    def test_at_zero(self):
        # even |0>, odd |1>: the flip maps one onto the other exactly
        assert k_matrix(0.0, 4) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 2.0, 3.0])
    def test_agrees_with_series(self, z):
        dim = mode_dim_for(z, 1e-14)
        assert abs(k_matrix(z, dim) - k_series(z, 1e-15)) < 1e-10

    def test_is_the_even_flip_odd_overlap(self):
        z, dim = 1.2, mode_dim_for(1.2, 1e-14)
        ops = build_pseudospin(dim)
        e, o = even_coherent(z, dim), odd_coherent(z, dim)
        flipped = apply(ops.s_plus, o, 0)
        direct = complex(np.vdot(e.amps, flipped.amps))
        assert k_matrix(z, dim) == pytest.approx(direct.real, abs=1e-14)
        assert abs(direct.imag) < 1e-14

    def test_large_z(self):
        assert abs(k_matrix(5.0, mode_dim_for(5.0, 1e-14)) - K_ORACLE[5.0]) < 1e-10
