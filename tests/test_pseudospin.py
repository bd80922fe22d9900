"""Parity algebra and the even/odd overlap k(z)."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hesim import (
    Direction,
    Encoding,
    SpaceDescriptor,
    StateVector,
    TruncationError,
    even_coherent,
    k_matrix,
    k_series,
    mode_dim_for,
    odd_coherent,
)
from hesim import pseudospin
from hesim.pseudospin import PAULI_X, PAULI_Y, PAULI_Z, encoded_pseudospin

from conftest import Z_CAP, number_state, random_amps, random_cat
from oracles import (
    CAT_PSEUDOSPIN_TOL,
    DENSE_AGREEMENT_TOL,
    K_ASYMPTOTE_TOL,
    K_DECIMAL_TOL,
    apply,
    build_pseudospin,
    codewords,
    decimal_k,
    direction,
    k_asymptote,
    lgamma_k_series,
    overlap_k_matrix,
    overlap_pseudospin,
    qubit_state,
    s_minus,
    s_plus,
    spin_dot,
)

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
        assert np.allclose(np.diag(ops.s_z), [1, -1] * 4)

    def test_s_plus_ladder_action(self):
        ops = build_pseudospin(6)
        e0, e1 = number_state(0, 6).amps, number_state(1, 6).amps
        assert np.allclose(ops.s_plus @ e1, e0)
        assert np.allclose(ops.s_plus @ e0, 0)

    def test_s_minus_is_exact_adjoint(self):
        ops = build_pseudospin(10)
        assert np.array_equal(ops.s_minus, ops.s_plus.conj().T)

    @pytest.mark.parametrize("dim", [2, 4, 10, 16])
    def test_commutators_exact(self, dim):
        ops = build_pseudospin(dim)
        sz, sp, sm = ops.s_z, ops.s_plus, ops.s_minus
        assert np.max(np.abs(sz @ sp - sp @ sz - 2 * sp)) <= 1e-13
        assert np.max(np.abs(sz @ sm - sm @ sz + 2 * sm)) <= 1e-13
        assert np.max(np.abs(sp @ sm - sm @ sp - sz)) <= 1e-13

    def test_xy_from_ladder(self):
        ops = build_pseudospin(6)
        sp, sm = ops.s_plus, ops.s_minus
        assert np.array_equal(ops.s_x, sp + sm)
        assert np.array_equal(ops.s_y, -1j * (sp - sm))

    def test_matrices_are_read_only(self):
        ops = build_pseudospin(4)
        for name in ("s_z", "s_plus", "s_minus", "s_x", "s_y"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(ops, name)[0, 0] = 2.0

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


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape and bit-for-bit equal complex entries, signed zeros included."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def with_parity(amps: np.ndarray, parity: int) -> np.ndarray:
    """amps with the other parity's entries zeroed, renormalized."""
    out = np.where(np.arange(amps.size) % 2 == parity, amps, 0.0)
    return out / np.linalg.norm(out)


class TestIndexShift:
    """s_plus and s_minus move amplitudes by index, bit for bit what the dense
    matrices of the oracle give."""

    @pytest.mark.parametrize("dim", [2, 4, 16, 160])
    def test_matches_the_dense_matrices_on_random_states(self, dim, rng):
        ops = build_pseudospin(dim)
        space = SpaceDescriptor.qubit() if dim == 2 else SpaceDescriptor.mode(dim)
        for _ in range(20):
            amps = random_amps(rng, dim)
            odd = StateVector(space, with_parity(amps, 1))
            even = StateVector(space, with_parity(amps, 0))
            assert same_bits(s_plus(odd).amps, apply(ops.s_plus, odd, 0).amps)
            assert same_bits(s_minus(even).amps, apply(ops.s_minus, even, 0).amps)

    @pytest.mark.parametrize("z", [0.0, 0.3, 1.0, 4.0, 9.0])
    def test_matches_the_dense_matrices_on_the_cat_codewords(self, z):
        dim = mode_dim_for(z, 1e-14)
        ops = build_pseudospin(dim)
        e, o = even_coherent(z, dim), odd_coherent(z, dim)
        assert same_bits(s_plus(o).amps, apply(ops.s_plus, o, 0).amps)
        assert same_bits(s_minus(e).amps, apply(ops.s_minus, e, 0).amps)
        assert s_plus(o).truncation_residual == o.truncation_residual

    def test_on_a_qubit_they_are_the_pauli_ladder(self):
        assert np.array_equal(s_plus(qubit_state(0.0, 1.0)).amps, [1.0, 0.0])
        assert np.array_equal(s_minus(qubit_state(1.0, 0.0)).amps, [0.0, 1.0])

    def test_a_state_of_the_wrong_parity_is_refused(self):
        # s_plus annihilates even states, so it cannot preserve this norm
        with pytest.raises(ValueError, match="norm"):
            s_plus(number_state(0, 4))
        with pytest.raises(ValueError, match="norm"):
            s_minus(number_state(1, 4))

    def test_a_composite_state_is_refused(self):
        two = SpaceDescriptor.qubit() * SpaceDescriptor.qubit()
        with pytest.raises(ValueError, match="one qubit or mode"):
            s_plus(StateVector(two, [0.0, 1.0, 0.0, 0.0]))


class TestEncodedPseudospin:
    """The pseudospin's matrix elements on an encoding's two codewords."""

    def test_on_the_qubit_it_is_the_pauli_matrices(self):
        # + 0.0 clears the sign of PAULI_Y's zero real part (-1.0j is
        # complex(-0.0, -1.0)); every other bit must agree
        got = encoded_pseudospin(Encoding.qubit())
        assert got.shape == (3, 2, 2)
        for spin, pauli in zip(got, (PAULI_X, PAULI_Y, PAULI_Z)):
            assert same_bits(spin, pauli + 0.0)

    @staticmethod
    def dense_elements(enc: Encoding) -> np.ndarray:
        ops = build_pseudospin(enc.space.dim)
        words = np.stack([word.amps for word in codewords(enc)])
        return np.stack([words.conj() @ s @ words.T for s in (ops.s_x, ops.s_y, ops.s_z)])

    @pytest.mark.parametrize("dim", [2, 4, 16, 160])
    def test_matches_the_dense_matrices_on_random_cat_encodings(self, dim, rng):
        for _ in range(10):
            enc = random_cat(dim, rng)
            got, expected = encoded_pseudospin(enc), self.dense_elements(enc)
            assert np.max(np.abs(got - expected)) <= DENSE_AGREEMENT_TOL

    @pytest.mark.parametrize("z", [0.0, 0.3, 1.0, 4.0, 9.0])
    def test_on_the_cat_codewords_it_is_k_times_the_pauli_pair(self, z):
        # s_x and s_y flip parity, so only their off-diagonal elements survive,
        # k(z) and -i k(z); s_z is the parity, diag(1, -1)
        dim = mode_dim_for(z, 1e-14)
        enc = Encoding.cat(z, dim)
        got = encoded_pseudospin(enc)
        assert np.max(np.abs(got - self.dense_elements(enc))) <= DENSE_AGREEMENT_TOL
        k = k_series(z)
        expected = np.stack([k * PAULI_X, k * PAULI_Y, PAULI_Z])
        assert np.max(np.abs(got - expected)) <= 1e-12

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(z=st.floats(min_value=0.0, max_value=30.0), offset=st.sampled_from(range(-4, 8, 2)))
    @example(z=0.0, offset=-2)
    @example(z=1e-200, offset=0)
    def test_on_a_cat_encoding_it_is_the_codewords_overlap(self, z, offset):
        # exactly (k sigma_x, k sigma_y, sigma_z), on the cats and on their flips
        dim = max(2, mode_dim_for(z, 1e-14) + offset)
        try:
            cat = Encoding.cat(z, dim)
        except TruncationError:
            assume(False)
        even, odd = even_coherent(z, dim), odd_coherent(z, dim)
        exact = np.stack((cat.k * PAULI_X, cat.k * PAULI_Y, PAULI_Z))
        for enc, words in ((cat, (even, odd)), (cat.flip(), (s_plus(odd), s_minus(even)))):
            got = encoded_pseudospin(enc)
            assert np.array_equal(got, exact)
            assert np.max(np.abs(got - overlap_pseudospin(*words))) <= CAT_PSEUDOSPIN_TOL

    def test_builds_no_dense_matrix(self):
        # dim 10776: a dense s_x alone would take 1.9 GB
        z = 100.0
        enc = Encoding.cat(z, mode_dim_for(z, 1e-14))
        tracemalloc.start()
        try:
            got = encoded_pseudospin(enc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(got[0, 0, 1] - k_series(z)) < 1e-10
        assert peak < 20 * 16 * enc.space.dim


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

    @pytest.mark.parametrize("z", [1e-9, 1e-10, 1e-25, 1e-170])
    def test_tiny_z_reaches_the_limit(self, z):
        assert k_series(z) == 1.0

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

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_rejects_non_finite_z(self, z):
        # k_series(nan) used to return 0.0
        with pytest.raises(ValueError, match="finite and nonnegative"):
            k_series(z)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(z=st.floats(min_value=0.0, max_value=30.0))
    @example(z=9.0)
    @example(z=15.0)
    def test_matches_the_decimal_sum_for_every_z(self, z):
        # the log-domain series was off by 3.4e-14 at z = 9 and 7.8e-14 at z = 15
        assert abs(k_series(z) - decimal_k(z)) <= K_DECIMAL_TOL

    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(z=st.floats(min_value=300.0, max_value=1000.0))
    @example(z=446.0)
    @example(z=500.0)
    def test_matches_the_large_z_asymptote(self, z):
        # the log-domain series stopped at 100 000 terms, short of the terms'
        # peak from z of about 443.5 on, and had drifted by 1.5e-11 at z = 300
        assert abs(k_series(z) - k_asymptote(z)) <= K_ASYMPTOTE_TOL

    @pytest.mark.parametrize("z", [0.3, 1.0, 2.6, 9.0, 30.0])
    def test_agrees_with_the_log_domain_series_it_replaced(self, z):
        # whose lgamma terms drift further at larger z: 7.4e-12 at z = 100
        assert abs(k_series(z) - lgamma_k_series(z)) <= 1e-12

    def test_past_the_fock_cap_it_refuses_z(self):
        # z**2 above 1 000 000 puts the Poisson peak past the largest cutoff
        assert 0.0 < k_series(1000.0) < 1.0
        with pytest.raises(ValueError,
                           match=r"too large: its Poisson peak z\*\*2 passes 1000000 levels"):
            k_series(math.nextafter(1000.0, math.inf))


class TestKMatrix:
    def test_at_zero(self):
        # even |0>, odd |1>: the flip maps one onto the other exactly
        assert k_matrix(0.0, 4) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 2.0, 3.0])
    def test_agrees_with_series(self, z):
        dim = mode_dim_for(z, 1e-14)
        assert abs(k_matrix(z, dim) - k_series(z)) < 1e-10

    def test_is_the_even_flip_odd_overlap(self):
        z, dim = 1.2, mode_dim_for(1.2, 1e-14)
        ops = build_pseudospin(dim)
        e, o = even_coherent(z, dim), odd_coherent(z, dim)
        flipped = apply(ops.s_plus, o, 0)
        direct = complex(np.vdot(e.amps, flipped.amps))
        assert abs(k_matrix(z, dim) - direct.real) <= DENSE_AGREEMENT_TOL
        assert abs(direct.imag) < 1e-14

    @pytest.mark.parametrize("z", [0.0, 0.3, 1.0, 4.0, 9.0])
    def test_is_the_element_the_overlap_route_gives(self, z):
        # of the codewords themselves, over their four even and odd parts
        dim = mode_dim_for(z, 1e-14)
        assert k_matrix(z, dim) == overlap_k_matrix(z, dim)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(z=st.floats(min_value=0.0, max_value=30.0) | st.floats(min_value=30.0, max_value=Z_CAP),
           offset=st.sampled_from(range(0, 8, 2)))
    @example(z=446.0, offset=0)
    @example(z=Z_CAP, offset=0)
    def test_is_the_overlap_route_bit_for_bit_for_every_z(self, z, offset):
        # kz's K_matrix column kept its bytes when the route moved to the oracles
        dim = mode_dim_for(z, 1e-14) + offset
        assume(dim <= 1_000_000)
        assert k_matrix(z, dim).hex() == overlap_k_matrix(z, dim).hex()

    def test_a_nonreal_element_is_refused(self, monkeypatch):
        even = even_coherent(1.0, 18)
        turned = StateVector(even.space, even.amps * np.exp(1e-9j), even.truncation_residual)
        monkeypatch.setattr(pseudospin, "even_coherent", lambda z, dim: turned)
        with pytest.raises(ValueError, match="nonreal"):
            k_matrix(1.0, 18)

    def test_large_z(self):
        assert abs(k_matrix(5.0, mode_dim_for(5.0, 1e-14)) - K_ORACLE[5.0]) < 1e-10

    def test_builds_no_dense_matrix(self):
        # dim 10776: a dense s_plus alone would take 1.9 GB
        dim = mode_dim_for(100.0, 1e-14)
        tracemalloc.start()
        try:
            k = k_matrix(100.0, dim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(k - k_series(100.0)) < 1e-10
        assert peak < 50 * 2**20
