"""Composite-space algebra and cat-state construction."""

import math
import re

import numpy as np
import pytest

from hesim import (
    FactorKind,
    SchmidtSpectrum,
    SpaceDescriptor,
    StateVector,
    TruncationError,
    apply,
    even_coherent,
    inner,
    mode_dim_for,
    odd_coherent,
    partial_inner,
    qubit_state,
    tensor,
)
from hesim.pseudospin import Direction, build_pseudospin

from conftest import number_state, random_state

# (cosh 1)^(-1/2) and (sinh 1)^(-1/2), the z=1 cat-state leading amplitudes
COSH1_INV_SQRT = 0.80501818219459204931
SINH1_INV_SQRT = 0.92245223629157165437


def poisson_tail(lam: float, start: int) -> float:
    """Forward-summed Poisson tail P(N >= start), by term recurrence."""
    t = math.exp(-lam + start * math.log(lam) - math.lgamma(start + 1))
    total = 0.0
    n = start
    while True:
        total += t
        n += 1
        t *= lam / n
        if n > lam and t < total * 1e-17 + 1e-320:
            return total


def brute_force_mode_dim(z: float, tol: float) -> int:
    d = 4
    while poisson_tail(z * z, d) >= tol:
        d += 2
    return d


class TestModeDimFor:
    def test_zero_z_returns_minimum(self):
        assert mode_dim_for(0.0, 1e-12) == 4

    def test_z1_frozen_value(self):
        # brute-force partial sums of the Poisson tail give 16
        assert mode_dim_for(1.0, 1e-12) == 16

    @pytest.mark.parametrize("z", [0.3, 0.7, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("tol", [1e-12, 1e-14])
    def test_matches_brute_force(self, z, tol):
        assert mode_dim_for(z, tol) == brute_force_mode_dim(z, tol)

    def test_monotone_in_z(self):
        assert mode_dim_for(3.0, 1e-12) > mode_dim_for(1.0, 1e-12)

    def test_returned_dim_is_even_and_at_least_4(self):
        for z in (0.0, 0.2, 1.7, 4.0):
            d = mode_dim_for(z, 1e-12)
            assert d >= 4 and d % 2 == 0

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            mode_dim_for(1.0, 0.0)
        with pytest.raises(ValueError):
            mode_dim_for(1.0, 1.0)
        with pytest.raises(ValueError):
            mode_dim_for(-1.0, 1e-12)

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_rejects_non_finite_z_at_once(self, z):
        # NaN used to run ~1e6 loop iterations before a "too large" message
        with pytest.raises(ValueError, match="finite and nonnegative"):
            mode_dim_for(z, 1e-12)


class TestCatStates:
    def test_even_at_zero_is_vacuum(self):
        st = even_coherent(0.0, 4)
        assert np.allclose(st.amps, [1, 0, 0, 0])
        assert st.truncation_residual == 0.0

    def test_odd_at_zero_is_single_photon(self):
        st = odd_coherent(0.0, 4)
        assert np.allclose(st.amps, [0, 1, 0, 0])
        assert st.truncation_residual == 0.0

    def test_even_z1_leading_amplitude(self):
        st = even_coherent(1.0, mode_dim_for(1.0, 1e-14))
        assert st.amps[0].real == pytest.approx(COSH1_INV_SQRT, abs=1e-13)

    def test_odd_z1_leading_amplitude(self):
        st = odd_coherent(1.0, mode_dim_for(1.0, 1e-14))
        assert st.amps[1].real == pytest.approx(SINH1_INV_SQRT, abs=1e-13)

    def test_even_amplitudes_match_series(self):
        # the normalized series evaluated term by term with plain factorials
        z, dim = 1.4, mode_dim_for(1.4, 1e-14)
        st = even_coherent(z, dim)
        pref = 1.0 / math.sqrt(math.cosh(z * z))
        for n in range(0, dim, 2):
            expected = pref * z**n / math.sqrt(math.factorial(n))
            assert st.amps[n].real == pytest.approx(expected, abs=1e-13)
        assert np.all(st.amps[1::2] == 0)

    @pytest.mark.parametrize("z", [0.0, 0.1, 0.5, 1.0, 2.0, 3.0])
    def test_even_odd_orthogonal(self, z):
        dim = mode_dim_for(z, 1e-14)
        val = inner(even_coherent(z, dim), odd_coherent(z, dim))
        assert abs(val) < 1e-14

    @pytest.mark.parametrize("z", [0.05, 0.5, 1.0, 2.5])
    def test_unit_norm(self, z):
        dim = mode_dim_for(z, 1e-14)
        assert np.linalg.norm(even_coherent(z, dim).amps) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(odd_coherent(z, dim).amps) == pytest.approx(1.0, abs=1e-12)

    def test_residual_matches_direct_tail(self):
        z, dim = 1.0, 16
        st = even_coherent(z, dim)
        lost = sum(
            z ** (2 * n) / math.factorial(n)
            for n in range(dim, dim + 60, 2)
        ) / math.cosh(z * z)
        assert st.truncation_residual == pytest.approx(lost, rel=1e-6)
        assert 0.0 < st.truncation_residual < 1e-12

    @pytest.mark.parametrize("build", [even_coherent, odd_coherent])
    @pytest.mark.parametrize("z", [math.nan, math.inf, -0.5])
    def test_rejects_non_finite_or_negative_z(self, build, z):
        # the residual loop never terminated for NaN
        with pytest.raises(ValueError, match="finite and nonnegative"):
            build(z, 8)

    def test_undersized_dim_rejected(self):
        with pytest.raises(TruncationError):
            even_coherent(2.0, 6)
        with pytest.raises(TruncationError):
            odd_coherent(2.0, 6)

    def test_error_names_the_smallest_dim_that_builds(self):
        # mode_dim_for bounds the coherent tail; a renormalized cat may lose
        # more at that dim, and the error must then name one that suffices
        named = []
        for z in np.linspace(0.0, 6.0, 1201)[1:]:
            dim = mode_dim_for(z, 1e-12)
            for build in (even_coherent, odd_coherent):
                try:
                    build(z, dim, 1e-12)
                except TruncationError as exc:
                    need = int(re.search(r"use dim >= (\d+) ", str(exc)).group(1))
                    assert need > dim and need % 2 == 0
                    assert build(z, need, 1e-12).truncation_residual <= 1e-12
                    with pytest.raises(TruncationError):
                        build(z, need - 2, 1e-12)
                    named.append(need - dim)
        # the coherent-tail cutoff falls short for some cats, by 2 at most
        assert named and max(named) == 2

    def test_error_names_a_dim_far_above_an_undersized_one(self):
        with pytest.raises(TruncationError, match=r"at dim 6 .* use dim >= 26 "):
            even_coherent(2.0, 6)

    def test_residual_tolerance_override(self):
        st = even_coherent(2.0, 6, residual_tol=0.5)
        assert st.truncation_residual > 1e-3
        assert np.linalg.norm(st.amps) == pytest.approx(1.0, abs=1e-12)

    def test_negative_z_rejected(self):
        with pytest.raises(ValueError):
            even_coherent(-0.5, 8)
        with pytest.raises(ValueError):
            odd_coherent(-0.5, 8)

    def test_large_z_log_domain(self):
        st = even_coherent(5.0, mode_dim_for(5.0, 1e-14))
        assert np.linalg.norm(st.amps) == pytest.approx(1.0, abs=1e-12)


class TestSpaces:
    def test_mode_dim_must_be_even(self):
        with pytest.raises(ValueError):
            SpaceDescriptor.mode(7)

    def test_qubit_dim_fixed(self):
        with pytest.raises(ValueError):
            SpaceDescriptor(((FactorKind.QUBIT, 3),))

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            StateVector(SpaceDescriptor.qubit(), np.array([1.0, 1.0]))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            StateVector(SpaceDescriptor.mode(4), np.array([1.0, 0.0]))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: StateVector(SpaceDescriptor.qubit(), [math.nan, 0.0]),
            lambda: qubit_state(math.nan, 1.0),
            lambda: StateVector(SpaceDescriptor.qubit(), [1.0, 0.0], math.nan),
            lambda: Direction(math.nan, 0.0, 1.0),
            lambda: SchmidtSpectrum((math.nan,)),
        ],
        ids=["statevector", "qubit_state", "residual", "direction", "schmidt"],
    )
    def test_nan_fails_validation(self, build):
        # NaN fails every comparison, so a `> tol` check lets it through
        with pytest.raises(ValueError):
            build()

    def test_amps_are_immutable(self):
        st = number_state(0, 4)
        with pytest.raises(ValueError):
            st.amps[0] = 0.0


class TestCompositeAlgebra:
    def test_tensor_orders_factors(self):
        q = qubit_state(1.0, 0.0)
        m = number_state(1, 4)
        st = tensor(q, m)
        assert st.space.dims == (2, 4)
        expected = np.zeros(8)
        expected[1] = 1.0
        assert np.allclose(st.amps, expected)

    def test_tensor_combines_residuals(self):
        e = even_coherent(1.0, 16)
        both = tensor(e, e)
        assert both.truncation_residual == pytest.approx(
            2 * e.truncation_residual, rel=1e-6
        )

    def test_tensor_keeps_residuals_below_machine_precision(self):
        # 1 - (1 - a)(1 - b) rounds a = 1e-17, b = 0 down to 0
        a = StateVector(SpaceDescriptor.qubit(), [1.0, 0.0], 1e-17)
        b = qubit_state(0.0, 1.0)
        assert tensor(a, b).truncation_residual == 1e-17
        assert tensor(b, a).truncation_residual == 1e-17

    def test_apply_matches_kron_expansion(self, rng):
        space = SpaceDescriptor.qubit() * SpaceDescriptor.mode(6)
        st = random_state(space, rng)
        ops = build_pseudospin(6)
        out = apply(ops.s_z, st, 1)
        full = np.kron(np.eye(2), ops.s_z.matrix)
        assert np.allclose(out.amps, full @ st.amps, atol=1e-12)

    def test_apply_on_middle_factor(self, rng):
        space = (
            SpaceDescriptor.qubit() * SpaceDescriptor.mode(4) * SpaceDescriptor.qubit()
        )
        st = random_state(space, rng)
        ops = build_pseudospin(4)
        out = apply(ops.s_x, st, 1)
        full = np.kron(np.kron(np.eye(2), ops.s_x.matrix), np.eye(2))
        assert np.allclose(out.amps, full @ st.amps, atol=1e-12)

    def test_apply_rejects_space_mismatch(self):
        st = tensor(qubit_state(1.0, 0.0), number_state(0, 4))
        ops = build_pseudospin(6)
        with pytest.raises(ValueError, match="mode"):
            apply(ops.s_z, st, 1)

    def test_apply_rejects_norm_breaking_op(self):
        st = tensor(qubit_state(1.0, 0.0), number_state(0, 4))
        ops = build_pseudospin(4)
        # s_plus annihilates even states, so it cannot preserve this norm
        with pytest.raises(ValueError, match="norm"):
            apply(ops.s_plus, st, 1)

    def test_inner_conjugate_symmetry(self, rng):
        space = SpaceDescriptor.mode(8)
        a, b = random_state(space, rng), random_state(space, rng)
        assert inner(a, b) == np.conj(inner(b, a))

    def test_inner_space_mismatch_names_both(self):
        a = number_state(0, 4)
        b = number_state(0, 6)
        with pytest.raises(ValueError, match=r"mode\(4\).*mode\(6\)"):
            inner(a, b)

    def test_inner_normalization(self):
        e = even_coherent(0.9, 14)
        assert inner(e, e).real == pytest.approx(1.0, abs=1e-12)


class TestPartialOperations:
    def test_partial_inner_reduces_to_inner(self, rng):
        space = SpaceDescriptor.qubit() * SpaceDescriptor.mode(4)
        st = random_state(space, rng)
        bra = random_state(SpaceDescriptor.qubit(), rng)
        # project the qubit; contracting the remainder reproduces full inner
        rest = partial_inner(bra, st, (0,))
        direct = bra.amps.conj() @ st.amps.reshape(2, 4)
        assert np.allclose(rest, direct, atol=1e-14)

    def test_partial_inner_respects_pair_order(self, rng):
        space = SpaceDescriptor.mode(4) * SpaceDescriptor.mode(6)
        st = random_state(space, rng)
        extra = SpaceDescriptor.qubit()
        big = tensor(random_state(extra, rng), st)
        bra = random_state(SpaceDescriptor.mode(6) * SpaceDescriptor.mode(4), rng)
        got = partial_inner(bra, big, (2, 1))
        b = bra.amps.conj().reshape(6, 4)
        t = big.amps.reshape(2, 4, 6)
        expected = np.einsum("ij,kji->k", b, t)
        assert np.allclose(got, expected, atol=1e-14)

    def test_partial_inner_rejects_wrong_space(self):
        st = tensor(qubit_state(1.0, 0.0), number_state(0, 4))
        with pytest.raises(ValueError, match="does not match"):
            partial_inner(number_state(0, 6), st, (1,))
