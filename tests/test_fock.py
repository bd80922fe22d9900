"""Composite-space algebra and cat-state construction."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hesim import (
    Encoding,
    FactorKind,
    LogicalState,
    SchmidtSpectrum,
    SpaceDescriptor,
    StateVector,
    TruncationError,
    even_coherent,
    inner,
    mode_dim_for,
    odd_coherent,
    tensor,
)
from hesim.fock import _MODE_DIM_CAP
from hesim.pseudospin import Direction

from conftest import Z_CAP, number_state, random_cat, random_logical, random_state
from oracles import (
    CODEWORD_DECIMAL_TOL,
    apply,
    build_pseudospin,
    codewords,
    decimal_codeword,
    dense,
    dense_inner,
    kron,
    lgamma_branch,
    lgamma_mode_dim,
    partial_inner,
    qubit_state,
)

QUBIT_ENC = Encoding.qubit()

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

    def test_matches_the_lgamma_route_it_replaced(self):
        for z in np.linspace(0.0, 30.0, 301):
            for tol in (1e-6, 1e-12, 1e-14, 1e-16):
                assert mode_dim_for(float(z), tol) == lgamma_mode_dim(float(z), tol), (z, tol)

    def test_at_the_cap(self):
        # the walk from the Poisson peak finds the cutoff at the cap without
        # summing the million levels below it
        assert mode_dim_for(Z_CAP, 1e-14) == _MODE_DIM_CAP
        with pytest.raises(ValueError,
                           match="too large: its adaptive cutoff passes 1000000 levels"):
            mode_dim_for(math.nextafter(Z_CAP, math.inf), 1e-14)


class TestCatStates:
    def test_even_at_zero_is_vacuum(self):
        st = even_coherent(0.0, 4)
        assert np.allclose(st.amps, [1, 0, 0, 0])
        assert st.truncation_residual == 0.0

    def test_odd_at_zero_is_single_photon(self):
        st = odd_coherent(0.0, 4)
        assert np.allclose(st.amps, [0, 1, 0, 0])
        assert st.truncation_residual == 0.0

    @pytest.mark.parametrize("z", [1e-25, 1e-170])
    def test_tiny_z_cats_are_vacuum_and_single_photon(self, z):
        assert np.array_equal(even_coherent(z, 4).amps, [1, 0, 0, 0])
        assert np.array_equal(odd_coherent(z, 4).amps, [0, 1, 0, 0])

    @pytest.mark.parametrize("z,dim", [(0.5, 12), (1.0, 18), (1.5, 14), (3.0, 42), (9.0, 160),
                                       (30.0, 1140)])
    def test_amplitudes_match_the_decimal_sum(self, z, dim):
        for parity, build in enumerate((even_coherent, odd_coherent)):
            got = build(z, dim, 1e-6).amps
            assert np.max(np.abs(got - decimal_codeword(z, dim, parity))) <= CODEWORD_DECIMAL_TOL

    def test_matches_the_lgamma_route_it_replaced(self):
        # amplitudes, residuals and the TruncationError text, over cutoffs
        # from far too small to generous
        for z in np.linspace(0.05, 9.0, 60):
            z, adaptive = float(z), mode_dim_for(float(z), 1e-14)
            for dim in (4, 8, adaptive - 4, adaptive - 2, adaptive, adaptive + 6):
                for parity, build in enumerate((even_coherent, odd_coherent)):
                    try:
                        amps, residual = lgamma_branch(z, max(dim, 4), parity, 1e-12)
                    except TruncationError as exc:
                        with pytest.raises(TruncationError) as got:
                            build(z, max(dim, 4))
                        assert str(got.value) == str(exc)
                        continue
                    st = build(z, max(dim, 4))
                    # the lgamma route's own rounding reaches 1.3e-14 at z <= 9
                    assert np.max(np.abs(st.amps - amps)) <= 5e-14
                    assert st.truncation_residual == pytest.approx(residual, rel=1e-9, abs=1e-40)

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
        val = dense_inner(even_coherent(z, dim), odd_coherent(z, dim))
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
            lambda: LogicalState((QUBIT_ENC,), [math.nan, 1.0]),
            lambda: LogicalState((QUBIT_ENC,), [1.0, 0.0], math.nan),
        ],
        ids=["statevector", "qubit_state", "residual", "direction", "schmidt",
             "logical", "logical_residual"],
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
        q = QUBIT_ENC.state(1.0, 0.0)
        m = Encoding.cat(0.0, 4).state(0.0, 1.0)  # the Fock states |0>, |1>
        st = tensor(q, m)
        assert st.space.dims == (2, 4)
        assert st.encodings == (QUBIT_ENC, Encoding.cat(0.0, 4))
        expected = np.zeros(8)
        expected[1] = 1.0
        assert np.allclose(dense(st).amps, expected)

    def test_tensor_combines_residuals(self):
        e = Encoding.cat(1.0, 16).state(1.0, 0.0)
        both = tensor(e, e)
        assert both.truncation_residual == pytest.approx(
            2 * e.truncation_residual, rel=1e-6
        )

    def test_tensor_keeps_residuals_below_machine_precision(self):
        # 1 - (1 - a)(1 - b) rounds a = 1e-17, b = 0 down to 0
        a = LogicalState((QUBIT_ENC,), [1.0, 0.0], 1e-17)
        b = QUBIT_ENC.state(0.0, 1.0)
        assert tensor(a, b).truncation_residual == 1e-17
        assert tensor(b, a).truncation_residual == 1e-17

    def test_logical_inner_is_the_coefficient_overlap(self, rng):
        encodings = (QUBIT_ENC, Encoding.cat(0.9, 16))
        a, b = random_logical(encodings, rng), random_logical(encodings, rng)
        assert inner(a, b) == pytest.approx(dense_inner(dense(a), dense(b)), abs=1e-14)
        assert inner(a, b) == np.conj(inner(b, a))

    def test_logical_inner_needs_equal_encodings(self, rng):
        cat = Encoding.cat(0.9, 16)
        a = random_logical((QUBIT_ENC, cat), rng)
        b = random_logical((QUBIT_ENC, Encoding.cat(1.0, 16)), rng)
        with pytest.raises(ValueError, match="different encodings"):
            inner(a, b)
        # the flipped codewords are another basis of the same mode
        with pytest.raises(ValueError, match="undefined"):
            inner(a, LogicalState((QUBIT_ENC, cat.flip()), a.coeffs))

    def test_apply_matches_kron_expansion(self, rng):
        space = SpaceDescriptor.qubit() * SpaceDescriptor.mode(6)
        st = random_state(space, rng)
        ops = build_pseudospin(6)
        out = apply(ops.s_z, st, 1)
        full = np.kron(np.eye(2), ops.s_z)
        assert np.allclose(out.amps, full @ st.amps, atol=1e-12)

    def test_apply_on_middle_factor(self, rng):
        space = (
            SpaceDescriptor.qubit() * SpaceDescriptor.mode(4) * SpaceDescriptor.qubit()
        )
        st = random_state(space, rng)
        ops = build_pseudospin(4)
        out = apply(ops.s_x, st, 1)
        full = np.kron(np.kron(np.eye(2), ops.s_x), np.eye(2))
        assert np.allclose(out.amps, full @ st.amps, atol=1e-12)

    def test_apply_rejects_space_mismatch(self):
        st = kron(qubit_state(1.0, 0.0), number_state(0, 4))
        ops = build_pseudospin(6)
        with pytest.raises(ValueError, match="mode"):
            apply(ops.s_z, st, 1)

    def test_apply_rejects_factor_out_of_range(self):
        st = kron(qubit_state(1.0, 0.0), number_state(0, 4))
        with pytest.raises(ValueError, match="out of range for 2"):
            apply(np.eye(2), st, 2)

    def test_apply_rejects_norm_breaking_op(self):
        st = kron(qubit_state(1.0, 0.0), number_state(0, 4))
        ops = build_pseudospin(4)
        # s_plus annihilates even states, so it cannot preserve this norm
        with pytest.raises(ValueError, match="norm"):
            apply(ops.s_plus, st, 1)

    def test_inner_conjugate_symmetry(self, rng):
        encodings = (QUBIT_ENC, random_cat(8, rng))
        a, b = random_logical(encodings, rng), random_logical(encodings, rng)
        assert inner(a, b) == np.conj(inner(b, a))

    def test_inner_space_mismatch_names_both(self):
        a = Encoding.cat(0.0, 4).state(1.0, 0.0)
        b = Encoding.cat(0.0, 6).state(1.0, 0.0)
        with pytest.raises(ValueError, match=r"mode\(4\).*mode\(6\)"):
            inner(a, b)

    def test_inner_normalization(self):
        e = Encoding.cat(0.9, 14).state(0.6, 0.8j)
        assert inner(e, e).real == pytest.approx(1.0, abs=1e-12)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape and bit-for-bit equal complex entries, signed zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


QUBIT, MODE = SpaceDescriptor.qubit(), SpaceDescriptor.mode
# 2 to 4 factors; the last takes the large-operand paths of the cutoff sweep
FACTOR_SPACES = {
    "qubit-mode": (QUBIT, MODE(6)),
    "mode-qubit-mode": (MODE(4), QUBIT, MODE(8)),
    "qubit-mode-qubit-mode": (QUBIT, MODE(6), QUBIT, MODE(4)),
    "qubit-mode120-mode150": (QUBIT, MODE(120), MODE(150)),
}


def random_unitary(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


def encoding_of(space: SpaceDescriptor) -> Encoding:
    return QUBIT_ENC if space.kind(0) is FactorKind.QUBIT else Encoding.cat(0.0, space.dim)


class TestSameBitsAsNumpy:
    """tensor's coefficients are np.kron's, and the dense oracles kron,
    partial_inner and apply reproduce np.kron and np.tensordot bit for bit."""

    @pytest.mark.parametrize("name", list(FACTOR_SPACES))
    def test_tensor_is_kron(self, name, rng):
        a, *rest = (random_logical([encoding_of(space)], rng) for space in FACTOR_SPACES[name])
        for b in rest:
            both = tensor(a, b)
            assert same_bits(both.coeffs.reshape(-1), np.kron(a.coeffs.ravel(), b.coeffs.ravel()))
            assert both.space == a.space * b.space
            a = both

    @pytest.mark.parametrize("name", list(FACTOR_SPACES))
    def test_dense_kron_is_kron(self, name, rng):
        a, *rest = (random_state(space, rng) for space in FACTOR_SPACES[name])
        for b in rest:
            assert same_bits(kron(a, b).amps, np.kron(a.amps, b.amps))
            a = kron(a, b)

    @pytest.mark.parametrize("name", list(FACTOR_SPACES))
    def test_partial_inner_is_tensordot_for_every_factor_order(self, name, rng):
        factors = FACTOR_SPACES[name]
        space = math.prod(factors[1:], start=factors[0])
        state = random_state(space, rng)
        t = state.amps.reshape(space.dims)
        for k in range(1, len(factors)):
            for paired in itertools.permutations(range(len(factors)), k):
                bra = random_state(SpaceDescriptor(tuple(space.factors[i] for i in paired)), rng)
                b = bra.amps.conj().reshape(bra.space.dims)
                expected = np.tensordot(b, t, axes=(tuple(range(k)), paired)).reshape(-1)
                assert same_bits(partial_inner(bra, state, paired), expected), paired

    @pytest.mark.parametrize("name", list(FACTOR_SPACES))
    def test_apply_is_tensordot_on_every_factor(self, name, rng):
        factors = FACTOR_SPACES[name]
        space = math.prod(factors[1:], start=factors[0])
        state = random_state(space, rng)
        t = state.amps.reshape(space.dims)
        for i, factor in enumerate(factors):
            u = random_unitary(rng, factor.dim)
            ops = [u, u.conj().T]  # C- and Fortran-ordered operands
            if factor.kind(0) is FactorKind.MODE:
                pseudo = build_pseudospin(factor.dim)
                ops += [pseudo.s_x, pseudo.s_y, pseudo.s_z]
            for op in ops:
                moved = np.tensordot(op, t, axes=([1], [i]))
                out = np.moveaxis(moved, 0, i).reshape(-1)
                expected = out / float(np.linalg.norm(out))
                assert same_bits(apply(op, state, i).amps, expected), i

    def test_derived_dims_stay_out_of_equality_and_repr(self):
        space = QUBIT * MODE(6)
        assert (space.dims, space.dim) == ((2, 6), 12)
        same = SpaceDescriptor(((FactorKind.QUBIT, 2), (FactorKind.MODE, 6)))
        assert space == same and hash(space) == hash(same)
        assert repr(space) == f"SpaceDescriptor(factors={space.factors!r})"


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
        big = kron(random_state(extra, rng), st)
        bra = random_state(SpaceDescriptor.mode(6) * SpaceDescriptor.mode(4), rng)
        got = partial_inner(bra, big, (2, 1))
        b = bra.amps.conj().reshape(6, 4)
        t = big.amps.reshape(2, 4, 6)
        expected = np.einsum("ij,kji->k", b, t)
        assert np.allclose(got, expected, atol=1e-14)

    @pytest.mark.parametrize("factors", [(-2,), (2,), (5,)])
    def test_partial_inner_rejects_factor_out_of_range(self, factors):
        st = kron(qubit_state(1.0, 0.0), number_state(0, 4))
        with pytest.raises(ValueError, match=r"factor index -?\d out of range for 2"):
            partial_inner(qubit_state(1.0, 0.0), st, factors)

    def test_partial_inner_rejects_wrong_space(self):
        st = kron(qubit_state(1.0, 0.0), number_state(0, 4))
        with pytest.raises(ValueError, match="does not match"):
            partial_inner(number_state(0, 6), st, (1,))


class TestEncoding:
    def test_cat_codewords_are_orthonormal_for_every_z(self):
        for z in np.linspace(0.0, 9.0, 91):
            cat = Encoding.cat(float(z), mode_dim_for(float(z), 1e-14))
            for enc in (cat, cat.flip()):
                zero, one = codewords(enc)
                assert abs(dense_inner(zero, one)) <= 1e-12

    def test_the_qubit_is_k_one_without_residual_and_its_own_flip(self):
        assert (QUBIT_ENC.k, QUBIT_ENC.residuals, QUBIT_ENC.residual) == (1.0, (0.0, 0.0), 0.0)
        assert QUBIT_ENC.flip() is QUBIT_ENC and not QUBIT_ENC.flipped
        # as is the cat pair at z = 0, |0> and |1>, apart from its flag
        vacuum = Encoding.cat(0.0, 4)
        assert (vacuum.k, vacuum.residuals) == (1.0, (0.0, 0.0)) and vacuum.flip().flipped

    def test_is_frozen(self):
        cat = Encoding.cat(0.7, 14)
        with pytest.raises(AttributeError):
            cat.k = 1.0
        with pytest.raises(AttributeError):
            cat.flipped = True

    def test_equal_by_kind_dim_z_and_flip(self):
        assert Encoding.cat(0.7, 14) == Encoding.cat(0.7, 14)
        assert hash(Encoding.cat(0.7, 14)) == hash(Encoding.cat(0.7, 14))
        assert Encoding.cat(0.7, 14) != Encoding.cat(0.7, 16)
        assert Encoding.cat(0.7, 14) != Encoding.cat(0.8, 14)
        # the same codewords |0>, |1>, but a qubit is not a mode
        assert Encoding.qubit() == QUBIT_ENC != Encoding.cat(0.0, 2)


def built_or_refused(build):
    """What build() returns, or the type and text of the error it raises."""
    try:
        return build()
    except (TruncationError, ValueError) as exc:
        return type(exc), str(exc)


class TestCatEncoding:
    """A cat encoding is its amplitude, cutoff and flip, plus the residuals and
    overlap of one walk; it builds no codeword (``oracles.codewords`` does)."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(z=st.floats(min_value=0.0, max_value=30.0),
           offset=st.sampled_from(range(-4, 8, 2)), flipped=st.booleans())
    @example(z=0.0, offset=-4, flipped=False)  # dim 0
    @example(z=1e-200, offset=0, flipped=True)  # z**2 underflows to 0
    @example(z=1.0, offset=-4, flipped=False)  # the even cat is cut short
    def test_carries_the_residuals_and_refusals_of_its_codewords(self, z, offset, flipped):
        dim = mode_dim_for(z, 1e-14) + offset
        cat = built_or_refused(lambda: Encoding.cat(z, dim))
        words = [built_or_refused(lambda: build(z, dim)) for build in (even_coherent, odd_coherent)]
        refusals = [w for w in words if isinstance(w, tuple)]
        if refusals:  # the even cat's refusal first, with its exact text
            assert cat == refusals[0]
            return
        even, odd = words
        assert cat.residuals == (even.truncation_residual, odd.truncation_residual)
        assert cat.residual == 0.5 * (even.truncation_residual + odd.truncation_residual)
        assert cat.space == SpaceDescriptor.mode(dim)
        enc = cat.flip() if flipped else cat
        assert enc.residual == cat.residual and enc.k == cat.k and enc.flipped == flipped
        # |0_L> is even and |1_L> odd; flipped, each holds the other cat's amplitudes
        for logical, source in enumerate(codewords(enc)):
            word = (even, odd)[logical ^ flipped]
            assert np.array_equal(source.amps[logical::2], word.amps[logical ^ flipped::2])
            assert not np.any(source.amps[1 - logical::2])
            assert source.truncation_residual == word.truncation_residual

    def test_is_equal_by_its_amplitude_cutoff_and_flip(self):
        cat = Encoding.cat(0.7, 14)
        assert cat == Encoding.cat(0.7, 14) == cat.flip().flip()
        assert cat != cat.flip() and cat.flip() == Encoding.cat(0.7, 14).flip()
        assert cat != Encoding.cat(math.nextafter(0.7, 1.0), 14)
        assert cat != QUBIT_ENC and cat != Encoding.cat(0.0, 14)

    def test_builds_no_codeword(self, monkeypatch):
        built = []
        monkeypatch.setattr(StateVector, "__post_init__", lambda sv: built.append(sv))
        cat = Encoding.cat(Z_CAP, _MODE_DIM_CAP).flip()
        assert built == [] and (cat.z, cat.space.dim, cat.flipped) == (Z_CAP, 1000000, True)


class TestLogicalState:
    def test_coefficients_must_fit_the_parties(self):
        with pytest.raises(ValueError, match="do not fit"):
            LogicalState((QUBIT_ENC, QUBIT_ENC), [1.0, 0.0])
        with pytest.raises(ValueError, match="do not fit"):
            LogicalState((), np.ones(()))

    def test_unnormalized_coefficients_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            LogicalState((QUBIT_ENC,), [1.0, 1.0])

    def test_space_is_the_product_of_the_encodings(self):
        st = LogicalState((QUBIT_ENC, Encoding.cat(0.0, 6)), np.eye(2) * math.sqrt(0.5))
        assert st.space == SpaceDescriptor.qubit() * SpaceDescriptor.mode(6)

    def test_coeffs_are_immutable(self):
        st = QUBIT_ENC.state(1.0, 0.0)
        with pytest.raises(ValueError):
            st.coeffs[0] = 0.0
