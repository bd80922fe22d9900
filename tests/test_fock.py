"""Composite-space algebra and cat-state construction."""

import inspect
import itertools
import math
import operator
import pickle
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hesim import (
    ChshResult,
    ChshSettings,
    Correction,
    Encoding,
    FactorKind,
    HesLabel,
    LogicalState,
    ParityBellLabel,
    SchmidtSpectrum,
    SpaceDescriptor,
    StateVector,
    TeleportRecord,
    TruncationError,
    entanglement_entropy,
    even_coherent,
    hes_state,
    inner,
    k_matrix,
    measure_spin_bell,
    mode_dim_for,
    odd_coherent,
    parity_bell_state,
    parity_measurement,
    schmidt_coefficients,
    swap_entanglement,
    teleport_parity,
    teleport_spin,
    tensor,
)
from hesim.fock import (
    _CUTOFF_TOL,
    _MODE_DIM_CAP,
    _RESIDUAL_TOL,
    _coherent_weights,
    _cut,
    _svd,
    _tails,
)
from hesim.pseudospin import Direction, k_series

from conftest import Z_CAP, number_state, random_amps, random_cat, random_logical, random_state
from oracles import (
    CODEWORD_DECIMAL_TOL,
    SVD_AGREEMENT_TOL,
    TWINS,
    apply,
    build_pseudospin,
    codewords,
    decimal_codeword,
    dense,
    dense_inner,
    init_fields,
    kron,
    lgamma_branch,
    lgamma_mode_dim,
    numpy_codeword,
    partial_inner,
    qubit_state,
    stepped_mode_dim_for,
    twin,
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
        assert mode_dim_for(0.0) == 4

    def test_z1_frozen_value(self):
        # brute-force partial sums of the Poisson tail give 18
        assert mode_dim_for(1.0) == 18

    @pytest.mark.parametrize("z", [0.3, 0.7, 1.0, 2.0, 3.0])
    def test_matches_brute_force(self, z):
        assert mode_dim_for(z) == brute_force_mode_dim(z, 1e-14)

    @pytest.mark.parametrize("z", [0.3, 0.7, 1.0, 2.0, 3.0])
    def test_its_cutoff_passes_the_residual_check(self, z):
        # the cutoff is sized at a tighter tolerance than the cats are checked
        # against, so it is never below a sizing at the check's own tolerance
        assert _CUTOFF_TOL < _RESIDUAL_TOL
        dim = mode_dim_for(z)
        assert dim >= brute_force_mode_dim(z, _RESIDUAL_TOL)
        for build in (even_coherent, odd_coherent):
            assert build(z, dim).truncation_residual <= _RESIDUAL_TOL

    def test_monotone_in_z(self):
        assert mode_dim_for(3.0) > mode_dim_for(1.0)

    def test_returned_dim_is_even_and_at_least_4(self):
        for z in (0.0, 0.2, 1.7, 4.0):
            d = mode_dim_for(z)
            assert d >= 4 and d % 2 == 0

    def test_rejects_negative_z(self):
        with pytest.raises(ValueError):
            mode_dim_for(-1.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_rejects_non_finite_z_at_once(self, z):
        # NaN used to run ~1e6 loop iterations before a "too large" message
        with pytest.raises(ValueError, match="finite and nonnegative"):
            mode_dim_for(z)

    def test_matches_the_lgamma_route_it_replaced(self):
        for z in np.linspace(0.0, 30.0, 301):
            assert mode_dim_for(float(z)) == lgamma_mode_dim(float(z), 1e-14), z

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(z=st.floats(0.0, 5.0) | st.floats(0.0, 40.0) | st.floats(0.0, Z_CAP))
    @example(z=0.0)
    @example(z=1e-200)
    @example(z=Z_CAP)
    def test_bisects_to_the_cutoff_it_stepped_to(self, z):
        assert mode_dim_for(z) == stepped_mode_dim_for(z)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(z=st.floats(0.0, 40.0) | st.floats(0.0, Z_CAP))
    @example(z=0.0)
    @example(z=Z_CAP)
    def test_the_tails_of_a_walk_never_increase(self, z):
        # the premise of the bisection: its predicate, a tail below a share
        # of the mass, once true stays true
        tails = _tails(_coherent_weights(z)[1])
        assert all(a >= b for a, b in zip(tails, tails[1:])) and tails[-1] == 0.0

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1e300) | st.floats(0.0, 1e-300), max_size=40))
    def test_the_tails_of_any_nonnegative_weights_never_increase(self, weights):
        # rounding is monotone, so adding a nonnegative weight never lowers a sum
        tails = _tails(tuple(weights))
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    def test_at_the_cap(self):
        # the walk from the Poisson peak finds the cutoff at the cap without
        # summing the million levels below it
        assert mode_dim_for(Z_CAP) == _MODE_DIM_CAP
        with pytest.raises(ValueError,
                           match="too large: its adaptive cutoff passes 1000000 levels"):
            mode_dim_for(math.nextafter(Z_CAP, math.inf))


class TestCatStates:
    def test_even_at_zero_is_vacuum(self):
        st = even_coherent(0.0, 4)
        assert np.allclose(st.amps, [1, 0, 0, 0])
        assert st.truncation_residual == 0.0

    def test_odd_at_zero_is_single_photon(self):
        st = odd_coherent(0.0, 4)
        assert np.allclose(st.amps, [0, 1, 0, 0])
        assert st.truncation_residual == 0.0

    # at 1e-160, z**2 is subnormal but nonzero; below, it underflows to 0
    @pytest.mark.parametrize("z", [0.0, -0.0, 5e-324, 1e-170, 1e-160, 1e-25])
    def test_tiny_z_cats_are_vacuum_and_single_photon(self, z):
        # every reader of the coherent walk takes the same z -> 0 limit
        for build, amps in ((even_coherent, [1, 0, 0, 0]), (odd_coherent, [0, 1, 0, 0])):
            st = build(z, 4)
            assert np.array_equal(st.amps, amps) and st.truncation_residual == 0.0
        assert mode_dim_for(z) == 4
        enc = Encoding.cat(z, 4)
        assert (enc.residuals, enc.k) == ((0.0, 0.0), 1.0)
        assert k_series(z) == 1.0
        # and refuses a bad z with one message
        readers = (mode_dim_for, lambda z: Encoding.cat(z, 4), k_series,
                   lambda z: even_coherent(z, 4), lambda z: odd_coherent(z, 4))
        for read, bad in itertools.product(readers, (math.nan, math.inf, -1.0)):
            with pytest.raises(ValueError, match="z must be finite and nonnegative"):
                read(bad)
        # after the dimension
        for read, match in ((lambda: even_coherent(math.nan, 3), "mode dimension must be"),
                            (lambda: odd_coherent(math.nan, 3), "mode dimension must be"),
                            (lambda: Encoding.cat(math.nan, 3), "mode dimension must be")):
            with pytest.raises(ValueError, match=match):
                read()

    @pytest.mark.parametrize("z,dim", [(0.5, 12), (1.0, 18), (1.5, 20), (3.0, 42), (9.0, 160),
                                       (30.0, 1140)])
    def test_amplitudes_match_the_decimal_sum(self, z, dim):
        for parity, build in enumerate((even_coherent, odd_coherent)):
            got = build(z, dim).amps
            assert np.max(np.abs(got - decimal_codeword(z, dim, parity))) <= CODEWORD_DECIMAL_TOL

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(z=st.floats(min_value=0.0, max_value=30.0) | st.floats(min_value=30.0, max_value=Z_CAP),
           offset=st.sampled_from(range(0, 8, 2)))
    @example(z=0.0, offset=0)
    @example(z=Z_CAP, offset=0)
    def test_amplitudes_are_the_numpy_route_bit_for_bit(self, z, offset):
        # a division and a square root per level, each correctly rounded in
        # Python floats as in numpy, so no amplitude moved when numpy left
        dim = mode_dim_for(z) + offset
        assume(dim <= _MODE_DIM_CAP)
        for parity, build in enumerate((even_coherent, odd_coherent)):
            expected = numpy_codeword(z, dim, parity)
            assert not expected.imag.any()
            assert same_bits(np.asarray(build(z, dim).amps), expected.real)

    def test_matches_the_lgamma_route_it_replaced(self):
        # amplitudes, residuals and the TruncationError text, over cutoffs
        # from far too small to generous
        for z in np.linspace(0.05, 9.0, 60):
            z, adaptive = float(z), mode_dim_for(float(z))
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
        st = even_coherent(1.0, mode_dim_for(1.0))
        assert st.amps[0] == pytest.approx(COSH1_INV_SQRT, abs=1e-13)

    def test_odd_z1_leading_amplitude(self):
        st = odd_coherent(1.0, mode_dim_for(1.0))
        assert st.amps[1] == pytest.approx(SINH1_INV_SQRT, abs=1e-13)

    def test_even_amplitudes_match_series(self):
        # the normalized series evaluated term by term with plain factorials
        z, dim = 1.4, mode_dim_for(1.4)
        st = even_coherent(z, dim)
        pref = 1.0 / math.sqrt(math.cosh(z * z))
        for n in range(0, dim, 2):
            expected = pref * z**n / math.sqrt(math.factorial(n))
            assert st.amps[n] == pytest.approx(expected, abs=1e-13)
        assert not any(st.amps[1::2])

    @pytest.mark.parametrize("z", [0.0, 0.1, 0.5, 1.0, 2.0, 3.0])
    def test_even_odd_orthogonal(self, z):
        dim = mode_dim_for(z)
        val = dense_inner(even_coherent(z, dim), odd_coherent(z, dim))
        assert abs(val) < 1e-14

    @pytest.mark.parametrize("z", [0.05, 0.5, 1.0, 2.5])
    def test_unit_norm(self, z):
        dim = mode_dim_for(z)
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
        # a cutoff that bounds the coherent tail at the cats' own 1e-12 leaves
        # some renormalized cats short, and the error must then name a dim
        # that suffices
        named = []
        for z in np.linspace(0.0, 6.0, 1201)[1:]:
            dim = brute_force_mode_dim(z, 1e-12)
            for build in (even_coherent, odd_coherent):
                try:
                    build(z, dim)
                except TruncationError as exc:
                    need = int(re.search(r"use dim >= (\d+)$", str(exc)).group(1))
                    assert need > dim and need % 2 == 0
                    assert build(z, need).truncation_residual <= 1e-12
                    with pytest.raises(TruncationError):
                        build(z, need - 2)
                    named.append(need - dim)
        # the coherent-tail cutoff falls short for some cats, by 2 at most
        assert named and max(named) == 2

    def test_error_names_a_dim_far_above_an_undersized_one(self):
        with pytest.raises(TruncationError, match=r"at dim 6 .* use dim >= 26$"):
            even_coherent(2.0, 6)

    @pytest.mark.parametrize("build,params", [(mode_dim_for, ["z"]), (even_coherent, ["z", "dim"]),
                                              (odd_coherent, ["z", "dim"])])
    def test_takes_no_tolerance(self, build, params):
        # the truncation tolerances are constants of fock, not arguments
        assert list(inspect.signature(build).parameters) == params
        with pytest.raises(TypeError):
            build(*[2.0, 26][:len(params)], 0.5)

    def test_negative_z_rejected(self):
        with pytest.raises(ValueError):
            even_coherent(-0.5, 8)
        with pytest.raises(ValueError):
            odd_coherent(-0.5, 8)

    def test_large_z_log_domain(self):
        st = even_coherent(5.0, mode_dim_for(5.0))
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

    # array("d") would take a numpy complex's real part, with a ComplexWarning
    @pytest.mark.parametrize("amps", [[1j, 0.0], [1 + 0j, 0.0], np.array([1.0, 0.0], complex),
                                      np.array([0.0, 1.0], np.complex64)],
                             ids=["complex", "complex_zero_imag", "complex128", "complex64"])
    def test_a_complex_amplitude_is_refused(self, amps):
        message = f"amps[0] must be Real, got {amps[0]!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            StateVector(SpaceDescriptor.qubit(), amps)

    def test_amplitudes_are_a_read_only_copy_of_real_doubles(self):
        given = [0.6, 0.8]
        st = StateVector(SpaceDescriptor.qubit(), given)
        given[0] = 1.0
        assert (st.amps.format, st.amps.readonly, st.amps.tolist()) == ("d", True, [0.6, 0.8])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: StateVector(SpaceDescriptor.qubit(), [math.nan, 0.0]),
            lambda: qubit_state(math.nan, 1.0),
            lambda: StateVector(SpaceDescriptor.qubit(), [1.0, 0.0], math.nan),
            lambda: Direction(math.nan, 0.0, 1.0),
            lambda: SchmidtSpectrum((math.nan,)),
            lambda: LogicalState((QUBIT_ENC,), [math.nan, 1.0]),
        ],
        ids=["statevector", "qubit_state", "residual", "direction", "schmidt", "logical"],
    )
    def test_nan_fails_validation(self, build):
        # NaN fails every comparison, so a `> tol` check lets it through
        with pytest.raises(ValueError):
            build()

    def test_amps_are_immutable(self):
        st = even_coherent(0.0, 4)
        with pytest.raises(TypeError, match="read-only"):
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

    @pytest.mark.parametrize("bad", [1, None, QUBIT_ENC, [1.0, 0.0]], ids=repr)
    def test_tensor_refuses_a_factor_that_is_no_logical_state(self, bad):
        # by its parameter's name, a first
        state = QUBIT_ENC.state(1.0, 0.0)
        for args, name in (((state, bad), "b"), ((bad, state), "a"), ((bad, bad), "a")):
            message = f"{name} must be LogicalState, got {bad!r}"
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                tensor(*args)

    def test_tensor_combines_residuals(self):
        e = Encoding.cat(1.0, 16).state(1.0, 0.0)
        both = tensor(e, e)
        assert both.truncation_residual == pytest.approx(
            2 * e.truncation_residual, rel=1e-6
        )

    def test_tensor_keeps_residuals_below_machine_precision(self):
        # 1 - (1 - a)(1 - b) rounds a cat's residual of 1.4e-19, with b = 0, down to 0
        cat = Encoding.cat(1.0, 20)
        assert 0.0 < cat.residual < 1e-18 and 1.0 - (1.0 - cat.residual) == 0.0
        a, b = cat.state(1.0, 0.0), QUBIT_ENC.state(0.0, 1.0)
        assert a.truncation_residual == cat.residual
        assert tensor(a, b).truncation_residual == cat.residual
        assert tensor(b, a).truncation_residual == cat.residual

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
    """tensor's coefficients are np.kron's up to the rounding of one complex
    product, and the dense oracles kron, partial_inner and apply reproduce
    np.kron and np.tensordot bit for bit."""

    @pytest.mark.parametrize("name", list(FACTOR_SPACES))
    def test_tensor_is_kron(self, name, rng):
        a, *rest = (random_logical([encoding_of(space)], rng) for space in FACTOR_SPACES[name])
        for b in rest:
            both = tensor(a, b)
            # numpy's vector loops may fuse the multiply-add of a complex product
            expected = np.kron(a.coeffs, b.coeffs)
            assert np.all(np.abs(np.array(both.coeffs) - expected)
                          <= 4 * np.finfo(float).eps * np.abs(expected))
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
            cat = Encoding.cat(float(z), mode_dim_for(float(z)))
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
        # built on its mode, a cat works out the same residuals and k, bit for bit
        direct, cat = Encoding(SpaceDescriptor.mode(18), 1.0), Encoding.cat(1.0, 18)
        assert direct == cat and (direct.residuals, direct.k) == (cat.residuals, cat.k)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(z=st.one_of(st.floats(0.0, 5.0), st.floats(0.0, Z_CAP), st.floats(1e-9, 1e-3)))
    # z where a cutoff sized at 1e-12, not 1e-14, leaves a cat two levels short
    @example(z=0.54)
    @example(z=1.125)
    @example(z=4.0)
    def test_a_cat_overlap_stays_within_the_rounding_slack(self, z):
        # k is a ratio of sums that Cauchy-Schwarz bounds by 1; rounding put it
        # one ulp above 1 at most in a scan of 6300 z, a quarter of 1e-15
        cat = Encoding.cat(z, mode_dim_for(z))
        assert 0.0 < cat.k <= 1.0 + 1e-15 / 4

    def test_refuses_more_than_one_factor(self):
        with pytest.raises(ValueError, match="one factor"):
            Encoding(SpaceDescriptor.qubit() * SpaceDescriptor.mode(4))

    @pytest.mark.parametrize("fields", [dict(z=1.0), dict(z=math.nan)], ids=["z", "nan_z"])
    def test_refuses_a_qubit_other_than_spin_up_and_down(self, fields):
        message = "a qubit encoding is spin up and down: z = 0$"
        with pytest.raises(ValueError, match=message):
            Encoding(SpaceDescriptor.qubit(), **fields)

    @pytest.mark.parametrize("z", [-1.0, math.inf, math.nan])
    def test_refuses_a_mode_amplitude_not_finite_and_nonnegative(self, z):
        with pytest.raises(ValueError, match="z must be finite and nonnegative"):
            Encoding(SpaceDescriptor.mode(4), z)

    def test_refuses_a_mode_that_cannot_hold_its_cats(self):
        # as Encoding.cat(2.0, 4) does: the even cat loses 67% of its mass
        message = r"at dim 4 loses probability 6.704e-01 .*; use dim >= 26$"
        with pytest.raises(TruncationError, match=message):
            Encoding(SpaceDescriptor.mode(4), 2.0)

    # the scalars a caller could pass before they were worked out: on the qubit
    # the refused k, residuals and NaN k, on a mode a k and residuals that
    # disagree with z, the old positional order (space, z, residuals, k), and
    # a flip, which only flip() gives
    @pytest.mark.parametrize("args, scalars", [
        ((SpaceDescriptor.qubit(),), dict(k=0.5)),
        ((SpaceDescriptor.qubit(),), dict(residuals=(1e-13, 0.0))),
        ((SpaceDescriptor.qubit(),), dict(k=math.nan)),
        ((SpaceDescriptor.mode(18), 1.0), dict(k=0.3)),
        ((SpaceDescriptor.mode(18), 1.0), dict(residuals=(0.0, 0.0))),
        ((SpaceDescriptor.mode(18), 1.0, (0.0, 0.0), 0.3), {}),
        ((SpaceDescriptor.mode(18), 1.0, (0.0, 0.0)), {}),
        ((SpaceDescriptor.mode(18), 1.0, True), {}),
        ((SpaceDescriptor.mode(18), 1.0), dict(flipped=True)),
        ((SpaceDescriptor.qubit(),), dict(flipped=False))],
        ids=["qubit_k", "qubit_residual", "qubit_nan_k", "mode_k", "mode_residuals", "positional",
             "positional_residuals", "positional_flip", "mode_flipped", "qubit_flipped"])
    def test_takes_no_residuals_or_overlap(self, args, scalars):
        # all three are worked out, from the mode and z or by flip(), never passed
        assert list(inspect.signature(Encoding).parameters) == ["space", "z"]
        with pytest.raises(TypeError):
            Encoding(*args, **scalars)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(z=st.one_of(st.floats(0.0, 5.0), st.floats(0.0, Z_CAP), st.floats(1e-9, 1e-3)),
           extra=st.sampled_from(range(0, 8, 2)))
    def test_a_mode_residual_lies_within_the_check(self, z, extra):
        # the range refusal on passed residuals is gone: worked out, each is a
        # share of its branch's mass, at most the 1e-12 a cat may lose
        enc = Encoding(SpaceDescriptor.mode(mode_dim_for(z) + extra), z)
        assert all(0.0 <= r <= _RESIDUAL_TOL for r in enc.residuals)
        assert enc.residual == 0.5 * (enc.residuals[0] + enc.residuals[1])


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
        dim = mode_dim_for(z) + offset
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
        cat = Encoding.cat(Z_CAP, _MODE_DIM_CAP)
        walks = _coherent_weights.cache_info()
        flip = cat.flip()
        assert built == [] and (flip.z, flip.space.dim, flip.flipped) == (Z_CAP, 1000000, True)
        # a flip shares the residuals and k, and walks nothing
        assert flip.residuals is cat.residuals and flip.k is cat.k
        assert _coherent_weights.cache_info() == walks


class TestLogicalState:
    def test_coefficients_must_fit_the_parties(self):
        with pytest.raises(ValueError, match="do not fit"):
            LogicalState((QUBIT_ENC, QUBIT_ENC), [1.0, 0.0])
        with pytest.raises(ValueError, match="do not fit"):
            LogicalState((), ())

    def test_unnormalized_coefficients_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            LogicalState((QUBIT_ENC,), [1.0, 1.0])

    def test_space_is_the_product_of_the_encodings(self):
        st = LogicalState((QUBIT_ENC, Encoding.cat(0.0, 6)), np.eye(2).ravel() * math.sqrt(0.5))
        assert st.space == SpaceDescriptor.qubit() * SpaceDescriptor.mode(6)

    def test_coeffs_are_immutable(self):
        st = QUBIT_ENC.state(1.0, 0.0)
        with pytest.raises(TypeError):
            st.coeffs[0] = 0.0

    # the residuals a caller could pass before a state worked its own out: the
    # NaN the nonnegative check refused, and the 1e-17 a tensor product kept
    @pytest.mark.parametrize("args, kwargs", [
        ((math.nan,), {}), ((1e-17,), {}), ((), dict(truncation_residual=0.0))],
        ids=["nan", "below_machine_precision", "keyword"])
    def test_takes_no_truncation_residual(self, args, kwargs):
        assert list(inspect.signature(LogicalState).parameters) == ["encodings", "coeffs"]
        with pytest.raises(TypeError):
            LogicalState((QUBIT_ENC,), [1.0, 0.0], *args, **kwargs)

    @pytest.mark.parametrize("alpha", [math.sqrt(1.0 + 1e-6), math.nan], ids=["off_by_1e-6", "nan"])
    def test_an_encoding_refuses_unnormalized_amplitudes(self, alpha):
        # through LogicalState's own check, for a qubit and a cat alike
        for enc in (QUBIT_ENC, Encoding.cat(0.7, 14)):
            with pytest.raises(ValueError, match="not normalized"):
                enc.state(alpha, 0.0)


# (rows, columns, complex entries) of the matrices the package takes an SVD of:
# Schmidt cuts of 2 and 4 parties, and the 3 x 3 correlation matrix
SVD_SHAPES = [(2, 2, True), (2, 8, True), (4, 4, True), (8, 2, True), (3, 3, False)]


def matrix_of_kind(kind: str, shape, seed: int) -> np.ndarray:
    """A matrix of spectral norm 1 of the given shape: random, of rank 1, with
    a repeated singular value, or a diagonal of signed ties."""
    rows, cols, is_complex = shape
    rng = np.random.default_rng(seed)

    def draw(*size):
        x = rng.normal(size=size)
        return x + 1j * rng.normal(size=size) if is_complex else x

    if kind == "diagonal":  # like a hybrid pair's correlation matrix diag(k, -k, 1)
        m = np.zeros((rows, cols), dtype=complex if is_complex else float)
        k = rng.choice([rng.uniform(0.0, 1.0), 1.0, 0.0])
        values = rng.choice([-1.0, 1.0], size=min(rows, cols)) * rng.choice([k, 1.0], size=min(rows, cols))
        m[range(min(rows, cols)), range(min(rows, cols))] = values
    elif kind == "rank_one":
        m = np.outer(draw(rows), draw(cols).conj())
    elif kind == "repeated":  # two equal singular values, the rest smaller
        u, _ = np.linalg.qr(draw(rows, rows))
        v, _ = np.linalg.qr(draw(cols, cols))
        s = np.sort(rng.uniform(0.0, 1.0, size=min(rows, cols)))[::-1]
        s[1] = s[0]
        m = (u[:, : len(s)] * s) @ v[:, : len(s)].conj().T
    else:
        m = draw(rows, cols)
    norm = np.linalg.norm(m, 2)
    return m / norm if norm else m


# factor indices of a four-party state, in range or out of it, and floats
FACTOR_INDEX = st.one_of(st.integers(-2, 5),
                         st.sampled_from([0.0, 1.0, 3.0, -1.0, 0.5, math.nan, math.inf]))


def _outcome(call) -> str:
    """'returned', or the type and message of the error call raised."""
    try:
        call()
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "returned"


class TestFactorIndices:
    """``fock._rest`` checks every factor index a call names, by one rule, and
    ``fock._cut`` lays a state's coefficients out over the named parties."""

    # two hybrid pairs: qubits 0 and 2, modes 1 and 3
    JOINT = tensor(hes_state(HesLabel.PSI_MINUS, 0.8, 18), hes_state(HesLabel.PHI_PLUS, 1.1, 18))

    @staticmethod
    def expected(named, refusal) -> str:
        """The outcome the rule sets for named: the first float is a
        TypeError, then the first index out of range, then one named twice,
        are ValueErrors; an index list that passes leaves refusal, the call's
        own outcome."""
        for i in named:
            if isinstance(i, float):
                return f"TypeError: factor index must be an integer, got {i!r}"
        for i in named:
            if not 0 <= i < 4:
                return f"ValueError: factor index {i} out of range for 4 factors"
        if len(set(named)) != len(named):
            return f"ValueError: factor indices {tuple(named)} name a factor more than once"
        return refusal

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(pair=st.tuples(FACTOR_INDEX, FACTOR_INDEX), mode=FACTOR_INDEX,
           side=st.lists(FACTOR_INDEX, max_size=5))
    @example(pair=(0.0, 2), mode=2.0, side=[0, 0])
    @example(pair=(0, 0), mode=-1, side=[1.0])
    @example(pair=(2, 5), mode=4, side=[-1, 3])
    def test_every_call_checks_its_indices_by_one_rule(self, pair, mode, side):
        joint, describe = self.JOINT, self.JOINT.space.describe()
        spin = self.expected(pair, "returned" if set(pair) <= {0, 2} else
                             f"ValueError: factors {pair} of {describe} are not "
                             f"encoded in the measured basis")
        assert _outcome(lambda: measure_spin_bell(joint, pair)) == spin
        parity = self.expected([mode], "returned" if mode in (1, 3) else
                               f"ValueError: factor {mode} of {describe} is not a mode")
        assert _outcome(lambda: parity_measurement(joint, mode)) == parity
        # a side is checked in the order given, then named in sorted order
        cut = self.expected(side, "returned" if 0 < len(side) < 4 else
                            f"ValueError: side a {sorted(side)} is not a nonempty proper "
                            f"subset of the 4 factors of {describe}")
        assert _outcome(lambda: schmidt_coefficients(joint, side)) == cut
        assert _outcome(lambda: entanglement_entropy(joint, side)) == cut

    @pytest.mark.parametrize("call", [schmidt_coefficients, entanglement_entropy])
    @pytest.mark.parametrize("side", [0, 1.5, None])
    def test_a_side_that_is_not_a_sequence_is_refused_by_the_rule(self, call, side):
        # checked before it is sorted, so the refusal names the side
        with pytest.raises(TypeError, match=re.escape(
                f"factor indices must be a sequence of integers, got {side!r}")):
            call(self.JOINT, side)

    @pytest.mark.parametrize("parties", [1, 2, 3, 4])
    def test_the_cut_is_the_transposed_coefficient_tensor(self, parties, rng):
        # every ordered choice of named parties, the empty one and all of them included
        for _ in range(4):
            encodings = [QUBIT_ENC if rng.random() < 0.5 else random_cat(8, rng)
                         for _ in range(parties)]
            state = random_logical(encodings, rng)
            coeffs = np.array(state.coeffs).reshape((2,) * parties)
            for size in range(parties + 1):
                for named in itertools.permutations(range(parties), size):
                    rest = [k for k in range(parties) if k not in named]
                    expected = coeffs.transpose([*named, *rest]).reshape(2**size, -1)
                    assert _cut(state, named) == expected.tolist(), named

    # a dim is an integer by fock._integer, like a factor index: a float is
    # refused by name, not cut to the integer below it (18.7 is not mode(18))
    @pytest.mark.parametrize("dim", [18.7, 18.0, 19.5, math.nan], ids=repr)
    @pytest.mark.parametrize("build", [
        lambda dim: SpaceDescriptor.mode(dim),
        lambda dim: SpaceDescriptor(((FactorKind.MODE, dim),)),
        lambda dim: Encoding.cat(1.0, dim),
        lambda dim: even_coherent(1.0, dim),
        lambda dim: odd_coherent(1.0, dim),
        lambda dim: k_matrix(1.0, dim),
        lambda dim: hes_state(HesLabel.PHI_PLUS, 1.0, dim),
        lambda dim: parity_bell_state(ParityBellLabel.PSI_MINUS, 1.0, 0.5, dim),
        lambda dim: teleport_spin(0.6, 0.8, HesLabel.PHI_PLUS, 1.0, dim),
        lambda dim: teleport_parity(0.6, 0.8, 0.5, HesLabel.PHI_PLUS, 1.0, dim),
        lambda dim: swap_entanglement(1.0, 0.5, dim),
    ], ids=["mode", "space", "cat", "even_coherent", "odd_coherent", "k_matrix", "hes_state",
            "parity_bell_state", "teleport_spin", "teleport_parity", "swap_entanglement"])
    def test_a_mode_dimension_is_an_integer(self, build, dim):
        with pytest.raises(TypeError, match=f"^dim must be an integer, got {re.escape(repr(dim))}$"):
            build(dim)


class TestSvd:
    """fock._svd, the pure-Python one-sided Jacobi SVD of Schmidt cuts and
    correlation matrices, against numpy.linalg.svd."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(shape=st.sampled_from(SVD_SHAPES),
           kind=st.sampled_from(["random", "rank_one", "repeated", "diagonal"]),
           seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_lapack(self, shape, kind, seed):
        m = matrix_of_kind(kind, shape, seed)
        s, u, v = _svd(m.tolist())
        rank = min(m.shape)
        assert len(s) == len(u) == len(v) == rank
        assert all(a >= b for a, b in zip(s, s[1:]))
        assert np.max(np.abs(np.array(s) - np.linalg.svd(m, compute_uv=False))) <= SVD_AGREEMENT_TOL
        u, v = np.array(u).T, np.array(v).T  # singular vectors as columns
        # the rotations give the vectors of the side with fewer entries, all
        # orthonormal; the other side's vectors are those of a nonzero value,
        # orthonormal, and zero vectors for a zero one
        rotated, scaled = (u, v) if m.shape[0] <= m.shape[1] else (v, u)
        assert np.max(np.abs(rotated.conj().T @ rotated - np.eye(rank))) <= SVD_AGREEMENT_TOL
        kept = [j for j in range(rank) if s[j] > 0.0]
        assert not np.any(scaled[:, [j for j in range(rank) if s[j] == 0.0]])
        assert np.max(np.abs(scaled[:, kept].conj().T @ scaled[:, kept] - np.eye(len(kept))),
                      initial=0.0) <= SVD_AGREEMENT_TOL
        assert np.max(np.abs((u * s) @ v.conj().T - m)) <= SVD_AGREEMENT_TOL

    def test_a_diagonal_keeps_its_axes_and_gives_its_signs_to_v(self):
        # ties go to the later row first: the order LAPACK gives diag(k, -k, 1)
        s, u, v = _svd(((0.5, 0.0, 0.0), (0.0, -0.5, 0.0), (0.0, 0.0, 1.0)))
        assert s == [1.0, 0.5, 0.5]
        assert u == [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
        assert v == [[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]


def random_space(rng) -> SpaceDescriptor:
    """One to three factors, each a qubit or a mode of even dimension 2-14."""
    kinds = rng.integers(0, 2, size=rng.integers(1, 4))
    return SpaceDescriptor(tuple((FactorKind.QUBIT, 2) if kind else
                                 (FactorKind.MODE, 2 * int(rng.integers(1, 8))) for kind in kinds))


def random_encoding(rng) -> Encoding:
    """The qubit, a cat on a mode of 8-18 levels, or one on 2-14 levels."""
    pick = rng.integers(0, 3)
    if pick == 0:
        return Encoding.qubit()
    if pick == 1:
        return random_cat(2 * int(rng.integers(4, 10)), rng)
    return random_cat(2 * int(rng.integers(1, 8)), rng)


def random_direction(rng) -> Direction:
    theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
    return Direction(math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                     math.cos(theta))


def random_value(cls, rng):
    """A random valid instance of one of the package's value classes."""
    def state():
        return random_logical([random_encoding(rng) for _ in range(rng.integers(1, 3))], rng)

    def states_over(parties, n):  # n states over the same random encodings
        encodings = [random_encoding(rng) for _ in range(parties)]
        return [random_logical(encodings, rng) for _ in range(n)]

    def settings():
        return ChshSettings(*(random_direction(rng) for _ in range(4)))

    def real_state(space):
        amps = rng.normal(size=space.dim)
        return StateVector(space, amps / np.linalg.norm(amps))

    build = {
        SpaceDescriptor: lambda: random_space(rng),
        StateVector: lambda: real_state(random_space(rng)),
        Encoding: lambda: random_encoding(rng),
        LogicalState: state,
        Direction: lambda: random_direction(rng),
        ChshSettings: settings,
        ChshResult: lambda: ChshResult(float(rng.uniform(-2.8, 2.8)), settings()),
        SchmidtSpectrum: lambda: SchmidtSpectrum(
            tuple(sorted(abs(random_amps(rng, int(rng.integers(1, 5)))), reverse=True))),
        TeleportRecord: lambda: TeleportRecord(rng.choice(list(Correction)),
                                               *states_over(int(rng.integers(1, 3)), 2)),
    }
    return build[cls]()


def outcome(f, *args):
    """f(*args), or the type of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


class TestValueClasses:
    """The nine frozen value classes behave as the dataclasses they replaced,
    their twins in ``oracles.TWINS``: the same repr, ==, hash and refusal
    to assign or delete."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(cls=st.sampled_from(list(TWINS)), seed=st.integers(0, 2**32 - 1),
           mask=st.integers(0, 15))
    def test_matches_its_dataclass_twin(self, cls, seed, mask):
        rng = np.random.default_rng(seed)
        x, other = random_value(cls, rng), random_value(cls, rng)
        try:  # x with the arguments in mask taken from other: mask 0 rebuilds x
            y = cls(*(getattr(other if mask >> i & 1 else x, name)
                      for i, name in enumerate(init_fields(cls))))
        except ValueError:
            y = other
        tx, ty = twin(x), twin(y)
        assert type(tx).__name__ == cls.__name__
        assert (repr(x), repr(y)) == (repr(tx), repr(ty))
        for a, b, ta, tb in ((x, y, tx, ty), (x, x, tx, tx), (x, other, tx, twin(other))):
            assert outcome(operator.eq, a, b) == outcome(operator.eq, ta, tb)
            assert outcome(operator.ne, a, b) == outcome(operator.ne, ta, tb)
        assert x != tx and x != object() and tx != object()
        if cls in (LogicalState, StateVector):  # equal only to itself, and hashed so
            assert hash(x) == object.__hash__(x) and hash(tx) == object.__hash__(tx)
        else:
            assert outcome(hash, x) == outcome(hash, tx)
        for name in (*init_fields(cls), "space", "extra"):
            for value in (x, tx):
                with pytest.raises(AttributeError):
                    setattr(value, name, 1.0)
                with pytest.raises(AttributeError):
                    delattr(value, name)
        assert repr(pickle.loads(pickle.dumps(x))) == repr(x)

    def test_a_codewords_repr_shows_its_amplitudes(self):
        # not the address of the memoryview that holds them
        a, b = even_coherent(0.0, 4), even_coherent(0.0, 4)
        assert repr(a) == repr(b) and a is not b
        assert repr(a) == ("StateVector(space=SpaceDescriptor(factors=((<FactorKind.MODE: 'mode'>, "
                           "4),)), amps=[1.0, 0.0, 0.0, 0.0], truncation_residual=0.0)")

    def test_state_vectors_are_equal_only_to_themselves(self):
        # by identity, as when numpy amplitudes compared elementwise
        x, y = even_coherent(1.0, 20), even_coherent(1.0, 20)
        assert (x == y, x != y, x == x, x != x) == (False, True, True, False)
        assert hash(x) == object.__hash__(x) and len({x, y, x}) == 2

    def test_a_logical_state_caches_what_it_works_out(self):
        cat = Encoding.cat(0.7, 14)
        state = random_logical([Encoding.qubit(), cat], np.random.default_rng(5))
        assert state.space is state.space == Encoding.qubit().space * SpaceDescriptor.mode(14)
        assert state.truncation_residual is state.truncation_residual == cat.residual
        # the cached space and residual stay out of it
        assert repr(state) == repr(twin(state)) == (
            f"LogicalState(encodings={state.encodings!r}, coeffs={state.coeffs!r})")
