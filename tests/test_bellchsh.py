"""CHSH expectations, closed-form and numerical optima.

Expectations are evaluated by the kron-built Bell operator of ``oracles``,
independently of the correlation matrix the package maximizes.
"""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hesim import (
    ChshResult,
    ChshSettings,
    Direction,
    Encoding,
    HesLabel,
    ParityBellLabel,
    SpaceDescriptor,
    analytic_optimum,
    correlation_matrix,
    bell_pair,
    even_coherent,
    hes_state,
    k_series,
    mode_dim_for,
    optimize_chsh,
    tensor,
)

import hesim.bellchsh

from conftest import (NORMS_AT_THE_BOUND, Z_CAP, at_norm, random_cat, random_logical,
                      random_qubit_pair, random_state)
from oracles import (
    DENSE_AGREEMENT_TOL,
    SVD_AGREEMENT_TOL,
    bell_operator,
    build_pseudospin,
    chsh_expectation,
    dense_correlation_matrix,
    direction,
    kron,
    lapack_optimize_chsh,
    numpy_correlation_matrix,
    qubit_state,
)

QUBIT = Encoding.qubit()

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)
# 2*sqrt(1 + k(1)^2), frozen from the 40-digit overlap evaluation
VIOLATION_AT_Z1 = 2.7879837509620812837
# above this mode dimension (z of about 9) the kron-built Bell operator would
# take more memory than a test may
DENSE_DIM_MAX = 160


def random_settings(rng) -> ChshSettings:
    dirs = [
        direction(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        for _ in range(4)
    ]
    return ChshSettings(*dirs)


def random_hybrid(dim: int, rng):
    """Random coefficients over the qubit and a random cat encoding."""
    return random_logical((QUBIT, random_cat(dim, rng)), rng)


def nudge(d: Direction, rng) -> Direction:
    """d rotated by a random angle of about 1e-3."""
    v = np.array([d.nx, d.ny, d.nz]) + 1e-3 * rng.normal(size=3)
    return Direction(*(v / np.linalg.norm(v)))


def in_plane_closed_form(z, theta_a, theta_ap, theta_b, theta_bp):
    """Four-correlator expansion for the phi+ pairing with in-plane settings."""
    k = k_series(z)

    def corr(t1, t2):
        return math.cos(t1) * math.cos(t2) + k * math.sin(t1) * math.sin(t2)

    return (
        corr(theta_a, theta_b)
        + corr(theta_a, theta_bp)
        + corr(theta_ap, theta_b)
        - corr(theta_ap, theta_bp)
    )


def test_does_not_import_the_protocols_layer():
    tree = ast.parse(Path(hesim.bellchsh.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported & {".protocols", "hesim.protocols"} == set()
    assert {".fock", ".pseudospin"} <= imported


class TestBellOperator:
    def test_aligned_settings_collapse_to_two_correlators(self):
        ops = build_pseudospin(6)
        zaxis = Direction(0.0, 0.0, 1.0)
        op = bell_operator(ChshSettings(zaxis, zaxis, zaxis, zaxis), ops)
        expected = 2.0 * np.kron(np.diag([1.0, -1.0]), ops.s_z)
        assert np.allclose(op, expected, atol=1e-14)

    def test_hermitian_for_random_settings(self, rng):
        ops = build_pseudospin(8)
        for _ in range(10):
            m = bell_operator(random_settings(rng), ops)
            assert np.max(np.abs(m - m.conj().T)) < 1e-13

    def test_spectrum_respects_quantum_bound(self, rng):
        ops = build_pseudospin(8)
        for _ in range(20):
            m = bell_operator(random_settings(rng), ops)
            top = np.max(np.abs(np.linalg.eigvalsh(m)))
            assert top <= TWO_SQRT_TWO + 1e-9


class TestChshValue:
    def test_aligned_product_state_reaches_classical_bound(self):
        dim = mode_dim_for(1.0)
        ops = build_pseudospin(dim)
        state = kron(qubit_state(1.0, 0.0), even_coherent(1.0, dim))
        zaxis = Direction(0.0, 0.0, 1.0)
        val = chsh_expectation(state, ChshSettings(zaxis, zaxis, zaxis, zaxis), ops)
        assert val == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("z", [0.4, 1.0, 2.2])
    def test_matches_in_plane_closed_form(self, z, rng):
        dim = mode_dim_for(z)
        ops = build_pseudospin(dim)
        state = hes_state(HesLabel.PHI_PLUS, z, dim)
        for _ in range(15):
            angles = rng.uniform(0, 2 * math.pi, size=4)
            got = chsh_expectation(state, ChshSettings.in_plane(*angles), ops)
            assert got == pytest.approx(in_plane_closed_form(z, *angles), abs=1e-10)

    def test_cirelson_point_at_zero(self):
        dim = 4
        ops = build_pseudospin(dim)
        state = hes_state(HesLabel.PHI_PLUS, 0.0, dim)
        settings = ChshSettings.in_plane(0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
        assert chsh_expectation(state, settings, ops) == pytest.approx(
            TWO_SQRT_TWO, abs=1e-12
        )

    def test_bound_holds_for_random_states_and_settings(self, rng):
        dim = 8
        ops = build_pseudospin(dim)
        space = SpaceDescriptor.qubit() * SpaceDescriptor.mode(dim)
        for _ in range(30):
            val = chsh_expectation(random_state(space, rng), random_settings(rng), ops)
            assert abs(val) <= TWO_SQRT_TWO + 1e-9

    def test_flipping_mode_settings_flips_the_sign(self, rng):
        dim = 8
        ops = build_pseudospin(dim)
        space = SpaceDescriptor.qubit() * SpaceDescriptor.mode(dim)
        state = random_state(space, rng)
        s = random_settings(rng)
        flipped = ChshSettings(
            s.a,
            s.a_prime,
            Direction(-s.b.nx, -s.b.ny, -s.b.nz),
            Direction(-s.b_prime.nx, -s.b_prime.ny, -s.b_prime.nz),
        )
        assert chsh_expectation(state, flipped, ops) == pytest.approx(
            -chsh_expectation(state, s, ops), abs=1e-12
        )

    def test_correlation_matrix_is_the_bilinear_form(self, rng):
        dim = 8
        ops = build_pseudospin(dim)
        state = random_hybrid(dim, rng)
        m = correlation_matrix(state)
        for _ in range(5):
            s = random_settings(rng)
            a, ap, b, bp = (
                np.array([d.nx, d.ny, d.nz]) for d in (s.a, s.a_prime, s.b, s.b_prime)
            )
            expected = a @ m @ (b + bp) + ap @ m @ (b - bp)
            assert chsh_expectation(state, s, ops) == pytest.approx(expected, abs=1e-12)


class TestAnalyticOptimum:
    def test_zero_z_reaches_cirelson(self):
        res = analytic_optimum(0.0)
        assert res.value == pytest.approx(TWO_SQRT_TWO, abs=1e-12)

    def test_z1_frozen_value(self):
        assert analytic_optimum(1.0).value == pytest.approx(
            VIOLATION_AT_Z1, abs=1e-13
        )

    @pytest.mark.parametrize("z", [0.0, 0.3, 1.0, 1.46, 2.0, 4.0])
    def test_always_violates_classical_bound(self, z):
        assert analytic_optimum(z).value > 2.0

    @pytest.mark.parametrize("label", list(HesLabel))
    @pytest.mark.parametrize("z", [0.0, 0.5, 1.0, 2.0])
    def test_settings_reproduce_value_for_every_label(self, label, z):
        dim = mode_dim_for(z)
        ops = build_pseudospin(dim)
        state = hes_state(label, z, dim)
        res = analytic_optimum(z, label)
        got = chsh_expectation(state, res.settings, ops)
        assert got == pytest.approx(res.value, abs=1e-10)
        assert 2.0 < got <= TWO_SQRT_TWO + 1e-9

    def test_settings_are_in_plane_with_matched_mode_angles(self):
        s = analytic_optimum(1.0).settings
        k = k_series(1.0)
        assert s.b.theta == pytest.approx(math.atan(k), abs=1e-12)
        assert s.b_prime.theta == pytest.approx(math.atan(k), abs=1e-12)
        assert s.b_prime.nx == pytest.approx(-s.b.nx, abs=1e-12)

    # each label's closed-form settings (a, a', b, b') from t = atan k(z)
    SETTINGS_TABLE = {
        HesLabel.PHI_PLUS: lambda t: (0.0, math.pi / 2, t, -t),
        HesLabel.PHI_MINUS: lambda t: (0.0, math.pi / 2, -t, t),
        HesLabel.PSI_PLUS: lambda t: (math.pi, math.pi / 2, t, -t),
        HesLabel.PSI_MINUS: lambda t: (math.pi, -math.pi / 2, t, -t),
    }

    @pytest.mark.parametrize("label", list(HesLabel))
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(z=st.floats(min_value=0.0, max_value=9.0) | st.floats(min_value=9.0, max_value=Z_CAP))
    @example(z=0.0)
    @example(z=Z_CAP)
    def test_settings_are_the_label_table_bit_for_bit(self, label, z):
        expected = ChshSettings.in_plane(*self.SETTINGS_TABLE[label](math.atan(k_series(z))))
        got = analytic_optimum(z, label).settings
        assert got == expected and repr(got) == repr(expected)  # repr tells -0.0 from 0.0

    def test_negative_z_rejected(self):
        with pytest.raises(ValueError):
            analytic_optimum(-0.1)


class TestOptimizeChsh:
    def test_two_qubit_bell_pair_reaches_cirelson(self):
        # a Bell pair with the partner encoded in a two-level mode, as |0>, |1>
        state = bell_pair(HesLabel.PHI_PLUS, QUBIT, Encoding.cat(0.0, 2))
        res = optimize_chsh(state)
        assert res.value == pytest.approx(TWO_SQRT_TWO, abs=1e-6)

    def test_reaches_closed_form_on_hybrid_state(self):
        z = 0.5
        dim = mode_dim_for(z)
        state = hes_state(HesLabel.PHI_PLUS, z, dim)
        res = optimize_chsh(state)
        assert res.value >= analytic_optimum(z).value - 1e-6
        assert res.value <= TWO_SQRT_TWO + 1e-9

    def test_found_settings_reproduce_reported_value(self):
        z = 1.0
        dim = mode_dim_for(z)
        ops = build_pseudospin(dim)
        state = hes_state(HesLabel.PSI_MINUS, z, dim)
        res = optimize_chsh(state)
        assert chsh_expectation(state, res.settings, ops) == pytest.approx(
            res.value, abs=1e-9
        )

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        # about half the examples at z <= 9, where the settings are also
        # checked densely, the rest up to z = 100 (dim 10776)
        z=st.floats(min_value=0.0, max_value=9.0) | st.floats(min_value=9.0, max_value=100.0),
        label=st.sampled_from(list(HesLabel)),
    )
    @example(z=100.0, label=HesLabel.PSI_MINUS)
    def test_equals_closed_form_for_every_z_and_label(self, z, label):
        dim = mode_dim_for(z)
        state = hes_state(label, z, dim)
        res = optimize_chsh(state)
        k = k_series(z)
        assert res.value == pytest.approx(2.0 * math.sqrt(1.0 + k * k), abs=1e-10)
        if dim <= DENSE_DIM_MAX:
            # the kron-built Bell operator, not the SVD, evaluates the settings
            ops = build_pseudospin(dim)
            assert chsh_expectation(state, res.settings, ops) == pytest.approx(
                res.value, abs=1e-10
            )
        assert 2.0 < res.value <= TWO_SQRT_TWO + 1e-9

    def test_no_random_settings_beat_the_maximum(self, rng):
        dim = 10
        ops = build_pseudospin(dim)
        for _ in range(4):
            state = random_hybrid(dim, rng)
            res = optimize_chsh(state)
            assert chsh_expectation(state, res.settings, ops) == pytest.approx(
                res.value, abs=1e-10
            )
            for _ in range(50):
                assert chsh_expectation(state, random_settings(rng), ops) <= res.value + 1e-12
            # nor do small rotations of the returned settings: it is a maximum,
            # not a saddle, of the expectation
            s = res.settings
            for _ in range(20):
                nudged = ChshSettings(
                    *(nudge(d, rng) for d in (s.a, s.a_prime, s.b, s.b_prime))
                )
                assert chsh_expectation(state, nudged, ops) <= res.value + 1e-12

    def test_product_states_stay_classical(self, rng):
        dim = 8
        for _ in range(6):
            state = tensor(QUBIT.state(*random_qubit_pair(rng)),
                           random_cat(dim, rng).state(*random_qubit_pair(rng)))
            res = optimize_chsh(state)
            assert res.value <= 2.0 + 1e-6

    def test_space_mismatch_rejected(self):
        qubit, cat = Encoding.qubit(), Encoding.cat(0.5, 10)
        for state in (
            bell_pair(HesLabel.PHI_PLUS, cat, qubit),
            bell_pair(ParityBellLabel.PSI_MINUS, cat, cat),
            bell_pair(HesLabel.PHI_PLUS, qubit, qubit),
            qubit.state(1.0, 0.0),
        ):
            with pytest.raises(ValueError, match="is not qubit⊗mode"):
                optimize_chsh(state)

    @pytest.mark.parametrize("label", list(HesLabel))
    def test_correlation_matrix_matches_the_dense_one(self, label):
        # at the state's own mode dimension and at a larger one
        for z in np.linspace(0.0, 9.0, 46):
            dim = mode_dim_for(z)
            for d in (dim, dim + 6):
                state = hes_state(label, float(z), d)
                got, expected = correlation_matrix(state), dense_correlation_matrix(state)
                assert np.max(np.abs(got - expected)) <= DENSE_AGREEMENT_TOL, (z, d)

    def test_correlation_matrix_of_random_states_is_the_dense_one(self, rng):
        # random coefficients over cat encodings, plain and flipped
        for dim in (2, 4, 10, 36):
            for _ in range(4):
                state = random_hybrid(dim, rng)
                got, expected = correlation_matrix(state), dense_correlation_matrix(state)
                assert np.max(np.abs(got - expected)) <= DENSE_AGREEMENT_TOL, dim

    @pytest.mark.parametrize("z", [0.0, 0.3, 1.0, 2.5, 5.0, 9.0, 15.0, 22.0, 30.0])
    def test_every_entry_it_sums_is_real_bit_for_bit(self, z, rng, monkeypatch):
        # so correlation_matrix returns each entry's real part, with nothing
        # dropped: over random states on the plain and the flipped cat, every
        # sum it takes has an imaginary part of exactly 0
        sums = []

        def recorded(terms):
            sums.append(sum(terms))
            return sums[-1]

        monkeypatch.setattr(hesim.bellchsh, "sum", recorded, raising=False)
        cat = Encoding.cat(z, mode_dim_for(z))
        for enc in (cat, cat.flip()):
            for _ in range(50):
                got = correlation_matrix(random_logical((QUBIT, enc), rng))
                assert [x for row in got for x in row] == [x.real for x in sums[-9:]]
        assert len(sums) == 2 * 50 * 9 and all(x.imag == 0.0 for x in sums)

    @pytest.mark.parametrize("label", list(HesLabel))
    def test_on_hybrid_pairs_it_is_numpys_route_bit_for_bit(self, label):
        # the correlation matrix by numpy's matrix products, and the settings
        # by LAPACK's SVD: a diagonal of entries k, k and 1, whose tie the
        # later axis wins; only k = 1 (z = 0), where all three tie, differs
        for z in np.linspace(0.02, 9.0, 46):
            state = hes_state(label, float(z), mode_dim_for(z))
            assert np.array_equal(correlation_matrix(state), numpy_correlation_matrix(state))
            result = optimize_chsh(state)
            value, settings = lapack_optimize_chsh(state)
            assert result.value == value, z
            for got, expected in zip(
                    (result.settings.a, result.settings.a_prime, result.settings.b,
                     result.settings.b_prime), settings):
                assert [got.nx, got.ny, got.nz] == expected.tolist(), z

    def test_product_states_get_an_orthonormal_pair_of_qubit_settings(self, rng):
        # the correlation matrix has rank one, so u2 belongs to a zero
        # singular value and only completes the pair
        for dim in (2, 4, 10):
            for _ in range(6):
                state = tensor(QUBIT.state(*random_qubit_pair(rng)),
                               random_cat(dim, rng).state(*random_qubit_pair(rng)))
                result = optimize_chsh(state)
                a, ap = (np.array([d.nx, d.ny, d.nz]) for d in
                         (result.settings.a, result.settings.a_prime))
                assert abs(a @ ap) <= SVD_AGREEMENT_TOL
                assert abs(result.value - lapack_optimize_chsh(state)[0]) <= SVD_AGREEMENT_TOL
                b, bp = (np.array([d.nx, d.ny, d.nz]) for d in
                         (result.settings.b, result.settings.b_prime))
                assert np.max(np.abs(b - bp)) <= SVD_AGREEMENT_TOL

    def test_correlation_matrix_memory_is_linear_in_dim(self):
        # at z = 30 (dim 1140) one dense pseudospin matrix takes 20.8 MB
        z = 30.0
        state = hes_state(HesLabel.PHI_PLUS, z, mode_dim_for(z))
        assert state.space.dims == (2, 1140)
        tracemalloc.start()
        try:
            correlation_matrix(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 16 * state.space.dim


class TestChshResult:
    def test_rejects_superquantum_value(self):
        s = ChshSettings.in_plane(0.0, 1.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            ChshResult(value=3.0, settings=s)

    @pytest.mark.parametrize("value", [TWO_SQRT_TWO + 1e-10, -TWO_SQRT_TWO - 1e-10, math.nan],
                             ids=["above", "below", "nan"])
    def test_rejects_a_value_past_the_bound_a_state_allows(self, value):
        s = ChshSettings.in_plane(0.0, 1.0, 2.0, 3.0)
        with pytest.raises(ValueError, match="not within the quantum bound"):
            ChshResult(value=value, settings=s)

    @pytest.mark.parametrize("norm", NORMS_AT_THE_BOUND)
    def test_a_hybrid_pair_at_its_norm_bound_is_optimized(self, norm):
        # at z = 0, k = 1 and the pair reaches 2*sqrt(2) times its squared norm
        result = optimize_chsh(at_norm(hes_state(HesLabel.PHI_PLUS, 0.0, 4), norm))
        assert abs(result.value - TWO_SQRT_TWO * norm**2) <= 1e-15
        assert abs(result.value - TWO_SQRT_TWO) > 5.5e-12
