"""CHSH expectations, closed-form and numerical optima.

Expectations are evaluated by the kron-built Bell operator of ``oracles``,
independently of the correlation matrix the package maximizes.
"""

import ast
import itertools
import math
import re
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
    SpinBellLabel,
    analytic_optimum,
    correlation_matrix,
    bell_pair,
    even_coherent,
    hes_state,
    k_series,
    mode_dim_for,
    optimize_chsh,
    swap_entanglement,
    tensor,
)

import hesim.bellchsh

from conftest import (NORMS_AT_THE_BOUND, Z_CAP, at_norm, random_cat, random_logical,
                      random_qubit_pair, random_state)
from oracles import (
    DENSE_AGREEMENT_TOL,
    SVD_AGREEMENT_TOL,
    SWAP_PAIRING,
    bell_operator,
    bell_value,
    build_pseudospin,
    chsh_expectation,
    dense_correlation_matrix,
    direction,
    elementwise_correlation_matrix,
    kron,
    lapack_optimize_chsh,
    numpy_correlation_matrix,
    party_pseudospin,
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
        op = bell_operator(ChshSettings(zaxis, zaxis, zaxis, zaxis),
                           SpaceDescriptor.qubit() * SpaceDescriptor.mode(6))
        expected = 2.0 * np.kron(np.diag([1.0, -1.0]), ops.s_z)
        assert np.allclose(op, expected, atol=1e-14)

    def test_hermitian_for_random_settings(self, rng):
        space = SpaceDescriptor.qubit() * SpaceDescriptor.mode(8)
        for _ in range(10):
            m = bell_operator(random_settings(rng), space)
            assert np.max(np.abs(m - m.conj().T)) < 1e-13

    def test_spectrum_respects_quantum_bound(self, rng):
        space = SpaceDescriptor.qubit() * SpaceDescriptor.mode(8)
        for _ in range(20):
            m = bell_operator(random_settings(rng), space)
            top = np.max(np.abs(np.linalg.eigvalsh(m)))
            assert top <= TWO_SQRT_TWO + 1e-9

    @pytest.mark.parametrize("space", [
        SpaceDescriptor.mode(6) * SpaceDescriptor.qubit(),
        SpaceDescriptor.mode(4) * SpaceDescriptor.mode(6),
        SpaceDescriptor.qubit() * SpaceDescriptor.qubit(),
    ], ids=lambda space: space.describe())
    def test_on_the_other_kind_orders_it_is_a_bounded_kron_of_the_parties(self, space, rng):
        # aligned settings give twice the kron of the two parities; random
        # ones a Hermitian operator within Cirel'son's bound
        zaxis = Direction(0.0, 0.0, 1.0)
        op = bell_operator(ChshSettings(zaxis, zaxis, zaxis, zaxis), space)
        parity_a, parity_b = (party_pseudospin(space, index)[2] for index in (0, 1))
        assert np.allclose(op, 2.0 * np.kron(parity_a, parity_b), atol=1e-14)
        for _ in range(20):
            m = bell_operator(random_settings(rng), space)
            assert np.max(np.abs(m - m.conj().T)) < 1e-13
            assert np.max(np.abs(np.linalg.eigvalsh(m))) <= TWO_SQRT_TWO + 1e-9


class TestChshValue:
    def test_aligned_product_state_reaches_classical_bound(self):
        dim = mode_dim_for(1.0)
        state = kron(qubit_state(1.0, 0.0), even_coherent(1.0, dim))
        zaxis = Direction(0.0, 0.0, 1.0)
        val = chsh_expectation(state, ChshSettings(zaxis, zaxis, zaxis, zaxis))
        assert val == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("z", [0.4, 1.0, 2.2])
    def test_matches_in_plane_closed_form(self, z, rng):
        dim = mode_dim_for(z)
        state = hes_state(HesLabel.PHI_PLUS, z, dim)
        for _ in range(15):
            angles = rng.uniform(0, 2 * math.pi, size=4)
            got = chsh_expectation(state, ChshSettings.in_plane(*angles))
            assert got == pytest.approx(in_plane_closed_form(z, *angles), abs=1e-10)

    def test_cirelson_point_at_zero(self):
        dim = 4
        state = hes_state(HesLabel.PHI_PLUS, 0.0, dim)
        settings = ChshSettings.in_plane(0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
        assert chsh_expectation(state, settings) == pytest.approx(
            TWO_SQRT_TWO, abs=1e-12
        )

    def test_bound_holds_for_random_states_and_settings(self, rng):
        dim = 8
        space = SpaceDescriptor.qubit() * SpaceDescriptor.mode(dim)
        for _ in range(30):
            val = chsh_expectation(random_state(space, rng), random_settings(rng))
            assert abs(val) <= TWO_SQRT_TWO + 1e-9

    def test_flipping_mode_settings_flips_the_sign(self, rng):
        dim = 8
        space = SpaceDescriptor.qubit() * SpaceDescriptor.mode(dim)
        state = random_state(space, rng)
        s = random_settings(rng)
        flipped = ChshSettings(
            s.a,
            s.a_prime,
            Direction(-s.b.nx, -s.b.ny, -s.b.nz),
            Direction(-s.b_prime.nx, -s.b_prime.ny, -s.b_prime.nz),
        )
        assert chsh_expectation(state, flipped) == pytest.approx(
            -chsh_expectation(state, s), abs=1e-12
        )

    def test_correlation_matrix_is_the_bilinear_form(self, rng):
        dim = 8
        state = random_hybrid(dim, rng)
        m = correlation_matrix(state)
        for _ in range(5):
            s = random_settings(rng)
            a, ap, b, bp = (
                np.array([d.nx, d.ny, d.nz]) for d in (s.a, s.a_prime, s.b, s.b_prime)
            )
            expected = a @ m @ (b + bp) + ap @ m @ (b - bp)
            assert chsh_expectation(state, s) == pytest.approx(expected, abs=1e-12)


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
        state = hes_state(label, z, dim)
        res = analytic_optimum(z, label)
        got = chsh_expectation(state, res.settings)
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

    @pytest.mark.parametrize("label", [*ParityBellLabel, *SpinBellLabel, "phi+"], ids=str)
    def test_a_label_of_another_family_is_refused(self, label):
        with pytest.raises(TypeError, match=re.escape(repr(label))):
            analytic_optimum(1.0, label)

    def test_another_family_has_another_optimum(self):
        # why the refusal: the closed form is the hybrid pair's alone
        cat, qubit = Encoding.cat(1.0, 18), Encoding.qubit()
        hybrid = analytic_optimum(1.0, HesLabel.PSI_MINUS).value
        assert optimize_chsh(bell_pair(HesLabel.PSI_MINUS, qubit, cat)).value == pytest.approx(
            hybrid, abs=1e-14)
        assert hybrid - optimize_chsh(bell_pair(ParityBellLabel.PSI_MINUS, cat, cat)).value > 0.03
        spins = optimize_chsh(bell_pair(SpinBellLabel.PSI_MINUS, qubit, qubit)).value
        assert spins == pytest.approx(TWO_SQRT_TWO, abs=1e-14) and spins - hybrid > 0.04


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
        state = hes_state(HesLabel.PSI_MINUS, z, dim)
        res = optimize_chsh(state)
        assert chsh_expectation(state, res.settings) == pytest.approx(
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
            assert chsh_expectation(state, res.settings) == pytest.approx(
                res.value, abs=1e-10
            )
        assert 2.0 < res.value <= TWO_SQRT_TWO + 1e-9

    def test_no_random_settings_beat_the_maximum(self, rng):
        dim = 10
        for _ in range(4):
            state = random_hybrid(dim, rng)
            res = optimize_chsh(state)
            assert chsh_expectation(state, res.settings) == pytest.approx(
                res.value, abs=1e-10
            )
            for _ in range(50):
                assert chsh_expectation(state, random_settings(rng)) <= res.value + 1e-12
            # nor do small rotations of the returned settings: it is a maximum,
            # not a saddle, of the expectation
            s = res.settings
            for _ in range(20):
                nudged = ChshSettings(
                    *(nudge(d, rng) for d in (s.a, s.a_prime, s.b, s.b_prime))
                )
                assert chsh_expectation(state, nudged) <= res.value + 1e-12

    def test_product_states_stay_classical(self, rng):
        dim = 8
        for _ in range(6):
            state = tensor(QUBIT.state(*random_qubit_pair(rng)),
                           random_cat(dim, rng).state(*random_qubit_pair(rng)))
            res = optimize_chsh(state)
            assert res.value <= 2.0 + 1e-6

    def test_every_pair_is_taken_and_any_other_party_count_refused(self):
        # the cat first, two cats and two qubits reach 2 sqrt(1 + (k_a k_b)^2),
        # k = 1 on a qubit; a state of one or three parties is no pair
        qubit, cat = Encoding.qubit(), Encoding.cat(0.5, 10)
        for state, kk in (
            (bell_pair(HesLabel.PHI_PLUS, cat, qubit), cat.k),
            (bell_pair(ParityBellLabel.PSI_MINUS, cat, cat), cat.k * cat.k),
            (bell_pair(SpinBellLabel.PHI_PLUS, qubit, qubit), 1.0),
        ):
            assert abs(optimize_chsh(state).value - 2.0 * math.sqrt(1.0 + kk * kk)) <= 1e-14
        for state, parties in ((qubit.state(1.0, 0.0), 1),
                               (tensor(qubit.state(1.0, 0.0), hes_state(HesLabel.PSI_MINUS, 0.5, 10)), 3)):
            for analysis in (correlation_matrix, optimize_chsh):
                with pytest.raises(ValueError, match=f"^CHSH needs two parties, the state has {parties}$"):
                    analysis(state)

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
        # so correlation_matrix returns each entry's real part, scaled by the
        # parties' k, with nothing dropped: over random pairs of every kind
        # order, on the plain and the flipped cat, every sum it takes has an
        # imaginary part of exactly 0
        sums = []

        def recorded(terms):
            sums.append(sum(terms))
            return sums[-1]

        monkeypatch.setattr(hesim.bellchsh, "sum", recorded, raising=False)
        cat = Encoding.cat(z, mode_dim_for(z))
        encodings = (QUBIT, cat, cat.flip())
        for enc_a, enc_b in itertools.product(encodings, repeat=2):
            scales_a, scales_b = ((enc.k, enc.k, 1.0) for enc in (enc_a, enc_b))
            for _ in range(50):
                got = correlation_matrix(random_logical((enc_a, enc_b), rng))
                scaled = [x.real * scales_a[i // 3] * scales_b[i % 3]
                          for i, x in enumerate(sums[-9:])]
                assert [x for row in got for x in row] == scaled
        assert len(sums) == 9 * 50 * 9 and all(x.imag == 0.0 for x in sums)

    @pytest.mark.parametrize("z", [0.0, 0.3, 1.0, 2.5, 5.0, 9.0, 15.0, 22.0, 30.0])
    def test_on_qubit_and_mode_it_is_the_elementwise_route_bit_for_bit(self, z, rng):
        # k applied to each real entry gives the bits of (k sigma_x, k sigma_y,
        # sigma_z) on the mode inside the sums: an x or y entry sums a term
        # and its exact conjugate, and 2 (r k) = (2 r) k
        cat = Encoding.cat(z, mode_dim_for(z))
        for enc in (cat, cat.flip()):
            for _ in range(50):
                state = random_logical((QUBIT, enc), rng)
                expected = [[x.real for x in row] for row in elementwise_correlation_matrix(state)]
                assert [list(row) for row in correlation_matrix(state)] == expected

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


class TestEveryBellPair:
    """CHSH of every Bell family, of either kind order, and of the cat pair
    that swapping leaves: 2 sqrt(1 + (k_a k_b)^2) with each party's own k,
    1 on a qubit, so 2 sqrt(2) on a spin pair (Horodecki, Horodecki &
    Horodecki, Phys. Lett. A 200, 340 (1995))."""

    @staticmethod
    def closed_form(state) -> float:
        k_a, k_b = (enc.k for enc in state.encodings)
        return 2.0 * math.sqrt(1.0 + (k_a * k_b) ** 2)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(z=st.floats(min_value=0.0, max_value=9.0),
           z_prime=st.floats(min_value=0.0, max_value=9.0),
           label=st.sampled_from([*SpinBellLabel, *HesLabel, *ParityBellLabel]))
    @example(z=0.0, z_prime=0.0, label=ParityBellLabel.PSI_MINUS)
    @example(z=9.0, z_prime=9.0, label=ParityBellLabel.PHI_MINUS)
    def test_optimum_is_the_closed_form_and_the_label_settings_reach_it(self, z, z_prime, label):
        cat, cat_prime = (Encoding.cat(x, mode_dim_for(x)) for x in (z, z_prime))
        pairs = {SpinBellLabel: [(QUBIT, QUBIT)],
                 HesLabel: [(QUBIT, cat), (cat_prime.flip(), QUBIT)],
                 ParityBellLabel: [(cat, cat_prime), (cat.flip(), cat_prime)]}[type(label)]
        for enc_a, enc_b in pairs:
            state = bell_pair(label, enc_a, enc_b)
            expected = self.closed_form(state)
            result = optimize_chsh(state)
            assert abs(result.value - expected) <= 1e-14
            if isinstance(label, SpinBellLabel):
                assert abs(result.value - TWO_SQRT_TWO) <= 1e-14
            # the settings, and the label's closed-form ones, on the dense matrix
            m = dense_correlation_matrix(state)
            assert abs(bell_value(m, result.settings) - expected) <= 1e-14
            k_a, k_b = (enc.k for enc in state.encodings)
            settings_for = hesim.bellchsh._settings_for(k_a * k_b, label)
            assert abs(bell_value(m, settings_for) - expected) <= 1e-14

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(z=st.floats(min_value=0.0, max_value=9.0),
           z_prime=st.floats(min_value=0.0, max_value=9.0))
    @example(z=0.0, z_prime=0.0)
    def test_every_swap_branch_leaves_the_partnered_cat_pair_at_its_closed_form(
            self, z, z_prime):
        # an extension of the paper: the modes hold one ebit after the swap,
        # yet violate CHSH less than either hybrid pair
        table = swap_entanglement(z, z_prime, mode_dim_for(max(z, z_prime)))
        assert len(table) == 4
        k_k = k_series(z) * k_series(z_prime)
        for outcome, _, record in table:
            state = record.output_state
            expected = self.closed_form(state)
            assert abs(optimize_chsh(state).value - expected) <= 1e-14
            assert abs(expected - 2.0 * math.sqrt(1.0 + k_k * k_k)) <= 1e-14
            assert expected <= min(analytic_optimum(x).value for x in (z, z_prime)) + 1e-14
            k_a, k_b = (enc.k for enc in state.encodings)
            settings_for = hesim.bellchsh._settings_for(k_a * k_b, SWAP_PAIRING[outcome])
            assert abs(bell_value(np.array(correlation_matrix(state)), settings_for)
                       - expected) <= 1e-14

    @pytest.mark.parametrize("kinds", [("qubit", "mode"), ("mode", "qubit"), ("mode", "mode"),
                                       ("qubit", "qubit")], ids="_".join)
    def test_random_pairs_match_the_dense_oracles(self, kinds, rng):
        # random coefficients over random cats, plain and flipped, at mode dims
        # up to DENSE_DIM_MAX; the kron-built Bell operator evaluates the
        # optimum's settings where it fits, up to the size of qubit x
        # mode(DENSE_DIM_MAX), and past it the dense correlation matrix does
        for dim in (2, 4, 16, DENSE_DIM_MAX):
            for _ in range(4):
                state = random_logical(
                    [QUBIT if kind == "qubit" else random_cat(dim, rng) for kind in kinds], rng)
                got, expected = correlation_matrix(state), dense_correlation_matrix(state)
                assert np.max(np.abs(np.array(got) - expected)) <= DENSE_AGREEMENT_TOL, dim
                result = optimize_chsh(state)
                if state.space.dim <= 2 * DENSE_DIM_MAX:
                    value = chsh_expectation(state, result.settings)
                else:
                    value = bell_value(expected, result.settings)
                assert abs(value - result.value) <= 1e-12, dim


class TestChshSettings:
    @pytest.mark.parametrize("slot", range(4), ids=ChshSettings._fields)
    @pytest.mark.parametrize("bad", [1, None, (0.0, 0.0, 1.0)], ids=repr)
    def test_refuses_a_setting_that_is_no_direction(self, slot, bad):
        # by the setting's name
        dirs = [Direction(0.0, 0.0, 1.0)] * 4
        dirs[slot] = bad
        message = f"{ChshSettings._fields[slot]} must be Direction, got {bad!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            ChshSettings(*dirs)

    def test_refuses_four_integers(self):
        with pytest.raises(TypeError, match="^a must be Direction, got 1$"):
            ChshSettings(1, 2, 3, 4)


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
