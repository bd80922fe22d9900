"""Schmidt decomposition and von Neumann entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hesim import (
    Bipartition,
    HesLabel,
    ParityBellLabel,
    SchmidtSpectrum,
    SpaceDescriptor,
    SpinBellLabel,
    entanglement_entropy,
    even_coherent,
    hes_state,
    mode_dim_for,
    parity_bell_state,
    qubit_state,
    schmidt_coefficients,
    spin_bell_state,
    tensor,
)

from conftest import number_state, random_state
from oracles import entropy_from_reduced_density

SQRT_HALF = 1.0 / math.sqrt(2.0)
Z_GRID = [0.1, 0.5, 1.0, 2.0]


def first_factor_cut(state):
    return Bipartition.of(state.space, {0})


class TestSchmidt:
    def test_product_state_is_rank_one(self):
        st = tensor(qubit_state(1.0, 0.0), number_state(0, 4))
        spec = schmidt_coefficients(st, first_factor_cut(st))
        assert spec.coefficients[0] == pytest.approx(1.0, abs=1e-12)
        assert all(c < 1e-12 for c in spec.coefficients[1:])

    def test_bell_state_spectrum(self):
        st = spin_bell_state(SpinBellLabel.PHI_PLUS)
        spec = schmidt_coefficients(st, first_factor_cut(st))
        assert np.allclose(spec.coefficients, [SQRT_HALF, SQRT_HALF], atol=1e-12)

    @pytest.mark.parametrize("z", Z_GRID)
    def test_hybrid_state_spectrum_matches_bell_pair(self, z):
        dim = mode_dim_for(z, 1e-14)
        st = hes_state(HesLabel.PHI_PLUS, z, dim)
        spec = schmidt_coefficients(st, first_factor_cut(st))
        assert spec.coefficients[0] == pytest.approx(SQRT_HALF, abs=1e-10)
        assert spec.coefficients[1] == pytest.approx(SQRT_HALF, abs=1e-10)
        assert all(c < 1e-10 for c in spec.coefficients[2:])

    def test_descending_order(self, rng):
        space = SpaceDescriptor.qubit() * SpaceDescriptor.mode(6)
        spec = schmidt_coefficients(random_state(space, rng), Bipartition.of(space, {0}))
        assert list(spec.coefficients) == sorted(spec.coefficients, reverse=True)


class TestEntropy:
    @pytest.mark.parametrize("label", list(HesLabel))
    @pytest.mark.parametrize("z", Z_GRID + [0.7])
    def test_one_ebit_for_hybrid_states(self, label, z):
        dim = mode_dim_for(z, 1e-14)
        st = hes_state(label, z, dim)
        assert entanglement_entropy(st, first_factor_cut(st)) == pytest.approx(
            1.0, abs=1e-10
        )

    @pytest.mark.parametrize("label", list(ParityBellLabel))
    @pytest.mark.parametrize("z,zp", [(0.1, 2.0), (0.5, 0.5), (1.0, 0.1), (2.0, 1.0)])
    def test_one_ebit_for_entangled_cat_pairs(self, label, z, zp):
        dim = max(mode_dim_for(z, 1e-14), mode_dim_for(zp, 1e-14))
        st = parity_bell_state(label, z, zp, dim)
        assert entanglement_entropy(st, first_factor_cut(st)) == pytest.approx(
            1.0, abs=1e-10
        )

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(label=st.sampled_from(list(HesLabel)), z=st.floats(min_value=0.0, max_value=6.0))
    def test_one_ebit_for_every_hybrid_state(self, label, z):
        state = hes_state(label, z, mode_dim_for(z, 1e-14))
        assert abs(entanglement_entropy(state, first_factor_cut(state)) - 1.0) <= 1e-10

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        label=st.sampled_from(list(ParityBellLabel)),
        z=st.floats(min_value=0.0, max_value=4.0),
        zp=st.floats(min_value=0.0, max_value=4.0),
    )
    def test_one_ebit_for_every_parity_bell_state(self, label, z, zp):
        dim = max(mode_dim_for(z, 1e-14), mode_dim_for(zp, 1e-14))
        state = parity_bell_state(label, z, zp, dim)
        assert abs(entanglement_entropy(state, first_factor_cut(state)) - 1.0) <= 1e-10

    def test_product_state_has_zero_entropy(self):
        st = tensor(qubit_state(SQRT_HALF, SQRT_HALF * 1j), even_coherent(1.0, 18))
        assert entanglement_entropy(st, first_factor_cut(st)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_symmetric_under_side_swap(self, rng):
        space = SpaceDescriptor.qubit() * SpaceDescriptor.mode(8)
        st = random_state(space, rng)
        cut = Bipartition.of(space, {0})
        swapped = Bipartition(cut.side_b, cut.side_a)
        assert entanglement_entropy(st, cut) == pytest.approx(
            entanglement_entropy(st, swapped), abs=1e-10
        )

    def test_two_routes_agree(self, rng):
        space = (
            SpaceDescriptor.qubit()
            * SpaceDescriptor.mode(4)
            * SpaceDescriptor.mode(6)
        )
        for _ in range(8):
            st = random_state(space, rng)
            for keep in ({0}, {1}, {0, 2}):
                cut = Bipartition.of(space, keep)
                via_schmidt = entanglement_entropy(st, cut)
                via_density = entropy_from_reduced_density(st, keep)
                assert via_schmidt == pytest.approx(via_density, abs=1e-9)

    def test_qubit_cut_cannot_exceed_one_ebit(self, rng):
        space = SpaceDescriptor.qubit() * SpaceDescriptor.mode(10)
        for _ in range(10):
            st = random_state(space, rng)
            ent = entanglement_entropy(st, Bipartition.of(space, {0}))
            assert -1e-12 <= ent <= 1.0 + 1e-12


class TestValidation:
    def test_bipartition_must_cover_the_space(self):
        space = (
            SpaceDescriptor.qubit()
            * SpaceDescriptor.mode(4)
            * SpaceDescriptor.mode(4)
        )
        st = tensor(
            tensor(qubit_state(1.0, 0.0), number_state(0, 4)), number_state(1, 4)
        )
        with pytest.raises(ValueError, match="cover"):
            schmidt_coefficients(st, Bipartition(frozenset({0}), frozenset({1})))

    def test_sides_must_be_disjoint_and_nonempty(self):
        with pytest.raises(ValueError):
            Bipartition(frozenset(), frozenset({1}))
        with pytest.raises(ValueError):
            Bipartition(frozenset({0, 1}), frozenset({1, 2}))

    def test_spectrum_validates_normalization(self):
        with pytest.raises(ValueError):
            SchmidtSpectrum((0.9, 0.9))
        with pytest.raises(ValueError):
            SchmidtSpectrum((0.3, 0.9539392014169456))  # not descending
