"""Schmidt decomposition and von Neumann entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tracemalloc

from hesim import (
    Encoding,
    HesLabel,
    ParityBellLabel,
    SchmidtSpectrum,
    SpinBellLabel,
    entanglement_entropy,
    hes_state,
    mode_dim_for,
    parity_bell_state,
    schmidt_coefficients,
    spin_bell_state,
    tensor,
)

from conftest import (NORMS_AT_THE_BOUND, assert_leads_the_dense_spectrum, at_norm, random_cat,
                      random_logical)
from oracles import SVD_AGREEMENT_TOL, dense_schmidt, entropy_from_reduced_density, numpy_schmidt

QUBIT = Encoding.qubit()

SQRT_HALF = 1.0 / math.sqrt(2.0)
Z_GRID = [0.1, 0.5, 1.0, 2.0]
Z_LARGE = st.floats(min_value=3.0, max_value=9.0)  # the benchmark's cutoff_sweep range


def cli_dim(*zs):
    """The CLI's adaptive cutoff for a state at amplitudes zs."""
    return max(mode_dim_for(z) for z in zs)


def assert_one_ebit(state):
    assert abs(entanglement_entropy(state, {0}) - 1.0) <= 1e-10


class TestSchmidt:
    def test_product_state_is_rank_one(self):
        st = tensor(QUBIT.state(1.0, 0.0), Encoding.cat(0.0, 4).state(1.0, 0.0))
        spec = schmidt_coefficients(st, {0})
        assert spec.coefficients[0] == pytest.approx(1.0, abs=1e-12)
        assert all(c < 1e-12 for c in spec.coefficients[1:])

    def test_bell_state_spectrum(self):
        st = spin_bell_state(SpinBellLabel.PHI_PLUS)
        spec = schmidt_coefficients(st, {0})
        assert np.allclose(spec.coefficients, [SQRT_HALF, SQRT_HALF], atol=1e-12)

    @pytest.mark.parametrize("z", Z_GRID)
    def test_hybrid_state_spectrum_matches_bell_pair(self, z):
        dim = mode_dim_for(z)
        st = hes_state(HesLabel.PHI_PLUS, z, dim)
        spec = schmidt_coefficients(st, {0})
        assert spec.coefficients[0] == pytest.approx(SQRT_HALF, abs=1e-10)
        assert spec.coefficients[1] == pytest.approx(SQRT_HALF, abs=1e-10)
        assert all(c < 1e-10 for c in spec.coefficients[2:])

    def test_descending_order(self, rng):
        st = random_logical((QUBIT, random_cat(6, rng)), rng)
        spec = schmidt_coefficients(st, {0})
        assert list(spec.coefficients) == sorted(spec.coefficients, reverse=True)

    @pytest.mark.parametrize("z,zp", [(0.5, 0.5), (1.0, 3.0), (9.0, 7.25)])
    def test_list_is_the_leading_values_of_the_dense_spectrum(self, z, zp):
        # a pair's list has 2 entries where the dense spectrum has dim
        dim = cli_dim(z, zp)
        st = parity_bell_state(ParityBellLabel.PSI_MINUS, z, zp, dim)
        spec = schmidt_coefficients(st, {0})
        assert_leads_the_dense_spectrum(spec.coefficients, dense_schmidt(st, [0]), 2, {0}, 1e-10)
        assert len(schmidt_coefficients(hes_state(HesLabel.PHI_MINUS, z, dim), {1}).coefficients) == 2

    def test_three_party_cut_is_the_svd_of_the_coefficients(self, rng):
        encodings = (QUBIT, random_cat(4, rng), random_cat(6, rng))
        for _ in range(8):
            st = random_logical(encodings, rng)
            for side in ({0}, {1}, {0, 2}):
                got = schmidt_coefficients(st, side).coefficients
                assert_leads_the_dense_spectrum(got, dense_schmidt(st, side), 3, side, 1e-12)

    def test_every_cut_of_four_parties_is_lapacks(self, rng):
        # 2 x 8, 4 x 4 and 8 x 2 coefficient matrices, as a swap's joint state has
        encodings = (QUBIT, random_cat(4, rng), QUBIT, random_cat(6, rng))
        for _ in range(6):
            st = random_logical(encodings, rng)
            for side in ({0}, {1, 3}, {0, 1, 2}, {2}):
                got = schmidt_coefficients(st, side).coefficients
                assert np.max(np.abs(np.array(got) - numpy_schmidt(st, side))) <= SVD_AGREEMENT_TOL


class TestEntropy:
    def test_leading_square_rounded_above_one_gives_zero(self):
        # the spectrum of `hesim entropy "product:z=0.5" --dim 10`
        assert SchmidtSpectrum((1.0000000000000002, 0.0)).entropy() == 0.0

    @pytest.mark.parametrize("label", list(HesLabel))
    @pytest.mark.parametrize("z", Z_GRID + [0.7])
    def test_one_ebit_for_hybrid_states(self, label, z):
        dim = mode_dim_for(z)
        st = hes_state(label, z, dim)
        assert entanglement_entropy(st, {0}) == pytest.approx(
            1.0, abs=1e-10
        )

    @pytest.mark.parametrize("label", list(ParityBellLabel))
    @pytest.mark.parametrize("z,zp", [(0.1, 2.0), (0.5, 0.5), (1.0, 0.1), (2.0, 1.0)])
    def test_one_ebit_for_entangled_cat_pairs(self, label, z, zp):
        dim = max(mode_dim_for(z), mode_dim_for(zp))
        st = parity_bell_state(label, z, zp, dim)
        assert entanglement_entropy(st, {0}) == pytest.approx(
            1.0, abs=1e-10
        )

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(label=st.sampled_from(list(HesLabel)), z=st.floats(min_value=0.0, max_value=6.0))
    def test_one_ebit_for_every_hybrid_state(self, label, z):
        assert_one_ebit(hes_state(label, z, cli_dim(z)))

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(label=st.sampled_from(list(HesLabel)), z=Z_LARGE)
    def test_one_ebit_for_every_hybrid_state_at_large_z(self, label, z):
        assert_one_ebit(hes_state(label, z, cli_dim(z)))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        label=st.sampled_from(list(ParityBellLabel)),
        z=st.floats(min_value=0.0, max_value=4.0),
        zp=st.floats(min_value=0.0, max_value=4.0),
    )
    def test_one_ebit_for_every_parity_bell_state(self, label, z, zp):
        assert_one_ebit(parity_bell_state(label, z, zp, cli_dim(z, zp)))

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(label=st.sampled_from(list(ParityBellLabel)), z=Z_LARGE, zp=Z_LARGE)
    def test_one_ebit_for_every_parity_bell_state_at_large_z(self, label, z, zp):
        assert_one_ebit(parity_bell_state(label, z, zp, cli_dim(z, zp)))

    def test_product_state_has_zero_entropy(self):
        st = tensor(QUBIT.state(SQRT_HALF, SQRT_HALF * 1j), Encoding.cat(1.0, 18).state(1.0, 0.0))
        assert entanglement_entropy(st, {0}) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_under_side_swap(self, rng):
        st = random_logical((QUBIT, random_cat(8, rng)), rng)
        assert entanglement_entropy(st, {0}) == pytest.approx(
            entanglement_entropy(st, {1}), abs=1e-10
        )

    def test_two_routes_agree(self, rng):
        encodings = (QUBIT, random_cat(4, rng), random_cat(6, rng))
        for _ in range(8):
            st = random_logical(encodings, rng)
            for keep in ({0}, {1}, {0, 2}):
                via_schmidt = entanglement_entropy(st, keep)
                via_density = entropy_from_reduced_density(st, keep)
                assert via_schmidt == pytest.approx(via_density, abs=1e-9)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(parties=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_list_has_one_entry_per_row_of_the_smaller_side(self, parties, seed, data):
        # whatever the parties' dims: the coefficient tensor has 2 rows per party
        rng = np.random.default_rng(seed)
        pool = (QUBIT, random_cat(4, rng), Encoding.cat(1.3, 20), Encoding.cat(4.0, 56))
        st_ = random_logical([pool[i] for i in rng.integers(0, len(pool), parties)], rng)
        side = data.draw(st.sets(st.integers(0, parties - 1), min_size=1, max_size=parties - 1))
        assert len(schmidt_coefficients(st_, side).coefficients) == min(
            2 ** len(side), 2 ** (parties - len(side)))

    def test_qubit_cut_cannot_exceed_one_ebit(self, rng):
        for _ in range(10):
            st = random_logical((QUBIT, random_cat(10, rng)), rng)
            ent = entanglement_entropy(st, {0})
            assert -1e-12 <= ent <= 1.0 + 1e-12


class TestValidation:
    @pytest.mark.parametrize(
        "side_a", [set(), {0, 1, 2}, {-1}, {3}, {0, 3}], ids=repr
    )
    def test_side_a_must_be_a_nonempty_proper_subset(self, side_a):
        st = tensor(
            tensor(QUBIT.state(1.0, 0.0), Encoding.cat(0.0, 4).state(1.0, 0.0)),
            Encoding.cat(0.0, 4).state(0.0, 1.0),
        )
        with pytest.raises(ValueError, match="nonempty proper subset"):
            schmidt_coefficients(st, side_a)
        with pytest.raises(ValueError, match="nonempty proper subset"):
            entanglement_entropy(st, side_a)

    @pytest.mark.parametrize("side_a", [[0.7], [1.9]], ids=repr)
    def test_side_a_holds_integer_indices(self, side_a):
        # int() would cut a float at the factor below it
        state = hes_state(HesLabel.PHI_PLUS, 1.0, 18)
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            schmidt_coefficients(state, side_a)
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            entanglement_entropy(state, side_a)

    def test_spectrum_validates_normalization(self):
        with pytest.raises(ValueError):
            SchmidtSpectrum((0.9, 0.9))
        with pytest.raises(ValueError):
            SchmidtSpectrum((0.3, 0.9539392014169456))  # not descending

    @pytest.mark.parametrize("norm", NORMS_AT_THE_BOUND)
    def test_a_state_at_its_norm_bound_has_a_spectrum(self, norm):
        # the squares sum to the squared norm, about 1 ± 1.98e-12
        state = at_norm(hes_state(HesLabel.PSI_MINUS, 1.0, mode_dim_for(1.0)), norm)
        spectrum = schmidt_coefficients(state, {0})
        assert abs(sum(c * c for c in spectrum.coefficients) - norm**2) <= 1e-15
        assert abs(sum(c * c for c in spectrum.coefficients) - 1.0) > 1.9e-12

    @pytest.mark.parametrize("off", [-1e-11, 1e-11, math.nan], ids=["short", "over", "nan"])
    def test_spectrum_refuses_a_square_sum_past_the_norm_bound(self, off):
        with pytest.raises(ValueError, match="squared Schmidt coefficients sum to"):
            SchmidtSpectrum((math.sqrt(1.0 + off), 0.0))

    def test_spectrum_refuses_any_negative_coefficient(self):
        # singular values are norms, so no coefficient of a cut rounds below 0
        with pytest.raises(ValueError, match="nonnegative"):
            SchmidtSpectrum((1.0, -1e-16))
        assert SchmidtSpectrum((1.0, -0.0)).coefficients == (1.0, -0.0)


Z_DENSE = st.floats(min_value=0.5, max_value=9.0)


class TestAgainstTheDenseRoute:
    """The 2x2 coefficient route gives the dense amplitude matrix's spectrum."""

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(label=st.sampled_from(list(HesLabel)), z=Z_DENSE)
    def test_hybrid_spectrum(self, label, z):
        state = hes_state(label, z, cli_dim(z))
        got = schmidt_coefficients(state, {0}).coefficients
        assert np.allclose(got, dense_schmidt(state, [0]), rtol=0.0, atol=1e-10)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(label=st.sampled_from(list(ParityBellLabel)), z=Z_DENSE, zp=Z_DENSE)
    def test_parity_bell_spectrum(self, label, z, zp):
        state = parity_bell_state(label, z, zp, cli_dim(z, zp))
        spec = schmidt_coefficients(state, {0})
        assert_leads_the_dense_spectrum(spec.coefficients, dense_schmidt(state, [0]), 2, {0}, 1e-10)
        assert spec.entropy() == pytest.approx(entropy_from_reduced_density(state, [0]), abs=1e-10)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(z=Z_DENSE, zp=Z_DENSE, seed=st.integers(0, 2**32 - 1))
    def test_random_coefficients_over_cat_codewords(self, z, zp, seed):
        dim = cli_dim(z, zp)
        state = random_logical((Encoding.cat(z, dim), Encoding.cat(zp, dim)),
                               np.random.default_rng(seed))
        got = schmidt_coefficients(state, {1}).coefficients
        assert_leads_the_dense_spectrum(got, dense_schmidt(state, [1]), 2, {1}, 1e-10)


@pytest.mark.parametrize("z,zp", [(30.0, 20.0), (100.0, 100.0)])
def test_one_ebit_at_a_cutoff_no_dense_state_fits(z, zp):
    # dim 10776 at z = 100: the dense pair would take 1.9 GB and its SVD far longer
    dim = cli_dim(z, zp)
    tracemalloc.start()
    try:
        for label in ParityBellLabel:
            assert_one_ebit(parity_bell_state(label, z, zp, dim))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
