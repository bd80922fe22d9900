"""Bell bases, projective measurements, teleportation and swapping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hesim import (
    Bipartition,
    Correction,
    Encoding,
    HesLabel,
    ParityBellLabel,
    RngStream,
    SpaceDescriptor,
    SpinBellLabel,
    StateVector,
    bell_pair,
    correction_for,
    draw,
    entanglement_entropy,
    even_coherent,
    hes_state,
    inner,
    measure_parity_bell,
    measure_spin_bell,
    mode_dim_for,
    odd_coherent,
    parity_bell_state,
    parity_measurement,
    qubit_state,
    spin_bell_state,
    swap_entanglement,
    teleport_parity,
    teleport_spin,
    tensor,
)

from hesim.protocols import _SWAP_PAIRING, _branch

from conftest import random_qubit_pair
from oracles import swap_expansion

SQRT_HALF = 1.0 / math.sqrt(2.0)


def adim(z):
    return mode_dim_for(z, 1e-14)


def sender_branches(alpha, beta, z, channel, dim):
    """(outcome, conditional mode state) of the sender's Bell measurement on
    (unknown qubit) x (hybrid channel); each outcome has probability 1/4."""
    joint = tensor(qubit_state(alpha, beta), hes_state(channel, z, dim))
    return [(label, branch) for label, _, branch in measure_spin_bell(joint, (0, 1))]


# each Bell family: its label enum and the encodings of its two parties
FAMILIES = {
    "qubit-qubit": (SpinBellLabel, lambda: (Encoding.qubit(), Encoding.qubit())),
    "qubit-cat": (HesLabel, lambda: (Encoding.qubit(), Encoding.cat(1.3, adim(1.3)))),
    "cat-cat": (
        ParityBellLabel,
        lambda: (Encoding.cat(0.4, adim(0.4)), Encoding.cat(1.7, adim(1.7))),
    ),
}
FAMILY_LABELS = [
    (family, label) for family, (labels, _) in FAMILIES.items() for label in labels
]


class TestBellBases:
    def test_spin_bell_amplitudes(self):
        assert np.allclose(
            spin_bell_state(SpinBellLabel.PHI_PLUS).amps,
            [SQRT_HALF, 0, 0, SQRT_HALF],
        )
        assert np.allclose(
            spin_bell_state(SpinBellLabel.PSI_MINUS).amps,
            [0, SQRT_HALF, -SQRT_HALF, 0],
        )

    def test_spin_bell_orthonormal(self):
        states = [spin_bell_state(l) for l in SpinBellLabel]
        gram = np.array([[inner(a, b) for b in states] for a in states])
        assert np.allclose(gram, np.eye(4), atol=1e-14)

    def test_spin_bell_maximally_entangled(self):
        for label in SpinBellLabel:
            st = spin_bell_state(label)
            ent = entanglement_entropy(st, Bipartition.of(st.space, {0}))
            assert ent == pytest.approx(1.0, abs=1e-12)

    def test_hes_pairs_up_with_odd_for_psi(self):
        z, dim = 0.8, adim(0.8)
        st = hes_state(HesLabel.PSI_PLUS, z, dim)
        e, o = even_coherent(z, dim), odd_coherent(z, dim)
        expected = SQRT_HALF * (
            np.kron([1, 0], o.amps) + np.kron([0, 1], e.amps)
        )
        assert np.allclose(st.amps, expected, atol=1e-14)

    def test_hes_pairs_up_with_even_for_phi(self):
        z, dim = 0.8, adim(0.8)
        st = hes_state(HesLabel.PHI_MINUS, z, dim)
        e, o = even_coherent(z, dim), odd_coherent(z, dim)
        expected = SQRT_HALF * (
            np.kron([1, 0], e.amps) - np.kron([0, 1], o.amps)
        )
        assert np.allclose(st.amps, expected, atol=1e-14)

    @pytest.mark.parametrize("z", [0.0, 0.5, 1.5])
    def test_hes_orthonormal(self, z):
        dim = adim(z)
        states = [hes_state(l, z, dim) for l in HesLabel]
        gram = np.array([[inner(a, b) for b in states] for a in states])
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_parity_bell_amplitudes(self):
        z, zp, dim = 0.6, 1.1, adim(1.1)
        st = parity_bell_state(ParityBellLabel.PHI_PLUS, z, zp, dim)
        e1, o1 = even_coherent(z, dim), odd_coherent(z, dim)
        e2, o2 = even_coherent(zp, dim), odd_coherent(zp, dim)
        expected = SQRT_HALF * (
            np.kron(e1.amps, e2.amps) + np.kron(o1.amps, o2.amps)
        )
        assert np.allclose(st.amps, expected, atol=1e-14)

    def test_parity_bell_orthonormal(self):
        z, zp, dim = 0.9, 0.4, adim(0.9)
        states = [parity_bell_state(l, z, zp, dim) for l in ParityBellLabel]
        gram = np.array([[inner(a, b) for b in states] for a in states])
        assert np.allclose(gram, np.eye(4), atol=1e-12)


    @pytest.mark.parametrize("family,label", FAMILY_LABELS)
    def test_bell_pair_basis_is_orthonormal_with_one_ebit(self, family, label):
        labels, encodings = FAMILIES[family]
        enc_a, enc_b = encodings()
        st = bell_pair(label, enc_a, enc_b)
        assert st.space == enc_a.space * enc_b.space
        for other in labels:
            expected = 1.0 if other is label else 0.0
            assert abs(inner(bell_pair(other, enc_a, enc_b), st)) == pytest.approx(
                expected, abs=1e-12
            )
        ent = entanglement_entropy(st, Bipartition.of(st.space, {0}))
        assert ent == pytest.approx(1.0, abs=1e-10)

    def test_bell_pair_residual_combines_encoding_means(self):
        # residuals well above machine precision, so the rule is visible
        cat_a = Encoding.cat(1.0, 12, residual_tol=1e-6)
        cat_b = Encoding.cat(1.5, 16, residual_tol=1e-6)
        a = 0.5 * (cat_a.zero.truncation_residual + cat_a.one.truncation_residual)
        b = 0.5 * (cat_b.zero.truncation_residual + cat_b.one.truncation_residual)
        assert a > 0.0 and b > 0.0
        assert cat_a.residual == a
        st = bell_pair(ParityBellLabel.PHI_MINUS, cat_a, cat_b)
        assert st.truncation_residual == a + b - a * b
        hybrid = bell_pair(HesLabel.PSI_PLUS, Encoding.qubit(), cat_b)
        assert hybrid.truncation_residual == b


class TestDecomposition:
    def test_worked_channel_branches(self):
        z, dim = 1.0, adim(1.0)
        a, b = 0.6, 0.8
        branches = dict(sender_branches(a, b, z, HesLabel.PHI_PLUS, dim))
        e, o = even_coherent(z, dim), odd_coherent(z, dim)
        assert np.allclose(
            branches[SpinBellLabel.PHI_PLUS].amps, a * e.amps + b * o.amps, atol=1e-12
        )
        assert np.allclose(
            branches[SpinBellLabel.PSI_MINUS].amps, a * o.amps - b * e.amps, atol=1e-12
        )

    def test_codeword_input_gives_parity_eigenstate_branches(self):
        z, dim = 0.7, adim(0.7)
        for label, branch in sender_branches(1.0, 0.0, z, HesLabel.PHI_PLUS, dim):
            outcome, p, _ = draw(parity_measurement(branch, 0), RngStream(0))
            assert p == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("channel", list(HesLabel))
    def test_reassembly(self, channel, rng):
        for _ in range(13):
            alpha, beta = random_qubit_pair(rng)
            z = float(rng.uniform(0.05, 2.0))
            dim = adim(z)
            parts = sender_branches(alpha, beta, z, channel, dim)
            total = sum(
                np.kron(spin_bell_state(l).amps, br.amps) for l, br in parts
            ) / 2.0
            target = np.kron([alpha, beta], hes_state(channel, z, dim).amps)
            assert np.max(np.abs(total - target)) < 1e-12

    def test_rejects_unnormalized_input(self):
        with pytest.raises(ValueError, match="normalized"):
            teleport_spin(1.0, 1.0, HesLabel.PHI_PLUS, 0.5, 12)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_amplitudes(self, bad):
        # NaN compares False, so a `> tol` check used to let it through
        with pytest.raises(ValueError, match="normalized"):
            Encoding.qubit().state(bad, 1.0)
        with pytest.raises(ValueError, match="normalized"):
            Encoding.cat(0.5, 12).state(1.0, bad)


class TestCorrections:
    def test_worked_channel_mapping(self):
        chan = HesLabel.PHI_PLUS
        assert correction_for(SpinBellLabel.PHI_PLUS, chan) is Correction.IDENTITY
        assert correction_for(SpinBellLabel.PHI_MINUS, chan) is Correction.S_Z
        assert correction_for(SpinBellLabel.PSI_PLUS, chan) is Correction.S_X
        assert correction_for(SpinBellLabel.PSI_MINUS, chan) is Correction.S_Y

    def test_every_channel_has_one_identity_branch(self):
        for chan in HesLabel:
            table = [correction_for(o, chan) for o in SpinBellLabel]
            assert sorted(c.value for c in table) == [
                "identity",
                "s_x",
                "s_y",
                "s_z",
            ]

    def test_parity_mapping_mirrors_spin_mapping(self):
        chan = HesLabel.PSI_MINUS
        assert correction_for(ParityBellLabel.PSI_MINUS, chan) is Correction.IDENTITY
        assert correction_for(ParityBellLabel.PSI_PLUS, chan) is Correction.S_Z
        assert correction_for(ParityBellLabel.PHI_MINUS, chan) is Correction.S_X
        assert correction_for(ParityBellLabel.PHI_PLUS, chan) is Correction.S_Y


class TestSpinBellMeasurement:
    def test_uniform_outcomes_on_teleport_input(self, rng):
        alpha, beta = random_qubit_pair(rng)
        z, dim = 1.0, adim(1.0)
        joint = tensor(
            qubit_state(alpha, beta), hes_state(HesLabel.PHI_PLUS, z, dim)
        )
        probs = {label: p for label, p, _ in measure_spin_bell(joint, (0, 1))}
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)
        for p in probs.values():
            assert p == pytest.approx(0.25, abs=1e-10)

    def test_eigenstate_is_certain(self):
        st = tensor(spin_bell_state(SpinBellLabel.PHI_PLUS), qubit_state(1.0, 0.0))
        label, p, collapsed = draw(measure_spin_bell(st, (0, 1)), RngStream(9))
        assert label is SpinBellLabel.PHI_PLUS
        assert p == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(collapsed.amps, [1, 0], atol=1e-12)

    def test_measured_factors_are_removed(self):
        z, dim = 0.5, adim(0.5)
        joint = tensor(qubit_state(0.6, 0.8), hes_state(HesLabel.PSI_PLUS, z, dim))
        _, _, collapsed = draw(measure_spin_bell(joint, (0, 1)), RngStream(0))
        assert collapsed.space.dims == (dim,)

    def test_seeded_sequences_reproduce(self):
        z, dim = 0.5, adim(0.5)
        joint = tensor(qubit_state(0.6, 0.8), hes_state(HesLabel.PSI_PLUS, z, dim))

        def run(seed):
            rng = RngStream(seed)
            return [draw(measure_spin_bell(joint, (0, 1)), rng)[0] for _ in range(20)]

        assert run(123) == run(123)
        assert run(123) != run(124)

    def test_zero_probability_branch_carries_no_state(self):
        state = tensor(spin_bell_state(SpinBellLabel.PSI_PLUS), qubit_state(1.0, 0.0))
        table = measure_spin_bell(state, (0, 1))
        for label, p, collapsed in table:
            if label is SpinBellLabel.PSI_PLUS:
                assert p == pytest.approx(1.0, abs=1e-12)
            else:
                assert p == 0.0 and collapsed is None

    def test_subnormal_branch_still_renormalizes(self):
        # the psi branches weigh 5e-321, below the normal floats
        tiny = tensor(qubit_state(1.0, 1e-160), qubit_state(1.0, 0.0))
        st = tensor(tiny, qubit_state(0.0, 1.0))
        for label, p, collapsed in measure_spin_bell(st, (0, 1)):
            expected = 0.5 if label.is_phi else 5e-321
            assert p == pytest.approx(expected, rel=1e-2)
            assert np.allclose(np.abs(collapsed.amps), [0, 1], atol=1e-12)

    def test_rejects_non_qubit_factors(self):
        st = tensor(qubit_state(1.0, 0.0), even_coherent(0.5, 10))
        with pytest.raises(ValueError, match="not a qubit"):
            draw(measure_spin_bell(st, (0, 1)), RngStream(0))


class TestParityBellMeasurement:
    def test_basis_state_is_certain(self):
        z, zp, dim = 0.8, 1.2, adim(1.2)
        st = tensor(
            parity_bell_state(ParityBellLabel.PSI_MINUS, z, zp, dim),
            qubit_state(1.0, 0.0),
        )
        label, p, _ = draw(measure_parity_bell(st, (0, 1), z, zp), RngStream(4))
        assert label is ParityBellLabel.PSI_MINUS
        assert p == pytest.approx(1.0, abs=1e-10)

    def test_equal_superposition_splits_evenly(self):
        z, zp, dim = 0.8, 1.2, adim(1.2)
        plus = parity_bell_state(ParityBellLabel.PHI_PLUS, z, zp, dim)
        minus = parity_bell_state(ParityBellLabel.PHI_MINUS, z, zp, dim)
        mixed = StateVector(plus.space, (plus.amps + minus.amps) * SQRT_HALF)
        st = tensor(mixed, qubit_state(1.0, 0.0))
        probs = {label: p for label, p, _ in measure_parity_bell(st, (0, 1), z, zp)}
        assert probs[ParityBellLabel.PHI_PLUS] == pytest.approx(0.5, abs=1e-10)
        assert probs[ParityBellLabel.PHI_MINUS] == pytest.approx(0.5, abs=1e-10)
        assert probs[ParityBellLabel.PSI_PLUS] == pytest.approx(0.0, abs=1e-12)

    def test_teleport_joint_state_has_uniform_outcomes(self, rng):
        alpha, beta = random_qubit_pair(rng)
        z, zpp = 1.0, 0.6
        dim = adim(1.0)
        e, o = even_coherent(zpp, dim), odd_coherent(zpp, dim)
        mode_in = StateVector(e.space, alpha * e.amps + beta * o.amps)
        joint = tensor(hes_state(HesLabel.PHI_PLUS, z, dim), mode_in)
        probs = {l: p for l, p, _ in measure_parity_bell(joint, (2, 1), zpp, z)}
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)
        for p in probs.values():
            assert p == pytest.approx(0.25, abs=1e-10)

    def test_modes_of_different_dims(self):
        z, zp = 0.8, 1.2
        cat, cat_p = Encoding.cat(z, adim(z)), Encoding.cat(zp, adim(zp) + 4)
        assert cat.space != cat_p.space
        st = tensor(
            qubit_state(1.0, 0.0), bell_pair(ParityBellLabel.PSI_MINUS, cat, cat_p)
        )
        # the pairing may be given in either order
        for modes, amps in (((1, 2), (z, zp)), ((2, 1), (zp, z))):
            probs = {label: p for label, p, _ in measure_parity_bell(st, modes, *amps)}
            assert probs[ParityBellLabel.PSI_MINUS] == pytest.approx(1.0, abs=1e-12)
            label, p, rest = draw(measure_parity_bell(st, modes, *amps), RngStream(0))
            assert label is ParityBellLabel.PSI_MINUS
            assert rest.space.dims == (2,)

    def test_out_of_span_component_rejected(self):
        z, dim = 1.0, adim(1.0)
        vacuum = even_coherent(0.0, dim)
        st = tensor(tensor(vacuum, vacuum), qubit_state(1.0, 0.0))
        # |0>|0> overlaps the z=1 codeword span only partially
        with pytest.raises(ValueError, match="outside the span"):
            draw(measure_parity_bell(st, (0, 1), z, z), RngStream(0))


class TestParityMeasurement:
    def test_even_codeword_is_certain(self):
        st = even_coherent(1.0, adim(1.0))
        outcome, p, collapsed = draw(parity_measurement(st, 0), RngStream(1))
        assert outcome == 1
        assert p == pytest.approx(1.0, abs=1e-12)
        assert abs(inner(collapsed, st)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("cat, parity", [(even_coherent, 1), (odd_coherent, -1)])
    def test_cat_codewords_are_eigenstates_for_every_z(self, cat, parity):
        # the eigen-branch's weight may round to 1 - 1ulp; the other branch
        # must then still be the exact zero of its own amplitudes
        for z in np.linspace(0.0, 6.0, 601):
            table = parity_measurement(cat(z, adim(z)), 0)
            assert [outcome for outcome, _, _ in table] == [1, -1]
            for outcome, p, collapsed in table:
                if outcome == parity:
                    assert p == pytest.approx(1.0, abs=1e-12)
                else:
                    assert p == 0.0 and collapsed is None
            assert draw(table, RngStream(0))[0] == parity

    def test_superposition_statistics(self):
        z, dim = 0.9, adim(0.9)
        alpha, beta = 0.6, 0.8j
        e, o = even_coherent(z, dim), odd_coherent(z, dim)
        st = StateVector(e.space, alpha * e.amps + beta * o.amps)
        even_count = 0
        for seed in range(400):
            outcome, p, _ = draw(parity_measurement(st, 0), RngStream(seed))
            expected = abs(alpha) ** 2 if outcome == 1 else abs(beta) ** 2
            assert p == pytest.approx(expected, abs=1e-12)
            even_count += outcome == 1
        assert abs(even_count / 400 - abs(alpha) ** 2) < 0.08


class TestTeleportSpin:
    @pytest.mark.parametrize("channel", list(HesLabel))
    @pytest.mark.parametrize("z", [0.0, 0.5, 1.0, 2.0])
    def test_unit_fidelity_everywhere(self, channel, z, rng):
        dim = adim(z)
        for seed in range(13):
            alpha, beta = random_qubit_pair(rng)
            table = teleport_spin(alpha, beta, channel, z, dim)
            outcome, p, rec = draw(table, RngStream(seed))
            assert rec.fidelity == pytest.approx(1.0, abs=1e-10)
            assert p == pytest.approx(0.25, abs=1e-10)
            assert rec.correction is correction_for(outcome, channel)

    def test_all_four_branches_reachable(self):
        seen = set()
        for seed in range(40):
            table = teleport_spin(0.6, 0.8, HesLabel.PHI_PLUS, 1.0, 18)
            seen.add(draw(table, RngStream(seed))[0])
        assert seen == set(SpinBellLabel)

    def test_output_parity_statistics_match_input_weights(self, rng):
        # the teleported mode state must answer parity questions exactly
        # like the input qubit answers z-basis questions
        z, dim = 1.0, adim(1.0)
        alpha, beta = random_qubit_pair(rng)
        for seed in range(16):
            table = teleport_spin(alpha, beta, HesLabel.PSI_MINUS, z, dim)
            _, _, rec = draw(table, RngStream(seed))
            outcome, p, _ = draw(parity_measurement(rec.output_state, 0), RngStream(seed))
            expected = abs(alpha) ** 2 if outcome == 1 else abs(beta) ** 2
            assert p == pytest.approx(expected, abs=1e-10)

    def test_codeword_input_keeps_positive_parity(self):
        table = teleport_spin(1.0, 0.0, HesLabel.PHI_PLUS, 0.8, 16)
        _, _, rec = draw(table, RngStream(3))
        outcome, p, _ = draw(parity_measurement(rec.output_state, 0), RngStream(0))
        assert outcome == 1 and p == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("amps, parity", [((1.0, 0.0), 1), ((0.0, 1.0), -1)])
    def test_codeword_inputs_give_parity_eigenstates_on_every_branch(
        self, amps, parity
    ):
        for z in np.linspace(0.0, 3.0, 31):
            for channel in HesLabel:
                for _, _, rec in teleport_spin(*amps, channel, z, adim(z)):
                    table = parity_measurement(rec.output_state, 0)
                    outcome, p, _ = max(table, key=lambda branch: branch[1])
                    assert outcome == parity
                    assert p == pytest.approx(1.0, abs=1e-12)

    def test_outcome_frequencies(self):
        counts = {label: 0 for label in SpinBellLabel}
        trials = 1024
        table = teleport_spin(0.6, 0.8, HesLabel.PHI_PLUS, 0.5, 12)
        for seed in range(trials):
            counts[draw(table, RngStream(seed))[0]] += 1
        for label, n in counts.items():
            assert abs(n / trials - 0.25) < 0.05

    def test_transcripts_reproduce_for_equal_seeds(self):
        oa, pa, a = draw(teleport_spin(0.6, 0.8, HesLabel.PSI_PLUS, 1.0, 18), RngStream(77))
        ob, pb, b = draw(teleport_spin(0.6, 0.8, HesLabel.PSI_PLUS, 1.0, 18), RngStream(77))
        assert oa is ob
        assert pa == pb
        assert a.correction is b.correction
        assert np.array_equal(a.output_state.amps, b.output_state.amps)
        assert a.fidelity == b.fidelity


class TestTeleportParity:
    @pytest.mark.parametrize("channel", list(HesLabel))
    def test_unit_fidelity(self, channel, rng):
        z, zpp = 1.2, 0.7
        dim = adim(1.2)
        for seed in range(10):
            alpha, beta = random_qubit_pair(rng)
            table = teleport_parity(alpha, beta, zpp, channel, z, dim)
            _, p, rec = draw(table, RngStream(seed))
            assert rec.fidelity == pytest.approx(1.0, abs=1e-10)
            assert p == pytest.approx(0.25, abs=1e-10)

    def test_output_is_a_qubit(self):
        table = teleport_parity(0.6, 0.8, 0.5, HesLabel.PHI_PLUS, 1.0, 18)
        _, _, rec = draw(table, RngStream(2))
        assert rec.output_state.space.dims == (2,)
        assert rec.target_state.space.dims == (2,)

    def test_balanced_input_lands_on_the_equator(self):
        from hesim.pseudospin import PAULI_X

        for seed in range(12):
            table = teleport_parity(
                SQRT_HALF, SQRT_HALF, 0.9, HesLabel.PHI_PLUS, 1.1, 20
            )
            _, _, rec = draw(table, RngStream(seed))
            amps = rec.output_state.amps
            sx = float(np.real(np.vdot(amps, PAULI_X @ amps)))
            assert abs(sx) == pytest.approx(1.0, abs=1e-10)

    def test_outcome_frequencies(self):
        counts = {label: 0 for label in ParityBellLabel}
        trials = 1024
        table = teleport_parity(0.6, 0.8, 0.5, HesLabel.PHI_PLUS, 0.5, 12)
        for seed in range(trials):
            counts[draw(table, RngStream(seed))[0]] += 1
        for label, n in counts.items():
            assert abs(n / trials - 0.25) < 0.05


class TestSwap:
    @pytest.mark.parametrize("z,zp", [(0.3, 0.3), (0.3, 1.0), (1.0, 2.0), (2.0, 0.3)])
    def test_expansion_signs_and_magnitudes(self, z, zp):
        dim = max(adim(z), adim(zp))
        expected = {
            (SpinBellLabel.PHI_PLUS, ParityBellLabel.PHI_PLUS): 0.5,
            (SpinBellLabel.PHI_MINUS, ParityBellLabel.PHI_MINUS): -0.5,
            (SpinBellLabel.PSI_PLUS, ParityBellLabel.PSI_PLUS): -0.5,
            (SpinBellLabel.PSI_MINUS, ParityBellLabel.PSI_MINUS): 0.5,
        }
        coeffs = swap_expansion(z, zp, dim)
        assert len(coeffs) == 16
        for pair, c in coeffs.items():
            assert abs(c - expected.get(pair, 0.0)) < 1e-12
        # the table pairs each spin outcome with its cat Bell state at weight 1/4
        for outcome, p, rec in swap_entanglement(z, zp, dim):
            assert expected[outcome, rec.parity_label] ** 2 == pytest.approx(
                p * rec.fidelity, abs=1e-12
            )

    def test_expansion_reassembles_the_joint_state(self):
        z, zp = 1.0, 0.5
        dim = max(adim(z), adim(zp))
        joint = tensor(
            hes_state(HesLabel.PSI_MINUS, z, dim),
            hes_state(HesLabel.PSI_MINUS, zp, dim),
        )
        total = np.zeros_like(joint.amps.reshape(2, dim, 2, dim))
        for (spin_label, parity_label), c in swap_expansion(z, zp, dim).items():
            sb = spin_bell_state(spin_label).amps.reshape(2, 2)
            pb = parity_bell_state(parity_label, z, zp, dim).amps.reshape(dim, dim)
            total = total + c * np.einsum("ik,jl->ijkl", sb, pb)
        assert np.max(np.abs(total.reshape(-1) - joint.amps)) < 1e-12

    def test_collapse_onto_paired_state(self):
        z, zp = 1.0, 0.5
        dim = max(adim(z), adim(zp))
        pairing = {
            SpinBellLabel.PHI_PLUS: ParityBellLabel.PHI_PLUS,
            SpinBellLabel.PHI_MINUS: ParityBellLabel.PHI_MINUS,
            SpinBellLabel.PSI_PLUS: ParityBellLabel.PSI_PLUS,
            SpinBellLabel.PSI_MINUS: ParityBellLabel.PSI_MINUS,
        }
        seen = set()
        for seed in range(24):
            outcome, p, rec = draw(swap_entanglement(z, zp, dim), RngStream(seed))
            assert rec.parity_label is pairing[outcome]
            assert p == pytest.approx(0.25, abs=1e-10)
            assert rec.fidelity == pytest.approx(1.0, abs=1e-10)
            seen.add(outcome)
        assert seen == set(SpinBellLabel)

    def test_post_collapse_entropy_is_one_ebit(self):
        _, _, rec = draw(swap_entanglement(0.7, 1.3, adim(1.3)), RngStream(5))
        ent = entanglement_entropy(rec.mode_state, Bipartition.of(rec.mode_state.space, {0}))
        assert ent == pytest.approx(1.0, abs=1e-10)

    def test_transcripts_reproduce_for_equal_seeds(self):
        oa, pa, a = draw(swap_entanglement(0.6, 1.1, 20), RngStream(31))
        ob, pb, b = draw(swap_entanglement(0.6, 1.1, 20), RngStream(31))
        assert oa is ob
        assert a.parity_label is b.parity_label
        assert pa == pb
        assert a.fidelity == b.fidelity
        assert np.array_equal(a.mode_state.amps, b.mode_state.amps)


class TestRngStream:
    def test_counter_tracks_draws(self):
        rng = RngStream(1)
        assert rng.counter == 0
        rng.uniform()
        rng.uniform()
        assert rng.counter == 2

    def test_same_seed_same_sequence(self):
        a, b = RngStream(9), RngStream(9)
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]


class TestBranch:
    @pytest.mark.parametrize("amps", [[math.nan, 0.0], [1.0, 0.5]], ids=["nan", "above_one"])
    def test_probability_outside_the_unit_range_rejected(self, amps):
        # one guard serves every table: measurements, teleport and swap alike
        with pytest.raises(ValueError, match="outcome probability"):
            _branch("x", np.array(amps, dtype=complex), SpaceDescriptor.qubit(), 0.0)

    def test_rounding_above_one_is_accepted(self):
        _, p, state = _branch("x", np.array([1.0 + 1e-13, 0.0]), SpaceDescriptor.qubit(), 0.0)
        assert p > 1.0 and state.amps[0] == 1.0


class _FixedVariate:
    """Stand-in for an RngStream that always returns the same variate."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


class TestDraw:
    def test_zero_probability_branch_is_never_chosen(self):
        table = [("a", 0.0, None), ("b", 0.5, "b"), ("c", 0.0, None), ("d", 0.5, "d")]
        for u in (0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53):
            assert draw(table, _FixedVariate(u))[0] in ("b", "d")
        for seed in range(50):
            assert draw(table, RngStream(seed))[0] in ("b", "d")

    def test_inverse_cdf(self):
        table = [("a", 0.25, "a"), ("b", 0.5, "b"), ("c", 0.25, "c")]
        assert draw(table, _FixedVariate(0.2))[0] == "a"
        assert draw(table, _FixedVariate(0.25))[0] == "b"
        assert draw(table, _FixedVariate(0.8))[0] == "c"

    def test_variate_on_the_remainder_falls_back_to_the_likeliest_branch(self):
        # a variate at the top of the CDF lies past every cumulative sum
        table = [("a", 0.3, "a"), ("b", 0.6, "b"), ("c", 0.1, "c")]
        assert draw(table, _FixedVariate(1.0)) == ("b", 0.6, "b")

    def test_weight_outside_the_span_raises_before_drawing(self):
        rng = RngStream(0)
        table = [("a", 0.45, "a"), ("b", 0.45, "b")]
        with pytest.raises(ValueError, match="outside the span"):
            draw(table, rng)
        assert rng.counter == 0
        # rounding-level shortfalls are not an error
        assert draw([("a", 0.5, "a"), ("b", 0.5 - 1e-12, "b")], rng)[0] in ("a", "b")

    def test_one_variate_per_draw(self):
        rng = RngStream(3)
        table = teleport_spin(0.6, 0.8, HesLabel.PHI_PLUS, 1.0, adim(1.0))
        for _ in range(5):
            draw(table, rng)
        assert rng.counter == 5

    def test_matches_the_table_row(self):
        table = swap_entanglement(0.8, 1.2, adim(1.2))
        for seed in range(8):
            branch = draw(table, RngStream(seed))
            assert any(branch is row for row in table)


AMPLITUDES = st.tuples(
    st.floats(min_value=0.0, max_value=math.pi / 2),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
).map(lambda t: (math.cos(t[0]) * complex(math.cos(t[1]), math.sin(t[1])),
                 math.sin(t[0]) * complex(math.cos(t[2]), math.sin(t[2]))))
Z = st.floats(min_value=0.0, max_value=3.0)


class TestEveryBranch:
    """The paper's protocol claims hold on all four branches, for every z."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(amps=AMPLITUDES, z=Z, channel=st.sampled_from(list(HesLabel)))
    def test_teleport_spin(self, amps, z, channel):
        table = teleport_spin(*amps, channel, z, adim(z))
        assert [outcome for outcome, _, _ in table] == list(SpinBellLabel)
        for outcome, p, rec in table:
            assert p == pytest.approx(0.25, abs=1e-10)
            assert rec.fidelity == pytest.approx(1.0, abs=1e-10)
            assert rec.correction is correction_for(outcome, channel)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(amps=AMPLITUDES, z=Z, zpp=Z, channel=st.sampled_from(list(HesLabel)))
    def test_teleport_parity(self, amps, z, zpp, channel):
        table = teleport_parity(*amps, zpp, channel, z, max(adim(z), adim(zpp)))
        assert [outcome for outcome, _, _ in table] == list(ParityBellLabel)
        for outcome, p, rec in table:
            assert p == pytest.approx(0.25, abs=1e-10)
            assert rec.fidelity == pytest.approx(1.0, abs=1e-10)
            assert rec.correction is correction_for(outcome, channel)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(z=Z, zp=Z)
    def test_swap(self, z, zp):
        table = swap_entanglement(z, zp, max(adim(z), adim(zp)))
        assert [outcome for outcome, _, _ in table] == list(SpinBellLabel)
        for outcome, p, rec in table:
            assert rec.parity_label is _SWAP_PAIRING[outcome][0]
            assert p == pytest.approx(0.25, abs=1e-10)
            assert rec.fidelity == pytest.approx(1.0, abs=1e-10)
            cut = Bipartition.of(rec.mode_state.space, {0})
            assert entanglement_entropy(rec.mode_state, cut) == pytest.approx(
                1.0, abs=1e-10
            )
