"""Bell bases, projective measurements, teleportation and swapping."""

import functools
import math
import re
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hesim import (
    Correction,
    Encoding,
    HesLabel,
    LogicalState,
    ParityBellLabel,
    RngStream,
    SpaceDescriptor,
    SpinBellLabel,
    TeleportRecord,
    bell_pair,
    correction_for,
    entanglement_entropy,
    even_coherent,
    hes_state,
    inner,
    measure_spin_bell,
    mode_dim_for,
    odd_coherent,
    parity_bell_state,
    parity_measurement,
    run_trials,
    schmidt_coefficients,
    spin_bell_state,
    swap_entanglement,
    teleport_parity,
    teleport_spin,
    tensor,
)
import hesim.protocols
from hesim.protocols import (
    _BATCH_BLOCK,
    _branch,
    _first_uniforms,
    _measure_bell,
    _teleport,
)

from conftest import NORMS_AT_THE_BOUND, assert_leads_the_dense_spectrum, at_norm, random_qubit_pair
from oracles import (
    codewords,
    dense,
    dense_measure_bell,
    dense_swap,
    dense_teleport_parity,
    dense_teleport_spin,
    draw,
    kron,
    linear_scan_draw,
    looped_trials,
    numpy_first_uniforms,
    qubit_state,
    swap_expansion,
    trial_streams,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)
QUBIT = Encoding.qubit()


def sender_branches(alpha, beta, z, channel, dim):
    """(outcome, conditional mode state) of the sender's Bell measurement on
    (unknown qubit) x (hybrid channel); each outcome has probability 1/4."""
    joint = tensor(QUBIT.state(alpha, beta), hes_state(channel, z, dim))
    return [(label, branch) for label, _, branch in measure_spin_bell(joint, (0, 1))]


# each Bell family: its label enum and the encodings of its two parties
FAMILIES = {
    "qubit-qubit": (SpinBellLabel, lambda: (Encoding.qubit(), Encoding.qubit())),
    "qubit-cat": (HesLabel, lambda: (Encoding.qubit(), Encoding.cat(1.3, mode_dim_for(1.3)))),
    "cat-cat": (
        ParityBellLabel,
        lambda: (Encoding.cat(0.4, mode_dim_for(0.4)), Encoding.cat(1.7, mode_dim_for(1.7))),
    ),
}
FAMILY_LABELS = [
    (family, label) for family, (labels, _) in FAMILIES.items() for label in labels
]


class TestBellBases:
    def test_spin_bell_amplitudes(self):
        assert np.allclose(
            dense(spin_bell_state(SpinBellLabel.PHI_PLUS)).amps,
            [SQRT_HALF, 0, 0, SQRT_HALF],
        )
        assert np.allclose(
            dense(spin_bell_state(SpinBellLabel.PSI_MINUS)).amps,
            [0, SQRT_HALF, -SQRT_HALF, 0],
        )

    def test_spin_bell_orthonormal(self):
        states = [spin_bell_state(l) for l in SpinBellLabel]
        gram = np.array([[inner(a, b) for b in states] for a in states])
        assert np.allclose(gram, np.eye(4), atol=1e-14)

    def test_spin_bell_maximally_entangled(self):
        for label in SpinBellLabel:
            st = spin_bell_state(label)
            ent = entanglement_entropy(st, {0})
            assert ent == pytest.approx(1.0, abs=1e-12)

    def test_hes_pairs_up_with_odd_for_psi(self):
        z, dim = 0.8, mode_dim_for(0.8)
        st = hes_state(HesLabel.PSI_PLUS, z, dim)
        e, o = even_coherent(z, dim), odd_coherent(z, dim)
        expected = SQRT_HALF * (
            np.kron([1, 0], o.amps) + np.kron([0, 1], e.amps)
        )
        assert np.allclose(dense(st).amps, expected, atol=1e-14)

    def test_hes_pairs_up_with_even_for_phi(self):
        z, dim = 0.8, mode_dim_for(0.8)
        st = hes_state(HesLabel.PHI_MINUS, z, dim)
        e, o = even_coherent(z, dim), odd_coherent(z, dim)
        expected = SQRT_HALF * (
            np.kron([1, 0], e.amps) - np.kron([0, 1], o.amps)
        )
        assert np.allclose(dense(st).amps, expected, atol=1e-14)

    @pytest.mark.parametrize("z", [0.0, 0.5, 1.5])
    def test_hes_orthonormal(self, z):
        dim = mode_dim_for(z)
        states = [hes_state(l, z, dim) for l in HesLabel]
        gram = np.array([[inner(a, b) for b in states] for a in states])
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_parity_bell_amplitudes(self):
        z, zp, dim = 0.6, 1.1, mode_dim_for(1.1)
        st = parity_bell_state(ParityBellLabel.PHI_PLUS, z, zp, dim)
        e1, o1 = even_coherent(z, dim), odd_coherent(z, dim)
        e2, o2 = even_coherent(zp, dim), odd_coherent(zp, dim)
        expected = SQRT_HALF * (
            np.kron(e1.amps, e2.amps) + np.kron(o1.amps, o2.amps)
        )
        assert np.allclose(dense(st).amps, expected, atol=1e-14)

    def test_parity_bell_orthonormal(self):
        z, zp, dim = 0.9, 0.4, mode_dim_for(0.9)
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
        ent = entanglement_entropy(st, {0})
        assert ent == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("family,label", FAMILY_LABELS)
    def test_bell_pair_is_the_kron_sum_bit_for_bit(self, family, label):
        # the coefficients are the signed pattern of halves, and their dense
        # expansion is the kron sum bit for bit
        enc_a, enc_b = FAMILIES[family][1]()
        (a0, a1), (b0, b1) = codewords(enc_a), codewords(enc_b)
        if not label.is_phi:
            b0, b1 = b1, b0
        kron_sum = (np.kron(a0.amps, b0.amps) + label.sign * np.kron(a1.amps, b1.amps)) * SQRT_HALF
        st = bell_pair(label, enc_a, enc_b)
        pattern = np.eye(2) if label.is_phi else np.eye(2)[::-1]
        expected = (pattern * np.array([[1.0], [label.sign]]) * SQRT_HALF).ravel()
        assert np.array_equal(st.coeffs, expected)
        assert np.array_equal(dense(st).amps.view(np.uint64), kron_sum.view(np.uint64))

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_bell_pair_refuses_a_label_of_another_family_or_a_string(self, family):
        # each pair of kinds takes its own family's labels, in either order
        labels, encodings = FAMILIES[family]
        enc_a, enc_b = encodings()
        for label in [*SpinBellLabel, *HesLabel, *ParityBellLabel, "phi+", None]:
            if isinstance(label, labels):
                assert bell_pair(label, enc_a, enc_b).encodings == (enc_a, enc_b)
                assert bell_pair(label, enc_b, enc_a).encodings == (enc_b, enc_a)
                continue
            message = f"label must be {labels.__name__}, got {label!r}"
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                bell_pair(label, enc_a, enc_b)

    @pytest.mark.parametrize("slot", [0, 1])
    @pytest.mark.parametrize("bad", ["qubit", None, SpaceDescriptor.qubit()], ids=repr)
    def test_bell_pair_refuses_an_encoding_that_is_no_encoding(self, slot, bad):
        # by its parameter's name, before the family is read off the encodings
        encodings = [Encoding.qubit(), Encoding.cat(1.0, mode_dim_for(1.0))]
        encodings[slot] = bad
        message = f"enc_{'ab'[slot]} must be Encoding, got {bad!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            bell_pair(HesLabel.PHI_PLUS, *encodings)

    def test_the_builders_refuse_a_label_of_another_family_or_a_string(self):
        dim = mode_dim_for(1.0)
        for build in (lambda: hes_state("phi+", 1.0, dim),
                      lambda: hes_state(SpinBellLabel.PHI_PLUS, 1.0, dim),
                      lambda: spin_bell_state(HesLabel.PHI_PLUS),
                      lambda: spin_bell_state("Phi+"),
                      lambda: parity_bell_state(HesLabel.PSI_MINUS, 1.0, 0.5, dim),
                      lambda: teleport_spin(0.6, 0.8, "phi+", 1.0, dim),
                      lambda: teleport_parity(0.6, 0.8, 1.0, ParityBellLabel.PHI_PLUS, 1.0, dim)):
            with pytest.raises(TypeError, match=r"^label must be (SpinBellLabel|HesLabel|ParityBellLabel), got "):
                build()

    def test_bell_pair_residual_combines_encoding_means(self):
        # cutoffs two levels short of the adaptive ones, where each residual is
        # large enough for the product term a*b to move the sum
        cat_a, cat_b = Encoding.cat(1.5, 20), Encoding.cat(2.0, 26)
        a, b = (0.5 * sum(word.truncation_residual for word in codewords(cat))
                for cat in (cat_a, cat_b))
        assert a + b - a * b != a + b
        assert cat_a.residual == a
        st = bell_pair(ParityBellLabel.PHI_MINUS, cat_a, cat_b)
        assert st.truncation_residual == a + b - a * b
        hybrid = bell_pair(HesLabel.PSI_PLUS, Encoding.qubit(), cat_b)
        assert hybrid.truncation_residual == b


class TestDecomposition:
    def test_worked_channel_branches(self):
        z, dim = 1.0, mode_dim_for(1.0)
        a, b = 0.6, 0.8
        branches = dict(sender_branches(a, b, z, HesLabel.PHI_PLUS, dim))
        e, o = dense(even_coherent(z, dim)), dense(odd_coherent(z, dim))
        assert np.allclose(
            dense(branches[SpinBellLabel.PHI_PLUS]).amps, a * e.amps + b * o.amps, atol=1e-12
        )
        assert np.allclose(
            dense(branches[SpinBellLabel.PSI_MINUS]).amps, a * o.amps - b * e.amps, atol=1e-12
        )

    def test_codeword_input_gives_parity_eigenstate_branches(self):
        z, dim = 0.7, mode_dim_for(0.7)
        for label, branch in sender_branches(1.0, 0.0, z, HesLabel.PHI_PLUS, dim):
            outcome, p, _ = draw(parity_measurement(branch, 0), RngStream(0))
            assert p == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("channel", list(HesLabel))
    def test_reassembly(self, channel, rng):
        for _ in range(13):
            alpha, beta = random_qubit_pair(rng)
            z = float(rng.uniform(0.05, 2.0))
            dim = mode_dim_for(z)
            parts = sender_branches(alpha, beta, z, channel, dim)
            total = sum(
                np.kron(dense(spin_bell_state(l)).amps, dense(br).amps) for l, br in parts
            ) / 2.0
            target = np.kron([alpha, beta], dense(hes_state(channel, z, dim)).amps)
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

    @pytest.mark.parametrize("outcome, channel", [
        ("Phi+", HesLabel.PHI_PLUS), (SpinBellLabel.PHI_PLUS, "phi+"),
        (SpinBellLabel.PHI_PLUS, SpinBellLabel.PHI_PLUS),
        (SpinBellLabel.PSI_MINUS, ParityBellLabel.PSI_MINUS),
    ], ids=["string_outcome", "string_channel", "spin_channel", "parity_channel"])
    def test_refuses_an_outcome_that_is_no_bell_label_or_a_channel_that_is_no_hes_label(
            self, outcome, channel):
        # the outcome first, each by its parameter's name
        message = (f"outcome must be BellLabel, got {outcome!r}" if isinstance(outcome, str)
                   else f"channel must be HesLabel, got {channel!r}")
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            correction_for(outcome, channel)


class TestSpinBellMeasurement:
    def test_uniform_outcomes_on_teleport_input(self, rng):
        alpha, beta = random_qubit_pair(rng)
        z, dim = 1.0, mode_dim_for(1.0)
        joint = tensor(
            QUBIT.state(alpha, beta), hes_state(HesLabel.PHI_PLUS, z, dim)
        )
        probs = {label: p for label, p, _ in measure_spin_bell(joint, (0, 1))}
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)
        for p in probs.values():
            assert p == pytest.approx(0.25, abs=1e-10)

    def test_eigenstate_is_certain(self):
        st = tensor(spin_bell_state(SpinBellLabel.PHI_PLUS), QUBIT.state(1.0, 0.0))
        label, p, collapsed = draw(measure_spin_bell(st, (0, 1)), RngStream(9))
        assert label is SpinBellLabel.PHI_PLUS
        assert p == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(collapsed.coeffs, [1, 0], atol=1e-12)

    def test_measured_factors_are_removed(self):
        z, dim = 0.5, mode_dim_for(0.5)
        joint = tensor(QUBIT.state(0.6, 0.8), hes_state(HesLabel.PSI_PLUS, z, dim))
        _, _, collapsed = draw(measure_spin_bell(joint, (0, 1)), RngStream(0))
        assert collapsed.space.dims == (dim,)

    def test_seeded_sequences_reproduce(self):
        z, dim = 0.5, mode_dim_for(0.5)
        joint = tensor(QUBIT.state(0.6, 0.8), hes_state(HesLabel.PSI_PLUS, z, dim))

        def run(seed):
            rng = RngStream(seed)
            return [draw(measure_spin_bell(joint, (0, 1)), rng)[0] for _ in range(20)]

        assert run(123) == run(123)
        assert run(123) != run(124)

    def test_zero_probability_branch_carries_no_state(self):
        state = tensor(spin_bell_state(SpinBellLabel.PSI_PLUS), QUBIT.state(1.0, 0.0))
        table = measure_spin_bell(state, (0, 1))
        for label, p, collapsed in table:
            if label is SpinBellLabel.PSI_PLUS:
                assert p == pytest.approx(1.0, abs=1e-12)
            else:
                assert p == 0.0 and collapsed is None

    def test_subnormal_branch_still_renormalizes(self):
        # the psi branches weigh 5e-321, below the normal floats
        tiny = tensor(QUBIT.state(1.0, 1e-160), QUBIT.state(1.0, 0.0))
        st = tensor(tiny, QUBIT.state(0.0, 1.0))
        for label, p, collapsed in measure_spin_bell(st, (0, 1)):
            expected = 0.5 if label.is_phi else 5e-321
            assert p == pytest.approx(expected, rel=1e-2)
            assert np.allclose(np.abs(collapsed.coeffs), [0, 1], atol=1e-12)

    @pytest.mark.parametrize("factors", [(0,), (0, 2, 1), [2], ()], ids=str)
    def test_refuses_any_count_of_factors_but_two(self, factors):
        st = tensor(QUBIT.state(0.6, 0.8), hes_state(HesLabel.PHI_PLUS, 1.0, mode_dim_for(1.0)))
        with pytest.raises(ValueError, match=re.escape(
                f"cannot Bell-measure factors {factors} of qubit⊗qubit⊗mode(")):
            measure_spin_bell(st, factors)

    def test_refuses_to_measure_every_factor(self):
        with pytest.raises(ValueError, match=r"^cannot Bell-measure factors \(0, 1\) of "
                                             r"qubit⊗qubit: .* leaves at least one$"):
            measure_spin_bell(spin_bell_state(SpinBellLabel.PHI_PLUS), (0, 1))

    @pytest.mark.parametrize("factors", [0, None, 1.0], ids=str)
    def test_refuses_factors_that_are_no_sequence(self, factors):
        st = tensor(QUBIT.state(0.6, 0.8), hes_state(HesLabel.PHI_PLUS, 1.0, mode_dim_for(1.0)))
        with pytest.raises(TypeError, match=re.escape(
                f"factor indices must be a sequence of integers, got {factors!r}")):
            measure_spin_bell(st, factors)

    def test_rejects_non_qubit_factors(self):
        # a mode carries a cat encoding, not the qubit basis; that check decides kinds
        st = tensor(tensor(QUBIT.state(1.0, 0.0), Encoding.cat(0.5, 10).state(1.0, 0.0)),
                    QUBIT.state(1.0, 0.0))
        with pytest.raises(ValueError, match="not encoded in the measured basis"):
            draw(measure_spin_bell(st, (0, 1)), RngStream(0))


class TestParityBellMeasurement:
    """The Bell measurement in a cat basis, which parity teleportation makes."""

    def test_basis_state_is_certain(self):
        z, zp, dim = 0.8, 1.2, mode_dim_for(1.2)
        st = tensor(
            parity_bell_state(ParityBellLabel.PSI_MINUS, z, zp, dim),
            QUBIT.state(1.0, 0.0),
        )
        basis = Encoding.cat(z, dim), Encoding.cat(zp, dim)
        label, p, _ = draw(_measure_bell(st, (0, 1), *basis), RngStream(4))
        assert label is ParityBellLabel.PSI_MINUS
        assert p == pytest.approx(1.0, abs=1e-10)

    def test_equal_superposition_splits_evenly(self):
        z, zp, dim = 0.8, 1.2, mode_dim_for(1.2)
        plus = parity_bell_state(ParityBellLabel.PHI_PLUS, z, zp, dim)
        minus = parity_bell_state(ParityBellLabel.PHI_MINUS, z, zp, dim)
        mixed = LogicalState(plus.encodings,
                             (np.array(plus.coeffs) + np.array(minus.coeffs)) * SQRT_HALF)
        st = tensor(mixed, QUBIT.state(1.0, 0.0))
        probs = {label: p for label, p, _ in _measure_bell(st, (0, 1), *plus.encodings)}
        assert probs[ParityBellLabel.PHI_PLUS] == pytest.approx(0.5, abs=1e-10)
        assert probs[ParityBellLabel.PHI_MINUS] == pytest.approx(0.5, abs=1e-10)
        assert probs[ParityBellLabel.PSI_PLUS] == pytest.approx(0.0, abs=1e-12)

    def test_teleport_joint_state_has_uniform_outcomes(self, rng):
        alpha, beta = random_qubit_pair(rng)
        z, zpp = 1.0, 0.6
        dim = mode_dim_for(1.0)
        source, cat = Encoding.cat(zpp, dim), Encoding.cat(z, dim)
        joint = tensor(hes_state(HesLabel.PHI_PLUS, z, dim), source.state(alpha, beta))
        probs = {l: p for l, p, _ in _measure_bell(joint, (2, 1), source, cat)}
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)
        for p in probs.values():
            assert p == pytest.approx(0.25, abs=1e-10)

    def test_modes_of_different_dims(self):
        z, zp = 0.8, 1.2
        cat, cat_p = Encoding.cat(z, mode_dim_for(z)), Encoding.cat(zp, mode_dim_for(zp) + 4)
        assert cat.space != cat_p.space
        st = tensor(
            QUBIT.state(1.0, 0.0), bell_pair(ParityBellLabel.PSI_MINUS, cat, cat_p)
        )
        # the pairing may be given in either order
        for modes, basis in (((1, 2), (cat, cat_p)), ((2, 1), (cat_p, cat))):
            probs = {label: p for label, p, _ in _measure_bell(st, modes, *basis)}
            assert probs[ParityBellLabel.PSI_MINUS] == pytest.approx(1.0, abs=1e-12)
            label, p, rest = draw(_measure_bell(st, modes, *basis), RngStream(0))
            assert label is ParityBellLabel.PSI_MINUS
            assert rest.space.dims == (2,)

    def test_out_of_span_component_rejected(self):
        # |0>|0> overlaps the z=1 codeword span only partially, so the table
        # its dense projection gives misses weight, and run_trials refuses it
        z, dim = 1.0, mode_dim_for(1.0)
        vacuum = even_coherent(0.0, dim)
        st = kron(kron(vacuum, vacuum), qubit_state(1.0, 0.0))
        cat = Encoding.cat(z, dim)
        table = dense_measure_bell(st, (0, 1), cat, cat, ParityBellLabel)
        assert sum(p for _, p, _ in table) < 1.0 - 1e-10
        with pytest.raises(ValueError, match="outside the span"):
            run_trials(table, 0, 1)

    def test_other_encoding_rejected(self):
        # a state whose modes carry other codewords is not projected at all:
        # here the Fock states |0>, |1> (the cat pair at z = 0)
        z, dim = 1.0, mode_dim_for(1.0)
        fock = Encoding.cat(0.0, dim)
        st = tensor(tensor(fock.state(1.0, 0.0), fock.state(1.0, 0.0)), QUBIT.state(1.0, 0.0))
        cat = Encoding.cat(z, dim)
        with pytest.raises(ValueError, match="not encoded in the measured basis"):
            _measure_bell(st, (0, 1), cat, cat)

    def test_flipped_encoding_rejected(self):
        # the parity flips of the cats are another basis of the same modes
        cat, cat_p = Encoding.cat(0.8, mode_dim_for(1.2)), Encoding.cat(1.2, mode_dim_for(1.2))
        st = tensor(bell_pair(ParityBellLabel.PSI_MINUS, cat.flip(), cat_p), QUBIT.state(1.0, 0.0))
        probs = {label: p for label, p, _ in _measure_bell(st, (0, 1), cat.flip(), cat_p)}
        assert probs[ParityBellLabel.PSI_MINUS] == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="not encoded in the measured basis"):
            _measure_bell(st, (0, 1), cat, cat_p)


class TestParityMeasurement:
    def test_even_codeword_is_certain(self):
        st = Encoding.cat(1.0, mode_dim_for(1.0)).state(1.0, 0.0)
        outcome, p, collapsed = draw(parity_measurement(st, 0), RngStream(1))
        assert outcome == 1
        assert p == pytest.approx(1.0, abs=1e-12)
        assert abs(inner(collapsed, st)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("cat, parity", [((1.0, 0.0), 1), ((0.0, 1.0), -1)],
                             ids=["even_coherent-1", "odd_coherent--1"])
    def test_cat_codewords_are_eigenstates_for_every_z(self, cat, parity):
        # the eigen-branch's weight may round to 1 - 1ulp; the other branch
        # must then still be the exact zero of its own amplitudes
        # plain or flipped, |0_L> is even and |1_L> odd
        for z in np.linspace(0.0, 6.0, 601):
            enc = Encoding.cat(z, mode_dim_for(z))
            for table in (parity_measurement(e.state(*cat), 0) for e in (enc, enc.flip())):
                assert [outcome for outcome, _, _ in table] == [1, -1]
                for outcome, p, collapsed in table:
                    if outcome == parity:
                        assert p == pytest.approx(1.0, abs=1e-12)
                    else:
                        assert p == 0.0 and collapsed is None
                assert draw(table, RngStream(0))[0] == parity

    def test_superposition_statistics(self):
        z, dim = 0.9, mode_dim_for(0.9)
        alpha, beta = 0.6, 0.8j
        st = Encoding.cat(z, dim).state(alpha, beta)
        even_count = 0
        for seed in range(400):
            outcome, p, _ = draw(parity_measurement(st, 0), RngStream(seed))
            expected = abs(alpha) ** 2 if outcome == 1 else abs(beta) ** 2
            assert p == pytest.approx(expected, abs=1e-12)
            even_count += outcome == 1
        assert abs(even_count / 400 - abs(alpha) ** 2) < 0.08

    def test_qubit_factor_rejected(self):
        st = tensor(QUBIT.state(1.0, 0.0), Encoding.cat(0.5, mode_dim_for(0.5)).state(1.0, 0.0))
        with pytest.raises(ValueError, match="not a mode"):
            parity_measurement(st, 0)


class TestTeleportSpin:
    @pytest.mark.parametrize("channel", list(HesLabel))
    @pytest.mark.parametrize("z", [0.0, 0.5, 1.0, 2.0])
    def test_unit_fidelity_everywhere(self, channel, z, rng):
        dim = mode_dim_for(z)
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
        z, dim = 1.0, mode_dim_for(1.0)
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
                for _, _, rec in teleport_spin(*amps, channel, z, mode_dim_for(z)):
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
        assert np.array_equal(a.output_state.coeffs, b.output_state.coeffs)
        assert a.fidelity == b.fidelity


class TestTeleportParity:
    @pytest.mark.parametrize("channel", list(HesLabel))
    def test_unit_fidelity(self, channel, rng):
        z, zpp = 1.2, 0.7
        dim = mode_dim_for(1.2)
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
            amps = dense(rec.output_state).amps
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


# psi-psi- = 1/2 (Phi+phi~+ - Phi-phi~- - Psi+psi~+ + Psi-psi~-): each spin
# outcome's partnered cat pair and the joint state's coefficient on the two
SWAP_PAIRING = {
    SpinBellLabel.PHI_PLUS: (ParityBellLabel.PHI_PLUS, 0.5),
    SpinBellLabel.PHI_MINUS: (ParityBellLabel.PHI_MINUS, -0.5),
    SpinBellLabel.PSI_PLUS: (ParityBellLabel.PSI_PLUS, -0.5),
    SpinBellLabel.PSI_MINUS: (ParityBellLabel.PSI_MINUS, 0.5),
}


def assert_targets(rec, label):
    """rec is uncorrected and targets bell_pair(label) over its output's
    encodings, bit for bit."""
    pair = bell_pair(label, *rec.output_state.encodings)
    assert rec.correction is Correction.IDENTITY
    assert rec.target_state.encodings == pair.encodings
    assert rec.target_state.coeffs == pair.coeffs


class TestSwap:
    @pytest.mark.parametrize("z,zp", [(0.3, 0.3), (0.3, 1.0), (1.0, 2.0), (2.0, 0.3)])
    def test_expansion_signs_and_magnitudes(self, z, zp):
        dim = max(mode_dim_for(z), mode_dim_for(zp))
        expected = {(spin, parity): c for spin, (parity, c) in SWAP_PAIRING.items()}
        coeffs = swap_expansion(z, zp, dim)
        assert len(coeffs) == 16
        for pair, c in coeffs.items():
            assert abs(c - expected.get(pair, 0.0)) < 1e-12
        # the table pairs each spin outcome with its cat Bell state at weight 1/4
        for outcome, p, rec in swap_entanglement(z, zp, dim):
            parity_label = SWAP_PAIRING[outcome][0]
            assert_targets(rec, parity_label)
            assert expected[outcome, parity_label] ** 2 == pytest.approx(
                p * rec.fidelity, abs=1e-12
            )

    def test_expansion_reassembles_the_joint_state(self):
        z, zp = 1.0, 0.5
        dim = max(mode_dim_for(z), mode_dim_for(zp))
        joint = dense(tensor(
            hes_state(HesLabel.PSI_MINUS, z, dim),
            hes_state(HesLabel.PSI_MINUS, zp, dim),
        ))
        total = np.zeros_like(joint.amps.reshape(2, dim, 2, dim))
        for (spin_label, parity_label), c in swap_expansion(z, zp, dim).items():
            sb = dense(spin_bell_state(spin_label)).amps.reshape(2, 2)
            pb = dense(parity_bell_state(parity_label, z, zp, dim)).amps.reshape(dim, dim)
            total = total + c * np.einsum("ik,jl->ijkl", sb, pb)
        assert np.max(np.abs(total.reshape(-1) - joint.amps)) < 1e-12

    def test_collapse_onto_paired_state(self):
        z, zp = 1.0, 0.5
        dim = max(mode_dim_for(z), mode_dim_for(zp))
        seen = set()
        for seed in range(24):
            outcome, p, rec = draw(swap_entanglement(z, zp, dim), RngStream(seed))
            assert_targets(rec, SWAP_PAIRING[outcome][0])
            assert p == pytest.approx(0.25, abs=1e-10)
            assert rec.fidelity == pytest.approx(1.0, abs=1e-10)
            seen.add(outcome)
        assert seen == set(SpinBellLabel)

    def test_post_collapse_entropy_is_one_ebit(self):
        _, _, rec = draw(swap_entanglement(0.7, 1.3, mode_dim_for(1.3)), RngStream(5))
        ent = entanglement_entropy(rec.output_state, {0})
        assert ent == pytest.approx(1.0, abs=1e-10)

    def test_transcripts_reproduce_for_equal_seeds(self):
        oa, pa, a = draw(swap_entanglement(0.6, 1.1, 20), RngStream(31))
        ob, pb, b = draw(swap_entanglement(0.6, 1.1, 20), RngStream(31))
        assert oa is ob
        assert a.target_state.coeffs == b.target_state.coeffs
        assert pa == pb
        assert a.fidelity == b.fidelity
        assert np.array_equal(a.output_state.coeffs, b.output_state.coeffs)


class TestRngStream:
    def test_counter_tracks_draws(self):
        rng = RngStream(1)
        assert rng.counter == 0
        rng.uniform()
        rng.uniform()
        assert rng.counter == 2

    def test_counter_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            RngStream(0, counter=7)

    @pytest.mark.parametrize("args, kwargs", [((0, "x"), {}), ((0, 0.5), {}),
                                              ((0,), dict(first=0.5))],
                             ids=["string_first", "float_first", "keyword_first"])
    def test_takes_only_its_seed(self, args, kwargs):
        # the seed fixes the first variate, so none is passed
        with pytest.raises(TypeError):
            RngStream(*args, **kwargs)

    @pytest.mark.parametrize("seed", [0.5, "1", None])
    def test_refuses_a_seed_that_is_no_integer(self, seed):
        with pytest.raises(TypeError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            RngStream(seed)

    def test_same_seed_same_sequence(self):
        a, b = RngStream(9), RngStream(9)
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]

    @pytest.mark.parametrize("seed", [0, 9, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 10**50])
    def test_a_lone_stream_continues_default_rng(self, seed):
        rng, reference = RngStream(seed), np.random.default_rng(seed)
        assert [rng.uniform() for _ in range(6)] == [reference.random() for _ in range(6)]

    def test_a_later_draw_builds_no_generator(self, monkeypatch):
        # every draw steps PCG64 in Python integers
        reference = np.random.default_rng(2**40 + 3)
        expected = [reference.random() for _ in range(3)]
        monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: pytest.fail("built one"))
        rng = RngStream(2**40 + 3)
        assert [rng.uniform() for _ in range(3)] == expected

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RngStream(-1)
        with pytest.raises(ValueError, match="non-negative"):
            _first_uniforms(-1, 3)

    @pytest.mark.parametrize("seed", [0, 2**64 + 3, 2**200 - 1])
    def test_its_first_variate_is_a_batch_of_one(self, seed, monkeypatch):
        batches = []
        monkeypatch.setattr(hesim.protocols, "_first_uniforms",
                            lambda start, count: batches.append((start, count))
                            or _first_uniforms(start, count))
        assert RngStream(seed).first == np.random.default_rng(seed).random()
        assert batches == [(seed, 1)]


def _default_rng_firsts(seeds) -> list[float]:
    return [np.random.default_rng(int(s)).random() for s in seeds]


class TestFirstUniforms:
    """The lane-packed batch of a block of seeds that share their words above
    bit 64, the batch of one lane a lone stream takes, and the numpy batch
    they replaced: each is default_rng's."""

    @pytest.mark.parametrize(
        "start, count",
        [
            (0, 20_000),
            (2**32 - 2000, 2000),
            # whole blocks of two-word seeds: across 2**32, from it, up to the last below 2**64
            *((start, _BATCH_BLOCK) for start in
              (2**32 - _BATCH_BLOCK // 2, 2**32, 2**40 + 5, 2**63, 2**64 - _BATCH_BLOCK)),
        ],
        ids=["from_zero", "below_2_32", "across_2_32", "from_2_32", "from_2_40", "from_2_63",
             "last_below_2_64"],
    )
    def test_bit_identical_to_default_rng(self, start, count):
        expected = _default_rng_firsts(range(start, start + count))
        assert _first_uniforms(start, count) == expected
        seeds = np.arange(start, start + count, dtype=np.uint64)
        assert numpy_first_uniforms(seeds).tolist() == expected
        assert [RngStream(s).uniform() for s in range(start, start + count)] == expected

    # seeds of one, two, three, five and six 32-bit words: the last two mix
    # words past the pool's fourth
    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 3, 2**128 + 7, 10**50])
    def test_multi_word_seed(self, seed):
        assert _first_uniforms(seed, 1) == [np.random.default_rng(seed).random()]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**200 - 1))
    def test_any_seed_below_2_200(self, seed):
        # first and later draws of a lone stream
        rng, reference = RngStream(seed), np.random.default_rng(seed)
        assert [rng.uniform() for _ in range(3)] == [reference.random() for _ in range(3)]
        assert _first_uniforms(seed, 1) == [rng.first]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(start=st.integers(min_value=0, max_value=2**64 - 16), size=st.integers(1, 16))
    @example(start=2**32 - 8, size=16)
    @example(start=2**64 - 16, size=16)
    def test_a_block_from_any_start_below_2_64_is_default_rngs(self, start, size):
        expected = _default_rng_firsts(range(start, start + size))
        assert _first_uniforms(start, size) == expected
        seeds = np.arange(start, start + size, dtype=np.uint64)
        assert numpy_first_uniforms(seeds).tolist() == expected

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(start=st.integers(min_value=2**64, max_value=2**200 - 1), size=st.integers(1, 16))
    @example(start=2**64, size=16)
    @example(start=3 * 2**64 - 16, size=16)
    @example(start=2**128 - 16, size=16)
    @example(start=2**128, size=16)
    @example(start=10**30, size=16)
    def test_a_block_that_shares_its_words_above_bit_64_is_default_rngs(self, start, size):
        # the block ends before the next multiple of 2**64, so each lane's two
        # low words hold its own seed's and the words above are every lane's
        start = min(start, (start >> 64 << 64) + 2**64 - size)
        assert _first_uniforms(start, size) == _default_rng_firsts(range(start, start + size))


def _run_seed(where: str, trials: int, offset: int) -> int:
    """The first seed of a run of trials placed as where names."""
    straddle = offset % max(trials - 1, 1)  # seeds on both sides when trials > 1
    return {"from_zero": 0, "across_2_32": 2**32 - 1 - straddle, "to_2_64": 2**64 - trials,
            "across_2_64": 2**64 - 1 - straddle, "past_2_64": 2**64 + offset,
            "below_2_64": offset % (2**64 - trials), "across_3_2_64": 3 * 2**64 - 1 - straddle,
            "above_2_128": 2**128 + offset}[where]


class TestTrialStreams:
    @pytest.mark.parametrize("trials", [1, 4, 5, 5000])
    def test_one_stream_per_trial_in_seed_order(self, trials):
        streams = list(trial_streams(7, trials))
        assert [rng.seed for rng in streams] == list(range(7, 7 + trials))
        firsts = _default_rng_firsts(range(7, 7 + trials))
        assert [rng.uniform() for rng in streams] == firsts
        assert all(rng.counter == 1 for rng in streams)

    @pytest.mark.parametrize("seed", [0, 2**32 - 5])
    def test_batched_stream_continues_its_generator(self, seed):
        rng = next(trial_streams(seed, 5))
        reference = np.random.default_rng(seed)
        assert [rng.uniform() for _ in range(3)] == [reference.random() for _ in range(3)]
        assert rng.counter == 3

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(trials=st.integers(1, _BATCH_BLOCK),
           where=st.sampled_from(["from_zero", "across_2_32", "to_2_64", "across_2_64",
                                  "past_2_64", "below_2_64", "across_3_2_64", "above_2_128"]),
           offset=st.integers(0, 2**70))
    @example(trials=_BATCH_BLOCK, where="from_zero", offset=0)
    @example(trials=_BATCH_BLOCK, where="across_2_32", offset=_BATCH_BLOCK // 2)
    @example(trials=_BATCH_BLOCK, where="to_2_64", offset=0)
    @example(trials=_BATCH_BLOCK, where="past_2_64", offset=0)
    @example(trials=1, where="to_2_64", offset=0)
    @example(trials=_BATCH_BLOCK, where="across_2_64", offset=_BATCH_BLOCK // 2)
    @example(trials=_BATCH_BLOCK, where="across_3_2_64", offset=_BATCH_BLOCK // 2)
    @example(trials=_BATCH_BLOCK, where="above_2_128", offset=0)
    def test_every_draw_of_a_block_is_default_rngs(self, trials, where, offset):
        # every block is one batch, past 2**64 too; every first draw and every
        # later one is default_rng's, bit for bit
        seed = _run_seed(where, trials, offset)
        streams = list(trial_streams(seed, trials))
        references = [np.random.default_rng(seed + i) for i in range(trials)]
        assert [rng.uniform() for rng in streams] == [gen.random() for gen in references]
        for i in {0, trials // 2, trials - 1}:
            assert ([streams[i].uniform() for _ in range(3)]
                    == [references[i].random() for _ in range(3)])

    # (seed, trials, the (start, count) of each batch): a block holds
    # _BATCH_BLOCK seeds at most and also ends at each multiple of 2**64
    @pytest.mark.parametrize("seed, trials, batches", [
        (2**32 - 3000, 6000, [(2**32 - 3000 + k * _BATCH_BLOCK, _BATCH_BLOCK) for k in range(5)]
         + [(2**32 - 3000 + 5 * _BATCH_BLOCK, 6000 - 5 * _BATCH_BLOCK)]),
        (2**64 - 1500, 3000, [(2**64 - 1500, _BATCH_BLOCK), (2**64 - 1500 + _BATCH_BLOCK, 476),
                              (2**64, _BATCH_BLOCK), (2**64 + _BATCH_BLOCK, 476)]),
        (3 * 2**64 - 700, 1500, [(3 * 2**64 - 700, 700), (3 * 2**64, 800)]),
        (10**30, 2100, [(10**30, _BATCH_BLOCK), (10**30 + _BATCH_BLOCK, _BATCH_BLOCK),
                        (10**30 + 2 * _BATCH_BLOCK, 52)]),
    ], ids=["straddles_2_32", "straddles_2_64", "straddles_3_2_64", "from_10_30"])
    def test_every_block_is_one_batch(self, seed, trials, batches, monkeypatch):
        made = []
        monkeypatch.setattr(hesim.protocols, "_first_uniforms",
                            lambda start, count: made.append((start, count))
                            or _first_uniforms(start, count))
        streams = list(trial_streams(seed, trials))
        assert made == batches
        assert [rng.seed for rng in streams] == list(range(seed, seed + trials))
        assert [rng.first for rng in streams] == _default_rng_firsts(range(seed, seed + trials))

    def test_a_long_run_is_generated_block_by_block(self):
        streams = trial_streams(0, 10**9)
        tracemalloc.start()
        try:
            rng = next(streams)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rng.seed == 0 and rng.first == np.random.default_rng(0).random()
        assert peak < 2 * 2**20


class TestBranch:
    @pytest.mark.parametrize("amps", [[math.nan, 0.0], [1.0, 0.5]], ids=["nan", "above_one"])
    def test_probability_outside_the_unit_range_rejected(self, amps):
        # one guard serves every table: measurements, teleport and swap alike
        with pytest.raises(ValueError, match="outcome probability"):
            _branch("x", np.array(amps, dtype=complex), (QUBIT,))

    def test_rounding_above_one_is_accepted(self):
        _, p, state = _branch("x", np.array([1.0 + 1e-13, 0.0]), (QUBIT,))
        assert p > 1.0 and state.coeffs[0] == 1.0

    SCALE = 1.0 + 0.99e-12  # the norm of a state LogicalState accepts, just inside 1e-12

    def assert_measured(self, table, labels):
        # every branch comes back; the one that holds the state has p = SCALE**2
        assert [outcome for outcome, _, _ in table] == labels
        (p, state), = [(p, state) for _, p, state in table if p]
        assert abs(p - self.SCALE**2) <= 1e-15 and p > 1.0 + 1.9e-12
        assert abs(inner(state, state) - 1.0) <= 1e-15

    def test_a_spin_bell_measurement_takes_a_state_at_its_norm_bound(self):
        joint = tensor(spin_bell_state(SpinBellLabel.PSI_MINUS), QUBIT.state(0.6, 0.8j))
        scaled = LogicalState(joint.encodings, [c * self.SCALE for c in joint.coeffs])
        self.assert_measured(measure_spin_bell(scaled, (0, 1)), list(SpinBellLabel))

    def test_a_parity_measurement_takes_a_state_at_its_norm_bound(self):
        pair = (QUBIT, Encoding.cat(1.0, mode_dim_for(1.0)))
        scaled = LogicalState(pair, [0.6 * self.SCALE, 0j, 0.8j * self.SCALE, 0j])
        self.assert_measured(parity_measurement(scaled, 1), [1, -1])


class _FixedVariate:
    """Stand-in for an RngStream that always returns the same variate."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


def drawn_rows(table, us):
    """The row of table that ``run_trials`` counts for a trial drawing the
    variate u, for each u in us: one single-trial run per variate."""
    records = [(k, p, SimpleNamespace(fidelity=0.0)) for k, p, _ in table]
    with mock.patch.object(RngStream, "uniform", lambda rng: us[rng.seed]):
        return [run_trials(records, i, 1)[0].index(1) for i in range(len(us))]


def scan_rows(table, us):
    """The row ``linear_scan_draw`` picks for each variate u in us."""
    return [next(i for i, row in enumerate(table) if row is linear_scan_draw(table, _FixedVariate(u)))
            for u in us]


class TestDraw:
    """``run_trials`` draws each trial by inverse CDF over the probabilities."""

    def test_zero_probability_branch_is_never_chosen(self):
        table = [("a", 0.0, None), ("b", 0.5, "b"), ("c", 0.0, None), ("d", 0.5, "d")]
        assert set(drawn_rows(table, [0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53])) == {1, 3}
        records = [(k, p, SimpleNamespace(fidelity=1.0)) for k, p, _ in table]
        counts, _ = run_trials(records, 0, 50)
        assert counts[0] == counts[2] == 0 and sum(counts) == 50

    def test_inverse_cdf(self):
        table = [("a", 0.25, "a"), ("b", 0.5, "b"), ("c", 0.25, "c")]
        assert drawn_rows(table, [0.2, 0.25, 0.8]) == [0, 1, 2]

    def test_variate_on_the_remainder_falls_back_to_the_likeliest_branch(self):
        # a variate at the top of the CDF lies past every cumulative sum
        table = [("a", 0.3, "a"), ("b", 0.6, "b"), ("c", 0.1, "c")]
        assert drawn_rows(table, [1.0]) == [1]

    def test_weight_outside_the_span_raises_before_drawing(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(RngStream, "uniform", lambda rng: drawn.append(rng) or 0.5)
        table = [("a", 0.45, SimpleNamespace(fidelity=1.0)), ("b", 0.45, SimpleNamespace(fidelity=1.0))]
        with pytest.raises(ValueError, match="outside the span"):
            run_trials(table, 0, 1)
        assert drawn == []
        # rounding-level shortfalls are not an error
        short = [("a", 0.5, SimpleNamespace(fidelity=1.0)),
                 ("b", 0.5 - 1e-12, SimpleNamespace(fidelity=1.0))]
        assert run_trials(short, 0, 1) == ([1, 0], 1.0)

    def test_one_variate_per_draw(self, monkeypatch):
        table, drawn = teleport_spin(0.6, 0.8, HesLabel.PHI_PLUS, 1.0, mode_dim_for(1.0)), []
        uniform = RngStream.uniform
        monkeypatch.setattr(RngStream, "uniform", lambda rng: drawn.append(rng.seed) or uniform(rng))
        run_trials(table, 3, 4)
        assert drawn == list(range(3, 3 + 4))


def boundary_variates(table):
    """Variates that land exactly on, or one ulp either side of, the points
    where the scaled variate crosses a running sum, plus both ends of [0, 1]."""
    total = sum(p for _, p, _ in table)
    us, acc = {0.0, 2.0**-1074, 1.0 - 2.0**-53, 1.0}, 0.0
    for _, p, _ in table:
        acc += p
        u = acc / total
        us.update((np.nextafter(u, -1.0), u, np.nextafter(u, 2.0)))
    return sorted(float(u) for u in us if 0.0 <= u <= 1.0)


class TestRowChoice:
    """``run_trials`` counts each trial for the row a linear scan of the table picks."""

    TABLES = {
        "zero rows": [("a", 0.0, None), ("b", 0.5, "b"), ("c", 0.0, None), ("d", 0.5, "d")],
        "dyadic": [("a", 0.25, "a"), ("b", 0.5, "b"), ("c", 0.25, "c")],
        "subnormal row": [("a", 0.5, "a"), ("b", 5e-324, "b"), ("c", 0.5, "c")],
        "subnormal first": [("a", 5e-324, "a"), ("b", 1.0, "b")],
        "tiny then zero": [("a", 1e-300, "a"), ("b", 0.0, None), ("c", 1.0, "c")],
        "inexact total": [(k, 0.1, k) for k in "abcdefghij"],
        # short of 1 by less than a state's norm bound allows, so still drawn
        "short total": [("a", 0.3, "a"), ("b", 0.6, "b"), ("c", 0.1 - 1e-12, "c")],
        "likeliest last": [("a", 0.2, "a"), ("b", 0.0, None), ("c", 0.8, "c")],
    }

    @pytest.mark.parametrize("name", list(TABLES))
    def test_matches_the_linear_scan_on_every_boundary(self, name):
        table = self.TABLES[name]
        us = boundary_variates(table)
        assert drawn_rows(table, us) == scan_rows(table, us)

    def test_a_variate_on_the_rounding_remainder_takes_the_likeliest_row(self):
        # ten rows of 0.1 sum to 1 - 2**-53; a variate of 1 scales to that sum,
        # past every running sum, so the likeliest row (the first of ten) is drawn
        table = self.TABLES["inexact total"]
        assert sum(p for _, p, _ in table) < 1.0
        assert drawn_rows(table, [1.0, 1.0 - 2.0**-53]) == [0, 9]
        assert scan_rows(table, [1.0]) == [0]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.just(5e-324), st.floats(1e-300, 1.0)),
            min_size=1, max_size=8,
        ).filter(lambda w: sum(w) > 0.0),
        u=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_matches_the_linear_scan_on_random_tables(self, weights, u):
        total = sum(weights)
        table = [(k, w / total, k) for k, w in enumerate(weights)]
        us = [u, *boundary_variates(table)]
        assert drawn_rows(table, us) == scan_rows(table, us)

    PROTOCOLS = {
        "teleport_spin": lambda: teleport_spin(
            0.6, 0.8j, HesLabel.PSI_PLUS, 1.1, mode_dim_for(1.1)
        ),
        "teleport_parity": lambda: teleport_parity(
            1.0, 0.0, 0.7, HesLabel.PHI_MINUS, 1.3, mode_dim_for(1.3)
        ),
        "swap": lambda: swap_entanglement(0.8, 1.2, mode_dim_for(1.2)),
    }

    @pytest.mark.parametrize("name", list(PROTOCOLS))
    def test_matches_the_linear_scan_on_protocol_tables(self, name):
        table = self.PROTOCOLS[name]()
        scanned = [0] * len(table)
        for rng in trial_streams(40, 300):
            scanned[scan_rows(table, [rng.uniform()])[0]] += 1
        assert run_trials(table, 40, 300)[0] == scanned


class TestRunTrials:
    """``run_trials`` counts and sums what the oracle loop, one ``sampler``
    pick per stream of ``trial_streams``, draws, bit for bit."""

    @staticmethod
    def _table(name):
        """A protocol table, or a row-choice table whose rows carry fidelities
        that round differently when added in another order."""
        if name in TestRowChoice.PROTOCOLS:
            return TestRowChoice.PROTOCOLS[name]()
        return [(k, p, SimpleNamespace(fidelity=math.pi**-row))
                for row, (k, p, _) in enumerate(TestRowChoice.TABLES[name])]

    @pytest.mark.parametrize("seed", [0, 2**32 - 20, 2**40])
    @pytest.mark.parametrize("trials", [1, 4, 5, 15, 16, 17,
                                        _BATCH_BLOCK, _BATCH_BLOCK + 1])
    @pytest.mark.parametrize("name", [*TestRowChoice.TABLES, *TestRowChoice.PROTOCOLS])
    def test_matches_the_loop_bit_for_bit(self, name, trials, seed):
        table = self._table(name)
        counts, fidelity = run_trials(table, seed, trials)
        expected_counts, expected_fidelity = looped_trials(table, seed, trials)
        assert counts == expected_counts and sum(counts) == trials
        assert fidelity == expected_fidelity

    @pytest.mark.parametrize("name", list(TestRowChoice.TABLES))
    def test_matches_the_loop_on_every_boundary(self, name, monkeypatch):
        table = self._table(name)
        us = boundary_variates(table)  # trial i draws us[i]
        monkeypatch.setattr(RngStream, "uniform", lambda rng: us[rng.seed])
        assert run_trials(table, 0, len(us)) == looped_trials(table, 0, len(us))

    def test_a_variate_on_the_rounding_remainder_counts_for_the_likeliest_row(
            self, monkeypatch):
        table = self._table("inexact total")
        monkeypatch.setattr(RngStream, "uniform", lambda rng: 1.0)
        assert run_trials(table, 0, 3) == ([3] + [0] * 9, 3.0)

    def test_one_draw_per_stream_through_the_class_method(self, monkeypatch):
        # the method is read when the run starts, so a wrapper installed on
        # the class after import sees every draw, as a traced run counts them
        table, drawn = self._table("swap"), []
        uniform = RngStream.uniform

        def counted(rng):
            drawn.append(rng.seed)
            return uniform(rng)

        monkeypatch.setattr(RngStream, "uniform", counted)
        run_trials(table, 5, _BATCH_BLOCK + 1)
        assert drawn == list(range(5, 5 + _BATCH_BLOCK + 1))

    def test_refuses_a_negative_trial_count_before_drawing(self, monkeypatch):
        monkeypatch.setattr(RngStream, "uniform", lambda rng: pytest.fail("drew a variate"))
        table = self._table("teleport_spin")
        with pytest.raises(ValueError, match=r"trials must be >= 0, got -5"):
            run_trials(table, 0, -5)
        assert run_trials(table, 0, 0) == ([0, 0, 0, 0], 0.0)

    @pytest.mark.parametrize("seed", [-1, -3, -2**64 - 5])
    def test_refuses_a_negative_seed_before_drawing(self, seed, monkeypatch):
        monkeypatch.setattr(RngStream, "uniform", lambda rng: pytest.fail("drew a variate"))
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            run_trials(self._table("teleport_spin"), seed, 5)

    @pytest.mark.parametrize("seed, trials, name", [
        (0.5, 3, "seed"), ("1", 3, "seed"), (0, 3.0, "trials"), (0, None, "trials"),
    ])
    def test_refuses_a_seed_or_trial_count_that_is_no_integer_before_drawing(
            self, seed, trials, name, monkeypatch):
        monkeypatch.setattr(RngStream, "uniform", lambda rng: pytest.fail("drew a variate"))
        value = repr(seed if name == "seed" else trials)
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {re.escape(value)}$"):
            run_trials(self._table("teleport_spin"), seed, trials)

    def test_takes_any_integer_operator_index_takes(self):
        table = self._table("swap")
        assert run_trials(table, np.uint64(2**63), np.int8(5)) == run_trials(table, 2**63, 5)

    def test_checks_the_span_before_drawing(self):
        with pytest.raises(ValueError, match="outside the span"):
            run_trials([("a", 0.45, None), ("b", 0.45, None)], 0, 1)

    @pytest.mark.parametrize("norm", NORMS_AT_THE_BOUND)
    def test_a_measurement_of_a_state_at_its_norm_bound_is_drawn(self, norm):
        # the table sums to the squared norm, about 1 ± 1.98e-12; every trial
        # draws the one outcome that holds the state
        joint = at_norm(tensor(spin_bell_state(SpinBellLabel.PSI_MINUS), QUBIT.state(0.6, 0.8j)),
                        norm)
        table = [(k, p, SimpleNamespace(fidelity=1.0))
                 for k, p, _ in measure_spin_bell(joint, (0, 1))]
        assert abs(sum(p for _, p, _ in table) - 1.0) > 1.9e-12
        expected = ([int(k is SpinBellLabel.PSI_MINUS) * 10 for k, _, _ in table], 10.0)
        assert run_trials(table, 0, 10) == looped_trials(table, 0, 10) == expected

    SHORT = {
        "1e-11 short": [("a", 0.5, None), ("b", 0.5 - 1e-11, None)],
        "5e-11 short": [("a", 0.3, None), ("b", 0.6, None), ("c", 0.1 - 5e-11, None)],
        "nan row": [("a", math.nan, None), ("b", 0.5, None)],
    }

    @pytest.mark.parametrize("name", list(SHORT))
    def test_refuses_a_table_short_of_a_states_norm_bound_before_drawing(self, name, monkeypatch):
        monkeypatch.setattr(RngStream, "uniform", lambda rng: pytest.fail("drew a variate"))
        table = [(k, p, SimpleNamespace(fidelity=1.0)) for k, p, _ in self.SHORT[name]]
        with pytest.raises(ValueError, match="outside the span"):
            run_trials(table, 0, 10)
        with pytest.raises(ValueError, match="outside the span"):
            looped_trials(table, 0, 10)

    def test_a_run_of_three_blocks_stays_flat(self):
        table = self._table("teleport_spin")
        run_trials(table, 0, _BATCH_BLOCK)  # the lane constants of a whole block
        peaks = []
        for blocks in (2, 3):
            tracemalloc.start()
            try:
                counts, _ = run_trials(table, 0, blocks * _BATCH_BLOCK)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert sum(counts) == blocks * _BATCH_BLOCK
        # one block's streams, variates and lane integers take about 0.45 MB
        assert peaks[1] < peaks[0] + 2**16 and peaks[1] < 2 * 2**20


AMPLITUDES = st.tuples(
    st.floats(min_value=0.0, max_value=math.pi / 2),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
).map(lambda t: (math.cos(t[0]) * complex(math.cos(t[1]), math.sin(t[1])),
                 math.sin(t[0]) * complex(math.cos(t[2]), math.sin(t[2]))))
Z = st.floats(min_value=0.0, max_value=3.0)
Z_LARGE = st.floats(min_value=3.0, max_value=9.0)  # the benchmark's cutoff_sweep range
CHANNEL = st.sampled_from(list(HesLabel))


def check_teleport_table(table, labels, channel):
    assert [outcome for outcome, _, _ in table] == list(labels)
    for outcome, p, rec in table:
        assert p == pytest.approx(0.25, abs=1e-10)
        assert rec.fidelity == pytest.approx(1.0, abs=1e-10)
        assert rec.correction is correction_for(outcome, channel)


def check_swap_table(table, pairing=SWAP_PAIRING):
    """Each outcome leaves the unmeasured pair in its partner with p = 1/4 and
    the joint state's signed coefficient sqrt(p) <pair|output> = ±1/2, and the
    record targets that partner with fidelity 1. The protocol does not check
    the coefficient or the collapse itself; this does."""
    assert [outcome for outcome, _, _ in table] == list(type(table[0][0]))
    for outcome, p, rec in table:
        partner, expected = pairing[outcome]
        assert_targets(rec, partner)
        assert abs(math.sqrt(p) * inner(rec.target_state, rec.output_state) - expected) <= 1e-12
        assert p == pytest.approx(0.25, abs=1e-10)
        assert rec.fidelity == pytest.approx(1.0, abs=1e-10)
        assert entanglement_entropy(rec.output_state, {0}) == pytest.approx(1.0, abs=1e-10)


class TestEveryBranch:
    """The paper's protocol claims hold on all four branches, for every z."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(amps=AMPLITUDES, z=Z, channel=CHANNEL)
    def test_teleport_spin(self, amps, z, channel):
        table = teleport_spin(*amps, channel, z, mode_dim_for(z))
        check_teleport_table(table, SpinBellLabel, channel)

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(amps=AMPLITUDES, z=Z_LARGE, channel=CHANNEL)
    def test_teleport_spin_at_large_z(self, amps, z, channel):
        table = teleport_spin(*amps, channel, z, mode_dim_for(z))
        check_teleport_table(table, SpinBellLabel, channel)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(amps=AMPLITUDES, z=Z, zpp=Z, channel=CHANNEL)
    def test_teleport_parity(self, amps, z, zpp, channel):
        table = teleport_parity(*amps, zpp, channel, z, max(mode_dim_for(z), mode_dim_for(zpp)))
        check_teleport_table(table, ParityBellLabel, channel)

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(amps=AMPLITUDES, z=Z_LARGE, zpp=Z_LARGE, channel=CHANNEL)
    def test_teleport_parity_at_large_z(self, amps, z, zpp, channel):
        table = teleport_parity(*amps, zpp, channel, z, max(mode_dim_for(z), mode_dim_for(zpp)))
        check_teleport_table(table, ParityBellLabel, channel)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(z=Z, zp=Z)
    def test_swap(self, z, zp):
        check_swap_table(swap_entanglement(z, zp, max(mode_dim_for(z), mode_dim_for(zp))))

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(z=Z_LARGE, zp=Z_LARGE)
    def test_swap_at_large_z(self, z, zp):
        check_swap_table(swap_entanglement(z, zp, max(mode_dim_for(z), mode_dim_for(zp))))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @example(z=0.0, zp=0.0)
    @example(z=9.0, zp=9.0)
    @given(z=st.floats(0.0, 9.0), zp=st.floats(0.0, 9.0))
    def test_reverse_swap(self, z, zp):
        # an extension: Bell-measuring the two modes of psi-(z) x psi-(z') in
        # the cat basis entangles the two spins, with the swap's pairing read
        # the other way round
        dim = max(mode_dim_for(z), mode_dim_for(zp))
        cat, cat_prime = Encoding.cat(z, dim), Encoding.cat(zp, dim)
        joint = tensor(bell_pair(HesLabel.PSI_MINUS, QUBIT, cat),
                       bell_pair(HesLabel.PSI_MINUS, QUBIT, cat_prime))
        pairing = {parity: (spin, c) for spin, (parity, c) in SWAP_PAIRING.items()}
        table = _teleport(joint, (1, 3), (cat, cat_prime), lambda outcome: (
            Correction.IDENTITY, bell_pair(pairing[outcome][0], QUBIT, QUBIT).coeffs))
        check_swap_table(table, pairing)
        for _, p, rec in table:  # measured at most 1.1e-16 and 4.4e-16 over 200 (z, z')
            assert rec.output_state.encodings == (QUBIT, QUBIT)
            assert abs(p - 0.25) <= 1e-15 and 1.0 - rec.fidelity <= 1e-15


def product_rule(encodings) -> float:
    """1 - prod(1 - r) over the encodings' residuals, in party order, each
    step written as a + b - a*b so that residuals near machine precision survive."""
    return functools.reduce(lambda a, b: a + b - a * b, (enc.residual for enc in encodings))


def states_of(table):
    """Every state a branch table holds: a branch's own, or its record's."""
    for _, _, result in table:
        if isinstance(result, LogicalState):
            yield result
        elif result is not None:
            yield from (v for v in vars(result).values() if isinstance(v, LogicalState))


class TestWorkedOut:
    """A state works out its truncation residual from its encodings, and a
    record its fidelity from its states; no caller passes either."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(amps=AMPLITUDES, z=st.floats(0.0, 9.0), zp=st.floats(0.0, 9.0), channel=CHANNEL)
    def test_every_tables_residuals_follow_the_product_rule(self, amps, z, zp, channel):
        dim = max(mode_dim_for(z), mode_dim_for(zp))
        cat, cat_prime = Encoding.cat(z, dim), Encoding.cat(zp, dim)
        spin_joint = tensor(QUBIT.state(*amps), hes_state(channel, z, dim))
        parity_joint = tensor(hes_state(channel, z, dim), cat_prime.state(*amps))
        tables = [teleport_spin(*amps, channel, z, dim), teleport_parity(*amps, zp, channel, z, dim),
                  swap_entanglement(z, zp, dim), measure_spin_bell(spin_joint, (0, 1)),
                  _measure_bell(parity_joint, (2, 1), cat_prime, cat),
                  parity_measurement(parity_joint, 2), parity_measurement(spin_joint, 2)]
        states = [spin_joint, parity_joint, *(s for table in tables for s in states_of(table))]
        assert len(states) >= 2 + 8 + 8 + 4 + 4 + 4 + 1 + 1  # a parity branch may be empty
        for state in states:
            assert state.truncation_residual == product_rule(state.encodings)
        # a parity teleport lands on a spin, which loses nothing to truncation
        for _, _, rec in tables[1]:
            assert rec.output_state.truncation_residual == 0.0
        for _, _, rec in tables[0]:
            assert rec.output_state.truncation_residual == cat.residual

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(z=st.floats(0.0, 9.0), zp=st.floats(0.0, 9.0))
    def test_a_swap_fidelity_is_the_swaps_own_overlap_bit_for_bit(self, z, zp):
        # the pair's conjugated coefficients against the modes', from 0j, in order
        for outcome, _, rec in swap_entanglement(z, zp, max(mode_dim_for(z), mode_dim_for(zp))):
            pair = bell_pair(SWAP_PAIRING[outcome][0], *rec.output_state.encodings)
            row = [c.conjugate() for c in pair.coeffs]
            overlap = sum((x * y for x, y in zip(row, rec.output_state.coeffs)), 0j)
            assert rec.fidelity.hex() == (abs(overlap) ** 2).hex()

    def test_a_teleport_fidelity_is_the_overlap_of_its_states(self, rng):
        cat = Encoding.cat(1.2, mode_dim_for(1.2))
        output, target = cat.state(*random_qubit_pair(rng)), cat.state(*random_qubit_pair(rng))
        rec = TeleportRecord(Correction.S_Z, output, target)
        assert rec.fidelity == abs(inner(target, output)) ** 2
        assert repr(rec) == (f"TeleportRecord(correction={Correction.S_Z!r}, "
                             f"output_state={output!r}, target_state={target!r})")

    def test_a_teleport_record_refuses_states_over_different_encodings(self):
        cat = Encoding.cat(1.2, mode_dim_for(1.2))
        for output, target in ((QUBIT.state(1.0, 0.0), cat.state(1.0, 0.0)),
                               (cat.state(1.0, 0.0), cat.flip().state(1.0, 0.0))):
            with pytest.raises(ValueError, match="over different encodings"):
                TeleportRecord(Correction.IDENTITY, output, target)

    def test_a_record_refuses_a_pair_and_a_target_over_other_encodings(self):
        cat, cat_prime = Encoding.cat(1.2, 20), Encoding.cat(0.7, 24)
        modes = bell_pair(ParityBellLabel.PSI_MINUS, cat, cat_prime)
        for target in (bell_pair(ParityBellLabel.PSI_MINUS, cat_prime, cat),
                       bell_pair(ParityBellLabel.PSI_MINUS, cat.flip(), cat_prime),
                       cat.state(1.0, 0.0), hes_state(HesLabel.PSI_MINUS, 0.7, 24)):
            spaces = (f"between states on {re.escape(target.space.describe())} and "
                      f"{re.escape(modes.space.describe())} over different encodings")
            with pytest.raises(ValueError, match=spaces):
                TeleportRecord(Correction.IDENTITY, modes, target)

    def test_records_take_no_fidelity(self):
        cat = Encoding.cat(1.2, mode_dim_for(1.2))
        target = cat.state(1.0, 0.0)
        modes = parity_bell_state(ParityBellLabel.PSI_MINUS, 1.2, 1.2, cat.space.dim)
        with pytest.raises(TypeError):
            TeleportRecord(Correction.IDENTITY, target, target, 1.0)
        assert TeleportRecord(Correction.IDENTITY, modes, modes).fidelity == pytest.approx(
            1.0, abs=1e-15)


Z_DENSE = st.floats(min_value=0.5, max_value=9.0)


def assert_same_state(logical, dense_state):
    """The dense expansion of logical equals dense_state, up to rounding."""
    assert np.max(np.abs(dense(logical).amps - dense_state.amps)) < 1e-10


def check_against_dense_teleport(table, rows):
    assert [outcome for outcome, _, _ in table] == [row[0] for row in rows]
    for (_, p, rec), (_, dense_p, correction, fidelity, output) in zip(table, rows):
        assert p == pytest.approx(dense_p, abs=1e-10)
        assert rec.correction is correction
        assert rec.fidelity == pytest.approx(fidelity, abs=1e-10)
        assert_same_state(rec.output_state, output)


class TestAgainstTheDenseRoute:
    """Every table the coefficient route builds is the one the dense joint
    state, dense projections and dense pseudospin corrections give."""

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(amps=AMPLITUDES, z=Z_DENSE, channel=CHANNEL)
    def test_teleport_spin(self, amps, z, channel):
        dim = mode_dim_for(z)
        check_against_dense_teleport(teleport_spin(*amps, channel, z, dim),
                                     dense_teleport_spin(*amps, channel, z, dim))

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(amps=AMPLITUDES, z=Z_DENSE, zpp=Z_DENSE, channel=CHANNEL)
    def test_teleport_parity(self, amps, z, zpp, channel):
        dim = max(mode_dim_for(z), mode_dim_for(zpp))
        check_against_dense_teleport(teleport_parity(*amps, zpp, channel, z, dim),
                                     dense_teleport_parity(*amps, zpp, channel, z, dim))

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(z=Z_DENSE, zp=Z_DENSE)
    def test_swap(self, z, zp):
        dim = max(mode_dim_for(z), mode_dim_for(zp))
        table = swap_entanglement(z, zp, dim)
        rows = dense_swap(z, zp, dim)
        assert [outcome for outcome, _, _ in table] == [row[0] for row in rows]
        for (_, p, rec), (_, dense_p, fidelity, schmidt) in zip(table, rows):
            assert p == pytest.approx(dense_p, abs=1e-10)
            assert rec.fidelity == pytest.approx(fidelity, abs=1e-10)
            got = schmidt_coefficients(rec.output_state, {0}).coefficients
            assert_leads_the_dense_spectrum(got, schmidt, 2, {0}, 1e-10)


def peak_bytes(build):
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("z,zp", [(30.0, 25.0), (100.0, 97.5)])
class TestAtACutoffNoDenseStateFits:
    """At z = 100 (dim 10776) the dense swap state would need about 7.4 GB."""

    def test_swap(self, z, zp):
        table, peak = peak_bytes(lambda: swap_entanglement(z, zp, mode_dim_for(max(z, zp))))
        check_swap_table(table)
        for _, _, rec in table:
            assert rec.fidelity >= 1.0 - 1e-9
        assert peak < 50 * 2**20

    def test_teleport_parity(self, z, zp):
        dim = mode_dim_for(max(z, zp))
        table, peak = peak_bytes(
            lambda: teleport_parity(0.6, 0.8j, zp, HesLabel.PSI_MINUS, z, dim))
        check_teleport_table(table, ParityBellLabel, HesLabel.PSI_MINUS)
        assert min(rec.fidelity for _, _, rec in table) >= 1.0 - 1e-9
        assert peak < 50 * 2**20

    def test_teleport_spin(self, z, zp):
        table, peak = peak_bytes(
            lambda: teleport_spin(0.6, 0.8j, HesLabel.PHI_MINUS, z, mode_dim_for(z)))
        check_teleport_table(table, SpinBellLabel, HesLabel.PHI_MINUS)
        assert min(rec.fidelity for _, _, rec in table) >= 1.0 - 1e-9
        assert peak < 50 * 2**20
