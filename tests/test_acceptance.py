"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import math

import numpy as np

from hesim import (
    HesLabel,
    ParityBellLabel,
    RngStream,
    SpinBellLabel,
    analytic_optimum,
    entanglement_entropy,
    hes_state,
    k_matrix,
    k_series,
    measure_spin_bell,
    mode_dim_for,
    optimize_chsh,
    parity_bell_state,
    run_trials,
    schmidt_coefficients,
    spin_bell_state,
    swap_entanglement,
    teleport_parity,
    teleport_spin,
    tensor,
)
from hesim.fock import Encoding
from hesim.cli import main

from oracles import (
    build_pseudospin,
    chsh_expectation,
    dense,
    direction,
    draw,
    spin_dot,
    swap_expansion,
)

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)
SQRT_HALF = 1.0 / math.sqrt(2.0)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def random_pair(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


def test_criterion_1_limit_overlap_and_cirelson_point():
    k0 = k_series(0.0)
    violation = 2.0 * math.sqrt(1.0 + k0 * k0)
    ok = k0 == 1.0 and abs(violation - TWO_SQRT_TWO) <= 1e-12
    report(1, "k(0) limit and Cirelson point", ok, f"k(0)={k0!r}")


def test_criterion_2_dual_route_overlap():
    worst = 0.0
    for z in (0.1, 0.5, 1.0, 2.0, 3.0):
        diff = abs(k_series(z) - k_matrix(z, mode_dim_for(z)))
        worst = max(worst, diff)
    report(2, "series vs matrix overlap", worst < 1e-10, f"worst diff {worst:.3e}")


def test_criterion_3_closed_form_violation():
    worst = 0.0
    ok = True
    for z in (0.0, 0.5, 1.0, 2.0):
        dim = mode_dim_for(z)
        k = k_series(z)
        expected = 2.0 * math.sqrt(1.0 + k * k)
        for label in HesLabel:
            res = analytic_optimum(z, label)
            got = chsh_expectation(hes_state(label, z, dim), res.settings)
            worst = max(worst, abs(got - expected))
            ok &= abs(got - expected) <= 1e-10
            ok &= got > 2.0
            ok &= got <= TWO_SQRT_TWO + 1e-9
    report(3, "closed-form optimum reproduction", ok, f"worst dev {worst:.3e}")


def test_criterion_4_optimizer_consistency():
    ok = True
    worst_gap = 0.0
    for z in (0.0, 0.5, 1.0, 2.0):
        dim = mode_dim_for(z)
        for label in HesLabel:
            res = optimize_chsh(hes_state(label, z, dim))
            gap = analytic_optimum(z, label).value - res.value
            worst_gap = max(worst_gap, gap)
            ok &= gap <= 1e-6
    rng = np.random.default_rng(2024)
    worst_product = 0.0
    for _ in range(20):
        # a random qubit times a random superposition of the cats at a random z
        q = rng.normal(size=2) + 1j * rng.normal(size=2)
        m = rng.normal(size=2) + 1j * rng.normal(size=2)
        z = float(rng.uniform(0.0, 3.0))
        state = tensor(Encoding.qubit().state(*(q / np.linalg.norm(q))),
                       Encoding.cat(z, mode_dim_for(z)).state(*(m / np.linalg.norm(m))))
        res = optimize_chsh(state)
        worst_product = max(worst_product, res.value)
        ok &= res.value <= 2.0 + 1e-6
    report(
        4,
        "optimizer reaches closed form, product states stay classical",
        ok,
        f"worst HES gap {worst_gap:.3e}, max product value {worst_product:.6f}",
    )


def test_criterion_5_algebra_suite():
    worst = 0.0
    rng = np.random.default_rng(5)
    for dim in (4, 12, 20):
        ops = build_pseudospin(dim)
        sz, sp, sm = ops.s_z, ops.s_plus, ops.s_minus
        worst = max(worst, float(np.max(np.abs(sz @ sp - sp @ sz - 2 * sp))))
        worst = max(worst, float(np.max(np.abs(sz @ sm - sm @ sz + 2 * sm))))
        worst = max(worst, float(np.max(np.abs(sp @ sm - sm @ sp - sz))))
    ops = build_pseudospin(16)
    eye = np.eye(16)
    for _ in range(100):
        m = spin_dot(direction(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)), ops)
        worst = max(worst, float(np.max(np.abs(m @ m - eye))))
    report(5, "parity algebra exact on truncation", worst <= 1e-13, f"worst {worst:.3e}")


def test_criterion_6_one_ebit_suite():
    grid = (0.1, 0.5, 1.0, 2.0)
    worst_ent = 0.0
    worst_schmidt = 0.0
    for z in grid:
        dim = mode_dim_for(z)
        for label in HesLabel:
            st = hes_state(label, z, dim)
            worst_ent = max(worst_ent, abs(entanglement_entropy(st, {0}) - 1.0))
            spec = schmidt_coefficients(st, {0})
            worst_schmidt = max(
                worst_schmidt,
                abs(spec.coefficients[0] - SQRT_HALF),
                abs(spec.coefficients[1] - SQRT_HALF),
            )
    for z in grid:
        for zp in grid:
            dim = max(mode_dim_for(z), mode_dim_for(zp))
            for label in ParityBellLabel:
                st = parity_bell_state(label, z, zp, dim)
                worst_ent = max(worst_ent, abs(entanglement_entropy(st, {0}) - 1.0))
                spec = schmidt_coefficients(st, {0})
                worst_schmidt = max(
                    worst_schmidt,
                    abs(spec.coefficients[0] - SQRT_HALF),
                    abs(spec.coefficients[1] - SQRT_HALF),
                )
    ok = worst_ent <= 1e-10 and worst_schmidt <= 1e-10
    report(
        6,
        "one ebit across both entangled families",
        ok,
        f"entropy dev {worst_ent:.3e}, Schmidt dev {worst_schmidt:.3e}",
    )


def test_criterion_7_teleportation():
    rng = np.random.default_rng(7)
    # expansion reassembly on 50 random inputs
    worst_residual = 0.0
    for _ in range(50):
        alpha, beta = random_pair(rng)
        z = float(rng.uniform(0.05, 2.0))
        channel = list(HesLabel)[int(rng.integers(0, 4))]
        dim = mode_dim_for(z)
        joint = tensor(Encoding.qubit().state(alpha, beta), hes_state(channel, z, dim))
        parts = measure_spin_bell(joint, (0, 1))
        total = sum(np.kron(dense(spin_bell_state(l)).amps, dense(br).amps)
                    for l, _, br in parts) / 2.0
        target = np.kron([alpha, beta], dense(hes_state(channel, z, dim)).amps)
        worst_residual = max(worst_residual, float(np.max(np.abs(total - target))))
    ok = worst_residual < 1e-12

    # every branch of both protocols teleports with unit fidelity
    worst_fid = 0.0
    for channel in HesLabel:
        spin_seen, parity_seen = set(), set()
        for seed in range(48):
            alpha, beta = random_pair(rng)
            table = teleport_spin(alpha, beta, channel, 1.0, mode_dim_for(1.0))
            outcome, _, rec = draw(table, RngStream(seed))
            worst_fid = max(worst_fid, abs(rec.fidelity - 1.0))
            spin_seen.add(outcome)
            table = teleport_parity(alpha, beta, 0.6, channel, 1.0, mode_dim_for(1.0))
            outcome, _, rec = draw(table, RngStream(seed))
            worst_fid = max(worst_fid, abs(rec.fidelity - 1.0))
            parity_seen.add(outcome)
        ok &= spin_seen == set(SpinBellLabel)
        ok &= parity_seen == set(ParityBellLabel)
    ok &= worst_fid <= 1e-10

    # 4096-trial outcome frequencies for both protocols
    trials = 4096
    dim = mode_dim_for(1.0)
    spin_table = teleport_spin(0.6, 0.8, HesLabel.PHI_PLUS, 1.0, dim)
    parity_table = teleport_parity(0.6, 0.8, 0.6, HesLabel.PHI_PLUS, 1.0, dim)
    # trial i draws from RngStream(i)
    counts_spin = dict(zip(SpinBellLabel, run_trials(spin_table, 0, trials)[0]))
    counts_parity = dict(zip(ParityBellLabel, run_trials(parity_table, 0, trials)[0]))
    worst_freq = 0.0
    for counts in (counts_spin, counts_parity):
        for n in counts.values():
            worst_freq = max(worst_freq, abs(n / trials - 0.25))
    ok &= worst_freq <= 0.03
    report(
        7,
        "teleportation: reassembly, fidelity, frequencies",
        ok,
        f"residual {worst_residual:.3e}, fidelity dev {worst_fid:.3e}, "
        f"freq dev {worst_freq:.4f}",
    )


def test_criterion_8_swapping():
    expected = {
        (SpinBellLabel.PHI_PLUS, ParityBellLabel.PHI_PLUS): 0.5,
        (SpinBellLabel.PHI_MINUS, ParityBellLabel.PHI_MINUS): -0.5,
        (SpinBellLabel.PSI_PLUS, ParityBellLabel.PSI_PLUS): -0.5,
        (SpinBellLabel.PSI_MINUS, ParityBellLabel.PSI_MINUS): 0.5,
    }
    worst_coeff = 0.0
    for z in (0.3, 1.0, 2.0):
        for zp in (0.3, 1.0, 2.0):
            dim = max(mode_dim_for(z), mode_dim_for(zp))
            for pair, c in swap_expansion(z, zp, dim).items():
                worst_coeff = max(worst_coeff, abs(c - expected.get(pair, 0.0)))
    ok = worst_coeff <= 1e-12

    worst_fid = 0.0
    worst_ent = 0.0
    seen = set()
    dim = max(mode_dim_for(1.0), mode_dim_for(0.5))
    for seed in range(32):
        outcome, _, rec = draw(swap_entanglement(1.0, 0.5, dim), RngStream(seed))
        seen.add(outcome)
        worst_fid = max(worst_fid, abs(rec.fidelity - 1.0))
        worst_ent = max(
            worst_ent, abs(entanglement_entropy(rec.output_state, {0}) - 1.0)
        )
    ok &= seen == set(SpinBellLabel)
    ok &= worst_fid <= 1e-10 and worst_ent <= 1e-10
    report(
        8,
        "swapping: signed halves, collapse, one ebit",
        ok,
        f"coeff dev {worst_coeff:.3e}, fidelity dev {worst_fid:.3e}, "
        f"entropy dev {worst_ent:.3e}",
    )


def test_criterion_9_deterministic_reports(tmp_path):
    commands = [
        [
            "teleport", "spin",
            "--alpha", "0.6", "--beta", "0.8",
            "--z", "1", "--trials", "32", "--seed", "5",
        ],
        [
            "teleport", "parity",
            "--alpha", "0.6", "--beta", "0.8",
            "--z", "1", "--zpp", "0.6", "--trials", "16", "--seed", "5",
        ],
        ["swap", "--z", "0.7", "--zprime", "1.1", "--trials", "16", "--seed", "5"],
        ["chsh", "--z", "0.5", "--restarts", "4", "--seed", "5"],
    ]
    ok = True
    for i, argv in enumerate(commands):
        first = tmp_path / f"first_{i}"
        second = tmp_path / f"second_{i}"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        ok &= first.read_bytes() == second.read_bytes()
    report(9, "byte-identical seeded reruns", ok)
