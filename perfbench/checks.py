"""Correctness checks on the report of every ``hesim`` command the benchmark runs.

Each check restates one of the paper's claims at the tolerance the
repository's acceptance suite uses. A report that fails a check, or cannot
be parsed, counts as a failed op; nothing is skipped or loosened. Every
comparison is written so that a NaN fails it.
"""

from __future__ import annotations

import csv
import io
import json
import math

FIDELITY_TOL = 1e-9  # teleported and swapped states reach fidelity 1
EBIT_TOL = 1e-10  # hybrid, parity-Bell and swapped pairs carry one ebit
KZ_TOL = 1e-10  # series and matrix-element k(z) agree
CHSH_GAP_TOL = 1e-6  # optimizer may fall short of the closed form by this much
CIRELSON_SLACK = 1e-9
# Each Bell outcome has probability 1/4; a count further than this many
# standard deviations from trials/4 has odds below 1e-8 of being chance.
BINOMIAL_SIGMAS = 6.0

SWAP_PAIRING = {"Phi+": "phi~+", "Phi-": "phi~-", "Psi+": "psi~+", "Psi-": "psi~-"}
KZ_HEADER = ["z", "K_series", "K_matrix", "abs_diff", "violation"]


def check(op, text: str) -> list[str]:
    """Problems found in one op's report; an empty list means it passed."""
    try:
        return _CHECKS[op.command](op, text)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"malformed {op.command} report: {exc!r}"]


def _outcome_counts(counts: dict, trials: int) -> list[str]:
    problems = []
    if sum(counts.values()) != trials:
        problems.append(f"counts {counts} do not sum to {trials} trials")
    bound = BINOMIAL_SIGMAS * math.sqrt(trials * 0.25 * 0.75)
    for label, count in counts.items():
        if not abs(count - trials / 4.0) <= bound:
            problems.append(f"outcome {label} drawn {count} of {trials} times")
    return problems


def _teleport(op, text: str) -> list[str]:
    report = json.loads(text)
    problems = []
    if report["trials"] != op.trials:
        problems.append(f"trials {report['trials']} != {op.trials}")
    if len(report["counts"]) != 4:
        problems.append(f"expected 4 outcomes, got {sorted(report['counts'])}")
    problems += _outcome_counts(report["counts"], op.trials)
    if not report["fidelity_min"] >= 1.0 - FIDELITY_TOL:
        problems.append(f"fidelity_min {report['fidelity_min']!r}")
    return problems


def _swap(op, text: str) -> list[str]:
    report = json.loads(text)
    problems = []
    if report["trials"] != op.trials:
        problems.append(f"trials {report['trials']} != {op.trials}")
    outcomes = report["outcomes"]
    if sorted(outcomes) != sorted(SWAP_PAIRING):
        problems.append(f"unexpected outcome labels {sorted(outcomes)}")
    problems += _outcome_counts(
        {label: slot["count"] for label, slot in outcomes.items()}, op.trials
    )
    for label, slot in outcomes.items():
        if slot["count"] == 0:
            continue
        if slot["parity_label"] != SWAP_PAIRING[label]:
            problems.append(f"{label} collapsed onto {slot['parity_label']!r}")
        for key in ("entropy_min", "entropy_max"):
            if not abs(slot[key] - 1.0) <= EBIT_TOL:
                problems.append(f"{label} {key} {slot[key]!r} is not one ebit")
        if not slot["fidelity_min"] >= 1.0 - FIDELITY_TOL:
            problems.append(f"{label} fidelity_min {slot['fidelity_min']!r}")
    if not report["fidelity_min"] >= 1.0 - FIDELITY_TOL:
        problems.append(f"fidelity_min {report['fidelity_min']!r}")
    return problems


def _chsh(op, text: str) -> list[str]:
    report = json.loads(text)
    problems = []
    if not report["gap"] >= -CHSH_GAP_TOL:
        problems.append(f"optimizer gap {report['gap']!r} below -{CHSH_GAP_TOL}")
    value = report["optimizer_value"]
    if not 2.0 < value <= 2.0 * math.sqrt(2.0) + CIRELSON_SLACK:
        problems.append(f"CHSH value {value!r} outside (2, 2*sqrt(2)]")
    return problems


def _kz(op, text: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    problems = []
    if not rows or rows[0] != KZ_HEADER:
        return [f"bad kz header {rows[:1]!r}"]
    steps = int(op.work)
    if len(rows) - 1 != steps:
        problems.append(f"{len(rows) - 1} kz rows, expected {steps}")
    for row in rows[1:]:
        diff = float(row[3])
        if not diff < KZ_TOL:
            problems.append(f"k(z) series and matrix differ by {diff!r} at z={row[0]}")
    return problems


def _entropy(op, text: str) -> list[str]:
    report = json.loads(text)
    bits = report["entropy_bits"]
    if not abs(bits - 1.0) <= EBIT_TOL:
        return [f"{report['statespec']} carries {bits!r} ebits, expected 1"]
    return []


_CHECKS = {
    "teleport": _teleport,
    "swap": _swap,
    "chsh": _chsh,
    "kz": _kz,
    "entropy": _entropy,
}
