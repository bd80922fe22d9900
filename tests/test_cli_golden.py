"""Byte identity of ``hesim`` reports against recorded outputs.

Each line of ``cli_golden.jsonl`` is one JSON object: an argv and the
stdout, stderr and exit code that ``hesim.cli.main`` gave for it. The
commands cover every subcommand and its ``-h``, ``--dim`` overrides, a swap
that leaves outcomes undrawn, and the error lines. Reports print floats at full
precision. Every report is computed in Python floats and integers, so it
pins Python 3.11's float arithmetic and argparse wording and no numpy
version; one fresh interpreter with numpy blocked gives every report.

After an intended change of output, re-record every argv in the file with
``PYTHONPATH=src python tests/test_cli_golden.py``; it prints the argv of
every line whose record changed. Every recorded ``chsh`` optimum and its
settings, every ``kz`` row, every ``teleport`` and ``swap`` report (counts,
fidelities, entropies) and, up to the dense oracle's size, every recorded
``entropy`` report is checked against the oracles as well, so a
re-recorded one must still agree with them.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hesim
from hesim import ChshSettings, HesLabel, hes_state
from hesim.cli import _build_named_state, _dim_for, build_parser

from conftest import assert_leads_the_dense_spectrum
from oracles import (GOLDEN_CHSH_TOL, GOLDEN_ENTROPY_TOL, GOLDEN_FIDELITY_TOL, K_ASYMPTOTE_TOL,
                     K_DECIMAL_TOL, SWAP_PAIRING, bell_value, decimal_k, dense_correlation_matrix,
                     dense_schmidt, dense_swap, dense_teleport_parity, dense_teleport_spin,
                     direction, entropy_from_reduced_density, fsum_k_matrix, k_asymptote,
                     looped_trials, pair_correlation, spectrum_entropy)

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
from byte_identity import record  # noqa: E402  one recorder for this file and the base comparison

DATA = Path(__file__).with_name("cli_golden.jsonl")
COLUMNS = "80"  # argparse wraps usage lines to the terminal width
DENSE_DIM_MAX = 400  # the dense oracle's five dim x dim matrices take 13 MB there


def _cases() -> list[dict]:
    with DATA.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


@pytest.mark.parametrize("case", _cases(), ids=lambda case: " ".join(case["argv"]))
def test_output_is_byte_identical(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert record(case["argv"]) == case


def test_every_report_is_byte_identical_with_numpy_blocked():
    # one fresh interpreter in which importing numpy raises ImportError
    script = (
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from byte_identity import record\n"
        "cases = [json.loads(line) for line in open(sys.argv[1], encoding='utf-8')]\n"
        "print(json.dumps([case['argv'] for case in cases if record(case['argv']) != case]))\n"
    )
    path = os.pathsep.join([str(Path(hesim.__file__).parents[1]), str(TOOLS)])
    env = dict(os.environ, PYTHONPATH=path, COLUMNS=COLUMNS)
    proc = subprocess.run([sys.executable, "-c", script, str(DATA)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def _chsh_cases(dense: bool) -> list[dict]:
    """The chsh lines with a report, at a dim the dense oracle can hold or past it."""
    return [case for case in _cases() if case["argv"][:1] == ["chsh"]
            and case["stdout"].startswith("{")
            and (json.loads(case["stdout"])["dim"] <= DENSE_DIM_MAX) == dense]


@pytest.mark.parametrize("case", _chsh_cases(dense=True), ids=lambda case: " ".join(case["argv"]))
def test_chsh_optimum_agrees_with_the_dense_oracle(case):
    report = json.loads(case["stdout"])
    state = hes_state(HesLabel(report["label"]), report["z"], report["dim"])
    s = np.linalg.svd(dense_correlation_matrix(state), compute_uv=False)
    assert abs(report["optimizer_value"] - 2.0 * math.hypot(s[0], s[1])) <= GOLDEN_CHSH_TOL


@pytest.mark.parametrize("case", _chsh_cases(dense=False), ids=lambda case: " ".join(case["argv"]))
def test_large_z_chsh_optimum_agrees_with_the_asymptote(case):
    # the dense oracle's matrices do not fit in memory at such a dim; from
    # z = 300 on the large-z expansion of k(z) gives 2 sqrt(1 + k^2) instead
    report = json.loads(case["stdout"])
    assert report["z"] >= 300.0
    k = k_asymptote(report["z"])
    assert abs(report["optimizer_value"] - 2.0 * math.sqrt(1.0 + k * k)) <= GOLDEN_CHSH_TOL


@pytest.mark.parametrize("case", _chsh_cases(dense=True) + _chsh_cases(dense=False),
                         ids=lambda case: " ".join(case["argv"]))
def test_chsh_settings_reach_the_optimum(case):
    # the four recorded directions, rebuilt from their angles, give the recorded
    # value on the dense correlation matrix, or past its reach on the hybrid
    # pair's closed form at the large-z k(z)
    report = json.loads(case["stdout"])
    label = HesLabel(report["label"])
    if report["dim"] <= DENSE_DIM_MAX:
        m = dense_correlation_matrix(hes_state(label, report["z"], report["dim"]))
    else:
        m = pair_correlation(label, k_asymptote(report["z"]))
    angles = report["optimizer_settings"]
    settings = ChshSettings(*(direction(angles[key]["theta"], angles[key]["phi"])
                              for key in ("a", "a_prime", "b", "b_prime")))
    assert abs(bell_value(m, settings) - report["optimizer_value"]) <= GOLDEN_CHSH_TOL


def _report_cases(command: str) -> list[dict]:
    """The lines of one subcommand with a report."""
    return [case for case in _cases() if case["argv"][:1] == [command]
            and case["stdout"].startswith("{")]


def _oracle_draws(rows, report):
    """Each row's count and the summed fidelity of the report's trials, drawn
    by ``looped_trials`` from oracle rows (outcome, p, ..., fidelity, last)."""
    table = [(row[0], row[1], SimpleNamespace(fidelity=row[-2])) for row in rows]
    return looped_trials(table, report["seed"], report["trials"])


@pytest.mark.parametrize("case", _report_cases("teleport"), ids=lambda case: " ".join(case["argv"]))
def test_teleport_agrees_with_the_dense_oracle(case):
    report = json.loads(case["stdout"])
    alpha, beta = complex(*report["alpha"]), complex(*report["beta"])
    channel, z, dim = HesLabel(report["channel"]), report["z"], report["dim"]
    if report["kind"] == "spin":
        rows = dense_teleport_spin(alpha, beta, channel, z, dim)
    else:
        rows = dense_teleport_parity(alpha, beta, report["z_dblprime"], channel, z, dim)
    counts, fidelity = _oracle_draws(rows, report)
    assert report["counts"] == {row[0].value: count for row, count in zip(rows, counts)}
    drawn = min(row[3] for row, count in zip(rows, counts) if count)
    assert abs(report["fidelity_min"] - drawn) <= GOLDEN_FIDELITY_TOL
    assert abs(report["fidelity_mean"] - fidelity / report["trials"]) <= GOLDEN_FIDELITY_TOL


@pytest.mark.parametrize("case", _report_cases("swap"), ids=lambda case: " ".join(case["argv"]))
def test_swap_agrees_with_the_dense_oracle(case):
    report = json.loads(case["stdout"])
    rows = dense_swap(report["z"], report["zprime"], report["dim"])
    counts, _ = _oracle_draws(rows, report)
    for (outcome, _, fidelity, schmidt), count in zip(rows, counts):
        slot = report["outcomes"][outcome.value]
        assert slot["count"] == count
        if not count:
            assert slot["fidelity_min"] is slot["entropy_min"] is None
            continue
        assert slot["parity_label"] == SWAP_PAIRING[outcome].value
        assert abs(slot["fidelity_min"] - fidelity) <= GOLDEN_FIDELITY_TOL
        for key in ("entropy_min", "entropy_max"):
            assert abs(slot[key] - spectrum_entropy(schmidt)) <= GOLDEN_ENTROPY_TOL
    drawn = min(row[2] for row, count in zip(rows, counts) if count)
    assert abs(report["fidelity_min"] - drawn) <= GOLDEN_FIDELITY_TOL


def _kz_cases() -> list[dict]:
    """The kz lines with a report."""
    return [case for case in _cases() if case["argv"][:1] == ["kz"]
            and case["stdout"].startswith("z,")]


@pytest.mark.parametrize("case", _kz_cases(), ids=lambda case: " ".join(case["argv"]))
def test_kz_rows_agree_with_the_oracles(case):
    # K_series against the 60-digit sum up to z = 30 and the large-z expansion
    # from z = 300 on; K_matrix bit for bit against the math.fsum of the
    # numpy codewords' products
    args = build_parser().parse_args(case["argv"])
    rows = list(csv.DictReader(io.StringIO(case["stdout"])))
    assert rows
    for row in rows:
        z, k_series = float(row["z"]), float(row["K_series"])
        if z <= 30.0:
            assert abs(k_series - decimal_k(z)) <= K_DECIMAL_TOL, z
        else:
            assert z >= 300.0, f"no K_series oracle between z = 30 and 300, got {z}"
            assert abs(k_series - k_asymptote(z)) <= K_ASYMPTOTE_TOL, z
        assert float(row["K_matrix"]) == fsum_k_matrix(z, _dim_for(args.dim, z)), z


def _named_state(case: dict):
    """The state an entropy line reports on, as the CLI builds it."""
    args = build_parser().parse_args(case["argv"])
    return _build_named_state(args.statespec, args.dim)


def _entropy_cases() -> list[dict]:
    """The entropy lines with a report, at dims the dense oracle can hold."""
    return [case for case in _cases() if case["argv"][:1] == ["entropy"]
            and case["stdout"].startswith("{")
            and max(_named_state(case).space.dims) <= DENSE_DIM_MAX]


@pytest.mark.parametrize("case", _entropy_cases(), ids=lambda case: " ".join(case["argv"]))
def test_entropy_agrees_with_the_dense_oracles(case):
    report, state = json.loads(case["stdout"]), _named_state(case)
    assert_leads_the_dense_spectrum(report["schmidt_coefficients"], dense_schmidt(state, [0]),
                                    state.space.nfactors, {0}, GOLDEN_ENTROPY_TOL)
    assert abs(report["entropy_bits"] - entropy_from_reduced_density(state, [0])) <= GOLDEN_ENTROPY_TOL


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    lines = []
    for case in _cases():
        new = record(case["argv"])
        if new != case:
            print("changed:", " ".join(["hesim", *case["argv"]]))
        lines.append(json.dumps(new, ensure_ascii=False))
    DATA.write_text("\n".join(lines) + "\n", encoding="utf-8")
