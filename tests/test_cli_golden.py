"""Byte identity of ``hesim`` reports against recorded outputs.

Each line of ``cli_golden.jsonl`` is one JSON object: an argv and the
stdout, stderr and exit code that ``hesim.cli.main`` gave for it. The
commands cover every subcommand and its ``-h``, ``--dim`` overrides, a swap
that leaves outcomes undrawn, and the error lines. Reports print floats at full
precision, so the data pins numpy 2.4.6 (with its bundled LAPACK) and
Python 3.11's argparse wording; on another numpy the last digits of a
report may differ.

After an intended change of output, re-record every argv in the file with
``PYTHONPATH=src python tests/test_cli_golden.py``; it prints the argv of
every line whose record changed. Every recorded ``chsh`` optimum and, up to
the dense oracle's size, every recorded ``entropy`` report is checked
against the dense oracles as well, so a re-recorded one must still agree
with them.
"""

import contextlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from hesim import HesLabel, hes_state
from hesim.cli import _build_named_state, build_parser, main

from conftest import assert_leads_the_dense_spectrum
from oracles import (GOLDEN_CHSH_TOL, GOLDEN_ENTROPY_TOL, dense_correlation_matrix, dense_schmidt,
                     entropy_from_reduced_density, k_asymptote)

DATA = Path(__file__).with_name("cli_golden.jsonl")
COLUMNS = "80"  # argparse wraps usage lines to the terminal width
DENSE_DIM_MAX = 400  # the dense oracle's five dim x dim matrices take 13 MB there


def record(argv: list[str]) -> dict:
    """argv with the stdout, stderr and exit code of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _cases() -> list[dict]:
    with DATA.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


@pytest.mark.parametrize("case", _cases(), ids=lambda case: " ".join(case["argv"]))
def test_output_is_byte_identical(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert record(case["argv"]) == case


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
