"""Command-line interface: schemas, values, exit codes, reproducibility."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hesim
import hesim.cli
from hesim.cli import build_parser, main

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)


def run(argv, tmp_path, name="out"):
    """Run the CLI writing to a file; return (exit_code, bytes)."""
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    data = out.read_bytes() if out.exists() else b""
    return code, data


class TestKz:
    def test_csv_schema_and_values(self, tmp_path):
        code, data = run(
            ["kz", "--zmin", "0", "--zmax", "2", "--steps", "9"], tmp_path
        )
        assert code == 0
        rows = list(csv.reader(data.decode().splitlines()))
        assert rows[0] == ["z", "K_series", "K_matrix", "abs_diff", "violation"]
        assert len(rows) == 10
        first = [float(x) for x in rows[1]]
        assert first[0] == 0.0
        assert first[1] == 1.0
        assert first[4] == pytest.approx(TWO_SQRT_TWO, abs=1e-12)
        for row in rows[1:]:
            z, ks, km, diff, violation = (float(x) for x in row)
            assert diff < 1e-10
            assert violation > 2.0
            assert violation == pytest.approx(2.0 * math.sqrt(1 + ks * ks), abs=1e-12)

    def test_full_precision_round_trip(self, tmp_path):
        from hesim import k_series

        code, data = run(
            ["kz", "--zmin", "1", "--zmax", "1", "--steps", "1"], tmp_path
        )
        assert code == 0
        row = data.decode().splitlines()[1].split(",")
        assert float(row[1]) == k_series(1.0)

    def test_single_step_uses_zmin(self, tmp_path):
        code, data = run(
            ["kz", "--zmin", "0.5", "--zmax", "3", "--steps", "1"], tmp_path
        )
        assert code == 0
        assert data.decode().splitlines()[1].startswith("0.5,")

    def test_rejects_reversed_range(self, tmp_path, capsys):
        code, _ = run(["kz", "--zmin", "2", "--zmax", "1", "--steps", "3"], tmp_path)
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag,argv",
        [
            ("--zmax", ["--zmin", "0", "--zmax", "inf"]),
            ("--zmin", ["--zmin", "nan", "--zmax", "1"]),
        ],
    )
    def test_non_finite_bound_is_named(self, flag, argv, tmp_path, capsys):
        # the grid used to turn inf - inf into a NaN z before any check
        code, data = run(["kz", *argv, "--steps", "2"], tmp_path)
        assert code == 1 and data == b""
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be finite") and err.count("\n") == 1

    def test_stdout_by_default(self, capsys):
        assert main(["kz", "--zmin", "0", "--zmax", "1", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("z,K_series")


class TestChsh:
    def test_values_and_schema_at_zero(self, tmp_path):
        code, data = run(
            ["chsh", "--z", "0", "--restarts", "6", "--seed", "0"], tmp_path
        )
        assert code == 0
        payload = json.loads(data)
        assert set(payload) == {
            "command",
            "z",
            "label",
            "dim",
            "seed",
            "restarts",
            "iterations",
            "analytic_value",
            "optimizer_value",
            "gap",
            "optimizer_settings",
        }
        assert payload["restarts"] == 6 and payload["seed"] == 0
        assert payload["iterations"] == 0
        assert payload["analytic_value"] == pytest.approx(TWO_SQRT_TWO, abs=1e-12)
        assert payload["optimizer_value"] == pytest.approx(TWO_SQRT_TWO, abs=1e-6)
        assert payload["gap"] >= -1e-6
        for key in ("a", "a_prime", "b", "b_prime"):
            assert set(payload["optimizer_settings"][key]) == {"theta", "phi"}

    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
    def test_gap_nonnegative(self, z, tmp_path):
        code, data = run(
            ["chsh", "--z", str(z), "--restarts", "8", "--seed", "1"],
            tmp_path,
        )
        assert code == 0
        assert json.loads(data)["gap"] >= -1e-6

    def test_label_flag(self, tmp_path):
        code, data = run(
            ["chsh", "--z", "0.5", "--label", "psi-", "--restarts", "4"], tmp_path
        )
        assert code == 0
        assert json.loads(data)["label"] == "psi-"

    def test_unknown_label_fails_cleanly(self, tmp_path, capsys):
        code, _ = run(["chsh", "--z", "0.5", "--label", "nope"], tmp_path)
        assert code != 0
        assert "error:" in capsys.readouterr().err

    def test_restarts_below_one_rejected(self, tmp_path, capsys):
        code, data = run(["chsh", "--z", "1", "--restarts", "0"], tmp_path)
        assert code == 1 and data == b""
        err = capsys.readouterr().err
        assert err.startswith("error: restarts must be >= 1") and err.count("\n") == 1

    @pytest.mark.parametrize("z", ["nan", "inf"])
    def test_non_finite_z_fails_fast(self, z):
        # --z nan used to hang in the cat-state residual loop
        env = dict(os.environ, PYTHONPATH=str(Path(hesim.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "hesim.cli", "chsh", "--z", z, "--dim", "8"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "finite and nonnegative" in lines[0]


class TestTeleport:
    def test_spin_report(self, tmp_path):
        code, data = run(
            [
                "teleport", "spin",
                "--alpha", "0.6", "--beta", "0.8",
                "--z", "1", "--trials", "1000", "--seed", "0",
            ],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(data)
        assert payload["seed"] == 0
        assert payload["channel"] == "phi+"
        assert sum(payload["counts"].values()) == 1000
        assert set(payload["counts"]) == {"Psi+", "Psi-", "Phi+", "Phi-"}
        assert payload["fidelity_min"] >= 1 - 1e-9
        assert payload["fidelity_mean"] >= 1 - 1e-9
        freq_sum = sum(payload["frequencies"].values())
        assert freq_sum == pytest.approx(1.0, abs=1e-12)
        for freq in payload["frequencies"].values():
            assert abs(freq - 0.25) < 0.05

    def test_parity_report(self, tmp_path):
        code, data = run(
            [
                "teleport", "parity",
                "--alpha", "0.5+0.5j", "--beta", "0.5-0.5j",
                "--z", "1", "--zpp", "0.6", "--trials", "32",
            ],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(data)
        assert payload["kind"] == "parity"
        assert payload["z_dblprime"] == 0.6
        assert set(payload["counts"]) == {"phi~+", "phi~-", "psi~+", "psi~-"}
        assert payload["fidelity_min"] >= 1 - 1e-9

    def test_amplitudes_are_normalized_jointly(self, tmp_path):
        code, data = run(
            [
                "teleport", "spin",
                "--alpha", "3", "--beta", "4",
                "--z", "0.5", "--trials", "4",
            ],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(data)
        assert payload["alpha"][0] == pytest.approx(0.6, abs=1e-12)
        assert payload["beta"][0] == pytest.approx(0.8, abs=1e-12)

    @pytest.mark.parametrize("amp", ["nan", "inf", "nan+1j"])
    def test_non_finite_amplitude_fails_at_once(self, amp):
        # NaN used to pass the normalization and fail late, after numpy
        # RuntimeWarnings, with "outcome probability nan"
        env = dict(os.environ, PYTHONPATH=str(Path(hesim.__file__).parents[1]))
        proc = subprocess.run(
            [
                sys.executable, "-m", "hesim.cli", "teleport", "spin",
                "--alpha", amp, "--beta", "1", "--z", "1",
            ],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "RuntimeWarning" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "finite" in lines[0]

    def test_huge_amplitudes_are_normalized(self, tmp_path):
        # squaring 1e200 used to overflow into an OverflowError traceback
        argv = ["teleport", "spin", "--alpha", "1e200", "--beta", "1e200", "--z", "1"]
        code, data = run(argv, tmp_path)
        assert code == 0
        payload = json.loads(data)
        assert payload["alpha"] == payload["beta"]
        assert payload["alpha"][0] == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert payload["fidelity_min"] >= 1 - 1e-9

    def test_tiny_amplitude_is_not_zero(self, tmp_path):
        # 1e-200 squared underflows to 0, which used to read as "both zero"
        argv = ["teleport", "spin", "--alpha", "1e-200", "--beta", "0", "--z", "1"]
        code, data = run(argv, tmp_path)
        assert code == 0
        payload = json.loads(data)
        assert payload["alpha"] == [1.0, 0.0]
        assert payload["beta"] == [0.0, 0.0]

    def test_zpp_rejected_for_spin(self, tmp_path, capsys, monkeypatch):
        def no_table(*args):
            raise AssertionError("spin teleportation ran with --zpp")

        monkeypatch.setattr(hesim.cli, "teleport_spin", no_table)
        argv = ["teleport", "spin", "--alpha", "0.6", "--beta", "0.8", "--z", "1"]
        code, data = run(argv + ["--zpp", "3"], tmp_path)
        assert code == 1 and data == b""
        err = capsys.readouterr().err
        assert err.startswith("error: --zpp") and err.count("\n") == 1

    def test_zero_input_rejected(self, tmp_path, capsys):
        code, _ = run(
            ["teleport", "spin", "--alpha", "0", "--beta", "0", "--z", "1"],
            tmp_path,
        )
        assert code != 0
        assert "error:" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        argv = [
            "teleport", "spin",
            "--alpha", "0.6", "--beta", "0.8",
            "--z", "1", "--trials", "32", "--seed", "7",
        ]
        _, first = run(argv, tmp_path, "a.json")
        _, second = run(argv, tmp_path, "b.json")
        assert first == second
        _, third = run(argv[:-1] + ["8"], tmp_path, "c.json")
        assert first != third


class TestProtocolBuiltOnce:
    """A Monte-Carlo command builds its branch table once, not once per trial."""

    @staticmethod
    def _count_calls(monkeypatch, name):
        import hesim.cli

        calls = []
        original = getattr(hesim.cli, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(hesim.cli, name, counted)
        return calls

    def test_teleport(self, monkeypatch, tmp_path):
        calls = self._count_calls(monkeypatch, "teleport_spin")
        argv = ["teleport", "spin", "--alpha", "0.6", "--beta", "0.8", "--z", "1"]
        code, data = run(argv + ["--trials", "200"], tmp_path)
        assert code == 0 and len(calls) == 1
        assert sum(json.loads(data)["counts"].values()) == 200

    def test_swap(self, monkeypatch, tmp_path):
        calls = self._count_calls(monkeypatch, "swap_entanglement")
        argv = ["swap", "--z", "1", "--zprime", "0.5", "--trials", "200"]
        code, data = run(argv, tmp_path)
        assert code == 0 and len(calls) == 1
        outcomes = json.loads(data)["outcomes"].values()
        assert sum(slot["count"] for slot in outcomes) == 200


class TestSwap:
    def test_report_schema_and_pairing(self, tmp_path):
        code, data = run(
            ["swap", "--z", "1", "--zprime", "0.5", "--trials", "1000"], tmp_path
        )
        assert code == 0
        payload = json.loads(data)
        pairing = {
            "Phi+": "phi~+",
            "Phi-": "phi~-",
            "Psi+": "psi~+",
            "Psi-": "psi~-",
        }
        total = 0
        for outcome, slot in payload["outcomes"].items():
            total += slot["count"]
            assert abs(slot["count"] / 1000 - 0.25) < 0.05
            assert slot["parity_label"] == pairing[outcome]
            assert slot["fidelity_min"] >= 1 - 1e-9
            assert abs(slot["entropy_min"] - 1.0) < 1e-9
            assert abs(slot["entropy_max"] - 1.0) < 1e-9
        assert total == 1000
        assert payload["fidelity_min"] >= 1 - 1e-9

    def test_undrawn_outcomes_report_null_and_cost_no_entropy(self, monkeypatch, tmp_path):
        entropies = TestProtocolBuiltOnce._count_calls(monkeypatch, "entanglement_entropy")
        code, data = run(["swap", "--z", "1", "--zprime", "0.5", "--trials", "2"], tmp_path)
        assert code == 0
        outcomes = json.loads(data)["outcomes"]
        drawn = [slot for slot in outcomes.values() if slot["count"]]
        assert 1 <= len(drawn) <= 2 and len(entropies) == len(drawn)
        for slot in outcomes.values():
            if not slot["count"]:
                assert set(slot.values()) == {0, None}

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["swap", "--z", "0.7", "--zprime", "1.2", "--trials", "16", "--seed", "3"]
        _, first = run(argv, tmp_path, "a.json")
        _, second = run(argv, tmp_path, "b.json")
        assert first == second


class TestEntropy:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("hes:phi+:z=1", 1.0),
            ("hes:psi-:z=0.5", 1.0),
            ("spinbell:Phi+", 1.0),
            ("paritybell:phi~+:z=1,zp=0.5", 1.0),
            ("product:z=1", 0.0),
        ],
    )
    def test_named_states(self, spec, expected, tmp_path):
        code, data = run(["entropy", spec], tmp_path)
        assert code == 0
        payload = json.loads(data)
        assert payload["entropy_bits"] == pytest.approx(expected, abs=1e-10)
        squares = sum(c * c for c in payload["schmidt_coefficients"])
        assert squares == pytest.approx(1.0, abs=1e-10)

    def test_unicode_aliases_accepted(self, tmp_path):
        code, data = run(["entropy", "hes:φ⁺:z=1"], tmp_path)
        assert code == 0
        assert json.loads(data)["entropy_bits"] == pytest.approx(1.0, abs=1e-10)

    def test_bad_spec_fails_cleanly(self, tmp_path, capsys):
        code, _ = run(["entropy", "garbage:spec"], tmp_path)
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_one_svd_per_command(self, monkeypatch, tmp_path):
        svd = np.linalg.svd
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        code, data = run(["entropy", "hes:phi+:z=2.5"], tmp_path)
        assert code == 0 and len(calls) == 1
        assert json.loads(data)["entropy_bits"] == pytest.approx(1.0, abs=1e-10)

    def test_missing_parameter_fails_cleanly(self, tmp_path, capsys):
        code, _ = run(["entropy", "hes:phi+"], tmp_path)
        assert code != 0
        assert "error:" in capsys.readouterr().err


def _outcome(argv, capsys):
    """(stdout, stderr, exit code) of one in-process command."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


class TestParserSelection:
    """``main`` builds only the subparser that argv names, with unchanged text."""

    def test_valid_command_builds_at_most_two_parsers(self, monkeypatch, tmp_path):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        code, data = run(["chsh", "--z", "1"], tmp_path)
        assert code == 0 and json.loads(data)["command"] == "chsh"
        assert len(built) <= 2

    def test_handler_is_looked_up_at_call_time(self, monkeypatch, tmp_path):
        # wrappers installed on module names after import (tracing) see calls
        calls = []
        handler = hesim.cli.cmd_kz

        def counted(args):
            calls.append(args)
            return handler(args)

        monkeypatch.setattr(hesim.cli, "cmd_kz", counted)
        code, _ = run(["kz", "--zmin", "0", "--zmax", "1", "--steps", "2"], tmp_path)
        assert code == 0 and len(calls) == 1

    def test_no_argument_builds_every_subcommand(self):
        assert "{kz,chsh,teleport,swap,entropy}" in build_parser().format_usage()
        assert "{chsh}" in build_parser("chsh").format_usage()

    @pytest.mark.parametrize("columns", ["20", "80", "200"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["-h"],
            [],
            ["bogus"],
            ["chsh", "-h"],
            ["teleport", "-h"],
            ["chsh", "--z", "1", "--bogus"],
            ["chsh", "--z", "1", "extra"],
            ["chsh"],
            ["chsh", "--z", "x"],
            ["teleport", "bogus", "--alpha", "1", "--beta", "0", "--z", "1"],
            ["entropy"],
            ["chsh", "--z", "0.5", "--label", "psi-"],
            ["kz", "--zmin", "0", "--zmax", "1", "--steps", "3"],
            ["teleport", "parity", "--alpha", "0.6", "--beta", "0.8", "--z", "1",
             "--zpp", "0.5", "--trials", "4"],
            ["swap", "--z", "1", "--zprime", "0.5", "--trials", "3"],
            ["entropy", "paritybell:phi~+:z=1,zp=0.5"],
        ],
        ids=" ".join,
    )
    def test_text_matches_the_full_tree(self, argv, columns, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", columns)
        got = _outcome(argv, capsys)
        full = build_parser
        monkeypatch.setattr(hesim.cli, "build_parser", lambda command=None: full())
        assert got == _outcome(argv, capsys)
