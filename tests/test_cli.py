"""Command-line interface: schemas, values, exit codes, reproducibility."""

import argparse
import contextlib
import csv
import functools
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hesim
import hesim.cli
from hesim import StateVector
from hesim.cli import build_parser, main

from conftest import Z_CAP

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

    def test_steps_above_the_cap_refused_before_any_row(self, monkeypatch, tmp_path, capsys):
        # kz builds every row before it writes one, so --steps 2**31 would need
        # tens of GB; it is refused with the cap named before any z is walked
        cap = hesim.cli._KZ_STEPS_CAP
        monkeypatch.setattr(hesim.cli, "k_series", lambda z: pytest.fail("built a row"))
        for steps in (cap + 1, 2**31):
            code, data = run(["kz", "--zmin", "0", "--zmax", "1", "--steps", str(steps)], tmp_path)
            assert code == 1 and data == b""
            assert capsys.readouterr().err == f"error: steps must be at most {cap}, got {steps}\n"
        # the cap itself is a valid sweep, here of stand-in rows
        monkeypatch.setattr(hesim.cli, "k_series", lambda z: 0.5)
        monkeypatch.setattr(hesim.cli, "k_matrix", lambda z, dim: 0.5)
        code, data = run(["kz", "--zmin", "0", "--zmax", "1", "--steps", str(cap)], tmp_path)
        assert cap == 100_000 and code == 0 and data.count(b"\n") == cap + 1

    @pytest.mark.parametrize("argv, levels", [
        (["--zmin", "990", "--zmax", "996", "--steps", "100000"], 992016),  # 996**2
        (["--zmin", "0", "--zmax", "1", "--steps", "401", "--dim", "1000000"], 1000000),
        (["--zmin", "0", "--zmax", "63.3", "--steps", "100000"], 4007),  # ceil(63.3**2)
        (["--zmin", "0", "--zmax", "1e300", "--steps", "401"], 1000000),  # the Fock cap
    ])
    def test_levels_above_the_budget_refused_before_any_walk(
            self, argv, levels, monkeypatch, tmp_path, capsys):
        # every row walks up to its cutoff, so 100 000 rows near the Fock cap
        # would take hours; steps x the largest cutoff (--dim, else zmax**2,
        # at most the Fock cap) is refused before any z is walked
        budget = hesim.cli._KZ_LEVELS_CAP
        for name in ("k_series", "k_matrix", "mode_dim_for"):
            monkeypatch.setattr(hesim.cli, name, lambda *args: pytest.fail("walked a z"))
        code, data = run(["kz", *argv], tmp_path)
        assert code == 1 and data == b""
        steps = argv[argv.index("--steps") + 1]
        assert capsys.readouterr().err == (
            f"error: steps x largest cutoff must be at most {budget} levels, "
            f"got {steps} x {levels}\n")

    @pytest.mark.parametrize("argv, rows", [
        (["--zmin", "0", "--zmax", "1", "--steps", "400", "--dim", "1000000"], 400),
        (["--zmin", "0", "--zmax", "63.2", "--steps", "100000"], 100_000),  # 3995 levels
    ])
    def test_a_sweep_at_the_budget_runs(self, argv, rows, monkeypatch, tmp_path):
        # the budget itself is a valid sweep, here of stand-in rows
        monkeypatch.setattr(hesim.cli, "k_series", lambda z: 0.5)
        monkeypatch.setattr(hesim.cli, "k_matrix", lambda z, dim: 0.5)
        monkeypatch.setattr(hesim.cli, "mode_dim_for", lambda z: 4)
        code, data = run(["kz", *argv], tmp_path)
        assert hesim.cli._KZ_LEVELS_CAP == 400_000_000
        assert code == 0 and data.count(b"\n") == rows + 1

    def test_a_few_rows_past_the_fock_cap_fail_at_their_row(self, tmp_path, capsys):
        # the budget reads the cap, not zmax**2, so a short sweep past it is
        # refused by the row that passes it, with that row's z
        code, data = run(["kz", "--zmin", "0", "--zmax", "1e300", "--steps", "400"], tmp_path)
        assert code == 1 and data == b""
        assert capsys.readouterr().err == (
            f"error: z = {1e300 / 399!r} is too large: "
            "its Poisson peak z**2 passes 1000000 levels\n")

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

    def test_odd_dim_error_reads_as_in_kz(self, tmp_path, capsys):
        # chsh builds its state before the pseudospin, like every command
        run(["chsh", "--z", "1", "--dim", "5"], tmp_path)
        chsh_err = capsys.readouterr().err
        run(["kz", "--zmin", "1", "--zmax", "1", "--steps", "1", "--dim", "5"], tmp_path)
        assert chsh_err == capsys.readouterr().err
        assert chsh_err == "error: mode dimension must be an even integer >= 2, got 5\n"

    @pytest.mark.parametrize("argv", [
        ["chsh", "--z", "1"],
        ["kz", "--zmin", "1", "--zmax", "1", "--steps", "1"],
        ["teleport", "spin", "--alpha", "0.6", "--beta", "0.8", "--z", "1"],
        ["swap", "--z", "1", "--zprime", "1"],
        ["entropy", "hes:phi+:z=1"],
    ])
    def test_dim_above_the_cap_is_refused_before_anything_is_built(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        # --dim 2000000 used to build a 2000000-amplitude state (2.6 s, 519 MB)
        def no_build(*args):
            raise AssertionError("a state was built at a --dim above the cap")

        for name in ("hes_state", "k_matrix", "teleport_spin", "swap_entanglement"):
            monkeypatch.setattr(hesim.cli, name, no_build)
        code, data = run(argv + ["--dim", "1000002"], tmp_path)
        assert code == 1 and data == b""
        assert capsys.readouterr().err == "error: --dim must be at most 1000000, got 1000002\n"

    def test_restarts_below_one_rejected(self, tmp_path, capsys):
        code, data = run(["chsh", "--z", "1", "--restarts", "0"], tmp_path)
        assert code == 1 and data == b""
        err = capsys.readouterr().err
        assert err.startswith("error: restarts must be >= 1") and err.count("\n") == 1

    def test_large_z_reports_without_dense_pseudospin(self, tmp_path):
        # dim 10776: dense pseudospin matrices would take about 9 GB
        code, data = run(["chsh", "--z", "100"], tmp_path)
        assert code == 0
        payload = json.loads(data)
        assert payload["dim"] == 10776
        assert abs(payload["gap"]) < 1e-9
        assert payload["optimizer_value"] <= TWO_SQRT_TWO

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


_checks_spec = importlib.util.spec_from_file_location(
    "perfbench_checks", Path(__file__).resolve().parents[1] / "perfbench" / "checks.py")
checks = importlib.util.module_from_spec(_checks_spec)
_checks_spec.loader.exec_module(checks)
# about two thirds of the examples at z <= 9, the rest up to the Fock cap
Z_PAST_9 = st.floats(min_value=9.0, max_value=Z_CAP)
Z_TO_THE_CAP = st.floats(min_value=0.0, max_value=9.0) | Z_PAST_9
CAP = repr(Z_CAP)


def passes_the_benchmark_checks(argv, tmp_path) -> dict | str:
    """The report of argv, after it has passed perfbench's check of it."""
    code, data = run(argv, tmp_path)
    assert code == 0
    text = data.decode()
    trials = int(argv[argv.index("--trials") + 1]) if "--trials" in argv else 1
    op = SimpleNamespace(command=argv[0], work="1", trials=trials)
    assert checks.check(op, text) == []
    return text if argv[0] == "kz" else json.loads(text)


class TestEveryZ:
    """The k(z) routes and the CHSH optimum at every z up to the Fock cap:
    the terms of the k(z) series once stopped short from z of about 443.5 on."""

    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(z=Z_TO_THE_CAP)
    @example(z=446.0)
    def test_kz(self, z, tmp_path_factory):
        text = passes_the_benchmark_checks(
            ["kz", "--zmin", repr(z), "--zmax", repr(z), "--steps", "1"],
            tmp_path_factory.mktemp("kz"))
        _, ks, km, diff, violation = (float(x) for x in text.splitlines()[1].split(","))
        assert ks == hesim.k_series(z) and diff == abs(ks - km) < 1e-10
        assert 2.0 < violation == 2.0 * math.sqrt(1.0 + ks * ks) <= TWO_SQRT_TWO

    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(z=Z_TO_THE_CAP, label=st.sampled_from(["psi+", "psi-", "phi+", "phi-"]))
    @example(z=500.0, label="psi-")
    def test_chsh(self, z, label, tmp_path_factory):
        report = passes_the_benchmark_checks(["chsh", "--z", repr(z), "--label", label],
                                             tmp_path_factory.mktemp("chsh"))
        k = hesim.k_series(z)
        assert report["analytic_value"] == 2.0 * math.sqrt(1.0 + k * k)
        assert abs(report["gap"]) < 1e-9

    @settings(derandomize=True, max_examples=4, deadline=None)
    @given(z=Z_PAST_9, label=st.sampled_from(["psi+", "psi-", "phi+", "phi-"]))
    @example(z=Z_CAP, label="phi+")
    def test_entropy_hes(self, z, label, tmp_path_factory):
        passes_the_benchmark_checks(["entropy", f"hes:{label}:z={z!r}"],
                                    tmp_path_factory.mktemp("entropy"))

    @settings(derandomize=True, max_examples=4, deadline=None)
    @given(z=Z_PAST_9, zp=Z_PAST_9, label=st.sampled_from(["psi~+", "psi~-", "phi~+", "phi~-"]))
    @example(z=Z_CAP, zp=990.0, label="phi~+")
    def test_entropy_paritybell(self, z, zp, label, tmp_path_factory):
        report = passes_the_benchmark_checks(["entropy", f"paritybell:{label}:z={z!r},zp={zp!r}"],
                                             tmp_path_factory.mktemp("entropy"))
        assert len(report["schmidt_coefficients"]) == 2

    @settings(derandomize=True, max_examples=4, deadline=None)
    @given(z=Z_PAST_9, zprime=Z_PAST_9, seed=st.integers(0, 2**20))
    @example(z=Z_CAP, zprime=9.0, seed=0)
    def test_swap(self, z, zprime, seed, tmp_path_factory):
        passes_the_benchmark_checks(
            ["swap", "--z", repr(z), "--zprime", repr(zprime), "--trials", "8", "--seed", str(seed)],
            tmp_path_factory.mktemp("swap"))

    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(kind=st.sampled_from(["spin", "parity"]), z=Z_PAST_9, zpp=Z_PAST_9,
           channel=st.sampled_from(["psi+", "psi-", "phi+", "phi-"]),
           beta=st.sampled_from(["0.8", "0.8j", "-0.6+0.2j"]), seed=st.integers(0, 2**20))
    @example(kind="parity", z=9.0, zpp=Z_CAP, channel="psi-", beta="0.8j", seed=0)
    def test_teleport(self, kind, z, zpp, channel, beta, seed, tmp_path_factory):
        zs = ["--z", repr(z)] + (["--zpp", repr(zpp)] if kind == "parity" else [])
        report = passes_the_benchmark_checks(
            ["teleport", kind, "--alpha", "0.6", f"--beta={beta}", *zs, "--channel", channel,
             "--trials", "8", "--seed", str(seed)], tmp_path_factory.mktemp("teleport"))
        assert report["fidelity_mean"] >= 1.0 - checks.FIDELITY_TOL

    @pytest.mark.parametrize("argv", [
        ["chsh", "--z", CAP, "--label", "psi-"],
        ["teleport", "spin", "--alpha", "0.6", "--beta", "0.8j", "--z", CAP, "--trials", "8"],
        ["teleport", "parity", "--alpha", "0.6", "--beta", "0.8", "--z", CAP, "--trials", "8"],
        ["swap", "--z", CAP, "--zprime", CAP, "--trials", "8"],
        ["entropy", f"hes:psi+:z={CAP}"],
        ["entropy", f"paritybell:phi~+:z={CAP},zp={CAP}"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_at_the_fock_cap_no_cat_codeword_is_built(self, argv, tmp_path, monkeypatch):
        # a codeword there is a vector of 1 000 000 amplitudes
        dims = []
        validate = StateVector.__post_init__
        monkeypatch.setattr(StateVector, "__post_init__",
                            lambda sv: (dims.append(sv.space.dim), validate(sv))[1])
        passes_the_benchmark_checks(argv, tmp_path)
        assert set(dims) <= {2}

    @pytest.mark.parametrize("command", ["kz", "chsh"])
    def test_at_the_fock_cap(self, command, tmp_path, capsys):
        def argv(z):
            zs = ["--zmin", repr(z), "--zmax", repr(z), "--steps", "1"]
            return [command, *(zs if command == "kz" else ["--z", repr(z)])]

        passes_the_benchmark_checks(argv(Z_CAP), tmp_path)
        above = math.nextafter(Z_CAP, math.inf)
        code, data = run(argv(above), tmp_path, name="above")
        assert code == 1 and data == b""
        assert capsys.readouterr().err == (
            f"error: z = {above!r} is too large: its adaptive cutoff passes 1000000 levels\n")


class TestOneWalkPerZ:
    """A command walks the coherent weights once for each z it reads: its
    cutoff, its cat encodings, k_series and k_matrix share the walk."""

    @pytest.mark.parametrize("argv,walks", [
        (["chsh", "--z", "1.5"], 1),
        (["teleport", "spin", "--alpha", "0.6", "--beta", "0.8", "--z", "1.5"], 1),
        (["teleport", "parity", "--alpha", "0.6", "--beta", "0.8", "--z", "1.5",
          "--zpp", "0.7"], 2),
        (["swap", "--z", "1.5", "--zprime", "0.7"], 2),
        (["entropy", "paritybell:phi~+:z=1.5,zp=0.7"], 2),
        (["kz", "--zmin", "3", "--zmax", "9", "--steps", "4"], 4),
    ], ids=lambda arg: " ".join(arg[:2]) if isinstance(arg, list) else str(arg))
    def test_walks(self, argv, walks, tmp_path, monkeypatch):
        # a fresh cache of the same size, as in a fresh process, over a
        # counted walk, on every module that binds it
        cached = hesim.fock._coherent_weights
        walked = []

        def walk(z):
            walked.append(z)
            return cached.__wrapped__(z)

        fresh = functools.lru_cache(**cached.cache_parameters())(walk)
        for name, module in list(sys.modules.items()):
            if name.startswith("hesim") and hasattr(module, "_coherent_weights"):
                monkeypatch.setattr(module, "_coherent_weights", fresh)
        code, _ = run(argv, tmp_path)
        assert code == 0 and len(walked) == walks == len(set(walked))


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

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (3, 4j), (5j, -12), (7, 0), (1j, 1)])
    def test_subnormal_amplitudes_normalize_as_their_scaled_values(self, alpha, beta):
        # a subnormal norm used to round away the amplitudes' last bits: 5e-324
        # and 5e-324 came out as (1, 1), which the state check refused
        for shift in (-1074, -1060, -1030):
            tiny = (complex(math.ldexp(x.real, shift), math.ldexp(x.imag, shift))
                    for x in (complex(alpha), complex(beta)))
            assert hesim.cli._normalized_pair(*tiny) == hesim.cli._normalized_pair(
                complex(alpha), complex(beta)
            )

    def test_zpp_rejected_for_spin(self, tmp_path, capsys, monkeypatch):
        def no_table(*args):
            raise AssertionError("spin teleportation ran with --zpp")

        monkeypatch.setattr(hesim.cli, "teleport_spin", no_table)
        argv = ["teleport", "spin", "--alpha", "0.6", "--beta", "0.8", "--z", "1"]
        code, data = run(argv + ["--zpp", "3"], tmp_path)
        assert code == 1 and data == b""
        err = capsys.readouterr().err
        assert err.startswith("error: --zpp") and err.count("\n") == 1

    def test_negative_seed_rejected(self, tmp_path, capsys, monkeypatch):
        def no_table(*args):
            raise AssertionError("teleportation ran with a negative --seed")

        monkeypatch.setattr(hesim.cli, "teleport_parity", no_table)
        argv = ["teleport", "parity", "--alpha", "0.6", "--beta", "0.8", "--z", "1"]
        code, data = run(argv + ["--seed", "-5"], tmp_path)
        assert code == 1 and data == b""
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -5\n"

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
    """A Monte-Carlo command builds its branch table once and runs all its
    trials in one ``run_trials`` call, not once per trial."""

    @staticmethod
    def _count_calls(monkeypatch, name, module=hesim.cli):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_teleport(self, monkeypatch, tmp_path):
        calls = self._count_calls(monkeypatch, "teleport_spin")
        runs = self._count_calls(monkeypatch, "run_trials")
        argv = ["teleport", "spin", "--alpha", "0.6", "--beta", "0.8", "--z", "1"]
        code, data = run(argv + ["--trials", "200"], tmp_path)
        assert code == 0 and len(calls) == len(runs) == 1
        assert sum(json.loads(data)["counts"].values()) == 200

    def test_swap(self, monkeypatch, tmp_path):
        calls = self._count_calls(monkeypatch, "swap_entanglement")
        runs = self._count_calls(monkeypatch, "run_trials")
        argv = ["swap", "--z", "1", "--zprime", "0.5", "--trials", "200"]
        code, data = run(argv, tmp_path)
        assert code == 0 and len(calls) == len(runs) == 1
        outcomes = json.loads(data)["outcomes"].values()
        assert sum(slot["count"] for slot in outcomes) == 200


class TestDrawsInsideTheRun:
    """Every draw of a Monte-Carlo command happens inside its one call of the
    public ``protocols.run_trials``, so a span around that call, as a traced
    benchmark run records it, holds all of the command's trials."""

    @pytest.mark.parametrize(
        "command",
        [
            ["teleport", "spin", "--alpha", "0.6", "--beta", "0.8", "--z", "1"],
            ["teleport", "parity", "--alpha", "0.6", "--beta", "0.8j", "--z", "1"],
            ["swap", "--z", "1", "--zprime", "0.5"],
        ],
        ids=["teleport_spin", "teleport_parity", "swap"],
    )
    @pytest.mark.parametrize("trials", [1, 100])
    def test_every_draw_inside_one_run(self, command, trials, monkeypatch, tmp_path):
        runs, open_runs, draws = [], [], []
        run_trials = hesim.cli.run_trials
        uniform = hesim.protocols.RngStream.uniform

        def traced_run(table, seed, trials):
            runs.append((seed, trials))
            open_runs.append(seed)
            try:
                return run_trials(table, seed, trials)
            finally:
                open_runs.pop()

        def counted(stream):
            draws.append((stream.seed, bool(open_runs)))
            return uniform(stream)

        monkeypatch.setattr(hesim.cli, "run_trials", traced_run)
        monkeypatch.setattr(hesim.protocols.RngStream, "uniform", counted)
        code, _ = run(command + ["--trials", str(trials), "--seed", "3"], tmp_path)
        assert code == 0 and runs == [(3, trials)]
        assert draws == [(seed, True) for seed in range(3, 3 + trials)]


class TestGeneratorsBuilt:
    """A run that draws once a trial builds no generator, whatever its
    length and wherever its seeds lie."""

    @pytest.mark.parametrize(
        "command",
        [
            ["teleport", "spin", "--alpha", "0.6", "--beta", "0.8", "--z", "1"],
            ["swap", "--z", "1", "--zprime", "0.5"],
        ],
        ids=["teleport", "swap"],
    )
    @pytest.mark.parametrize(
        "trials,seed",
        [
            (100, 0),
            (2, 0),
            (4, 5),
            (5, 5),
            (100, 2**32 - 100),
            (300, 2**32 - 100),
        ],
        ids=["hundred", "two", "four", "five", "ends_at_2_32", "straddles_2_32"],
    )
    def test_generators_built(self, command, trials, seed, monkeypatch, tmp_path):
        calls = []
        default_rng = np.random.default_rng

        def counted(*args, **kwargs):
            calls.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counted)
        code, data = run(command + ["--trials", str(trials), "--seed", str(seed)], tmp_path)
        assert code == 0 and len(calls) == 0
        assert json.loads(data)["trials"] == trials


class TestNumpyRandomNotImported:
    """A fresh interpreter runs every command without importing numpy:
    each Monte-Carlo trial's one variate comes from its seed, in Python
    integers, and kz's dense check builds its cat codewords in an
    ``array('d')``. No command loads dataclasses or what it imports, nor
    csv: kz joins its CSV rows itself."""

    def test_no_command_loads_numpy(self):
        commands = [
            ["-h"],
            ["teleport", "spin", "--alpha", "x", "--beta", "0.8", "--z", "1"],
            ["chsh", "--z", "1"],
            ["chsh", "--z", "0", "--label", "psi-"],
            ["entropy", "spinbell:Phi+"],
            ["entropy", "hes:phi+:z=1"],
            ["entropy", "paritybell:psi~-:z=0.8,zp=0.3"],
            ["entropy", "product:z=1"],
            ["teleport", "spin", "--alpha", "0.6", "--beta", "0.8", "--z", "1", "--trials", "4"],
            ["teleport", "parity", "--alpha", "0.6", "--beta", "0.8j", "--z", "1",
             "--zpp", "0.7", "--trials", "4"],
            ["swap", "--z", "1", "--zprime", "0.5", "--trials", "2"],
            ["teleport", "spin", "--alpha", "0.6", "--beta", "0.8", "--z", "1", "--trials", "100"],
            ["swap", "--z", "1", "--zprime", "1.2", "--trials", "100"],
            ["kz", "--zmin", "1", "--zmax", "1", "--steps", "1"],
            ["kz", "--zmin", "3", "--zmax", "9", "--steps", "4"],
        ]
        # nor the dataclasses machinery and what it imports, nor csv
        unused = ["numpy", "dataclasses", "inspect", "ast", "dis", "tokenize", "csv"]
        script = (
            "import contextlib, os, sys\n"
            "import hesim.cli\n"
            f"loaded = lambda: [m for m in {unused!r} if m in sys.modules]\n"
            "print(*loaded())\n"
            f"for argv in {commands!r}:\n"
            "    with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink), \\\n"
            "            contextlib.redirect_stderr(sink):\n"
            "        try:\n"
            "            code = hesim.cli.main(argv + ['--out', os.devnull])\n"
            "        except SystemExit as exc:\n"
            "            code = exc.code\n"
            "    print(code, *loaded())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(hesim.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["", "0", "1"] + ["0"] * 13

    def test_the_import_loads_neither_typing_nor_cmath(self):
        # -S: no site module runs, so none preloads typing ahead of hesim;
        # annotations stay strings and the collections.abc names serve them
        script = "import sys, hesim.cli; print('typing' in sys.modules, 'cmath' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(hesim.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-S", "-c", script],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False False\n"

    # what only some commands run, each loaded by the code that runs it
    DEFERRED = ("json", "hesim.bellchsh", "hesim.entanglement")

    @pytest.mark.parametrize("argv, loads", [
        (["kz", "--zmin", "1", "--zmax", "1", "--steps", "1"], []),
        (["teleport", "spin", "--alpha", "0.6", "--beta", "0.8", "--z", "1"], ["json"]),
        (["chsh", "--z", "1"], ["json", "hesim.bellchsh"]),
        (["swap", "--z", "1", "--zprime", "0.5"], ["json", "hesim.entanglement"]),
        (["entropy", "hes:phi+:z=1"], ["json", "hesim.entanglement"]),
    ], ids=["kz", "teleport", "chsh", "swap", "entropy"])
    def test_the_import_loads_what_every_command_runs_and_a_command_its_own(self, argv, loads):
        # -S, as above: the import loads hesim's three eager modules and none
        # of the deferred ones, and one command then exactly its own
        script = (
            "import os, sys\n"
            "import hesim.cli\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'hesim'))\n"
            f"loaded = lambda: [m for m in {self.DEFERRED!r} if m in sys.modules]\n"
            "print(*loaded())\n"
            "assert hesim.cli.main(sys.argv[1:] + ['--out', os.devnull]) == 0\n"
            "print(*loaded())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(hesim.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-S", "-c", script, *argv],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "hesim hesim.cli hesim.fock hesim.protocols hesim.pseudospin", "", " ".join(loads)]

    def test_a_deferred_name_behaves_as_an_eager_one(self):
        # in a fresh interpreter, where no deferred module is loaded yet
        deferred = {
            "hesim.bellchsh": ["CIRELSON_BOUND", "CLASSICAL_BOUND", "ChshResult", "ChshSettings",
                               "analytic_optimum", "correlation_matrix", "optimize_chsh"],
            "hesim.entanglement": ["SchmidtSpectrum", "entanglement_entropy",
                                   "schmidt_coefficients"],
        }
        script = (
            "import importlib, sys\n"
            "import hesim\n"
            f"deferred = {deferred!r}\n"
            "print(*[m for m in deferred if m in sys.modules])\n"
            "print(sorted(set(hesim.__all__) - set(dir(hesim))))\n"
            "star = {}\n"
            "exec('from hesim import *', star)\n"
            "bound = sorted(star.keys() - {'__builtins__'})\n"
            "print(len(hesim.__all__), bound == sorted(hesim.__all__))\n"
            "print(*[name for module, names in deferred.items() for name in names\n"
            "        if star[name] is not getattr(importlib.import_module(module), name)\n"
            "        or vars(hesim)[name] is not star[name]])\n"
            "print(hesim.bellchsh is sys.modules['hesim.bellchsh'])\n"
            "for name in ('nonesuch', '_settings_for'):\n"
            "    try:\n"
            "        getattr(hesim, name)\n"
            "    except AttributeError as exc:\n"
            "        print(exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(hesim.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-S", "-c", script],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "", "[]", "42 True", "", "True",
            "module 'hesim' has no attribute 'nonesuch'",
            "module 'hesim' has no attribute '_settings_for'",
        ]

    def test_fresh_interpreter(self):
        commands = [
            ["teleport", "spin", "--alpha", "0.6", "--beta", "0.8", "--z", "1"],
            ["teleport", "parity", "--alpha", "0.6", "--beta", "0.8j", "--z", "1",
             "--zpp", "0.7", "--trials", "8"],
            ["swap", "--z", "1", "--zprime", "0.5", "--trials", "2"],
            ["swap", "--z", "1", "--zprime", "0.5", "--seed", "4294967290", "--trials", "20"],
        ]
        script = (
            "import os, sys\n"
            "from hesim.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    assert main(argv + ['--out', os.devnull]) == 0, argv\n"
            "print('numpy' in sys.modules, 'numpy.random' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(hesim.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False False\n"


class TestOneDrawPerTrial:
    """Trial i draws one uniform from RngStream(seed + i), whatever the run's
    length and wherever its seeds lie: the invariant a traced perfbench run checks, counted on
    ``RngStream.uniform`` as perfbench does."""

    @pytest.mark.parametrize(
        "command",
        [
            ["teleport", "spin", "--alpha", "0.6", "--beta", "0.8", "--z", "1"],
            ["teleport", "parity", "--alpha", "0.6", "--beta", "0.8j", "--z", "1",
             "--zpp", "0.7"],
            ["swap", "--z", "1", "--zprime", "0.5"],
        ],
        ids=["teleport_spin", "teleport_parity", "swap"],
    )
    @pytest.mark.parametrize(
        "trials,seed",
        [(1, 0), (4, 3), (5, 3), (100, 0), (300, 2**32 - 100)],
        ids=["one", "four", "five", "hundred", "straddles_2_32"],
    )
    def test_one_draw_per_trial(self, command, trials, seed, monkeypatch, tmp_path):
        drawn = []
        uniform = hesim.protocols.RngStream.uniform

        def counted(stream):
            drawn.append(stream.seed)
            return uniform(stream)

        monkeypatch.setattr(hesim.protocols.RngStream, "uniform", counted)
        code, data = run(command + ["--trials", str(trials), "--seed", str(seed)], tmp_path)
        assert code == 0 and json.loads(data)["trials"] == trials
        assert drawn == list(range(seed, seed + trials))


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
        # the handler imports entanglement_entropy from its module when it runs
        import hesim.entanglement

        entropies = TestProtocolBuiltOnce._count_calls(
            monkeypatch, "entanglement_entropy", hesim.entanglement)
        code, data = run(["swap", "--z", "1", "--zprime", "0.5", "--trials", "2"], tmp_path)
        assert code == 0
        outcomes = json.loads(data)["outcomes"]
        drawn = [slot for slot in outcomes.values() if slot["count"]]
        assert 1 <= len(drawn) <= 2 and len(entropies) == len(drawn)
        for slot in outcomes.values():
            if not slot["count"]:
                assert set(slot.values()) == {0, None}

    def test_negative_seed_rejected(self, monkeypatch, tmp_path, capsys):
        tables = TestProtocolBuiltOnce._count_calls(monkeypatch, "swap_entanglement")
        code, _ = run(["swap", "--z", "1", "--zprime", "0.5", "--seed", "-1"], tmp_path)
        assert code == 1 and not tables
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"

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

    def test_dim_rejected_for_spinbell(self, tmp_path, capsys, monkeypatch):
        def no_state(*args):
            raise AssertionError("a spin Bell state was built with --dim")

        monkeypatch.setattr(hesim.cli, "spin_bell_state", no_state)
        # 4 is a valid mode cutoff; the golden corpus pins the invalid 3
        code, data = run(["entropy", "spinbell:Phi+", "--dim", "4"], tmp_path)
        assert code == 1 and data == b""
        err = capsys.readouterr().err
        assert err.startswith("error: --dim") and err.count("\n") == 1

    def test_one_svd_per_command(self, monkeypatch, tmp_path):
        svd = hesim.entanglement._svd
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(hesim.entanglement, "_svd", counted)
        code, data = run(["entropy", "hes:phi+:z=2.5"], tmp_path)
        assert code == 0 and len(calls) == 1
        assert json.loads(data)["entropy_bits"] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("argv", [
        ["entropy", "paritybell:psi~-:z=9,zp=7.25"],
        ["entropy", "hes:phi-:z=9"],
        ["swap", "--z", "9", "--zprime", "8", "--trials", "40"],
        ["chsh", "--z", "9"],
    ], ids=["paritybell", "hes", "swap", "chsh"])
    def test_no_svd_is_larger_than_4x4(self, argv, monkeypatch, tmp_path):
        # the dense route took the SVD of a dim x dim amplitude matrix (160 x 160 here)
        svd = hesim.fock._svd
        shapes = []

        def recorded(a):
            shapes.append((len(a), len(a[0])))
            return svd(a)

        for module in (hesim.entanglement, hesim.bellchsh):
            monkeypatch.setattr(module, "_svd", recorded)
        code, _ = run(argv, tmp_path)
        assert code == 0 and shapes
        assert all(max(shape) <= 4 for shape in shapes), shapes

    def test_missing_parameter_fails_cleanly(self, tmp_path, capsys):
        code, _ = run(["entropy", "hes:phi+"], tmp_path)
        assert code != 0
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec,key,problem,takes",
        [
            ("hes:phi+:z=1,z=2", "z", "given twice", "z"),
            ("hes:phi+:z=1,zp=9", "zp", "unknown", "z"),
            ("spinbell:Phi+:z=1", "z", "unknown", "none"),
            ("product:z=1,label=3", "label", "unknown", "z"),
            ("paritybell:phi~+:z=1,zp=0.5,zpp=2", "zpp", "unknown", "z, zp"),
            ("hes:phi+:z=1,=3", "", "empty", "z"),
        ],
    )
    def test_stray_parameter_rejected(self, spec, key, problem, takes, tmp_path, capsys):
        code, data = run(["entropy", spec], tmp_path)
        kind = spec.split(":")[0]
        assert code == 1 and data == b""
        assert capsys.readouterr().err == (
            f"error: parameter {key!r} in state spec {spec!r} is {problem}; "
            f"{kind} takes: {takes}\n"
        )

    def test_product_takes_no_label(self, tmp_path, capsys):
        code, data = run(["entropy", "product:foo:z=1"], tmp_path)
        assert code == 1 and data == b""
        assert capsys.readouterr().err == (
            "error: product spec needs z=..., got 'product:foo:z=1'\n"
        )


def _outcome(argv, capsys):
    """(stdout, stderr, exit code) of one in-process command."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


class TestParserSelection:
    """``main`` builds only the parser of the subcommand argv names, with the
    full tree's text."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["kz", "--zmin", "0", "--zmax", "1", "--steps", "2"],
            ["chsh", "--z", "1"],
            ["teleport", "spin", "--alpha", "0.6", "--beta", "0.8", "--z", "1"],
            ["swap", "--z", "1", "--zprime", "0.5"],
            ["entropy", "hes:phi+:z=1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_valid_command_builds_one_parser(self, argv, monkeypatch, tmp_path):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        code, data = run(argv, tmp_path)
        assert code == 0 and data
        assert len(built) == 1

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

    @staticmethod
    def _full_tree(argv, capsys):
        """(stdout, stderr, exit code) of ``build_parser().parse_args(argv)``
        and, if it parses, the report of the handler it selects."""
        try:
            args = build_parser().parse_args(list(argv))
        except SystemExit as exc:
            out, err = capsys.readouterr()
            return out, err, exc.code
        return args.func(args), "", 0

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
            ["chsh", "--lab", "psi-", "--z", "1"],
            ["chsh", "--z", "1", "--z", "0.5"],
            ["chsh", "--", "--z", "1"],
            ["teleport", "--alpha", "0.6", "--beta", "0.8", "--z", "1", "--", "spin"],
            ["chsh", "--z", "1", "-h"],
            ["chsh", "--z"],
            ["chsh", "--z", "1", "--out"],
            ["chsh", "--z", "1", "--dim", "x"],
            ["teleport", "spin"],
            ["teleport", "spin", "--alpha", "1", "--beta", "-0.5+0.5j", "--z", "1"],
            ["chsh", "--z", "1", "chsh"],
        ],
        ids=" ".join,
    )
    def test_text_matches_the_full_tree(self, argv, columns, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", columns)
        assert _outcome(argv, capsys) == self._full_tree(argv, capsys)


# What the argv fuzz draws for each argument: small valid values three times
# in four, else edge values, as text. A huge positive --trials is left out:
# time is linear in it (README), with nothing to refuse.
def _mostly(valid, edges):
    return st.integers(0, 3).flatmap(lambda pick: valid if pick else st.sampled_from(edges))


HUGE_INTS = (str(2**64), str(2**32 - 1))
INT_EDGES = ("-1", "0", "nan", "1.5", "", f"-{2**64}")
FLOATS = _mostly(st.floats(0.0, 2.0).map(repr), (  # dim 28 holds z = 2
    "nan", "-nan", "inf", "-inf", "5e-324", "2.2250738585072014e-308", "-1", "-0.0", "1000.5",
    str(2**64), "1e300", "0x1p3", ""))
LABELS = _mostly(st.sampled_from(("phi+", "phi-", "psi+", "psi-", "φ⁺", "ψ⁻")),
                 ("Phi+", "phi~+", "bogus", ""))
AMPLITUDES = _mostly(st.sampled_from(("0.6", "-0.8", "0.6+0.8j", "0.8j", "1e200", "5e-324")),
                     ("0", "-1j", "1e400", "nan", "inf", "-inf+1j", "abc", ""))
NOT_A_DIRECTORY = str(Path(__file__) / "out")  # a path under a file: every write fails
TEXT = {
    "--label": LABELS,
    "--channel": LABELS,
    "--alpha": AMPLITUDES,
    "--beta": AMPLITUDES,
    "statespec": _mostly(st.one_of(
        st.sampled_from(("spinbell:Phi+", "spinbell:Ψ⁻", "paritybell:phi~+:z=1,zp=0.5")),
        st.builds("hes:{}:z={}".format, LABELS, FLOATS),
        st.builds("paritybell:phi~-:z={},zp={}".format, FLOATS, FLOATS),
        st.builds("product:z={}".format, FLOATS)), (
        "hes:phi+", "hes:bogus:z=1", "paritybell:phi~+:z=1,zp=1,zp=2", "paritybell:phi~+:z=1,=2",
        "product:foo:z=1", "spinbell:Phi+:z=1", "bogus:z=1", "", ":", "hes:phi+:z=abc")),
    "--out": st.just(NOT_A_DIRECTORY),
}


def _values(flag, keywords):
    """Text for one argument of the CLI's table, by its type or its flag."""
    if "choices" in keywords:
        return _mostly(st.sampled_from(keywords["choices"]), ("bogus",))
    if keywords.get("type") is float:
        return FLOATS
    if keywords.get("type") is int:
        if flag == "--dim":
            return _mostly(st.integers(15, 20).map(lambda n: str(2 * n)),
                           INT_EDGES + HUGE_INTS + ("2", "3", "1000002"))
        return _mostly(st.integers(1, 4).map(str),
                       INT_EDGES if flag == "--trials" else INT_EDGES + HUGE_INTS)
    return TEXT[flag]


@st.composite
def argvs(draw):
    """A subcommand and arguments drawn from ``cli._SUBCOMMANDS`` and ``cli._COMMON``:
    a required argument is left out one time in ten, an optional one two
    times in three, and a flag's value is given as a separate word or after ``=``."""
    name = draw(st.sampled_from((*hesim.cli._SUBCOMMANDS, "bogus")))
    argv = [name]
    declared = hesim.cli._SUBCOMMANDS[name][1] + hesim.cli._COMMON if name != "bogus" else ()
    for flag, keywords in declared:
        needed = not flag.startswith("-") or keywords.get("required")
        if draw(st.integers(0, 9)) >= (9 if needed else 3):
            continue
        value = draw(_values(flag, keywords))
        if not flag.startswith("-"):
            argv.append(value)
        elif draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


def _finite(report: str) -> bool:
    """Whether every number of a kz CSV or a JSON report is finite."""
    if report.startswith("z,"):
        return all(math.isfinite(float(x)) for row in report.splitlines()[1:]
                   for x in row.split(","))

    def refuse(constant):
        raise ValueError(constant)

    try:
        json.loads(report, parse_constant=refuse)
    except ValueError:
        return False
    return True


class TestEveryArgvEnds:
    """The CLI's contract: any argv drawn from the flag table ends fast in
    a finite report (exit 0), one ``error:`` line (exit 1) or an
    argparse usage error (``SystemExit(2)``), with no traceback and no
    warning. The costly corners, z near the Fock cap and kz's steps near a
    cap, are the cap tests of ``TestKz``."""

    @given(argvs())
    @example(["kz", "--zmin", "0", "--zmax=2", "--steps", "3", "--dim", "30"])
    @example(["chsh", "--z", "1", "--label=ψ⁻", "--restarts", str(2**64), "--seed", "-1"])
    @example(["teleport", "parity", "--alpha", "5e-324", "--beta=-0.8", "--z", "0.5",
              "--zpp", "1", "--trials", "4", "--seed", str(2**64)])
    @example(["swap", "--z", "0", "--zprime", "5e-324", "--trials", "4", "--seed", "4294967295"])
    @example(["entropy", "paritybell:phi~-:z=1,zp=0.5", "--dim", "30"])
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_argv_ends_in_a_report_an_error_line_or_a_usage_error(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main(list(argv))
            except SystemExit as exc:
                assert exc.code == 2, argv
                code = "usage"
        assert not caught, (argv, [str(w.message) for w in caught])
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert err == "" and _finite(out), argv
        elif code == 1:
            assert out == "" and re.fullmatch(r"error: [^\n]*\n", err), (argv, err)
        else:
            assert code == "usage" and out == "" and "error: " in err, (argv, code)
