"""Tests of the benchmark's own logic: checks, generator, tracing arithmetic.

Run with ``python3 -m pytest perfbench`` from the root of the repository.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import spans
import worker
import workloads

import hesim.cli

HERE = Path(__file__).resolve().parent


def _report(tmp_path: Path, op: workloads.Op) -> str:
    out = tmp_path / "report"
    assert hesim.cli.main([*op.argv, f"--out={out}"]) == 0
    return out.read_text(encoding="utf-8")


def _edit_json(text: str, edit) -> str:
    report = json.loads(text)
    edit(report)
    return json.dumps(report)


TELEPORT = workloads.Op(
    "teleport",
    ("teleport", "spin", "--alpha=0.6", "--beta=0.8j", "--z=1.0",
     "--channel=phi-", "--trials=40", "--seed=7"),
    40, 40,
)
SWAP = workloads.Op("swap", ("swap", "--z=0.8", "--zprime=1.2", "--trials=40", "--seed=3"), 40, 40)
CHSH = workloads.Op("chsh", ("chsh", "--z=1.0", "--label=psi-", "--restarts=2"), 1)
KZ = workloads.Op("kz", ("kz", "--zmin=3", "--zmax=4", "--steps=3"), 3)
ENTROPY = workloads.Op("entropy", ("entropy", "paritybell:psi~-:z=3.5,zp=4"), 1)


def _drawn_swap_label(report: dict) -> str:
    return next(label for label, slot in report["outcomes"].items() if slot["count"])


def _swap_wrong_pairing(report: dict) -> None:
    report["outcomes"][_drawn_swap_label(report)]["parity_label"] = "phi~+x"


def _swap_entropy(report: dict) -> None:
    report["outcomes"][_drawn_swap_label(report)]["entropy_max"] = 1.0 + 1e-8


def _teleport_skewed(report: dict) -> None:
    report["counts"] = {"Psi+": 40, "Psi-": 0, "Phi+": 0, "Phi-": 0}


def _teleport_lost_trial(report: dict) -> None:
    report["counts"]["Psi+"] -= 1


def _kz_corrupt(text: str) -> str:
    lines = text.splitlines()
    row = lines[2].split(",")
    row[3] = "1e-9"
    lines[2] = ",".join(row)
    return "\n".join(lines) + "\n"


CORRUPTIONS = [
    (TELEPORT, lambda t: _edit_json(t, lambda r: r.update(fidelity_min=1.0 - 1e-8))),
    (TELEPORT, lambda t: _edit_json(t, lambda r: r.update(fidelity_min=math.nan))),
    (TELEPORT, lambda t: _edit_json(t, _teleport_skewed)),
    (TELEPORT, lambda t: _edit_json(t, _teleport_lost_trial)),
    (TELEPORT, lambda t: t[: len(t) // 2]),
    (SWAP, lambda t: _edit_json(t, _swap_wrong_pairing)),
    (SWAP, lambda t: _edit_json(t, _swap_entropy)),
    (SWAP, lambda t: _edit_json(t, lambda r: r.update(fidelity_min=0.99))),
    (CHSH, lambda t: _edit_json(t, lambda r: r.update(gap=-2e-6))),
    (CHSH, lambda t: _edit_json(t, lambda r: r.update(optimizer_value=2.0))),
    (CHSH, lambda t: _edit_json(t, lambda r: r.update(optimizer_value=2.9))),
    (KZ, _kz_corrupt),
    (KZ, lambda t: "\n".join(t.splitlines()[:-1]) + "\n"),
    (ENTROPY, lambda t: _edit_json(t, lambda r: r.update(entropy_bits=0.999))),
    (ENTROPY, lambda t: _edit_json(t, lambda r: r.pop("entropy_bits"))),
]


@pytest.mark.parametrize("op", [TELEPORT, SWAP, CHSH, KZ, ENTROPY], ids=lambda op: op.command)
def test_genuine_reports_pass(tmp_path, op):
    assert checks.check(op, _report(tmp_path, op)) == []


@pytest.mark.parametrize("op,corrupt", CORRUPTIONS, ids=range(len(CORRUPTIONS)))
def test_corrupted_report_fails_check(tmp_path, op, corrupt):
    assert checks.check(op, corrupt(_report(tmp_path, op)))


def test_corrupted_report_counts_as_failed_op(tmp_path, monkeypatch):
    real_main = hesim.cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        out = Path(argv[-1].split("=", 1)[1])
        out.write_text(_edit_json(out.read_text(), lambda r: r.update(fidelity_min=0.5)))
        return code

    monkeypatch.setattr(hesim.cli, "main", corrupting_main)
    args = argparse.Namespace(workload="protocol_mc", seed=3, seconds=None, ops=2,
                              trace=0, tmp_dir=str(tmp_path), spans=None)
    result = worker.run(args)
    assert (result["attempted"], result["failed"], result["work"]) == (2, 2, 0)
    assert "fidelity_min 0.5" in result["failures"][0]["problems"][0]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_op_list(workload):
    first = workloads.ops(workload, 5, 40)
    assert first == workloads.ops(workload, 5, 40)
    assert first != workloads.ops(workload, 6, 40)


def _z_values(op: workloads.Op) -> list[str]:
    zs = []
    for arg in op.argv:
        key, _, value = arg.partition("=")
        if key in ("--z", "--zpp", "--zprime", "--zmin", "--zmax"):
            zs.append(value)
        elif ":" in arg:  # entropy state spec: kind:label:z=...,zp=...
            zs += [item.split("=")[1] for item in arg.split(":")[-1].split(",")]
    return zs


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_ops_never_repeat_a_z_or_seed(workload):
    stream = workloads.ops(workload, 9, 300)
    zs = [z for op in stream for z in _z_values(op)]
    assert zs and len(zs) == len(set(zs))
    seeds = sorted(int(a.split("=")[1]) for op in stream for a in op.argv
                   if a.startswith("--seed="))
    max_trials = max(op.trials for op in stream)
    assert all(b - a > max_trials for a, b in zip(seeds, seeds[1:]))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generated_argv_parses(workload):
    parser = hesim.cli.build_parser()
    for op in workloads.ops(workload, 2, 60):
        args = parser.parse_args(list(op.argv))
        assert args.subcommand == op.command


def test_self_time_subtracts_child_time():
    # root [0, 10] has children a [1, 4] and b [5, 6]; a has one child g [2, 3].
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    own = spans.self_times(starts, ends, parents)
    # root loses a and b, not g: 10 - 3 - 1; a loses g: 3 - 1
    assert own == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_tracing_wraps_every_binding_and_untraced_has_none():
    assert spans.installed() == []
    probe = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import hesim.cli, spans\n"
        "assert spans.installed() == []\n"
        "spans.install(spans.Tracer())\n"
        "print('\\n'.join(spans.installed()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(HERE.parent / "src"), str(HERE)],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    for binding in (
        "hesim.fock.even_coherent",
        "hesim.protocols.even_coherent",
        "hesim.even_coherent",
        "hesim.cli.teleport_spin",
        "hesim.cli.main",
        "hesim.bellchsh.k_series",
        "hesim.fock.StateVector.__post_init__",
        "hesim.protocols.RngStream.uniform",
    ):
        assert binding in out


def _traced_counts(tmp_path: Path, tag: str) -> dict:
    result = tmp_path / f"{tag}.json"
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "cutoff_sweep",
         "--seed", "4", "--ops", "10", "--trace", "1", "--tmp-dir", str(tmp_path),
         "--result", str(result)],
        check=True,
    )
    trace = json.loads(result.read_text())["trace"]
    calls = {name: f["calls"] for name, f in trace["functions"].items()}
    return {k: v for k, v in trace.items() if k not in ("functions", "layers")} | calls


def test_traced_counts_repeat_exactly(tmp_path):
    first = _traced_counts(tmp_path, "a")
    assert first["draws"] > 0 and first["codeword_calls"] > 0
    assert first == _traced_counts(tmp_path, "b")


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    op_result = {"op_times": [0.5, 1.5], "op_slowdowns": [1.0, 1.0], "work": 4, "peak_rss_mb": 40.0,
                 "iterations": 0, "trials": 4, "attempted": 2}
    traced = op_result | {"trace": {
        "functions": {}, "layers": {layer: {"calls": 0, "self_s": 0.0} for layer in spans.LAYERS},
        "statevectors": 0, "statevector_bytes": 0, "draws": 4,
        "codeword_calls": 0, "codeword_distinct": 0,
    }}
    for metrics, key in ((run.end_to_end(op_result, [(0.1, 1.0), (0.2, 1.0)]), "end_to_end"),
                         (run.per_layer(traced, op_result), "per_layer")):
        assert {n: m["unit"] for n, m in metrics.items()} == {
            m["name"]: m["unit"] for m in spec[key]}


def test_times_are_divided_by_the_host_slowdown():
    import run

    result = {"op_times": [0.4, 1.5, 3.0], "op_slowdowns": [2.0, 1.5, 1.0],
              "work": 6, "peak_rss_mb": 40.0}
    metrics = run.end_to_end(result, [(0.3, 1.5), (0.2, 2.0), (0.5, 1.0)])
    assert metrics["op_s_p50"]["value"] == pytest.approx(1.0)
    assert metrics["work_per_s"]["value"] == pytest.approx(6 / 4.2)
    assert metrics["setup_s"]["value"] == pytest.approx(0.2)
