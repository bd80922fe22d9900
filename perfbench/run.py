"""hesim benchmark: drives the ``hesim`` CLI on a seeded workload and prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload protocol_mc --seed 1 --seconds 20 --trace 0

An untraced run times set-up as the median of several fresh-interpreter
imports of the CLI module, half of them before and half after the
workload. The workload runs in one fresh worker interpreter, a closed loop
with a single client, for ``--seconds``. With ``--trace 1`` a traced worker
runs a fixed prefix of the op stream instead, and a second, untraced worker
replays the same prefix to measure the tracing overhead.

Times are scaled to a reference host speed by the probes in
``hostspeed.py``; the wall times are kept in the run report.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Run metadata, the
sample counts and any failed ops go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 16
WORKER_TIMEOUT_S = 150
# BLAS and OpenMP pools stay at one thread: one worker, no helper threads.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# Ops per second an untraced worker completes on a 2-core x86-64 machine.
# The traced run takes half the run's seconds' worth of ops, so that the
# traced run and its untraced replay together take about --seconds, and
# its counts depend on the seed and --seconds only.
TRACE_OPS_PER_SECOND = {"protocol_mc": 6.0, "chsh_scan": 1.1, "cutoff_sweep": 100.0}

IMPORT_PROBE = """\
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import hostspeed
before = hostspeed.python_slowdown()
t = time.perf_counter()
import hesim.cli
elapsed = time.perf_counter() - t
after = hostspeed.python_slowdown()
import hesim
if not hesim.__file__.startswith(sys.argv[1]):
    raise SystemExit(f"hesim imported from {hesim.__file__}")
print(repr(elapsed), repr((before + after) / 2))
"""

END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def time_setup(src: Path, count: int) -> list[tuple[float, float]]:
    """Import times of the CLI module, each in a fresh interpreter.

    Each sample is (wall seconds, the mean of the host slowdowns the
    interpreter probed just before and just after the import).
    """
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(src), str(HERE)],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"import hesim.cli failed:\n{proc.stderr}")
        wall, slowdown = map(float, proc.stdout.split())
        samples.append((wall, slowdown))
    return samples


def run_worker(out_dir: Path, tag: str, workload: str, seed: int, *, seconds=None,
               ops=None, trace: bool = False) -> dict:
    """Run one worker interpreter to completion and return its result."""
    result = out_dir / f"{tag}.result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--tmp-dir", str(out_dir), "--result", str(result)]
    cmd += ["--seconds", repr(float(seconds))] if ops is None else ["--ops", str(ops)]
    if trace:
        cmd += ["--spans", str(out_dir / f"{tag}.spans.tsv.gz")]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=sys.stderr,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def op_times(result: dict) -> list[float]:
    """Each command's time, scaled to the reference host speed."""
    return [t / s for t, s in zip(result["op_times"], result["op_slowdowns"])]


def work_per_s(result: dict) -> float:
    """Work units of passing ops per second of scaled command time."""
    return result["work"] / sum(op_times(result))


def end_to_end(result: dict, setup: list[tuple[float, float]]) -> dict:
    values = {
        "setup_s": statistics.median(t / s for t, s in setup),
        "op_s_p50": statistics.median(op_times(result)),
        "work_per_s": work_per_s(result),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


PER_LAYER_FUNCTIONS = (
    "protocols.teleport_spin",
    "protocols.teleport_parity",
    "protocols.swap_entanglement",
    "protocols.hes_state",
    "protocols.measure_spin_bell",
    "protocols.measure_parity_bell",
    "protocols.parity_bell_state",
    "protocols.swap_expansion_coefficients",
    "bellchsh.optimize_chsh",
    "fock.mode_dim_for",
    "fock.partial_inner",
    "fock.tensor",
    "pseudospin.k_series",
    "pseudospin.k_matrix",
    "entanglement.entanglement_entropy",
)


def per_layer(traced: dict, plain: dict) -> dict:
    """Per-layer metrics from a traced run and its untraced replay."""
    t = traced["trace"]
    fns = t["functions"]

    def calls(name):
        return fns.get(name, {}).get("calls", 0)

    m = {
        "fock.codeword.calls": (t["codeword_calls"], "count"),
        "fock.codeword.distinct_frac": (
            t["codeword_distinct"] / t["codeword_calls"] if t["codeword_calls"] else 0.0,
            "fraction",
        ),
        "fock.statevector.count": (t["statevectors"], "count"),
        "fock.statevector.bytes": (t["statevector_bytes"], "B"),
        "pseudospin.build_pseudospin.calls": (calls("pseudospin.build_pseudospin"), "count"),
        "bellchsh.correlation_matrix.calls": (calls("bellchsh.correlation_matrix"), "count"),
        "bellchsh.iterations": (traced["iterations"], "count"),
    }
    for name in PER_LAYER_FUNCTIONS:
        m[f"{name}.self_s"] = (fns.get(name, {}).get("self_s", 0.0), "s")
    for layer, stats in t["layers"].items():
        m[f"{layer}.self_s"] = (stats["self_s"], "s")
        m[f"{layer}.calls"] = (stats["calls"], "count")
    m["rng.draws"] = (t["draws"], "count")
    m["rng.draws_per_trial"] = (
        t["draws"] / traced["trials"] if traced["trials"] else 0.0, "count"
    )
    m["trace.ops"] = (traced["attempted"], "count")
    m["trace.work_per_s_traced"] = (work_per_s(traced), "1/s")
    m["trace.work_per_s_untraced"] = (work_per_s(plain), "1/s")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in m.items()}


def _git_sha() -> str:
    """HEAD of the checkout, or a note that it is not a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    if proc.returncode != 0:
        return "unknown (not a git checkout)"
    return proc.stdout.strip()


def _src_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(src: Path, runs: list[dict], setup: list[tuple[float, float]]) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(src),
        "python": platform.python_version(),
        "numpy": runs[0]["numpy"],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "probe_reference_s": {"python": hostspeed.PYTHON_REFERENCE_S,
                              "numpy": hostspeed.NUMPY_REFERENCE_S},
        "setup_samples_wall_s_slowdown": setup,
        "runs": [
            {k: r[k] for k in ("traced", "attempted", "failed", "work", "trials", "wall_s")}
            | {"op_samples": len(r["op_times"]),
               "op_wall_s_p50": statistics.median(r["op_times"]),
               "slowdown_p50": statistics.median(r["op_slowdowns"]),
               "failures": r["failures"]}
            for r in runs
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "hesim" / "__init__.py").is_file():
        print(f"error: no hesim sources under {src}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setup: list[tuple[float, float]] = []
    try:
        if args.trace:
            n_ops = max(1, round(TRACE_OPS_PER_SECOND[args.workload] * args.seconds / 2))
            traced = run_worker(out_dir, tag, args.workload, args.seed, ops=n_ops, trace=True)
            plain = run_worker(out_dir, tag + "-replay", args.workload, args.seed, ops=n_ops)
            runs = [traced, plain]
            metrics = per_layer(traced, plain)
            # every protocol trial draws exactly one uniform
            invariant_ok = traced["trace"]["draws"] == traced["trials"]
        else:
            # one untimed import writes the bytecode cache, as the first
            # hesim invocation after installing would; then half the set-up
            # samples before the worker and half after it, so that they see
            # the host at two times
            time_setup(src, 1)
            setup = time_setup(src, SETUP_SAMPLES // 2)
            runs = [run_worker(out_dir, tag, args.workload, args.seed, seconds=args.seconds)]
            setup += time_setup(src, SETUP_SAMPLES - SETUP_SAMPLES // 2)
            metrics = end_to_end(runs[0], setup)
            invariant_ok = True
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    main_run = runs[0]
    attempted, failed = main_run["attempted"], main_run["failed"]
    if attempted < 1:
        print("error: no op completed", file=sys.stderr)
        return 1
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "failed_frac": failed / attempted,
        "metadata": metadata(src, runs, setup),
    }
    (out_dir / f"{tag}.report.json").write_text(json.dumps(report, indent=2), encoding="utf-8")

    times = op_times(main_run)
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops, "
          f"{failed} failed (failed_frac {failed / attempted:.4g}), "
          f"{main_run['work']} work units in {sum(main_run['op_times']):.3f} s of command "
          f"wall time, {sum(times):.3f} s at reference host speed (median host slowdown "
          f"{statistics.median(main_run['op_slowdowns']):.3g})")
    if len(times) >= 100:
        p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
        print(f"op_s_p90 {p90:.6g} s over {len(times)} ops")
    for run in runs:
        for failure in run["failures"]:
            print(f"FAILED {' '.join(failure['argv'])}: {failure['problems']}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    correct = all(r["failed"] == 0 for r in runs) and invariant_ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
