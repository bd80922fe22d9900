"""One benchmark run: a fresh interpreter driving ``hesim.cli.main`` in a closed loop.

A single client sends each command only after the previous one returned.
Every command writes its report to a temporary file inside the checkout,
and the report is checked before the next command starts; the check is
outside the timed region. Before a command the worker probes the host's
slowdown with the workload's loop in ``hostspeed.py`` if the last probe is
older than ``hostspeed.INTERVAL_S``, and once more after the last command;
each command's time is kept with the mean of the probes on either side of
it. A run starts ops until ``--seconds`` have passed; ``--ops N`` runs
exactly the first N ops instead, which the traced run and its untraced
replay use so that their counts repeat exactly.

Run by ``run.py``; the result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MAX_FAILURES_KEPT = 20


def _call_cli(cli, argv: list[str]) -> tuple[int, str | None]:
    """Exit code of one command, and the traceback if it raised."""
    try:
        return cli.main(argv), None
    except SystemExit as exc:  # argparse rejects bad argv this way
        return (exc.code if isinstance(exc.code, int) else 1), None
    except Exception:  # the op fails; the run goes on
        return 1, traceback.format_exc()


def run(args: argparse.Namespace) -> dict:
    import hesim
    import hesim.cli

    src = (ROOT / "src").resolve()
    if src not in Path(hesim.__file__).resolve().parents:
        raise SystemExit(f"hesim imported from {hesim.__file__}, not from {src}")

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    elif spans.installed():
        raise SystemExit(f"untraced run found wrappers: {spans.installed()}")

    source = workloads.stream(args.workload, args.seed)
    if args.ops is not None:
        source = itertools.islice(source, args.ops)
    cli = sys.modules["hesim.cli"]
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=args.tmp_dir))
    out = tmp / "report"
    op_times: list[float] = []
    slowdown = hostspeed.WORKLOAD_PROBES[args.workload]
    slowdowns: list[float] = []
    op_probe_index: list[int] = []
    probed_at = -float("inf")
    failures: list[dict] = []
    attempted = failed = work = trials = iterations = 0
    began = time.perf_counter()
    try:
        for op in source:
            if args.ops is None and time.perf_counter() - began >= args.seconds:
                break
            out.unlink(missing_ok=True)
            if time.perf_counter() - probed_at >= hostspeed.INTERVAL_S:
                slowdowns.append(slowdown())
                probed_at = time.perf_counter()
            argv = [*op.argv, f"--out={out}"]
            span = tracer.begin("op") if tracer else None
            t0 = time.perf_counter()
            code, tb = _call_cli(cli, argv)
            t1 = time.perf_counter()
            if tracer:
                tracer.end(span)
            attempted += 1
            trials += op.trials
            op_times.append(t1 - t0)
            op_probe_index.append(len(slowdowns) - 1)
            if code != 0:
                problems = [f"exit code {code}"] + ([tb] if tb else [])
            else:
                text = out.read_text(encoding="utf-8")
                problems = checks.check(op, text)
                if not problems and op.command == "chsh":
                    iterations += json.loads(text)["iterations"]
            if problems:
                failed += 1
                if len(failures) < MAX_FAILURES_KEPT:
                    failures.append({"argv": list(op.argv), "problems": problems})
            else:
                work += op.work
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    wall = time.perf_counter() - began
    slowdowns.append(slowdown())
    op_slowdowns = [(slowdowns[j] + slowdowns[j + 1]) / 2 for j in op_probe_index]

    if not args.trace and spans.installed():
        raise SystemExit(f"untraced run found wrappers: {spans.installed()}")

    import numpy

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "work": work,
        "trials": trials,
        "iterations": iterations,
        "op_times": op_times,
        "op_slowdowns": op_slowdowns,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer:
        result["trace"] = spans.summarize(tracer)
        if args.spans:
            tracer.write(args.spans)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    if (args.seconds is None) == (args.ops is None):
        parser.error("give exactly one of --seconds and --ops")
    result = run(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
