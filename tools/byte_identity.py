"""Byte identity of ``hesim`` reports between a base revision and the working tree.

Usage, from the root of a checkout:

    python3 tools/byte_identity.py --base REV [--ops N]

Extracts ``src/`` of REV with ``git archive`` into a temporary directory,
then runs one fixed corpus of ``hesim`` commands in-process against each
source tree, one fresh interpreter per tree, and compares every command's
stdout, stderr and exit code. On the first difference it prints that argv
and exits with status 1; otherwise it prints how many commands matched.

The corpus is the first N ops (default 150) of every perfbench workload at
seeds 11 and 12, followed by every argv of ``tests/cli_golden.jsonl``, each
run at ``COLUMNS`` 20, 80 and 200 (argparse wraps usage to that width).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "cli_golden.jsonl"
SEEDS = (11, 12)
COLUMNS = ("20", "80", "200")


def corpus(ops: int) -> list[list[str]]:
    """The perfbench op streams at SEEDS, then the golden argv."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    argvs = [list(op.argv) for name in sorted(workloads.WORKLOADS)
             for seed in SEEDS for op in workloads.ops(name, seed, ops)]
    with GOLDEN.open(encoding="utf-8") as fh:
        argvs += [json.loads(line)["argv"] for line in fh]
    return argvs


def run_corpus(src: str) -> None:
    """Run the argv list read from stdin against the hesim under src; write the
    records, every argv at every COLUMNS, to stdout as JSON."""
    sys.path[:0] = [src, str(GOLDEN.parent)]
    import hesim
    from test_cli_golden import record  # the golden file's own recorder

    if not Path(hesim.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"hesim imported from {hesim.__file__}, not from {src}")
    argvs = json.load(sys.stdin)
    records = []
    for columns in COLUMNS:
        os.environ["COLUMNS"] = columns
        records += [record(argv) | {"columns": columns} for argv in argvs]
    json.dump(records, sys.stdout)


def reports(src: Path, argvs: list[list[str]]) -> list[dict]:
    proc = subprocess.run([sys.executable, __file__, "--run", str(src)],
                          input=json.dumps(argvs), capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"corpus run on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def first_difference(base: list[dict], change: list[dict]) -> str | None:
    """A description of the first record that differs, or None."""
    for old, new in zip(base, change, strict=True):
        if old != new:
            parts = [key for key in ("stdout", "stderr", "exit") if old[key] != new[key]]
            return (f"COLUMNS={old['columns']} hesim {' '.join(old['argv'])}: "
                    f"{', '.join(parts)} differ")
    return None


def extract_src(rev: str, into: Path) -> Path:
    """src/ of rev, unpacked under into."""
    proc = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                          capture_output=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"git archive {rev} failed:\n{proc.stderr.decode()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--ops", type=int, default=150, help="ops per workload and seed")
    parser.add_argument("--run", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run:
        run_corpus(args.run)
        return 0
    if args.base is None:
        parser.error("--base is required")
    argvs = corpus(args.ops)
    with tempfile.TemporaryDirectory(prefix="byte-identity-") as tmp:
        base = reports(extract_src(args.base, Path(tmp)), argvs)
    change = reports(ROOT / "src", argvs)
    diff = first_difference(base, change)
    if diff is not None:
        print(f"first difference: {diff}")
        return 1
    print(f"{len(change)} commands identical ({len(argvs)} argv at COLUMNS "
          f"{', '.join(COLUMNS)}) between {args.base} and the working tree")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
