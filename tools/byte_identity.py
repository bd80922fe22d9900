"""Byte identity of ``hesim`` reports between a base revision and the working tree.

Usage, from the root of a checkout:

    python3 tools/byte_identity.py --base REV [--ops N] [--expect-change SUBCOMMAND[,...]]

Extracts ``src/`` of REV with ``git archive`` into a temporary directory,
then runs one fixed corpus of ``hesim`` commands in-process against each
source tree, one fresh interpreter per tree, and compares every command's
stdout, stderr and exit code. On the first difference it prints that argv
and exits with status 1; otherwise it prints how many commands matched.

The reports a change is meant to move are read off REV's and the working
tree's ``tests/cli_golden.jsonl``: a line the change re-records with its
stdout and exit kept expects its argv to differ, and a line whose stdout or
exit changed, or that was dropped, expects its whole subcommand (argv[0]).
``--expect-change`` names more such subcommands, for local runs. Differing
commands that are expected are listed instead, each with the largest
absolute numeric difference per JSON key or CSV column; a difference in
any other command still stops the run with status 1.

The corpus is the first N ops (default 150) of every perfbench workload at
seeds 11 and 12, followed by every argv of REV's ``tests/cli_golden.jsonl``
(lines added since then pin new behaviour, which ``tests/test_cli_golden.py``
checks), each run at ``COLUMNS`` 20, 80 and 200 (argparse wraps usage to
that width).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
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


def corpus(ops: int, golden: str | None = None) -> list[list[str]]:
    """The perfbench op streams at SEEDS, then the argv of the golden lines
    (by default those of the working tree's golden file)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    argvs = [list(op.argv) for name in sorted(workloads.WORKLOADS)
             for seed in SEEDS for op in workloads.ops(name, seed, ops)]
    if golden is None:
        golden = GOLDEN.read_text(encoding="utf-8")
    return argvs + [json.loads(line)["argv"] for line in golden.splitlines()]


def record(argv: list[str]) -> dict:
    """argv with the stdout, stderr and exit code of one in-process
    ``hesim.cli.main`` call, as a golden line holds them;
    ``tests/test_cli_golden.py`` records with it too. It imports nothing else
    from the hesim on the path, so a base revision records whatever private
    names the working tree's tests import."""
    from hesim.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def run_corpus(src: str) -> None:
    """Run the argv list read from stdin against the hesim under src; write the
    records, every argv at every COLUMNS, to stdout as JSON."""
    sys.path.insert(0, src)
    import hesim

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


def _describe(record: dict, detail: str) -> str:
    return f"COLUMNS={record['columns']} hesim {' '.join(record['argv'])}: {detail}"


def _expected(record: dict, expected: frozenset) -> bool:
    """Whether expected, a set of subcommands (str) and whole argv (tuple),
    holds the record's argv or its subcommand."""
    argv = tuple(record["argv"])
    return argv in expected or bool(argv) and argv[0] in expected


def golden_expectation(base_golden: str, golden: str) -> frozenset:
    """What a change from base_golden to golden expects to move. A line
    re-recorded with its stdout and exit kept expects its argv, a tuple; a
    line whose stdout or exit changed, or that golden drops, expects its
    subcommand, argv[0] (an empty argv expects itself)."""
    kept = set(golden.splitlines())
    now = {tuple(case["argv"]): case for case in map(json.loads, golden.splitlines())}
    expected = set()
    for line in base_golden.splitlines():
        if line in kept:
            continue
        old = json.loads(line)
        argv = tuple(old["argv"])
        new = now.get(argv)
        if new is not None and (new["stdout"], new["exit"]) == (old["stdout"], old["exit"]):
            expected.add(argv)
        else:
            expected.add(argv[0] if argv else argv)
    return frozenset(expected)


def first_difference(base: list[dict], change: list[dict],
                     expected: frozenset = frozenset()) -> str | None:
    """A description of the first record that differs, or None; records
    ``expected`` holds (see ``_expected``) are skipped."""
    for old, new in zip(base, change, strict=True):
        if old != new and not _expected(old, expected):
            parts = [key for key in ("stdout", "stderr", "exit") if old[key] != new[key]]
            return _describe(old, f"{', '.join(parts)} differ")
    return None


def _numbers(text: str) -> dict[str, list]:
    """The values of a report by JSON key path or CSV column, in order."""
    values: dict[str, list] = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, child in node.items():
                walk(child, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for child in node:
                walk(child, path)
        else:
            values.setdefault(path, []).append(node)

    try:
        walk(json.loads(text), "")
    except json.JSONDecodeError:
        header, *rows = list(csv.reader(io.StringIO(text))) or [[]]
        for row in rows:
            for key, cell in zip(header, row):
                values.setdefault(key, []).append(float(cell))
    return values


def numeric_differences(old: str, new: str) -> dict[str, float | str]:
    """Largest absolute difference per key between two reports: a float
    where both hold numbers, or "changed" where anything else differs."""
    a, b = _numbers(old), _numbers(new)
    out: dict[str, float | str] = {}
    for key in sorted(a.keys() | b.keys()):
        xs, ys = a.get(key, []), b.get(key, [])
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in xs + ys)
        if len(xs) != len(ys) or not numeric:
            if xs != ys:
                out[key] = "changed"
            continue
        diff = max((abs(x - y) for x, y in zip(xs, ys)), default=0.0)
        if diff or any(math.copysign(1, x) != math.copysign(1, y) for x, y in zip(xs, ys)):
            out[key] = diff
    return out


def expected_changes(base: list[dict], change: list[dict], expected: frozenset) -> list[str]:
    """One line per differing record that expected holds."""
    lines = []
    for old, new in zip(base, change, strict=True):
        if old != new and _expected(old, expected):
            if (old["stderr"], old["exit"]) != (new["stderr"], new["exit"]):
                lines.append(_describe(old, "stderr or exit differ"))
                continue
            diffs = numeric_differences(old["stdout"], new["stdout"])
            lines.append(_describe(old, ", ".join(
                f"{key} {d if isinstance(d, str) else format(d, '.3g')}"
                for key, d in diffs.items())))
    return lines


def git_show(rev: str, path: str) -> str:
    """The text of path at rev."""
    proc = subprocess.run(["git", "show", f"{rev}:{path}"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"git show {rev}:{path} failed:\n{proc.stderr}")
    return proc.stdout


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
    parser.add_argument("--expect-change", default="", metavar="SUBCOMMAND[,...]",
                        help="subcommands whose reports may differ; each change is listed")
    parser.add_argument("--run", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run:
        run_corpus(args.run)
        return 0
    if args.base is None:
        parser.error("--base is required")
    base_golden = git_show(args.base, GOLDEN.relative_to(ROOT).as_posix())
    expected = (golden_expectation(base_golden, GOLDEN.read_text(encoding="utf-8"))
                | frozenset(filter(None, args.expect_change.split(","))))
    argvs = corpus(args.ops, base_golden)
    with tempfile.TemporaryDirectory(prefix="byte-identity-") as tmp:
        base = reports(extract_src(args.base, Path(tmp)), argvs)
    change = reports(ROOT / "src", argvs)
    diff = first_difference(base, change, expected)
    if diff is not None:
        print(f"first difference: {diff}")
        return 1
    changed = expected_changes(base, change, expected)
    for line in changed:
        print(f"changed: {line}")
    subcommands = sorted(name for name in expected if isinstance(name, str))
    print(f"{len(change) - len(changed)} commands identical, {len(changed)} changed in "
          f"{len(expected) - len(subcommands)} re-recorded argv and "
          f"{', '.join(subcommands) or 'no subcommand'} ({len(argvs)} argv at COLUMNS "
          f"{', '.join(COLUMNS)}) between {args.base} and the working tree")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
