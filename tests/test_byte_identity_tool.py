"""``tools/byte_identity.py``: its corpus and its comparison of two runs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("byte_identity", ROOT / "tools" / "byte_identity.py")
byte_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(byte_identity)


def test_corpus_is_the_op_streams_then_every_golden_argv():
    argvs = byte_identity.corpus(2)
    with byte_identity.GOLDEN.open(encoding="utf-8") as fh:
        golden = [json.loads(line)["argv"] for line in fh]
    assert argvs[len(argvs) - len(golden):] == golden
    streams = argvs[:len(argvs) - len(golden)]
    assert len(streams) == 3 * len(byte_identity.SEEDS) * 2
    assert {argv[0] for argv in streams} >= {"teleport", "swap", "chsh", "kz"}


def test_first_difference_names_the_argv_and_the_part_that_differs():
    records = [
        {"argv": ["kz", "-h"], "stdout": "a", "stderr": "", "exit": 0, "columns": "20"},
        {"argv": ["swap", "--z", "1"], "stdout": "b", "stderr": "", "exit": 0, "columns": "80"},
    ]
    assert byte_identity.first_difference(records, [dict(r) for r in records]) is None
    changed = [dict(r) for r in records]
    changed[1]["stdout"] = "c"
    assert byte_identity.first_difference(records, changed) == (
        "COLUMNS=80 hesim swap --z 1: stdout differ"
    )
