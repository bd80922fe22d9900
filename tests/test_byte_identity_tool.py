"""``tools/byte_identity.py``: its corpus, the changes it expects and its comparison of two runs."""

import importlib.util
import json
import re
import shutil
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


def test_corpus_takes_the_golden_argv_it_is_given():
    golden = '{"argv": ["kz", "-h"]}\n{"argv": ["chsh", "--z", "1"]}\n'
    argvs = byte_identity.corpus(1, golden)
    assert argvs[-2:] == [["kz", "-h"], ["chsh", "--z", "1"]]
    assert len(argvs) == 3 * len(byte_identity.SEEDS) + 2


def _record(argv, stdout, stderr="", code=0):
    return {"argv": argv, "stdout": stdout, "stderr": stderr, "exit": code, "columns": "80"}


def _line(argv, stdout="", stderr="", code=0):
    return json.dumps({"argv": argv, "stdout": stdout, "stderr": stderr, "exit": code})


def test_expected_subcommands_may_differ_and_others_may_not():
    base = [_record(["entropy", "hes:phi+:z=1"], '{"entropy_bits": 1.0}'),
            _record(["chsh", "--z", "1"], '{"gap": 0.0}')]
    change = [_record(["entropy", "hes:phi+:z=1"], '{"entropy_bits": 0.9999999999999998}'),
              dict(base[1])]
    expected = frozenset({"entropy", "swap"})
    assert byte_identity.first_difference(base, change, expected) is None
    assert byte_identity.first_difference(base, change) == (
        "COLUMNS=80 hesim entropy hes:phi+:z=1: stdout differ"
    )
    change[1] = _record(["chsh", "--z", "1"], '{"gap": 1e-16}')
    assert byte_identity.first_difference(base, change, expected) == (
        "COLUMNS=80 hesim chsh --z 1: stdout differ"
    )


def test_changes_list_the_largest_difference_per_key_or_column():
    old = '{"fidelity_min": 1.0, "outcomes": {"Phi+": {"entropy_max": 1.0}}, "dim": 20, "s": [0.5, 1e-17]}'
    new = '{"fidelity_min": 1.0000000000000004, "outcomes": {"Phi+": {"entropy_max": 1.0}}, "dim": 20, "s": [0.5, 0.0]}'
    assert byte_identity.numeric_differences(old, new) == {
        "fidelity_min": 1.0000000000000004 - 1.0, "s": 1e-17,
    }
    assert byte_identity.numeric_differences('{"label": "a"}', '{"label": "b"}') == {
        "label": "changed"
    }
    csv_old = "z,K_series,K_matrix\n1.0,0.5,0.5\n2.0,0.25,0.25\n"
    csv_new = "z,K_series,K_matrix\n1.0,0.5,0.5000000000000001\n2.0,0.25,0.2500000000000001\n"
    diffs = byte_identity.numeric_differences(csv_old, csv_new)
    assert set(diffs) == {"K_matrix"} and diffs["K_matrix"] == 0.2500000000000001 - 0.25


def test_each_changed_command_is_listed_once():
    base = [_record(["swap", "--z", "1"], '{"fidelity_min": 1.0}'),
            _record(["swap", "--z", "2"], '{"fidelity_min": 1.0}'),
            _record(["entropy", "x"], "", "error: a\n", 1)]
    change = [_record(["swap", "--z", "1"], '{"fidelity_min": 0.9999999999999998}'),
              dict(base[1]),
              _record(["entropy", "x"], "", "error: b\n", 1)]
    lines = byte_identity.expected_changes(base, change, frozenset({"swap", "entropy"}))
    assert lines == [
        f"COLUMNS=80 hesim swap --z 1: fidelity_min {1.0 - 0.9999999999999998:.3g}",
        "COLUMNS=80 hesim entropy x: stderr or exit differ",
    ]


def test_a_differing_record_without_argv_is_a_difference():
    base = [_record([], "", "usage: hesim\n", 2)]
    change = [_record([], "", "usage: hesim [-h]\n", 2)]
    assert byte_identity.first_difference(base, change, frozenset({"chsh"})) == (
        "COLUMNS=80 hesim : stderr differ"
    )
    assert byte_identity.expected_changes(base, change, frozenset({"chsh"})) == []


def test_expectation_is_read_off_the_golden_files():
    base = "\n".join([_line(["kz", "a"], "x"), _line(["chsh", "b"], "", "error: a\n", 1),
                      _line(["chsh", "c"], "", "error: a\n", 1), _line(["swap", "d"], "y"),
                      _line(["entropy", "e"], "z"), _line([], "", "usage\n", 2)])
    golden = "\n".join([_line(["kz", "a"], "x"),  # kept
                        _line(["chsh", "b"], "", "error: b\n", 1),  # stderr re-recorded
                        _line(["chsh", "c"], "", "error: b\n", 2),  # exit changed
                        _line(["swap", "d"], "w"),  # stdout changed
                        _line(["teleport", "f"], "v")])  # added; entropy and [] dropped
    expected = byte_identity.golden_expectation(base, golden)
    assert expected == {("chsh", "b"), "chsh", "swap", "entropy", ()}
    only_b = byte_identity.golden_expectation(base, golden.replace('"exit": 2', '"exit": 1'))
    assert only_b == {("chsh", "b"), ("chsh", "c"), "swap", "entropy", ()}
    # a re-recorded argv may differ and is listed; the rest of its subcommand may not
    records = [_record(["chsh", "b"], "", "error: a\n", 1), _record(["chsh", "x"], "s")]
    changed = [_record(["chsh", "b"], "", "error: b\n", 1), _record(["chsh", "x"], "t")]
    argv_only = frozenset({("chsh", "b")})
    assert byte_identity.first_difference(records, changed, argv_only) == (
        "COLUMNS=80 hesim chsh x: stdout differ"
    )
    assert byte_identity.expected_changes(records, changed, argv_only) == [
        "COLUMNS=80 hesim chsh b: stderr or exit differ"
    ]


def test_a_stderr_only_rerecord_expects_its_argv_and_no_subcommand():
    # 29e8192 -> fe71a30 cut "or raise the tolerance" from six TruncationError lines
    path = byte_identity.GOLDEN.relative_to(ROOT).as_posix()
    expected = byte_identity.golden_expectation(byte_identity.git_show("29e8192", path),
                                                byte_identity.git_show("fe71a30", path))
    assert sorted(expected) == sorted([
        ("kz", "--zmin", "0", "--zmax", "3", "--steps", "3", "--dim", "8"),
        ("chsh", "--z", "2", "--dim", "6"),
        ("teleport", "parity", "--alpha", "1", "--beta", "0", "--z", "2", "--dim", "8"),
        ("swap", "--z", "2", "--zprime", "1", "--dim", "6"),
        ("entropy", "product:z=0.5", "--dim", "8"),
        ("entropy", "hes:phi+:z=2", "--dim", "6"),
    ])


def test_a_base_is_recorded_whatever_private_names_the_tests_import(tmp_path):
    # a base that lacks a private name the tests import, as a change's tests may
    # import one that the change adds, still records: the recorder imports hesim.cli.main only
    oracles = (ROOT / "tests" / "oracles.py").read_text(encoding="utf-8")
    assert re.search(r"^from hesim\.fock import .*\b_combined_residual\b", oracles, re.MULTILINE)
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    fock = src / "hesim" / "fock.py"
    renamed = re.sub(r"\b_combined_residual\b", "_product_residual",
                     fock.read_text(encoding="utf-8"))
    fock.write_text(renamed, encoding="utf-8")
    argvs = [["teleport", "spin", "--alpha", "0.6", "--beta", "0.8", "--z", "1", "--trials", "4"],
             ["entropy", "hes:psi-:z=1"], ["kz", "-h"]]
    base = byte_identity.reports(src, argvs)
    assert [r["exit"] for r in base] == [0, 0, 0] * len(byte_identity.COLUMNS)
    assert base == byte_identity.reports(ROOT / "src", argvs)
