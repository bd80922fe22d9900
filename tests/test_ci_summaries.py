"""The tier-1 workflow's summary scripts run cleanly outside GitHub.

Three steps of ``.github/workflows/tier1.yml`` feed the run's summary from
an inline ``python - >> "$GITHUB_STEP_SUMMARY" <<'EOF'`` script: the code
lines and tolerance constants, the public names and the CLI, and the
import time of ``hesim.cli``, from bytecode and compiled from source, with
the hesim modules it loads and the time of one command of each subcommand
(the Monte-Carlo ones at 100 trials), none loading numpy. Each
is read off the workflow as plain text (no YAML parser is installed in CI),
run from the repository root with ``PYTHONPATH=src``, and its summary lines
are checked for their shape. The tier-1 step's shell script is read off the
same way and run on a small suite of its own.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
OPENER = """python - >> "$GITHUB_STEP_SUMMARY" <<'EOF'"""

FENCE = r"```"
# each script's summary lines, in order; a pattern marked + may repeat
SHAPES = {
    "code lines": [FENCE, (r" *\d+ src/hesim/\w+\.py", "+"), r" *\d+ code lines",
                   (r" *\d+ tolerances in src/hesim/\w+\.py(: _\w+(, _\w+)*)?", "+"),
                   r" *\d+ tolerance constants",
                   FENCE],
    "public names": [r"hesim\.__all__: \d+ names, \d+ parameters, \d+ with a default",
                     r"hesim CLI: \d+ subcommands, \d+ arguments, \d+ optional flags"],
    "import time": [r"import hesim\.cli: \d+\.\d ms, best of 5 fresh interpreters; "
                    r"numpy loaded: False; dataclasses loaded: False; inspect loaded: False; "
                    r"typing loaded: False; cmath loaded: False; json loaded: False",
                    r"import hesim\.cli loads: hesim, hesim\.cli, hesim\.fock, hesim\.protocols, "
                    r"hesim\.pseudospin",
                    r"import hesim\.cli compiled from source: \d+\.\d ms, best of 5 fresh "
                    r"interpreters with -B and no hesim bytecode",
                    r"hesim teleport spin --alpha 0\.6 --beta 0\.8 --z 1 --trials 100: \d+\.\d ms, "
                    r"best of 5 fresh interpreters; numpy loaded: False",
                    r"hesim swap --z 1 --zprime 1\.2 --trials 100: \d+\.\d ms, best of 5 fresh "
                    r"interpreters; numpy loaded: False",
                    r"hesim kz --zmin 3 --zmax 9 --steps 4: \d+\.\d ms, best of 5 fresh "
                    r"interpreters; numpy loaded: False",
                    r"hesim chsh --z 1: \d+\.\d ms, best of 5 fresh interpreters; "
                    r"numpy loaded: False",
                    r"hesim entropy hes:phi\+:z=1: \d+\.\d ms, best of 5 fresh interpreters; "
                    r"numpy loaded: False"],
}


def summary_scripts() -> list[str]:
    """The body of every summary heredoc in the workflow, dedented, in order."""
    scripts, body = [], None
    for line in WORKFLOW.read_text(encoding="utf-8").splitlines():
        if body is None:
            if line.strip().endswith(OPENER):
                body = []
        elif line.strip() == "EOF":
            scripts.append(textwrap.dedent("\n".join(body)) + "\n")
            body = None
        else:
            body.append(line)
    assert body is None, "a heredoc in the workflow is not closed"
    return scripts


def matches_shape(lines: list[str], shape) -> bool:
    pattern = "".join(
        f"(?:{p[0]}\n)+" if isinstance(p, tuple) else f"{p}\n" for p in shape)
    return re.fullmatch(pattern, "".join(line + "\n" for line in lines)) is not None


def test_the_workflow_has_the_three_summary_scripts():
    assert len(summary_scripts()) == len(SHAPES)


@pytest.mark.parametrize("index, name", list(enumerate(SHAPES)), ids=list(SHAPES))
def test_a_summary_script_exits_cleanly_with_its_lines(index, name):
    env = {**os.environ, "PYTHONPATH": "src"}
    result = subprocess.run([sys.executable, "-"], input=summary_scripts()[index], cwd=ROOT,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert matches_shape(lines, SHAPES[name]), result.stdout


def step_script(name: str) -> str:
    """The ``run: |`` block of the workflow step called name, dedented."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    start = lines.index(f"      - name: {name}")
    run = next(i for i in range(start, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    body = []
    for line in lines[run + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        body.append(line)
    return textwrap.dedent("\n".join(body)) + "\n"


@pytest.mark.parametrize("failing, status, last", [
    (2, 1, r"1 failed, 5 passed in \d+\.\d+s"), (None, 0, r"6 passed in \d+\.\d+s"),
], ids=["a_test_fails", "all_pass"])
def test_the_tier1_step_sums_up_the_five_slowest_tests_then_pytests_last_line(
        failing, status, last, tmp_path):
    # six tests slow enough to be listed: the step exits with pytest's status,
    # and its summary is the five slowest, fenced, then pytest's last line
    (tmp_path / "test_six.py").write_text(
        "import time\nimport pytest\n\n\n@pytest.mark.parametrize('n', range(6))\n"
        f"def test_sleeps(n):\n    time.sleep(0.01 * (n + 1))\n    assert n != {failing}\n")
    summary = tmp_path / "summary.md"
    # no plugin is autoloaded, which saves about a second a run
    env = {**os.environ, "GITHUB_STEP_SUMMARY": str(summary),
           "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
    result = subprocess.run(["bash", "-c", step_script("Run tier-1 tests")], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == status, result.stderr
    lines = summary.read_text(encoding="utf-8").splitlines()
    shape = [FENCE, (r"\d+\.\d\ds call +test_six\.py::test_sleeps\[\d\]", "+"), FENCE, last]
    assert matches_shape(lines, shape) and len(lines) == 5 + 3, lines
