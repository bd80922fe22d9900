"""The tier-1 workflow's summary scripts run cleanly outside GitHub.

Three steps of ``.github/workflows/tier1.yml`` feed the run's summary from
an inline ``python - >> "$GITHUB_STEP_SUMMARY" <<'EOF'`` script: the code
lines and tolerance constants, the public names and the CLI, and the
import time of ``hesim.cli``, from bytecode and compiled from source. Each
is read off the workflow as plain text (no YAML parser is installed in CI),
run from the repository root with ``PYTHONPATH=src``, and its summary lines
are checked for their shape.
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
                    r"numpy loaded: False; dataclasses loaded: False; inspect loaded: False",
                    r"import hesim\.cli compiled from source: \d+\.\d ms, best of 5 fresh "
                    r"interpreters with -B and no hesim bytecode"],
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
