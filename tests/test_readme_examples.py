"""The command-line examples of README.md run as documented.

Every ``dualfield`` line of the README's ``sh`` blocks runs three times:
twice through ``dualfield.cli.main`` in this process, which reuses the
parser and the builtin tables between calls, and once as a fresh
``python -m dualfield.cli`` process.  Each run must exit with the code the
line documents (a trailing ``# exit N``, else 0) and print the same
bytes, so a README example that drifts from the program fails here, and
so does any state that one in-process call leaves to the next.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from dualfield.cli import main

ROOT = Path(__file__).resolve().parents[1]
EXIT = re.compile(r"#\s*exit\s+(\d+)\s*$")


def readme_examples():
    text = (ROOT / "README.md").read_text()
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.splitlines():
            if line.startswith("dualfield "):
                documented = EXIT.search(line)
                argv = shlex.split(line, comments=True)[1:]
                examples.append((argv, int(documented.group(1)) if documented else 0))
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples_of_every_command():
    commands = {argv[0] for argv, _ in EXAMPLES}
    assert commands == {"tensor", "convolve", "spectral", "invert", "simulate", "check", "cramer"}


@pytest.mark.parametrize("argv, code", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_example_runs_as_documented(capsys, argv, code):
    outputs = []
    for _ in range(2):
        assert main(list(argv)) == code
        outputs.append(capsys.readouterr().out)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    fresh = subprocess.run(
        [sys.executable, "-m", "dualfield.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, check=False,
    )
    assert fresh.returncode == code, fresh.stderr.decode()
    assert b"Traceback" not in fresh.stderr
    outputs.append(fresh.stdout.decode())
    assert outputs[0] == outputs[1] == outputs[2]
