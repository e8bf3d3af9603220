"""The README's examples run as written.

Every ``abgauge`` line of its ``sh`` blocks runs through ``python -m abgauge``
in a scratch directory (globs resolve against the repository root) and must
exit 0; its Python example must print what its last comment line says.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.S | re.M)


def sh_lines(prefix: str) -> list:
    return [line.split("#")[0].strip() for block in blocks("sh")
            for line in block.splitlines() if line.startswith(prefix)]


COMMANDS = sh_lines("abgauge ")
MKDIRS = [d for line in sh_lines("mkdir -p ") for d in shlex.split(line)[2:]]


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def argv(command: str) -> list:
    out = []
    for word in shlex.split(command)[1:]:
        out.extend(sorted(str(p) for p in ROOT.glob(word)) if "*" in word else [word])
    return out


def test_the_readme_lists_the_command_line_examples():
    assert len(COMMANDS) >= 9
    assert any(c.startswith("abgauge run ") for c in COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_sh_example_exits_0(tmp_path, command):
    for d in MKDIRS:
        (tmp_path / d).mkdir(parents=True, exist_ok=True)
    proc = run_python(["-m", "abgauge", *argv(command)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_python_example_prints_its_comment(tmp_path):
    (code,) = blocks("python")
    expected = code.rstrip().splitlines()[-1].removeprefix("# ")
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected
