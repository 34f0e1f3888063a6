"""The README's command-line session runs as written."""

import re
import shlex
from pathlib import Path

from agentaccel.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands() -> list[list[str]]:
    """The arguments of every `agentaccel` line in the README's `sh` blocks, in order.

    Backslash-continued lines are joined first, and `#` starts a comment.
    """
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["agentaccel"]:
                commands.append(argv[1:])
    return commands


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("AGENTACCEL_CACHE_DIR", raising=False)
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"fixtures", "build-plan", "precompute-cache", "run", "simulate", "report"}
    assert any("--emit" in argv for argv in commands)
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "fx" / "queries" / "q0000.json").is_file()
