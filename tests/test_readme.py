"""Every ``python -m meshwalk.cli ... # exit N`` line of README.md exits N."""

import re
import shlex
from pathlib import Path

from meshwalk.cli import main

README = Path(__file__).parents[1] / "README.md"
COMMAND = re.compile(r"^\s*python -m meshwalk\.cli (.*?)\s+# exit (\d+)\s*$")


def test_readme_commands_exit_as_documented(tmp_path, monkeypatch):
    # The lines run in order from one directory, as a reader runs them from
    # the repository root: `fit` reads the documents earlier lines wrote.
    monkeypatch.setenv("MESHWALK_OUT_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    lines = [m.groups() for m in map(COMMAND.match, README.read_text().splitlines()) if m]
    assert lines
    for argv, code in lines:
        assert main(shlex.split(argv)) == int(code), argv
