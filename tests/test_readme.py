"""README.md against the code.

Every ``python -m meshwalk.cli ... # exit N`` line exits N, and the split and
pack sizes it states follow ``ensemble._CHUNK``.
"""

import re
import shlex
from pathlib import Path

import pytest

from meshwalk import ensemble
from meshwalk.cli import main
from meshwalk.programs import SCREEN_POLICY

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


def test_readme_split_and_pack_sizes_follow_the_chunk(capsys):
    # A level is split into ranges of at least four chunks, and a pack holds
    # up to one chunk: the README and the --workers help state these sizes.
    text = " ".join(README.read_text().split())
    assert f"ranges of at least {4 * ensemble._CHUNK}" in text
    assert f"up to {ensemble._CHUNK} realizations" in text
    with pytest.raises(SystemExit):
        main(["walk", "--help"])
    assert f"ranges of at least {4 * ensemble._CHUNK};" in " ".join(capsys.readouterr().out.split())


def test_readme_names_the_document_format():
    # A change of the document format names itself in the README too.
    assert f"`{ensemble.DOCUMENT_FORMAT}`" in README.read_text()


def test_readme_quotes_the_screen_policy():
    # The screen policy every plan names, which a change of the composition
    # or of the screens' layout changes, is quoted in the README as it is.
    assert f"`{SCREEN_POLICY}`" in README.read_text()
