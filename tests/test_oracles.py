"""The oracles stay independent of the code they check.

``tests/oracles.py`` may take the cell matrices from the package, nothing
more: an oracle that ran the kernel, the disorder model or the ensemble would
agree with the code it is meant to check by construction.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")
ALLOWED = {"RbsSetting", "cell_unitary"}


def leaks(source: str) -> list[str]:
    """What ``source`` imports from ``meshwalk`` or the test helpers beyond ``ALLOWED``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            names += [f"{node.module}.{a.name}" for a in node.names]
    return [n for n in names if n.split(".")[0] in ("meshwalk", "conftest")
            and not (n.startswith("meshwalk.") and n.split(".")[-1] in ALLOWED)]


def test_oracles_import_only_cell_settings_from_meshwalk():
    assert leaks(ORACLES.read_text()) == []


def test_every_import_form_is_seen():
    for source in ("import meshwalk", "import meshwalk.lattice as lattice",
                   "from meshwalk import *", "from meshwalk import RbsSetting, evolve",
                   "from meshwalk.ensemble import _layer_matrices",
                   "from conftest import propagate", "def f():\n    import meshwalk.programs"):
        assert leaks(source), source
    assert leaks("import numpy\nfrom meshwalk import RbsSetting, cell_unitary\n"
                 "from meshwalk.lattice import cell_unitary") == []
