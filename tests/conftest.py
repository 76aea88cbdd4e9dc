import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # expose tests/oracles.py

from meshwalk import MeshProgram, MeshSpec, RbsSetting, build_symmetric_qw, ensemble


@pytest.fixture
def spec14() -> MeshSpec:
    return MeshSpec()


@pytest.fixture
def qw_program(spec14) -> MeshProgram:
    return build_symmetric_qw(spec14)


@pytest.fixture
def level_tasks(monkeypatch) -> list[int]:
    """Indices of the levels run, in order, by runs with one worker."""
    levels = []
    task = ensemble._level_task
    monkeypatch.setattr(ensemble, "_level_task",
                        lambda args: levels.append(args[3]) or task(args))
    return levels


def random_program(spec: MeshSpec, rng: np.random.Generator) -> MeshProgram:
    """Uniformly random cell settings and phase screens."""
    settings = {
        cell: RbsSetting(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
        for cell in spec.cells
    }
    screens = rng.uniform(-np.pi, np.pi, (spec.num_modes, spec.depth))
    return MeshProgram(settings, screens)


def mod_wrap(x):
    """The angle wrap written out with numpy's mod on every element."""
    return np.pi - np.mod(np.pi - x, 2 * np.pi)


def bits(values) -> np.ndarray:
    """Float64 values as their bit patterns, so -0.0 and +0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64)
