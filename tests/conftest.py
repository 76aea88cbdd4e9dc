import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # expose tests/oracles.py

from meshwalk import HADAMARD, INPUT_SPLITTER, MeshSpec, RbsSetting, cell_unitary, ensemble
from meshwalk.lattice import evolve


@pytest.fixture
def spec14() -> MeshSpec:
    return MeshSpec()


@pytest.fixture
def qw_program(spec14):
    return walk_program(spec14)


@pytest.fixture
def level_tasks(monkeypatch) -> list[int]:
    """Indices of the levels run, in order, by runs with one worker."""
    levels = []
    task = ensemble._level_task
    monkeypatch.setattr(ensemble, "_level_task",
                        lambda args: levels.append(args[3]) or task(args))
    return levels


# A test program is a pair (settings, screens): settings[t - 1] lists the cells
# of layer t top to bottom, and screens is (num_modes, depth), in radians.


def walk_program(spec: MeshSpec):
    """The symmetric walk as a program: the input splitter, then Hadamards, zero screens."""
    settings = [[INPUT_SPLITTER if t == 1 else HADAMARD] * t for t in range(1, spec.depth + 1)]
    return settings, np.zeros((spec.num_modes, spec.depth))


def random_program(spec: MeshSpec, rng: np.random.Generator):
    """Uniformly random cell settings and phase screens."""
    settings = [[RbsSetting(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
                 for _ in range(t)] for t in range(1, spec.depth + 1)]
    screens = rng.uniform(-np.pi, np.pi, (spec.num_modes, spec.depth))
    return settings, screens


def cell_matrices(settings) -> list[np.ndarray]:
    """The kernel's stacked cell unitaries of a program's settings."""
    return [np.stack([cell_unitary(s) for s in layer]) for layer in settings]


def propagate(spec: MeshSpec, settings, screens, up_to_layer: int | None = None) -> np.ndarray:
    """One walker from ``spec.injection_mode`` through layers 1..``up_to_layer``.

    Runs the package's kernel, ``lattice.evolve``, as a batch of one.
    Returns the complex state after the last layer (default: full depth).
    """
    last = spec.depth if up_to_layer is None else up_to_layer
    phases = np.asarray(screens, dtype=float).T[:, :, None]
    for _, state in evolve(spec, cell_matrices(settings), phases, last):
        pass
    return state[:, 0]


def mod_wrap(x):
    """The angle wrap written out with numpy's mod on every element."""
    return np.pi - np.mod(np.pi - x, 2 * np.pi)


def bits(values) -> np.ndarray:
    """Float64 values as their bit patterns, so -0.0 and +0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64)
