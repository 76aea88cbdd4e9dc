import ctypes
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # expose tests/oracles.py

from meshwalk import HADAMARD, INPUT_SPLITTER, MeshSpec, RbsSetting, cell_unitary, ensemble
from meshwalk.lattice import evolve


def subprocess_env(out_dir=None) -> dict[str, str]:
    """``os.environ`` with this package's ``src`` leading ``PYTHONPATH``, and an output directory.

    ``out_dir``, if given, becomes ``MESHWALK_OUT_DIR``.
    """
    path = os.pathsep.join(filter(None, [str(Path(ensemble.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    if out_dir is not None:
        env["MESHWALK_OUT_DIR"] = str(out_dir)
    return env


# The CPUs this process may run on, as run_sweep counts them: a pool needs two.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def fake_cpus(monkeypatch, count: int) -> None:
    """Make ``count`` CPUs the ones this process may run on, as ``run_sweep`` counts them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def spec14() -> MeshSpec:
    return MeshSpec()


@pytest.fixture
def qw_program(spec14):
    return walk_program(spec14)


@pytest.fixture
def level_tasks(monkeypatch) -> list[int]:
    """Indices of the levels run, in order, by runs with one worker.

    A task may run a pack of several levels: each level it returns counts.
    """
    levels = []
    task = ensemble._level_task

    def recording(args):
        done = task(args)
        levels.extend(idx for idx, _ in done)
        return done

    monkeypatch.setattr(ensemble, "_level_task", recording)
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


class LaidOutPCG64:
    """A stand-in for ``PCG64`` whose state struct keeps its words in a given layout.

    Word ``k`` of the 32-byte struct holds column ``layout[k]`` of
    (state high, state low, inc high, inc low), or 0 where it is ``None``;
    ``ctypes.state_address`` points at a pointer to it, as numpy's does.
    """

    def __init__(self, layout):
        self.layout = layout
        self.words = (ctypes.c_uint64 * 4)()
        self._pointer = ctypes.c_void_p(ctypes.addressof(self.words))
        self.ctypes = SimpleNamespace(state_address=ctypes.addressof(self._pointer))

    @property
    def state(self):
        raise NotImplementedError

    @state.setter
    def state(self, value):
        state, inc = value["state"]["state"], value["state"]["inc"]
        columns = (state >> 64, state & (1 << 64) - 1, inc >> 64, inc & (1 << 64) - 1)
        for k, column in enumerate(self.layout):
            self.words[k] = 0 if column is None else columns[column]
