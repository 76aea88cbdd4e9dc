import contextlib
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # expose tests/oracles.py

from meshwalk import ensemble
from meshwalk.lattice import (HADAMARD, INPUT_SPLITTER, MeshSpec, RbsSetting, cell_unitary, evolve,
                              packed_layout)


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


def pack(spec: MeshSpec, screens: np.ndarray) -> np.ndarray:
    """(num_modes, depth, ...) screens as the kernel's cone-packed phases.

    Screen t's live rows of column t, placed by ``lattice.packed_layout``:
    a C-contiguous (live cells, ...) array.  Every other cell is dropped, and
    so is the last column: no screen follows the mesh's last layer, and a
    one-layer mesh packs to no rows.
    """
    return np.concatenate([screens[:0, 0], *(screens[start:stop, t] for t, (_, start, stop)
                                             in enumerate(packed_layout(spec)))])


def unpack(spec: MeshSpec, phases: np.ndarray) -> np.ndarray:
    """Cone-packed phases as (num_modes, depth, ...) screens, 0.0 on every other cell.

    The last column, the layer no screen follows, is 0.0 throughout.
    """
    layout = packed_layout(spec)
    assert len(phases) == sum(stop - start for _, start, stop in layout)
    screens = np.zeros((spec.num_modes, spec.depth) + phases.shape[1:])
    for t, (offset, start, stop) in enumerate(layout):
        screens[start:stop, t] = phases[offset:offset + stop - start]
    return screens


def propagate(spec: MeshSpec, settings, screens, up_to_layer: int | None = None) -> np.ndarray:
    """One walker from ``spec.injection_mode`` through layers 1..``up_to_layer``.

    Runs the package's kernel, ``lattice.evolve``, as a batch of one, on the
    (num_modes, depth) screens' live cells (:func:`pack`); the others cannot
    move an amplitude, and the last column, which no screen of the kernel
    takes, moves no intensity.  Returns the complex state after the last
    layer (default: full depth).
    """
    last = spec.depth if up_to_layer is None else up_to_layer
    phases = pack(spec, np.asarray(screens, dtype=float)[:, :, None])
    for _, state in evolve(spec, cell_matrices(settings), phases, last):
        pass
    return state[:, 0]


def bits(values) -> np.ndarray:
    """Float64 values as their bit patterns, so -0.0 and +0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64)


def split_fields(spec: MeshSpec, fields: np.ndarray):
    """A (cells, count) draw as static (count, num_modes) and dynamic (count, num_modes, depth).

    The dynamic cells outside the screens' packed layout read 0.0, the last
    layer's among them.
    """
    m = spec.num_modes
    return fields[:m].T, unpack(spec, fields[m:]).transpose(2, 0, 1)


def join_fields(spec: MeshSpec, static: np.ndarray, dynamic: np.ndarray) -> np.ndarray:
    """Static (count, num_modes) and dynamic (count, num_modes, depth) fields as one draw.

    The draw is (cells, count), as ``programs.draw_block`` returns it.
    """
    return np.concatenate([static.T, pack(spec, dynamic.transpose(1, 2, 0))])


@contextlib.contextmanager
def recorded_draws(monkeypatch, fail_at=None):
    """Record every ``random`` call made through numpy's Generator while inside.

    Yields the list of calls, each ``(words before, row address, words
    after)`` of the bit generator's state; call ``fail_at`` raises
    KeyboardInterrupt in place of drawing.
    """
    calls = []

    class Recording(np.random.Generator):
        def random(self, size=None, dtype=np.float64, out=None):
            if len(calls) == fail_at:
                raise KeyboardInterrupt
            before = self.bit_generator.state["state"]
            drawn = super().random(size, dtype, out)
            calls.append((before, out.ctypes.data, self.bit_generator.state["state"]))
            return drawn

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "Generator", Recording)
        yield calls
