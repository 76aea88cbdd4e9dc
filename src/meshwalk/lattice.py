"""Beamsplitter-mesh geometry and the batched propagation kernel.

The mesh is a staggered lattice of 4-port reconfigurable beamsplitter (RBS)
cells.  Layer ``t`` (1-based) of the light cone reachable from a central
injection contains exactly ``t`` cells; a walker leaving the top port of a
cell enters the bottom port of a cell in the next layer.  Each cell applies
an SU(2) rotation parametrized by an internal differential phase ``theta``
(splitting ratio) and an external differential phase ``phi``; between cell
layers a per-mode phase screen acts on every waveguide.

:func:`evolve` is the one propagation kernel: it pushes a batch of walkers
through the cone layer by layer, in a mode-major (num_modes, walkers)
complex state.  At layer ``t`` only the live rows, the cone's ``2t`` modes
plus the injection mode, can carry amplitude, so the phase screen's factors
are computed and applied there alone; the rows outside stay exactly zero.
The disorder ensembles run it over thousands of realizations at once.  The
kernel's phases are one float array laid out (depth, num_modes, walkers), so
a layer's live rows are one block of memory:
:func:`~meshwalk.programs.compose_screens` writes a chunk's phases so,
:func:`evolve` reads them as given, and a read layer's intensities reach the
reduction as (num_modes, walkers).

A single walker's state is a complex vector of length ``num_modes`` (unit
norm in this lossless model); intensity distributions are the squared
magnitudes.  Mode and layer indices are 1-based throughout, matching the
usual labeling of waveguides on chip schematics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_angle(x, out=None):
    """Wrap an angle (scalar or array) to the interval (-pi, pi].

    The value is ``pi - mod(pi - x, 2 pi)`` bit for bit; ``out`` (which may
    be ``x`` itself) receives an array result.  When every ``y = pi - x``
    lies in [-pi, 3 pi], the mod is one conditional step of 2 pi: ``y - 2 pi``
    is exact there (Sterbenz), and numpy's mod of a negative ``y`` is
    ``y + 2 pi``.  A zero ``y`` may keep its sign where the mod gives +0, which
    ``pi - y`` does not see.  Other arrays, and scalars, take ``np.mod``.
    """
    y = np.subtract(np.pi, x, out=out)
    if not isinstance(y, np.ndarray):
        return np.pi - np.mod(y, TWO_PI)
    if y.size and -np.pi <= y.min() and y.max() <= 3 * np.pi:
        np.subtract(y, TWO_PI, out=y, where=y >= TWO_PI)
        np.add(y, TWO_PI, out=y, where=y < 0)
    else:
        np.mod(y, TWO_PI, out=y)
    return np.subtract(np.pi, y, out=y)


@dataclass(frozen=True)
class RbsSetting:
    """Differential phases of one RBS cell, stored wrapped to (-pi, pi]."""

    theta: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(wrap_angle(self.theta)))
        object.__setattr__(self, "phi", float(wrap_angle(self.phi)))


# The walk's two cell settings: the layer-1 input splitter, Hadamards after it.
HADAMARD = RbsSetting(np.pi / 2, 0.0)  # 50/50 with the Hadamard phase pattern
INPUT_SPLITTER = RbsSetting(np.pi / 2, np.pi / 2)


@dataclass(frozen=True)
class MeshSpec:
    """Geometry of the centered light cone.

    ``num_modes`` waveguides, ``depth`` cell layers, injection on the bottom
    port of the single layer-1 cell by default.  Layer ``t`` couples the
    contiguous pairs starting at mode ``num_modes/2 - t + 1``, so the cone
    spans all modes at ``t = num_modes/2``.  Requires an even mode count and
    ``num_modes >= 2 * depth`` so the cone never clips the array edge.
    """

    num_modes: int = 14
    depth: int = 7
    injection_mode: int = 0  # 0 means "default": bottom port of the input cell

    def __post_init__(self):
        if self.num_modes < 2 or self.num_modes % 2:
            raise ValueError(f"num_modes must be even and >= 2, got {self.num_modes}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.num_modes < 2 * self.depth:
            raise ValueError(
                f"centered cone needs num_modes >= 2*depth, got {self.num_modes} < {2 * self.depth}"
            )
        if self.injection_mode == 0:
            object.__setattr__(self, "injection_mode", self.num_modes // 2 + 1)
        if not 1 <= self.injection_mode <= self.num_modes:
            raise ValueError(f"injection_mode {self.injection_mode} outside [1, {self.num_modes}]")


def cell_unitary(setting: RbsSetting) -> np.ndarray:
    """2x2 SU(2) matrix of one RBS cell.

    Half-angle convention: (pi, 0) is a bar-state wire, (pi/2, 0) is exactly
    the Hadamard gate, and (pi/2, pi/2) splits a bottom-port input into
    (|top> + i|bottom>)/sqrt(2) up to a global phase.
    """
    s = np.sin(setting.theta / 2.0)
    c = np.cos(setting.theta / 2.0)
    e = np.exp(1j * setting.phi)
    return np.array([[e * s, e * c], [c, -s]], dtype=complex)


def intensities(state: np.ndarray) -> np.ndarray:
    """Per-mode output intensities |a_x|^2."""
    state = np.asarray(state)
    return state.real**2 + state.imag**2


def evolve(spec: MeshSpec, mats: list[np.ndarray], phases: np.ndarray, last: int):
    """Propagate a batch of walkers through layers 1..``last``.

    Every walker starts in ``spec.injection_mode``.  ``mats`` holds each
    layer's stacked cell unitaries, top to bottom, and ``phases``
    the total phase of every walker in the kernel's layout.  Each layer
    applies its cells, then its phase screen, and yields ``(t, state)``:
    ``state`` is the mode-major (num_modes, walkers) amplitude array, which
    the next layer updates in place, so read it before resuming.

    Only the live rows of layer ``t`` can hold amplitude: its cells' modes
    plus the injection mode, as one 0-based range ``[min(m/2 - t, inj),
    max(m/2 + t, inj + 1))``.  Phase factors are computed and applied there
    alone; every other row stays exactly +0.  The phases' shape is checked
    when ``evolve`` is called, before the first layer is asked for.
    """
    m = spec.num_modes
    if phases.ndim != 3 or phases.shape[:2] != (spec.depth, m):
        raise ValueError(f"phases shaped {phases.shape}, expected ({spec.depth}, {m}, walkers)")
    return _layers(spec, mats, phases, last)


def _layers(spec: MeshSpec, mats: list[np.ndarray], phases: np.ndarray, last: int):
    """The layers of :func:`evolve`, for phases already checked."""
    m = spec.num_modes
    count = phases.shape[2]
    factor = np.empty((m, count), dtype=complex)

    inject = spec.injection_mode - 1
    state = np.zeros((m, count), dtype=complex)
    state[inject] = 1.0
    for t in range(1, last + 1):
        start = m // 2 - t  # 0-based top mode of the layer's first cell
        cells = mats[t - 1]
        for k in range(t):
            i = start + 2 * k
            u = cells[k]
            top = u[0, 0] * state[i] + u[0, 1] * state[i + 1]
            state[i + 1] = u[1, 0] * state[i] + u[1, 1] * state[i + 1]
            state[i] = top
        live = slice(min(start, inject), max(m // 2 + t, inject + 1))
        np.cos(phases[t - 1, live], out=factor.real[live])
        np.sin(phases[t - 1, live], out=factor.imag[live])
        state[live] *= factor[live]
        yield t, state
