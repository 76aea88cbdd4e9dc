"""Beamsplitter-mesh geometry and the batched propagation kernel.

The mesh is a staggered lattice of 4-port reconfigurable beamsplitter (RBS)
cells.  Layer ``t`` (1-based) of the light cone reachable from a central
injection contains exactly ``t`` cells; a walker leaving the top port of a
cell enters the bottom port of a cell in the next layer.  Each cell applies
an SU(2) rotation parametrized by an internal differential phase ``theta``
(splitting ratio) and an external differential phase ``phi``; between cell
layers a per-mode phase screen acts on every waveguide.  A depth-``d`` mesh
has ``d - 1`` screens, one after each layer but the last
(:func:`packed_layout`): the walk is read from output intensities, and a
phase after the last layer reaches none of them (Schreiber et al., PRL 106,
180403 (2011)).

:func:`evolve` is the one propagation kernel: it pushes a batch of walkers
through the cone layer by layer, in a mode-major (num_modes, walkers)
complex state.  At layer ``t`` only the live rows (:func:`live_rows`), the
cone's ``2t`` modes plus the injection mode, can carry amplitude, so the
phase screen's factors are computed and applied there alone; the rows
outside stay exactly zero.  The disorder ensembles run it over thousands of
realizations at once.  The kernel's phases are cone-packed: one float array
of (sum of every screen's live rows, walkers), screen 1's live rows first,
then screen 2's, each screen's rows one block of memory, at the offsets
:func:`packed_layout` gives.  :func:`~meshwalk.programs.compose_screens`
writes a chunk's phases so, and :func:`evolve` reads them as given.  The
intensities are not packed that way: a read layer's live rows reach the
reduction as (live rows, walkers), a stack holds one read layer's live rows
of each of its levels, and a split level's shared mapping holds that level's
read layers' stacks back to back (:mod:`~meshwalk.ensemble`).

A single walker's state is a complex vector of length ``num_modes`` (unit
norm in this lossless model); intensity distributions are the squared
magnitudes.  Mode and layer indices are 1-based throughout, matching the
usual labeling of waveguides on chip schematics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RbsSetting:
    """Differential phases of one RBS cell, stored as given.

    A phase enters only through its sine, cosine and exponential, so any
    real value is a setting; the walk's two lie in (-pi, pi].
    """

    theta: float
    phi: float


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


def live_rows(spec: MeshSpec, t: int) -> tuple[int, int]:
    """The 0-based rows ``[start, stop)`` of layer ``t`` that can carry amplitude.

    Layer ``t``'s cells couple modes ``m/2 - t`` to ``m/2 + t - 1`` (0-based),
    and the injection mode keeps its amplitude where no cell has reached it
    yet, so the range is ``[min(m/2 - t, inj), max(m/2 + t, inj + 1))``.
    Every row outside it is exactly zero after layer ``t``.  Layer ``t``'s
    phase screen, if it has one, acts on these rows, at its
    :func:`packed_layout` place, and a stack of read layer ``t``'s
    intensities holds these rows alone, in order.
    """
    m, inject = spec.num_modes, spec.injection_mode - 1
    return min(m // 2 - t, inject), max(m // 2 + t, inject + 1)


def packed_layout(spec: MeshSpec) -> list[tuple[int, int, int]]:
    """Each phase screen's cone-packed ``(offset, start, stop)``, screen ``t`` at ``t - 1``.

    Screen ``t`` acts after layer ``t`` on its :func:`live_rows` ``[start,
    stop)``, at packed rows ``offset`` to ``offset + stop - start``, right
    after screen ``t - 1``'s.  A depth-``d`` mesh has the screens of layers
    1..``d - 1``: no screen follows the last layer, since a phase there leaves
    every output intensity as it is, and a one-layer mesh has none.  It is the
    one statement of which screens exist and of their packing order.
    """
    layout, offset = [], 0
    for t in range(1, spec.depth):
        start, stop = live_rows(spec, t)
        layout.append((offset, start, stop))
        offset += stop - start
    return layout


def evolve(spec: MeshSpec, mats: list[np.ndarray], phases: np.ndarray, last: int):
    """Propagate a batch of walkers through layers 1..``last``.

    Every walker starts in ``spec.injection_mode``.  ``mats`` holds each
    layer's stacked cell unitaries, top to bottom, and ``phases`` the total
    phase of every walker at every live (mode, layer) cell of a screen,
    cone-packed: (sum over screens of their :func:`live_rows`, walkers), laid
    out by :func:`packed_layout`.
    Each layer applies its cells, then its phase screen, if it has one (every
    layer but the mesh's last), and yields ``(t, state)``: ``state`` is the
    mode-major (num_modes, walkers) amplitude array, which the next layer
    updates in place, so read it before resuming.  Phase factors are computed
    and applied on the live rows alone; every other row stays exactly +0.
    The phases' shape is checked when ``evolve`` is called, before the first
    layer is asked for: phases that also hold the last layer's rows are
    refused, not read in part.
    """
    screens = packed_layout(spec)
    rows = sum(stop - start for _, start, stop in screens)
    if phases.ndim != 2 or phases.shape[0] != rows:
        raise ValueError(f"phases shaped {phases.shape}, expected ({rows}, walkers)")
    return _layers(spec, mats, phases, screens, last)


def _layers(spec: MeshSpec, mats: list[np.ndarray], phases: np.ndarray, screens: list,
            last: int):
    """The layers 1..``last`` of :func:`evolve`, for phases already checked."""
    m = spec.num_modes
    count = phases.shape[1]
    factor = np.empty((m, count), dtype=complex)

    state = np.zeros((m, count), dtype=complex)
    state[spec.injection_mode - 1] = 1.0
    for t in range(1, last + 1):
        first = m // 2 - t  # 0-based top mode of the layer's first cell
        cells = mats[t - 1]
        for k in range(t):
            i = first + 2 * k
            u = cells[k]
            top = u[0, 0] * state[i] + u[0, 1] * state[i + 1]
            state[i + 1] = u[1, 0] * state[i] + u[1, 1] * state[i + 1]
            state[i] = top
        if t <= len(screens):
            offset, start, stop = screens[t - 1]
            rows = phases[offset:offset + stop - start]
            live = factor[:stop - start]
            np.cos(rows, out=live.real)
            np.sin(rows, out=live.imag)
            state[start:stop] *= live
        yield t, state
