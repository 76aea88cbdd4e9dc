"""Phase-disorder realizations of the symmetric walk.

The walk's cells are fixed: the input splitter on the layer-1 cell and
Hadamards everywhere else (:func:`~meshwalk.ensemble._layer_matrices`).
Disorder enters only through the phase screens, which it fills alone: a
depth-``d`` mesh has ``d - 1`` of them, after every layer but the last
(:func:`~meshwalk.lattice.packed_layout`), since a phase after the last
layer reaches no output intensity.  A realization draws one uniform phase
per mode (static, constant across screens) and one per (mode, screen)
(dynamic, uncorrelated in space-time), each scaled by its strength
coefficient in [0, 1].  Their sum on each waveguide is applied unwrapped,
with the per-mode sign of :func:`mode_signs`: a phase enters the walk only
as ``exp(i phi)``, so wrapping it into (-pi, pi] would follow a chip's
phase-shifter range and add no physics (Schreiber et al., PRL 106, 180403
(2011)).  :data:`SCREEN_POLICY` names this composition in every plan.

Every realization is a pure function of ``(master_seed, level_index,
realization_index)``.  Level ``i`` has one stream,
``PCG64DXSM(SeedSequence((master_seed, i)))``, cut into one substream per
cell: the substream of cell ``c`` is that stream ``jumped(c)``, which starts
``c`` times numpy's golden-ratio jump (:data:`_JUMP`) into it.  Cell ``c`` is
static mode ``c`` for ``c < num_modes``, and packed row ``c - num_modes`` of
:func:`~meshwalk.lattice.packed_layout` otherwise, one (mode, layer) cell of
the dynamic field; realization ``r``'s value in a cell is draw ``r`` of the
cell's substream.  Only the cells a screen reads are drawn: the static modes
of the last screen's live rows and the packed rows of the screens, those of
layers 1..``d - 1``; the last layer's (mode, layer) rows are never cells.  So a
chunk of realizations is one contiguous run of draws per cell, written
straight into the row of the cell, in the kernel's packed layout, and any
realization range is reached by ``advance`` alone (Salmon et al., SC'11;
O'Neill 2014).  No two cells of any mesh up to 64 modes and 64 layers share
a draw within their first 2**64.

The bytes rest on two documented numpy guarantees: ``PCG64DXSM`` gives the
same stream for a fixed seed across numpy versions, and ``SeedSequence``
hashes a fixed entropy tuple to the same state (NEP 19).

The disorder model is stated once: :func:`draw_block` is the stream layout,
and :func:`compose_screens` the scaling and sign that turn a chunk's drawn
fields into its phase screens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import MeshSpec, packed_layout

#: How the disorder fields are drawn; part of every plan, so of its hash.
GENERATOR_IDENTITY = (
    "numpy.random.PCG64DXSM(SeedSequence((master_seed, level_index))).jumped(cell): "
    "cell c < num_modes is the static field of mode c, cell num_modes + k is packed row k "
    "of the dynamic field (meshwalk.lattice.packed_layout); realization r's uniform(-pi, pi) "
    "in a cell is draw r of the cell's substream, -pi + 2 pi * random()"
)
#: How the drawn fields make the phase screens (compose_screens); part of
#: every plan, so of its hash.
SCREEN_POLICY = "mirrored-sign, unwrapped sum, no screen after the last layer"

# The step of numpy's BitGenerator.jumped for PCG64 and PCG64DXSM, 2**128
# divided by the golden ratio: jumped(c) is advance(c * _JUMP).
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835
_PERIOD = 1 << 128


def mode_signs(num_modes: int) -> np.ndarray:
    """Sign of each mode's applied disorder: -1 on the lower half of the array.

    Modes above ``num_modes/2`` take -1, mimicking hardware that modulates
    the opposite arm there; a center mode of an odd-width array takes +1.

    The mesh is exactly mirror symmetric on the *applied* screens: reversing
    every screen column mirrors the output, realization by realization.  With
    these antisymmetric signs the mirror of a drawn realization is therefore
    its drawn fields reversed *and negated*, and it is exact on the screens:
    :func:`compose_screens` of those fields is the screens reversed, bit for
    bit, since negation and a sign of +-1 round nothing.  The drawn law is
    i.i.d. per mode and symmetric under negation, so disorder-averaged
    distributions are mirror symmetric about the injection pair; the sign
    flip is not what makes them so.
    """
    signs = np.ones(num_modes)
    signs[(num_modes + 1) // 2 :] = -1.0
    return signs


@dataclass(frozen=True)
class DisorderSpec:
    """Strength coefficients for static (c_tid) and dynamic (c_td) disorder."""

    c_tid: float
    c_td: float

    def __post_init__(self):
        for name, value in (("c_tid", self.c_tid), ("c_td", self.c_td)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


def field_cells(spec: MeshSpec) -> int:
    """The number of cells of ``spec``'s mesh: its modes, then its screens' packed rows.

    The screens are those of layers 1..``d - 1``
    (:func:`~meshwalk.lattice.packed_layout`); a one-layer mesh has its modes
    alone, none of which is drawn.
    """
    return spec.num_modes + sum(stop - start for _, start, stop in packed_layout(spec))


def draw_block(master_seed: int, level_index, lo: int, hi: int, spec: MeshSpec) -> np.ndarray:
    """Unscaled uniform(-pi, pi) fields of realizations lo..hi-1: the stream layout.

    ``level_index`` is one level or a sequence of levels.  Returns a
    C-contiguous (:func:`field_cells`, levels * (hi - lo)) array: row ``c``
    is cell ``c`` of ``GENERATOR_IDENTITY``, the static field of each mode
    and then the dynamic field in :func:`~meshwalk.lattice.packed_layout`
    order, and the columns are level-major, each level's realizations
    lo..hi-1 in turn.  Only the cells that a screen reads are drawn: the
    static rows of modes outside the last screen's
    :func:`~meshwalk.lattice.live_rows` hold 0.0, every static row does in a
    one-layer mesh, and the last layer's (mode, layer) rows are not cells.
    Which cells are drawn depends on the mesh alone, not on the layers a plan
    reads.

    Each level's stream is seeded once and advanced to draw ``lo`` of its
    first drawn cell; each drawn cell's run of draws is written into its row
    by one ``random`` call, and the stream is then advanced to the next
    drawn cell's draw ``lo``.  ``-pi + 2 pi * u`` is applied over the drawn
    rows afterwards, as ``low + (high - low) * u`` in that order, so every
    value equals ``uniform(-pi, pi)`` of its draw bit for bit.
    """
    levels = [level_index] if np.ndim(level_index) == 0 else list(level_index)
    if not 0 <= lo <= hi <= 1 << 64:
        raise ValueError(f"realization range [{lo}, {hi}) not within [0, 2**64)")
    m, count, n_cells = spec.num_modes, hi - lo, field_cells(spec)
    # The last screen's live rows hold every earlier screen's.
    screens = packed_layout(spec)
    _, first, last = screens[-1] if screens else (0, 0, 0)
    cells = [*range(first, last), *range(m, n_cells)]
    # The advance before each drawn cell, the same in every level's stream:
    # to draw lo of the first cell, then from draw hi of a cell to draw lo of
    # the next.
    steps, position = [], 0
    for c in cells:
        steps.append((c * _JUMP + lo - position) % _PERIOD)
        position = c * _JUMP + hi
    fields = np.empty((n_cells, len(levels) * count))
    for j, level in enumerate(levels):
        bits = np.random.PCG64DXSM(np.random.SeedSequence((master_seed, level)))
        random = np.random.Generator(bits).random
        columns = fields[:, j * count:(j + 1) * count]
        for c, step in zip(cells, steps):
            bits.advance(step)
            random(out=columns[c])
    # The undrawn static rows hold what the allocator gave: they are not scaled.
    for drawn in (fields[first:last], fields[m:]):
        drawn *= 2.0 * np.pi
        drawn += -np.pi
    fields[:first] = 0.0
    fields[last:m] = 0.0
    return fields


def compose_screens(spec: MeshSpec, c_tid, c_td, fields: np.ndarray) -> np.ndarray:
    """The cone-packed phases of one chunk's drawn fields: the disorder model.

    ``fields`` is (:func:`field_cells`, count), drawn fields
    (:func:`draw_block`) of ``spec``'s mesh, one column per realization: the
    static rows, one per mode, then the dynamic rows, already in the packed
    layout of the screens.  They are scaled here by the strengths ``c_tid``
    and ``c_td``: scalars, or (count,) arrays that give each realization its
    level's.  They add on each waveguide, and their sum enters with the
    :func:`mode_signs` sign, unwrapped (:data:`SCREEN_POLICY`): every element
    is ``sign * (c_tid * static + c_td * dynamic)`` bit for bit, in a new
    array returned; ``fields`` is read, never written.  The result is
    C-contiguous (sum of the screens' live rows, count), laid out by
    :func:`~meshwalk.lattice.packed_layout` (the kernel's layout,
    :mod:`~meshwalk.lattice`): layers 1..``d - 1`` of a depth-``d`` mesh.
    Fields of another shape, such as a draw that still holds the last
    layer's rows, are refused, not read in part.
    """
    m, n_cells = spec.num_modes, field_cells(spec)
    if fields.ndim != 2 or fields.shape[0] != n_cells:
        raise ValueError(f"fields shaped {fields.shape} do not match the mesh: "
                         f"expected ({n_cells}, count)")
    signs = mode_signs(m)[:, None]
    total = np.multiply(fields[m:], c_td)
    scaled = np.multiply(fields[:m], c_tid)
    for offset, start, stop in packed_layout(spec):
        rows = total[offset:offset + stop - start]
        rows += scaled[start:stop]
        rows *= signs[start:stop]
    return total
