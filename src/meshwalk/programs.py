"""Phase-disorder realizations of the symmetric walk.

The walk's cells are fixed: the input splitter on the layer-1 cell and
Hadamards everywhere else (:func:`~meshwalk.ensemble._layer_matrices`).
Disorder enters only through the phase screens, which it fills alone.  A
realization draws one uniform phase per mode (static, constant across
layers) and one per (mode, layer) (dynamic, uncorrelated in space-time),
each scaled by its strength coefficient in [0, 1].  The wrapped sum is
applied with the per-mode sign of :func:`mode_signs`.

Every realization is a pure function of ``(master_seed, level_index,
realization_index)``: the stream is a PCG64 generator keyed by that triple
through ``numpy.random.SeedSequence``, so realizations can be resampled
bit-for-bit in any order, from any worker.  :func:`draw_block` rebuilds a
whole chunk of those streams at once, of one level or of several: it runs
SeedSequence's pool hash and PCG64's seeding across the chunk in numpy, the
128-bit LCG steps on uint64 limbs (NEP 19; O'Neill 2014).  It then draws
each realization through one reused PCG64, with no per-realization
``SeedSequence``, generator or ``state`` dict: the generator's pointer to its
32-byte ``(state, inc)`` is pointed at each realization's seed row in turn,
so it draws from that row and advances it in place, and is restored to the
generator's own struct once the rows are drawn.  The rows start on 16-byte
boundaries, as a native 128-bit word may need.  A probe state written through
the documented ``state`` setter tells it the order in which the generator
keeps those words.

The disorder model is stated once: :func:`draw_block` is the stream layout,
and :func:`compose_screens` the scaling, sign and wrapping that turn a
chunk's drawn fields into its phase screens.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .lattice import MeshSpec, packed_layout, wrap_angle

#: How per-realization random streams are derived; recorded in every result document.
GENERATOR_IDENTITY = (
    "numpy.random.Generator(PCG64(SeedSequence((master_seed, level_index, "
    "realization_index)))): static uniform(-pi, pi, num_modes) then dynamic "
    "uniform(-pi, pi, (num_modes, depth))"
)


def mode_signs(num_modes: int) -> np.ndarray:
    """Sign of each mode's applied disorder: -1 on the lower half of the array.

    Modes above ``num_modes/2`` take -1, mimicking hardware that modulates
    the opposite arm there; a center mode of an odd-width array takes +1.

    The mesh is exactly mirror symmetric on the *applied* screens: reversing
    every screen column mirrors the output, realization by realization.  With
    these antisymmetric signs the mirror of a drawn realization is therefore
    its drawn fields reversed *and negated*.  The drawn law is i.i.d. per mode
    and symmetric under negation, so disorder-averaged distributions are
    mirror symmetric about the injection pair; the sign flip is not what
    makes them so.
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


# numpy.random.SeedSequence's pool hash (NEP 19), as in
# numpy/random/bit_generator.pyx: a 4-word uint32 pool, hashed in with
# hashmix (INIT_A/MULT_A), then read out as state words (INIT_B/MULT_B).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# PCG64's 128-bit LCG multiplier (O'Neill 2014; numpy/random/src/pcg64),
# as its high and low 64-bit words.
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
# Four distinct words: the (state high, state low, inc high, inc low) that
# _state_layout writes to find where a PCG64 keeps each word.
_PROBE = (0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x0F1E2D3C4B5A6978, 0x8796A5B4C3D2E1F0)
# Byte alignment of every seed row draw_block points the generator at:
# numpy's build may keep the state's words as native __uint128_t.
_ALIGN = 16
# Realizations per step of compose_screens' transposing read.
_TRANSPOSE_BLOCK = 256


def _words(value: int) -> list[int]:
    """``value`` as SeedSequence splits it: little-endian uint32 words, 0 is one."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


class _Hash:
    """SeedSequence's multiplicative hash; its constant steps on every call.

    Words are uint32 arrays (one entry per realization) or Python ints (a
    word every realization shares); both reduce modulo 2**32 alike.
    """

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = self.const * self.mult & _MASK32
        value = value * self.const & _MASK32
        return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = (x * _MIX_MULT_L & _MASK32) - (y * _MIX_MULT_R & _MASK32) & _MASK32
    return result ^ (result >> _XSHIFT)


def _mul_hi(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of each ``a * b``, for uint64 ``a`` and a 64-bit ``b``.

    The four products of 32-bit halves fit in 64 bits, and so does the middle
    sum of the low product's carry and the cross products' low halves.
    """
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    cross_lo, cross_hi = a_lo * b_hi, a_hi * b_lo
    middle = (a_lo * b_lo >> 32) + (cross_lo & _MASK32) + (cross_hi & _MASK32)
    return a_hi * b_hi + (cross_lo >> 32) + (cross_hi >> 32) + (middle >> 32)


def _pcg64_set_seed(u0: np.ndarray, u1: np.ndarray, u2: np.ndarray,
                    u3: np.ndarray) -> np.ndarray:
    """numpy's ``pcg64_set_seed`` on uint64 limbs, one row per realization.

    The seed is ``u0 << 64 | u1`` and the sequence ``u2 << 64 | u3``:
    ``inc = sequence << 1 | 1``, then two LCG steps from state 0 with the seed
    added between them, so ``state = (inc + seed) * mult + inc`` modulo
    2**128.  Returns (rows, 4) uint64: state high, state low, inc high, inc low.
    """
    words = np.empty((len(u0), 4), dtype=np.uint64)
    inc_hi, inc_lo = u2 << 1 | u3 >> 63, u3 << 1 | 1
    seeded_lo = inc_lo + u1
    seeded_hi = inc_hi + u0 + (seeded_lo < inc_lo)
    product_hi = (_mul_hi(seeded_lo, _PCG_MULT_LO) + seeded_lo * _PCG_MULT_HI
                  + seeded_hi * _PCG_MULT_LO)
    words[:, 1] = seeded_lo * _PCG_MULT_LO + inc_lo
    words[:, 0] = product_hi + inc_hi + (words[:, 1] < inc_lo)
    words[:, 2], words[:, 3] = inc_hi, inc_lo
    return words


def _pcg64_seeds(entropy: list) -> np.ndarray:
    """PCG64 ``(state, inc)`` of ``PCG64(SeedSequence(entropy))``, per realization.

    ``entropy`` is the assembled word list: shared words as ints, the level
    and realization indices' words as uint32 arrays.  The pool hash,
    ``generate_state(4, uint64)`` and ``pcg64_set_seed`` (two 128-bit LCG
    steps, :func:`_pcg64_set_seed`) run across the arrays in numpy, on uint32
    words and uint64 limbs.  Returns (rows, 4) uint64: state high, state low,
    inc high, inc low.
    """
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    readout = _Hash(_INIT_B, _MULT_B)
    out = [readout(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    # generate_state(4, uint64) joins word pairs little-endian into u0..u3.
    return _pcg64_set_seed(*(out[2 * k] | out[2 * k + 1] << 32 for k in range(4)))


def _state_layout(bits) -> list[int]:
    """The order in which ``bits`` keeps the four words of its ``pcg64_random_t``.

    ``bits.ctypes.state_address`` points at numpy's ``pcg64_state``, whose
    first field points at the ``pcg64_random_t``: two 128-bit words, each
    native or a struct of two 64-bit halves, whose order the build decides.
    The :data:`_PROBE` state is written through the documented ``bits.state``
    setter and its raw words are read back: word ``k`` of the struct is
    column ``order[k]`` of :func:`_pcg64_seeds`, for the returned ``order``.
    Raw words that are not the probe's in some order raise ``RuntimeError``.
    """
    state_hi, state_lo, inc_hi, inc_lo = _PROBE
    bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                  "state": {"state": state_hi << 64 | state_lo,
                            "inc": inc_hi << 64 | inc_lo}}
    address = ctypes.c_void_p.from_address(bits.ctypes.state_address).value
    raw = list((ctypes.c_uint64 * 4).from_address(address))
    if sorted(raw) != sorted(_PROBE):
        raise RuntimeError(f"PCG64 keeps state words {[hex(w) for w in raw]}, not the "
                           f"probe's {[hex(w) for w in _PROBE]}: cannot load its seeds")
    return [_PROBE.index(word) for word in raw]


def _seed_rows(words: np.ndarray, order: list[int]) -> np.ndarray:
    """Columns ``order`` of (rows, 4) uint64 ``words``, each row on an ``_ALIGN`` boundary.

    The rows are C-contiguous, 32 bytes each, in a buffer over-allocated by
    ``_ALIGN - 8`` bytes and entered at the offset that aligns its start,
    whatever alignment the allocator gave.
    """
    spare = _ALIGN // 8 - 1
    raw = np.empty(words.size + spare, dtype=np.uint64)
    skip = -raw.ctypes.data % _ALIGN // 8
    seeds = raw[skip:skip + words.size].reshape(words.shape)
    seeds[...] = words[:, order]
    return seeds


def _draw_rows(bits, random, seeds: np.ndarray, rows: list[int], out: np.ndarray) -> None:
    """Fill ``out[row]`` with ``random`` from each seed row in turn.

    ``random`` draws from ``bits``, a PCG64.  Before each draw, the slot in
    numpy's ``pcg64_state`` that points at the generator's own
    ``pcg64_random_t`` is pointed at the next 32-byte row of ``seeds``, so
    the generator draws from that row's ``(state, inc)`` and advances it in
    place: ``seeds`` is spent, each row used once.  The slot gets back the
    value it held on entry in a ``finally``, so the generator frees and
    reads its own struct again whatever is raised.  ``seeds`` must be
    C-contiguous uint64 rows of 4 words, in the generator's order
    (:func:`_state_layout`), starting on an ``_ALIGN`` boundary
    (:func:`_seed_rows`); any other buffer raises ``ValueError`` and leaves
    the slot alone.
    """
    first = seeds.ctypes.data
    if seeds.dtype != np.uint64 or seeds.shape[1:] != (4,) or not seeds.flags.c_contiguous \
            or first % _ALIGN:
        raise ValueError(f"seed rows {seeds.dtype} {seeds.shape} at {first:#x} are not "
                         f"C-contiguous uint64 rows of 4 on {_ALIGN}-byte boundaries")
    slot = ctypes.c_void_p.from_address(bits.ctypes.state_address)
    own = slot.value
    try:
        for address, row in zip(range(first, first + seeds.nbytes, 32), rows):
            slot.value = address
            random(out=out[row])
    finally:
        slot.value = own


def draw_block(master_seed: int, level_index, lo: int, hi: int, num_modes: int,
               depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled uniform(-pi, pi) fields of realizations lo..hi-1: the stream layout.

    ``level_index`` is one level or a sequence of levels; the rows are
    level-major, each level's realizations lo..hi-1 in turn.  Realization
    ``r`` of level ``i`` reads the stream of ``GENERATOR_IDENTITY``:
    ``num_modes`` static draws, then ``num_modes * depth`` dynamic draws in
    (mode, layer) row-major order, as one uniform call.  Returns the static
    (rows, num_modes) and dynamic (rows, num_modes, depth) fields, views of
    one buffer.

    The streams are seeded for the whole block at once (:func:`_pcg64_seeds`),
    the level and realization indices each a word per row, on uint64 limbs,
    and laid out as aligned 32-byte rows of ``(state, inc)`` in the word order
    that :func:`_state_layout` probes once per call (:func:`_seed_rows`).
    They are drawn through one reused PCG64, whose state pointer is pointed
    at each row in turn and then restored (:func:`_draw_rows`).
    ``low + (high - low) * u`` is then applied over the block, so every value
    equals the per-realization ``uniform`` bit for bit.
    """
    levels = [level_index] if np.ndim(level_index) == 0 else list(level_index)
    if not 0 <= lo <= hi <= 1 << 64:
        raise ValueError(f"realization range [{lo}, {hi}) not within [0, 2**64)")
    if not all(0 <= level < 1 << 64 for level in levels):
        raise ValueError(f"level indices {levels} not within [0, 2**64)")
    index = (np.repeat(np.array(levels, dtype=np.uint64), hi - lo),
             np.tile(np.arange(lo, hi, dtype=np.uint64), len(levels)))
    shared = _words(int(master_seed))
    buf = np.empty((len(index[0]), num_modes * (depth + 1)))
    # Seeded, so that it reads no OS entropy: _state_layout overwrites its
    # state, which no seed row then touches.
    bits = np.random.PCG64(0)
    random = np.random.Generator(bits).random
    order = _state_layout(bits)
    # An index gains a word at 2**32, which moves the hash's word positions:
    # rows are seeded in parts of equal word counts.
    words = [1 + (i > _MASK32) for i in index]
    parts = 2 * words[0] + words[1]
    # Not np.unique, which raised the peak RSS of deep --n 2000 by 1.4 MB.
    for part in sorted(set(parts.tolist())):
        rows = np.flatnonzero(parts == part)
        entropy = shared + [(i[rows] >> (32 * k) & _MASK32).astype(np.uint32)
                            for i, w in zip(index, words) for k in range(w[rows[0]])]
        # The probe's has_uint32 = 0 holds throughout: random() draws whole
        # 64-bit words, so no buffered 32-bit half passes from one
        # realization to the next.
        _draw_rows(bits, random, _seed_rows(_pcg64_seeds(entropy), order), rows.tolist(), buf)
    buf *= 2.0 * np.pi
    buf += -np.pi
    return buf[:, :num_modes], buf[:, num_modes:].reshape(len(buf), num_modes, depth)


def compose_screens(spec: MeshSpec, c_tid, c_td, static: np.ndarray,
                    dynamic: np.ndarray) -> np.ndarray:
    """The cone-packed phases of one chunk's drawn fields: the disorder model.

    ``static`` (count, num_modes) and ``dynamic`` (count, num_modes, depth)
    are drawn fields (:func:`draw_block`) of ``spec``'s mesh, one row per
    realization, scaled here by the strengths ``c_tid`` and ``c_td``:
    scalars, or (count,) arrays that give each realization its level's.  They
    add on each waveguide; their wrapped sum enters with the
    :func:`mode_signs` sign, and the signed sum is wrapped again into
    (-pi, pi].  Every element takes the float steps of
    ``wrap(sign * wrap(c_tid * static + c_td * dynamic))`` in that order, in
    place in the new array returned.  Only the live (mode, layer) cells are
    composed: the result is C-contiguous (sum of the layers' live rows,
    count), laid out by :func:`~meshwalk.lattice.packed_layout` (the
    kernel's layout, :mod:`~meshwalk.lattice`).
    """
    m, depth = spec.num_modes, spec.depth
    if static.ndim != 2 or static.shape != dynamic.shape[:-1] or dynamic.shape[1:] != (m, depth):
        raise ValueError(f"static field {static.shape} does not match dynamic field "
                         f"{dynamic.shape}: expected (count, {m}) and (count, {m}, {depth})")
    count = len(static)
    c_tid, c_td = (np.broadcast_to(c, (count,)) for c in (c_tid, c_td))
    layout = packed_layout(spec)
    rows = np.concatenate([np.arange(start, stop) for _, start, stop in layout])
    total = np.empty((len(rows), count))
    scaled = (c_tid[:, None] * static).T
    # The transposing read goes a block of realizations at a time, so the
    # rows it reads stay cached while every live (layer, mode) row is written.
    for lo in range(0, count, _TRANSPOSE_BLOCK):
        hi = lo + _TRANSPOSE_BLOCK
        for t, (offset, start, stop) in enumerate(layout):
            cells = total[offset:offset + stop - start, lo:hi]
            np.multiply(dynamic[lo:hi, start:stop, t].T, c_td[lo:hi], out=cells)
            cells += scaled[start:stop, lo:hi]
    wrap_angle(total, out=total)
    total *= mode_signs(m)[rows, None]
    return wrap_angle(total, out=total)
