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
whole chunk of those streams at once: it runs SeedSequence's pool hash and
PCG64's seeding across the chunk (NEP 19; O'Neill 2014), then draws each
realization through one reused PCG64, with no per-realization
``SeedSequence`` or generator.

The disorder model is stated once: :func:`draw_block` is the stream layout,
and :func:`compose_screens` the scaling, sign and wrapping that turn a
chunk's drawn fields into its phase screens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import wrap_angle

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
# PCG64's 128-bit LCG multiplier (O'Neill 2014; numpy/random/src/pcg64).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
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


def _pcg64_seeds(entropy: list) -> tuple[list[int], list[int]]:
    """PCG64 ``(state, inc)`` of ``PCG64(SeedSequence(entropy))``, per realization.

    ``entropy`` is the assembled word list: shared words as ints, the
    realization index's words as uint32 arrays.  The pool hash and
    ``generate_state(4, uint64)`` run across the arrays in numpy;
    ``pcg64_set_seed`` (two 128-bit LCG steps) runs on Python integers.
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
    # generate_state(4, uint64) joins word pairs little-endian into u0..u3;
    # pcg64_set_seed takes seed = u0 << 64 | u1 and initseq = u2 << 64 | u3.
    u = [(out[2 * k] | (out[2 * k + 1] << 32)).astype(object) for k in range(4)]
    seed, initseq = (u[0] << 64) | u[1], (u[2] << 64) | u[3]
    inc = ((initseq << 1) | 1) & _MASK128
    return (((inc + seed) * _PCG_MULT + inc) & _MASK128).tolist(), inc.tolist()


def draw_block(master_seed: int, level_index: int, lo: int, hi: int, num_modes: int,
               depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled uniform(-pi, pi) fields of realizations lo..hi-1: the stream layout.

    Realization ``r`` reads the stream of ``GENERATOR_IDENTITY``: ``num_modes``
    static draws, then ``num_modes * depth`` dynamic draws in (mode, layer)
    row-major order, as one uniform call.  Returns the static
    (hi-lo, num_modes) and dynamic (hi-lo, num_modes, depth) fields, views
    of one buffer.

    The streams are seeded for the whole block at once (:func:`_pcg64_seeds`)
    and drawn through one reused PCG64; ``low + (high - low) * u`` is then
    applied over the block, so every value equals the per-realization
    ``uniform`` bit for bit.
    """
    if not 0 <= lo <= hi <= 1 << 64:
        raise ValueError(f"realization range [{lo}, {hi}) not within [0, 2**64)")
    shared = _words(int(master_seed)) + _words(int(level_index))
    buf = np.empty((hi - lo, num_modes * (depth + 1)))
    bits = np.random.PCG64()
    random = np.random.Generator(bits).random
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    start = lo
    while start < hi:
        # The realization index gains a word at each power of 2**32, which
        # moves the hash's word positions: such a chunk is seeded in parts.
        words = len(_words(start))
        stop = min(hi, 1 << (32 * words))
        r = np.arange(start, stop, dtype=np.uint64)
        entropy = shared + [(r >> (32 * k) & _MASK32).astype(np.uint32) for k in range(words)]
        for s, inc, row in zip(*_pcg64_seeds(entropy), buf[start - lo:stop - lo]):
            state["state"] = {"state": s, "inc": inc}
            bits.state = state
            random(out=row)
        start = stop
    buf *= 2.0 * np.pi
    buf += -np.pi
    return buf[:, :num_modes], buf[:, num_modes:].reshape(hi - lo, num_modes, depth)


def compose_screens(level: DisorderSpec, static: np.ndarray,
                    dynamic: np.ndarray) -> np.ndarray:
    """The phases of one chunk's drawn fields, in the kernel's layout: the disorder model.

    ``static`` (count, num_modes) and ``dynamic`` (count, num_modes, depth)
    are drawn fields (:func:`draw_block`), one row per realization, scaled
    here by the level's c_tid and c_td.  They add on each waveguide; their
    wrapped sum enters with the :func:`mode_signs` sign, and the signed sum is
    wrapped again into (-pi, pi].  Every element takes the float steps of
    ``wrap(sign * wrap(c_tid * static + c_td * dynamic))`` in that order, in
    place in the new array returned (layout: :mod:`~meshwalk.lattice`).
    """
    if static.ndim != 2 or static.shape != dynamic.shape[:-1]:
        raise ValueError(f"static field {static.shape} does not match dynamic field "
                         f"{dynamic.shape}: expected (count, m) and (count, m, depth)")
    count, m, depth = dynamic.shape
    total = np.empty((depth, m, count))
    # The transposing read goes a block of realizations at a time, so the
    # rows it reads stay cached while every (layer, mode) column is written.
    for lo in range(0, count, _TRANSPOSE_BLOCK):
        hi = lo + _TRANSPOSE_BLOCK
        np.multiply(dynamic[lo:hi].T, level.c_td, out=total[:, :, lo:hi])
    total += (level.c_tid * static).T
    wrap_angle(total, out=total)
    total *= mode_signs(m)[:, None]
    return wrap_angle(total, out=total)
