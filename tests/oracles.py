"""Independent oracles for the test suite.

These deliberately avoid the package's propagation code paths: the Markov
oracle pushes probabilities (not amplitudes) through the cone, the dense
unitary multiplies whole num_modes x num_modes layer matrices instead of
running the batched kernel, the tomography program reads a layer by wire
routing instead of stopping the kernel early, the reduction sums each row
with ``math.fsum`` element by element, and the KS statistic is computed
directly from its definition.  The disorder fields are rebuilt cell by cell
from numpy's documented ``jumped`` streams, not through the package's draw.
A program is a pair (settings,
screens): ``settings[t - 1]`` lists the cells of layer ``t`` top to bottom,
and cell ``k`` (0-based) of layer ``t`` couples the 0-based modes
``num_modes // 2 - t + 2k`` and one below; ``screens`` is (num_modes, depth).
"""

import math

import numpy as np

from meshwalk.lattice import RbsSetting, cell_unitary

BAR = RbsSetting(np.pi, 0.0)  # bar state: straight-through routing
# Realization ranges that start beyond this are reached by advance, not drawn.
DRAWN_PREFIX = 1 << 16


def cell_stream_fields(seed: int, level: int, lo: int, hi: int, spec):
    """Drawn static and dynamic fields of realizations lo..hi-1 of one level.

    Realization ``r``'s value in cell ``c`` is
    ``Generator(PCG64DXSM(SeedSequence((seed, level))).jumped(c))
    .random(r + 1)[r]``, as ``uniform(-pi, pi)``.  Cell ``c < num_modes`` is
    the static field of mode ``c``; the cells after them are the live (mode,
    layer) cells of the dynamic field, layer 1 first and each layer's live
    rows in order, for every layer but the last: a phase screen follows
    each of layers 1..depth-1 alone.  Layer ``t``'s live rows are its
    cells' modes ``m/2 - t`` to ``m/2 + t - 1`` (0-based) and the injection
    mode's row.  A range that starts beyond ``DRAWN_PREFIX`` skips its first
    ``lo`` draws by ``advance(lo)``, which numpy documents as those draws.
    Cells no screen reads hold 0.0, the last layer's column among them.
    Returns static (count, num_modes) and dynamic (count, num_modes, depth).
    """
    m, count, inject = spec.num_modes, hi - lo, spec.injection_mode - 1
    static, dynamic = np.zeros((count, m)), np.zeros((count, m, spec.depth))

    def draws(cell):
        bits = np.random.PCG64DXSM(np.random.SeedSequence((seed, level))).jumped(cell)
        if lo > DRAWN_PREFIX:
            return np.random.Generator(bits.advance(lo)).uniform(-np.pi, np.pi, count)
        return np.random.Generator(bits).uniform(-np.pi, np.pi, hi)[lo:]

    def live(t):
        return range(min(m // 2 - t, inject), max(m // 2 + t, inject + 1))

    for mode in sorted({mode for t in range(1, spec.depth) for mode in live(t)}):
        static[:, mode] = draws(mode)
    cell = m
    for t in range(1, spec.depth):
        for mode in live(t):
            dynamic[:, mode, t - 1] = draws(cell)
            cell += 1
    return static, dynamic


def galton_distribution(num_modes: int, upto: int, inject: int) -> np.ndarray:
    """Probability distribution of the incoherent walk after ``upto`` layers.

    Every cell becomes a 50/50 doubly-stochastic split; with fully random
    per-(mode, layer) phases the ensemble-mean intensity equals this exactly,
    because no pair of distinct paths keeps a correlated phase.
    """
    p = np.zeros(num_modes)
    p[inject - 1] = 1.0
    for t in range(1, upto + 1):
        first = num_modes // 2 - t  # 0-based top mode of the first cell
        for k in range(t):
            i = first + 2 * k
            m = 0.5 * (p[i] + p[i + 1])
            p[i] = m
            p[i + 1] = m
    return p


def galton_sigma(num_modes: int, upto: int, inject: int) -> float:
    p = galton_distribution(num_modes, upto, inject)
    x = np.arange(1, num_modes + 1, dtype=float)
    mu = float((x * p).sum())
    return math.sqrt(float(((x - mu) ** 2 * p).sum()))


def ks_uniform_statistic(samples: np.ndarray, low: float, high: float) -> float:
    """Kolmogorov-Smirnov distance of samples from the uniform law on [low, high]."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    cdf = (s - low) / (high - low)
    d_plus = float((np.arange(1, n + 1) / n - cdf).max())
    d_minus = float((cdf - np.arange(0, n) / n).max())
    return max(d_plus, d_minus)


def fsum_reduce(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of each row of ``stack``, each sum one ``math.fsum``.

    The definition the ensemble's bucketed reduction must equal bit for bit.
    """
    m, n = stack.shape
    mean = np.array([math.fsum(row) / n for row in stack])
    if n < 2:
        return mean, np.zeros(m)
    var = np.array([math.fsum((row - mu) ** 2) / (n - 1) for row, mu in zip(stack, mean)])
    return mean, np.sqrt(var / n)


def full_unitary(spec, settings, screens, up_to_layer: int | None = None) -> np.ndarray:
    """Compose the whole mesh into one num_modes x num_modes unitary.

    Plain matrix multiplication of per-layer block-diagonal cell matrices and
    diagonal phase screens, a different code path from the batched kernel.
    """
    last = spec.depth if up_to_layer is None else up_to_layer
    if not 1 <= last <= spec.depth:
        raise ValueError(f"up_to_layer {last} outside [1, {spec.depth}]")
    screens = np.asarray(screens, dtype=float)
    n = spec.num_modes
    total = np.eye(n, dtype=complex)
    for t in range(1, last + 1):
        layer = np.eye(n, dtype=complex)
        for k, setting in enumerate(settings[t - 1]):
            i = n // 2 - t + 2 * k  # 0-based top mode of the cell
            layer[i : i + 2, i : i + 2] = cell_unitary(setting)
        total = np.diag(np.exp(1j * screens[:, t - 1])) @ layer @ total
    return total


def build_tomography_program(settings, screens, read_layer: int):
    """Route the state at ``read_layer`` straight to the output.

    Cells in later layers become bar-state wires and their screens are
    zeroed, so the final intensities equal the layer-``read_layer``
    intensities exactly.  Returns the routed (settings, screens).
    """
    depth = screens.shape[1]
    if not 1 <= read_layer <= depth:
        raise ValueError(f"read_layer {read_layer} outside [1, {depth}]")
    routed = [[BAR] * len(layer) if t > read_layer else list(layer)
              for t, layer in enumerate(settings, start=1)]
    screens = screens.copy()
    screens[:, read_layer:] = 0.0
    return routed, screens


def extended_walk_intensities(spec, level, static, dynamic, read_layers) -> dict:
    """Per-realization intensities of the disordered symmetric walk in extended precision.

    The input splitter and Hadamard cells take exact entries, and each screen
    is ``sign * (c_tid * static + c_td * dynamic)`` unwrapped, all in
    ``np.longdouble``.  Where that has a 64-bit significand (x86), its
    rounding is 2**-11 of the float64 kernel's; elsewhere it is float64.
    """
    ext = np.longdouble
    signs = np.where(np.arange(spec.num_modes) < (spec.num_modes + 1) // 2, 1, -1).astype(ext)
    phases = signs[:, None] * (ext(level.c_tid) * static.astype(ext)[:, :, None]
                               + ext(level.c_td) * dynamic.astype(ext))
    half = np.sqrt(ext(0.5))
    state = np.zeros((len(static), spec.num_modes), dtype=np.clongdouble)
    state[:, spec.injection_mode - 1] = 1
    out = {}
    for t in range(1, max(read_layers) + 1):
        e = 1j if t == 1 else 1  # the input splitter's phi = pi/2, the Hadamards' 0
        for k in range(t):
            i = spec.num_modes // 2 - t + 2 * k  # 0-based top mode of the cell
            a, b = state[:, i].copy(), state[:, i + 1].copy()
            state[:, i] = e * half * (a + b)
            state[:, i + 1] = half * (a - b)
        state *= np.cos(phases[:, :, t - 1]) + 1j * np.sin(phases[:, :, t - 1])
        if t in read_layers:
            out[t] = state.real**2 + state.imag**2
    return out
