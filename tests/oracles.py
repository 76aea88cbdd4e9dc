"""Independent oracles for the test suite.

These deliberately avoid the package's propagation code paths: the Markov
oracle pushes probabilities (not amplitudes) through the cone, the dense
unitary multiplies whole num_modes x num_modes layer matrices instead of
running the batched kernel, and the KS statistic is computed directly from
its definition.
"""

import math

import numpy as np

from meshwalk import cell_unitary


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


def full_unitary(spec, program, up_to_layer: int | None = None) -> np.ndarray:
    """Compose the whole mesh into one num_modes x num_modes unitary.

    Plain matrix multiplication of per-layer block-diagonal cell matrices and
    diagonal phase screens, a different code path from ``propagate`` and the
    batched ensemble kernel.
    """
    last = spec.depth if up_to_layer is None else up_to_layer
    if not 1 <= last <= spec.depth:
        raise ValueError(f"up_to_layer {last} outside [1, {spec.depth}]")
    screens = np.asarray(program.phase_screens, dtype=float)
    n = spec.num_modes
    total = np.eye(n, dtype=complex)
    for t in range(1, last + 1):
        layer = np.eye(n, dtype=complex)
        for cell in spec.layer_cells(t):
            i = cell.top_mode - 1
            layer[i : i + 2, i : i + 2] = cell_unitary(program.cell_settings[cell])
        total = np.diag(np.exp(1j * screens[:, t - 1])) @ layer @ total
    return total
