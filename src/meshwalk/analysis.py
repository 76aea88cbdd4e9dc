"""Transport metrics: distribution fits, spread, efficiency, ENAQT.

All operations act on intensity distributions (nonnegative vectors over
modes) or on ensemble sweep results.  Fits minimize the plain sum of squared
residuals E over integer mode abscissae; the spread exponent is the log-log
slope of the distribution width versus time step; transport efficiency sums
the ensemble mean over a chosen mode set with independently-propagated
standard errors (conservative, since mode intensities are negatively
correlated through normalization).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .ensemble import EnsembleResult, LevelRecord, csv_row


class DegenerateDistributionError(ValueError):
    """Raised when a metric is asked to digest a distribution it cannot fit."""


def _as_distribution(d, name: str = "distribution") -> np.ndarray:
    d = np.asarray(d, dtype=float)
    if d.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError(f"{name} has non-finite entries")
    if d.min() < -1e-9:
        raise ValueError(f"{name} has negative entries (min {d.min()})")
    d = np.clip(d, 0.0, None)
    if d.sum() <= 0.0:
        raise ValueError(f"{name} sums to zero")
    return d


class FitFamily(enum.Enum):
    LAPLACE = "laplace"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class FitResult:
    family: FitFamily
    location: float
    scale: float
    amplitude: float  # under unit_area, the peak of the normalized model
    residual: float  # E = sum of squared residuals


def fit_distribution(d, family: FitFamily, pin_location: float | None = None,
                     unit_area: bool = False) -> FitResult:
    """Least-squares fit of a Laplace or Gaussian profile to a distribution.

    The free parameters are, in order: the amplitude (unless ``unit_area``
    constrains the model's discrete sum over the modes to 1), the location
    (unless pinned to ``pin_location``) and the scale.  Moment-based start,
    then Nelder-Mead restarted until E improves by less than 1e-12; a +-1%
    nudge of any free parameter that still lowers E restarts the search.
    """
    # Imported here: only fits need scipy, and every CLI command imports this module.
    from scipy.optimize import minimize

    d = _as_distribution(d)
    m = d.shape[0]
    if m < 4:
        raise DegenerateDistributionError(f"need at least 4 modes to fit, got {m}")
    if np.count_nonzero(d > 1e-15 * d.max()) < 2:
        raise DegenerateDistributionError("single-mode delta distribution cannot be fit")
    x = np.arange(1, m + 1, dtype=float)
    p = d / d.sum()
    mu0 = float((x * p).sum()) if pin_location is None else float(pin_location)
    var = float((((x - mu0) ** 2) * p).sum())
    if var <= 0.0:
        raise DegenerateDistributionError("zero-variance distribution cannot be fit")
    scale0 = math.sqrt(var) if family is FitFamily.GAUSSIAN else math.sqrt(var / 2.0)
    free = (not unit_area, pin_location is None, True)  # amplitude, location, scale
    start = [v for v, f in zip((float(d.max()), mu0, max(scale0, 0.25)), free) if f]

    def model(q):
        loc = mu0 if pin_location is not None else q[-2]
        scale = abs(q[-1])
        if family is FitFamily.GAUSSIAN:
            shape = np.exp(-((x - loc) ** 2) / (2 * scale**2))
        else:
            shape = np.exp(-np.abs(x - loc) / scale)
        return shape / shape.sum() if unit_area else q[0] * shape

    def objective(q):
        r = model(q) - d
        return float((r * r).sum())

    def refine(best):
        best_e = objective(best)
        while True:
            res = minimize(objective, best, method="Nelder-Mead",
                           options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 20000})
            if best_e - res.fun < 1e-12:
                return (res.x, res.fun) if res.fun < best_e else (best, best_e)
            best, best_e = res.x, res.fun

    def nudges(q):
        for i in range(q.size):
            for sign in (1.0, -1.0):
                trial = q.copy()
                trial[i] += sign * (0.01 * abs(q[i]) or 1e-3)
                yield trial

    best, best_e = refine(np.array(start))
    for _ in range(20):  # local-minimum certificate: no nudge may lower E
        improved = next((t for t in nudges(best) if objective(t) < best_e), None)
        if improved is None:
            break
        best, best_e = refine(improved)

    loc = mu0 if pin_location is not None else best[-2]
    amp = model(best).max() if unit_area else best[0]
    return FitResult(family, float(loc), float(abs(best[-1])), float(abs(amp)), float(best_e))


def width(distribution, name: str = "distribution") -> float:
    """Intensity-weighted standard deviation of the 1-based mode index."""
    d = _as_distribution(distribution, name)
    p = d / d.sum()
    x = np.arange(1, d.shape[0] + 1, dtype=float)
    mu = (x * p).sum()
    return math.sqrt(max(((x - mu) ** 2 * p).sum(), 0.0))


def spread_exponent(means) -> float:
    """Log-log slope of the distribution width versus time step.

    ``means`` is one intensity distribution per layer, of layers
    1..len(means).  Width is :func:`width`.
    """
    sigmas = np.array([width(d, f"means[{i}]") for i, d in enumerate(means)])
    if sigmas.size < 3:
        raise ValueError(f"need at least 3 layers, got {sigmas.size}")
    if (sigmas == 0.0).all():
        raise DegenerateDistributionError("zero variance at all layers")
    if (sigmas == 0.0).any():
        raise DegenerateDistributionError("zero-variance layer makes log-width undefined")
    slope, _ = np.polyfit(np.log(np.arange(1.0, sigmas.size + 1)), np.log(sigmas), 1)
    return float(slope)


def _check_modes(modes, num_modes: int) -> list[int]:
    modes = sorted(set(int(m) for m in modes))
    if not modes:
        raise ValueError("mode set is empty")
    for m in modes:
        if not 1 <= m <= num_modes:
            raise ValueError(f"mode {m} outside [1, {num_modes}]")
    return modes


def _nearest_row(c_tids, static_level: float) -> float:
    """The static-disorder row nearest ``static_level``; the lower one on a tie."""
    return float(min(c_tids, key=lambda v: (abs(v - static_level), v)))


def _efficiency(record: LevelRecord, idx: list[int]) -> tuple[float, float]:
    """Summed mean over the 0-based modes ``idx`` and its standard error."""
    return float(record.mean[idx].sum()), float(np.sqrt((record.std_error[idx] ** 2).sum()))


def _rounding_bound(eta, size: int, layer: int):
    """Bound on the rounding error of efficiencies ``eta`` of ``size`` modes (see detect_enaqt)."""
    eta = np.abs(eta)
    return (32 * layer * np.sqrt(eta) + 2 * size * eta) * np.finfo(float).eps


def _change(curve, i: int, j: int, sign: float = 1.0) -> tuple[float, float]:
    """``eta[i] - eta[j]`` of ``curve = (eta, se, bound)`` and ``sign`` times its significance.

    The significance is in combined standard errors; a change within the two
    points' rounding bounds reads 0, with significance 0.
    """
    eta, se, bound = curve
    change = float(eta[i] - eta[j])
    if abs(change) <= bound[i] + bound[j]:
        return 0.0, 0.0
    combined = float(np.hypot(se[i], se[j]))
    if combined > 0:
        return change, sign * change / combined
    return change, math.inf if sign * change > 0 else 0.0


def _first_maximum(curve, points) -> int:
    """The first of ``points`` whose ``curve`` efficiency is their maximum up to rounding."""
    top = points[np.argmax(curve[0][points])]
    return next(int(i) for i in points if _change(curve, top, i)[0] == 0.0)


@dataclass
class EnaqtReport:
    """Transport-efficiency response of two mode sets along one static-disorder row."""

    requested_c_tid: float
    c_tid: float
    read_layer: int
    enhance_modes: list[int]
    deplete_modes: list[int]
    c_td: np.ndarray
    eta_enhance: np.ndarray
    se_enhance: np.ndarray
    eta_deplete: np.ndarray
    se_deplete: np.ndarray
    threshold: float
    # Optimum of the enhance curve over interior grid points:
    best_index: int
    best_c_td: float
    rise: float
    rise_significance: float
    deplete_change: float
    deplete_significance: float
    # Shape of the full curve:
    argmax_index: int
    interior_maximum: bool
    prominence: float
    prominence_significance: float
    downturn: float
    downturn_significance: float
    declared: bool

    def to_dict(self) -> dict:
        """JSON-ready form: every field, arrays as lists."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in out.items()}

    def to_rows(self) -> list[str]:
        """Flat CSV rows, header first: the sweep schema plus the efficiency columns."""
        return ["c_tid,c_td,layer,eta_enhance,se_enhance,eta_deplete,se_deplete"] + [
            csv_row((self.c_tid, self.c_td[i], self.read_layer, self.eta_enhance[i],
                     self.se_enhance[i], self.eta_deplete[i], self.se_deplete[i]))
            for i in range(self.c_td.size)]


def detect_enaqt(result: EnsembleResult, static_level: float, enhance_modes,
                 deplete_modes, threshold: float = 3.0) -> EnaqtReport:
    """Test one static-disorder row for environment-assisted transport.

    Picks the grid row nearest ``static_level``, orders it by dynamic
    disorder, reads its records at the final layer, and compares the
    enhance-set efficiency at its best interior grid point against the
    zero-noise end.  ENAQT is declared when that rise exceeds ``threshold``
    combined standard errors while the deplete set moves the opposite way,
    also beyond ``threshold``.  The report further characterizes the curve's
    maximum: whether it is interior, its prominence over the curve minimum,
    and the downturn toward full noise.
    A plan of fewer than 2 realizations per level has no standard errors to
    weigh the rise against, and raises :class:`DegenerateDistributionError`.

    Rounding noise is no change.  An efficiency ``eta`` of ``k`` modes read at
    layer ``t`` is computed within ``(32 t sqrt(eta) + 2 k eta) eps`` of its
    exact value.  Each layer moves the unit-norm state by at most 16 eps in
    norm: about 5 for the cell update and its rounded entries, 6 for the
    composed screen value (a few ulps of pi) and 3 for its phase factor.  A
    state off by ``d`` <= 16 t eps puts a set's intensity off by at most
    ``2 |psi_S| d``, whose ensemble mean is at most ``2 sqrt(eta) d``
    (Jensen); squaring, averaging and summing the ``k`` means add at most
    ``2 k eps eta``.  A rise, deplete change, prominence or downturn within
    its two points' bounds is reported as 0, with significance 0, and the
    best interior point and the curve maximum are each the first point, in
    order of rising c_td, within rounding of the maximum.
    """
    if result.plan.realizations_per_level < 2:
        raise DegenerateDistributionError("one realization per level has no standard error")
    spec = result.plan.spec
    layer = spec.depth
    grid = result.plan.grid
    used = _nearest_row(set(level.c_tid for level in grid), static_level)
    slice_levels = sorted(
        (i for i, level in enumerate(grid) if level.c_tid == used),
        key=lambda i: grid[i].c_td,
    )
    if len(slice_levels) < 3:
        raise ValueError(
            f"slice at c_tid={used} has {len(slice_levels)} points; need >= 3"
        )
    for i in slice_levels:
        if (i, layer) not in result.records:
            raise ValueError(f"missing record for level {i}, read layer {layer}")

    enh = _check_modes(enhance_modes, spec.num_modes)
    dep = _check_modes(deplete_modes, spec.num_modes)

    c_td = np.array([grid[i].c_td for i in slice_levels])
    def curve(modes):
        idx = [m - 1 for m in modes]
        eta, se = (np.array(v) for v in zip(*(_efficiency(result.records[(i, layer)], idx)
                                              for i in slice_levels)))
        return eta, se, _rounding_bound(eta, len(idx), layer)

    enhance, deplete = curve(enh), curve(dep)
    (eta_e, se_e, _), (eta_d, se_d, _) = enhance, deplete

    interior = np.arange(1, c_td.size - 1)
    best = _first_maximum(enhance, interior)
    rise, rise_sig = _change(enhance, best, 0)
    dep_change, dep_sig = _change(deplete, best, 0, sign=-1.0)
    argmax = _first_maximum(enhance, np.arange(c_td.size))
    prom, prom_sig = _change(enhance, argmax, int(np.argmin(eta_e)))
    down, down_sig = _change(enhance, argmax, -1)

    declared = bool(rise_sig > threshold and dep_change < 0 and dep_sig > threshold)
    return EnaqtReport(
        requested_c_tid=static_level,
        c_tid=used,
        read_layer=layer,
        enhance_modes=enh,
        deplete_modes=dep,
        c_td=c_td,
        eta_enhance=eta_e,
        se_enhance=se_e,
        eta_deplete=eta_d,
        se_deplete=se_d,
        threshold=threshold,
        best_index=best,
        best_c_td=float(c_td[best]),
        rise=rise,
        rise_significance=rise_sig,
        deplete_change=dep_change,
        deplete_significance=dep_sig,
        argmax_index=argmax,
        interior_maximum=bool(0 < argmax < c_td.size - 1),
        prominence=prom,
        prominence_significance=prom_sig,
        downturn=down,
        downturn_significance=down_sig,
        declared=declared,
    )
