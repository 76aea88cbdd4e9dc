"""Discrete-time quantum walks on a programmable beamsplitter mesh.

Simulates single-walker transport through a staggered light cone of SU(2)
cells under static and dynamic phase disorder: deterministic parallel
disorder ensembles, and transport metrics and fits.
"""

from .analysis import (
    DegenerateDistributionError,
    EnaqtReport,
    FitFamily,
    FitResult,
    detect_enaqt,
    fit_distribution,
    spread_exponent,
)
from .ensemble import (
    EnsembleResult,
    LevelRecord,
    SweepPlan,
    make_grid,
    run_sweep,
)
from .lattice import (
    HADAMARD,
    INPUT_SPLITTER,
    MeshSpec,
    RbsSetting,
    cell_unitary,
    intensities,
    wrap_angle,
)
from .programs import (
    GENERATOR_IDENTITY,
    DisorderSpec,
    mode_signs,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateDistributionError",
    "DisorderSpec",
    "EnaqtReport",
    "EnsembleResult",
    "FitFamily",
    "FitResult",
    "GENERATOR_IDENTITY",
    "HADAMARD",
    "INPUT_SPLITTER",
    "LevelRecord",
    "MeshSpec",
    "RbsSetting",
    "SweepPlan",
    "cell_unitary",
    "detect_enaqt",
    "fit_distribution",
    "intensities",
    "make_grid",
    "mode_signs",
    "run_sweep",
    "spread_exponent",
    "wrap_angle",
]
