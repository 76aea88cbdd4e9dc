"""Walk programs and phase-disorder realizations.

A :class:`MeshProgram` is pure data: one ``(theta, phi)`` setting per cell
plus a per-(mode, layer) phase screen.  The symmetric quantum-walk program
uses the input splitter ``(pi/2, pi/2)`` on the layer-1 cell and Hadamards
``(pi/2, 0)`` everywhere else, with zero screens.

Disorder enters only through the phase screens.  A realization draws one
uniform phase per mode (static, constant across layers) and one per
(mode, layer) (dynamic, uncorrelated in space-time), each scaled by its
strength coefficient in [0, 1].  The wrapped sum is applied with a per-mode
sign set by a :class:`SymmetryPolicy`.

The mesh is exactly mirror symmetric on the *applied* screens: reversing
every screen column mirrors the output, realization by realization.  Under
``MIRRORED_SIGN`` the mirror of a drawn realization is therefore its drawn
fields reversed *and negated*; under ``UNIFORM_SIGN`` it is the drawn fields
reversed.  The drawn law is i.i.d. per mode and symmetric under negation, so
disorder-averaged distributions are mirror symmetric about the injection
pair under either policy; the sign flip is not what makes them so.

Every realization is a pure function of ``(master_seed, level_index,
realization_index)``: the stream is a PCG64 generator keyed by that triple
through ``numpy.random.SeedSequence``, so realizations can be resampled
bit-for-bit in any order, from any worker.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .lattice import (
    HADAMARD,
    INPUT_SPLITTER,
    WIRE,
    CellCoord,
    MeshSpec,
    RbsSetting,
    wrap_angle,
)

#: How per-realization random streams are derived; recorded in result metadata.
GENERATOR_IDENTITY = (
    "numpy.random.Generator(PCG64(SeedSequence((master_seed, level_index, "
    "realization_index)))): static uniform(-pi, pi, num_modes) then dynamic "
    "uniform(-pi, pi, (num_modes, depth))"
)


class SymmetryPolicy(enum.Enum):
    """Sign pattern used when adding disorder phases to the screens.

    MIRRORED_SIGN flips the sign on the lower half of the array (modes above
    ``num_modes/2``), mimicking hardware that modulates the opposite arm
    there; a center mode of an odd-width array would take the upper sign.
    UNIFORM_SIGN applies every phase as drawn.

    Either policy gives a mirror-symmetric ensemble mean.  Per realization,
    the mirror image of the applied screens comes from drawn fields
    ``signs * (signs * field)[::-1]``: reversed and negated under
    MIRRORED_SIGN, only reversed under UNIFORM_SIGN.
    """

    MIRRORED_SIGN = "mirrored-sign"
    UNIFORM_SIGN = "uniform-sign"


def mode_signs(num_modes: int, policy: SymmetryPolicy) -> np.ndarray:
    signs = np.ones(num_modes)
    if policy is SymmetryPolicy.MIRRORED_SIGN:
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


class SeedProvenance(NamedTuple):
    master_seed: int
    level_index: int
    realization_index: int


@dataclass(frozen=True)
class DisorderRealization:
    """One sampled phase field: static per mode, dynamic per (mode, layer)."""

    static_phases: np.ndarray   # (num_modes,)
    dynamic_phases: np.ndarray  # (num_modes, depth)
    seed_provenance: SeedProvenance


def realization_rng(provenance: SeedProvenance) -> np.random.Generator:
    """The derived stream for one realization; any worker reconstructs it."""
    seq = np.random.SeedSequence(entropy=tuple(int(v) for v in provenance))
    return np.random.Generator(np.random.PCG64(seq))


def draw_fields(provenance: SeedProvenance, num_modes: int,
                depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled uniform(-pi, pi) fields of one realization: the stream layout.

    The stream yields ``num_modes`` static draws, then ``num_modes * depth``
    dynamic draws in (mode, layer) row-major order, as one uniform call.
    Returns the static (num_modes,) and dynamic (num_modes, depth) fields.
    """
    buf = realization_rng(provenance).uniform(-np.pi, np.pi, num_modes * (depth + 1))
    return buf[:num_modes], buf[num_modes:].reshape(num_modes, depth)


def sample_realization(spec: MeshSpec, disorder: DisorderSpec,
                       provenance: SeedProvenance) -> DisorderRealization:
    """Draw one realization; identical provenance reproduces it bit-for-bit."""
    static, dynamic = draw_fields(provenance, spec.num_modes, spec.depth)
    return DisorderRealization(disorder.c_tid * static, disorder.c_td * dynamic, provenance)


def compose_screens(screens: np.ndarray, static: np.ndarray, dynamic: np.ndarray,
                    policy: SymmetryPolicy) -> np.ndarray:
    """Phase screens with scaled disorder fields added: the disorder model.

    The static (..., num_modes) and dynamic (..., num_modes, depth) fields add
    on each waveguide; their wrapped sum enters with the policy's mode sign,
    and the total is wrapped again.  Leading axes (one per realization)
    broadcast against the (num_modes, depth) ``screens``.
    """
    signs = mode_signs(static.shape[-1], policy)
    return wrap_angle(screens + signs[:, None] * wrap_angle(static[..., None] + dynamic))


@dataclass(frozen=True)
class MeshProgram:
    """Settings for every cell plus the per-(mode, layer) phase screens."""

    cell_settings: dict[CellCoord, RbsSetting]
    phase_screens: np.ndarray  # (num_modes, depth), radians

    def covers(self, spec: MeshSpec) -> bool:
        return all(c in self.cell_settings for c in spec.cells) and self.phase_screens.shape == (
            spec.num_modes,
            spec.depth,
        )

    @property
    def depth(self) -> int:
        return self.phase_screens.shape[1]

    def to_dict(self) -> dict:
        """JSON-ready form used by the result store."""
        return {
            "cells": [
                {"layer": c.layer, "top_mode": c.top_mode, "theta": s.theta, "phi": s.phi}
                for c, s in sorted(self.cell_settings.items())
            ],
            "phase_screens": self.phase_screens.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MeshProgram":
        settings = {
            CellCoord(c["layer"], c["top_mode"]): RbsSetting(c["theta"], c["phi"])
            for c in data["cells"]
        }
        return cls(settings, np.asarray(data["phase_screens"], dtype=float))


def build_symmetric_qw(spec: MeshSpec) -> MeshProgram:
    """The symmetric quantum-walk program: input splitter, then Hadamards."""
    settings = {}
    for cell in spec.cells:
        settings[cell] = INPUT_SPLITTER if cell.layer == 1 else HADAMARD
    return MeshProgram(settings, np.zeros((spec.num_modes, spec.depth)))


def apply_disorder(program: MeshProgram, realization: DisorderRealization,
                   policy: SymmetryPolicy = SymmetryPolicy.MIRRORED_SIGN) -> MeshProgram:
    """Add a disorder realization onto the program's phase screens.

    The static and dynamic fields add on each waveguide; the wrapped sum is
    applied with the policy's mode sign.  Cell settings are untouched.

    Reversing the applied screens mirrors the output exactly.  Under
    MIRRORED_SIGN the antisymmetric signs mean that reversing only the drawn
    fields does not: the mirrored realization has them reversed and negated.
    """
    num_modes, depth = program.phase_screens.shape
    if realization.static_phases.shape != (num_modes,) or realization.dynamic_phases.shape != (
        num_modes,
        depth,
    ):
        raise ValueError(
            f"realization shaped {realization.static_phases.shape}/"
            f"{realization.dynamic_phases.shape} does not match screens "
            f"{program.phase_screens.shape}"
        )
    return replace(program, phase_screens=compose_screens(
        program.phase_screens, realization.static_phases, realization.dynamic_phases, policy))


def build_tomography_program(program: MeshProgram, read_layer: int) -> MeshProgram:
    """Route the state at ``read_layer`` straight to the output.

    Cells in later layers become bar-state wires and their screens are
    zeroed, so the final intensities equal the layer-``read_layer``
    intensities exactly.
    """
    depth = program.depth
    if not 1 <= read_layer <= depth:
        raise ValueError(f"read_layer {read_layer} outside [1, {depth}]")
    settings = {
        cell: (WIRE if cell.layer > read_layer else setting)
        for cell, setting in program.cell_settings.items()
    }
    screens = program.phase_screens.copy()
    screens[:, read_layer:] = 0.0
    return MeshProgram(settings, screens)
