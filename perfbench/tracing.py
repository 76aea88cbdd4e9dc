"""Spans around the calls into meshwalk's layers, recorded from outside.

:func:`install` replaces module-level callables of the package with
wrappers that record one span per call: name, start, end and the index of
the enclosing span.  Spans stay in memory; the caller writes them out when
the run ends.  A target that no longer exists is reported as absent and
skipped, so a later refactor of the package never crashes the trace.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute path, span name).  Stage spans: _sample_block is
# *sample*, the self time of _level_intensity_stacks is *screens*,
# _propagate_block is *propagate*, _reduce is *reduce*.
TARGETS = (
    ("meshwalk.ensemble", "run_sweep", "run_sweep"),
    ("meshwalk.ensemble", "_level_task", "level"),
    ("meshwalk.ensemble", "_level_intensity_stacks", "stacks"),
    ("meshwalk.ensemble", "_layer_matrices", "matrices"),
    ("meshwalk.ensemble", "_sample_block", "sample"),
    ("meshwalk.ensemble", "_propagate_block", "propagate"),
    ("meshwalk.ensemble", "_reduce", "reduce"),
    ("meshwalk.ensemble", "EnsembleResult.save", "save"),
    ("meshwalk.ensemble", "EnsembleResult.write_csv", "csv"),
    ("meshwalk.analysis", "detect_enaqt", "detect_enaqt"),
)


class Recorder:
    """In-memory span list: ``[name, start, end, parent_index]`` per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
        return traced


def install(recorder: Recorder, targets=TARGETS) -> None:
    """Wrap every target, and rebind each name a loaded module imported."""
    for module_name, path, span_name in targets:
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            recorder.absent.append(f"{module_name}.{path}")
            continue
        wrapped = recorder.wrap(span_name, original)
        setattr(owner, attr, wrapped)
        if outer:
            continue
        # ``from .ensemble import run_sweep`` binds the original elsewhere.
        for name, module in list(sys.modules.items()):
            if name.startswith("meshwalk") and getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, total time and total self time, in seconds."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span[0], {"count": 0, "total_s": 0.0, "self_s": 0.0,
                                         "durations": []})
        entry["count"] += 1
        entry["total_s"] += span[2] - span[1]
        entry["self_s"] += own
        entry["durations"].append(span[2] - span[1])
    return out


def coverage(spans, parent_name: str = "level",
             stage_names=("stacks", "reduce")) -> float:
    """Share of the ``parent_name`` spans' time that stage child spans cover."""
    total = sum(s[2] - s[1] for s in spans if s[0] == parent_name)
    parents = {i for i, s in enumerate(spans) if s[0] == parent_name}
    covered = sum(s[2] - s[1] for s in spans if s[0] in stage_names and s[3] in parents)
    return covered / total if total > 0 else 0.0


def propagate_cost(num_modes: int, depth: int, read_layers) -> tuple[int, int]:
    """Computed floating-point operations and bytes of one realization's propagate.

    Counts follow ``_propagate_block``.  Every (mode, layer) phase is copied
    to mode-major order and turned into a complex factor (cos and sin are
    not counted as flops).  Up to the last read layer, each cell is a complex
    2x2 matrix-vector product (4 complex multiplies and 2 adds, 28 flops)
    reading and writing two amplitudes, each layer multiplies the state by
    its factors (6 flops per mode), and each read layer takes |a|^2 per mode
    (3 flops) and writes a float.  Bytes are array traffic computed from
    shapes, ignoring caches.
    """
    m, last = num_modes, max(read_layers)
    cells = last * (last + 1) // 2
    flops = 28 * cells + 6 * m * last + 3 * m * len(read_layers)
    phase_bytes = depth * m * (8 + 8 + 8 + 8 + 16)  # copy, cos, sin, factor write
    cell_bytes = cells * 4 * 16
    layer_bytes = last * m * (16 + 16 + 16)  # factor read, state read and write
    read_bytes = len(read_layers) * m * (16 + 8)
    return flops, phase_bytes + cell_bytes + layer_bytes + read_bytes
