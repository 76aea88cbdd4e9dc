"""Disorder-ensemble execution: levels x realizations, deterministic and parallel.

A sweep evaluates a grid of disorder levels; each level propagates N
independent realizations and reduces them to a per-mode ensemble
mean and standard error.  Realizations run in chunks of at most ``_CHUNK``,
a range of one level or several whole levels: a chunk's fields come from
one :func:`~meshwalk.programs.draw_block` call, already in the kernel's
packed layout, its phase screens from
:func:`~meshwalk.programs.compose_screens` (the disorder is the whole
screen), and the whole chunk goes through the one propagation kernel,
:func:`~meshwalk.lattice.evolve`, at once, with the walk's layer matrices
(:func:`_layer_matrices`) built once per run.  The layout is cone-packed end
to end: the phases are composed for each screen's, and the intensities
propagated and stored for each layer's, :func:`~meshwalk.lattice.live_rows`
alone; no screen follows the mesh's last layer.  Every other row is exactly
zero, and its record reads mean and standard error +0.0.
Every realization's fields are a function of
``(master_seed, level_index, realization_index)`` alone, each row's sums are
exact bucketed sums rounded once, equal to ``math.fsum`` of its row in
realization order (:func:`_reduce`), so a stack of several levels' rows
reduces each as it would alone, and records are assembled sorted by
``(level_index, read_layer)`` — so the result is bit-identical no matter how
many workers ran it.

:func:`run_sweep` is the one way to run levels: a single level is a plan
whose grid holds one entry.  The run in progress (its plan, layer matrices,
split levels' mapping and pending levels) is module state, so a process runs
one sweep at a time.
Forked pool workers inherit it, so a task carries indices alone, and a
serial run goes through the same loop as a pooled one.  The pool runs one
function, :func:`_level_task`, whose task fills a realization range of
pending levels at every read layer of the plan and then reduces a range of
read layers: a pack of whole levels is filled and reduced in one task, each
read layer's stack holding the pack's levels' live rows one after another
for one :func:`_reduce` call; a split level's ranges fill one anonymous
shared mapping, and its read layers are reduced in a second round of tasks
once every range is filled.  :func:`run_sweep` states which levels are split
and which are packed.

A record is a measured per-mode mean and standard error, keyed by
``(level_index, read_layer)``, and its stored form holds that key and that
measurement alone (:func:`_entry`): the plan, stored once, holds every level's
strengths and realization count.  Persistence is one JSON document per sweep
(its format, the plan, the generator identity among it, and one record per
level and read layer) plus an optional flat CSV table.  Each output format is
stated here once: documents go through :func:`write_json`, tables are
:func:`csv_row` lines written by :func:`write_lines`.  A running sweep opens
``<out>.ckpt`` once, locks it and appends each record through that one handle,
after a header naming the document format and the plan hash, as one line that
carries the CRC-32 of its JSON text (:func:`_checkpoint_line`).  The level is
the unit of resume: a rerun of the plan runs again, whole, each level that
lacks a record there, and appends only the records it lacks; loading a
document or a checkpoint checks every record against the plan
(:func:`_records`), and a document holds one per level and read layer.
Documents and tables are written to a uniquely named temporary sibling, synced
to disk and renamed into place, so a crash of the process or of the machine
leaves the old file or the new one, never half of one; the next write of that
path removes a temporary that a killed process left.  Checkpoint appends are
not synced, so a machine crash can cost a checkpoint its last records (see
:func:`run_sweep`).
"""

from __future__ import annotations

import contextlib
import ctypes
import fcntl
import hashlib
import itertools
import json
import math
import mmap
import multiprocessing
import os
import re
import signal
import stat
import sys
import tempfile
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .lattice import (HADAMARD, INPUT_SPLITTER, MeshSpec, cell_unitary, evolve, intensities,
                      live_rows)
from .programs import GENERATOR_IDENTITY, SCREEN_POLICY, DisorderSpec, compose_screens
# The sample stage under a name of its own, which the benchmark's tracer wraps.
from .programs import draw_block as _sample_block

DOCUMENT_FORMAT = "meshwalk-sweep-result/3"
CSV_HEADER = "c_tid,c_td,layer,mode,mean,std_error"

# Realizations are processed in chunks of at most this many: a range of one
# level, or whole levels packed together.  It bounds one chunk's temporaries
# and changes no bit of a result: each realization's draws are its own, and
# each level's rows are reduced over the whole level.
_CHUNK = 2048
# A stack is reduced in blocks of at most this many values: several whole
# rows, or a segment of one.  It bounds the reduction's temporaries and
# changes no bit, since every sum is exact until its last rounding; it must
# stay below 2**26 (see _reduce).
_BLOCK = 1 << 14
# frexp exponents whose values the bucketed sum takes exactly: normal, and
# below 2**960, so that no bucket term and no partial sum of their fsum overflows.
_EXPONENTS = (-1021, 960)
# (mant + _SPLIT) - _SPLIT rounds a mantissa |mant| < 1 to a multiple of 2**-26.
_SPLIT = 1.5 * 2.0**26
# Tables are written this many lines to a write call: few calls, and a bounded
# string at a time whatever the table's length.
_LINES = 1024
# What follows a path's name in the name of each of its temporaries:
# tempfile.mkstemp's eight random characters, then _replacing's suffix.
_TEMPORARY = r"\.[a-z0-9_]{8}\.tmp"


def _remove_stale_temporaries(head: str, name: str) -> None:
    """Remove the temporaries of ``name`` in directory ``head`` that no writer holds.

    A killed writer leaves its temporary behind.  A sibling is removed only if
    it is a regular file, its name is ``name`` followed by the random part and
    suffix that :func:`_replacing` gives a temporary of that path
    (:data:`_TEMPORARY`), and its ``flock`` can be taken without waiting: a
    live writer holds it until its file is renamed into place.  The lock is
    held across the removal.
    """
    own = re.compile(re.escape(name) + _TEMPORARY)
    with os.scandir(head) as entries:
        stale = [entry.path for entry in entries
                 if own.fullmatch(entry.name) and entry.is_file(follow_symlinks=False)]
    for tmp in stale:
        with contextlib.suppress(OSError):
            fd = os.open(tmp, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                held = os.fstat(fd)
                if stat.S_ISREG(held.st_mode) and os.path.samestat(held, os.lstat(tmp)):
                    os.remove(tmp)
            finally:
                os.close(fd)


@contextlib.contextmanager
def _replacing(path: str):
    """Text file that replaces ``path`` only once it is completely written.

    Writes go to a uniquely named temporary sibling with the mode a plain
    ``open`` gives, synced to disk and then renamed over ``path`` on success,
    or removed on failure, so neither a crashed process nor a crashed machine
    leaves a half-written ``path``, and no other writer shares the sibling.
    The writer holds an exclusive ``flock`` on its temporary until the rename,
    and first removes the temporaries of ``path`` that killed writers left
    (:func:`_remove_stale_temporaries`).  A temporary that another writer's
    removal unlinked before it was locked is replaced by a new one.
    """
    head, name = os.path.split(path)
    head = head or "."
    _remove_stale_temporaries(head, name)
    while True:
        fd, tmp = tempfile.mkstemp(prefix=f"{name}.", suffix=".tmp", dir=head)
        fcntl.flock(fd, fcntl.LOCK_EX)
        if os.fstat(fd).st_nlink:
            break
        os.close(fd)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
            os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_json(path: str, doc) -> None:
    """Replace ``path`` with ``doc`` as JSON: one-space indent, sorted keys, final newline."""
    with _replacing(path) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def csv_row(cells) -> str:
    """One CSV line of ``cells``.

    A string is written as given, an int as its digits, and a float, numpy
    scalars included, as the ``repr`` of its Python value: the shortest
    decimal that reads back as that float, the same under numpy 1.x and 2.x.
    """
    return ",".join([repr(c) if type(c) is float or type(c) is int else c if isinstance(c, str)
                     else repr(c.item() if isinstance(c, np.generic) else c) for c in cells])


def write_lines(path: str, lines) -> None:
    """Replace ``path`` with ``lines``, each ended by a newline, ``_LINES`` lines to a write."""
    lines = iter(lines)
    with _replacing(path) as fh:
        while block := list(itertools.islice(lines, _LINES)):
            fh.write("\n".join(block) + "\n")


def make_grid(n_tid: int, n_td: int) -> list[DisorderSpec]:
    """Row-major lattice of disorder levels over [0, 1] x [0, 1]."""
    tids, tds = (np.linspace(0.0, 1.0, n) for n in (n_tid, n_td))
    return [DisorderSpec(float(a), float(b)) for a in tids for b in tds]


@dataclass(frozen=True)
class SweepPlan:
    spec: MeshSpec
    grid: tuple[DisorderSpec, ...]
    realizations_per_level: int
    master_seed: int
    read_layers: tuple[int, ...] = ()

    def __post_init__(self):
        if self.realizations_per_level < 1:
            raise ValueError("realizations_per_level must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if not self.grid:
            raise ValueError("grid must be non-empty")
        object.__setattr__(self, "grid", tuple(self.grid))
        layers = tuple(self.read_layers) or (self.spec.depth,)
        for t in layers:
            if not 1 <= t <= self.spec.depth:
                raise ValueError(f"read layer {t} outside [1, {self.spec.depth}]")
        if len(set(layers)) < len(layers):
            raise ValueError(f"read layers {layers} repeat a layer")
        object.__setattr__(self, "read_layers", layers)

    def to_dict(self) -> dict:
        return {
            "num_modes": self.spec.num_modes,
            "depth": self.spec.depth,
            "injection_mode": self.spec.injection_mode,
            "grid": [[lvl.c_tid, lvl.c_td] for lvl in self.grid],
            "realizations_per_level": self.realizations_per_level,
            "master_seed": self.master_seed,
            "read_layers": list(self.read_layers),
            "policy": SCREEN_POLICY,
            "generator": GENERATOR_IDENTITY,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepPlan":
        if data["policy"] != SCREEN_POLICY:
            raise ValueError(f"policy {data['policy']!r} is not {SCREEN_POLICY!r}")
        if data["generator"] != GENERATOR_IDENTITY:
            raise ValueError(f"generator {data['generator']!r} is not {GENERATOR_IDENTITY!r}")
        return cls(
            spec=MeshSpec(data["num_modes"], data["depth"], data["injection_mode"]),
            grid=tuple(DisorderSpec(a, b) for a, b in data["grid"]),
            realizations_per_level=data["realizations_per_level"],
            master_seed=data["master_seed"],
            read_layers=tuple(data["read_layers"]),
        )

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class LevelRecord:
    """One (level, read layer)'s measurement: per-mode ensemble mean and standard error."""

    mean: np.ndarray
    std_error: np.ndarray


# The fields of a stored record, in the order of a checkpoint line.
_RECORD_FIELDS = ("level_index", "read_layer", "mean", "std_error")


def _entry(key: tuple[int, int], mean, std_error) -> dict:
    """The document and checkpoint form of ``key``'s record: the key and the measurement.

    The checkpoint is dumped without ``sort_keys``, so its lines keep this order.
    """
    return dict(zip(_RECORD_FIELDS, (*key, mean, std_error)))


@dataclass
class EnsembleResult:
    plan: SweepPlan
    records: dict[tuple[int, int], LevelRecord]
    io_errors: list[str] = field(default_factory=list)

    def record(self, level_index: int, read_layer: int | None = None) -> LevelRecord:
        layer = read_layer if read_layer is not None else self.plan.spec.depth
        return self.records[(level_index, layer)]

    def to_document(self) -> dict:
        # Deliberately no timestamps: rerunning a plan must reproduce the
        # document byte for byte.
        return {
            "format": DOCUMENT_FORMAT,
            "plan": self.plan.to_dict(),
            "plan_hash": self.plan.hash(),
            "records": [_entry(key, rec.mean.tolist(), rec.std_error.tolist())
                        for key, rec in sorted(self.records.items())],
        }

    def save(self, path: str) -> None:
        write_json(path, self.to_document())

    @classmethod
    def load(cls, path: str) -> "EnsembleResult":
        """The result stored at ``path``, which holds one record per level and read layer."""
        with open(path) as fh:
            doc = json.load(fh)
        found = doc.get("format") if isinstance(doc, dict) else None
        if found != DOCUMENT_FORMAT:
            raise ValueError(f"{path}: not a {DOCUMENT_FORMAT} document (format {found!r})")
        with _malformed(f"{path}: malformed {DOCUMENT_FORMAT} document"):
            plan = SweepPlan.from_dict(doc["plan"])
            if doc["plan_hash"] != plan.hash():
                raise ValueError(f"plan_hash {doc['plan_hash']!r} is not the plan's hash")
            records = _records(plan, doc["records"])
            if len(records) != len(plan.grid) * len(plan.read_layers):
                raise ValueError(f"{len(records)} records, not one per level and read layer")
            return cls(plan, records)

    def to_rows(self) -> list[tuple[float, float, int, int, float, float]]:
        """Flat (c_tid, c_td, layer, mode, mean, std_error) rows, one per mode."""
        rows = []
        for (level_index, layer), rec in sorted(self.records.items()):
            level = self.plan.grid[level_index]
            rows += [(level.c_tid, level.c_td, layer, x, mean, se) for x, (mean, se)
                     in enumerate(zip(rec.mean.tolist(), rec.std_error.tolist()), start=1)]
        return rows

    def write_csv(self, path: str) -> None:
        write_lines(path, itertools.chain([CSV_HEADER], map(csv_row, self.to_rows())))


@contextlib.contextmanager
def _malformed(what: str):
    """Re-raise a ``KeyError``, ``TypeError`` or ``ValueError`` as one ``ValueError``."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{what} ({type(exc).__name__}: {exc})") from None


def _records(plan: SweepPlan, entries) -> dict[tuple[int, int], LevelRecord]:
    """``plan``'s records parsed from their dict forms, each checked against it.

    An entry's key must be one of the plan's, as :func:`_entry` writes it, so
    a resumed document is byte for byte the fresh one: ``true`` and ``7.0``
    are not the integers ``1`` and ``7``.  A run writes each key once, so a
    repeated key is rejected.  The entry must then hold exactly the fields
    :func:`_entry` writes; one that holds a field the plan holds, such as a
    level's ``c_tid``, is rejected.  Means and standard errors must be finite
    and standard errors non-negative, as every run writes them.  A subset of
    the plan's records is accepted, as a checkpoint holds.
    """
    records = {}
    for entry in entries:
        level_index, read_layer = key = entry["level_index"], entry["read_layer"]
        if not (type(level_index) is int and level_index in range(len(plan.grid))
                and type(read_layer) is int and read_layer in plan.read_layers):
            raise ValueError(f"record level_index {level_index!r}, read_layer {read_layer!r} "
                             f"is not in the plan's {len(plan.grid)} levels x read layers "
                             f"{plan.read_layers}")
        if key in records:
            raise ValueError(f"record level_index {level_index}, read_layer {read_layer} "
                             "repeats an earlier record")
        if set(entry) != set(_RECORD_FIELDS):
            raise ValueError(f"record {key}: fields {sorted(entry)} are not {list(_RECORD_FIELDS)}")
        rec = LevelRecord(*(np.asarray(entry[k], dtype=float) for k in ("mean", "std_error")))
        if rec.mean.shape != (plan.spec.num_modes,) or rec.std_error.shape != rec.mean.shape:
            raise ValueError(f"record {key}: arrays are not {plan.spec.num_modes} modes long")
        if not (np.isfinite(rec.mean).all() and np.isfinite(rec.std_error).all()
                and (rec.std_error >= 0).all()):
            raise ValueError(f"record {key}: a mean or standard error is not finite, "
                             "or a standard error is negative")
        records[key] = rec
    return records


def _layer_matrices(spec: MeshSpec) -> list[np.ndarray]:
    """The walk's stacked cell unitaries: the input splitter, then Hadamards."""
    return [np.stack([cell_unitary(INPUT_SPLITTER if t == 1 else HADAMARD)] * t)
            for t in range(1, spec.depth + 1)]


def _propagate_block(spec: MeshSpec, mats: list[np.ndarray], phases: np.ndarray,
                     read_layers: tuple[int, ...]) -> dict[int, np.ndarray]:
    """(live rows, count) intensities of one block's packed phases at every read layer."""
    return {t: intensities(state[slice(*live_rows(spec, t))])
            for t, state in evolve(spec, mats, phases, max(read_layers)) if t in read_layers}


def _level_intensity_stacks(plan: SweepPlan, mats: list[np.ndarray], level_indices,
                            lo: int, hi: int, stacks: dict[int, np.ndarray]) -> None:
    """Fill columns lo..hi-1 of ``stacks`` with the intensities of those realizations.

    ``level_indices`` name levels of ``plan``, and ``stacks`` maps each read
    layer ``t`` to their level-major (levels * rows, n) stack of the layer's
    ``rows`` live rows (:func:`~meshwalk.lattice.live_rows`) alone: level j
    holds rows j*rows onwards.  The rows outside are exactly zero, and are
    neither propagated nor stored.  ``mats`` are the walk's layer matrices,
    and each chunk's phase screens are its disorder alone.  A chunk holds at
    most ``_CHUNK`` realizations, the same columns of every level: it is
    drawn, composed and propagated at once and fills its own columns.
    """
    spec, read_layers, k = plan.spec, tuple(stacks), len(level_indices)
    levels = [plan.grid[i] for i in level_indices]
    strengths = [level.c_tid for level in levels], [level.c_td for level in levels]
    step = max(1, _CHUNK // k)
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        fields = _sample_block(plan.master_seed, level_indices, a, b, spec)
        # Each realization takes its level's strengths.
        phases = compose_screens(spec, *(np.repeat(c, b - a) for c in strengths), fields)
        # Drop each stage's input once it is used, so that the next stage's
        # temporaries do not add to it: at 2048 realizations each is MBs.
        del fields
        blocks = _propagate_block(spec, mats, phases, read_layers)
        del phases
        for t, block in blocks.items():  # every stack is C-contiguous, so reshape is a view
            rows = len(block)
            stacks[t].reshape(k, rows, -1)[:, :, a:b] = block.reshape(rows, k, -1).swapaxes(0, 1)


def _bucket_terms(block: np.ndarray) -> np.ndarray | None:
    """Exact terms of each row's sum of ``block``, a row of terms per block row.

    ``None`` if the block holds a non-finite value or an exponent outside
    ``_EXPONENTS``.
    """
    k, c = block.shape
    mant, idx = np.frexp(block, out=(None, np.empty((k, c), np.intp)))
    lo, hi = idx.min(axis=1), idx.max(axis=1)
    if lo.min() < _EXPONENTS[0] or hi.max() > _EXPONENTS[1]:
        return None
    span = int((hi - lo).max()) + 1
    idx += (np.arange(k) * span - lo)[:, None]
    idx = idx.ravel()
    high = mant + _SPLIT
    high -= _SPLIT
    low = np.subtract(mant, high, out=mant)
    scale = lo[:, None] + np.arange(span)
    terms = np.concatenate([
        np.ldexp(np.bincount(idx, limb.ravel(), k * span).reshape(k, span), scale)
        for limb in (high, low)], axis=1)
    if math.isnan(terms.max()):  # a non-finite value's low limb is NaN
        return None
    return terms


def _group_sums(group: np.ndarray, values) -> list[float]:
    """``math.fsum`` of each row of ``values(group)``, bit for bit (see :func:`_reduce`).

    ``values`` maps a block of the group's columns to the values to sum, the
    same shape.  A block is the whole group of whole rows or, for long rows,
    one row's segment.  The blocks' bucket terms stay arrays until the last
    block; then one mask gathers the group's non-zero terms, row after row,
    into one list, and each row's run of it takes one ``math.fsum``.  A block
    that cannot be bucketed sends the group to ``math.fsum`` of each row of
    ``values(group)``.
    """
    blocks = []
    for c in range(0, group.shape[1], _BLOCK):
        terms = _bucket_terms(values(group[:, c:c + _BLOCK]))
        if terms is None:  # the group takes math.fsum itself
            return list(map(math.fsum, values(group)))
        blocks.append(terms)
    terms = np.concatenate(blocks, axis=1)
    nonzero = terms != 0  # the empty buckets' zeros are dropped
    flat = iter(terms[nonzero].tolist())
    return [math.fsum(itertools.islice(flat, k)) for k in nonzero.sum(axis=1).tolist()]


def _reduce(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of each mode's row, from sums equal to ``math.fsum``'s.

    Each value is ``mant * 2**e`` (``np.frexp``), and ``mant`` splits into two
    27-bit limbs.  ``np.bincount`` sums each limb per (row, exponent) bucket
    exactly while a block holds fewer than 2**26 values, and ``np.ldexp``
    scales the totals back exactly for normal ``e``.  One ``math.fsum`` over a
    row's terms rounds their exact sum correctly, as ``math.fsum`` of the row
    does; a block with a subnormal, non-finite or huge value takes ``math.fsum``.

    The stack is walked once, in groups of whole rows that fill a ``_BLOCK``
    (one row when rows are longer): a group's sums give its means, then its
    squared deviations from them are summed (:func:`_group_sums`), before the
    next group starts.  So temporaries stay the size of one block, and held
    terms number at most two per (row, exponent) bucket of each block; a
    group that takes ``math.fsum`` itself holds one group's values.
    """
    m, n = stack.shape
    rows = max(1, _BLOCK // n)
    mean, deviations = np.empty(m), np.empty(m)
    with np.errstate(invalid="ignore"):  # inf - inf in a block that takes math.fsum
        for r in range(0, m, rows):
            group = stack[r:r + rows]
            mu = mean[r:r + rows] = np.array(_group_sums(group, lambda block: block)) / n
            deviations[r:r + rows] = _group_sums(group, lambda block: (block - mu[:, None]) ** 2)
    return mean, np.sqrt(deviations / (n - 1) / n) if n > 1 else np.zeros(m)


# The run in progress (see run_sweep): plan, layer matrices, the anonymous
# shared mapping that holds the split levels' stacks back to back (``None``
# when no level is split), and the pending levels, those that lack a record.
# Set before workers fork, so every _level_task reads it; empty between runs.
_run: tuple = ()


def _live_counts(plan: SweepPlan) -> dict[int, int]:
    """The number of live rows of each read layer, the rows its stacks hold."""
    return {t: stop - start for t in plan.read_layers
            for start, stop in [live_rows(plan.spec, t)]}


def _stacks(first: int, last: int) -> dict[int, np.ndarray]:
    """The stacks of pending levels first..last-1, one per read layer of the plan.

    A stack is level-major, (levels * rows, n) for the read layer's ``rows``
    live rows, and new, unless the levels are split: then a level's stacks are
    its part of the shared mapping, which holds a slot of that many rows for
    every read layer of every pending level, so the tasks that fill a split
    level's ranges and those that reduce its read layers see the same stacks.
    """
    plan, _, mapping, _ = _run
    n, counts = plan.realizations_per_level, _live_counts(plan)
    if mapping is None:
        return {t: np.empty(((last - first) * rows, n)) for t, rows in counts.items()}
    offsets = itertools.accumulate(counts.values(), initial=0)
    size = sum(counts.values()) * n
    slots = np.frombuffer(mapping, float, size, first * size * 8).reshape(-1, n)
    return {t: slots[offset:offset + rows] for (t, rows), offset in zip(counts.items(), offsets)}


def _level_task(args) -> list[tuple[int, dict[int, tuple[np.ndarray, np.ndarray]]]]:
    """Fill realizations lo..hi-1 of pending levels first..last-1, then reduce read layers.

    ``args`` is ``(first, last, lo, hi, a, b)``, six ints, the one task form
    of :func:`run_sweep`, in one of three shapes for ``n`` realizations per
    level and ``R`` read layers: a pack of whole levels ``(f, l, 0, n, 0, R)``,
    a range of split level ``p`` ``(p, p + 1, lo, hi, 0, 0)``, and, once every
    range is filled, the reduce of its read layer ``read_layers[j]``
    ``(p, p + 1, 0, 0, j, j + 1)``.  The fill covers every read layer of the
    plan, a resumed level's recorded ones included; an empty range fills
    nothing.  Then each of the plan's ``read_layers[a:b]`` is reduced, its
    levels' stack (:func:`_stacks`) by one :func:`_reduce` call.  A row
    outside a layer's live rows is exactly zero in every realization, so its
    mean and standard error are +0.0, which :func:`_reduce` would give it.
    Returns each level's index and its reduced layers' means and standard
    errors, in level order.
    """
    first, last, lo, hi, a, b = args
    plan, mats, _, pending = _run
    spec, levels = plan.spec, pending[first:last]
    stacks = _stacks(first, last)
    _level_intensity_stacks(plan, mats, levels, lo, hi, stacks)
    reduced = {}
    for t in plan.read_layers[a:b]:
        start, stop = live_rows(spec, t)
        reduced[t] = np.zeros((2, len(levels), spec.num_modes))
        reduced[t][:, :, start:stop] = np.reshape(_reduce(stacks[t]),
                                                  (2, len(levels), stop - start))
    return [(idx, {t: (mean[j], se[j]) for t, (mean, se) in reduced.items()})
            for j, idx in enumerate(levels)]


_PR_SET_PDEATHSIG = 1  # prctl option, <linux/prctl.h>


def _init_worker(parent: int, ckpt) -> None:
    """Pool initializer: tie a worker forked from the run to it; the run itself is inherited.

    ``ckpt`` is the run's checkpoint handle, or ``None``.  The worker closes
    its inherited copy: a lock lives on while any copy is open, so workers
    that outlive a killed run would otherwise keep its checkpoint locked.
    The worker then asks the kernel to kill it when its parent dies, so the
    workers of a run whose process alone is killed do not live on,
    re-parented, holding their memory; one whose parent died between its
    fork and this call exits at once.  Where ``prctl`` is missing (not
    Linux), only that check is made.
    """
    if ckpt is not None:
        ckpt.close()
    with contextlib.suppress(OSError, AttributeError):
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _checkpoint_line(entry: dict) -> bytes:
    """``entry``'s checkpoint line: its JSON text's CRC-32 in 8 hex digits, a space, the text."""
    text = json.dumps(entry).encode()
    return b"%08x %s\n" % (zlib.crc32(text), text)


def _checkpoint_entry(line: bytes):
    """The entry of a checkpoint line that ends in its newline; its CRC-32 must hold."""
    text = line[9:-1]
    if line[:9] != b"%08x " % zlib.crc32(text):
        raise ValueError("CRC-32 does not match")
    return json.loads(text)


def _resume(path: str, plan: SweepPlan):
    """The checkpoint at ``path``, locked and open for appends, and ``plan``'s records in it.

    ``path`` is opened without truncating and takes an exclusive ``flock``
    before it is read, without waiting: a file that another run holds raises
    ``BlockingIOError`` naming ``path``.  A file that does not start with the
    header, which names :data:`DOCUMENT_FORMAT` and the plan hash, holds none
    of the plan's records: a checkpoint of another plan or record form is
    replaced.  Each record line carries the CRC-32 of its JSON text
    (:func:`_checkpoint_line`); a blank line is skipped.  A crash mid-append
    leaves the last line without its newline or its CRC; that line is cut from
    the file, so later appends start on a fresh line, and its record is
    recomputed.  A bad line anywhere else, a record that is not one of the
    plan's, or a record that repeats an earlier one's key, even on the last
    line, is corruption and raises ``ValueError``: a run appends each record
    once, and a crash tears at most its last line.  A file of none of the
    plan's records is emptied and given the header.  The lock lasts until the
    returned binary handle is closed.
    """
    fh = open(path, "a+b")
    try:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        fh.seek(0)
        header = json.dumps({"format": DOCUMENT_FORMAT, "plan_hash": plan.hash()}).encode() + b"\n"
        lines = fh.readlines()
        entries = []
        for number, line in enumerate(lines[1:] if lines[:1] == [header] else [], start=2):
            try:
                if not line.endswith(b"\n"):
                    raise ValueError("no line end")
                if line.strip():
                    entries.append(_checkpoint_entry(line))
            except ValueError as exc:
                if number < len(lines):
                    raise ValueError(f"{path}: corrupt checkpoint line {number}: {exc}") from None
                fh.truncate(len(b"".join(lines[:-1])))
        with _malformed(f"{path}: malformed checkpoint record"):
            done = _records(plan, entries)
        if not done:  # appends follow a valid header
            fh.truncate(0)
            fh.write(header)
            fh.flush()
    except BlockingIOError as exc:
        fh.close()
        raise BlockingIOError(exc.errno, "checkpoint in use by another run", path) from None
    except BaseException:
        fh.close()
        raise
    return fh, done


def run_sweep(plan: SweepPlan, out_path: str | None = None, workers: int | None = None,
              progress=None) -> EnsembleResult:
    """Run every (level, read_layer) of the plan's symmetric walk and persist the result.

    ``workers`` > 1 runs levels in at most that many processes, never more
    than the CPUs this process may run on, nor than the tasks; ``workers``
    < 1 raises ``ValueError`` before the checkpoint is opened.  With fewer
    levels to run than that, each level is cut into enough equal contiguous
    realization ranges to occupy every worker, each of at least four chunks,
    since a smaller level's fill saves less than the pool and the reduce
    round cost: forked workers fill their ranges into one anonymous shared
    mapping, then reduce its read layers, each a whole row in realization
    order.  Otherwise levels of at most half a chunk run in packs: a task
    takes up to ``_CHUNK // n`` consecutive pending levels, leaving at least
    four tasks per worker, and draws, propagates and reduces each read layer
    of the pack as one level-major stack.  A split level holds eight chunks
    or more, a packed one half a chunk or less, so no task is both.  The
    outcome does not depend on the worker count or the packing, and the
    levels' records arrive in level order either way.  The run is module
    state (``_run``), set before any worker forks, so workers inherit it and
    a task is six ints, whose shapes :func:`_level_task` states; with one
    worker the same tasks go through the same loop in this process.  A
    process runs one sweep at a time.  With ``out_path`` set,
    ``<out_path>.ckpt`` is opened once and locked (:func:`_resume`): a
    checkpoint of this plan is resumed, any other file there is replaced, and
    each finished record is appended through that handle.  The pending
    levels are those that lack a record; each runs again whole, at every read
    layer, and the records the checkpoint holds are computed again, bit for
    bit, and dropped.  The run holds the handle until its levels have run; a
    checkpoint that another run holds raises ``BlockingIOError`` before any
    level runs.  Pool workers close their inherited copies
    (:func:`_init_worker`).

    Appends are flushed, not synced: a tail lost in a machine crash only makes
    a resume recompute those records, bit for bit, and a torn last line is
    already dropped.  An fsync per record would add about 50 ms on ext4, some
    4% of a 400-level sweep's wall time.  A failed read, open or append is one
    ``io_errors`` warning and ends checkpointing; the document is still written.
    """
    global _run
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    mats = _layer_matrices(plan.spec)
    io_errors: list[str] = []

    done: dict[tuple[int, int], LevelRecord] = {}
    ckpt = None
    if out_path:
        try:
            ckpt, done = _resume(out_path + ".ckpt", plan)
        except BlockingIOError:
            raise
        except OSError as exc:
            io_errors.append(f"checkpoint open failed: {exc}")
    appending = ckpt is not None
    records = dict(done)
    pending = tuple(idx for idx in range(len(plan.grid))
                    if any((idx, t) not in done for t in plan.read_layers))

    # Split and pack sizes as the docstring states them.  Never more
    # processes than tasks: a pool forks all its workers at the first submit.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    usable = min(workers if workers is not None else cpus, cpus)
    n = plan.realizations_per_level
    parts = max(1, min(-(-usable // len(pending)), n // (4 * _CHUNK))) if pending else 1
    pack = max(1, min(_CHUNK // n, -(-len(pending) // (4 * usable))))
    split, layers = parts > 1, len(plan.read_layers)
    tasks = [(p, min(p + pack, len(pending)), n * k // parts, n * (k + 1) // parts, 0,
              0 if split else layers) for p in range(0, len(pending), pack) for k in range(parts)]
    nworkers = min(usable, len(tasks))
    try:
        # The split levels' stacks are one anonymous shared mapping, made
        # before the workers fork and gone with the last process that maps
        # it.  Workers are forked from this process whatever the default
        # start method ('forkserver' from Python 3.14 on Linux): they inherit
        # the run, and _init_worker ties each to it.
        size = 8 * len(pending) * sum(_live_counts(plan).values()) * n if split else 0
        if size > sys.maxsize:  # beyond any address space; mmap would raise OverflowError
            raise MemoryError(f"Unable to allocate {size} bytes of intensity stacks")
        with (mmap.mmap(-1, size) if split else contextlib.nullcontext()) as mapping:
            _run = (plan, mats, mapping, pending)
            with (ProcessPoolExecutor(max_workers=nworkers,
                                      mp_context=multiprocessing.get_context("fork"),
                                      initializer=_init_worker, initargs=(os.getpid(), ckpt))
                  if nworkers > 1 else contextlib.nullcontext()) as pool:
                dispatch = map if pool is None else pool.map
                results = dispatch(_level_task, tasks)
                if split:  # every range is filled before any layer is reduced
                    list(results)
                    results = dispatch(_level_task, [(p, p + 1, 0, 0, j, j + 1)
                                                     for p in range(len(pending))
                                                     for j in range(layers)])
                for idx, per_layer in itertools.chain.from_iterable(results):
                    for t, (mean, se) in per_layer.items():
                        if (idx, t) in done:  # a resumed level's recorded layer
                            continue
                        records[(idx, t)] = LevelRecord(mean, se)
                        if appending:
                            try:
                                ckpt.write(_checkpoint_line(
                                    _entry((idx, t), mean.tolist(), se.tolist())))
                                ckpt.flush()
                            except OSError as exc:
                                io_errors.append(f"level {idx}: checkpoint write failed: {exc}")
                                appending = False
                    if progress:
                        progress(len(records), len(plan.grid) * len(plan.read_layers))
    finally:
        _run = ()
        if ckpt is not None:
            with contextlib.suppress(OSError):  # a failed tail is flushed again
                ckpt.close()

    result = EnsembleResult(plan, records, io_errors=io_errors)
    if out_path:
        result.save(out_path)
    return result
