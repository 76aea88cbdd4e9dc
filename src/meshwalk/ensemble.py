"""Disorder-ensemble execution: levels x realizations, deterministic and parallel.

A sweep evaluates a grid of disorder levels; each level propagates N
independently-seeded realizations and reduces them to a per-mode ensemble
mean and standard error.  Realizations run in chunks of at most ``_CHUNK``,
a range of one level or several whole levels: a chunk's fields come from
one :func:`~meshwalk.programs.draw_block` call, its phase screens from
:func:`~meshwalk.programs.compose_screens` (the disorder is the whole
screen), and the whole chunk goes through the one propagation kernel,
:func:`~meshwalk.lattice.evolve`, at once, with the walk's layer matrices
(:func:`_layer_matrices`) built once per run.
Every realization's stream is derived from
``(master_seed, level_index, realization_index)``, each row's sums are
exact bucketed sums rounded once, equal to ``math.fsum`` of its row in
realization order (:func:`_reduce`), so a stack of several levels' rows
reduces each as it would alone, and records are assembled sorted by
``(level_index, read_layer)`` — so the result is bit-identical no matter how
many workers ran it.

:func:`run_sweep` is the one way to run levels: a single level is a plan
whose grid holds one entry.  The run in progress (its plan, layer matrices,
pending levels, the read layers each lacks and split levels' mapping) is
module state, so a process runs one sweep at a time.
Forked pool workers inherit it, so a task carries indices alone, and a
serial run goes through the same loop as a pooled one.  A task fills one
realization range of pending levels (:func:`_level_task`): a range of a
split level, whose stacks lie in one anonymous shared mapping and whose
read layers workers reduce once every range is filled (:func:`_reduce_task`),
or a pack of whole levels, filled and reduced in one worker: each read
layer's stack holds the pack's levels one after another, and one
:func:`_reduce` call takes it.  :func:`run_sweep` states which levels are
split and which are packed.

A record is a measured per-mode mean and standard error, keyed by
``(level_index, read_layer)``; the plan writes every other field of its stored
form.  Persistence is one JSON document per sweep (plan echo, generator
identity, one record per level and read layer) plus an optional flat CSV
table.  Each output format is stated here once: documents go through
:func:`write_json`, tables are :func:`csv_row` lines written by
:func:`write_lines`.  A running sweep opens ``<out>.ckpt`` once, locks it and
appends each record through that one handle, and a rerun of the plan computes
only the records missing there; loading a document or a checkpoint checks
every record against what the plan writes.  Documents and tables are written
to a uniquely named temporary sibling, synced to disk and renamed into place,
so a crash of the process or of the machine leaves the old file or the new
one, never half of one.
Checkpoint appends are not synced, so a machine crash can cost a checkpoint
its last records (see :func:`run_sweep`).
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
import signal
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .lattice import HADAMARD, INPUT_SPLITTER, MeshSpec, cell_unitary, evolve, intensities
from .programs import GENERATOR_IDENTITY, DisorderSpec, compose_screens
# The sample stage under a name of its own, which the benchmark's tracer wraps.
from .programs import draw_block as _sample_block

DOCUMENT_FORMAT = "meshwalk-sweep-result/1"
CSV_HEADER = "c_tid,c_td,layer,mode,mean,std_error"

# Realizations are processed in chunks of at most this many: a range of one
# level, or whole levels packed together.  It bounds one chunk's temporaries
# and changes no bit of a result: each realization's stream is its own, and
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
# The plan document's name for the one sign pattern, programs.mode_signs.
_SIGNS = "mirrored-sign"


@contextlib.contextmanager
def _replacing(path: str):
    """Text file that replaces ``path`` only once it is completely written.

    Writes go to a uniquely named temporary sibling with the mode a plain
    ``open`` gives, synced to disk and then renamed over ``path`` on success,
    or removed on failure, so neither a crashed process nor a crashed machine
    leaves a half-written ``path``, and no other writer shares the sibling.
    """
    head, name = os.path.split(path)
    fd, tmp = tempfile.mkstemp(prefix=f"{name}.", suffix=".tmp", dir=head or ".")
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
    return ",".join([c if isinstance(c, str)
                     else repr(c.item() if isinstance(c, np.generic) else c) for c in cells])


def write_lines(path: str, lines) -> None:
    """Replace ``path`` with ``lines``, each ended by a newline."""
    with _replacing(path) as fh:
        fh.writelines(line + "\n" for line in lines)


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
            "policy": _SIGNS,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepPlan":
        if data["policy"] != _SIGNS:
            raise ValueError(f"policy {data['policy']!r} is not {_SIGNS!r}")
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


def _entry(plan: SweepPlan, key: tuple[int, int], mean, std_error) -> dict:
    """The document and checkpoint form of ``key``'s record.

    The plan names every field but the measured ``mean`` and ``std_error``.
    The checkpoint is dumped without ``sort_keys``, so its lines keep this order.
    """
    level_index, read_layer = key
    level = plan.grid[level_index]
    return {"level_index": level_index, "read_layer": read_layer, "c_tid": level.c_tid,
            "c_td": level.c_td, "n": plan.realizations_per_level, "mean": mean,
            "std_error": std_error}


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
            "generator": GENERATOR_IDENTITY,
            "records": [_entry(self.plan, key, rec.mean.tolist(), rec.std_error.tolist())
                        for key, rec in sorted(self.records.items())],
        }

    def save(self, path: str) -> None:
        write_json(path, self.to_document())

    @classmethod
    def load(cls, path: str) -> "EnsembleResult":
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("format") != DOCUMENT_FORMAT:
            raise ValueError(f"{path}: not a {DOCUMENT_FORMAT} document")
        with _malformed(f"{path}: malformed {DOCUMENT_FORMAT} document"):
            plan = SweepPlan.from_dict(doc["plan"])
            if doc["plan_hash"] != plan.hash():
                raise ValueError(f"plan_hash {doc['plan_hash']!r} is not the plan's hash")
            if doc["generator"] != GENERATOR_IDENTITY:
                raise ValueError(f"generator {doc['generator']!r} is not {GENERATOR_IDENTITY!r}")
            return cls(plan, _records(plan, doc["records"]))

    def to_rows(self) -> list[tuple[float, float, int, int, float, float]]:
        """Flat (c_tid, c_td, layer, mode, mean, std_error) rows, one per mode."""
        rows = []
        for (level_index, layer), rec in sorted(self.records.items()):
            level = self.plan.grid[level_index]
            rows += [(level.c_tid, level.c_td, layer, x + 1,
                      float(rec.mean[x]), float(rec.std_error[x]))
                     for x in range(self.plan.spec.num_modes)]
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

    An entry's key is checked before it indexes the plan; its other fields
    must then encode exactly as :func:`_entry` writes them, so a resumed
    document is byte for byte the fresh one: ``true`` and ``10.0`` are not
    the integers ``1`` and ``10``, nor ``1`` the float ``1.0``.  Means and
    standard errors must be finite and standard errors non-negative, as every
    run writes them.
    """
    records = {}
    for entry in entries:
        level_index, read_layer = key = entry["level_index"], entry["read_layer"]
        if not (type(level_index) is int and level_index in range(len(plan.grid))
                and type(read_layer) is int and read_layer in plan.read_layers):
            raise ValueError(f"record level_index {level_index!r}, read_layer {read_layer!r} "
                             f"is not in the plan's {len(plan.grid)} levels x read layers "
                             f"{plan.read_layers}")
        fields = json.dumps({**entry, "mean": None, "std_error": None}, sort_keys=True)
        planned = json.dumps(_entry(plan, key, None, None), sort_keys=True)
        if fields != planned:
            raise ValueError(f"record fields {fields} are not the plan's {planned}")
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
    """(num_modes, count) intensities of one block's phases at every read layer."""
    return {t: intensities(state) for t, state in evolve(spec, mats, phases, max(read_layers))
            if t in read_layers}


def _level_intensity_stacks(plan: SweepPlan, mats: list[np.ndarray], level_indices,
                            lo: int, hi: int, stacks: dict[int, np.ndarray]) -> None:
    """Fill columns lo..hi-1 of ``stacks`` with the intensities of those realizations.

    ``level_indices`` name levels of ``plan``, and ``stacks`` maps each read
    layer to their level-major (levels * num_modes, n) stack: level j holds
    rows j*num_modes onwards.  ``mats`` are the walk's layer matrices, and
    each chunk's phase screens are its disorder alone.  A chunk holds at
    most ``_CHUNK`` realizations, the same columns of every level: it is
    drawn, composed and propagated at once and fills its own columns.
    """
    spec, read_layers, k = plan.spec, tuple(stacks), len(level_indices)
    m, levels = spec.num_modes, [plan.grid[i] for i in level_indices]
    strengths = [level.c_tid for level in levels], [level.c_td for level in levels]
    step = max(1, _CHUNK // k)
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        static, dynamic = _sample_block(plan.master_seed, level_indices, a, b, m, spec.depth)
        # Each realization takes its level's strengths.
        phases = compose_screens(*(np.repeat(c, b - a) for c in strengths), static, dynamic)
        # Drop each stage's input once it is used, so that the next stage's
        # temporaries do not add to it: at 2048 realizations each is MBs.
        del static, dynamic
        blocks = _propagate_block(spec, mats, phases, read_layers)
        del phases
        for t, block in blocks.items():  # every stack is C-contiguous, so reshape is a view
            stacks[t].reshape(k, m, -1)[:, :, a:b] = block.reshape(m, k, b - a).transpose(1, 0, 2)


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


def _row_sums(stack: np.ndarray, mean: np.ndarray | None = None) -> list[float]:
    """``math.fsum`` of each row of ``stack``, or of its squared deviations from ``mean``.

    Bit for bit (see :func:`_reduce`).  A block is a group of whole rows or,
    for long rows, one row's segment.  Each group is summed before the next
    starts, so temporaries and held terms are the size of a block, or of a
    row for a group that takes ``math.fsum`` itself.
    """
    m, n = stack.shape
    rows = max(1, _BLOCK // n)
    sums: list[float] = []
    with np.errstate(invalid="ignore"):  # inf - inf in a block that takes math.fsum
        for r in range(0, m, rows):
            group = stack[r:r + rows]
            mu = None if mean is None else mean[r:r + rows, None]
            terms = [[] for _ in group]
            for c in range(0, n, _BLOCK):
                block = group[:, c:c + _BLOCK]
                if mu is not None:
                    block = (block - mu) ** 2
                if not block.any():  # zeros add nothing, as in rows outside a layer's light cone
                    continue
                buckets = _bucket_terms(block)
                if buckets is None:
                    terms = None
                    break
                for row_terms, row in zip(terms, buckets):
                    row_terms += filter(None, row.tolist())  # drops the empty buckets' zeros
            if terms is None:  # the group takes math.fsum itself
                terms = group if mu is None else (group - mu) ** 2
            sums += map(math.fsum, terms)
    return sums


def _reduce(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of each mode's row, from sums equal to ``math.fsum``'s.

    Each value is ``mant * 2**e`` (``np.frexp``), and ``mant`` splits into two
    27-bit limbs.  ``np.bincount`` sums each limb per (row, exponent) bucket
    exactly while a block holds fewer than 2**26 values, and ``np.ldexp``
    scales the totals back exactly for normal ``e``.  One ``math.fsum`` over a
    row's terms rounds their exact sum correctly, as ``math.fsum`` of the row
    does; a block with a subnormal, non-finite or huge value takes ``math.fsum``.
    """
    m, n = stack.shape
    mean = np.array(_row_sums(stack)) / n
    if n < 2:
        return mean, np.zeros(m)
    var = np.array(_row_sums(stack, mean)) / (n - 1)
    return mean, np.sqrt(var / n)


# The run in progress (see run_sweep): plan, layer matrices, the anonymous
# shared mapping that holds the split levels' stacks back to back (``None``
# when no level is split), the pending levels, and the read layers each level
# of the plan lacks.  Set before workers fork; empty between runs.
_run: tuple = ()


def _stacks(first: int, last: int) -> dict[int, np.ndarray]:
    """The stacks of pending levels first..last-1, one per read layer they lack.

    The levels of a task lack the same read layers.  A stack is level-major,
    (levels * num_modes, n), and new, unless the levels are split: then a
    level's stacks are its part of the shared mapping, which holds a slot for
    every read layer of every pending level, so offsets do not depend on what
    was resumed; a slot never written costs no memory.
    """
    plan, _, mapping, pending, lacking = _run
    layers, m, n = plan.read_layers, plan.spec.num_modes, plan.realizations_per_level
    if mapping is None:
        return {t: np.empty(((last - first) * m, n)) for t in lacking[pending[first]]}
    size = len(layers) * m * n
    slots = np.frombuffer(mapping, float, size, first * size * 8).reshape(len(layers), m, n)
    return {t: slots[layers.index(t)] for t in lacking[pending[first]]}


def _level_task(args) -> list[tuple[int, dict[int, tuple[np.ndarray, np.ndarray]]]]:
    """Fill realizations lo..hi-1 of pending levels first..last-1, and reduce whole levels.

    A task is a range of one split level or a pack of whole levels (see
    :func:`run_sweep`), which lack the same read layers; only those are
    filled and reduced (:func:`_stacks`), so a partly resumed level
    recomputes none it holds.  Returns each level's index and its per-layer
    means and standard errors, in level order.  A range of a split level
    returns none: its read layers are reduced by :func:`_reduce_task` once
    every range is filled.
    """
    first, last, lo, hi = args
    plan, mats, _, pending, _ = _run
    indices = pending[first:last]
    stacks = _stacks(first, last)
    _level_intensity_stacks(plan, mats, indices, lo, hi, stacks)
    if hi - lo < plan.realizations_per_level:
        return []
    reduced = {t: [np.split(x, len(indices)) for x in _reduce(stack)]
               for t, stack in stacks.items()}
    return [(idx, {t: (mean[j], se[j]) for t, (mean, se) in reduced.items()})
            for j, idx in enumerate(indices)]


def _reduce_task(args) -> list[tuple[int, dict[int, tuple[np.ndarray, np.ndarray]]]]:
    """One read layer of a split level, every range filled, in :func:`_level_task`'s form."""
    position, t = args
    return [(_run[3][position], {t: _reduce(_stacks(position, position + 1)[t])})]


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


def _resume(path: str, plan: SweepPlan):
    """The checkpoint at ``path``, locked and open for appends, and ``plan``'s records in it.

    ``path`` is opened without truncating and takes an exclusive ``flock``
    before it is read, without waiting: a file that another run holds raises
    ``BlockingIOError`` naming ``path``.  A file that does not start with the
    plan's header holds none of its records.  A crash mid-append leaves the
    last line without its newline or not parsing; that line is cut from the
    file, so later appends start on a fresh line, and its record is
    recomputed.  A bad line anywhere else, or a record that is not one of the
    plan's, is corruption and raises ``ValueError``.  A file of none of the
    plan's records is emptied and given the header.  The lock lasts until the
    returned binary handle is closed.
    """
    fh = open(path, "a+b")
    try:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        fh.seek(0)
        header = json.dumps({"plan_hash": plan.hash()}).encode() + b"\n"
        lines = fh.readlines()
        entries = []
        for number, line in enumerate(lines[1:] if lines[:1] == [header] else [], start=2):
            try:
                if not line.endswith(b"\n"):
                    raise ValueError("no line end")
                if line.strip():
                    entries.append(json.loads(line))
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
    than the CPUs this process may run on, nor than the tasks.  With fewer
    levels to run than that, each level is cut into enough equal contiguous
    realization ranges to occupy every worker, each of at least four chunks,
    since a smaller level's fill saves less than the pool and the reduce
    round cost: forked workers fill their ranges into one anonymous shared
    mapping, then reduce its read layers, each a whole row in realization
    order.  Otherwise levels of at most half a chunk run in packs: a task
    takes up to ``_CHUNK // n`` consecutive pending levels that lack the same
    read layers, leaving at least four tasks per worker, and draws,
    propagates and reduces each read layer of the pack as one level-major
    stack.  A split level holds eight chunks or more, a packed one half a
    chunk or less, so no task is both.  The outcome does not depend
    on the worker count or the packing, and the levels' records arrive in
    level order either way.  The run is module state (``_run``), set before
    any worker forks, so workers inherit it and a task is a few indices;
    with one worker the same tasks go through the same loop in this process.
    A process runs one sweep at a time.  With ``out_path`` set,
    ``<out_path>.ckpt`` is opened once and locked (:func:`_resume`): a
    checkpoint of this plan is resumed, computing only the records it lacks,
    any other file there is replaced, and each finished record is appended
    through that handle.  The run holds it until its levels have run; a
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
    lacking = [[t for t in plan.read_layers if (idx, t) not in done]
               for idx in range(len(plan.grid))]
    pending = tuple(idx for idx, layers in enumerate(lacking) if layers)

    # Split and pack sizes as the docstring states them.  Never more
    # processes than tasks: a pool forks all its workers at the first submit.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    usable = min(workers if workers is not None else cpus, cpus)
    n = plan.realizations_per_level
    parts = max(1, min(-(-usable // len(pending)), n // (4 * _CHUNK))) if pending else 1
    pack = max(1, min(_CHUNK // n, -(-len(pending) // (4 * usable))))
    split = parts > 1
    tasks, first = [], 0
    for _, group in itertools.groupby(pending, lambda idx: lacking[idx]):
        last = first + len(list(group))
        tasks += [(p, min(p + pack, last), n * k // parts, n * (k + 1) // parts)
                  for p in range(first, last, pack) for k in range(parts)]
        first = last
    nworkers = min(usable, len(tasks))
    try:
        # The split levels' stacks are one anonymous shared mapping, made
        # before the workers fork and gone with the last process that maps
        # it.  Workers are forked from this process whatever the default
        # start method ('forkserver' from Python 3.14 on Linux): they inherit
        # the run, and _init_worker ties each to it.
        size = 8 * len(pending) * len(plan.read_layers) * plan.spec.num_modes * n if split else 0
        if size > sys.maxsize:  # beyond any address space; mmap would raise OverflowError
            raise MemoryError(f"Unable to allocate {size} bytes of intensity stacks")
        with (mmap.mmap(-1, size) if split else contextlib.nullcontext()) as mapping:
            _run = (plan, mats, mapping, pending, lacking)
            with (ProcessPoolExecutor(max_workers=nworkers,
                                      mp_context=multiprocessing.get_context("fork"),
                                      initializer=_init_worker, initargs=(os.getpid(), ckpt))
                  if nworkers > 1 else contextlib.nullcontext()) as pool:
                dispatch = map if pool is None else pool.map
                results = dispatch(_level_task, tasks)
                if split:  # every range is filled before any layer is reduced
                    list(results)
                    results = dispatch(_reduce_task, [(p, t) for p, idx in enumerate(pending)
                                                      for t in lacking[idx]])
                for idx, per_layer in itertools.chain.from_iterable(results):
                    for t, (mean, se) in per_layer.items():
                        records[(idx, t)] = LevelRecord(mean, se)
                        if appending:
                            try:
                                entry = _entry(plan, (idx, t), mean.tolist(), se.tolist())
                                ckpt.write(json.dumps(entry).encode() + b"\n")
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
