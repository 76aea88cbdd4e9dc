"""Disorder-ensemble execution: levels x realizations, deterministic and parallel.

A sweep evaluates a grid of disorder levels; each level propagates N
independently-seeded realizations and reduces them to a per-mode ensemble
mean and standard error.  Realizations run in fixed-size chunks: a chunk's
fields come from one :func:`~meshwalk.programs.draw_block` call, its phase
screens from :func:`~meshwalk.programs.compose_screens` (the disorder is the
whole screen), and the whole chunk goes through the one propagation kernel,
:func:`~meshwalk.lattice.evolve`, at once, with the walk's layer matrices
(:func:`_layer_matrices`) built once per run.
Every realization's stream is derived from
``(master_seed, level_index, realization_index)``, each level's sums are
exact bucketed sums rounded once, equal to ``math.fsum`` of its rows in
realization order (:func:`_reduce`), and records are assembled sorted by
``(level_index, read_layer)`` — so the result is bit-identical no matter how
many workers ran it.

:func:`run_sweep` is the one way to run levels: a single level is a plan
whose grid holds one entry.  A task fills one realization range of a level
(:func:`_level_task`).  With fewer levels than workers, a level is cut into
several ranges whose stacks lie in one anonymous shared mapping that the
forked workers inherit; once every range is filled, workers reduce its read
layers (:func:`_reduce_task`).  Otherwise a task is a whole level, filled
and reduced in one worker.

A record is a measured per-mode mean and standard error, keyed by
``(level_index, read_layer)``; the plan writes every other field of its stored
form.  Persistence is one JSON document per sweep (plan echo, generator
identity, one record per level and read layer) plus an optional flat CSV
table.  A running sweep opens ``<out>.ckpt`` once, locks it and appends each
record through that one handle, and a rerun of the plan computes only the
records missing there; loading a document or a checkpoint checks every
record against what the plan writes.  Documents and tables are written to a
uniquely named temporary sibling, synced to disk and renamed into place, so a
crash of the process or of the machine leaves the old file or the new one,
never half of one.
Checkpoint appends are not synced, so a machine crash can cost a checkpoint
its last records (see :func:`run_sweep`).
"""

from __future__ import annotations

import contextlib
import ctypes
import fcntl
import hashlib
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
from .programs import GENERATOR_IDENTITY, DisorderSpec, compose_screens, draw_block

DOCUMENT_FORMAT = "meshwalk-sweep-result/1"
CSV_HEADER = "c_tid,c_td,layer,mode,mean,std_error"

# Realizations are processed in chunks of this many.  It bounds one chunk's
# temporaries and changes no bit of a result: each realization's stream is its
# own, and each level is reduced over its whole stack.
_CHUNK = 8192
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
        with _replacing(path) as fh:
            json.dump(self.to_document(), fh, indent=1, sort_keys=True)
            fh.write("\n")

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
        with _replacing(path) as fh:
            fh.write(CSV_HEADER + "\n")
            for c_tid, c_td, layer, mode, mean, se in self.to_rows():
                fh.write(f"{c_tid!r},{c_td!r},{layer},{mode},{mean!r},{se!r}\n")


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


def _sample_block(num_modes: int, depth: int, master_seed: int, level_index: int,
                  lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw uniform(-pi, pi) fields for realizations lo..hi-1, unscaled."""
    return draw_block(master_seed, level_index, lo, hi, num_modes, depth)


def _propagate_block(spec: MeshSpec, mats: list[np.ndarray], phases: np.ndarray,
                     read_layers: tuple[int, ...]) -> dict[int, np.ndarray]:
    """(num_modes, count) intensities of one block's phases at every read layer."""
    return {t: intensities(state) for t, state in evolve(spec, mats, phases, max(read_layers))
            if t in read_layers}


def _level_intensity_stacks(spec: MeshSpec, mats: list[np.ndarray], level: DisorderSpec,
                            master_seed: int, level_index: int, lo: int, hi: int,
                            stacks: dict[int, np.ndarray]) -> None:
    """Fill columns lo..hi-1 of one level's ``stacks`` with those realizations' intensities.

    ``stacks`` maps each read layer to its (num_modes, n) stack; ``mats`` are
    the walk's layer matrices, and each chunk's phase screens are its
    disorder alone.  Realizations are processed in chunks of ``_CHUNK``
    from ``lo``, each filling its own columns.
    """
    m, depth, read_layers = spec.num_modes, spec.depth, tuple(stacks)
    for a in range(lo, hi, _CHUNK):
        b = min(a + _CHUNK, hi)
        static, dynamic = _sample_block(m, depth, master_seed, level_index, a, b)
        phases = compose_screens(level, static, dynamic)
        for t, block in _propagate_block(spec, mats, phases, read_layers).items():
            stacks[t][:, a:b] = block


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


# In a pool worker: the run's split levels (see run_sweep), as the anonymous
# shared mapping that holds their stacks back to back and the levels in the
# order they lie there.  Set by _init_worker; a process without it has none.
_split: tuple = (None, ())


def _stacks(level_index: int, read_layers: tuple[int, ...],
            shape: tuple[int, int]) -> dict[int, np.ndarray]:
    """One level's stack of ``shape`` per read layer: its part of the shared mapping, or new."""
    mapping, levels = _split
    if level_index not in levels:
        return {t: np.empty(shape) for t in read_layers}
    size = len(read_layers) * shape[0] * shape[1]
    stacks = np.frombuffer(mapping, float, size, levels.index(level_index) * size * 8)
    return dict(zip(read_layers, stacks.reshape(len(read_layers), *shape)))


def _level_task(args) -> tuple[int, dict[int, tuple[np.ndarray, np.ndarray]] | None]:
    """Fill realizations lo..hi-1 of one level, and reduce the level if that is all of it.

    A part of a split level returns ``None``: its read layers are reduced by
    :func:`_reduce_task` once every part has filled its columns.
    """
    spec, mats, level, level_index, n, master_seed, read_layers, lo, hi = args
    stacks = _stacks(level_index, read_layers, (spec.num_modes, n))
    _level_intensity_stacks(spec, mats, level, master_seed, level_index, lo, hi, stacks)
    if hi - lo < n:
        return level_index, None
    return level_index, {t: _reduce(stack) for t, stack in stacks.items()}


def _reduce_task(args) -> tuple[int, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Mean and standard error of one read layer of a split level whose parts are all filled."""
    level_index, read_layers, shape, t = args
    return level_index, {t: _reduce(_stacks(level_index, read_layers, shape)[t])}


_PR_SET_PDEATHSIG = 1  # prctl option, <linux/prctl.h>


def _die_with(parent: int) -> None:
    """Pool initializer: ask the kernel to kill this worker when its parent dies.

    Without it, the workers of a run whose process alone is killed live on,
    re-parented, holding their memory.  A worker whose parent died between
    its fork and this call exits at once.  Where ``prctl`` is missing (not
    Linux), only that check is made.
    """
    with contextlib.suppress(OSError, AttributeError):
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _init_worker(parent: int, split: tuple, ckpt) -> None:
    """Pool initializer: keep the run's split levels, inherited through fork, and die with it.

    ``ckpt`` is the run's checkpoint handle, or ``None``.  The worker closes
    its inherited copy: a lock lives on while any copy is open, so workers
    that outlive a killed run would otherwise keep its checkpoint locked.
    """
    global _split
    _split = split
    if ckpt is not None:
        ckpt.close()
    _die_with(parent)


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
    than the cores.  With fewer levels to run than that, each level is cut
    into contiguous realization ranges of at least ``_CHUNK``: forked workers
    fill their ranges into one anonymous shared mapping, then reduce its
    read layers, each a whole row in realization order.  The outcome does not
    depend on the worker count, and the levels' records arrive in level
    order either way.  With ``out_path`` set, ``<out_path>.ckpt`` is opened once
    and locked (:func:`_resume`): a checkpoint of this plan is resumed,
    computing only the records it lacks, any other file there is replaced, and
    each finished record is appended through that handle.  The run holds it
    until its levels have run; a checkpoint that another run holds raises
    ``BlockingIOError`` before any level runs.  Pool workers close their
    inherited copies (:func:`_init_worker`).

    Appends are flushed, not synced: a tail lost in a machine crash only makes
    a resume recompute those records, bit for bit, and a torn last line is
    already dropped.  An fsync per record would add about 50 ms on ext4, some
    4% of a 400-level sweep's wall time.  A failed read, open or append is one
    ``io_errors`` warning and ends checkpointing; the document is still written.
    """
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

    pending = [
        (plan.spec, mats, level, idx, plan.realizations_per_level, plan.master_seed,
         plan.read_layers)
        for idx, level in enumerate(plan.grid)
        if any((idx, t) not in done for t in plan.read_layers)
    ]

    records = dict(done)

    def _absorb(level_index: int, per_layer: dict) -> None:
        nonlocal appending
        for t, (mean, se) in per_layer.items():
            if (level_index, t) in done:  # a partly resumed level
                continue
            records[(level_index, t)] = LevelRecord(mean, se)
            if appending:
                try:
                    entry = _entry(plan, (level_index, t), mean.tolist(), se.tolist())
                    ckpt.write(json.dumps(entry).encode() + b"\n")
                    ckpt.flush()
                except OSError as exc:
                    io_errors.append(f"level {level_index}: checkpoint write failed: {exc}")
                    appending = False
        if progress:
            progress(len(records), len(plan.grid) * len(plan.read_layers))

    # Fewer levels to run than usable workers: cut each level into enough
    # equal ranges to occupy them all, each of at least a chunk.  Never more
    # processes than tasks: a pool forks all its workers at the first submit.
    cores = os.cpu_count() or 1
    usable = min(workers if workers is not None else cores, cores)
    n = plan.realizations_per_level
    parts = max(1, min(-(-usable // max(len(pending), 1)), n // _CHUNK))
    tasks = [(*args, n * k // parts, n * (k + 1) // parts) for args in pending
             for k in range(parts)]
    split = tuple(args[3] for args in pending) if parts > 1 else ()
    nworkers = min(usable, len(tasks))
    try:
        if nworkers > 1:
            # The split levels' stacks are one anonymous shared mapping, made
            # before the workers fork and gone with the last process that maps
            # it.  Workers are forked from this process whatever the default
            # start method ('forkserver' from Python 3.14 on Linux): they
            # inherit the mapping, and _die_with ties each to the run.
            shape = (plan.spec.num_modes, n)
            size = 8 * len(split) * len(plan.read_layers) * math.prod(shape)
            if size > sys.maxsize:  # beyond any address space; mmap would raise OverflowError
                raise MemoryError(f"Unable to allocate {size} bytes of intensity stacks")
            with (mmap.mmap(-1, size) if split else contextlib.nullcontext()) as mapping, \
                    ProcessPoolExecutor(max_workers=nworkers,
                                        mp_context=multiprocessing.get_context("fork"),
                                        initializer=_init_worker,
                                        initargs=(os.getpid(), (mapping, split), ckpt)) as pool:
                results = pool.map(_level_task, tasks)
                if split:  # every part is filled before any layer is reduced
                    for _ in results:
                        pass
                    results = pool.map(_reduce_task, [(idx, plan.read_layers, shape, t)
                                                      for idx in split for t in plan.read_layers])
                for level_index, per_layer in results:
                    _absorb(level_index, per_layer)
        else:
            for args in tasks:
                _absorb(*_level_task(args))
    finally:
        if ckpt is not None:
            with contextlib.suppress(OSError):  # a failed tail is flushed again
                ckpt.close()

    result = EnsembleResult(plan, records, io_errors=io_errors)
    if out_path:
        result.save(out_path)
    return result
