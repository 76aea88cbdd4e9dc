import json
import multiprocessing
import os
import stat
import subprocess
import sys
import time

import numpy as np
import pytest

from meshwalk import (
    DisorderSpec,
    EnsembleResult,
    MeshSpec,
    SweepPlan,
    cell_unitary,
    intensities,
    make_grid,
    mode_signs,
    run_sweep,
)
from meshwalk import ensemble
from meshwalk.ensemble import (
    CSV_HEADER,
    _layer_matrices,
    _level_intensity_stacks,
    _propagate_block,
    _reduce,
    _sample_block,
)
from meshwalk.lattice import evolve
from meshwalk.programs import compose_screens
from conftest import (CPUS, bits, cell_matrices, fake_cpus, mod_wrap, propagate, random_program,
                      subprocess_env, walk_program)
from oracles import fsum_reduce, full_unitary, galton_distribution


def level_stacks(spec, mats, level, n, master_seed, level_index, read_layers):
    """One level's (num_modes, n) intensity stack per read layer, filled in one range."""
    stacks = {t: np.empty((spec.num_modes, n)) for t in read_layers}
    plan = SweepPlan(spec, (level,) * (level_index + 1), n, master_seed)
    _level_intensity_stacks(plan, mats, (level_index,), 0, n, stacks)
    return stacks


def full_array_stacks(spec, settings, screens, read_layers):
    """Intensity stacks of the kernel written out over the whole array.

    ``settings`` are a program's cells, ``screens`` is (walkers, num_modes,
    depth) and each stack (num_modes, walkers).  Every mode takes its phase
    factor, cos and sin of every (mode, layer) cell, after each layer.
    """
    m = spec.num_modes
    phases = np.ascontiguousarray(np.transpose(screens, (2, 1, 0)))
    factors = np.empty(phases.shape, dtype=complex)
    np.cos(phases, out=factors.real)
    np.sin(phases, out=factors.imag)
    state = np.zeros((m, len(screens)), dtype=complex)
    state[spec.injection_mode - 1] = 1.0
    stacks = {}
    for t in range(1, max(read_layers) + 1):
        for k, setting in enumerate(settings[t - 1]):
            i, u = m // 2 - t + 2 * k, cell_unitary(setting)
            top = u[0, 0] * state[i] + u[0, 1] * state[i + 1]
            state[i + 1] = u[1, 0] * state[i] + u[1, 1] * state[i + 1]
            state[i] = top
        state *= factors[t - 1]
        if t in read_layers:
            stacks[t] = state.real**2 + state.imag**2
    return stacks


def full_array_screens(level, static, dynamic):
    """The disorder model with numpy's mod in both wraps."""
    signs = mode_signs(dynamic.shape[-2])
    return mod_wrap(signs[:, None]
                    * mod_wrap((level.c_tid * static)[..., None] + level.c_td * dynamic))


class TestConeKernel:
    """The light-cone kernel against the full-array one, bit for bit."""

    # Default injection, modes 1 and num_modes, a mode outside the layer-1
    # cell, and a mesh wider than its cone ever gets.
    SPECS = (MeshSpec(), MeshSpec(14, 7, 1), MeshSpec(14, 7, 14), MeshSpec(14, 7, 3),
             MeshSpec(20, 4, 2), MeshSpec(30, 15))

    @staticmethod
    def programs(spec, rng):
        """The walk program, and a random program with screens in +-pi.

        A level runs the cells alone: its screens are the disorder's.
        """
        return walk_program(spec), random_program(spec, rng)

    def test_level_stacks(self):
        rng = np.random.default_rng(31)
        level, n = DisorderSpec(0.842, 0.5), 300
        for spec in self.SPECS:
            layers = tuple(range(1, spec.depth + 1))
            static, dynamic = _sample_block(17, 2, 0, n, spec.num_modes, spec.depth)
            plan = SweepPlan(spec, (level,) * 3, n, 17)
            screens = full_array_screens(level, static, dynamic)
            for settings, _ in self.programs(spec, rng):
                stacks = {t: np.empty((spec.num_modes, n)) for t in layers}
                for lo, hi in ((0, 120), (120, n)):  # ranges fill their own columns
                    _level_intensity_stacks(plan, cell_matrices(settings), (2,), lo, hi, stacks)
                expected = full_array_stacks(spec, settings, screens, layers)
                for t in layers:
                    assert np.array_equal(bits(stacks[t]), bits(expected[t])), (spec, t)

    def test_propagate(self):
        rng = np.random.default_rng(32)
        for spec in self.SPECS:
            for settings, screens in self.programs(spec, rng):
                for mode in sorted({1, 3, spec.num_modes, spec.injection_mode}):
                    walker = MeshSpec(spec.num_modes, spec.depth, mode)
                    expected = full_array_stacks(walker, settings, screens[None],
                                                 range(1, spec.depth + 1))
                    for t, stack in expected.items():
                        out = intensities(propagate(walker, settings, screens, up_to_layer=t))
                        assert np.array_equal(bits(out), bits(stack[:, 0])), (spec, mode, t)

    def test_compose_screens_layout(self):
        # The result is one C-contiguous (layer, mode, realization) array,
        # with the full-array model's bits.
        static, dynamic = _sample_block(4, 0, 0, 600, 14, 7)
        drawn = static.copy(), dynamic.copy()
        level = DisorderSpec(0.3, 0.9)
        total = compose_screens(level.c_tid, level.c_td, static, dynamic)
        assert total.shape == (7, 14, 600)
        assert total.flags.c_contiguous
        expected = full_array_screens(level, *drawn)
        assert np.array_equal(bits(total), bits(expected.transpose(2, 1, 0)))
        # The drawn fields are read, never written.
        assert np.array_equal(bits(static), bits(drawn[0]))
        assert np.array_equal(bits(dynamic), bits(drawn[1]))


def test_propagate_rejects_realization_major_phases(spec14):
    # The kernel reads (depth, num_modes, walkers); a (walkers, num_modes,
    # depth) array would otherwise run as depth walkers of garbage phases.
    static, dynamic = _sample_block(1, 0, 0, 5, 14, 7)
    phases = compose_screens(0.5, 0.5, static, dynamic)
    mats = _layer_matrices(spec14)
    with pytest.raises(ValueError, match="phases shaped"):
        _propagate_block(spec14, mats, phases.transpose(2, 1, 0), (7,))
    assert _propagate_block(spec14, mats, phases, (7,))[7].shape == (14, 5)


def test_evolve_checks_phases_when_called(spec14):
    # The shape error comes from the call itself, before any layer is asked for.
    static, dynamic = _sample_block(1, 0, 0, 5, 14, 7)
    phases = compose_screens(0.5, 0.5, static, dynamic)
    with pytest.raises(ValueError, match=r"phases shaped \(5, 14, 7\)"):
        evolve(spec14, _layer_matrices(spec14), phases.transpose(2, 1, 0), 7)


class TestRunLevel:
    """One disorder level, run as a one-level plan."""

    def test_zero_level_has_no_spread(self, spec14, qw_program):
        plan = SweepPlan(spec14, (DisorderSpec(0, 0),), 7, 99)
        rec = run_sweep(plan, workers=1).record(0)
        assert np.abs(rec.std_error).max() == 0.0
        ordered = intensities(propagate(spec14, *qw_program))
        assert np.abs(rec.mean - ordered).max() < 1e-15

    def test_mean_sums_to_one(self, spec14):
        plan = SweepPlan(spec14, (DisorderSpec(0.8, 0.2),), 500, 99)
        rec = run_sweep(plan, workers=1).record(0)
        assert abs(rec.mean.sum() - 1.0) < 1e-9

    def test_kernel_matches_single_realization_path(self, spec14):
        # Each stack row against the dense oracle's injection column, with
        # the disorder model spelled out here from its documentation: the
        # stream of GENERATOR_IDENTITY, scaled, summed per waveguide, and
        # negated on modes 8..14, as the whole screen of the program's cells.
        # Wrapping by 2 pi changes no amplitude, so the oracle leaves it out.
        settings, _ = random_program(spec14, np.random.default_rng(12))
        level = DisorderSpec(0.7, 0.4)
        n = 40
        layers = (4, spec14.depth)
        signs = np.ones(14)
        signs[7:] = -1.0
        stacks = level_stacks(spec14, cell_matrices(settings), level, n, 555, 3, layers)
        for r in range(n):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((555, 3, r))))
            static = level.c_tid * rng.uniform(-np.pi, np.pi, 14)
            dynamic = level.c_td * rng.uniform(-np.pi, np.pi, (14, 7))
            applied = signs[:, None] * (static[:, None] + dynamic)
            for layer in layers:
                column = full_unitary(spec14, settings, applied, up_to_layer=layer)[
                    :, spec14.injection_mode - 1]
                assert np.abs(stacks[layer][:, r] - intensities(column)).max() < 1e-12

    def test_fully_incoherent_matches_markov_oracle(self, spec14):
        plan = SweepPlan(spec14, (DisorderSpec(1, 1),), 4000, 77)
        rec = run_sweep(plan, workers=1).record(0)
        oracle = galton_distribution(14, 7, 8)
        guard = np.maximum(5.0 * rec.std_error, 1e-12)  # edge modes have zero variance
        assert (np.abs(rec.mean - oracle) <= guard).all()


def adversarial_stack(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """An (m, n) stack of one of the value kinds an exact sum must get right."""
    kind = rng.integers(8)
    if kind == 0:  # intensities with runs of zeros
        stack = rng.random((m, n)) * (rng.random((m, n)) < rng.random())
    elif kind == 1:  # signed values over an exponent span of 2000
        stack = rng.uniform(-1, 1, (m, n)) * np.exp2(rng.integers(-1000, 1000, (m, n)))
    elif kind == 2:  # subnormals among normals near the bottom of the range
        stack = rng.uniform(-1, 1, (m, n)) * np.exp2(rng.integers(-1080, -1000, (m, n)))
    elif kind == 3:  # cancelling pairs and ties: sums land on exact zeros and half ulps
        powers = np.exp2(rng.integers(-60, 3, (m, n)).astype(float))
        stack = powers * rng.choice([-1.0, 1.0, 0.5, -0.5], (m, n))
        half = n // 2
        stack[:, half:2 * half] = -stack[:, :half]
        stack[:, -1] += rng.choice([1.0, 3.0, 2.0**53])
    elif kind == 4:  # signed zeros, alone or among values
        stack = rng.choice([0.0, -0.0, -0.0, 1e-300], (m, n))
        stack[rng.random(m) < 0.5] = -0.0
    elif kind == 5:  # values near and past the largest the bucketed sum takes
        stack = rng.uniform(-1, 1, (m, n)) * np.exp2(rng.integers(950, 1024, (m, n)))
    else:  # non-finite values among intensities
        stack = rng.random((m, n))
        stack[rng.random((m, n)) < 2.0 / n] = rng.choice([np.inf, -np.inf, np.nan])
    return stack


class TestReduce:
    """``_reduce`` against its definition, ``oracles.fsum_reduce``, bit for bit."""

    @staticmethod
    def assert_same(stack):
        with np.errstate(all="ignore"):
            try:
                expected = fsum_reduce(stack)
            except (ValueError, OverflowError) as exc:
                with pytest.raises(type(exc)):
                    _reduce(stack)
                return
            got = _reduce(stack)
        for a, b in zip(got, expected):
            assert np.array_equal(bits(a), bits(b))

    def test_pipeline_stacks(self):
        # Every read layer at 14x7, rows longer than one block; the last at
        # 30x15, several rows to a block.
        level = DisorderSpec(0.842, 0.5)
        for spec, n, layers in ((MeshSpec(14, 7), ensemble._BLOCK + 3000, range(1, 8)),
                                (MeshSpec(30, 15), 2000, (15,))):
            stacks = level_stacks(spec, _layer_matrices(spec), level, n, 20170301, 0, layers)
            for stack in stacks.values():
                self.assert_same(stack)

    def test_adversarial_stacks(self, monkeypatch):
        rng = np.random.default_rng(20170303)
        monkeypatch.setattr(ensemble, "_BLOCK", 64)
        for _ in range(400):
            self.assert_same(adversarial_stack(rng, rng.integers(1, 6), rng.integers(1, 200)))

    @pytest.mark.parametrize("row", [
        [1.5 * 2.0**1023, 1.5 * 2.0**1023, -1.5 * 2.0**1023],  # fsum overflows midway
        [2.0**959, 2.0**959, -2.0**959],
        [1.0, 2.0**-53], [1.0, 2.0**-53, 2.0**-106], [3.0, -2.0**-52, 2.0**-105],  # ties
        [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0],
        [5e-324, -5e-324, 1e-310, 2.0**-1022],
        [np.inf, -np.inf], [np.inf, np.nan, 1.0], [-np.inf, 2.0],
    ])
    def test_edge_values(self, row):
        self.assert_same(np.array([row, row[::-1]]))

    def test_shapes_around_the_block(self):
        rng = np.random.default_rng(5)
        block = ensemble._BLOCK
        for m, n in ((1, 1), (5, 1), (3, 2), (2, block - 1), (2, block), (1, block + 1),
                     (1, 2 * block + 5)):
            for _ in range(3):
                self.assert_same(adversarial_stack(rng, m, n))
            self.assert_same(rng.random((m, n)))


class TestSweepPlan:
    def test_grid_constraints(self, spec14):
        with pytest.raises(ValueError):
            SweepPlan(spec14, (), 10, 1)
        with pytest.raises(ValueError):
            SweepPlan(spec14, (DisorderSpec(0, 0),), 0, 1)
        with pytest.raises(ValueError):
            SweepPlan(spec14, (DisorderSpec(0, 0),), 5, 1, read_layers=(8,))
        with pytest.raises(ValueError, match="master_seed"):
            SweepPlan(spec14, (DisorderSpec(0, 0),), 5, -1)
        with pytest.raises(ValueError, match="repeat"):
            SweepPlan(spec14, (DisorderSpec(0, 0),), 5, 1, read_layers=(7, 7))

    def test_default_read_layer_is_final(self, spec14):
        plan = SweepPlan(spec14, (DisorderSpec(0, 0),), 5, 1)
        assert plan.read_layers == (7,)

    def test_hash_tracks_content(self, spec14):
        a = SweepPlan(spec14, (DisorderSpec(0, 0),), 5, 1)
        b = SweepPlan(spec14, (DisorderSpec(0, 0),), 5, 2)
        assert a.hash() != b.hash()
        assert a.hash() == SweepPlan.from_dict(a.to_dict()).hash()

    def test_make_grid_layout(self):
        grid = make_grid(20, 20)
        assert len(grid) == 400
        assert grid[0] == DisorderSpec(0.0, 0.0)
        assert grid[19].c_td == 1.0
        # row-major: first 20 entries share c_tid = 0
        assert all(g.c_tid == 0.0 for g in grid[:20])
        assert any(abs(g.c_tid - 16.0 / 19.0) < 1e-12 for g in grid)


def init_then_sleep(parent: int, ckpt, started) -> None:
    """A forked pool worker that is running, and so past its initializer, until killed."""
    ensemble._init_worker(parent, ckpt)
    started.set()
    time.sleep(60)


class TestRunSweep:
    def test_worker_count_invariance(self, spec14, tmp_path):
        plan = SweepPlan(spec14, tuple(make_grid(2, 2)), 50, 424242)
        p1 = tmp_path / "serial.json"
        p2 = tmp_path / "parallel.json"
        run_sweep(plan, out_path=str(p1), workers=1)
        run_sweep(plan, out_path=str(p2), workers=2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.skipif("forkserver" not in multiprocessing.get_all_start_methods()
                        or CPUS < 2,
                        reason="needs the forkserver start method and 2 cores for a pool")
    def test_pool_forks_whatever_the_default_start_method(self, spec14, tmp_path):
        # 'forkserver' is the default start method from Python 3.14 on Linux.
        # Its workers are not children of the run, and a pool that took the
        # default would lose every worker to the parent check of _init_worker.
        # The run, a split level's shared mapping included, reaches the
        # workers only through fork.
        script = ("import multiprocessing, sys\n"
                  "multiprocessing.set_start_method('forkserver')\n"
                  "from meshwalk import MeshSpec, SweepPlan, ensemble, make_grid, run_sweep\n"
                  "plan = SweepPlan(MeshSpec(14, 7), tuple(make_grid(2, 2)), 50, 424242)\n"
                  "run_sweep(plan, out_path=sys.argv[1], workers=2)\n"
                  "ensemble._CHUNK = 4\n"
                  "level = SweepPlan(MeshSpec(14, 7), plan.grid[1:2], 50, 424242, (3, 7))\n"
                  "run_sweep(level, out_path=sys.argv[2], workers=2)\n")
        pooled, split = tmp_path / "pooled.json", tmp_path / "split.json"
        subprocess.run([sys.executable, "-c", script, str(pooled), str(split)],
                       env=subprocess_env(), check=True, timeout=120)
        serial = tmp_path / "serial.json"
        run_sweep(SweepPlan(spec14, tuple(make_grid(2, 2)), 50, 424242), out_path=str(serial),
                  workers=1)
        assert pooled.read_bytes() == serial.read_bytes()
        run_sweep(SweepPlan(spec14, tuple(make_grid(2, 2))[1:2], 50, 424242, (3, 7)),
                  out_path=str(serial), workers=1)
        assert split.read_bytes() == serial.read_bytes()

    def test_chunk_size_invariance(self, monkeypatch):
        # The chunk bounds one block's temporaries and moves no bit: chunks
        # that split a level unevenly, or pack levels unevenly, write the
        # same document.
        level = DisorderSpec(0.842, 0.5)
        plans = (SweepPlan(MeshSpec(14, 7), (level,), 1000, 11, read_layers=range(1, 8)),
                 SweepPlan(MeshSpec(30, 15), (level,), 1000, 11))
        expected = [json.dumps(run_sweep(plan, workers=1).to_document()) for plan in plans]
        for chunk in (7, 64, 333, 999):
            monkeypatch.setattr(ensemble, "_CHUNK", chunk)
            for plan, document in zip(plans, expected):
                assert json.dumps(run_sweep(plan, workers=1).to_document()) == document, chunk
        # Levels of at most half a chunk run in packs of whole levels, one
        # stack and one reduce per read layer of a pack.  21 levels of 37
        # realizations go 6 to a pack at the default chunk, the last pack
        # holding 3; each chunk below packs them otherwise, unevenly unless
        # one to a pack, and every packing writes the same document.
        plan = SweepPlan(MeshSpec(14, 7), tuple(make_grid(7, 3)), 37, 11, read_layers=(3, 7))
        document = json.dumps(run_sweep(plan, workers=1).to_document())
        reduce, stacks = ensemble._reduce, []
        monkeypatch.setattr(ensemble, "_reduce",
                            lambda stack: stacks.append(stack.shape) or reduce(stack))
        # (chunk, levels in the first pack, reduces per read layer); a chunk
        # of 7 also cuts each level into 6 chunks.
        for chunk, pack, reduces in ((7, 1, 21), (64, 1, 21), (100, 2, 11), (150, 4, 6),
                                     (200, 5, 5)):
            monkeypatch.setattr(ensemble, "_CHUNK", chunk)
            stacks.clear()
            assert json.dumps(run_sweep(plan, workers=1).to_document()) == document, chunk
            assert len(stacks) == 2 * reduces, chunk
            assert stacks[0] == (pack * 14, 37), chunk
            assert sum(rows for rows, _ in stacks) == 2 * 21 * 14, chunk

    def test_block_size_invariance(self, monkeypatch):
        # The reduction's block bounds its temporaries and moves no bit:
        # blocks of one value, row segments, several rows and every row
        # write the same document.
        level = DisorderSpec(0.842, 0.5)
        plans = (SweepPlan(MeshSpec(14, 7), (level,), 340, 11, read_layers=(1, 7)),
                 SweepPlan(MeshSpec(30, 15), (level,), 40, 11))
        expected = [json.dumps(run_sweep(plan, workers=1).to_document()) for plan in plans]
        for block in (1, 7, 333, 1 << 16):
            monkeypatch.setattr(ensemble, "_BLOCK", block)
            for plan, document in zip(plans, expected):
                assert json.dumps(run_sweep(plan, workers=1).to_document()) == document, block

    @pytest.fixture
    def pool_tasks(self) -> list:
        """(function name, tasks) of each ``map`` on the ``pool_sizes`` pool, in order."""
        return []

    @pytest.fixture
    def pool_sizes(self, monkeypatch, pool_tasks):
        """Pool sizes ``run_sweep`` asks for; the pool runs its tasks in process.

        Its initializer is not run: it would tie this process to its parent
        and close the run's own checkpoint handle.  The tasks read the run
        that ``run_sweep`` set in this process, so a split level's ranges
        fill and reduce the run's shared mapping.
        """
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                tasks = list(tasks)
                pool_tasks.append((fn.__name__, tasks))
                return map(fn, tasks)

        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", InProcessPool)
        return sizes

    def test_tasks_carry_only_indices(self, spec14, monkeypatch, pool_sizes, pool_tasks):
        # Workers inherit the run, so a task names a range of pending levels
        # and a realization range, or a pending level and a read layer, and
        # nothing else.
        fake_cpus(monkeypatch, 4)
        monkeypatch.setattr(ensemble, "_CHUNK", 4)
        run_sweep(SweepPlan(spec14, tuple(make_grid(2, 2)), 20, 5), workers=4)
        run_sweep(SweepPlan(spec14, (DisorderSpec(0.842, 0.5),), 3 * 16, 5,
                            read_layers=(2, 7)), workers=4)
        assert pool_sizes == [4, 3]
        assert [name for name, _ in pool_tasks] == ["_level_task", "_level_task", "_reduce_task"]
        for name, tasks in pool_tasks:
            assert tasks and all(type(task) is tuple and all(type(x) is int for x in task)
                                 for task in tasks), (name, tasks)

    def test_pool_never_larger_than_pending_levels(self, spec14, monkeypatch, pool_sizes):
        # Every worker of a pool is started at its first submit, so 64
        # workers for 4 levels would start 60 idle processes.
        fake_cpus(monkeypatch, 64)  # only the levels limit the pool
        plan = SweepPlan(spec14, tuple(make_grid(2, 2)), 20, 5)
        serial = run_sweep(plan, workers=1)
        pooled = run_sweep(plan, workers=64)
        assert pool_sizes == [4]
        assert pooled.to_document() == serial.to_document()

    def test_pool_never_larger_than_cores(self, spec14, monkeypatch, pool_sizes):
        fake_cpus(monkeypatch, 2)
        plan = SweepPlan(spec14, tuple(make_grid(2, 2)), 20, 5)
        serial = run_sweep(plan, workers=1)
        pooled = run_sweep(plan, workers=64)
        assert pool_sizes == [2]
        assert pooled.to_document() == serial.to_document()

    def test_pool_never_larger_than_the_cpus_it_may_run_on(self, spec14, monkeypatch,
                                                         pool_sizes):
        # A process pinned to one CPU of four starts no pool: its workers
        # would only take turns on that CPU.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        fake_cpus(monkeypatch, 1)
        plan = SweepPlan(spec14, tuple(make_grid(2, 2)), 20, 5)
        serial = run_sweep(plan, workers=1)
        pinned = run_sweep(plan, workers=4)
        assert pool_sizes == []
        assert pinned.to_document() == serial.to_document()

    def test_pool_splits_a_lone_level_into_chunks(self, spec14, tmp_path, monkeypatch,
                                                  pool_sizes):
        # A lone level takes one worker per four chunks, up to the cores; a
        # level smaller than eight chunks is not split and starts no pool.
        fake_cpus(monkeypatch, 64)
        monkeypatch.setattr(ensemble, "_CHUNK", 4)
        plan = SweepPlan(spec14, (DisorderSpec(0.842, 0.5),), 3 * 16, 5,
                         read_layers=(2, 5, 7))
        serial = run_sweep(plan, out_path=str(tmp_path / "serial.json"), workers=1)
        pooled = run_sweep(plan, out_path=str(tmp_path / "pooled.json"), workers=64)
        assert pool_sizes == [3]
        assert pooled.to_document() == serial.to_document()
        assert ((tmp_path / "pooled.json.ckpt").read_bytes()
                == (tmp_path / "serial.json.ckpt").read_bytes())
        monkeypatch.setattr(ensemble, "_CHUNK", 8192)
        run_sweep(SweepPlan(spec14, (DisorderSpec(0.842, 0.5),), 200, 5), workers=64)
        assert pool_sizes == [3]

    @pytest.mark.parametrize("grid, read_layers, workers", [
        ((DisorderSpec(0.842, 0.5),), (7,), 2),                       # walk
        ((DisorderSpec(0.842, 0.5),), tuple(range(1, 8)), 2),         # tomography
        ((DisorderSpec(0.3, 0.9), DisorderSpec(1.0, 0.2)), (7, 3), 4),  # two split levels
    ])
    def test_split_levels_write_the_serial_files(self, spec14, tmp_path, monkeypatch, grid,
                                                  read_layers, workers):
        # Levels of several chunks, split across forked workers that fill one
        # shared mapping, write the serial run's document and checkpoint.
        fake_cpus(monkeypatch, workers)  # a pool even on one core
        monkeypatch.setattr(ensemble, "_CHUNK", 4)
        plan = SweepPlan(spec14, grid, 100, 12, read_layers=read_layers)
        for name, count in (("serial", 1), ("split", workers)):
            run_sweep(plan, out_path=str(tmp_path / f"{name}.json"), workers=count)
        for suffix in (".json", ".json.ckpt"):
            assert ((tmp_path / f"split{suffix}").read_bytes()
                    == (tmp_path / f"serial{suffix}").read_bytes()), suffix

    def test_resume_of_a_split_level(self, spec14, tmp_path, monkeypatch):
        # A checkpoint that holds 3 of a split level's 7 read layers: the
        # rerun splits the level again and appends only the missing layers.
        fake_cpus(monkeypatch, 2)
        monkeypatch.setattr(ensemble, "_CHUNK", 4)
        plan = SweepPlan(spec14, (DisorderSpec(0.842, 0.5),), 100, 13,
                         read_layers=tuple(range(1, 8)))
        fresh, cut = tmp_path / "fresh.json", tmp_path / "cut.json"
        run_sweep(plan, out_path=str(fresh), workers=1)
        fresh_ckpt = (tmp_path / "fresh.json.ckpt").read_text()
        (tmp_path / "cut.json.ckpt").write_text(
            "".join(fresh_ckpt.splitlines(keepends=True)[:1 + 3]))
        run_sweep(plan, out_path=str(cut), workers=2)
        assert cut.read_bytes() == fresh.read_bytes()
        assert (tmp_path / "cut.json.ckpt").read_text() == fresh_ckpt

    def test_resumed_split_level_reduces_only_missing_layers(self, spec14, tmp_path,
                                                             monkeypatch, pool_sizes, pool_tasks):
        # A checkpoint that holds 3 of a split level's 7 read layers: only
        # the 4 missing layers are reduced, and the files are a fresh run's.
        fake_cpus(monkeypatch, 2)
        monkeypatch.setattr(ensemble, "_CHUNK", 4)
        plan = SweepPlan(spec14, (DisorderSpec(0.842, 0.5),), 100, 13,
                         read_layers=tuple(range(1, 8)))
        fresh, cut = tmp_path / "fresh.json", tmp_path / "cut.json"
        run_sweep(plan, out_path=str(fresh), workers=1)
        fresh_ckpt = (tmp_path / "fresh.json.ckpt").read_text()
        (tmp_path / "cut.json.ckpt").write_text(
            "".join(fresh_ckpt.splitlines(keepends=True)[:1 + 3]))
        run_sweep(plan, out_path=str(cut), workers=2)
        assert pool_sizes == [2]
        assert [tasks for name, tasks in pool_tasks if name == "_reduce_task"] == [
            [(0, 4), (0, 5), (0, 6), (0, 7)]]
        assert cut.read_bytes() == fresh.read_bytes()
        assert (tmp_path / "cut.json.ckpt").read_text() == fresh_ckpt

    def test_failed_run_leaves_no_run_behind(self, spec14, tmp_path, monkeypatch):
        # A task that raises mid-run: the run's module state is cleared, and
        # the next run in this process, resuming its checkpoint, writes a
        # clean run's files.
        plan = SweepPlan(spec14, tuple(make_grid(2, 2)), 20, 5)
        run_sweep(plan, out_path=str(tmp_path / "clean.json"), workers=1)
        task, calls = ensemble._level_task, []

        def second_fails(args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("second task")
            return task(args)

        monkeypatch.setattr(ensemble, "_level_task", second_fails)
        with pytest.raises(RuntimeError, match="second task"):
            run_sweep(plan, out_path=str(tmp_path / "failed.json"), workers=1)
        assert ensemble._run == ()
        monkeypatch.setattr(ensemble, "_level_task", task)
        run_sweep(plan, out_path=str(tmp_path / "failed.json"), workers=1)
        for suffix in (".json", ".json.ckpt"):
            assert ((tmp_path / f"failed{suffix}").read_bytes()
                    == (tmp_path / f"clean{suffix}").read_bytes()), suffix

    def test_normalization_of_all_records(self, spec14, tmp_path):
        plan = SweepPlan(spec14, tuple(make_grid(2, 2)), 40, 7,
                         read_layers=(3, 7))
        result = run_sweep(plan, workers=1)
        assert len(result.records) == 8
        for rec in result.records.values():
            assert abs(rec.mean.sum() - 1.0) < 1e-9

    def test_resume_skips_completed_levels(self, spec14, tmp_path):
        plan = SweepPlan(spec14, tuple(make_grid(3, 3)), 30, 11)
        fresh = tmp_path / "fresh.json"
        run_sweep(plan, out_path=str(fresh), workers=1)

        # Simulate an interrupted run: keep only the first 4 checkpoint records.
        resumed = tmp_path / "resumed.json"
        run_sweep(plan, out_path=str(resumed), workers=1)
        ckpt = (tmp_path / "resumed.json.ckpt").read_text().splitlines()
        (tmp_path / "resumed.json.ckpt").write_text(
            "\n".join(ckpt[:5]) + "\n"
        )
        resumed.unlink()
        run_sweep(plan, out_path=str(resumed), workers=1)
        assert fresh.read_bytes() == resumed.read_bytes()

    def test_resume_drops_torn_final_line(self, spec14, tmp_path):
        plan = SweepPlan(spec14, tuple(make_grid(2, 2)), 30, 11)
        fresh = tmp_path / "fresh.json"
        run_sweep(plan, out_path=str(fresh), workers=1)

        # A crash mid-append: the last record is cut short, without newline.
        resumed = tmp_path / "resumed.json"
        ckpt = tmp_path / "resumed.json.ckpt"
        ckpt.write_bytes((tmp_path / "fresh.json.ckpt").read_bytes()[:-40])
        run_sweep(plan, out_path=str(resumed), workers=1)
        assert fresh.read_bytes() == resumed.read_bytes()
        # The torn line was cut, so the recomputed record starts a fresh line.
        assert ckpt.read_bytes() == (tmp_path / "fresh.json.ckpt").read_bytes()

    def test_forked_children_leave_the_checkpoint_lock(self, spec14, tmp_path):
        # A pool worker forked during a run must not keep the checkpoint
        # locked once the run's own handle is closed, as when the run is killed.
        plan = SweepPlan(spec14, (DisorderSpec(0, 0),), 5, 1)
        path = str(tmp_path / "a.json.ckpt")
        lock, _ = ensemble._resume(path, plan)
        fork = multiprocessing.get_context("fork")
        started = fork.Event()
        child = fork.Process(target=init_then_sleep, args=(os.getpid(), lock, started))
        child.start()
        try:
            assert started.wait(30)
            lock.close()
            again, _ = ensemble._resume(path, plan)
            again.close()
        finally:
            child.kill()
            child.join(30)

    def test_resume_rejects_corruption_mid_file(self, spec14, tmp_path):
        plan = SweepPlan(spec14, tuple(make_grid(2, 2)), 10, 11)
        out = tmp_path / "a.json"
        run_sweep(plan, out_path=str(out), workers=1)
        ckpt = tmp_path / "a.json.ckpt"
        lines = ckpt.read_text().splitlines(keepends=True)
        for bad, message in ((lines[2][:30] + "\n", "corrupt checkpoint line 3"),
                             ('{"n": 10}\n', "malformed checkpoint record")):
            ckpt.write_text("".join(lines[:2] + [bad] + lines[3:]))
            with pytest.raises(ValueError, match=message):
                run_sweep(plan, out_path=str(out), workers=1)

    def test_resume_replaces_foreign_checkpoint(self, spec14, tmp_path, level_tasks):
        # A file without the plan's header holds none of its records, even
        # when the lines after the header are the plan's own: the run replaces
        # it as a fresh run writes it.
        plan_a = SweepPlan(spec14, tuple(make_grid(2, 2)), 10, 1)
        plan_b = SweepPlan(spec14, tuple(make_grid(2, 2)), 10, 2)
        fresh, out = tmp_path / "fresh.json", tmp_path / "a.json"
        run_sweep(plan_a, out_path=str(fresh), workers=1)
        fresh_ckpt = (tmp_path / "fresh.json.ckpt").read_text()
        run_sweep(plan_b, out_path=str(out), workers=1)
        ckpt = tmp_path / "a.json.ckpt"
        records = "".join(fresh_ckpt.splitlines(keepends=True)[1:])
        for text in (ckpt.read_text(), "5\n" + records, "[1, 2]\n" + records, ""):
            ckpt.write_text(text)
            level_tasks.clear()
            run_sweep(plan_a, out_path=str(out), workers=1)
            assert level_tasks == [0, 1, 2, 3]
            assert out.read_bytes() == fresh.read_bytes()
            assert ckpt.read_text() == fresh_ckpt

    def test_resume_appends_only_missing_layers(self, spec14, tmp_path, level_tasks):
        # A crash between two read layers of level 1: the rerun runs level 1
        # alone and appends only its missing layers.
        plan = SweepPlan(spec14, tuple(make_grid(1, 2)), 10, 4,
                         read_layers=tuple(range(1, 8)))
        fresh, cut = tmp_path / "fresh.json", tmp_path / "cut.json"
        run_sweep(plan, out_path=str(fresh), workers=1)
        fresh_ckpt = (tmp_path / "fresh.json.ckpt").read_text()
        (tmp_path / "cut.json.ckpt").write_text(
            "".join(fresh_ckpt.splitlines(keepends=True)[:1 + 7 + 3]))
        level_tasks.clear()
        run_sweep(plan, out_path=str(cut), workers=1)
        assert level_tasks == [1]
        assert cut.read_bytes() == fresh.read_bytes()
        assert (tmp_path / "cut.json.ckpt").read_text() == fresh_ckpt

    def test_resume_inside_a_pack(self, spec14, tmp_path, monkeypatch, level_tasks):
        # A checkpoint cut inside a pack of 3 levels, with level 4 holding 1
        # of its 3 read layers: the rerun runs levels 4..8 only, packs level
        # 4 apart from the levels that lack every layer, reduces no layer it
        # holds, and writes a fresh run's document and checkpoint.
        plan = SweepPlan(spec14, tuple(make_grid(3, 3)), 20, 6, read_layers=(2, 5, 7))
        fresh, cut = tmp_path / "fresh.json", tmp_path / "cut.json"
        run_sweep(plan, out_path=str(fresh), workers=1)
        fresh_ckpt = (tmp_path / "fresh.json.ckpt").read_text()
        (tmp_path / "cut.json.ckpt").write_text(
            "".join(fresh_ckpt.splitlines(keepends=True)[:1 + 4 * 3 + 1]))
        reduce, stacks = ensemble._reduce, []
        monkeypatch.setattr(ensemble, "_reduce",
                            lambda stack: stacks.append(stack.shape) or reduce(stack))
        level_tasks.clear()
        run_sweep(plan, out_path=str(cut), workers=1)
        assert level_tasks == [4, 5, 6, 7, 8]
        assert stacks == [(14, 20)] * 2 + [(28, 20)] * 6
        assert cut.read_bytes() == fresh.read_bytes()
        assert (tmp_path / "cut.json.ckpt").read_text() == fresh_ckpt

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resumed_level_fills_and_reduces_only_missing_layers(self, spec14, tmp_path,
                                                                 monkeypatch, pool_sizes,
                                                                 workers):
        # A checkpoint cut after 3 of a lone level's 7 read layers, rerun with
        # the level whole (1 worker) or split (2): only the 4 missing layers
        # are filled and reduced, and the files are a fresh run's.
        fake_cpus(monkeypatch, 2)
        monkeypatch.setattr(ensemble, "_CHUNK", 4)
        plan = SweepPlan(spec14, (DisorderSpec(0.842, 0.5),), 100, 13,
                         read_layers=tuple(range(1, 8)))
        fresh, cut = tmp_path / "fresh.json", tmp_path / "cut.json"
        run_sweep(plan, out_path=str(fresh), workers=1)
        fresh_ckpt = (tmp_path / "fresh.json.ckpt").read_text()
        (tmp_path / "cut.json.ckpt").write_text(
            "".join(fresh_ckpt.splitlines(keepends=True)[:1 + 3]))
        filled, reduced = [], []
        fill, reduce = ensemble._level_intensity_stacks, ensemble._reduce
        monkeypatch.setattr(ensemble, "_level_intensity_stacks",
                            lambda *args: filled.append(tuple(args[-1])) or fill(*args))
        monkeypatch.setattr(ensemble, "_reduce", lambda stack: reduced.append(1) or reduce(stack))
        run_sweep(plan, out_path=str(cut), workers=workers)
        assert filled == [(4, 5, 6, 7)] * workers
        assert len(reduced) == 4
        assert cut.read_bytes() == fresh.read_bytes()
        assert (tmp_path / "cut.json.ckpt").read_text() == fresh_ckpt

    @pytest.mark.parametrize("edit", [
        {"level_index": 5}, {"c_tid": 0.3}, {"n": 7}, {"read_layer": 3},
        {"mean": [0.5, 0.5]}, {"std_error": [0.0] * 15},
        # Equal values of another type would change a resumed document's bytes.
        {"level_index": True}, {"n": 10.0}, {"c_td": 1},
        # A key is checked before it indexes the plan; a signed zero is another field.
        {"level_index": -1}, {"read_layer": 7.0}, {"c_tid": -0.0},
        # No run writes a non-finite value or a negative standard error.
        {"mean": [float("nan")] * 14}, {"std_error": [-1.0] * 14},
        {"std_error": [float("inf")] * 14},
    ])
    def test_records_checked_against_plan(self, spec14, tmp_path, edit):
        # A record the plan does not produce is rejected on load and on resume.
        plan = SweepPlan(spec14, tuple(make_grid(2, 2)), 10, 3)
        out = tmp_path / "doc.json"
        run_sweep(plan, out_path=str(out), workers=1)
        doc = json.loads(out.read_text())
        doc["records"][1].update(edit)
        out.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="malformed .* document"):
            EnsembleResult.load(str(out))

        ckpt = tmp_path / "doc.json.ckpt"
        lines = ckpt.read_text().splitlines(keepends=True)
        entry = json.loads(lines[2])
        entry.update(edit)
        ckpt.write_text("".join(lines[:2] + [json.dumps(entry) + "\n"] + lines[3:]))
        with pytest.raises(ValueError, match="malformed checkpoint record"):
            run_sweep(plan, out_path=str(out), workers=1)

    def test_document_roundtrip(self, spec14, tmp_path):
        plan = SweepPlan(spec14, tuple(make_grid(2, 2)), 25, 3, read_layers=(2, 7))
        out = tmp_path / "doc.json"
        result = run_sweep(plan, out_path=str(out), workers=1)
        loaded = EnsembleResult.load(str(out))
        assert loaded.plan.hash() == plan.hash()
        for key, rec in result.records.items():
            assert np.array_equal(loaded.records[key].mean, rec.mean)
            assert np.array_equal(loaded.records[key].std_error, rec.std_error)
        again = tmp_path / "again.json"
        loaded.save(str(again))
        assert again.read_bytes() == out.read_bytes()

    def test_failed_writes_leave_previous_files(self, spec14, tmp_path, monkeypatch):
        plan = SweepPlan(spec14, tuple(make_grid(2, 2)), 10, 3)
        out = tmp_path / "doc.json"
        result = run_sweep(plan, out_path=str(out), workers=1)
        result.write_csv(str(out) + ".csv")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", fail)
        monkeypatch.setattr(EnsembleResult, "to_rows", fail)
        with pytest.raises(OSError):
            result.save(str(out))
        with pytest.raises(OSError):
            result.write_csv(str(out) + ".csv")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_writes_are_synced_before_rename(self, spec14, tmp_path, monkeypatch):
        # A machine crash after the rename must find the whole file on disk:
        # the temporary file is flushed and fsynced before it replaces ``path``.
        result = run_sweep(SweepPlan(spec14, tuple(make_grid(2, 2)), 10, 3), workers=1)
        calls = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_size))
            fsync(fd)

        def recording_replace(src, dst):
            calls.append(("replace", os.path.getsize(src)))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        for write, name in ((result.save, "doc.json"), (result.write_csv, "doc.csv")):
            calls.clear()
            write(str(tmp_path / name))
            size = (tmp_path / name).stat().st_size
            assert calls == [("fsync", size), ("replace", size)], name

    def test_written_files_take_the_mode_open_gives(self, spec14, tmp_path):
        result = run_sweep(SweepPlan(spec14, tuple(make_grid(2, 2)), 10, 3), workers=1)
        old = os.umask(0o022)
        try:
            for umask in (0o022, 0o002, 0o077):
                os.umask(umask)
                for write, name in ((result.save, "doc.json"), (result.write_csv, "doc.csv")):
                    path = tmp_path / f"{umask:o}{name}"
                    write(str(path))
                    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, name
        finally:
            os.umask(old)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{umask:o}{name}" for umask in (0o022, 0o002, 0o077)
            for name in ("doc.json", "doc.csv"))

    def test_flat_table_schema(self, spec14, tmp_path):
        plan = SweepPlan(spec14, tuple(make_grid(2, 2)), 10, 3)
        out = tmp_path / "doc.json"
        result = run_sweep(plan, out_path=str(out), workers=1)
        csv_path = tmp_path / "doc.csv"
        result.write_csv(str(csv_path))
        lines = csv_path.read_text().split("\n")
        assert lines[0] == CSV_HEADER
        assert len([l for l in lines[1:] if l]) == 4 * 14
        c_tid, c_td, layer, mode, mean, se = lines[1].split(",")
        assert float(mean) == result.record(0).mean[0]  # repr floats round-trip

    def test_convergence_toward_large_n(self, spec14):
        # Per-mode agreement between N and 4N within 3 std errors for >= 95%
        # of modes over 50 random levels.
        rng = np.random.default_rng(8)
        grid = tuple(DisorderSpec(*rng.uniform(0, 1, 2)) for _ in range(50))
        small = run_sweep(SweepPlan(spec14, grid, 200, 900), workers=1)
        large = run_sweep(SweepPlan(spec14, grid, 800, 901), workers=1)
        good = total = 0
        for i in range(50):
            s1, s2 = small.record(i), large.record(i)
            guard = np.maximum(3.0 * s1.std_error, 1e-12)
            good += int((np.abs(s1.mean - s2.mean) <= guard).sum())
            total += 14
        assert good / total >= 0.95


class TestThroughput:
    def test_batched_propagation_under_ten_microseconds(self, spec14):
        # Performance target for the propagation machinery on the default
        # 14x7 cone, amortized per realization in the batched kernel.
        n = 20000
        static, dynamic = _sample_block(1, 0, 0, n, 14, 7)
        screens = 0.6 * static[:, :, None] + 0.8 * dynamic
        mats = _layer_matrices(spec14)
        _propagate_block(spec14, mats, np.ascontiguousarray(screens[:100].T), (7,))  # warm up
        start = time.perf_counter()
        _propagate_block(spec14, mats, np.ascontiguousarray(screens.T), (7,))
        per_prop = (time.perf_counter() - start) / n
        assert per_prop < 10e-6, f"{per_prop * 1e6:.2f} us per propagation"

    def test_sample_block_under_ten_microseconds(self):
        # Performance target for rebuilding the per-realization streams (the
        # *sample* stage) on the default 14x7 cone, one full chunk, best of 3.
        n = 8192
        _sample_block(1, 0, 0, 100, 14, 7)  # warm up
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            _sample_block(1, 0, 0, n, 14, 7)
            best = min(best, time.perf_counter() - start)
        per_real = best / n
        assert per_real < 10e-6, f"{per_real * 1e6:.2f} us per realization"

    def test_deep_screens_and_propagate_under_thirty_microseconds(self):
        # Performance target for the two stages that dominate a 30x15 level:
        # composing one chunk's screens and propagating it, n = 2000, best of 3.
        spec = MeshSpec(30, 15)
        mats = _layer_matrices(spec)
        level = DisorderSpec(0.842, 0.5)
        n = 2000
        static, dynamic = _sample_block(1, 0, 0, n, 30, 15)

        def screens_and_propagate(count):
            total = compose_screens(level.c_tid, level.c_td, static[:count], dynamic[:count])
            _propagate_block(spec, mats, total, (15,))

        screens_and_propagate(100)  # warm up
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            screens_and_propagate(n)
            best = min(best, time.perf_counter() - start)
        per_real = best / n
        assert per_real < 30e-6, f"{per_real * 1e6:.2f} us per realization"
