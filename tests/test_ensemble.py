import fcntl
import gc
import json
import multiprocessing
import os
import re
import stat
import subprocess
import sys
import tempfile
import time
import weakref

import numpy as np
import pytest

from meshwalk import ensemble
from meshwalk.cli import main
from meshwalk.ensemble import (
    CSV_HEADER,
    EnsembleResult,
    LevelRecord,
    SweepPlan,
    _layer_matrices,
    _level_intensity_stacks,
    _propagate_block,
    _reduce,
    _sample_block,
    csv_row,
    make_grid,
    run_sweep,
    write_lines,
)
from meshwalk.lattice import MeshSpec, cell_unitary, evolve, intensities, live_rows
from meshwalk.programs import DisorderSpec, compose_screens, field_cells, mode_signs
from conftest import (CPUS, bits, cell_matrices, fake_cpus, pack, propagate, recorded_draws,
                      random_program, split_fields, subprocess_env, walk_program)
from oracles import cell_stream_fields, fsum_reduce, full_unitary, galton_distribution


def live_stacks(spec, read_layers, n):
    """Empty (live rows, n) stacks of one level, one per read layer."""
    return {t: np.empty((len(range(*live_rows(spec, t))), n)) for t in read_layers}


def level_stacks(spec, mats, level, n, master_seed, level_index, read_layers):
    """One level's (live rows, n) intensity stack per read layer, filled in one range."""
    stacks = live_stacks(spec, read_layers, n)
    plan = SweepPlan(spec, (level,) * (level_index + 1), n, master_seed)
    _level_intensity_stacks(plan, mats, (level_index,), 0, n, stacks)
    return stacks


def every_row(spec, t, stack):
    """A layer's (live rows, n) stack as (num_modes, n), +0.0 on every other row."""
    rows = np.zeros((spec.num_modes, stack.shape[1]))
    rows[slice(*live_rows(spec, t))] = stack
    return rows


def full_array_stacks(spec, settings, screens, read_layers):
    """Intensity stacks of the kernel written out over the whole array.

    ``settings`` are a program's cells, ``screens`` is (walkers, num_modes,
    depth) and each stack (num_modes, walkers).  Every mode takes its phase
    factor, cos and sin of every (mode, layer) cell, after each layer but
    the mesh's last, which no screen follows.
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
        if t < spec.depth:
            state *= factors[t - 1]
        if t in read_layers:
            stacks[t] = state.real**2 + state.imag**2
    return stacks


def full_array_screens(level, static, dynamic):
    """The disorder model on every cell: the signed sum, unwrapped."""
    signs = mode_signs(dynamic.shape[-2])
    return signs[:, None] * ((level.c_tid * static)[..., None] + level.c_td * dynamic)


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
            static, dynamic = split_fields(spec, _sample_block(17, 2, 0, n, spec))
            plan = SweepPlan(spec, (level,) * 3, n, 17)
            screens = full_array_screens(level, static, dynamic)
            for settings, _ in self.programs(spec, rng):
                stacks = live_stacks(spec, layers, n)
                for lo, hi in ((0, 120), (120, n)):  # ranges fill their own columns
                    _level_intensity_stacks(plan, cell_matrices(settings), (2,), lo, hi, stacks)
                expected = full_array_stacks(spec, settings, screens, layers)
                for t in layers:
                    # The live rows are stored, and every other row is +0.0.
                    assert np.array_equal(bits(every_row(spec, t, stacks[t])),
                                          bits(expected[t])), (spec, t)

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
        # The result is one C-contiguous (live cell, realization) array, each
        # screen's live rows after the last's, with the full-array model's
        # bits; the mesh's last layer has no screen.  Injection modes 1, 3
        # and 14 take live rows outside the cone.
        level = DisorderSpec(0.3, 0.9)
        for spec in self.SPECS:
            fields = _sample_block(4, 0, 0, 600, spec)
            drawn = fields.copy()
            total = compose_screens(spec, level.c_tid, level.c_td, fields)
            live = [live_rows(spec, t) for t in range(1, spec.depth)]
            assert total.shape == (sum(stop - start for start, stop in live), 600), spec
            assert total.flags.c_contiguous, spec
            expected = full_array_screens(level, *split_fields(spec, drawn))
            packed = pack(spec, expected.transpose(1, 2, 0))
            assert np.array_equal(bits(total), bits(packed)), spec
            # The drawn fields are read, never written.
            assert np.array_equal(bits(fields), bits(drawn)), spec

    def test_live_rows(self):
        # Layer t's cells and the injection mode, 0-based: the cone's 2t rows
        # at the default injection, reaching out to an injection outside it.
        assert [live_rows(MeshSpec(), t) for t in (1, 4, 7)] == [(6, 8), (3, 11), (0, 14)]
        assert [live_rows(MeshSpec(14, 7, 1), t) for t in (1, 7)] == [(0, 8), (0, 14)]
        assert [live_rows(MeshSpec(14, 7, 3), t) for t in (1, 4, 5)] == [(2, 8), (2, 11), (2, 12)]
        assert [live_rows(MeshSpec(14, 7, 14), t) for t in (1, 6)] == [(6, 14), (1, 14)]
        assert live_rows(MeshSpec(30, 15), 15) == (0, 30)


def test_propagate_rejects_realization_major_phases(spec14):
    # The kernel reads packed (live cells, walkers); a (walkers, live cells)
    # array would otherwise run as walkers of garbage phases.
    phases = compose_screens(spec14, 0.5, 0.5, _sample_block(1, 0, 0, 5, spec14))
    mats = _layer_matrices(spec14)
    with pytest.raises(ValueError, match="phases shaped"):
        _propagate_block(spec14, mats, phases.T, (7,))
    assert _propagate_block(spec14, mats, phases, (7,))[7].shape == (14, 5)


def test_kernel_rejects_a_chunk_of_depth_realizations(spec14):
    # A realization-major chunk of exactly depth realizations, (7, 14, 7) at
    # 14x7, once had the kernel layout's shape; no 3-D array has it now.
    _, dynamic = split_fields(spec14, _sample_block(1, 0, 0, 7, spec14))
    mats = _layer_matrices(spec14)
    with pytest.raises(ValueError, match=r"phases shaped \(7, 14, 7\)"):
        evolve(spec14, mats, dynamic, 7)
    with pytest.raises(ValueError, match=r"phases shaped \(7, 14, 7\)"):
        _propagate_block(spec14, mats, dynamic, (7,))


def test_evolve_checks_phases_when_called(spec14):
    # The shape error comes from the call itself, before any layer is asked for.
    phases = compose_screens(spec14, 0.5, 0.5, _sample_block(1, 0, 0, 5, spec14))
    assert phases.shape == (42, 5)
    with pytest.raises(ValueError, match=r"phases shaped \(5, 42\)"):
        evolve(spec14, _layer_matrices(spec14), phases.T, 7)
    # Phases that still carry the last layer's 14 rows, and fields of that
    # layout (14 static and 56 dynamic rows), are refused, not read in part.
    stale = np.concatenate([phases, np.zeros((14, 5))])
    with pytest.raises(ValueError, match=r"phases shaped \(56, 5\), expected \(42, walkers\)"):
        evolve(spec14, _layer_matrices(spec14), stale, 7)
    with pytest.raises(ValueError, match="do not match the mesh"):
        compose_screens(spec14, 0.5, 0.5, np.zeros((70, 5)))


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

    def test_kernel_matches_single_realization_path(self):
        # Each stack row against the dense oracle's injection column, with
        # the disorder model spelled out here from its documentation: the
        # cell streams of GENERATOR_IDENTITY, rebuilt cell by cell
        # (oracles.cell_stream_fields), scaled, summed per waveguide, and
        # negated on modes 8..14, as the whole screen of the program's cells.
        # The sum is applied unwrapped, as compose_screens applies it.
        # Rows outside the stored live rows are +0.0, and the oracle's are
        # zero there too.  Injection modes 1, 3 and 14 reach outside the cone.
        for inject in (8, 1, 3, 14):
            spec14 = MeshSpec(14, 7, inject)
            settings, _ = random_program(spec14, np.random.default_rng(12))
            level = DisorderSpec(0.7, 0.4)
            n = 40
            layers = (4, spec14.depth)
            signs = np.ones(14)
            signs[7:] = -1.0
            stacks = level_stacks(spec14, cell_matrices(settings), level, n, 555, 3, layers)
            drawn = cell_stream_fields(555, 3, 0, n, spec14)
            for r in range(n):
                static = level.c_tid * drawn[0][r]
                dynamic = level.c_td * drawn[1][r]
                applied = signs[:, None] * (static[:, None] + dynamic)
                for layer in layers:
                    column = full_unitary(spec14, settings, applied, up_to_layer=layer)[
                        :, spec14.injection_mode - 1]
                    stack = every_row(spec14, layer, stacks[layer])
                    assert np.abs(stack[:, r] - intensities(column)).max() < 1e-12, (
                        inject, layer, r)

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
                     (1, 2 * block + 5), (3, 3 * block + 11)):
            for _ in range(3):
                self.assert_same(adversarial_stack(rng, m, n))
            self.assert_same(rng.random((m, n)))

    @staticmethod
    def pack_stack() -> np.ndarray:
        """A sweep task's stack: ten 14x7 levels' rows one after another, 200 columns."""
        spec = MeshSpec(14, 7)
        plan = SweepPlan(spec, tuple(make_grid(2, 5)), 200, 20170302)
        stacks = {7: np.empty((10 * 14, 200))}
        _level_intensity_stacks(plan, _layer_matrices(spec), tuple(range(10)), 0, 200, stacks)
        return stacks[7]

    def test_pack_stack(self):
        # 81 rows to a group at the default block, so two groups, the second
        # partial.
        assert ensemble._BLOCK // 200 == 81
        self.assert_same(self.pack_stack())

    def test_all_zero_rows(self):
        # A row of zeros has no bucket term to sum; its mean and standard
        # error are +0.0, as math.fsum gives them.  So is a constant row's
        # standard error: every squared deviation is zero.
        stack = self.pack_stack()
        stack[[0, 80, 81, 139]] = 0.0
        stack[5] = -0.0
        stack[7] = 0.25
        self.assert_same(stack)
        mean, se = _reduce(stack)
        assert bits(mean[[0, 5, 80, 81, 139]]).tolist() == [0] * 5
        assert bits(se[[0, 5, 7, 80, 81, 139]]).tolist() == [0] * 6

    @pytest.mark.parametrize("value", [5e-324, 2.0**-1030, np.inf])
    def test_one_block_takes_math_fsum(self, monkeypatch, value):
        # A subnormal or non-finite value has no bucket, so its block, and
        # with it its whole group, takes math.fsum; every other group of the
        # stack is bucketed.  In a long row the value sits in a later block,
        # after a block whose terms were already made.
        outcomes = []
        bucket_terms = ensemble._bucket_terms
        monkeypatch.setattr(ensemble, "_bucket_terms",
                            lambda block: outcomes.append(b := bucket_terms(block)) or b)
        block = ensemble._BLOCK
        for stack, at in ((self.pack_stack(), (90, 17)),
                          (np.random.default_rng(11).random((2, 2 * block + 7)), (1, block + 3))):
            stack[at] = value
            outcomes.clear()
            self.assert_same(stack)
            assert any(b is None for b in outcomes) and any(b is not None for b in outcomes)

    def test_groups_take_their_own_paths(self, monkeypatch):
        # One stack's groups go different ways.  Intensities are bucketed in
        # both sums.  Values between 2**-540 and 2**-530 are bucketed in their
        # sum, but their squared deviations are subnormal, so only the
        # deviation sum takes math.fsum.  A group holding one inf takes
        # math.fsum in both.  With rows longer than a block, each row is a
        # group, and the inf sits in a later block, after a block whose terms
        # were already made.
        taken = []
        bucket_terms = ensemble._bucket_terms

        def recording(block):
            terms = bucket_terms(block)
            taken.append((float(np.abs(block).max()), terms is not None))
            return terms

        monkeypatch.setattr(ensemble, "_bucket_terms", recording)
        rng = np.random.default_rng(41)
        block = ensemble._BLOCK
        for rows, n in ((block // 200, 200), (1, block + 7)):
            stack = rng.random((3 * rows, n))
            stack[rows:2 * rows] = 2.0**-540 * (1.0 + 1023.0 * stack[rows:2 * rows])
            stack[-1, n - 3] = np.inf
            taken.clear()
            self.assert_same(stack)
            assert (np.inf, False) in taken
            assert any(bucketed for top, bucketed in taken if 2.0**-500 < top <= 1.0)
            tiny = {bucketed for top, bucketed in taken if 0.0 < top < 2.0**-500}
            assert tiny == {True, False}


class TestTables:
    """The table writers' bytes: ``csv_row``'s cells, ``write_lines`` and ``write_csv``."""

    VALUES = (5e-324, 1e-310, 0.1, 1e22)  # the least subnormal, a subnormal, inexact, exponent

    def test_csv_row_cells(self):
        # A str as given, an int as its digits, a float and a numpy float64
        # as the repr of the Python value.
        assert csv_row(("c_tid\\c_td", "a b")) == "c_tid\\c_td,a b"
        assert csv_row((0, 7, -12, 10**20, np.int64(3))) == "0,7,-12,100000000000000000000,3"
        assert csv_row(self.VALUES) == "5e-324,1e-310,0.1,1e+22"
        assert csv_row(map(np.float64, self.VALUES)) == "5e-324,1e-310,0.1,1e+22"
        assert csv_row(("x", 2, 0.1, np.float64(1e22))) == "x,2,0.1,1e+22"

    @pytest.mark.parametrize("lines", [0, 1, 2, 5, 6, 7])
    def test_write_lines(self, tmp_path, monkeypatch, lines):
        # Each line ends with a newline, whatever the lines to a write; no
        # lines make an empty file.
        path = tmp_path / "t.csv"
        text = [f"line {i}" for i in range(lines)]
        for block in (1, 2, 3, 6, ensemble._LINES):
            monkeypatch.setattr(ensemble, "_LINES", block)
            write_lines(str(path), iter(text))
            assert path.read_bytes() == "".join(line + "\n" for line in text).encode(), block

    def test_write_csv(self, tmp_path, monkeypatch):
        # The header, then csv_row of each of to_rows() rows.
        plan = SweepPlan(MeshSpec(8, 2), (DisorderSpec(0.5, 0.25), DisorderSpec(1.0, 0.1)), 3, 1,
                         read_layers=(1, 2))
        mean = np.array([*self.VALUES, *self.VALUES[::-1]])
        se = np.roll(mean, 2)
        result = EnsembleResult(plan, {key: LevelRecord(mean, se)
                                       for key in ((1, 2), (0, 2), (0, 1))})
        path = tmp_path / "t.csv"
        expected = "".join(f"{line}\n" for line in [CSV_HEADER, *map(csv_row, result.to_rows())])
        for block in (5, ensemble._LINES):
            monkeypatch.setattr(ensemble, "_LINES", block)
            result.write_csv(str(path))
            assert path.read_text() == expected
        lines = expected.splitlines()
        assert len(lines) == 1 + 3 * 8
        assert lines[1] == "0.5,0.25,1,1,5e-324,1e-310"
        assert lines[4] == "0.5,0.25,1,4,1e+22,1e-310"
        assert lines[-1] == "1.0,0.1,2,8,5e-324,0.1"


class TestReplacing:
    """``_replacing``'s temporary: its name, its lock, and a removal it survives."""

    def temporaries(self, path):
        return [p.name for p in path.parent.iterdir() if p != path]

    def test_temporary_is_named_as_a_temporary_and_locked_while_written(self, tmp_path):
        path = tmp_path / "d.json"
        with ensemble._replacing(str(path)) as fh:
            fh.write("{}")
            [name] = self.temporaries(path)
            assert re.fullmatch(re.escape(path.name) + ensemble._TEMPORARY, name)
            with open(tmp_path / name, "rb") as other:
                with pytest.raises(BlockingIOError):
                    fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert path.read_text() == "{}" and self.temporaries(path) == []

    def test_temporary_removed_before_its_lock_is_replaced(self, tmp_path, monkeypatch):
        # Another writer's sweep may remove a temporary between its creation
        # and its lock: the writer then takes a new one.
        mkstemp, made = tempfile.mkstemp, []

        def removed_first(*args, **kwargs):
            fd, name = mkstemp(*args, **kwargs)
            if not made:
                os.remove(name)
            made.append(name)
            return fd, name

        monkeypatch.setattr(tempfile, "mkstemp", removed_first)
        path = tmp_path / "d.json"
        ensemble.write_json(str(path), {"a": 1})
        assert len(made) == 2 and path.read_text() == '{\n "a": 1\n}\n'
        assert self.temporaries(path) == []


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

    def test_one_layer_mesh_has_no_screen(self, tmp_path, monkeypatch):
        # A one-layer mesh is read after its only layer, which no screen
        # follows: no field is drawn, and every disorder level gives the
        # records of no disorder, bit for bit.
        grid = tuple(DisorderSpec(*c) for c in ((0, 0), (1, 0), (0, 1), (1, 1)))
        for spec in (MeshSpec(2, 1), MeshSpec(14, 1)):
            assert field_cells(spec) == spec.num_modes
            with recorded_draws(monkeypatch) as calls:
                result = run_sweep(SweepPlan(spec, grid, 50, 3), workers=1)
            assert not calls
            clean = result.record(0)
            for i in range(1, len(grid)):
                assert np.array_equal(bits(result.record(i).mean), bits(clean.mean)), (spec, i)
                assert np.array_equal(bits(result.record(i).std_error),
                                      bits(clean.std_error)), (spec, i)
        monkeypatch.setenv("MESHWALK_OUT_DIR", str(tmp_path))
        assert main(["walk", "--modes", "2", "--depth", "1", "--n", "5", "--workers", "1"]) == 0

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, spec14, tmp_path, workers):
        # Rejected before the checkpoint is opened, so no file is written.
        plan = SweepPlan(spec14, tuple(make_grid(2, 2)), 50, 424242)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_sweep(plan, out_path=str(tmp_path / "w.json"), workers=workers)
        assert list(tmp_path.iterdir()) == []

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
                  "from meshwalk import ensemble\n"
                  "from meshwalk.ensemble import SweepPlan, make_grid, run_sweep\n"
                  "from meshwalk.lattice import MeshSpec\n"
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
            # A stack holds each level's live rows: 6 at layer 3, 14 at layer 7.
            assert stacks[0] == (pack * 6, 37), chunk
            assert sum(rows for rows, _ in stacks) == 21 * (6 + 14), chunk

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
        # Workers inherit the run, so a task names a range of pending levels,
        # a realization range and a range of read layers, six ints and
        # nothing else, and the pool runs one function.
        fake_cpus(monkeypatch, 4)
        monkeypatch.setattr(ensemble, "_CHUNK", 4)
        run_sweep(SweepPlan(spec14, tuple(make_grid(2, 2)), 20, 5), workers=4)
        run_sweep(SweepPlan(spec14, (DisorderSpec(0.842, 0.5),), 3 * 16, 5,
                            read_layers=(2, 7)), workers=4)
        assert pool_sizes == [4, 3]
        assert [name for name, _ in pool_tasks] == ["_level_task"] * 3
        for name, tasks in pool_tasks:
            assert tasks and all(type(task) is tuple and len(task) == 6
                                 and all(type(x) is int for x in task)
                                 for task in tasks), (name, tasks)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_leaves_the_collector_working(self, spec14, monkeypatch, pool_sizes, enabled):
        # At any worker count the collector stays enabled or disabled as it
        # was, and collects a reference cycle made after the run.
        class Node:
            pass

        fake_cpus(monkeypatch, 2)
        plan = SweepPlan(spec14, tuple(make_grid(2, 2)), 20, 5)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for workers in (1, 2):
                run_sweep(plan, workers=workers)
                assert gc.isenabled() == enabled
                node = Node()
                node.cycle = node
                alive = weakref.ref(node)
                del node
                assert gc.collect() >= 1 and alive() is None, workers
        finally:
            (gc.enable if was else gc.disable)()
        assert pool_sizes == [2]

    def test_run_freezes_nothing(self, spec14, monkeypatch, pool_sizes):
        # The collector's permanent generation is the CLI's to fill: a run
        # leaves it as it found it, at any worker count.
        fake_cpus(monkeypatch, 2)
        plan = SweepPlan(spec14, tuple(make_grid(2, 2)), 20, 5)
        for workers in (1, 2):
            frozen = gc.get_freeze_count()
            run_sweep(plan, workers=workers)
            assert gc.get_freeze_count() == frozen, workers
        assert pool_sizes == [2]

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

    def test_resumed_split_level_runs_whole_and_appends_missing_records(
            self, spec14, tmp_path, monkeypatch, pool_sizes, pool_tasks):
        # A checkpoint that holds 3 of a split level's 7 read layers: the
        # level runs again whole, so every read layer is reduced, only the 4
        # missing records are appended, and the files are a fresh run's.
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
        assert pool_tasks == [("_level_task", [(0, 1, 0, 50, 0, 0), (0, 1, 50, 100, 0, 0)]),
                              ("_level_task", [(0, 1, 0, 0, j, j + 1) for j in range(7)])]
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
        # A line cut short fails its CRC-32; a line with its CRC-32 holds a
        # record, which is checked against the plan.
        for bad, message in ((lines[2][:30] + "\n", "corrupt checkpoint line 3"),
                             (ensemble._checkpoint_line({"n": 10}).decode(),
                              "malformed checkpoint record")):
            ckpt.write_text("".join(lines[:2] + [bad] + lines[3:]))
            with pytest.raises(ValueError, match=message):
                run_sweep(plan, out_path=str(out), workers=1)

    def test_resume_replaces_foreign_checkpoint(self, spec14, tmp_path, level_tasks):
        # A file without the plan's header holds none of its records, even
        # when the lines after the header are the plan's own: the run replaces
        # it as a fresh run writes it.  So is a /2 checkpoint of the plan: its
        # header names the plan hash alone, and its lines repeat each level's
        # c_tid, c_td and n.
        plan_a = SweepPlan(spec14, tuple(make_grid(2, 2)), 10, 1)
        plan_b = SweepPlan(spec14, tuple(make_grid(2, 2)), 10, 2)
        fresh, out = tmp_path / "fresh.json", tmp_path / "a.json"
        run_sweep(plan_a, out_path=str(fresh), workers=1)
        fresh_ckpt = (tmp_path / "fresh.json.ckpt").read_text()
        run_sweep(plan_b, out_path=str(out), workers=1)
        ckpt = tmp_path / "a.json.ckpt"
        records = "".join(fresh_ckpt.splitlines(keepends=True)[1:])
        format_2 = json.dumps({"plan_hash": plan_a.hash()}) + "\n"
        for line in records.splitlines(keepends=True):
            entry = json.loads(line.split(" ", 1)[1])
            level = plan_a.grid[entry["level_index"]]
            format_2 += ensemble._checkpoint_line(
                {"level_index": entry["level_index"], "read_layer": entry["read_layer"],
                 "c_tid": level.c_tid, "c_td": level.c_td, "n": 10, "mean": entry["mean"],
                 "std_error": entry["std_error"]}).decode()
        for text in (ckpt.read_text(), "5\n" + records, "[1, 2]\n" + records, "", format_2):
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

    def test_resume_inside_a_pack(self, spec14, tmp_path, monkeypatch, level_tasks,
                                  pool_sizes, pool_tasks):
        # A checkpoint cut inside a pack of 3 levels, with level 4 holding 1
        # of its 3 read layers: the rerun runs levels 4..8 only, each whole,
        # and writes a fresh run's document and checkpoint.  With one worker
        # level 4 packs with level 5; with two, each level is a task of its
        # own, so that each worker takes at least four.
        fake_cpus(monkeypatch, 2)
        plan = SweepPlan(spec14, tuple(make_grid(3, 3)), 20, 6, read_layers=(2, 5, 7))
        fresh = tmp_path / "fresh.json"
        run_sweep(plan, out_path=str(fresh), workers=1)
        fresh_ckpt = (tmp_path / "fresh.json.ckpt").read_text()
        reduce, stacks = ensemble._reduce, []
        monkeypatch.setattr(ensemble, "_reduce",
                            lambda stack: stacks.append(stack.shape) or reduce(stack))
        # Live rows: 4 at layer 2, 10 at layer 5 and 14 at layer 7.
        one_level, two_levels = [(4, 20), (10, 20), (14, 20)], [(8, 20), (20, 20), (28, 20)]
        for workers, shapes in ((1, two_levels * 2 + one_level), (2, one_level * 5)):
            cut = tmp_path / f"cut{workers}.json"
            (tmp_path / f"cut{workers}.json.ckpt").write_text(
                "".join(fresh_ckpt.splitlines(keepends=True)[:1 + 4 * 3 + 1]))
            level_tasks.clear()
            stacks.clear()
            run_sweep(plan, out_path=str(cut), workers=workers)
            assert level_tasks == [4, 5, 6, 7, 8], workers
            assert stacks == shapes, workers
            assert cut.read_bytes() == fresh.read_bytes(), workers
            assert (tmp_path / f"cut{workers}.json.ckpt").read_text() == fresh_ckpt, workers
        # Only the two-worker run starts a pool; its tasks are (first, last,
        # lo, hi, a, b) over the 5 pending levels and all 3 read layers.
        assert pool_sizes == [2]
        assert [tasks for _, tasks in pool_tasks] == [[(p, p + 1, 0, 20, 0, 3) for p in range(5)]]

    def test_progress_reports_the_records_held(self, spec14, tmp_path, monkeypatch, pool_sizes,
                                               pool_tasks):
        # A packed run, a rerun from its checkpoint cut inside a pack, and a
        # lone split level, each on a pool of 2: every progress call reports
        # the records held so far, as many as the checkpoint holds, never
        # fewer than the call before, and the last reports all of them.  A
        # split level's fill round reports nothing.
        fake_cpus(monkeypatch, 2)
        packed = SweepPlan(spec14, tuple(make_grid(3, 3)), 20, 6, read_layers=(2, 5, 7))
        split = SweepPlan(spec14, (DisorderSpec(0.842, 0.5),), 100, 13,
                          read_layers=tuple(range(1, 8)))

        def calls_of(plan, name):
            ckpt, calls = tmp_path / f"{name}.json.ckpt", []
            pool_tasks.clear()
            run_sweep(plan, out_path=str(tmp_path / f"{name}.json"), workers=2,
                      progress=lambda done, total: calls.append(
                          (done, total, len(ckpt.read_text().splitlines()) - 1,
                           len(pool_tasks))))
            total = len(plan.grid) * len(plan.read_layers)
            assert calls[-1][:2] == (total, total), name
            dones = [done for done, *_ in calls]
            assert dones == sorted(dones), (name, calls)
            assert all(done == held for done, _, held, _ in calls), (name, calls)
            return calls

        calls_of(packed, "packed")
        (tmp_path / "resumed.json.ckpt").write_text("".join(
            (tmp_path / "packed.json.ckpt").read_text().splitlines(keepends=True)[:1 + 13]))
        assert calls_of(packed, "resumed")[0][0] > 13
        monkeypatch.setattr(ensemble, "_CHUNK", 4)
        assert [rounds for *_, rounds in calls_of(split, "split")] == [2] * 7
        assert pool_sizes == [2, 2, 2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resumed_level_runs_whole_and_appends_missing_records(self, spec14, tmp_path,
                                                                  monkeypatch, pool_sizes,
                                                                  workers):
        # A checkpoint cut after 3 of a lone level's 7 read layers, rerun with
        # the level whole (1 worker) or split (2): the level is filled and
        # reduced at every read layer, only the 4 missing records are
        # appended, and the files are a fresh run's.  Each of a split level's
        # 2 ranges is filled once; its reduce tasks' ranges are empty.
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

        def counted(plan, mats, levels, lo, hi, stacks):
            if lo < hi:
                filled.append(tuple(stacks))
            fill(plan, mats, levels, lo, hi, stacks)

        monkeypatch.setattr(ensemble, "_level_intensity_stacks", counted)
        monkeypatch.setattr(ensemble, "_reduce", lambda stack: reduced.append(1) or reduce(stack))
        run_sweep(plan, out_path=str(cut), workers=workers)
        assert filled == [(1, 2, 3, 4, 5, 6, 7)] * workers
        assert len(reduced) == 7
        assert cut.read_bytes() == fresh.read_bytes()
        assert (tmp_path / "cut.json.ckpt").read_text() == fresh_ckpt

    @pytest.mark.parametrize("edit", [
        {"level_index": 5}, {"c_tid": 0.3}, {"n": 7}, {"read_layer": 3},
        {"mean": [0.5, 0.5]}, {"std_error": [0.0] * 15},
        # A key of another type would change a resumed document's bytes; n and
        # c_td, which the plan holds, are fields a record does not have.
        {"level_index": True}, {"n": 10.0}, {"c_td": 1},
        # A key is checked before it indexes the plan; c_tid is a field a
        # record does not have, whatever its value.
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
        entry = json.loads(lines[2].split(" ", 1)[1])
        entry.update(edit)
        line = ensemble._checkpoint_line(entry).decode()
        ckpt.write_text("".join(lines[:2] + [line] + lines[3:]))
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
        static, dynamic = split_fields(spec14, _sample_block(1, 0, 0, n, spec14))
        screens = (0.6 * static[:, :, None] + 0.8 * dynamic).transpose(1, 2, 0)
        mats = _layer_matrices(spec14)
        _propagate_block(spec14, mats, pack(spec14, screens[:, :, :100]), (7,))  # warm up
        start = time.perf_counter()
        _propagate_block(spec14, mats, pack(spec14, screens), (7,))
        per_prop = (time.perf_counter() - start) / n
        assert per_prop < 10e-6, f"{per_prop * 1e6:.2f} us per propagation"

    def test_sample_block_under_ten_microseconds(self):
        # Performance target for drawing the disorder fields (the *sample*
        # stage) on the default 14x7 cone, one full chunk, best of 3.
        n, spec = 8192, MeshSpec()
        _sample_block(1, 0, 0, 100, spec)  # warm up
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            _sample_block(1, 0, 0, n, spec)
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
        fields = _sample_block(1, 0, 0, n, spec)

        def screens_and_propagate(count):
            total = compose_screens(spec, level.c_tid, level.c_td, fields[:, :count])
            _propagate_block(spec, mats, total, (15,))

        screens_and_propagate(100)  # warm up
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            screens_and_propagate(n)
            best = min(best, time.perf_counter() - start)
        per_real = best / n
        assert per_real < 30e-6, f"{per_real * 1e6:.2f} us per realization"
