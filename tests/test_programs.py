import numpy as np
import pytest

from meshwalk.ensemble import SweepPlan, _layer_matrices, run_sweep
from meshwalk.lattice import (HADAMARD, INPUT_SPLITTER, MeshSpec, cell_unitary, intensities,
                              live_rows)
from meshwalk.programs import (_JUMP, DisorderSpec, compose_screens, draw_block, field_cells,
                               mode_signs)
from conftest import (bits, join_fields, pack, propagate, recorded_draws, split_fields, unpack,
                      walk_program)
from oracles import BAR, build_tomography_program, cell_stream_fields, ks_uniform_statistic


def one_realization(seed, level_index, r, spec=MeshSpec()):
    """Drawn static (num_modes,) and dynamic (num_modes, depth) fields of realization r."""
    static, dynamic = split_fields(spec, draw_block(seed, level_index, r, r + 1, spec))
    return static[0], dynamic[0]


def disordered(program, level, static, dynamic):
    """The program's cells with one realization's disorder as their screens.

    The screens are (num_modes, depth), composed on the live cells of the
    mesh's default injection; every other cell, which no amplitude reaches,
    reads 0.
    """
    spec = MeshSpec(*dynamic.shape)
    # A batch of one.
    phases = compose_screens(spec, level.c_tid, level.c_td,
                             join_fields(spec, static[None], dynamic[None]))
    return program[0], unpack(spec, phases)[:, :, 0]


def live_cells(spec):
    """(num_modes, depth) mask of the cells the kernel reads a phase of."""
    return unpack(spec, pack(spec, np.ones((spec.num_modes, spec.depth)))) == 1


class TestBuildSymmetricQw:
    """The walk's cells, as the ensembles run them: ``ensemble._layer_matrices``."""

    def test_settings_layout(self, spec14):
        # Layer t stacks t cells: the input splitter, then Hadamards, bit for bit.
        splitter, hadamard = (cell_unitary(s).view(np.uint64) for s in (INPUT_SPLITTER, HADAMARD))
        for spec in (spec14, MeshSpec(30, 15), MeshSpec(2, 1), MeshSpec(20, 4)):
            mats = _layer_matrices(spec)
            assert [cells.shape for cells in mats] == [(t, 2, 2) for t in range(1, spec.depth + 1)]
            assert np.array_equal(mats[0][0].view(np.uint64), splitter)
            for cells in mats[1:]:
                for u in cells:
                    assert np.array_equal(u.view(np.uint64), hadamard)

    def test_distribution_symmetric_about_injection_pair(self, spec14, qw_program):
        dist = intensities(propagate(spec14, *qw_program))
        assert np.abs(dist - dist[::-1]).max() < 1e-12

    def test_two_layer_toy_mesh_is_uniform(self):
        # 4 modes, 2 layers: hand-multiplying the three cells gives 1/4 per mode.
        spec = MeshSpec(num_modes=4, depth=2)
        dist = intensities(propagate(spec, *walk_program(spec)))
        assert np.abs(dist - 0.25).max() < 1e-12


class TestDisorderSpec:
    @pytest.mark.parametrize("bad", [(-0.1, 0.0), (0.0, 1.2), (2.0, 2.0)])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            DisorderSpec(*bad)


class TestSampleRealization:
    """A realization's drawn fields, and their scaling by the level."""

    def test_deterministic_bit_identical(self, spec14):
        a = one_realization(123456789, 4, 71)
        b = one_realization(123456789, 4, 71)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        # The same realization drawn inside a larger chunk.
        static, dynamic = split_fields(spec14, draw_block(123456789, 4, 60, 80, spec14))
        assert np.array_equal(static[11], a[0])
        assert np.array_equal(dynamic[11], a[1])

    def test_different_indices_differ(self, spec14):
        static, _ = split_fields(spec14, draw_block(1, 0, 0, 2, spec14))
        assert not np.array_equal(static[0], static[1])

    def test_scaling_by_coefficients(self, spec14):
        # Each field alone.
        static, dynamic = split_fields(spec14, draw_block(9, 0, 0, 1, spec14))  # a batch of one
        full, half = DisorderSpec(1.0, 1.0), DisorderSpec(0.5, 0.25)
        s_full, s_half = (compose_screens(spec14, l.c_tid, l.c_td,
                                          join_fields(spec14, static, 0 * dynamic))
                          for l in (full, half))
        d_full, d_half = (compose_screens(spec14, l.c_tid, l.c_td,
                                          join_fields(spec14, 0 * static, dynamic))
                          for l in (full, half))
        assert np.abs(s_half - 0.5 * s_full).max() < 1e-15
        assert np.abs(d_half - 0.25 * d_full).max() < 1e-15

    def test_marginal_is_uniform(self, spec14):
        # 1e5 pooled static draws at full strength vs U[-pi, pi], from the
        # modes a screen reads: the last screen's live rows, 1..12.
        need = 100_000
        first, last = live_rows(spec14, spec14.depth - 1)
        fields = draw_block(2024, 0, 0, need // (last - first) + 1, spec14)
        assert ks_uniform_statistic(fields[first:last].T.ravel()[:need], -np.pi, np.pi) < 0.01


class TestDrawBlock:
    """The stream layout against numpy's documented streams, rebuilt cell by cell."""

    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**40 + 7, 10**30, 1_020_170_301)
    LEVELS = (0, 1, 399, 2**33)
    # Default injection, injection modes 1 and 3 (live rows outside the
    # cone), and a mesh wider than its cone ever gets (static rows not drawn).
    SPECS = (MeshSpec(), MeshSpec(14, 7, 1), MeshSpec(14, 7, 3), MeshSpec(20, 4, 2))

    @staticmethod
    def assert_block_matches(seed, level, lo, hi, spec):
        fields = draw_block(seed, level, lo, hi, spec)
        assert fields.shape == (field_cells(spec), hi - lo) and fields.flags.c_contiguous
        want = join_fields(spec, *cell_stream_fields(seed, level, lo, hi, spec))
        assert np.array_equal(bits(fields), bits(want)), (seed, level, lo, hi, spec)

    @pytest.mark.parametrize("num_modes, depth", [(14, 7), (30, 15)])
    def test_bit_identical_to_generator(self, num_modes, depth):
        spec = MeshSpec(num_modes, depth)
        for seed in self.SEEDS:
            for level in self.LEVELS:
                self.assert_block_matches(seed, level, 0, 3, spec)
                self.assert_block_matches(seed, level, 397, 399, spec)

    def test_other_injections_and_wide_meshes(self):
        # Every live row of every screen is a cell, and the static rows of
        # modes no screen reads hold 0.0 (cell_stream_fields leaves them so).
        for spec in self.SPECS:
            self.assert_block_matches(7, 3, 5, 40, spec)
        fields = draw_block(7, 3, 5, 40, MeshSpec(20, 4, 2))
        # Its last screen's live rows are 1..12, from the injection mode on.
        assert not fields[:1].any() and not fields[13:20].any()
        assert fields[1:13].all()

    def test_chunk_straddling_two_word_realization_index(self):
        # A range far into every cell's substream, across 2**32.
        for seed in (0, 10**30):
            self.assert_block_matches(seed, 5, 2**32 - 3, 2**32 + 3, MeshSpec())

    def test_levels_seeded_together_are_each_levels_block(self):
        # A sequence of levels fills level-major columns: each level's are
        # its own block, bit for bit, whatever the level index.
        levels = (0, 7, 2**32 - 1, 2**32, 2**33 + 5)
        spec = MeshSpec()
        for seed in (0, 10**30):
            for lo, hi in ((0, 3), (2**32 - 2, 2**32 + 1)):
                fields = draw_block(seed, levels, lo, hi, spec)
                count = hi - lo
                assert fields.shape == (field_cells(spec), len(levels) * count)
                for j, level in enumerate(levels):
                    alone = draw_block(seed, level, lo, hi, spec)
                    assert np.array_equal(bits(fields[:, j * count:(j + 1) * count]),
                                          bits(alone)), (seed, level)

    @pytest.mark.parametrize("spec", [MeshSpec(), MeshSpec(30, 15), MeshSpec(14, 7, 3)])
    def test_chunking_changes_no_value(self, spec):
        # A range drawn whole, or cut into chunks of any size, at lo = 0 and
        # at lo > 0, as one level or in a pack of levels.
        cells = field_cells(spec)
        whole = draw_block(11, (2, 5), 3, 103, spec).reshape(cells, 2, 100)
        for step in (1, 7, 33, 100):
            parts = [draw_block(11, (2, 5), a, min(a + step, 103), spec).reshape(cells, 2, -1)
                     for a in range(3, 103, step)]
            assert np.array_equal(bits(np.concatenate(parts, axis=2)), bits(whole)), step
        assert np.array_equal(bits(draw_block(11, 5, 0, 103, spec)[:, 3:]), bits(whole[:, 1]))

    def test_substreams_never_overlap(self):
        # Cell c's substream starts at draw c * _JUMP of its level's stream
        # and a range draws at most 2**64 of it, so two cells share a draw
        # only if (c' - c) * _JUMP lies within 2**64 of 0 modulo 2**128.  No
        # cell difference of a mesh up to 64 modes and 64 layers, which has
        # at most 64 + 64 * 64 cells, brings it there.
        period = 1 << 128
        cells = 64 + 64 * 64
        assert max(field_cells(MeshSpec(m, d, i)) for m in range(2, 65, 2)
                   for d in range(1, m // 2 + 1) for i in (1, m // 2 + 1, m)) <= cells
        assert _JUMP == 210306068529402873165736369884012333109
        closest = min(min(d * _JUMP % period, -d * _JUMP % period) for d in range(1, cells))
        assert closest >= 1 << 64, closest

    @pytest.mark.parametrize("num_modes, depth, cells, drawn",
                             [(14, 7, 56, 54), (30, 15, 240, 238)], ids=["14-7", "30-15"])
    def test_last_layer_cells_are_not_drawn(self, monkeypatch, num_modes, depth, cells, drawn):
        # No screen follows the last layer, so its live (mode, layer) rows,
        # which ended the cells, are not cells, nor are the static modes
        # outside the last screen's live rows: the cone's two edge modes.
        # Each kept cell keeps the index, so the substream and the values,
        # it had while the last layer's rows were cells too.
        spec = MeshSpec(num_modes, depth)
        assert field_cells(spec) == cells
        with recorded_draws(monkeypatch) as calls:
            fields = draw_block(3, 1, 10, 15, spec)
        rows = [row for _, row in written_cells(fields, calls, 5)]
        assert len(calls) == len(set(rows)) == drawn
        m, inject = spec.num_modes, spec.injection_mode - 1
        live = [range(min(m // 2 - t, inject), max(m // 2 + t, inject + 1))
                for t in range(1, depth + 1)]
        # The cells while every layer had a screen: live static modes, then packed rows.
        every_layer = [*live[-1], *range(m, m + sum(map(len, live)))]
        edges, last_layer = {*live[-1]} - {*live[-2]}, range(cells, m + sum(map(len, live)))
        assert edges == {0, m - 1} and len(last_layer) == m
        assert rows == [c for c in every_layer if c not in edges and c not in last_layer]
        assert np.array_equal(bits(fields), bits(join_fields(
            spec, *cell_stream_fields(3, 1, 10, 15, spec))))

    def test_empty_and_invalid_ranges(self):
        spec = MeshSpec()
        assert draw_block(1, 0, 4, 4, spec).shape == (field_cells(spec), 0)
        assert draw_block(1, (), 0, 4, spec).shape == (field_cells(spec), 0)
        for args in ((-1, 0, 0, 1), (1, -1, 0, 1), (1, 0, -1, 1), (1, 0, 3, 2),
                     (1, (3, -1), 0, 1), (1, 0, 0, 2**64 + 1)):
            with pytest.raises(ValueError):
                draw_block(*args, spec)


# PCG64DXSM's LCG multiplier; one double is one step of its 128-bit state.
CHEAP_MULT = 0xDA942042E4DD58B5
PERIOD = 1 << 128
# The alignment the allocator is shifted against below: a cache line.
ALIGN = 64


def lcg_jump(state, inc, delta):
    """The 128-bit LCG state ``delta`` steps on, in Python ints (Brown, 1994)."""
    mult, plus, acc_mult, acc_plus = CHEAP_MULT, inc, 1, 0
    while delta:
        if delta & 1:
            acc_mult, acc_plus = acc_mult * mult % PERIOD, (acc_plus * mult + plus) % PERIOD
        mult, plus = mult * mult % PERIOD, (mult + 1) * plus % PERIOD
        delta >>= 1
    return (acc_mult * state + acc_plus) % PERIOD


def cell_state(seed, level, cell, position):
    """The words of the level's stream at draw ``position`` of cell ``cell``'s substream."""
    bits = np.random.PCG64DXSM(np.random.SeedSequence((seed, level))).jumped(cell)
    return bits.advance(position).state["state"]


def written_cells(fields, calls, count):
    """``(level position, row)`` that each recorded call wrote, in call order."""
    base, stride = fields.ctypes.data, fields.strides[0]
    return [((address - base) % stride // (8 * count), (address - base) // stride)
            for _, address, _ in calls]


def expected_cells(spec):
    """The drawn cells in stream order, from the live rows stated in oracles.cell_stream_fields.

    A screen follows each layer but the last, so the last layer's rows are not cells.
    """
    m, inject = spec.num_modes, spec.injection_mode - 1
    live = [range(min(m // 2 - t, inject), max(m // 2 + t, inject + 1))
            for t in range(1, spec.depth)]
    return [*sorted(set().union(*live)), *range(m, m + sum(map(len, live)))]


def nan_filled_empty(monkeypatch, shift=0):
    """Make np.empty return NaN-filled float64 buffers ``shift`` bytes past an ALIGN boundary.

    Buffers of other types (numpy's seeding allocates some) are left as they are.
    """
    empty = np.empty

    def shifted(shape, dtype=float, **kwargs):
        if np.dtype(dtype) != np.float64 or kwargs:
            return empty(shape, dtype, **kwargs)
        size = int(np.prod(shape))
        raw = empty(size + ALIGN // 8, dtype=dtype)
        skip = (shift - raw.ctypes.data) % ALIGN // 8
        out = raw[skip:skip + size].reshape(shape)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", shifted)


class TestSeeding:
    """How draw_block seeds and positions each level's stream, cell by cell.

    The names are those of the tests of the earlier one-stream-per-realization
    seeding; each checks the counterpart guarantee of the per-cell layout.
    A stream is seeded once per level, advanced to draw ``lo`` of each drawn
    cell's substream, and draws that cell's run of realizations into its row.
    """

    EDGES = (0, 1, 2**32 - 1, 2**63, 2**64 - 1)
    # Realization ranges of one and of two SeedSequence-sized words, and the
    # last ones a range can reach.
    REALIZATIONS = ((0, 3), (2**32 - 1, 2**32 + 1), (2**64 - 2, 2**64))

    def test_limb_set_seed_matches_python_ints(self, monkeypatch):
        # Each cell is drawn from c * _JUMP + lo steps into its level's
        # stream, mod 2**128, and leaves it at c * _JUMP + hi: the advances
        # taken between cells match the LCG jumped on Python ints, also where
        # c * _JUMP + lo wraps past 2**128.
        spec = MeshSpec(4, 2)
        wrapped = set()
        for seed in (0, 1, 2**64 - 1, 10**30):
            for level in (0, 2**33):
                words = np.random.PCG64DXSM(np.random.SeedSequence((seed, level))).state["state"]
                state, inc = words["state"], words["inc"]
                for lo in self.EDGES:
                    hi = lo + 1
                    with recorded_draws(monkeypatch) as calls:
                        fields = draw_block(seed, level, lo, hi, spec)
                    rows = [row for _, row in written_cells(fields, calls, 1)]
                    assert rows == expected_cells(spec)
                    for (before, _, after), c in zip(calls, rows):
                        assert before == {"state": lcg_jump(state, inc, c * _JUMP + lo),
                                          "inc": inc}, (seed, level, lo, c)
                        assert after == {"state": lcg_jump(state, inc, c * _JUMP + hi),
                                         "inc": inc}, (seed, level, lo, c)
                        wrapped.add(c * _JUMP + lo >= PERIOD)
        assert wrapped == {False, True}

    @pytest.mark.parametrize("seed", TestDrawBlock.SEEDS)
    def test_memmove_load_gives_the_reference_state(self, monkeypatch, seed):
        # Before drawing a cell, the level's stream holds numpy's jumped(c)
        # state advanced by lo, for every drawn cell of every level.
        spec = MeshSpec()
        for level in TestDrawBlock.LEVELS:
            for lo, hi in self.REALIZATIONS:
                with recorded_draws(monkeypatch) as calls:
                    fields = draw_block(seed, level, lo, hi, spec)
                cells = written_cells(fields, calls, hi - lo)
                assert [row for _, row in cells] == expected_cells(spec)
                for (before, _, _), (_, c) in zip(calls, cells):
                    assert before == cell_state(seed, level, c, lo), (seed, level, lo, c)

    @pytest.mark.parametrize("seed", TestDrawBlock.SEEDS)
    def test_pointer_load_gives_the_reference_stream(self, monkeypatch, seed):
        # Levels drawn together each draw their cells' reference streams into
        # their own columns, and leave each substream at draw hi.
        spec, levels = MeshSpec(), TestDrawBlock.LEVELS
        for lo, hi in self.REALIZATIONS:
            count = hi - lo
            with recorded_draws(monkeypatch) as calls:
                fields = draw_block(seed, levels, lo, hi, spec)
            cells = written_cells(fields, calls, count)
            assert cells == [(j, c) for j in range(len(levels)) for c in expected_cells(spec)]
            for (_, _, after), (j, c) in zip(calls, cells):
                assert after == cell_state(seed, levels[j], c, hi), (seed, levels[j], lo, c)
            for j, level in enumerate(levels):
                want = join_fields(spec, *cell_stream_fields(seed, level, lo, hi, spec))
                assert np.array_equal(bits(fields[:, j * count:(j + 1) * count]), bits(want))

    @pytest.mark.parametrize("count", [1, 2, 7])
    @pytest.mark.parametrize("shift", [0, 8])
    def test_seed_rows_are_aligned_copies_in_the_generators_order(self, monkeypatch, count,
                                                                   shift):
        # Whatever the allocator's alignment (here every buffer starts
        # ``shift`` bytes past a boundary and holds NaN), the block is the
        # buffer allocated, written in place row by row in the streams'
        # order: static modes, then packed rows, level after level.
        spec, levels = MeshSpec(), (0, 5)
        with monkeypatch.context() as patch:
            nan_filled_empty(patch, shift)
            with recorded_draws(monkeypatch) as calls:
                fields = draw_block(3, levels, 10, 10 + count, spec)
        assert fields.ctypes.data % ALIGN == shift
        assert fields.flags.c_contiguous and fields.dtype == np.float64
        assert fields.shape == (field_cells(spec), len(levels) * count)
        assert written_cells(fields, calls, count) == [(j, c) for j in range(len(levels))
                                                       for c in expected_cells(spec)]
        want = np.concatenate([join_fields(spec, *cell_stream_fields(3, level, 10, 10 + count,
                                                                     spec))
                               for level in levels], axis=1)
        assert np.array_equal(bits(fields), bits(want))

    def test_unaligned_or_misshapen_seed_rows_raise_and_leave_the_generator(self, monkeypatch):
        # A range outside [0, 2**64) raises before any stream is seeded, and
        # fields of another shape are rejected by compose_screens unread.
        spec = MeshSpec()
        seeded = []
        real = np.random.PCG64DXSM
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "PCG64DXSM", lambda seq: seeded.append(seq) or real(seq))
            for lo, hi in ((-1, 1), (3, 2), (0, 2**64 + 1), (2**64, 2**64 + 1)):
                with pytest.raises(ValueError, match=r"not within \[0, 2\*\*64\)"):
                    draw_block(1, (0, 1), lo, hi, spec)
            assert not seeded
        cells = field_cells(spec)
        for shape in ((cells - 1, 3), (cells + 1, 3), (cells,), (cells, 3, 1)):
            fields = np.full(shape, 0.25)
            with pytest.raises(ValueError, match="do not match the mesh"):
                compose_screens(spec, 0.5, 0.5, fields)
            assert (fields == 0.25).all()

    @pytest.mark.parametrize("fail_at", [None, 0, 3])
    def test_row_loop_restores_the_generators_own_struct(self, monkeypatch, fail_at):
        # However the cell loop ends, nothing outlives it: numpy's global
        # state is untouched, and the next draw is the reference.
        spec, levels, (lo, hi) = MeshSpec(), (0, 2**32), (2**32 - 2, 2**32 + 1)
        legacy = np.random.get_state()
        with recorded_draws(monkeypatch, fail_at) as calls:
            if fail_at is None:
                fields = draw_block(5, levels, lo, hi, spec)
            else:
                with pytest.raises(KeyboardInterrupt):
                    draw_block(5, levels, lo, hi, spec)
        assert len(calls) == (2 * len(expected_cells(spec)) if fail_at is None else fail_at)
        if fail_at is not None:
            fields = draw_block(5, levels, lo, hi, spec)
        want = np.concatenate([join_fields(spec, *cell_stream_fields(5, level, lo, hi, spec))
                               for level in levels], axis=1)
        assert np.array_equal(bits(fields), bits(want))
        after = np.random.get_state()
        assert after[0] == legacy[0] and np.array_equal(after[1], legacy[1])
        assert after[2:] == legacy[2:]

    @pytest.mark.parametrize("layout", [MeshSpec(), MeshSpec(14, 7, 1), MeshSpec(20, 4, 2)])
    def test_state_layout_reads_the_word_order(self, monkeypatch, layout):
        # Row c of the block is cell c of GENERATOR_IDENTITY: it is drawn
        # from the substream jumped(c), the cells in increasing order, the
        # live static modes first and then every packed row.
        with recorded_draws(monkeypatch) as calls:
            fields = draw_block(8, 2, 4, 9, layout)
        cells = [row for _, row in written_cells(fields, calls, 5)]
        assert cells == expected_cells(layout) == sorted(cells)
        assert cells[-1] == field_cells(layout) - 1
        for (before, _, _), c in zip(calls, cells):
            assert before == cell_state(8, 2, c, 4), c

    @pytest.mark.parametrize("layout", [MeshSpec(14, 3), MeshSpec(20, 4, 2), MeshSpec(30, 5)])
    def test_state_layout_rejects_words_it_did_not_write(self, monkeypatch, layout):
        # The static modes no layer reads are neither drawn nor left as the
        # allocator gave them: their rows hold +0.0, and no substream of
        # theirs is touched.  Every drawn row is finite.
        m = layout.num_modes
        with monkeypatch.context() as patch:
            nan_filled_empty(patch)
            with recorded_draws(monkeypatch) as calls:
                fields = draw_block(8, 2, 4, 9, layout)
        drawn = set(expected_cells(layout))
        unread = [c for c in range(m) if c not in drawn]
        assert unread
        assert not bits(fields[unread]).any()
        assert np.isfinite(fields).all()
        assert {row for _, row in written_cells(fields, calls, 5)} == drawn
        starts = {cell_state(8, 2, c, 4)["state"] for c in unread}
        assert not starts & {before["state"] for before, _, _ in calls}


class TestApplyDisorder:
    """The disorder model of compose_screens: one realization's screens."""

    def test_zero_disorder_is_identity(self, spec14, qw_program):
        settings, screens = disordered(qw_program, DisorderSpec(0.0, 0.0),
                                       *one_realization(5, 0, 0))
        assert np.array_equal(screens, qw_program[1])
        assert settings == qw_program[0]

    def test_static_only_constant_across_layers(self, spec14, qw_program):
        _, screens = disordered(qw_program, DisorderSpec(1.0, 0.0), *one_realization(6, 0, 0))
        # Every mode a screen reads is live at the last screen, after layer
        # 6; each of its live cells holds that phase.  No screen follows layer 7.
        live = live_cells(spec14)
        assert live[1:13, -2].all() and not live[[0, 13]].any() and not live[:, -1].any()
        assert np.abs(screens - screens[:, -2:-1])[live].max() < 1e-15

    def test_mirrored_sign_pattern(self, spec14, qw_program):
        signs = mode_signs(14)
        assert np.array_equal(signs, np.concatenate([np.ones(7), -np.ones(7)]))
        level, (static, dynamic) = DisorderSpec(0.4, 0.0), one_realization(7, 0, 0)
        # The applied static screen: +c_tid * static on modes 1..7, - on 8..14.
        _, applied = disordered(qw_program, level, static, dynamic)
        live = live_cells(spec14)
        assert np.abs(applied[:7] - 0.4 * static[:7, None])[live[:7]].max() < 1e-15
        assert np.abs(applied[7:] + 0.4 * static[7:, None])[live[7:]].max() < 1e-15

    def test_dimension_mismatch(self):
        # The fields are (cells, count), 14 static and 42 packed dynamic rows
        # at 14x7, one per live cell of the six screens: a single
        # realization's fields are a batch of one, and a realization-major
        # or another mesh's draw is rejected.  So is a draw that still holds
        # the last layer's 14 rows, 70 in all, as the mesh once had.
        level = DisorderSpec(0.5, 0.5)
        assert field_cells(MeshSpec()) == 56
        for fields in (np.zeros(56), np.zeros((5, 56)), np.zeros((55, 5)), np.zeros((14, 7)),
                       np.zeros((56, 5, 1)), np.zeros((field_cells(MeshSpec(16, 7)), 5)),
                       np.zeros((70, 5))):
            with pytest.raises(ValueError, match="do not match the mesh"):
                compose_screens(MeshSpec(), level.c_tid, level.c_td, fields)

    @pytest.mark.parametrize("c_tid, c_td", [(1.0, 0.0), (0.0, 1.0), (0.842, 0.5)])
    def test_mirrored_fields_compose_the_mirrored_screens(self, c_tid, c_td):
        # The drawn fields reversed and negated compose the screens reversed,
        # bit for bit: the signs are antisymmetric, and neither a negation
        # nor a sign of +-1 rounds.  A wide mesh's static rows outside the
        # cone are never read.
        for spec in (MeshSpec(), MeshSpec(30, 15), MeshSpec(20, 4)):
            static, dynamic = split_fields(spec, draw_block(41, 3, 0, 500, spec))
            screens, flipped = (
                unpack(spec, compose_screens(spec, c_tid, c_td, join_fields(spec, *fields)))
                for fields in ((static, dynamic), (-static[:, ::-1], -dynamic[:, ::-1])))
            assert np.array_equal(bits(flipped), bits(screens[::-1])), spec

    def test_mirrored_realization_mirrors_output(self, spec14, qw_program):
        # Reflecting the *applied* phase field about the cone axis reflects
        # the output distribution exactly, realization by realization.  The
        # applied screen is signs * (static + dynamic), unwrapped, so its
        # mirror is drawn from signs * (signs * field)[::-1]; the signs are
        # antisymmetric, so that is the drawn fields reversed and negated.
        level = DisorderSpec(0.8, 0.6)
        static, dynamic = split_fields(spec14, draw_block(33, 0, 0, 10, spec14))
        for r in range(10):
            flipped = (-static[r, ::-1], -dynamic[r, ::-1])
            dist = intensities(propagate(
                spec14, *disordered(qw_program, level, static[r], dynamic[r])))
            dist_flipped = intensities(propagate(
                spec14, *disordered(qw_program, level, *flipped)))
            # Each realization is itself asymmetric, so the check has teeth.
            assert np.abs(dist - dist[::-1]).max() > 0.01
            assert np.abs(dist_flipped - dist[::-1]).max() < 1e-12

    def test_ensemble_mirror_symmetry(self, spec14):
        # The drawn law is i.i.d. per mode and symmetric under negation, so
        # the ensemble mean is mirror symmetric within Monte-Carlo error.
        plan = SweepPlan(spec14, (DisorderSpec(0.6, 0.4),), 2000, 2211)
        rec = run_sweep(plan, workers=1).record(0)
        mean, se = rec.mean, rec.std_error
        diff = np.abs(mean - mean[::-1])
        combined = np.hypot(se, se[::-1])
        assert (diff <= 4.0 * combined + 1e-12).all()


class TestTomographyProgram:
    def test_full_depth_read_is_identity(self, spec14, qw_program):
        settings, screens = build_tomography_program(*qw_program, spec14.depth)
        assert settings == qw_program[0]
        assert np.array_equal(screens, qw_program[1])

    def test_read_layer_one_gives_half_half(self, spec14, qw_program):
        routed = build_tomography_program(*qw_program, 1)
        dist = intensities(propagate(spec14, *routed))
        assert abs(dist[6] - 0.5) < 1e-12
        assert abs(dist[7] - 0.5) < 1e-12

    def test_wires_after_read_layer(self, spec14, qw_program):
        settings, screens = build_tomography_program(*qw_program, 3)
        for t, layer in enumerate(settings, start=1):
            assert layer == ([BAR] * t if t > 3 else qw_program[0][t - 1])
        assert not screens[:, 3:].any()

    def test_matches_direct_intermediate_readout(self, spec14, qw_program):
        level = DisorderSpec(0.9, 0.7)
        static, dynamic = split_fields(spec14, draw_block(44, 0, 0, 5, spec14))
        for r in range(5):
            program = disordered(qw_program, level, static[r], dynamic[r])
            for layer in range(1, spec14.depth + 1):
                routed = build_tomography_program(*program, layer)
                via_wires = intensities(propagate(spec14, *routed))
                direct = intensities(propagate(spec14, *program, up_to_layer=layer))
                assert np.abs(via_wires - direct).max() < 1e-12

    def test_read_layer_out_of_range(self, qw_program):
        with pytest.raises(ValueError):
            build_tomography_program(*qw_program, 0)
        with pytest.raises(ValueError):
            build_tomography_program(*qw_program, 8)
