import ctypes
import itertools

import numpy as np
import pytest

from meshwalk.ensemble import SweepPlan, _layer_matrices, run_sweep
from meshwalk.lattice import HADAMARD, INPUT_SPLITTER, MeshSpec, cell_unitary, intensities
from meshwalk.programs import (_ALIGN, _MASK32, _PROBE, DisorderSpec, _draw_rows, _pcg64_seeds,
                               _pcg64_set_seed, _seed_rows, _state_layout, _words, compose_screens,
                               draw_block, mode_signs)
from conftest import LaidOutPCG64, bits, pack, propagate, unpack, walk_program
from oracles import BAR, build_tomography_program, ks_uniform_statistic


def one_realization(seed, level_index, r, num_modes=14, depth=7):
    """Drawn static (num_modes,) and dynamic (num_modes, depth) fields of realization r."""
    static, dynamic = draw_block(seed, level_index, r, r + 1, num_modes, depth)
    return static[0], dynamic[0]


def disordered(program, level, static, dynamic):
    """The program's cells with one realization's disorder as their screens.

    The screens are (num_modes, depth), composed on the live cells of the
    mesh's default injection; every other cell, which no amplitude reaches,
    reads 0.
    """
    spec = MeshSpec(*dynamic.shape)
    # A batch of one.
    phases = compose_screens(spec, level.c_tid, level.c_td, static[None], dynamic[None])
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
        static, dynamic = draw_block(123456789, 4, 60, 80, 14, 7)
        assert np.array_equal(static[11], a[0])
        assert np.array_equal(dynamic[11], a[1])

    def test_different_indices_differ(self, spec14):
        static, _ = draw_block(1, 0, 0, 2, 14, 7)
        assert not np.array_equal(static[0], static[1])

    def test_scaling_by_coefficients(self, spec14):
        # Each field alone.
        static, dynamic = draw_block(9, 0, 0, 1, 14, 7)  # realization 0, a batch of one
        full, half = DisorderSpec(1.0, 1.0), DisorderSpec(0.5, 0.25)
        s_full, s_half = (compose_screens(spec14, l.c_tid, l.c_td, static, 0 * dynamic)
                          for l in (full, half))
        d_full, d_half = (compose_screens(spec14, l.c_tid, l.c_td, 0 * static, dynamic)
                          for l in (full, half))
        assert np.abs(s_half - 0.5 * s_full).max() < 1e-15
        assert np.abs(d_half - 0.25 * d_full).max() < 1e-15

    def test_marginal_is_uniform(self, spec14):
        # 1e5 pooled static draws at full strength vs U[-pi, pi].
        need = 100_000
        static, _ = draw_block(2024, 0, 0, need // spec14.num_modes + 1, 14, 7)
        assert ks_uniform_statistic(static.ravel()[:need], -np.pi, np.pi) < 0.01


def generator_fields(seed, level, r, num_modes, depth):
    """The stream of GENERATOR_IDENTITY, built the documented way, one realization."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, level, r))))
    buf = rng.uniform(-np.pi, np.pi, num_modes * (depth + 1))
    return buf[:num_modes], buf[num_modes:].reshape(num_modes, depth)


class TestDrawBlock:
    # Seeds and levels of one to four SeedSequence words, including the
    # word boundaries 2**32 - 1 / 2**32 and an entropy longer than the pool.
    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**40 + 7, 10**30, 1_020_170_301)
    LEVELS = (0, 1, 399, 2**33)

    def assert_block_matches(self, seed, level, lo, hi, num_modes, depth):
        static, dynamic = draw_block(seed, level, lo, hi, num_modes, depth)
        assert static.shape == (hi - lo, num_modes)
        assert dynamic.shape == (hi - lo, num_modes, depth)
        for i, r in enumerate(range(lo, hi)):
            want_static, want_dynamic = generator_fields(seed, level, r, num_modes, depth)
            assert np.array_equal(static[i], want_static), (seed, level, r)
            assert np.array_equal(dynamic[i], want_dynamic), (seed, level, r)

    @pytest.mark.parametrize("num_modes, depth", [(14, 7), (30, 15)])
    def test_bit_identical_to_generator(self, num_modes, depth):
        for seed in self.SEEDS:
            for level in self.LEVELS:
                self.assert_block_matches(seed, level, 0, 3, num_modes, depth)
                self.assert_block_matches(seed, level, 397, 399, num_modes, depth)

    def test_chunk_straddling_two_word_realization_index(self):
        # The realization index gains a SeedSequence word at 2**32.
        for seed in (0, 10**30):
            self.assert_block_matches(seed, 5, 2**32 - 3, 2**32 + 3, 14, 7)

    def test_levels_seeded_together_are_each_levels_block(self):
        # A sequence of levels is seeded in one pass, the level index a word
        # per row: its rows are each level's own block in turn, bit for bit,
        # and each row is its generator's stream.  The level index gains a
        # SeedSequence word at 2**32, as the realization index does.
        levels = (0, 7, 2**32 - 1, 2**32, 2**33 + 5)
        for seed in (0, 10**30):
            for lo, hi in ((0, 3), (2**32 - 2, 2**32 + 1)):
                static, dynamic = draw_block(seed, levels, lo, hi, 14, 7)
                count = hi - lo
                assert static.shape == (len(levels) * count, 14)
                assert dynamic.shape == (len(levels) * count, 14, 7)
                for j, level in enumerate(levels):
                    rows = slice(j * count, (j + 1) * count)
                    alone = draw_block(seed, level, lo, hi, 14, 7)
                    assert np.array_equal(bits(static[rows]), bits(alone[0])), (seed, level)
                    assert np.array_equal(bits(dynamic[rows]), bits(alone[1])), (seed, level)
                    for i, r in enumerate(range(lo, hi)):
                        want_static, want_dynamic = generator_fields(seed, level, r, 14, 7)
                        assert np.array_equal(static[rows][i], want_static), (seed, level, r)
                        assert np.array_equal(dynamic[rows][i], want_dynamic), (seed, level, r)

    def test_empty_and_invalid_ranges(self):
        static, dynamic = draw_block(1, 0, 4, 4, 14, 7)
        assert static.shape == (0, 14) and dynamic.shape == (0, 14, 7)
        static, dynamic = draw_block(1, (), 0, 4, 14, 7)
        assert static.shape == (0, 14) and dynamic.shape == (0, 14, 7)
        for args in ((-1, 0, 0, 1), (1, -1, 0, 1), (1, 0, -1, 1), (1, 0, 3, 2),
                     (1, (3, -1), 0, 1), (1, (2**64,), 0, 1)):
            with pytest.raises(ValueError):
                draw_block(*args, 14, 7)


def slot(bits):
    """The pointer in ``bits``' ``pcg64_state`` to the ``pcg64_random_t`` it draws from."""
    return ctypes.c_void_p.from_address(bits.ctypes.state_address)


def unaligned_rows(count):
    """An uninitialised (count, 4) uint64 view that starts 8 bytes past an ``_ALIGN`` boundary."""
    raw = np.empty(4 * count + _ALIGN // 8, dtype=np.uint64)
    skip = (8 - raw.ctypes.data) % _ALIGN // 8
    rows = raw[skip:skip + 4 * count].reshape(count, 4)
    assert rows.ctypes.data % _ALIGN == 8
    return rows


class TestSeeding:
    """PCG64 seeding on uint64 limbs, and how draw_block loads the seeds.

    Each realization's ``(state, inc)`` words are pinned, in the generator's
    word order, by copying them into its struct; draw_block instead points
    the generator at the aligned seed rows, and its pointer is restored
    however the row loop ends.
    """

    # Every carry of the limb arithmetic is taken and not taken on these.
    EDGES = (0, 1, 2**32 - 1, 2**63, 2**64 - 1)
    MULT = 0x2360ED051FC65DA44385DF649FCCF645
    # Realization indices of one and of two SeedSequence words.
    REALIZATIONS = ((0, 1, 2**32 - 1), (2**32, 2**63, 2**64 - 1))

    def test_limb_set_seed_matches_python_ints(self):
        inputs = list(itertools.product(self.EDGES, repeat=4))
        words = _pcg64_set_seed(*(np.array(u, dtype=np.uint64) for u in zip(*inputs)))
        low = (1 << 64) - 1
        carries = set()
        for row, (u0, u1, u2, u3) in zip(words.tolist(), inputs):
            inc = ((u2 << 64 | u3) << 1 | 1) & (1 << 128) - 1
            seeded = inc + (u0 << 64 | u1) & (1 << 128) - 1
            state = seeded * self.MULT + inc & (1 << 128) - 1
            assert row == [state >> 64, state & low, inc >> 64, inc & low], (u0, u1, u2, u3)
            # The limbs' carries: the low words of inc + seed, the middle sum
            # of the high half of seeded_lo * mult_lo, and the low words of + inc.
            a, b = seeded & low, self.MULT & low
            middle = ((a & _MASK32) * (b & _MASK32) >> 32) + ((a & _MASK32) * (b >> 32) & _MASK32) \
                + ((a >> 32) * (b & _MASK32) & _MASK32)
            carries |= {("seed", (inc & low) + u1 > low), ("middle", middle > _MASK32),
                        ("inc", (a * b & low) + (inc & low) > low)}
        assert carries == set(itertools.product(("seed", "middle", "inc"), (False, True)))

    @staticmethod
    def seeds(seed, level, realizations):
        """(rows, 4) uint64 PCG64 words of realizations of one level, in column order."""
        index = np.array(realizations, dtype=np.uint64)
        entropy = (_words(seed) + [np.full(len(index), w, np.uint32) for w in _words(level)]
                   + [(index >> 32 * k & _MASK32).astype(np.uint32)
                      for k in range(len(_words(realizations[-1])))])
        return _pcg64_seeds(entropy)

    @pytest.mark.parametrize("seed", TestDrawBlock.SEEDS)
    def test_memmove_load_gives_the_reference_state(self, seed):
        generator = np.random.PCG64()
        address, order = slot(generator).value, _state_layout(generator)
        for level in TestDrawBlock.LEVELS:
            for realizations in self.REALIZATIONS:
                seeds = np.ascontiguousarray(self.seeds(seed, level, realizations)[:, order])
                for row, r in zip(seeds, realizations):
                    ctypes.memmove(address, row.ctypes.data, 32)
                    want = np.random.PCG64(np.random.SeedSequence((seed, level, r))).state
                    assert generator.state == want, (seed, level, r)

    @pytest.mark.parametrize("seed", TestDrawBlock.SEEDS)
    def test_pointer_load_gives_the_reference_stream(self, seed):
        # The generator pointed at a seed row reads that realization's state
        # and draws its stream, advancing the row in place.
        generator = np.random.PCG64(0)
        random = np.random.Generator(generator).random
        own = slot(generator).value
        order = _state_layout(generator)
        for level in TestDrawBlock.LEVELS:
            for realizations in self.REALIZATIONS:
                seeds = _seed_rows(self.seeds(seed, level, realizations), order)
                for row, r in zip(seeds, realizations):
                    reference = np.random.PCG64(np.random.SeedSequence((seed, level, r)))
                    state = reference.state
                    draws = np.random.Generator(reference).random(5).tolist()
                    slot(generator).value = row.ctypes.data
                    try:
                        assert generator.state == state, (seed, level, r)
                        assert random(5).tolist() == draws, (seed, level, r)
                        assert generator.state == reference.state, (seed, level, r)
                    finally:
                        slot(generator).value = own

    @pytest.mark.parametrize("count", [1, 2, 7])
    @pytest.mark.parametrize("shift", [0, 8])
    def test_seed_rows_are_aligned_copies_in_the_generators_order(self, monkeypatch, count,
                                                                   shift):
        # Aligned whatever the input's alignment and the allocator's: here
        # every buffer it allocates starts ``shift`` bytes past a boundary.
        words = unaligned_rows(count)
        words[...] = np.arange(4 * count, dtype=np.uint64).reshape(count, 4)
        empty = np.empty

        def shifted(size, dtype):
            raw = empty(size + _ALIGN // 8, dtype=dtype)
            skip = (shift - raw.ctypes.data) % _ALIGN // 8
            assert raw[skip:].ctypes.data % _ALIGN == shift
            return raw[skip:skip + size]

        monkeypatch.setattr(np, "empty", shifted)
        for order in ([1, 0, 3, 2], [0, 1, 2, 3], [3, 2, 1, 0]):
            seeds = _seed_rows(words, order)
            assert seeds.ctypes.data % _ALIGN == 0 and seeds.flags.c_contiguous
            assert seeds.dtype == np.uint64
            assert seeds.tolist() == words[:, order].tolist()

    def test_unaligned_or_misshapen_seed_rows_raise_and_leave_the_generator(self):
        generator = np.random.PCG64(0)
        random = np.random.Generator(generator).random
        good = _seed_rows(self.seeds(1, 0, (0, 1, 2)), _state_layout(generator))
        own, state = slot(generator).value, generator.state
        out = np.zeros((3, 5))
        for seeds in (unaligned_rows(3), good.astype(np.int64), good[:, :3].copy(),
                      _seed_rows(np.zeros((6, 4), dtype=np.uint64), [0, 1, 2, 3])[::2]):
            with pytest.raises(ValueError, match=f"rows of 4 on {_ALIGN}-byte boundaries"):
                _draw_rows(generator, random, seeds, [0, 1, 2], out)
            assert slot(generator).value == own
            assert generator.state == state
        assert not out.any()

    @pytest.mark.parametrize("fail_at", [None, 0, 3])
    def test_row_loop_restores_the_generators_own_struct(self, monkeypatch, fail_at):
        # However the row loop ends, the generator points at its own struct
        # again, which still holds the probe state that no seed row touched.
        generators = []

        class Failing(np.random.Generator):
            def __init__(self, bits):
                super().__init__(bits)
                generators.append((bits, slot(bits).value))
                self.calls = 0

            def random(self, *args, **kwargs):
                if self.calls == fail_at:
                    raise KeyboardInterrupt
                self.calls += 1
                return super().random(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Failing)
        # Rows of both levels and of both realization word counts: four parts.
        levels, realizations = (0, 2**32), range(2**32 - 2, 2**32 + 1)
        if fail_at is None:
            static, dynamic = draw_block(5, levels, realizations.start, realizations.stop, 14, 7)
        else:
            with pytest.raises(KeyboardInterrupt):
                draw_block(5, levels, realizations.start, realizations.stop, 14, 7)
        [(bits, own)] = generators
        assert slot(bits).value == own
        state_hi, state_lo, inc_hi, inc_lo = _PROBE
        assert bits.state["state"] == {"state": state_hi << 64 | state_lo,
                                       "inc": inc_hi << 64 | inc_lo}
        if fail_at is None:
            for i, (level, r) in enumerate(itertools.product(levels, realizations)):
                want_static, want_dynamic = generator_fields(5, level, r, 14, 7)
                assert np.array_equal(static[i], want_static), (level, r)
                assert np.array_equal(dynamic[i], want_dynamic), (level, r)

    @pytest.mark.parametrize("layout", [(1, 0, 3, 2), (0, 1, 2, 3), (3, 2, 1, 0)])
    def test_state_layout_reads_the_word_order(self, layout):
        # Native __uint128_t words (low first on little-endian), numpy's
        # emulated {high, low} struct, and any other order of four words.
        assert _state_layout(LaidOutPCG64(layout)) == list(layout)

    @pytest.mark.parametrize("layout", [(None,) * 4, (1, 1, 3, 2), (1, 0, 3, None)])
    def test_state_layout_rejects_words_it_did_not_write(self, layout):
        with pytest.raises(RuntimeError, match="cannot load its seeds"):
            _state_layout(LaidOutPCG64(layout))


class TestApplyDisorder:
    """The disorder model of compose_screens: one realization's screens."""

    def test_zero_disorder_is_identity(self, spec14, qw_program):
        settings, screens = disordered(qw_program, DisorderSpec(0.0, 0.0),
                                       *one_realization(5, 0, 0))
        assert np.array_equal(screens, qw_program[1])
        assert settings == qw_program[0]

    def test_static_only_constant_across_layers(self, spec14, qw_program):
        _, screens = disordered(qw_program, DisorderSpec(1.0, 0.0), *one_realization(6, 0, 0))
        # Every mode is live at the last layer; each of its live cells holds that phase.
        live = live_cells(spec14)
        assert live[:, -1].all()
        assert np.abs(screens - screens[:, -1:])[live].max() < 1e-15

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
        # The static field is (count, num_modes), the dynamic one without its
        # layer axis: a single realization's fields are a batch of one.  Both
        # are the mesh's size.
        level = DisorderSpec(0.5, 0.5)
        for static, dynamic in ((np.zeros(10), np.zeros((14, 7))),
                                (np.zeros((3, 14)), np.zeros((2, 14, 7))),
                                (np.zeros((14, 7)), np.zeros((14, 7))),
                                (np.zeros(14), np.zeros((14, 7))),
                                (np.zeros((2, 14)), np.zeros((2, 14, 6))),
                                (np.zeros((2, 16)), np.zeros((2, 16, 7)))):
            with pytest.raises(ValueError, match="does not match"):
                compose_screens(MeshSpec(), level.c_tid, level.c_td, static, dynamic)

    def test_mirrored_realization_mirrors_output(self, spec14, qw_program):
        # Reflecting the *applied* phase field about the cone axis reflects
        # the output distribution exactly, realization by realization.  The
        # applied screen is signs * wrap(static + dynamic), so its mirror is
        # drawn from signs * (signs * field)[::-1]; the signs are
        # antisymmetric, so that is the drawn fields reversed and negated.
        level = DisorderSpec(0.8, 0.6)
        static, dynamic = draw_block(33, 0, 0, 10, 14, 7)
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
        static, dynamic = draw_block(44, 0, 0, 5, 14, 7)
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
