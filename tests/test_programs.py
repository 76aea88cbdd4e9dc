import numpy as np
import pytest

from meshwalk import (
    HADAMARD,
    INPUT_SPLITTER,
    DisorderSpec,
    MeshSpec,
    SweepPlan,
    cell_unitary,
    intensities,
    mode_signs,
    run_sweep,
)
from meshwalk.ensemble import _layer_matrices
from meshwalk.programs import compose_screens, draw_block
from conftest import propagate, walk_program
from oracles import BAR, build_tomography_program, ks_uniform_statistic


def one_realization(seed, level_index, r, num_modes=14, depth=7):
    """Drawn static (num_modes,) and dynamic (num_modes, depth) fields of realization r."""
    static, dynamic = draw_block(seed, level_index, r, r + 1, num_modes, depth)
    return static[0], dynamic[0]


def disordered(program, level, static, dynamic):
    """The program's cells with one realization's disorder as their screens."""
    phases = compose_screens(level, static[None], dynamic[None])  # a batch of one
    return program[0], phases[:, :, 0].T


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
        s_full, s_half = (compose_screens(l, static, 0 * dynamic) for l in (full, half))
        d_full, d_half = (compose_screens(l, 0 * static, dynamic) for l in (full, half))
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

    def test_empty_and_invalid_ranges(self):
        static, dynamic = draw_block(1, 0, 4, 4, 14, 7)
        assert static.shape == (0, 14) and dynamic.shape == (0, 14, 7)
        for args in ((-1, 0, 0, 1), (1, -1, 0, 1), (1, 0, -1, 1), (1, 0, 3, 2)):
            with pytest.raises(ValueError):
                draw_block(*args, 14, 7)


class TestApplyDisorder:
    """The disorder model of compose_screens: one realization's screens."""

    def test_zero_disorder_is_identity(self, spec14, qw_program):
        settings, screens = disordered(qw_program, DisorderSpec(0.0, 0.0),
                                       *one_realization(5, 0, 0))
        assert np.array_equal(screens, qw_program[1])
        assert settings == qw_program[0]

    def test_static_only_constant_across_layers(self, spec14, qw_program):
        _, screens = disordered(qw_program, DisorderSpec(1.0, 0.0), *one_realization(6, 0, 0))
        assert np.abs(screens - screens[:, :1]).max() < 1e-15

    def test_mirrored_sign_pattern(self, spec14, qw_program):
        signs = mode_signs(14)
        assert np.array_equal(signs, np.concatenate([np.ones(7), -np.ones(7)]))
        level, (static, dynamic) = DisorderSpec(0.4, 0.0), one_realization(7, 0, 0)
        # The applied static screen: +c_tid * static on modes 1..7, - on 8..14.
        _, applied = disordered(qw_program, level, static, dynamic)
        assert np.abs(applied[:7] - 0.4 * static[:7, None]).max() < 1e-15
        assert np.abs(applied[7:] + 0.4 * static[7:, None]).max() < 1e-15

    def test_dimension_mismatch(self):
        # The static field is (count, num_modes), the dynamic one without its
        # layer axis: a single realization's fields are a batch of one.
        level = DisorderSpec(0.5, 0.5)
        for static, dynamic in ((np.zeros(10), np.zeros((14, 7))),
                                (np.zeros((3, 14)), np.zeros((2, 14, 7))),
                                (np.zeros((14, 7)), np.zeros((14, 7))),
                                (np.zeros(14), np.zeros((14, 7)))):
            with pytest.raises(ValueError, match="does not match"):
                compose_screens(level, static, dynamic)

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
