import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshwalk.ensemble import _layer_matrices
from meshwalk.lattice import (MeshSpec, RbsSetting, cell_unitary, intensities, live_rows,
                              packed_layout)
from conftest import propagate, random_program
from oracles import full_unitary

ANGLES = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def assert_up_to_global_phase(a, b, tol=1e-12):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    k = int(np.argmax(np.abs(b)))
    assert abs(b[k]) > 0
    phase = a[k] / b[k]
    assert abs(abs(phase) - 1.0) < tol
    assert np.abs(a - phase * b).max() < tol


def one_layer_transfer(num_modes, setting, screen=None):
    """Transfer matrix of a mesh's first layer and its screen, one propagation per input mode.

    The layer's single cell couples modes ``num_modes/2`` and
    ``num_modes/2 + 1``; ``screen`` (default zeros) is the phase screen after
    it.  The mesh is two layers deep and read after layer 1, since a
    one-layer mesh has no screen.
    """
    if screen is None:
        screen = np.zeros(num_modes)
    screens = np.column_stack([np.asarray(screen, dtype=float), np.zeros(num_modes)])
    program = [[setting], [setting, setting]]
    return np.column_stack([propagate(MeshSpec(num_modes, 2, j), program, screens, up_to_layer=1)
                            for j in range(1, num_modes + 1)])


def without_last_screen(screens):
    """(num_modes, depth) screens with the last layer's column zeroed.

    The kernel applies no screen after the mesh's last layer, so its
    amplitudes are the dense oracle's of these screens; intensities are the
    same either way.
    """
    screens = np.array(screens, dtype=float)
    screens[:, -1] = 0.0
    return screens


class TestMeshSpec:
    def test_default_geometry(self, spec14):
        assert spec14.num_modes == 14
        assert spec14.depth == 7
        assert spec14.injection_mode == 8
        # Layer t stacks its t cells: T(T+1)/2 in all, 2 internal shifters per cell.
        for spec, cells in ((spec14, 28), (MeshSpec(30, 15), 120)):
            mats = _layer_matrices(spec)
            assert [len(m) for m in mats] == list(range(1, spec.depth + 1))
            assert sum(len(m) for m in mats) == cells

    def test_cone_must_fit(self):
        with pytest.raises(ValueError):
            MeshSpec(num_modes=12, depth=7)

    def test_even_mode_count_required(self):
        with pytest.raises(ValueError):
            MeshSpec(num_modes=13, depth=6)

    def test_bad_injection(self):
        with pytest.raises(ValueError):
            MeshSpec(injection_mode=15)


class TestPackedLayout:
    """``packed_layout`` is the ``d - 1`` screens, each at its live rows, packed in order."""

    # The cone kernel's meshes (test_ensemble.TestConeKernel.SPECS).
    SPECS = (MeshSpec(), MeshSpec(14, 7, 1), MeshSpec(14, 7, 14), MeshSpec(14, 7, 3),
             MeshSpec(20, 4, 2), MeshSpec(30, 15))

    def test_one_entry_per_screen(self):
        for spec in self.SPECS:
            layout, offset = packed_layout(spec), 0
            assert len(layout) == spec.depth - 1, spec
            for t, entry in enumerate(layout, start=1):
                assert entry == (offset, *live_rows(spec, t)), (spec, t)
                offset += entry[2] - entry[1]

    def test_default_mesh(self):
        # The 2t modes of each cone layer, the last layer's none.
        assert packed_layout(MeshSpec()) == [(0, 6, 8), (2, 5, 9), (6, 4, 10), (12, 3, 11),
                                             (20, 2, 12), (30, 1, 13)]

    def test_one_layer_mesh_has_no_screen(self):
        assert packed_layout(MeshSpec(4, 1)) == []
        assert packed_layout(MeshSpec(14, 1, 1)) == []


class TestCellUnitary:
    def test_wire_is_bar_state(self):
        u = cell_unitary(RbsSetting(np.pi, 0.0))
        assert np.abs(u - np.array([[1, 0], [0, -1]])).max() < 1e-12

    def test_hadamard(self):
        u = cell_unitary(RbsSetting(np.pi / 2, 0.0))
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.abs(u - h).max() < 1e-12

    def test_input_splitter_from_bottom_port(self):
        u = cell_unitary(RbsSetting(np.pi / 2, np.pi / 2))
        out = u @ np.array([0.0, 1.0])
        target = np.array([1.0, 1.0j]) / np.sqrt(2)
        assert_up_to_global_phase(out, target)

    @given(theta=ANGLES, phi=ANGLES)
    def test_always_unitary(self, theta, phi):
        u = cell_unitary(RbsSetting(theta, phi))
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12


class TestApplyCell:
    def test_wire_preserves_magnitudes(self, spec14):
        rng = np.random.default_rng(5)
        state = rng.normal(size=14) + 1j * rng.normal(size=14)
        state /= np.linalg.norm(state)
        out = one_layer_transfer(14, RbsSetting(np.pi, 0.0)) @ state
        assert np.abs(intensities(out) - intensities(state)).max() < 1e-12

    def test_hadamard_splits_bottom_input(self):
        state = np.zeros(4, dtype=complex)
        state[2] = 1.0  # bottom mode of cell (1, 2)
        out = one_layer_transfer(4, RbsSetting(np.pi / 2, 0.0)) @ state
        assert abs(out[1] - 1 / np.sqrt(2)) < 1e-12
        assert abs(out[2] + 1 / np.sqrt(2)) < 1e-12

    def test_hadamard_is_involution_on_pair(self):
        state = np.zeros(4, dtype=complex)
        state[1] = state[2] = 1 / np.sqrt(2)
        out = one_layer_transfer(4, RbsSetting(np.pi / 2, 0.0)) @ state
        assert abs(out[1] - 1.0) < 1e-12
        assert abs(out[2]) < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(6)
        state = rng.normal(size=6) + 1j * rng.normal(size=6)
        state /= np.linalg.norm(state)
        setting = RbsSetting(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
        out = one_layer_transfer(6, setting) @ state
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


class TestApplyPhaseLayer:
    """The phase screen acts after the cells: compare against a zero screen."""

    def test_zero_is_identity(self):
        setting = RbsSetting(0.7, -1.9)
        cell = np.eye(4, dtype=complex)
        cell[1:3, 1:3] = cell_unitary(setting)
        assert np.array_equal(one_layer_transfer(4, setting), cell)

    def test_global_phase_leaves_intensities(self):
        state = np.arange(1, 5, dtype=complex) / np.sqrt(30)
        setting = RbsSetting(0.7, -1.9)
        out = one_layer_transfer(4, setting, np.full(4, 1.234)) @ state
        bare = one_layer_transfer(4, setting) @ state
        assert np.abs(out - np.exp(1.234j) * bare).max() < 1e-12
        assert np.abs(intensities(out) - intensities(bare)).max() < 1e-12

    @settings(max_examples=50)
    @given(st.lists(ANGLES, min_size=4, max_size=4))
    def test_never_changes_intensities(self, phases):
        state = np.array([0.5, 0.5j, -0.5, 0.5]) * np.exp(0.3j)
        setting = RbsSetting(0.7, -1.9)
        out = one_layer_transfer(4, setting, phases) @ state
        bare = one_layer_transfer(4, setting) @ state
        assert np.abs(intensities(out) - intensities(bare)).max() < 1e-12


class TestPropagate:
    def test_all_wires_route_straight(self, spec14):
        settings = [[RbsSetting(np.pi, 0.0)] * t for t in range(1, 8)]
        for mode in (1, 5, 8, 14):
            out = intensities(propagate(MeshSpec(14, 7, mode), settings, np.zeros((14, 7))))
            assert abs(out[mode - 1] - 1.0) < 1e-12

    def test_ballistic_peaks_and_oracle(self, spec14, qw_program):
        settings, screens = qw_program
        psi = propagate(spec14, settings, screens)
        dist = intensities(psi)
        assert set(np.argsort(dist)[-2:] + 1) == {3, 12}
        column = full_unitary(spec14, settings, without_last_screen(screens))[
            :, spec14.injection_mode - 1]
        assert np.abs(column - psi).max() < 1e-12
        column = full_unitary(spec14, settings, screens)[:, spec14.injection_mode - 1]
        assert np.abs(intensities(column) - dist).max() < 1e-12

    def test_edge_mode_pinning_for_any_screens(self, spec14, qw_program):
        rng = np.random.default_rng(11)
        for _ in range(50):
            screens = rng.uniform(-np.pi, np.pi, (14, 7))
            dist = intensities(propagate(spec14, qw_program[0], screens))
            assert abs(dist[0] - 2.0**-7) < 1e-12
            assert abs(dist[13] - 2.0**-7) < 1e-12

    def test_norm_after_random_program(self, spec14):
        rng = np.random.default_rng(3)
        for _ in range(20):
            program = random_program(spec14, rng)
            psi = propagate(spec14, *program)
            assert abs((np.abs(psi) ** 2).sum() - 1.0) < 1e-9


class TestFullUnitary:
    def test_wires_give_unit_diagonal(self, spec14):
        settings = [[RbsSetting(np.pi, 0.0)] * t for t in range(1, 8)]
        u = full_unitary(spec14, settings, np.zeros((14, 7)))
        off = u - np.diag(np.diag(u))
        assert np.abs(off).max() < 1e-12
        assert np.abs(np.abs(np.diag(u)) - 1.0).max() < 1e-12

    def test_random_programs_unitary_and_match_propagate(self, spec14):
        rng = np.random.default_rng(42)
        eye = np.eye(14)
        for _ in range(100):
            settings, screens = random_program(spec14, rng)
            u = full_unitary(spec14, settings, screens)
            assert np.abs(u.conj().T @ u - eye).max() < 1e-12
            mode = int(rng.integers(1, 15))
            psi = propagate(MeshSpec(14, 7, mode), settings, screens)
            zeroed = full_unitary(spec14, settings, without_last_screen(screens))
            assert np.abs(zeroed[:, mode - 1] - psi).max() < 1e-12
            assert np.abs(intensities(u[:, mode - 1]) - intensities(psi)).max() < 1e-12

    def test_partial_depth_matches(self, spec14):
        program = random_program(spec14, np.random.default_rng(9))
        for t in (1, 3, 5):
            u = full_unitary(spec14, *program, up_to_layer=t)
            psi = propagate(spec14, *program, up_to_layer=t)
            assert np.abs(u[:, spec14.injection_mode - 1] - psi).max() < 1e-12


class TestIntensities:
    def test_delta(self):
        state = np.zeros(14, dtype=complex)
        state[4] = np.exp(0.7j)
        dist = intensities(state)
        assert abs(dist[4] - 1.0) < 1e-12
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_mode_superposition(self):
        state = np.zeros(5, dtype=complex)
        state[0] = 1 / np.sqrt(2)
        state[1] = 1j / np.sqrt(2)
        assert np.abs(intensities(state) - np.array([0.5, 0.5, 0, 0, 0])).max() < 1e-12

    def test_unit_norm_sums_to_one(self):
        rng = np.random.default_rng(1)
        state = rng.normal(size=9) + 1j * rng.normal(size=9)
        state /= np.linalg.norm(state)
        assert abs(intensities(state).sum() - 1.0) < 1e-9
