import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshwalk import MeshSpec, RbsSetting, cell_unitary, intensities, wrap_angle
from meshwalk.ensemble import _layer_matrices
from conftest import bits, mod_wrap, propagate, random_program
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
    """Transfer matrix of a depth-1 mesh, one propagation per input mode.

    The single cell couples modes ``num_modes/2`` and ``num_modes/2 + 1``;
    ``screen`` (default zeros) is the phase screen after it.
    """
    if screen is None:
        screen = np.zeros(num_modes)
    screens = np.asarray(screen, dtype=float)[:, None]
    return np.column_stack([propagate(MeshSpec(num_modes, 1, j), [[setting]], screens)
                            for j in range(1, num_modes + 1)])


class TestWrapAngle:
    # Multiples of pi up to 3 pi, both signs (0 gives +0 and -0), with their
    # neighbouring floats; those beyond +-2 pi lie outside the branch range.
    EDGES = np.array([s * k * np.pi for k in range(4) for s in (1.0, -1.0)])
    EDGES = np.concatenate([EDGES, np.nextafter(EDGES, np.inf), np.nextafter(EDGES, -np.inf)])
    OUTSIDE = np.array([7.0, -7.0, 50.0, -50.0, 1e6, -1e6, 1e300, -1e300])

    def test_branch_form_is_mod_bit_for_bit(self, monkeypatch):
        # x in [-2 pi, 2 pi] puts pi - x in the branch range [-pi, 3 pi].
        rng = np.random.default_rng(5)
        edges = self.EDGES[np.abs(self.EDGES) <= 2 * np.pi]
        dense = np.concatenate([edges, rng.uniform(-2 * np.pi, 2 * np.pi, 100_000)])
        expected_edges, expected_dense = mod_wrap(edges), mod_wrap(dense)
        # The branch form must not fall back to np.mod on these values.
        monkeypatch.setattr(np, "mod", None)
        assert np.array_equal(bits(wrap_angle(dense)), bits(expected_dense))
        for value, want in zip(edges, expected_edges):
            assert bits(wrap_angle(np.array([value]))) == bits(want)

    def test_every_value_matches_mod_bit_for_bit(self):
        values = np.concatenate([self.EDGES, self.OUTSIDE])
        expected = mod_wrap(values)
        assert np.array_equal(bits(wrap_angle(values)), bits(expected))
        for value, want in zip(values, expected):
            assert bits(wrap_angle(value)) == bits(want)  # scalar
            assert bits(wrap_angle(np.array([value]))) == bits(want)

    def test_writes_into_its_input(self):
        values = np.concatenate([self.EDGES, self.OUTSIDE])
        inside = values[np.abs(values) <= 2 * np.pi]
        # Contiguous in range, two-dimensional with a fallback, and strided.
        for x in (inside.copy(), values.reshape(4, -1).copy(), np.repeat(values, 2)[::2]):
            expected = mod_wrap(x)
            result = wrap_angle(x, out=x)
            assert result is x
            assert np.array_equal(bits(x), bits(expected))


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

    def test_angles_stored_wrapped(self):
        s = RbsSetting(3 * np.pi, -np.pi)
        assert abs(s.theta - np.pi) < 1e-12
        assert abs(s.phi - np.pi) < 1e-12  # -pi wraps to the closed end
        assert wrap_angle(np.pi) == pytest.approx(np.pi)


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
        psi = propagate(spec14, *qw_program)
        dist = intensities(psi)
        assert set(np.argsort(dist)[-2:] + 1) == {3, 12}
        column = full_unitary(spec14, *qw_program)[:, spec14.injection_mode - 1]
        assert np.abs(column - psi).max() < 1e-12

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
            program = random_program(spec14, rng)
            u = full_unitary(spec14, *program)
            assert np.abs(u.conj().T @ u - eye).max() < 1e-12
            mode = int(rng.integers(1, 15))
            psi = propagate(MeshSpec(14, 7, mode), *program)
            assert np.abs(u[:, mode - 1] - psi).max() < 1e-12

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
