import numpy as np
import pytest

from meshwalk import (
    DegenerateDistributionError,
    DisorderSpec,
    FitFamily,
    MeshSpec,
    SweepPlan,
    detect_enaqt,
    fit_distribution,
    intensities,
    run_sweep,
    spread_exponent,
)
from meshwalk.analysis import _rounding_bound, width
from meshwalk.programs import draw_block
from conftest import propagate
from oracles import extended_walk_intensities, galton_distribution, galton_sigma


class TestFitDistribution:
    def sampled(self, family, loc, scale, modes=14):
        x = np.arange(1, modes + 1, dtype=float)
        if family is FitFamily.GAUSSIAN:
            d = np.exp(-((x - loc) ** 2) / (2 * scale**2))
        else:
            d = np.exp(-np.abs(x - loc) / scale)
        return d / d.sum()

    def test_recovers_exact_gaussian(self):
        d = self.sampled(FitFamily.GAUSSIAN, 7.5, 1.6)
        fit = fit_distribution(d, FitFamily.GAUSSIAN)
        assert abs(fit.location - 7.5) < 1e-6
        assert abs(fit.scale - 1.6) < 1e-6
        assert fit.residual < 1e-12

    def test_laplace_fits_laplace_better(self):
        d = self.sampled(FitFamily.LAPLACE, 7.5, 1.2)
        e_lap = fit_distribution(d, FitFamily.LAPLACE).residual
        e_gau = fit_distribution(d, FitFamily.GAUSSIAN).residual
        assert e_lap < e_gau

    @pytest.mark.parametrize("unit_area", [False, True])
    @pytest.mark.parametrize("pin", [None, 7.5])
    def test_local_minimum_certificate(self, pin, unit_area):
        rng = np.random.default_rng(17)
        d = self.sampled(FitFamily.GAUSSIAN, 7.2, 2.0) + rng.uniform(0, 0.01, 14)
        x = np.arange(1, 15, dtype=float)
        for family in FitFamily:
            fit = fit_distribution(d, family, pin_location=pin, unit_area=unit_area)
            if pin is not None:
                assert fit.location == pin
            base = {"amplitude": fit.amplitude, "location": fit.location, "scale": fit.scale}
            free = ["scale"] + ["location"] * (pin is None) + ["amplitude"] * (not unit_area)

            def residual(params):
                loc, scale = params["location"], params["scale"]
                if family is FitFamily.GAUSSIAN:
                    shape = np.exp(-((x - loc) ** 2) / (2 * scale**2))
                else:
                    shape = np.exp(-np.abs(x - loc) / scale)
                model = shape / shape.sum() if unit_area else params["amplitude"] * shape
                return ((model - d) ** 2).sum()

            for name in free:
                for sign in (1, -1):
                    trial = dict(base, **{name: base[name] * (1 + 0.01 * sign)})
                    assert residual(trial) >= fit.residual - 1e-15

    def test_unit_area_constrains_sum(self):
        d = self.sampled(FitFamily.GAUSSIAN, 7.0, 1.8)
        fit = fit_distribution(d, FitFamily.GAUSSIAN, unit_area=True)
        x = np.arange(1, 15, dtype=float)
        shape = np.exp(-((x - fit.location) ** 2) / (2 * fit.scale**2))
        model = shape / shape.sum()
        assert abs(model.sum() - 1.0) < 1e-12
        assert abs(model.max() - fit.amplitude) < 1e-12
        assert fit.residual < 1e-12  # exact model data, constrained family contains it

    def test_pinned_location(self):
        d = self.sampled(FitFamily.GAUSSIAN, 7.1, 1.5)
        fit = fit_distribution(d, FitFamily.GAUSSIAN, pin_location=7.5)
        assert fit.location == 7.5
        # Under unit_area the location is the first parameter, not the second.
        d = self.sampled(FitFamily.GAUSSIAN, 6.3, 2.2) + np.linspace(0.0, 0.02, 14)
        fit = fit_distribution(d, FitFamily.GAUSSIAN, pin_location=7.5, unit_area=True)
        assert fit.location == 7.5
        x = np.arange(1, 15, dtype=float)
        shape = np.exp(-((x - 7.5) ** 2) / (2 * fit.scale**2))
        model = shape / shape.sum()
        assert abs(model.sum() - 1.0) < 1e-12
        assert abs(model.max() - fit.amplitude) < 1e-12
        assert abs(((model - d) ** 2).sum() - fit.residual) < 1e-12

    def test_rejects_delta(self):
        d = np.zeros(14)
        d[6] = 1.0
        with pytest.raises(DegenerateDistributionError):
            fit_distribution(d, FitFamily.LAPLACE)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            fit_distribution(np.array([0.5, 0.5, 0.0]), FitFamily.GAUSSIAN)


class TestSpreadExponent:
    def test_width_matches_markov_oracle(self):
        for t in range(1, 8):
            assert width(galton_distribution(14, t, 8)) == pytest.approx(
                galton_sigma(14, t, 8), rel=1e-12)

    def test_ballistic_walk_near_one(self, spec14, qw_program):
        means = [intensities(propagate(spec14, *qw_program, up_to_layer=t))
                 for t in range(1, 8)]
        slope = spread_exponent(means)
        assert 0.85 <= slope <= 1.05

    def test_markov_oracle_slopes(self):
        # The incoherent oracle has variance t - 3/4: the full-range slope is
        # inflated above the asymptotic 1/2 by the fixed two-mode layer-1
        # distribution.
        full = spread_exponent([galton_distribution(14, t, 8) for t in range(1, 8)])
        assert 0.75 <= full <= 0.85

    def test_constant_width_gives_zero(self):
        d = np.array([0.25, 0.25, 0.25, 0.25])
        assert abs(spread_exponent([d, d, d, d])) < 1e-9

    def test_needs_three_layers(self):
        d = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            spread_exponent([d, d])

    def test_zero_variance_rejected(self):
        delta = np.array([1.0, 0.0, 0.0])
        with pytest.raises(DegenerateDistributionError):
            spread_exponent([delta, delta, delta])


def test_non_finite_entries_rejected():
    for bad in (np.nan, np.inf):
        d = [0.1, 0.2, bad, 0.3, 0.2, 0.2]
        for call in (lambda: width(d), lambda: fit_distribution(d, FitFamily.GAUSSIAN)):
            with pytest.raises(ValueError, match="^distribution has non-finite entries"):
                call()
        with pytest.raises(ValueError, match=r"^means\[0\] has non-finite entries"):
            spread_exponent([d, d, d])


@pytest.fixture(scope="module")
def slice_result():
    spec = MeshSpec()
    tds = np.linspace(0.0, 1.0, 6)
    grid = tuple(DisorderSpec(1.0, float(td)) for td in tds)
    plan = SweepPlan(spec, grid, 400, 31313)
    return run_sweep(plan, workers=2)


class TestTransportEfficiency:
    """The efficiency curves of detect_enaqt: summed ensemble means of a mode set."""

    def test_all_modes_sum_to_one(self, slice_result):
        report = detect_enaqt(slice_result, 1.0, range(1, 15), range(1, 15))
        assert np.abs(report.eta_enhance - 1.0).max() < 1e-9
        assert np.abs(report.eta_deplete - 1.0).max() < 1e-9

    def test_additive_over_disjoint_sets(self, slice_result):
        parts = detect_enaqt(slice_result, 1.0, [3, 4], [5, 6])
        both = detect_enaqt(slice_result, 1.0, [3, 4, 5, 6], [3, 4, 5, 6])
        assert np.abs(parts.eta_enhance + parts.eta_deplete - both.eta_enhance).max() < 1e-12

    def test_localized_beats_ordered_at_center(self, spec14):
        def mean(level, n):
            plan = SweepPlan(spec14, (level,), n, 5)
            return run_sweep(plan, workers=1).record(0).mean

        loc_mean, ord_mean = mean(DisorderSpec(1, 0), 2000), mean(DisorderSpec(0, 0), 1)
        assert loc_mean[6] + loc_mean[7] > ord_mean[6] + ord_mean[7]

    def test_invalid_modes(self, slice_result):
        for bad in ([0, 3], [15], []):
            with pytest.raises(ValueError, match="mode"):
                detect_enaqt(slice_result, 1.0, bad, [7, 8])
            with pytest.raises(ValueError, match="mode"):
                detect_enaqt(slice_result, 1.0, [5, 10], bad)


class TestDetectEnaqt:
    def test_declared_on_strong_static_row(self, slice_result):
        report = detect_enaqt(slice_result, 1.0, [5, 10], [7, 8])
        assert report.c_tid == 1.0
        assert report.rise_significance > 3.0
        assert report.deplete_change < 0.0
        assert report.deplete_significance > 3.0
        assert report.declared

    def test_not_declared_without_localization(self, spec14):
        tds = np.linspace(0.0, 1.0, 6)
        grid = tuple(DisorderSpec(0.0, float(td)) for td in tds)
        result = run_sweep(SweepPlan(spec14, grid, 400, 2121), workers=2)
        report = detect_enaqt(result, 0.0, [5, 10], [7, 8])
        assert not report.declared

    def test_identical_sets_never_declared(self, slice_result):
        report = detect_enaqt(slice_result, 1.0, [5, 10], [5, 10])
        assert not report.declared

    def test_nearest_row_selection(self, slice_result):
        report = detect_enaqt(slice_result, 0.7, [5, 10], [7, 8])
        assert report.c_tid == 1.0  # only row present
        assert report.requested_c_tid == 0.7

    def test_missing_layer_rejected(self, spec14):
        # The report reads the final layer, which this plan does not record.
        grid = tuple(DisorderSpec(1.0, float(td)) for td in np.linspace(0.0, 1.0, 3))
        result = run_sweep(SweepPlan(spec14, grid, 2, 6, read_layers=(3,)), workers=1)
        with pytest.raises(ValueError, match="missing record"):
            detect_enaqt(result, 1.0, [5, 10], [7, 8])

    def test_one_realization_per_level_is_degenerate(self, spec14):
        # Its standard errors are 0, so any rise would count as infinitely significant.
        grid = tuple(DisorderSpec(1.0, float(td)) for td in np.linspace(0.0, 1.0, 3))
        result = run_sweep(SweepPlan(spec14, grid, 1, 6), workers=1)
        with pytest.raises(DegenerateDistributionError, match="one realization"):
            detect_enaqt(result, 1.0, [5, 10], [7, 8])

    def test_report_rows_schema(self, slice_result):
        report = detect_enaqt(slice_result, 1.0, [5, 10], [7, 8])
        rows = report.to_rows()
        assert rows[0] == "c_tid,c_td,layer,eta_enhance,se_enhance,eta_deplete,se_deplete"
        assert len(rows) == 1 + report.c_td.size
        assert report.to_dict()["declared"] == report.declared


def test_rounding_bound_holds_in_extended_precision():
    # Every computed efficiency lies within the bound detect_enaqt documents
    # of the same realizations' extended-precision efficiency.
    rng = np.random.default_rng(4)
    grid = (DisorderSpec(1.0, 0.0), DisorderSpec(0.842, 0.5), DisorderSpec(0.2, 1.0))
    for spec in (MeshSpec(6, 3), MeshSpec(), MeshSpec(30, 15)):
        m, layers = spec.num_modes, tuple(range(1, spec.depth + 1))
        result = run_sweep(SweepPlan(spec, grid, 200, 11, read_layers=layers), workers=1)
        for i, level in enumerate(grid):
            fields = draw_block(11, i, 0, 200, m, spec.depth)
            exact = extended_walk_intensities(spec, level, *fields, layers)
            for t in layers:
                mean, exact_mean = result.record(i, t).mean, exact[t].mean(axis=0)
                for _ in range(20):
                    idx = sorted(rng.choice(m, int(rng.integers(1, m + 1)), replace=False))
                    eta = mean[idx].sum()
                    error = abs(np.longdouble(eta) - exact_mean[idx].sum())
                    assert error <= _rounding_bound(eta, len(idx), t), (spec, level, t, idx)
