from pathlib import Path

import numpy as np
import pytest

import geomrel.evaluation as evaluation
from geomrel.comparison import ALL_MODEL_NAMES, _fit_key, fit_model
from geomrel.data import (
    FailureDataset,
    TimeConversionProfile,
    TimeUnit,
    parse_dataset,
    rescale_dataset,
)
from geomrel.errors import FitError, PredictionError
from geomrel.evaluation import (
    AggregateCurve,
    ValidityCurve,
    aggregate_median,
    aggregate_to_csv,
    curve_to_csv,
    default_cut_points,
    number_of_failures_eval,
    outlier_report,
)
from geomrel.model import GeometricModelParams, mean_failures
from geomrel.simulation import SimulationConfig, simulate

TRUE = GeometricModelParams(0.05, 0.95)
REPO_DATA = Path(__file__).resolve().parent.parent / "data"


def forward_dataset(label="proj"):
    times = np.arange(10.0, 201.0, 10.0)
    points = tuple((float(t), int(round(mean_failures(TRUE, float(t))))) for t in times)
    return FailureDataset(points, label)


class TestValidityCurve:
    def test_normalized_times_validated(self):
        ValidityCurve("geometric", "p", ((0.2, 0.1), (0.5, -0.2), (1.0, 0.0)))
        with pytest.raises(ValueError):
            ValidityCurve("geometric", "p", ((0.5, 0.1), (0.5, 0.2)))
        with pytest.raises(ValueError):
            ValidityCurve("geometric", "p", ((0.0, 0.1),))
        with pytest.raises(ValueError):
            ValidityCurve("geometric", "p", ((1.2, 0.1),))


class TestNumberOfFailuresEval:
    def test_final_cut_error_near_zero_on_own_data(self):
        ds = forward_dataset()
        curve = number_of_failures_eval("geometric", ds, [ds.final_time])
        (nt, err), = curve.points
        assert nt == 1.0
        assert abs(err) < 0.05

    def test_overpredicting_stub_gives_plus_one(self, monkeypatch):
        ds = forward_dataset()

        class DoubleStub:
            def __init__(self, q):
                self.q = q

            def predict_mean(self, t):
                return 2.0 * self.q

        monkeypatch.setattr(evaluation, "fit_model", lambda name, sub: DoubleStub(ds.final_count))
        curve = number_of_failures_eval("geometric", ds, default_cut_points(ds))
        assert curve.points
        assert all(err == pytest.approx(1.0) for _, err in curve.points)

    def test_default_schedule(self):
        ds = forward_dataset()
        cuts = default_cut_points(ds)
        assert len(cuts) == 20
        assert cuts[0] == pytest.approx(0.2 * ds.final_time)
        assert cuts[-1] == pytest.approx(ds.final_time)

    def test_early_cut_skipped_with_diagnostic(self):
        ds = forward_dataset()
        curve = number_of_failures_eval("geometric", ds, [5.0, ds.final_time])
        assert len(curve.points) == 1
        assert len(curve.skipped) == 1
        assert curve.skipped[0][0] == 5.0
        assert "fewer than 2" in curve.skipped[0][1]

    def test_failed_fits_become_gaps_not_values(self):
        # Littlewood-Verrall needs 5 failures; early cuts on a sparse
        # history must turn into gaps.
        points = ((10.0, 1), (20.0, 2), (30.0, 3), (40.0, 4), (50.0, 5), (60.0, 6), (80.0, 8))
        ds = FailureDataset(points, "sparse")
        curve = number_of_failures_eval("littlewood-verrall", ds, [20.0, 30.0, 80.0])
        skipped_cuts = [t for t, _ in curve.skipped]
        assert 20.0 in skipped_cuts and 30.0 in skipped_cuts
        assert [nt for nt, _ in curve.points] == [1.0]

    def test_underflowing_littlewood_verrall_start_recorded_at_every_cut(self):
        # Subnormal intervals: every LV cut is a gap with its reason, the
        # cuts with 5 failures or more naming their subnormal mean interval.
        ds = FailureDataset.from_tbf(
            [5e-324, 1e-323, 1.5e-323, 2e-323, 3e-323, 4e-323], "subnormal"
        )
        cuts = sorted(set(default_cut_points(ds)))
        curve = number_of_failures_eval("littlewood-verrall", ds)
        assert curve.points == ()
        assert [t for t, _ in curve.skipped] == cuts
        started = 0
        for t_e, reason in curve.skipped:
            n = int(np.searchsorted(ds.times, t_e, side="right"))
            if n >= 5:
                started += 1
                mean = {5: "1.5e-323", 6: "2e-323"}[n]
                assert reason == (
                    f"littlewood-verrall: the start's mean interval {mean} is not a positive "
                    "normal float; the intervals are too small to fit"
                ), t_e
            else:
                assert reason.startswith("littlewood-verrall: needs at least 5 failures"), t_e
        assert started > 0

    def test_deterministic(self):
        ds = forward_dataset()
        cuts = default_cut_points(ds, 6)
        a = number_of_failures_eval("geometric", ds, cuts)
        b = number_of_failures_eval("geometric", ds, cuts)
        assert a == b

    def test_cut_beyond_window_rejected(self):
        ds = forward_dataset()
        with pytest.raises(ValueError):
            number_of_failures_eval("geometric", ds, [ds.final_time * 2])

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            number_of_failures_eval("weibull", forward_dataset())

    def test_no_failures_rejected(self):
        ds = FailureDataset(((10.0, 0), (20.0, 0)))
        with pytest.raises(ValueError):
            number_of_failures_eval("geometric", ds)

    def test_median_error_shrinks_with_later_cuts(self):
        # On simulated histories the fits should, in median, predict the
        # final count better as the fitting window grows.
        fractions = (0.3, 0.5, 0.7, 0.9)
        errors = {f: [] for f in fractions}
        for rep in range(20):
            ds = simulate(
                SimulationConfig(TRUE, horizon=400, seed=5000 + rep, replications=1)
            )[0]
            curve = number_of_failures_eval(
                "geometric", ds, [f * ds.final_time for f in fractions]
            )
            got = dict(curve.points)
            for f in fractions:
                key = f * ds.final_time / ds.final_time
                if key in got:
                    errors[f].append(abs(got[key]))
        first = float(np.median(errors[fractions[0]]))
        last = float(np.median(errors[fractions[-1]]))
        assert last <= first


def per_cut_reference(model_name, ds, cuts):
    """The harness written longhand: one fresh fit for every cut."""
    q, t_q = ds.final_count, ds.final_time
    points, skipped = [], []
    for t_e in cuts:
        sub_points = tuple(p for p in ds.points if p[0] <= t_e)
        if len(sub_points) < 2:
            skipped.append((t_e, "fewer than 2 measurements at this cut"))
            continue
        sub = FailureDataset(sub_points, ds.label, ds.native_unit)
        try:
            mu_hat = fit_model(model_name, sub).predict_mean(t_q)
        except (FitError, PredictionError, ValueError, OverflowError) as exc:
            skipped.append((t_e, str(exc)))
            continue
        points.append((t_e / t_q, (mu_hat - q) / q))
    return ValidityCurve(model_name, ds.label, tuple(points), tuple(skipped))


@pytest.fixture
def fit_calls(monkeypatch):
    """Sizes of the sub-histories the harness fits, in call order."""
    sizes = []

    def counting_fit_model(model_name, sub):
        sizes.append(len(sub))
        return fit_model(model_name, sub)

    monkeypatch.setattr(evaluation, "fit_model", counting_fit_model)
    return sizes


class TestDistinctPrefixReuse:
    """Cuts that leave the same sub-history share one fit, and the curve is
    the one a fresh fit per cut would give."""

    @pytest.fixture(scope="class")
    def ntds(self):
        with open(REPO_DATA / "ntds_tbf.csv", "rb") as handle:
            return parse_dataset(handle, "tbf_csv", label="ntds")

    @pytest.mark.parametrize("model_name", ALL_MODEL_NAMES)
    def test_ntds_fits_each_distinct_prefix_once(self, ntds, fit_calls, model_name):
        cuts = default_cut_points(ntds)
        curve = number_of_failures_eval(model_name, ntds, cuts)
        assert len(cuts) == 20
        assert len(fit_calls) == len(set(fit_calls)) == 11
        assert curve == per_cut_reference(model_name, ntds, cuts)

    def test_repeated_failed_prefix_keeps_reason_per_cut(self, fit_calls):
        # Cuts at 45, 55 and 65 all see the same four failures, too few for
        # Littlewood-Verrall; each keeps its own skip with the same reason.
        points = ((10.0, 1), (20.0, 2), (30.0, 3), (40.0, 4), (70.0, 5), (80.0, 6),
                  (90.0, 7), (100.0, 8))
        ds = FailureDataset(points, "sparse-start")
        cuts = [45.0, 55.0, 65.0, 100.0]
        curve = number_of_failures_eval("littlewood-verrall", ds, cuts)
        assert fit_calls == [4, 8]
        assert [t for t, _ in curve.skipped] == [45.0, 55.0, 65.0]
        reasons = {r for _, r in curve.skipped}
        assert reasons == {"littlewood-verrall: needs at least 5 failures, got 4"}
        assert [nt for nt, _ in curve.points] == [1.0]
        assert curve == per_cut_reference("littlewood-verrall", ds, cuts)


class TestSharedFits:
    """Musa basic and NHPP fit identically, so ``evaluate`` computes one
    curve for both; the renamed copy equals a direct evaluation."""

    @staticmethod
    def histories():
        with open(REPO_DATA / "ntds_tbf.csv", "rb") as handle:
            ntds = parse_dataset(handle, "tbf_csv", label="ntds")
        (simulated,) = simulate(
            SimulationConfig(GeometricModelParams(0.05, 0.95), horizon=400, seed=42)
        )
        # Skipped cuts: one measurement, two without a failure, and one
        # with a single usable point; the last two fail inside the fit.
        zero_start = FailureDataset(
            ((5.0, 0), (10.0, 0), (15.0, 1), (20.0, 2), (30.0, 4), (40.0, 5), (60.0, 7)),
            "zero-start",
        )
        return [
            (ntds, default_cut_points(ntds)),
            (simulated, default_cut_points(simulated)),
            (zero_start, [7.0, 12.0, 17.0, 35.0, 60.0]),
        ]

    def test_only_musa_basic_and_nhpp_share_a_fit(self):
        keys = {name: _fit_key(name) for name in ALL_MODEL_NAMES}
        assert keys["musa-basic"] == keys["nhpp"]
        assert len(set(keys.values())) == len(ALL_MODEL_NAMES) - 1

    @pytest.mark.parametrize("first, second", [("musa-basic", "nhpp"), ("nhpp", "musa-basic")])
    def test_renamed_curve_equals_direct_evaluation(self, first, second):
        for ds, cuts in self.histories():
            shared = number_of_failures_eval(first, ds, cuts)
            direct = number_of_failures_eval(second, ds, cuts)
            assert evaluation._renamed(shared, second) == direct, ds.label
        reasons = [reason for _, reason in direct.skipped]
        assert reasons == [
            "fewer than 2 measurements at this cut",
            f"{second}: no usable points: every cumulative count is zero",
            f"{second}: need at least 2 usable points to fit, got 1",
        ]


class TestUnitInvariance:
    CUTS = (0.3, 0.5, 0.7, 1.0)
    PROFILE = TimeConversionProfile(2.0, 1)  # one incident is half a day

    def _curves(self, model_name):
        ds = forward_dataset()
        days = rescale_dataset(ds, self.PROFILE, TimeUnit.CALENDAR_DAY)
        native = number_of_failures_eval(
            model_name, ds, [f * ds.final_time for f in self.CUTS]
        )
        scaled = number_of_failures_eval(
            model_name, days, [f * days.final_time for f in self.CUTS]
        )
        assert len(native.points) == len(scaled.points) == len(self.CUTS)
        return native, scaled

    @pytest.mark.parametrize("model_name", ["musa-basic", "musa-okumoto", "nhpp"])
    def test_closed_form_families_are_unit_invariant(self, model_name):
        native, scaled = self._curves(model_name)
        for (nt_a, err_a), (nt_b, err_b) in zip(native.points, scaled.points):
            assert nt_a == pytest.approx(nt_b, rel=1e-12)
            assert err_a == pytest.approx(err_b, abs=1e-6)

    def test_littlewood_verrall_is_unit_invariant(self):
        # The fit runs in (u, ln scale0, scale1 / mean interval), which a
        # change of time unit only shifts: the curves agree to about 1e-11.
        native, scaled = self._curves("littlewood-verrall")
        for (_, err_a), (_, err_b) in zip(native.points, scaled.points):
            assert err_a == pytest.approx(err_b, abs=1e-9)

    @pytest.mark.xfail(
        strict=False,
        reason=(
            "exact unit invariance is unattainable here: the geometric-rates "
            "family is not closed under time rescaling (survival probabilities "
            "transform as (1-p)**c, which is no longer a geometric rate "
            "sequence; deviations of 1.3e-3, against 1e-6)"
        ),
    )
    def test_geometric_exact_invariance(self):
        native, scaled = self._curves("geometric")
        for (_, err_a), (_, err_b) in zip(native.points, scaled.points):
            assert err_a == pytest.approx(err_b, abs=1e-6)


class TestAggregateMedian:
    def test_single_curve_identity(self):
        curve = ValidityCurve("geometric", "p", ((0.25, 0.1), (0.75, -0.2)))
        agg = aggregate_median([curve], grid_cells=4)
        assert [c.median_relative_error for c in agg.cells] == [0.1, -0.2]
        assert [c.contributing_project_count for c in agg.cells] == [1, 1]

    def test_median_robust_to_far_off_value(self):
        curves = [
            ValidityCurve("geometric", a, ((0.5, v),))
            for a, v in (("a", -0.5), ("b", 0.1), ("c", 6.0))
        ]
        agg = aggregate_median(curves, grid_cells=1)
        assert agg.cells[0].median_relative_error == pytest.approx(0.1)
        assert agg.cells[0].contributing_project_count == 3

    def test_even_count_uses_middle_mean(self):
        curves = [
            ValidityCurve("geometric", a, ((0.5, v),)) for a, v in (("a", 0.2), ("b", 0.4))
        ]
        agg = aggregate_median(curves, grid_cells=1)
        assert agg.cells[0].median_relative_error == pytest.approx(0.3)

    def test_empty_cells_omitted_and_grid_covers_unit_interval(self):
        curve = ValidityCurve("geometric", "p", ((0.05, 1.0), (0.95, 2.0)))
        agg = aggregate_median([curve], grid_cells=10)
        assert len(agg.cells) == 2
        assert agg.cells[0].lower == 0.0 and agg.cells[0].upper == pytest.approx(0.1)
        assert agg.cells[-1].upper == 1.0

    def test_mixed_model_names_rejected(self):
        a = ValidityCurve("geometric", "p", ((0.5, 0.1),))
        b = ValidityCurve("nhpp", "p", ((0.5, 0.1),))
        with pytest.raises(ValueError, match="mixed"):
            aggregate_median([a, b])

    def test_no_curves_rejected(self):
        with pytest.raises(ValueError):
            aggregate_median([])

    def test_median_stays_between_extremes(self):
        rng = np.random.default_rng(3)
        curves = []
        for label in "abcde":
            nts = np.sort(rng.uniform(0.01, 1.0, size=6))
            nts = np.unique(nts)
            errs = rng.normal(0, 2, size=nts.size)
            curves.append(
                ValidityCurve("geometric", label, tuple(zip(nts.tolist(), errs.tolist())))
            )
        agg = aggregate_median(curves, grid_cells=5)
        everything = [(nt, e) for c in curves for nt, e in c.points]
        for cell in agg.cells:
            members = [e for nt, e in everything if cell.lower < nt <= cell.upper]
            assert min(members) <= cell.median_relative_error <= max(members)

    def test_removing_curve_leaves_other_cells_alone(self):
        a = ValidityCurve("geometric", "a", ((0.15, 0.5),))
        b = ValidityCurve("geometric", "b", ((0.85, -0.25),))
        both = aggregate_median([a, b], grid_cells=10)
        alone = aggregate_median([a], grid_cells=10)
        cell_a_both = [c for c in both.cells if c.lower < 0.15 <= c.upper]
        cell_a_alone = [c for c in alone.cells if c.lower < 0.15 <= c.upper]
        assert cell_a_both == cell_a_alone


class TestOutlierReport:
    def test_far_off_project_reported(self):
        curve = ValidityCurve("lv", "wild-project", ((0.5, 6.0), (1.0, 0.1)))
        assert outlier_report([curve], 5.0) == [("wild-project", 6.0)]

    def test_quiet_curves_not_reported(self):
        curve = ValidityCurve("lv", "ok", ((0.5, 0.4), (1.0, -0.8)))
        assert outlier_report([curve], 5.0) == []

    def test_stub_curve_at_threshold_half(self):
        curve = ValidityCurve("stub", "s", ((0.5, 1.0), (1.0, 1.0)))
        assert outlier_report([curve], 0.5) == [("s", 1.0)]

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            outlier_report([], 0.0)


class TestExports:
    CURVE = ValidityCurve("geometric", "proj", ((0.5, 0.25), (1.0, -0.125)), ((0.1, "thin"),))

    def test_curve_csv(self):
        text = curve_to_csv(self.CURVE)
        lines = text.strip().split("\n")
        assert lines[0] == "normalized_time,relative_error,model,dataset"
        assert lines[1] == "0.5,0.25,geometric,proj"

    def test_curve_csv_with_labels(self):
        text = curve_to_csv(self.CURVE)
        lines = text.strip().split("\n")
        assert lines[0] == "normalized_time,relative_error,model,dataset"
        assert lines[2] == "1.0,-0.125,geometric,proj"

    def test_aggregate_csv_and_json(self):
        agg = aggregate_median([self.CURVE], grid_cells=2)
        text = aggregate_to_csv(agg)
        lines = text.strip().split("\n")
        assert lines[0] == "normalized_time,relative_error,model"
        assert lines[1].startswith("0.25,")
        assert agg.grid_cells == 2
        assert agg.cells[0].contributing_project_count == 1
        assert isinstance(aggregate_median([self.CURVE]), AggregateCurve)
