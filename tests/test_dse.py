"""Tests for Pareto utilities and the design-space explorer (Fig. 9 / Fig. 12)."""

import os
import warnings

import pytest

from repro.dse import DesignSpaceExplorer, is_dominated, pareto_front
from repro.flow import BackendSelection, CtsConfig, DoubleSideCTS, SingleSideCTS
from repro.guard import GuardError, SweepCrash
from tests.conftest import make_random_clock_net


class TestParetoUtilities:
    def test_is_dominated_basic(self):
        points = [(1.0, 1.0), (2.0, 2.0), (0.5, 3.0)]
        assert is_dominated((2.0, 2.0), points)
        assert not is_dominated((1.0, 1.0), points)
        assert not is_dominated((0.5, 3.0), points)

    def test_equal_points_do_not_dominate_each_other(self):
        points = [(1.0, 1.0), (1.0, 1.0)]
        assert not is_dominated((1.0, 1.0), points)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            is_dominated((1.0,), [(1.0, 2.0)])

    def test_pareto_front_extracts_non_dominated(self):
        items = [
            {"name": "a", "obj": (1.0, 5.0)},
            {"name": "b", "obj": (2.0, 2.0)},
            {"name": "c", "obj": (5.0, 1.0)},
            {"name": "d", "obj": (3.0, 3.0)},  # dominated by b
        ]
        front = pareto_front(items, lambda item: item["obj"])
        names = {item["name"] for item in front}
        assert names == {"a", "b", "c"}

    def test_pareto_front_of_empty_is_empty(self):
        assert pareto_front([], lambda item: item) == []

    def test_single_item_is_pareto_optimal(self):
        assert len(pareto_front([(1.0, 1.0)], lambda item: item)) == 1


class TestDesignSpaceExplorer:
    @pytest.fixture(scope="class")
    def sweep(self, pdk, small_design, small_config):
        explorer = DesignSpaceExplorer(pdk, small_config)
        return explorer.explore(small_design, fanout_thresholds=[0, 20, 10 ** 6])

    def test_one_point_per_threshold(self, sweep):
        assert len(sweep.points) == 3
        assert [p.parameter for p in sweep.points] == [0.0, 20.0, 10.0 ** 6]

    def test_zero_threshold_is_single_side(self, sweep):
        zero = next(p for p in sweep.points if p.parameter == 0.0)
        assert zero.metrics.ntsvs == 0

    def test_larger_threshold_allows_more_ntsvs(self, sweep):
        zero = next(p for p in sweep.points if p.parameter == 0.0)
        full = next(p for p in sweep.points if p.parameter == 10.0 ** 6)
        assert full.metrics.ntsvs >= zero.metrics.ntsvs

    def test_full_mode_latency_competitive_with_intra_side(self, sweep):
        """Full mode optimises the MOES, so it may trade a few ps of latency
        for fewer resources — but it must stay in the same ballpark while
        gaining access to the back side."""
        zero = next(p for p in sweep.points if p.parameter == 0.0)
        full = next(p for p in sweep.points if p.parameter == 10.0 ** 6)
        assert full.metrics.latency <= zero.metrics.latency * 1.10 + 1e-6

    def test_pareto_subset_of_points(self, sweep):
        front = sweep.pareto()
        assert front
        assert all(p in sweep.points for p in front)

    def test_best_latency_and_skew_helpers(self, sweep):
        assert sweep.best_latency().metrics.latency == min(
            p.metrics.latency for p in sweep.points
        )
        assert sweep.best_skew().metrics.skew == min(
            p.metrics.skew for p in sweep.points
        )

    def test_rows_are_flat_dicts(self, sweep):
        rows = sweep.rows()
        assert len(rows) == 3
        assert {"configuration", "parameter", "latency_ps", "resources"} <= set(rows[0])

    def test_baseline_sweeps(self, pdk, small_design, small_config):
        buffered = SingleSideCTS(pdk, small_config).run(small_design)
        explorer = DesignSpaceExplorer(pdk, small_config)
        fanout_sweep = explorer.sweep_fanout_baseline(
            buffered.design, thresholds=[5, 1000], design_name="unit"
        )
        critical_sweep = explorer.sweep_critical_baseline(
            buffered.design, fractions=[0.2, 0.8], design_name="unit"
        )
        veloso_point = explorer.veloso_point(buffered.design, design_name="unit")
        assert len(fanout_sweep.points) == 2
        assert len(critical_sweep.points) == 2
        # [2] flips every trunk edge, so it uses at least as much back-side
        # wirelength as any fanout-threshold subset (nTSV counts can differ
        # either way because partial flips need vias at more boundaries).
        assert veloso_point.metrics.back_wirelength >= max(
            p.metrics.back_wirelength for p in fanout_sweep.points
        ) - 1e-6
        # Baselines keep the buffered tree's buffer count.
        assert all(
            p.metrics.buffers == buffered.metrics.buffers
            for p in fanout_sweep.points + critical_sweep.points
        )


class TestParallelExplore:
    def test_parallel_sweep_matches_serial(self, pdk, small_design, small_config):
        """A process-pool sweep returns the identical points in the same order."""
        explorer = DesignSpaceExplorer(pdk, small_config)
        thresholds = [0, 20, 10 ** 6]
        serial = explorer.explore(small_design, fanout_thresholds=thresholds)
        parallel = explorer.explore(
            small_design, fanout_thresholds=thresholds, workers=2
        )
        assert [p.parameter for p in parallel.points] == [
            p.parameter for p in serial.points
        ]
        for a, b in zip(serial.points, parallel.points):
            assert a.metrics.latency == pytest.approx(b.metrics.latency, abs=1e-9)
            assert a.metrics.skew == pytest.approx(b.metrics.skew, abs=1e-9)
            assert a.metrics.buffers == b.metrics.buffers
            assert a.metrics.ntsvs == b.metrics.ntsvs
            assert a.metrics.wirelength == pytest.approx(b.metrics.wirelength)

    def test_engine_choice_does_not_change_results(self, pdk, small_design, small_config):
        thresholds = [20]
        vec_config, ref_config = (
            small_config.with_updates(backends=BackendSelection(timing=engine))
            for engine in ("vectorized", "reference")
        )
        vec = DesignSpaceExplorer(pdk, vec_config).explore(
            small_design, fanout_thresholds=thresholds
        )
        ref = DesignSpaceExplorer(pdk, ref_config).explore(
            small_design, fanout_thresholds=thresholds
        )
        for a, b in zip(vec.points, ref.points):
            assert a.metrics.latency == pytest.approx(b.metrics.latency, abs=1e-6)
            assert a.metrics.skew == pytest.approx(b.metrics.skew, abs=1e-6)
            assert a.metrics.buffers == b.metrics.buffers
            assert a.metrics.ntsvs == b.metrics.ntsvs


class TestSweepFailures:
    """A crashing sweep point is isolated, retried, and recorded — never fatal."""

    THRESHOLDS = [0, 20, 10 ** 6]

    def test_crashing_point_is_isolated_serial_and_parallel(
        self, pdk, small_design, small_config
    ):
        explorer = DesignSpaceExplorer(pdk, small_config)
        hook = SweepCrash(threshold=20)
        serial = explorer.explore(
            small_design, fanout_thresholds=self.THRESHOLDS, point_hook=hook
        )
        parallel = explorer.explore(
            small_design, fanout_thresholds=self.THRESHOLDS, workers=2, point_hook=hook
        )
        for sweep in (serial, parallel):
            # Every other point survives; the crash is recorded, not raised.
            assert [p.parameter for p in sweep.points] == [0.0, 10.0 ** 6]
            assert len(sweep.failures) == 1
            failure = sweep.failures[0]
            assert failure.parameter == 20.0
            assert "injected sweep crash" in failure.error
            assert "reference retry failed" in failure.error
        for a, b in zip(serial.points, parallel.points):
            assert a.metrics.latency == pytest.approx(b.metrics.latency, abs=1e-9)
            assert a.metrics.skew == pytest.approx(b.metrics.skew, abs=1e-9)
            assert a.metrics.buffers == b.metrics.buffers

    def test_reference_retry_recovers_the_point(self, pdk, small_design, small_config):
        # only_fast spares all-reference configurations, so the retry (which
        # swaps every backend to the executable spec) succeeds.
        explorer = DesignSpaceExplorer(pdk, small_config)
        crashed = explorer.explore(
            small_design,
            fanout_thresholds=self.THRESHOLDS,
            point_hook=SweepCrash(threshold=20, only_fast=True),
        )
        assert not crashed.failures
        assert [(p.parameter, p.retried) for p in crashed.points] == [
            (0.0, False),
            (20.0, True),
            (10.0 ** 6, False),
        ]
        clean = explorer.explore(small_design, fanout_thresholds=self.THRESHOLDS)
        for a, b in zip(crashed.points, clean.points):
            # The recovered point came off the reference backends, which are
            # decision-identical to the vectorized defaults.
            assert a.metrics.latency == pytest.approx(b.metrics.latency, abs=1e-6)
            assert a.metrics.skew == pytest.approx(b.metrics.skew, abs=1e-6)
            assert a.metrics.buffers == b.metrics.buffers
            assert a.metrics.ntsvs == b.metrics.ntsvs


class TestSweepMatchesTheFlow:
    """Every sweep point is the flow run at that threshold, same backends.

    Driven through the library API with every ``REPRO_*`` variable unset:
    the CLI exports its flags as environment variables, which once hid a
    sweep that ignored ``CtsConfig.backends``.
    """

    THRESHOLDS = [20, 100]
    SELECTIONS = {
        "default": BackendSelection(),
        "all-reference": BackendSelection(
            timing="reference", dp="reference", dme="reference", guard="strict"
        ),
    }

    @pytest.fixture()
    def spy(self, monkeypatch):
        """Record the backend every stage engine is built with."""
        import repro.insertion.concurrent as concurrent
        import repro.ir.stages as ir_stages
        import repro.routing.hierarchical as hierarchical

        for name in [n for n in os.environ if n.startswith("REPRO_")]:
            monkeypatch.delenv(name)
        built = {"dme": set(), "dp": set(), "timing": set()}
        create_dme_router = hierarchical.create_dme_router
        inserter_init = concurrent.ConcurrentInserter.__init__
        refiner_init = ir_stages.SkewRefiner.__init__

        def dme_spy(layer, backend=None, **kwargs):
            router = create_dme_router(layer, backend=backend, **kwargs)
            built["dme"].add(type(router).__name__)
            return router

        def inserter_spy(self, *args, **kwargs):
            inserter_init(self, *args, **kwargs)
            built["dp"].add(self.dp_backend)
            built["timing"].add(type(self._engine).__name__)

        def refiner_spy(self, *args, **kwargs):
            refiner_init(self, *args, **kwargs)
            built["timing"].add(type(self._engine).__name__)

        monkeypatch.setattr(hierarchical, "create_dme_router", dme_spy)
        monkeypatch.setattr(concurrent.ConcurrentInserter, "__init__", inserter_spy)
        monkeypatch.setattr(ir_stages.SkewRefiner, "__init__", refiner_spy)
        return built

    @pytest.mark.parametrize("selection", SELECTIONS, ids=str)
    def test_points_equal_flow_runs(self, pdk, spy, selection):
        net = make_random_clock_net(count=300, extent=300.0, seed=3)
        config = CtsConfig(
            high_cluster_size=100,
            low_cluster_size=10,
            seed=7,
            backends=self.SELECTIONS[selection],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            sweep = DesignSpaceExplorer(pdk, config).explore(net, self.THRESHOLDS)
        reference = selection == "all-reference"
        assert spy == {
            "dme": {"DmeRouter" if reference else "VectorizedDmeRouter"},
            "dp": {"reference" if reference else "vectorized"},
            "timing": {"ElmoreTimingEngine" if reference else "VectorizedElmoreEngine"},
        }
        assert not sweep.failures
        assert [p.parameter for p in sweep.points] == [20.0, 100.0]
        for point in sweep.points:
            threshold = int(point.parameter)
            flow = DoubleSideCTS(
                pdk, config.with_updates(fanout_threshold=threshold)
            ).run(net)
            assert _comparable(point.metrics) == _comparable(flow.metrics)

    def test_corner_aware_points_equal_flow_runs(self, pdk):
        """Every point is built and signed off across the corner set, as
        the flow is."""
        net = make_random_clock_net(count=80, extent=500.0, seed=1)
        config = CtsConfig(
            high_cluster_size=60,
            low_cluster_size=8,
            seed=7,
            corners="tt,ss,ff",
            corner_aware_construction=True,
        )
        sweep = DesignSpaceExplorer(pdk, config).explore(net, self.THRESHOLDS)
        assert not sweep.failures
        for point in sweep.points:
            assert set(point.metrics.corner_skews) == {"tt", "ss", "ff"}
            flow = DoubleSideCTS(
                pdk, config.with_updates(fanout_threshold=int(point.parameter))
            ).run(net)
            assert _comparable(point.metrics) == _comparable(flow.metrics)

    def test_guard_error_is_never_folded_into_a_failure(self, pdk):
        net = make_random_clock_net(count=60, extent=120.0, seed=5)
        explorer = DesignSpaceExplorer(pdk, CtsConfig(high_cluster_size=100))
        with pytest.raises(GuardError) as err:
            explorer.explore(net, [20, 100], point_hook=_trip_guard)
        assert err.value.stage == "insertion"


def _trip_guard(config, threshold) -> None:
    """A point hook that fails the way a strict guard does."""
    raise GuardError("insertion", f"injected anomaly at threshold {threshold}", "")


def _comparable(metrics) -> dict:
    """A metrics row without the wall-clock runtime and the flow label."""
    row = metrics.as_row()
    row.pop("runtime_s")
    row.pop("flow")
    return row
