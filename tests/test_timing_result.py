"""The :class:`TimingResult` contract, under both timing engines.

A result holds its sink names plus float64 arrival and slew arrays.  Its
scalar reductions read the arrays and must equal ``max`` / ``min`` over its
own dicts bit for bit; its dicts keep the engines' key order (sink-row order
for the vectorized engine, tree pre-order for the reference); it owns
copies, so no later design edit reaches it; and a NaN arrival is never
hidden by the reductions.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.evaluation.metrics import evaluate_tree
from repro.guard import metrics_anomaly, timing_anomaly
from repro.ir.design import KIND_BUFFER, KIND_SINK, DesignArrays
from repro.timing import ElmoreTimingEngine, TimingResult, VectorizedElmoreEngine
from tests.test_timing_vectorized import random_design, random_design_edit

ENGINES = {"reference": ElmoreTimingEngine, "vectorized": VectorizedElmoreEngine}


def sink_order(engine_name: str, design: DesignArrays) -> list[str]:
    """The key order each engine's dicts have always had."""
    if engine_name == "vectorized":
        rows = design.sink_rows().tolist()
    else:
        rows = [r for r in design.rows_preorder() if design.kind[r] == KIND_SINK]
    return [design.names[row] for row in rows]


def assert_reductions_match_dicts(result: TimingResult, context: str) -> None:
    arrivals = list(result.arrivals.values())
    assert result.latency.hex() == max(arrivals).hex(), context
    assert result.min_arrival.hex() == min(arrivals).hex(), context
    assert result.skew.hex() == (max(arrivals) - min(arrivals)).hex(), context
    slews = list(result.slews.values())
    assert result.max_slew.hex() == (max(slews) if slews else 0.0).hex(), context
    assert result.summary()["sinks"] == float(len(arrivals)), context


def add_sink(design: DesignArrays, serial: int) -> None:
    """Grow the sink set: a new sink under the first sink's parent."""
    parent = int(design.parent_row[design.sink_rows()[0]])
    design.add_child(
        parent, f"extra{serial}", KIND_SINK, 5.0 * serial, 3.0, capacitance=1.0
    )


class TestReductionParity:
    @pytest.mark.parametrize("corners", [None, "tt,ss,ff"])
    @pytest.mark.parametrize("engine_name", sorted(ENGINES))
    def test_edit_sequences(self, pdk, engine_name, corners):
        rng = np.random.default_rng(61)
        design = random_design(rng, sinks=50, internals=25)
        engine = ENGINES[engine_name](pdk, corners=corners)
        for step in range(16):
            for with_slew in (False, True):
                results = {
                    "analyze": engine.analyze(design, with_slew=with_slew),
                    **engine.analyze_corners(design, with_slew=with_slew),
                }
                order = sink_order(engine_name, design)
                for label, result in results.items():
                    context = f"step {step} {label} slews={with_slew}"
                    assert_reductions_match_dicts(result, context)
                    assert list(result.arrivals) == order, context
                    assert list(result.sink_names) == order, context
                    if not with_slew:
                        assert result.slews == {}, context
                    elif engine_name == "vectorized":
                        assert list(result.slews) == order, context
                    else:  # the reference records slews parent by parent
                        assert sorted(result.slews) == sorted(order), context
                if engine_name == "vectorized":
                    # Values are the engine's own per-row arrivals and slews.
                    state, rows = engine._state, design.sink_rows()
                    for k, result in enumerate(engine.analyze_corners(design).values()):
                        assert list(result.arrivals.values()) == (
                            state.arrival[k, rows].tolist()
                        )
                        assert list(result.slews.values()) == (
                            state.slew_at[k, rows].tolist()
                        )
            if step % 5 == 4:
                add_sink(design, step)
            else:
                random_design_edit(design, rng, pdk)

    def test_vectorized_retimes_incrementally_through_the_sequence(self, pdk):
        rng = np.random.default_rng(63)
        design = random_design(rng, sinks=40, internals=20)
        engine = VectorizedElmoreEngine(pdk)
        engine.analyze(design, with_slew=False)
        for step in range(12):
            random_design_edit(design, rng, pdk)
            # Neither engine writes to the design, so the warm engine stays
            # on its dirty-cone path.
            truth = ElmoreTimingEngine(pdk).analyze(design, with_slew=False)
            served = engine.analyze(design, with_slew=False)
            assert sorted(served.sink_names) == sorted(truth.sink_names), step
            assert served.latency == pytest.approx(truth.latency, abs=1e-9)
            assert served.skew == pytest.approx(truth.skew, abs=1e-9)
        assert engine.full_compiles == 1
        assert engine._state.slews_valid is False

    def test_constructors_agree(self):
        names = ("a", "b", "c")
        from_dicts = TimingResult(
            arrivals=dict(zip(names, (10.0, 14.0, 11.0))),
            slews=dict(zip(names, (3.0, 5.0, 4.0))),
        )
        from_arrays = TimingResult.from_arrays(
            names, np.array([10.0, 14.0, 11.0]), np.array([3.0, 5.0, 4.0])
        )
        assert from_dicts == from_arrays
        assert from_arrays.sink_names == names
        assert from_arrays.max_slew == 5.0
        assert TimingResult.from_arrays(names, [1.0, 2.0, 3.0]).slews == {}
        caller_names = list(names)
        owned = TimingResult.from_arrays(caller_names, [1.0, 2.0, 3.0])
        caller_names[0] = "renamed"
        assert owned.sink_names == names and list(owned.arrivals) == list(names)
        with pytest.raises(ValueError, match="at least one sink"):
            TimingResult.from_arrays((), [])
        with pytest.raises(ValueError, match="differ in length"):
            TimingResult.from_arrays(names, [1.0, 2.0])

    def test_arrays_are_read_only(self):
        result = TimingResult.from_arrays(("a", "b"), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            result.arrival_array[0] = 5.0


class TestSnapshots:
    """A result never changes after it is returned, and it pickles."""

    @pytest.mark.parametrize("change", ["edit", "remove", "restore"])
    @pytest.mark.parametrize("engine_name", sorted(ENGINES))
    def test_later_design_changes_do_not_reach_a_result(
        self, pdk, engine_name, change
    ):
        rng = np.random.default_rng(62)
        design = random_design(rng, sinks=40, internals=20)
        snap = design.snapshot()
        random_design_edit(design, rng, pdk)  # rows leave breadth-first order
        engine = ENGINES[engine_name](pdk, corners="tt,ss,ff")
        engine.analyze(design)  # a warm engine: later queries patch its state
        taken = [engine.analyze(design), *engine.analyze_corners(design).values()]
        # The truth, read before the change from an independent engine.
        truth = [
            ENGINES[engine_name](pdk, corners="tt,ss,ff").analyze(design),
            *ENGINES[engine_name](pdk, corners="tt,ss,ff")
            .analyze_corners(design)
            .values(),
        ]
        expected = [(r.arrivals, r.slews, r.latency.hex()) for r in truth]
        if change == "edit":
            sink = int(design.sink_rows()[3])
            x, y = float(design.x[sink]), float(design.y[sink])
            design.add_buffer(sink, x, y, 0.8)
        elif change == "remove":
            # Dissolve the newest row, the only one a design can remove.
            newest = design.size - 1
            parent = int(design.parent_row[newest])
            for child in list(design.children_rows[newest]):
                design.move_child(child, parent)
            design.remove_leaf(newest)
        else:
            design.restore(snap)
        engine.analyze(design)  # the engine moves on to the changed design
        engine.analyze_corners(design)
        for result, (arrivals, slews, latency) in zip(taken, expected):
            assert result.arrivals == arrivals, change
            assert list(result.arrivals) == list(arrivals), change
            assert result.slews == slews, change
            assert result.latency.hex() == latency, change
            clone = pickle.loads(pickle.dumps(result))
            assert clone == result
            assert clone.sink_names == result.sink_names
            assert clone.latency.hex() == latency
            assert clone.max_slew == result.max_slew

    def test_pickle_carries_no_engine_or_design_state(self, pdk):
        design = random_design(np.random.default_rng(64), sinks=30, internals=10)
        engine = VectorizedElmoreEngine(pdk)
        result = engine.analyze(design)
        # Build the lazy dicts: the pickle must not ship them.
        assert result.arrivals and result.slews
        payload = pickle.dumps(result)
        assert b"DesignArrays" not in payload and b"_EngineState" not in payload
        slews = np.array(list(result.slews.values()))
        bare = TimingResult.from_arrays(result.sink_names, result.arrival_array, slews)
        assert len(payload) == len(pickle.dumps(bare))


def two_buffer_design(pdk) -> tuple[DesignArrays, int]:
    """root -> buffer a -> (a0, a1); root -> buffer b -> (b0, b1).

    Returns the design and the row of ``b1``; a NaN on ``b1`` poisons only
    the sinks below ``b``, which come after ``a``'s in either engine's order.
    """
    design = DesignArrays("nan_probe")
    root = design.add_root("root", 0.0, 0.0)
    buffer_cap = pdk.buffer.input_capacitance
    a = design.add_child(root, "a", KIND_BUFFER, 10.0, 0.0, capacitance=buffer_cap)
    b = design.add_child(root, "b", KIND_BUFFER, 0.0, 10.0, capacitance=buffer_cap)
    design.add_child(a, "a0", KIND_SINK, 12.0, 1.0, capacitance=1.0)
    design.add_child(a, "a1", KIND_SINK, 12.0, -1.0, capacitance=1.0)
    design.add_child(b, "b0", KIND_SINK, 1.0, 12.0, capacitance=1.0)
    b1 = design.add_child(b, "b1", KIND_SINK, -1.0, 12.0, capacitance=1.0)
    return design, b1


class TestNonFinite:
    def test_nan_arrival_gives_nan_reductions(self):
        nan = float("nan")
        for result in (
            TimingResult(arrivals={"a": 1.0, "b": nan, "c": 2.0}),
            TimingResult.from_arrays(("a", "b", "c"), [1.0, nan, 2.0]),
        ):
            assert math.isnan(result.latency)
            assert math.isnan(result.min_arrival)
            assert math.isnan(result.skew)
            anomaly = timing_anomaly(result)
            assert "1 non-finite" in anomaly and "'b'" in anomaly

    @pytest.mark.parametrize("engine_name", sorted(ENGINES))
    def test_nan_arrival_reaches_metrics_and_both_probes(self, pdk, engine_name):
        design, b1 = two_buffer_design(pdk)
        design.cap[b1] = float("nan")
        design.touch()
        timing = ENGINES[engine_name](pdk).analyze(design)
        assert math.isnan(timing.latency)
        anomaly = timing_anomaly(timing)
        assert "2 non-finite" in anomaly and "'b0'" in anomaly
        metrics = evaluate_tree(design, pdk, engine=engine_name)
        assert math.isnan(metrics.latency)
        assert "latency" in metrics_anomaly(metrics)

    def test_clean_screen_builds_no_name_dict(self, monkeypatch):
        reads: list[TimingResult] = []
        arrivals = TimingResult.arrivals
        monkeypatch.setattr(
            TimingResult,
            "arrivals",
            property(lambda result: reads.append(result) or arrivals.fget(result)),
        )
        assert timing_anomaly(TimingResult.from_arrays(("a", "b"), [1.0, 2.0])) is None
        assert reads == []

    def test_negative_arrivals_are_named(self):
        result = TimingResult.from_arrays(("a", "b", "c"), [1.0, -2.0, -3.0])
        anomaly = timing_anomaly(result)
        assert "2 negative" in anomaly and "'b'" in anomaly and "'c'" in anomaly
