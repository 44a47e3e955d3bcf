"""The guarded flow: validation, anomaly detection, fault injection.

Three layers under test:

* input validation at flow entry (bad designs, PDKs, and corner sets are
  rejected with every problem listed),
* the stage-anomaly probes (each corruption class is detected on a live
  routed design),
* the full fault-injection matrix: with a fault armed at a chosen stage the
  ``strict`` policy raises a :class:`GuardError` naming that stage, the
  ``degrade`` policy restores the pre-stage design snapshot, re-runs the
  stage on the reference backends, and completes with a recorded diagnostic
  and a final tree bit-identical to an all-reference-backend run, and
  ``off`` reproduces the unguarded behaviour, corruption included.
"""

from __future__ import annotations

import re
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocktree import ConnectivityError
from repro.flow import BackendSelection, CtsConfig, DoubleSideCTS
from repro.guard import (
    GuardError,
    StageFault,
    clock_net_problems,
    corner_problems,
    design_fingerprint,
    edit_log_anomaly,
    insertion_anomaly,
    metrics_anomaly,
    pdk_problems,
    stage_anomaly,
    timing_anomaly,
    validate_flow_inputs,
)
from repro.guard.faults import (
    drop_edit_log_entry,
    drop_sink,
    duplicate_node_name,
    flip_wire_side,
    poke_nan_capacitance,
    poke_nan_location,
    poke_negative_capacitance,
)
from repro.guard.validation import design_cache_key
from repro.netlist import ClockNet, ClockSink, ClockSource
from repro.geometry import Point
from repro.ir.design import KIND_STEINER
from repro.routing.hierarchical import HierarchicalClockRouter
from repro.tech import CornerSet
from repro.tech.corners import Scenario
from repro.tech.layers import MetalStack
from repro.tech.nldm import NldmTable
from repro.timing import TimingResult
from tests.conftest import make_random_clock_net
from tests.harness import assert_clock_trees_identical

ALL_REFERENCE = {"timing": "reference", "dp": "reference", "dme": "reference"}
ROUTING_CONFIG = CtsConfig(high_cluster_size=40, low_cluster_size=6, seed=7)


def run_guarded(pdk, clock_net, faults=(), guard=None, corners=None, **backends):
    """The harness flow configuration plus guard faults."""
    config = ROUTING_CONFIG.with_updates(
        corners=corners, backends=BackendSelection(guard=guard, **backends)
    )
    return DoubleSideCTS(pdk, config, guard_faults=faults).run(clock_net)


def small_net(count: int = 40, seed: int = 5) -> ClockNet:
    return make_random_clock_net(count=count, extent=120.0, seed=seed)


# ----------------------------------------------------------- input validation
class TestInputValidation:
    def test_clean_inputs_pass(self, pdk):
        validate_flow_inputs(small_net(), pdk, corners=CornerSet.signoff())

    def test_no_sinks(self):
        net = ClockNet(
            name="empty", source=ClockSource("root", Point(0.0, 0.0)), sinks=[]
        )
        assert any("no sinks" in p for p in clock_net_problems(net))

    def test_duplicate_sink_names(self):
        net = small_net()
        # The ClockNet constructor rejects duplicates, so corrupt a built net
        # the way a buggy reader would: append a second sink with a taken name.
        net.sinks.append(replace(net.sinks[0], location=Point(1.0, 2.0)))
        assert any("duplicate sink name" in p for p in clock_net_problems(net))

    def test_nan_sink_location(self):
        net = small_net()
        object.__setattr__(net.sinks[3], "location", Point(float("nan"), 0.0))
        problems = clock_net_problems(net)
        assert any("location is not finite" in p for p in problems)

    def test_non_positive_sink_cap(self):
        net = small_net()
        object.__setattr__(net.sinks[0], "capacitance", 0.0)
        object.__setattr__(net.sinks[1], "capacitance", float("inf"))
        problems = clock_net_problems(net)
        assert sum("capacitance" in p for p in problems) == 2

    def test_nan_source_drive(self):
        net = small_net()
        object.__setattr__(net.source, "drive_resistance", float("nan"))
        assert any("drive resistance" in p for p in clock_net_problems(net))

    def test_clean_pdk_passes(self, pdk):
        assert pdk_problems(pdk) == []

    def test_nldm_with_inf_entry(self, pdk):
        bad_table = NldmTable.from_arrays(
            [1.0, 2.0], [1.0, 2.0], [[1.0, float("inf")], [2.0, 3.0]]
        )
        bad_pdk = pdk.with_buffer(replace(pdk.buffer, nldm_delay=bad_table))
        problems = pdk_problems(bad_pdk)
        assert any("table entries are not finite" in p for p in problems)

    def test_nan_unit_resistance(self, pdk):
        # LayerRC's own `<= 0` check rejects negatives at construction but
        # lets NaN through — the guard closes that gap.
        layers = [replace(layer, unit_resistance=float("nan")) for layer in pdk.stack]
        bad_pdk = replace(pdk, stack=MetalStack(layers))
        assert any("unit_resistance" in p for p in pdk_problems(bad_pdk))

    def test_nan_corner_scale(self):
        # Scenario's own __post_init__ only rejects `<= 0`, so a NaN scale
        # sails through construction — exactly what the guard must catch.
        corners = CornerSet(
            (Scenario("bad", wire_res_scale=float("nan"), wire_cap_scale=1.0),)
        )
        assert any("wire_res_scale" in p for p in corner_problems(corners))

    def test_validate_raises_guard_error_listing_all_problems(self, pdk):
        net = small_net()
        object.__setattr__(net.sinks[0], "capacitance", -1.0)
        object.__setattr__(net.sinks[1], "location", Point(float("inf"), 0.0))
        with pytest.raises(GuardError) as err:
            validate_flow_inputs(net, pdk)
        assert err.value.stage == "inputs"
        assert "capacitance" in err.value.anomaly
        assert "location" in err.value.anomaly
        assert err.value.fingerprint == design_fingerprint(net)

    def test_flow_entry_validation_under_strict(self, pdk):
        net = small_net()
        object.__setattr__(net.sinks[0], "capacitance", float("nan"))
        with pytest.raises(GuardError) as err:
            run_guarded(pdk, net, guard="strict")
        assert err.value.stage == "inputs"

    def test_flow_entry_validation_skipped_when_off(self, pdk):
        # Same invalid input, no guard: the NaN capacitance flows into the
        # insertion DP and dies deep inside a kernel with an obscure error
        # (which one depends on the backend) — the before picture the
        # "inputs" GuardError replaces.
        net = small_net()
        object.__setattr__(net.sinks[0], "capacitance", float("nan"))
        try:
            run_guarded(pdk, net, guard="off")
        except GuardError:
            pytest.fail("guard=off raised a GuardError")
        except Exception:  # noqa: BLE001 - any kernel error is the point
            pass
        else:
            pytest.fail("the NaN capacitance ran through the unguarded flow")

    def test_corner_spec_string_is_resolved(self):
        assert corner_problems("ss,ff") == []
        problems = corner_problems("ss,bogus")
        assert len(problems) == 1 and "does not resolve" in problems[0]

    @pytest.mark.parametrize("policy", ["degrade", "strict"])
    def test_guarded_flow_accepts_a_corner_spec_string(self, pdk, policy):
        net = small_net()
        off = run_guarded(pdk, net, guard="off", corners="ss,ff")
        guarded = run_guarded(pdk, net, guard=policy, corners="ss,ff")
        assert guarded.guard_diagnostics == []
        assert guarded.metrics.corner_skews == off.metrics.corner_skews
        assert_clock_trees_identical(guarded.tree, off.tree)

    def test_unparseable_corner_spec_is_an_inputs_guard_error(self, pdk):
        with pytest.raises(GuardError) as err:
            run_guarded(pdk, small_net(), guard="strict", corners="ss,bogus")
        assert err.value.stage == "inputs"
        assert "bogus" in err.value.anomaly

    def test_fingerprint_is_stable_and_input_sensitive(self):
        net_a = small_net(seed=5)
        net_b = small_net(seed=6)
        assert design_fingerprint(net_a) == design_fingerprint(small_net(seed=5))
        assert design_fingerprint(net_a) != design_fingerprint(net_b)
        assert len(design_fingerprint(net_a)) == 12

    @settings(deadline=None)
    @given(
        source=st.tuples(*[st.one_of(st.floats(), st.integers(-3, 3))] * 4),
        sinks=st.lists(st.tuples(*[st.one_of(st.floats(), st.integers(-3, 3))] * 3)),
        duplicate=st.booleans(),
    )
    def test_every_checked_net_gets_a_fingerprint(self, source, sinks, duplicate):
        """Whatever clock_net_problems reports on, the guard error it feeds
        can carry the net's fingerprint: a prefix of its cache key."""
        x, y, drive, slew = source
        net = ClockNet("clk", ClockSource("root", Point(x, y), drive, slew))
        for index, (sx, sy, cap) in enumerate(sinks):
            sink = ClockSink(f"ff{index}", Point(0.0, 0.0))
            object.__setattr__(sink, "location", Point(sx, sy))
            object.__setattr__(sink, "capacitance", cap)
            net.sinks.append(sink)
        if duplicate and net.sinks:
            net.sinks.append(net.sinks[0])
        clock_net_problems(net)
        fingerprint = design_fingerprint(net)
        assert re.fullmatch("[0-9a-f]{12}", fingerprint)
        assert fingerprint == design_cache_key(net)[:12]

    @pytest.mark.parametrize("location", [Point(None, 0.0), Point(float("nan"), None)])
    def test_a_non_numeric_coordinate_is_a_type_error(self, location):
        net = small_net()
        object.__setattr__(net.sinks[0], "location", location)
        with pytest.raises(TypeError):
            clock_net_problems(net)


# ------------------------------------------------------------ stage anomalies
def routed_design(pdk):
    """A routed harness net and its design, as the routing stage hands it on."""
    net = small_net()
    router = HierarchicalClockRouter(pdk, config=ROUTING_CONFIG)
    return net, router.route_design(net).design


def _kill_root(design):
    design.kind[0] = KIND_STEINER


def _cycle(design):
    design.children_rows[int(design.sink_rows()[0])].append(0)


def _orphan(design):
    sink = int(design.sink_rows()[0])
    design.children_rows[int(design.parent_row[sink])].remove(sink)


def _duplicate_name(design):
    steiner = int(design.kind_rows(KIND_STEINER)[0])
    design.names[steiner] = design.names[int(design.sink_rows()[0])]


def _back_side_sink(design):
    design.side_front[int(design.sink_rows()[0])] = False


def _back_side_buffer(design):
    sink = int(design.sink_rows()[0])
    x, y = float(design.x[sink]), float(design.y[sink])
    design.side_front[design.add_buffer(sink, x, y, 1.0)] = False


def _upstream_wire(design):
    design.wire_front[int(design.sink_rows()[0])] = False


def _downstream_wire(design):
    # Moving a Steiner row and its upstream wire to the back side keeps its
    # own side and wire consistent; its front-side parent then drives a
    # back-side wire without an nTSV.
    steiner = int(design.kind_rows(KIND_STEINER)[0])
    design.side_front[steiner] = False
    design.wire_front[steiner] = False


def _broken_parent_link(design):
    # A sink below an internal row now claims the root, which does not list
    # it as a child.
    sink = next(
        int(row) for row in design.sink_rows() if int(design.parent_row[row]) > 0
    )
    design.parent_row[sink] = 0


#: (corruption, expected message) of every DesignArrays.validate branch.
INVARIANT_CASES = [
    (_kill_root, "no root row"),
    (_cycle, "cycle detected"),
    (_orphan, "1 rows unreachable"),
    (_duplicate_name, "duplicate node name"),
    (_back_side_sink, "sink .* is on the back side"),
    (_back_side_buffer, "buffer .* is on the back side"),
    (_upstream_wire, "side/wire mismatch"),
    (_downstream_wire, "downstream wire on the wrong side"),
    (_broken_parent_link, "broken parent link"),
]
INVARIANT_IDS = [corrupt.__name__.lstrip("_") for corrupt, _ in INVARIANT_CASES]


@pytest.mark.parametrize("corrupt, message", INVARIANT_CASES, ids=INVARIANT_IDS)
def test_design_validate_rejects(pdk, corrupt, message):
    """Every failure branch of DesignArrays.validate, on a routed design."""
    _net, design = routed_design(pdk)
    design.validate()
    corrupt(design)
    with pytest.raises(ConnectivityError, match=message):
        design.validate()


class TestStageAnomalies:
    @pytest.fixture()
    def routed(self, pdk):
        return routed_design(pdk)

    def test_clean_design_has_no_anomaly(self, routed):
        net, design = routed
        assert stage_anomaly(design, net) is None

    @pytest.mark.parametrize(
        "injector, expected",
        [
            (poke_nan_capacitance, "non-finite"),
            (poke_negative_capacitance, "negative"),
            (poke_nan_location, "non-finite"),
            (drop_sink, "sink preservation violated"),
            (drop_edit_log_entry, "edit log incoherent"),
            (duplicate_node_name, "invariant violation"),
            (flip_wire_side, "invariant violation"),
        ],
        ids=lambda arg: getattr(arg, "__name__", str(arg)),
    )
    def test_each_corruption_is_detected(self, routed, injector, expected):
        net, design = routed
        injector(design)
        anomaly = stage_anomaly(design, net)
        assert anomaly is not None and expected in anomaly

    @pytest.mark.parametrize("corrupt, message", INVARIANT_CASES, ids=INVARIANT_IDS)
    def test_each_invariant_violation_is_reported(self, routed, corrupt, message):
        net, design = routed
        corrupt(design)
        anomaly = stage_anomaly(design, net)
        assert anomaly is not None
        assert re.match(f"invariant violation: .*{message}", anomaly)


class TestEditLogProbe:
    """Branch coverage of the edit-log coherence probe on a routed design."""

    @pytest.fixture()
    def design(self, pdk):
        return routed_design(pdk)[1]

    def test_clean_log_passes(self, design):
        assert edit_log_anomaly(design) is None

    def test_unknown_edit_kind(self, design):
        design._edits.append((design.version + 1, "bogus", None))
        assert "unknown edit kind" in edit_log_anomaly(design)

    def test_versions_not_increasing(self, design):
        design.touch()
        design._edits.append((1, "touch", None))
        assert "versions not strictly increasing" in edit_log_anomaly(design)

    def test_splice_entry_without_row(self, design):
        design._edits.append((design.version + 1, "splice", None))
        assert "names no row" in edit_log_anomaly(design)

    def test_emptied_log_on_edited_design(self, design):
        design.touch()
        design._edits.clear()
        assert "empty log" in edit_log_anomaly(design)


class TestResultProbes:
    """The numeric result probes (timing, insertion, metrics)."""

    @staticmethod
    def timing(arrivals):
        return TimingResult(arrivals=arrivals)

    def test_timing_clean_and_none(self):
        assert timing_anomaly(None) is None
        assert timing_anomaly(self.timing({"a": 1.0, "b": 2.0})) is None

    def test_timing_non_finite(self):
        anomaly = timing_anomaly(self.timing({"a": float("nan"), "b": 2.0}))
        assert "non-finite" in anomaly and "'a'" in anomaly

    def test_timing_negative(self):
        anomaly = timing_anomaly(self.timing({"a": -1.0, "b": 2.0}))
        assert "negative" in anomaly

    def test_insertion_negative_resources(self):
        result = SimpleNamespace(
            timing=self.timing({"a": 1.0}),
            timing_per_corner={"ss": self.timing({"a": 1.0})},
            inserted_buffers=-1,
            inserted_ntsvs=0,
        )
        assert "negative resource counts" in insertion_anomaly(result)

    def test_insertion_corner_anomaly_is_labelled(self):
        result = SimpleNamespace(
            timing=self.timing({"a": 1.0}),
            timing_per_corner={"ss": self.timing({"a": float("inf")})},
            inserted_buffers=1,
            inserted_ntsvs=0,
        )
        assert "corner ss" in insertion_anomaly(result)

    @staticmethod
    def metrics(**overrides):
        base = dict(
            latency=10.0,
            skew=1.0,
            wirelength=100.0,
            front_wirelength=60.0,
            back_wirelength=40.0,
            corner_skews={"ss": 1.5},
            corner_latencies={"ss": 12.0},
        )
        base.update(overrides)
        return SimpleNamespace(**base)

    def test_metrics_clean(self):
        assert metrics_anomaly(self.metrics()) is None

    def test_metrics_nan_latency(self):
        assert "latency" in metrics_anomaly(self.metrics(latency=float("nan")))

    def test_metrics_bad_corner_value(self):
        anomaly = metrics_anomaly(self.metrics(corner_skews={"ss": float("-inf")}))
        assert "corner ss" in anomaly


# --------------------------------------------------------- policy resolution
class TestGuardedFlowPolicies:
    def test_default_policy_is_off(self, pdk, monkeypatch):
        # The CI matrix pre-sets REPRO_GUARD; the built-in default is what
        # an unconfigured environment gets.
        monkeypatch.delenv("REPRO_GUARD", raising=False)
        result = run_guarded(pdk, small_net())
        assert result.guard_policy == "off"
        assert result.guard_diagnostics == []
        assert not result.degraded

    def test_env_var_selects_policy(self, pdk, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "degrade")
        result = run_guarded(pdk, small_net())
        assert result.guard_policy == "degrade"

    def test_config_beats_env(self, pdk, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "strict")
        result = run_guarded(pdk, small_net(), guard="degrade")
        assert result.guard_policy == "degrade"

    def test_unknown_policy_rejected(self, pdk):
        with pytest.raises(ValueError, match="guard policy"):
            run_guarded(pdk, small_net(), guard="lenient")

    def test_degrade_clean_run_identical_to_off(self, pdk):
        net = small_net()
        off = run_guarded(pdk, net, guard="off")
        degraded = run_guarded(pdk, net, guard="degrade")
        assert degraded.guard_diagnostics == []
        assert_clock_trees_identical(off.tree, degraded.tree)

    def test_strict_clean_run_passes(self, pdk):
        result = run_guarded(pdk, small_net(), guard="strict")
        assert result.guard_diagnostics == []


# ------------------------------------------------------ fault-injection matrix
#: (stage, injector) pairs covering every guarded mutating stage with both
#: numeric and structural corruption classes.  The injectors write straight
#: into the persistent :class:`DesignArrays` columns.
FAULT_CASES = [
    ("routing", poke_nan_capacitance),
    ("routing", flip_wire_side),
    ("routing", drop_sink),
    ("insertion", poke_nan_location),
    ("insertion", duplicate_node_name),
    ("insertion", drop_edit_log_entry),
    ("insertion", poke_negative_capacitance),
    ("refinement", duplicate_node_name),
    ("refinement", flip_wire_side),
    ("refinement", poke_nan_capacitance),
    ("refinement", poke_negative_capacitance),
]


def fault_id(case) -> str:
    stage, injector = case
    return f"{stage}-{injector.__name__}"


@pytest.mark.parametrize("case", FAULT_CASES, ids=fault_id)
class TestFaultInjectionMatrix:
    def test_strict_raises_naming_the_stage(self, pdk, case):
        stage, injector = case
        net = small_net()
        with pytest.raises(GuardError) as err:
            run_guarded(pdk, net, faults=[StageFault(stage, injector)], guard="strict")
        assert err.value.stage == stage
        assert err.value.fingerprint == design_fingerprint(net)
        assert stage in str(err.value)

    def test_degrade_recovers_bit_identical_to_all_reference(self, pdk, case):
        stage, injector = case
        net = small_net()
        degraded = run_guarded(
            pdk, net, faults=[StageFault(stage, injector)], guard="degrade"
        )
        stages = [d.stage for d in degraded.guard_diagnostics]
        assert stage in stages
        diagnostic = degraded.guard_diagnostics[stages.index(stage)]
        assert diagnostic.action == "degraded"
        assert diagnostic.backend == "reference"
        assert diagnostic.anomaly
        assert degraded.degraded
        # The degraded stage restored its pre-stage snapshot and re-ran on
        # the reference backend; every stage is decision-identical across
        # backends, so the recovered tree is the all-reference tree.
        reference = run_guarded(pdk, net, guard="off", **ALL_REFERENCE)
        assert_clock_trees_identical(degraded.tree, reference.tree)


class TestDegradeSemantics:
    def test_routing_degrade_matches_reference_everything_downstream(self, pdk):
        # A routing fault degrades routing to the reference DME; insertion
        # and refinement then run their (healthy) vectorized backends, which
        # are decision-identical to the reference — so the full tree matches
        # the all-reference run exactly.
        net = small_net()
        degraded = run_guarded(
            pdk,
            net,
            faults=[StageFault("routing", poke_nan_capacitance)],
            guard="degrade",
        )
        reference = run_guarded(pdk, net, guard="off", **ALL_REFERENCE)
        assert_clock_trees_identical(degraded.tree, reference.tree)

    def test_off_with_fault_is_silently_corrupt(self, pdk):
        # The unguarded flow must exhibit the injected bug: a dropped sink
        # ships a tree that misses one flip-flop, with no diagnostics.
        net = small_net()
        result = run_guarded(
            pdk, net, faults=[StageFault("insertion", drop_sink)], guard="off"
        )
        assert result.guard_diagnostics == []
        assert result.design.sink_rows().size == len(net.sinks) - 1
        sink_count = sum(1 for node in result.tree.nodes() if node.is_sink)
        assert sink_count == len(net.sinks) - 1

    def test_off_without_faults_matches_plain_run(self, pdk):
        net = small_net()
        plain = run_guarded(pdk, net)
        off = run_guarded(pdk, net, guard="off", faults=())
        assert_clock_trees_identical(plain.tree, off.tree)
        assert plain.metrics.skew == off.metrics.skew

    def test_diagnostics_carry_the_design_fingerprint(self, pdk):
        net = small_net()
        degraded = run_guarded(
            pdk,
            net,
            faults=[StageFault("insertion", poke_nan_capacitance)],
            guard="degrade",
        )
        assert all(
            d.fingerprint == design_fingerprint(net) for d in degraded.guard_diagnostics
        )
