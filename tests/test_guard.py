"""The guarded flow: validation, anomaly detection, fault injection.

Three layers under test:

* input validation at flow entry (bad designs, PDKs, and corner sets are
  rejected with every problem listed),
* the stage-anomaly probes (each corruption class is detected on a live
  tree),
* the full fault-injection matrix: with a fault armed at a chosen stage the
  ``strict`` policy raises a :class:`GuardError` naming that stage, the
  ``degrade`` policy restores the pre-stage design snapshot, re-runs the
  stage on the reference backends, and completes with a recorded diagnostic
  and a final tree bit-identical to an all-reference-backend run, and
  ``off`` reproduces the unguarded behaviour, corruption included.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.clocktree.node import ClockTreeNode, NodeKind
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
from repro.netlist import ClockNet, ClockSource
from repro.geometry import Point
from repro.routing.hierarchical import HierarchicalClockRouter
from repro.tech import CornerSet
from repro.tech.corners import Scenario
from repro.tech.layers import MetalStack, Side
from repro.tech.nldm import NldmTable
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


# ------------------------------------------------------------ stage anomalies
class TestStageAnomalies:
    @pytest.fixture()
    def routed(self, pdk):
        net = small_net()
        tree = HierarchicalClockRouter(pdk, config=ROUTING_CONFIG).route(net).tree
        return net, tree

    def test_clean_tree_has_no_anomaly(self, routed):
        net, tree = routed
        assert stage_anomaly(tree, net) is None

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
        net, tree = routed
        injector(tree)
        anomaly = stage_anomaly(tree, net)
        assert anomaly is not None and expected in anomaly

    # The fused probe owns the structural checks that ClockTree.validate()
    # also performs; corrupt each invariant directly to pin every branch.
    def test_broken_parent_link(self, routed):
        net, tree = routed
        child = tree.root.children[0]
        child.parent = child  # root no longer the recorded parent
        anomaly = stage_anomaly(tree, net)
        assert anomaly is not None and "broken parent link" in anomaly

    def test_cycle_detected(self, routed):
        net, tree = routed
        leaf = tree.sinks()[0]
        leaf.children.append(tree.root)
        tree.root.parent = leaf
        anomaly = stage_anomaly(tree, net)
        assert anomaly is not None and "cycle detected" in anomaly

    def test_sink_on_back_side(self, routed):
        net, tree = routed
        tree.sinks()[0].side = Side.BACK
        anomaly = stage_anomaly(tree, net)
        assert anomaly is not None and "back side" in anomaly

    def test_child_wire_disagrees_with_node_side(self, routed):
        net, tree = routed
        # Flip a leaf's wire under a same-side parent: the shared-vertex
        # check must flag it (the nTSV checks have their own messages).
        leaf = next(s for s in tree.sinks() if not s.parent.is_ntsv)
        leaf.wire_side = leaf.wire_side.opposite
        anomaly = stage_anomaly(tree, net)
        assert anomaly is not None and "touches a wire on side" in anomaly

    def test_ghost_find_index_entry(self, routed):
        net, tree = routed
        name = tree.sinks()[0].name
        tree.find(name)  # build the cache
        ghost = ClockTreeNode(name, NodeKind.SINK, Point(1.0, 1.0), capacitance=1.0)
        ghost.parent = tree.root  # reaches the root, but is nobody's child
        tree._find_cache[name] = ghost
        anomaly = stage_anomaly(tree, net)
        assert anomaly is not None and "find() index incoherent" in anomaly


class TestEditLogProbe:
    """Branch coverage of the edit-log coherence probe on a live tree."""

    @pytest.fixture()
    def tree(self, pdk):
        net = small_net()
        return HierarchicalClockRouter(pdk, config=ROUTING_CONFIG).route(net).tree

    def test_clean_log_passes(self, tree):
        assert edit_log_anomaly(tree) is None

    def test_unknown_edit_kind(self, tree):
        tree._edits.append((tree.version + 1, "bogus", None))
        assert "unknown edit kind" in edit_log_anomaly(tree)

    def test_versions_not_increasing(self, tree):
        tree.touch()
        tree._edits.append((1, "touch", None))
        assert "versions not strictly increasing" in edit_log_anomaly(tree)

    def test_splice_entry_without_node(self, tree):
        tree._edits.append((tree.version + 1, "splice", None))
        assert "names no node" in edit_log_anomaly(tree)

    def test_emptied_log_on_edited_tree(self, tree):
        tree.touch()
        tree._edits.clear()
        assert "empty log" in edit_log_anomaly(tree)


class TestResultProbes:
    """The numeric result probes (timing, insertion, metrics)."""

    @staticmethod
    def timing(arrivals):
        return SimpleNamespace(arrivals=arrivals)

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
