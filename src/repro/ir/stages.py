"""The stage pipeline of the CTS flow.

Every construction stage here has one shape: a
:class:`~repro.ir.design.DesignArrays` design (plus the
:class:`~repro.flow.config.CtsConfig` carried by the context) in, a design
out.  The design flows through routing -> insertion -> refinement ->
evaluation without realising an object tree between stages; object trees
appear only at sanctioned boundaries:

* a stage whose selected backend is the scalar *reference* spec (the
  executable spec walks object trees, so the stage realises the design
  once, runs the spec, and compiles the result back), and
* the guard's *degrade* path, which restores the pre-stage design from a
  :meth:`~repro.ir.design.DesignArrays.snapshot` and re-runs just the
  anomalous stage on the reference backends — no earlier stage is replayed.

Both bridges are exact: the reference and vectorized backends are
decision-identical, and ``to_clock_tree()`` / ``from_clock_tree()`` are
lossless, so every backend selection builds the same tree bit for bit
(``tests/test_ir_flow.py`` pins this across the backend matrix).

The stage objects also centralise *construction*: :func:`build_router`,
:func:`build_inserter`, and :func:`build_refiner` are the single place a
stage engine is instantiated from a config, shared by the flow
(:mod:`repro.flow.cts`), the DSE sweep (:mod:`repro.dse.explorer`) and the
benchmark flow cache, so no caller can drift from the flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.evaluation.metrics import evaluate_tree
from repro.guard.validation import insertion_anomaly, metrics_anomaly
from repro.insertion.concurrent import ConcurrentInserter, InsertionConfig
from repro.ir.design import DesignArrays
from repro.refinement.skew_refinement import SkewRefiner
from repro.routing.hierarchical import HierarchicalClockRouter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.evaluation.metrics import ClockTreeMetrics
    from repro.flow.config import CtsConfig, ResolvedBackends
    from repro.guard.policy import StageGuard
    from repro.insertion.concurrent import InsertionResult
    from repro.netlist.clock import ClockNet
    from repro.refinement.skew_refinement import SkewRefinementReport
    from repro.routing.hierarchical import DesignRoutingResult
    from repro.tech.pdk import Pdk


# ------------------------------------------------------------ construction
def build_router(pdk: "Pdk", config: "CtsConfig") -> HierarchicalClockRouter:
    """The single construction point for the routing stage engine."""
    return HierarchicalClockRouter(pdk, config=config)


def build_inserter(
    pdk: "Pdk", config: "CtsConfig", timing: str, dp: str
) -> ConcurrentInserter:
    """The single construction point for the insertion stage engine."""
    return ConcurrentInserter(
        pdk,
        InsertionConfig(
            weights=config.moes_weights,
            selection=config.selection,
            max_segment_length=config.max_segment_length,
            keep_resource_diversity=config.keep_resource_diversity,
            max_candidates_per_side=config.max_candidates_per_side,
            default_mode=config.default_mode,
            dp_backend=dp,
        ),
        engine=timing,
        corners=config.construction_corners(),
        workers=config.resolved_workers(),
        parallel_policy=config.resolved_parallel_policy(),
    )


def build_refiner(pdk: "Pdk", config: "CtsConfig", timing: str) -> SkewRefiner:
    """The single construction point for the refinement stage engine."""
    return SkewRefiner(
        pdk,
        skew_trigger_fraction=config.skew_trigger_fraction,
        max_endpoints=config.max_refined_endpoints,
        strategy=config.skew_strategy,
        engine=timing,
        corners=config.construction_corners(),
        nominal_skew_budget=config.nominal_skew_budget,
    )


def reference_config(config: "CtsConfig") -> "CtsConfig":
    """``config`` with every construction backend forced to the reference.

    The guard selection is preserved; only the three backend axes the
    degrade path re-runs are overridden.
    """
    from dataclasses import replace

    from repro.flow.config import BackendSelection

    selection = config.backends if config.backends is not None else BackendSelection()
    return config.with_updates(
        backends=replace(
            selection, timing="reference", dp="reference", dme="reference"
        )
    )


# ------------------------------------------------------------------ stages
@dataclass
class StageContext:
    """Everything a stage needs besides the design, plus the stage payloads.

    The design itself is threaded stage to stage as the pipeline value; the
    context accumulates the per-stage results the flow reports
    (:class:`DesignRoutingResult`, :class:`InsertionResult`, the skew
    report, the metrics).
    """

    pdk: "Pdk"
    config: "CtsConfig"
    backends: "ResolvedBackends"
    guard: "StageGuard"
    clock_net: "ClockNet"
    design_name: str = ""
    flow_name: str = ""
    runtime: float = 0.0
    routing: "DesignRoutingResult | None" = None
    insertion: "InsertionResult | None" = None
    skew_report: "SkewRefinementReport | None" = None
    metrics: "ClockTreeMetrics | None" = None


class Stage:
    """One guarded flow stage: design in, design out.

    :meth:`run` wraps the stage body with the guard protocol: snapshot the
    pre-stage design (``degrade`` policy only — healthy runs never copy),
    execute, apply injected faults, check, and on an anomaly restore the
    snapshot and re-run this one stage on the reference backends.  The
    degraded stage is never re-faulted.
    """

    name = "stage"
    #: False for result-only stages (evaluation): no faults, metrics-only check.
    mutates = True

    def run(self, design: DesignArrays | None, ctx: StageContext) -> DesignArrays:
        snapshot = None
        if self.mutates and design is not None and ctx.guard.degrading:
            snapshot = design.snapshot()
        out = self._execute(design, ctx)
        probe = out if self.mutates else None
        if self.mutates:
            ctx.guard.inject(self.name, out)
        if ctx.guard.check(self.name, probe, extra=self._extra(ctx)):
            out = self._degrade(design, snapshot, ctx)
            ctx.guard.confirm(
                self.name, out if self.mutates else None, extra=self._extra(ctx)
            )
        if ctx.routing is not None and out is not ctx.routing.design:
            # A bridged or degraded stage replaced the design object; keep
            # the routing result pointing at the live design.
            ctx.routing.design = out
        return out

    def _execute(
        self, design: DesignArrays | None, ctx: StageContext
    ) -> DesignArrays:
        raise NotImplementedError

    def _degrade(
        self,
        design: DesignArrays | None,
        snapshot: dict | None,
        ctx: StageContext,
    ) -> DesignArrays:
        raise NotImplementedError

    def _extra(self, ctx: StageContext) -> Callable[[], str | None] | None:
        return None


class RoutingStage(Stage):
    """Hierarchical clock routing straight into design rows."""

    name = "routing"

    def _execute(self, design, ctx):
        ctx.routing = build_router(ctx.pdk, ctx.config).route_design(ctx.clock_net)
        return ctx.routing.design

    def _degrade(self, design, snapshot, ctx):
        ctx.routing = build_router(
            ctx.pdk, reference_config(ctx.config)
        ).route_design(ctx.clock_net)
        return ctx.routing.design


class InsertionStage(Stage):
    """Concurrent buffer and nTSV insertion on the design rows.

    The vectorized DP and timing engines run IR-native; a reference
    selection on either axis bridges the whole stage through the object
    spec (realise, run, compile back) — the sanctioned boundary.
    """

    name = "insertion"

    def _execute(self, design, ctx):
        timing, dp = ctx.backends.timing, ctx.backends.dp
        if "reference" in (timing, dp):
            return self._bridge(design, ctx, timing, dp)
        ctx.insertion = build_inserter(ctx.pdk, ctx.config, timing, dp).run(
            design, fanout_threshold=ctx.config.fanout_threshold
        )
        return design

    def _degrade(self, design, snapshot, ctx):
        design.restore(snapshot)
        return self._bridge(design, ctx, "reference", "reference")

    def _bridge(self, design, ctx, timing, dp):
        tree = design.to_clock_tree()
        ctx.insertion = build_inserter(ctx.pdk, ctx.config, timing, dp).run(
            tree, fanout_threshold=ctx.config.fanout_threshold
        )
        return DesignArrays.from_clock_tree(tree)

    def _extra(self, ctx):
        return lambda: insertion_anomaly(ctx.insertion)


class RefinementStage(Stage):
    """End-point skew refinement on the design rows."""

    name = "refinement"

    def _execute(self, design, ctx):
        timing = ctx.backends.timing
        if timing == "reference":
            return self._bridge(design, ctx, timing)
        ctx.skew_report = build_refiner(ctx.pdk, ctx.config, timing).refine(design)
        return design

    def _degrade(self, design, snapshot, ctx):
        design.restore(snapshot)
        return self._bridge(design, ctx, "reference")

    def _bridge(self, design, ctx, timing):
        tree = design.to_clock_tree()
        ctx.skew_report = build_refiner(ctx.pdk, ctx.config, timing).refine(tree)
        return DesignArrays.from_clock_tree(tree)


class EvaluationStage(Stage):
    """Final metrics over the design rows (does not mutate the design)."""

    name = "evaluation"
    mutates = False

    def _execute(self, design, ctx):
        ctx.metrics = self._evaluate(design, ctx, ctx.backends.timing)
        return design

    def _degrade(self, design, snapshot, ctx):
        ctx.metrics = self._evaluate(design, ctx, "reference")
        return design

    def _evaluate(self, design, ctx, timing):
        return evaluate_tree(
            design,
            ctx.pdk,
            design=ctx.design_name,
            flow=ctx.flow_name,
            runtime=ctx.runtime,
            engine=timing,
            corners=ctx.config.corners,
        )

    def _extra(self, ctx):
        return lambda: metrics_anomaly(ctx.metrics)


__all__ = [
    "Stage",
    "StageContext",
    "RoutingStage",
    "InsertionStage",
    "RefinementStage",
    "EvaluationStage",
    "build_router",
    "build_inserter",
    "build_refiner",
    "reference_config",
]
