"""The systematic multi-objective double-side CTS flow ("Ours" in Table III).

The flow follows Fig. 4 of the paper:

    placed design  ->  hierarchical clock routing
                   ->  concurrent buffer & nTSV insertion (multi-objective DP)
                   ->  skew refinement
                   ->  legal double-side clock tree + metrics

The stages are the :mod:`repro.ir.stages` pipeline: one persistent
:class:`~repro.ir.design.DesignArrays` design threads through all of them,
and every backend (both timing engines included) reads its rows.  The
object :class:`~repro.clocktree.ClockTree` is only the run result's export
view (:attr:`CtsRunResult.tree`).

Every stage is *guarded* (see :mod:`repro.guard`): under the default
``off`` policy the flow runs unchecked, while ``degrade`` / ``strict``
validate the inputs at entry, probe the stage invariants after every step,
and either re-run an anomalous stage on the reference backend (recording a
:class:`~repro.guard.GuardDiagnostic` on the result) or fail fast with a
typed :class:`~repro.guard.GuardError`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.clocktree import ClockTree
from repro.evaluation.metrics import ClockTreeMetrics, evaluate_tree
from repro.flow.config import CtsConfig
from repro.guard.faults import StageFault
from repro.guard.policy import StageGuard, GuardDiagnostic
from repro.insertion.concurrent import InsertionResult
from repro.ir import stages
from repro.ir.design import DesignArrays
from repro.netlist.clock import ClockNet
from repro.netlist.design import Design
from repro.refinement.skew_refinement import SkewRefinementReport
from repro.routing.hierarchical import DesignRoutingResult
from repro.tech.pdk import Pdk


@dataclass
class CtsRunResult:
    """Everything a flow run produces.

    The persistent :class:`DesignArrays` design the stages built is
    :attr:`design`; the object :attr:`tree` is realised from it lazily on
    first access, outside the timed flow region.
    """

    design_name: str
    flow_name: str
    routing: DesignRoutingResult
    insertion: InsertionResult
    skew_report: SkewRefinementReport | None
    metrics: ClockTreeMetrics
    runtime: float
    guard_policy: str = "off"
    guard_diagnostics: list[GuardDiagnostic] = field(default_factory=list)
    parallel_tasks: int = 0
    parallel_diagnostics: list = field(default_factory=list)
    design: DesignArrays | None = None
    _tree: ClockTree | None = field(default=None, repr=False)

    @property
    def tree(self) -> ClockTree:
        """The synthesised clock tree (realised from :attr:`design` once)."""
        if self._tree is None:
            if self.design is None:
                raise ValueError("flow result carries no design")
            self._tree = self.design.to_clock_tree()
        return self._tree

    @property
    def latency(self) -> float:
        return self.metrics.latency

    @property
    def skew(self) -> float:
        return self.metrics.skew

    @property
    def degraded(self) -> bool:
        """True when any stage was re-run on a reference backend."""
        return bool(self.guard_diagnostics)

    @property
    def parallel_retried(self) -> int:
        """Worker-pool tasks that succeeded only after a retry."""
        return sum(
            1 for d in self.parallel_diagnostics if d.action == "retried"
        )

    @property
    def parallel_degraded(self) -> int:
        """Worker-pool tasks recomputed inline after exhausting retries."""
        return sum(
            1
            for d in self.parallel_diagnostics
            if d.action == "degraded-to-serial"
        )

    def parallel_summary(self) -> str:
        """One-line pool fault-tolerance summary (``dscts run`` report)."""
        return (
            f"parallel: {self.parallel_tasks} tasks, "
            f"{self.parallel_retried} retried, "
            f"{self.parallel_degraded} degraded-to-serial"
        )

    def summary(self) -> dict[str, float | int | str]:
        return self.metrics.as_row()


class DoubleSideCTS:
    """The paper's systematic double-side CTS flow."""

    flow_name = "ours"

    def __init__(
        self,
        pdk: Pdk,
        config: CtsConfig | None = None,
        guard_faults: Iterable[StageFault] = (),
    ) -> None:
        if not pdk.has_backside:
            raise ValueError(
                "DoubleSideCTS needs a back-side enabled PDK; "
                "use SingleSideCTS for front-side-only technologies"
            )
        self.pdk = pdk
        self.config = config if config is not None else CtsConfig()
        # Test-harness fault injectors (repro.guard.faults), applied to the
        # named stage's output before the guard checks it.
        self.guard_faults = tuple(guard_faults)

    # ----------------------------------------------------------------- public
    def run(
        self, design: Design | ClockNet, design_name: str | None = None
    ) -> CtsRunResult:
        """Synthesise the clock tree of ``design`` and return the run result.

        One persistent :class:`DesignArrays` design threads through the
        :mod:`repro.ir.stages` pipeline: routing, insertion, the optional
        skew refinement, then evaluation.
        """
        clock_net, name = self._resolve_input(design, design_name)
        backends = self.config.resolved_backends()
        guard = StageGuard(backends.guard, clock_net, faults=self.guard_faults)
        guard.validate_inputs(self.pdk, corners=self.config.corners)
        ctx = stages.StageContext(
            pdk=self.pdk,
            config=self.config,
            backends=backends,
            guard=guard,
            clock_net=clock_net,
            design_name=name,
            flow_name=self.flow_name,
        )
        start = time.perf_counter()
        design = stages.RoutingStage().run(None, ctx)
        design = stages.InsertionStage().run(design, ctx)
        if self.config.enable_skew_refinement:
            design = stages.RefinementStage().run(design, ctx)
        ctx.runtime = time.perf_counter() - start
        design.validate()
        design = stages.EvaluationStage().run(design, ctx)
        return CtsRunResult(
            design_name=name,
            flow_name=self.flow_name,
            routing=ctx.routing,
            insertion=ctx.insertion,
            skew_report=ctx.skew_report,
            metrics=ctx.metrics,
            runtime=ctx.runtime,
            guard_policy=guard.policy,
            guard_diagnostics=guard.diagnostics,
            parallel_tasks=ctx.insertion.parallel_tasks,
            parallel_diagnostics=ctx.insertion.parallel_diagnostics,
            design=design,
        )

    def evaluate_design(
        self,
        design: DesignArrays,
        design_name: str = "",
        runtime: float = 0.0,
        timing_engine=None,
    ) -> ClockTreeMetrics:
        """Evaluate a pre-built :class:`DesignArrays` without re-running the flow.

        The session-reusable entry point of the serve tier: a long-lived
        session keeps the design its flow run produced and calls this after
        every what-if edit.  Passing the session's compiled
        :class:`~repro.timing.vectorized.VectorizedElmoreEngine` as
        ``timing_engine`` routes the evaluation through the engine's
        incremental dirty-cone update instead of a fresh compile; with no
        engine the evaluation is a cold one-shot identical to the flow's own
        :class:`~repro.ir.stages.EvaluationStage` arithmetic.
        """
        timing = self.config.resolved_backends().timing
        return evaluate_tree(
            design,
            self.pdk,
            design=design_name,
            flow=self.flow_name,
            runtime=runtime,
            engine=timing,
            corners=self.config.corners,
            timing_engine=timing_engine,
        )

    # ------------------------------------------------------------------ input
    @staticmethod
    def _resolve_input(
        design: Design | ClockNet, design_name: str | None
    ) -> tuple[ClockNet, str]:
        if isinstance(design, Design):
            return design.require_clock_net(), design_name or design.name
        if isinstance(design, ClockNet):
            return design, design_name or design.name
        raise TypeError(
            f"expected a Design or ClockNet, got {type(design).__name__}"
        )
