"""The DSE flow: sweeping insertion modes to trace the Pareto frontier.

The clock routing does not depend on the insertion modes, so the explorer
routes the design once and then runs the flow's own insertion and skew
refinement stages (:mod:`repro.ir.stages`) on a fresh copy of the routed
design for every configuration.  Every point is therefore the
:class:`~repro.flow.DoubleSideCTS` run at that fanout threshold: same
backends, same worker count, same guard policy.

The sweep points are independent of each other, so the grid can be evaluated
in parallel: pass ``workers > 1`` to :meth:`DesignSpaceExplorer.explore` to
fan the configurations out over a :class:`concurrent.futures`
process pool (each worker restores its own copy of the routed design).
Results are returned in threshold order regardless of completion order, so
serial and parallel sweeps are identical.

When the configuration carries a :class:`~repro.tech.corners.CornerSet`
(``CtsConfig.corners``), every sweep point is additionally signed off across
the corner batch and the Pareto objectives switch from nominal to
worst-corner latency/skew — the DSE then optimises what a production flow
actually tapes out against.  With ``CtsConfig.corner_aware_construction``
the sweep points are additionally *built* corner-aware: every configuration's
insertion DP and skew refinement optimise worst-corner objectives, so the
frontier traced is over trees constructed for sign-off, not merely scored
against it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.baselines.fanout import FanoutBacksideOptimizer
from repro.baselines.timing_critical import TimingCriticalBacksideOptimizer
from repro.baselines.veloso import VelosoBacksideOptimizer
from repro.dse.pareto import pareto_front
from repro.evaluation.metrics import ClockTreeMetrics, evaluate_tree
from repro.flow.config import CtsConfig
from repro.flow.cts import DoubleSideCTS
from repro.guard.policy import GuardError, StageGuard
from repro.ir import stages
from repro.ir.design import DesignArrays
from repro.netlist.clock import ClockNet
from repro.netlist.design import Design
from repro.tech.pdk import Pdk


@dataclass
class DsePoint:
    """One explored configuration and the clock tree quality it reached."""

    configuration: str
    parameter: float
    metrics: ClockTreeMetrics
    #: True when the first attempt crashed and the point was recovered by a
    #: retry on the all-reference backends.
    retried: bool = False

    @property
    def objectives(self) -> tuple[float, float, float]:
        """(latency, skew, buffers + nTSVs) — the axes of Fig. 12.

        When the sweep ran with a multi-corner configuration the latency and
        skew axes are the *worst-corner* values, so the Pareto front (and
        ``best_*`` selections over these objectives) sign off across the
        whole corner set instead of the nominal point only.
        """
        return (
            self.metrics.worst_latency,
            self.metrics.worst_skew,
            float(self.metrics.resource_count),
        )

    def as_row(self) -> dict[str, float | int | str]:
        row = self.metrics.as_row()
        row["configuration"] = self.configuration
        row["parameter"] = self.parameter
        row["resources"] = self.metrics.resource_count
        return row


@dataclass(frozen=True)
class DseFailure:
    """One sweep point that crashed even after the reference-backend retry."""

    configuration: str
    parameter: float
    error: str


@dataclass
class DseResult:
    """All explored points of one sweep.

    A crashing sweep point never takes the rest of the sweep down with it:
    every point is attempted independently, retried once on the all-reference
    backends, and recorded in :attr:`failures` if both attempts raise.  Serial
    and parallel sweeps produce identical points *and* identical failures.

    Worker-level failures (a crashed process, an unpicklable result, a hung
    task) are handled one level below by the fault-tolerant pool tier
    (:func:`repro.parallel.run_tasks`): the point is retried on the pool and,
    as a last resort, recomputed inline on the main process — each recovery
    recorded in :attr:`parallel_diagnostics`.
    """

    design_name: str
    points: list[DsePoint] = field(default_factory=list)
    failures: list[DseFailure] = field(default_factory=list)
    parallel_diagnostics: list = field(default_factory=list)

    def pareto(self) -> list[DsePoint]:
        """The non-dominated points over (latency, skew, resources)."""
        return pareto_front(self.points, lambda p: p.objectives)

    def best_latency(self) -> DsePoint:
        """Point with the lowest latency objective (worst-corner when swept
        with corners, nominal otherwise — same axis as :meth:`pareto`)."""
        return min(self.points, key=lambda p: p.metrics.worst_latency)

    def best_skew(self) -> DsePoint:
        """Point with the lowest skew objective (worst-corner when swept
        with corners, nominal otherwise — same axis as :meth:`pareto`)."""
        return min(self.points, key=lambda p: p.metrics.worst_skew)

    def rows(self) -> list[dict[str, float | int | str]]:
        return [p.as_row() for p in self.points]


class DesignSpaceExplorer:
    """Sweeps the DSE knobs of our flow and of the baselines."""

    def __init__(self, pdk: Pdk, config: CtsConfig | None = None) -> None:
        self.pdk = pdk
        self.config = config if config is not None else CtsConfig()

    # --------------------------------------------------------------- our flow
    def explore(
        self,
        design: Design | ClockNet,
        fanout_thresholds: Iterable[int],
        design_name: str | None = None,
        workers: int = 1,
        point_hook: Callable[[CtsConfig, int], None] | None = None,
    ) -> DseResult:
        """Sweep the fanout threshold of the heterogeneous DP tree.

        Small thresholds force most DP nodes into intra-side mode (few
        nTSVs); large thresholds approach the all-full-mode Table III
        configuration.  Every point equals
        ``DoubleSideCTS(pdk, config.with_updates(fanout_threshold=t)).run``
        (runtime and flow name aside).  ``workers > 1`` evaluates the grid on
        a process pool; the result order and content are identical to a
        serial sweep.  ``config.workers`` stays the construction-stage knob,
        exactly as in the flow.

        ``workers`` must be an integer of at least 1
        (:func:`repro.parallel.resolve_workers` raises ``ValueError``
        otherwise, before any routing).

        ``point_hook`` is a picklable callable invoked with
        ``(config, threshold)`` before each point is evaluated; the fault
        harness (:class:`~repro.guard.faults.SweepCrash`) uses it to crash
        chosen points and prove the sweep's failure isolation.
        """
        from repro.parallel import resolve_workers, run_tasks

        workers = resolve_workers(workers)
        clock_net, name = DoubleSideCTS._resolve_input(design, design_name)
        guard = StageGuard(self.config.resolved_backends().guard, clock_net)
        guard.validate_inputs(self.pdk, corners=self.config.corners)
        routed = stages.build_router(self.pdk, self.config).route_design(clock_net)
        snapshot = routed.design.snapshot()
        thresholds = [int(t) for t in fanout_thresholds]
        result = DseResult(design_name=name)
        # One task per threshold on the fault-tolerant pool tier: a crashed
        # or hung worker is retried and, at worst, recomputed inline, so one
        # broken process never discards the completed points.
        payloads = [
            (self.pdk, self.config, clock_net, snapshot, t, name, point_hook)
            for t in thresholds
        ]
        outcomes = run_tasks(
            "dse",
            _explore_point_task,
            payloads,
            min(workers, len(thresholds)),
            policy=self.config.resolved_parallel_policy(),
            diagnostics=result.parallel_diagnostics,
            label=lambda i, payload: f"threshold {payload[4]}",
        )
        for outcome in outcomes:
            if isinstance(outcome, DseFailure):
                result.failures.append(outcome)
            else:
                result.points.append(outcome)
        return result

    # -------------------------------------------------------------- baselines
    def sweep_fanout_baseline(
        self,
        buffered: DesignArrays,
        thresholds: Iterable[int],
        design_name: str = "",
    ) -> DseResult:
        """Sweep [7]'s fanout threshold on a fixed buffered design."""
        result = DseResult(design_name=design_name)
        for threshold in thresholds:
            optimizer = FanoutBacksideOptimizer(self.pdk, fanout_threshold=int(threshold))
            run = optimizer.run(buffered, design_name=design_name)
            result.points.append(
                DsePoint(
                    configuration="bethur_fanout_2023",
                    parameter=float(threshold),
                    metrics=run.metrics,
                )
            )
        return result

    def sweep_critical_baseline(
        self,
        buffered: DesignArrays,
        fractions: Iterable[float],
        design_name: str = "",
    ) -> DseResult:
        """Sweep [6]'s critical-path fraction on a fixed buffered design."""
        result = DseResult(design_name=design_name)
        for fraction in fractions:
            optimizer = TimingCriticalBacksideOptimizer(
                self.pdk, critical_fraction=float(fraction)
            )
            run = optimizer.run(buffered, design_name=design_name)
            result.points.append(
                DsePoint(
                    configuration="bethur_gnn_2024",
                    parameter=float(fraction),
                    metrics=run.metrics,
                )
            )
        return result

    def veloso_point(self, buffered: DesignArrays, design_name: str = "") -> DsePoint:
        """The single configuration of [2] on a fixed buffered design."""
        run = VelosoBacksideOptimizer(self.pdk).run(buffered, design_name=design_name)
        return DsePoint(configuration="veloso_2023", parameter=0.0, metrics=run.metrics)


# Module-level so a ProcessPoolExecutor can pickle the sweep work items.
def _attempt_point(
    pdk: Pdk,
    config: CtsConfig,
    clock_net: ClockNet,
    snapshot: dict,
    threshold: int,
    name: str,
    point_hook: Callable[[CtsConfig, int], None] | None,
) -> DsePoint:
    """Insert, refine and score one threshold on a restored routed design.

    The point runs the flow's own guarded stages, so it builds exactly the
    tree ``DoubleSideCTS`` builds at this threshold.
    """
    if point_hook is not None:
        point_hook(config, threshold)
    start = time.perf_counter()
    design = DesignArrays(name=clock_net.name, capacity=snapshot["size"])
    design.restore(snapshot)
    config = config.with_updates(fanout_threshold=threshold)
    backends = config.resolved_backends()
    ctx = stages.StageContext(
        pdk=pdk,
        config=config,
        backends=backends,
        guard=StageGuard(backends.guard, clock_net),
        clock_net=clock_net,
    )
    design = stages.InsertionStage().run(design, ctx)
    if config.enable_skew_refinement:
        design = stages.RefinementStage().run(design, ctx)
    runtime = time.perf_counter() - start
    metrics = evaluate_tree(
        design,
        pdk,
        design=name,
        flow=f"ours_dse_fo{threshold}",
        runtime=runtime,
        engine=backends.timing,
        corners=config.corners,
    )
    return DsePoint(
        configuration="ours_dse", parameter=float(threshold), metrics=metrics
    )


def _explore_point(
    pdk: Pdk,
    config: CtsConfig,
    clock_net: ClockNet,
    snapshot: dict,
    threshold: int,
    name: str,
    point_hook: Callable[[CtsConfig, int], None] | None = None,
) -> DsePoint | DseFailure:
    """Attempt one sweep point; retry once on the reference backends.

    A crash on the vectorized backends gets one retry through the executable
    spec (the same degradation the guarded flow applies); a point that fails
    both ways is reported as a :class:`DseFailure` instead of raising, so the
    rest of the sweep survives.  A :class:`~repro.guard.GuardError` is never
    folded into a failure: it is the guard doing its job and must surface.
    """
    args = (clock_net, snapshot, threshold, name, point_hook)
    try:
        return _attempt_point(pdk, config, *args)
    except GuardError:
        raise
    except Exception as first:  # noqa: BLE001 - isolate sweep points
        try:
            point = _attempt_point(pdk, stages.reference_config(config), *args)
        except GuardError:
            raise
        except Exception as second:  # noqa: BLE001 - both attempts failed
            return DseFailure(
                configuration="ours_dse",
                parameter=float(threshold),
                error=(
                    f"{type(first).__name__}: {first}; reference retry failed: "
                    f"{type(second).__name__}: {second}"
                ),
            )
        point.retried = True
        return point


def _explore_point_task(payload: tuple) -> DsePoint | DseFailure:
    """Single-argument adapter of :func:`_explore_point` for the pool tier."""
    return _explore_point(*payload)
