"""Lazy, cached execution of every flow the benchmarks compare.

Several benchmarks (Table III top/bottom, Fig. 10, Fig. 11) need the same
flow runs on the same designs; this cache runs each (design, flow) pair once
per pytest session and hands out the resulting metrics and trees.

The *base* flows (ours, single-side, OpenROAD-like) are independent of each
other, so — like the DSE sweep grid — they can be pre-computed on a
:class:`concurrent.futures.ProcessPoolExecutor`: call
:meth:`FlowCache.warm` (or set ``REPRO_BENCH_WORKERS`` for the pytest
session fixture) to fan them out.  Both the lazy path and the warm path run
the same module-level flow functions on the same deterministic inputs, so a
warmed cache holds exactly the results a serial session would have computed
— with one caveat: each worker measures its own wall-clock ``runtime``, so
under CPU contention the runtime *columns* come out larger than a serial
run.  Keep the default (serial, lazy) when reproducing the paper's runtime
numbers; use workers for the figure benches, where runtime is not reported.
The post-CTS flows ([2]/[6]/[7] flavours) copy a base run's design and stay
lazy.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

from repro.baselines import (
    FanoutBacksideOptimizer,
    OpenRoadLikeCTS,
    TimingCriticalBacksideOptimizer,
    VelosoBacksideOptimizer,
)
from repro.clocktree import ClockTree
from repro.evaluation import ClockTreeMetrics, evaluate_tree
from repro.flow import CtsConfig, SingleSideCTS
from repro.guard.policy import StageGuard
from repro.ir import stages
from repro.netlist.design import Design
from repro.tech.pdk import Pdk

#: Base flow keys :meth:`FlowCache.warm` can pre-compute in parallel.
BASE_FLOWS = ("ours_moes", "single", "openroad")


@dataclass
class OursRun:
    """The paper's flow with intermediate snapshots for the figure benches."""

    tree: ClockTree
    metrics: ClockTreeMetrics
    metrics_without_refinement: ClockTreeMetrics
    root_candidates: list
    selected: object
    runtime: float


def _run_ours(pdk: Pdk, design: Design, config: CtsConfig, selection: str) -> OursRun:
    """Hierarchical routing + concurrent insertion + skew refinement.

    Runs the flow's own guarded stages on one :class:`StageContext`, as the
    DSE sweep does, so the final metrics equal
    ``DoubleSideCTS(pdk, config).run(design)``.  The unrefined design is
    scored between insertion and refinement, and the object tree the figure
    benches read is realised once at the end.
    """
    config = config.with_updates(selection=selection)
    backends = config.resolved_backends()
    clock_net = design.require_clock_net()
    ctx = stages.StageContext(
        pdk=pdk,
        config=config,
        backends=backends,
        guard=StageGuard(backends.guard, clock_net),
        clock_net=clock_net,
    )
    start = time.perf_counter()
    arrays = stages.RoutingStage().run(None, ctx)
    arrays = stages.InsertionStage().run(arrays, ctx)
    without_sr = evaluate_tree(
        arrays,
        pdk,
        design=design.name,
        flow="ours_no_sr",
        engine=backends.timing,
        corners=config.corners,
    )
    if config.enable_skew_refinement:
        arrays = stages.RefinementStage().run(arrays, ctx)
    runtime = time.perf_counter() - start
    metrics = evaluate_tree(
        arrays,
        pdk,
        design=design.name,
        flow="ours",
        runtime=runtime,
        engine=backends.timing,
        corners=config.corners,
    )
    return OursRun(
        tree=arrays.to_clock_tree(),
        metrics=metrics,
        metrics_without_refinement=without_sr,
        root_candidates=ctx.insertion.root_candidates,
        selected=ctx.insertion.selected,
        runtime=runtime,
    )


def _compute_flow(pdk: Pdk, design: Design, config: CtsConfig, flow_key: str):
    """Run one base flow; module-level so a process pool can pickle the job.

    The lazy cache path calls this very function, which is what keeps warmed
    and lazily computed results identical.
    """
    if flow_key.startswith("ours_"):
        return _run_ours(pdk, design, config, selection=flow_key[len("ours_"):])
    if flow_key == "single":
        return SingleSideCTS(pdk, config).run(design)
    if flow_key == "openroad":
        return OpenRoadLikeCTS(pdk).run(design)
    raise KeyError(f"unknown base flow {flow_key!r}; expected one of {BASE_FLOWS}")


def _compute_flow_task(payload: tuple):
    """Single-argument adapter of :func:`_compute_flow` for the pool tier."""
    return _compute_flow(*payload)


@dataclass
class FlowCache:
    """Runs flows lazily and memoises the results per benchmark design."""

    pdk: Pdk
    designs: dict[str, Design]
    config: CtsConfig = field(default_factory=CtsConfig)
    #: Pool fault-tolerance records from :meth:`warm` (retries and
    #: degrade-to-serial recoveries), appended across warm calls.
    parallel_diagnostics: list = field(default_factory=list)
    _cache: dict[tuple[str, str], object] = field(default_factory=dict)

    # ------------------------------------------------------------- warm-up
    def warm(
        self,
        bench_ids: list[str] | None = None,
        flows: tuple[str, ...] = BASE_FLOWS,
        workers: int | None = None,
    ) -> int:
        """Pre-compute base flow runs, fanning them out over a process pool.

        The (design, flow) pairs are independent, so this parallelises the
        same way the DSE grid does.  Returns the number of runs computed.
        Already-cached pairs are skipped; results are exactly what the lazy
        path would compute (both call :func:`_compute_flow`), except that
        the wall-clock runtime columns reflect pool contention — run serial
        when the runtime numbers themselves are the result.
        """
        bench_ids = list(self.designs) if bench_ids is None else list(bench_ids)
        jobs = [
            (bench_id, flow)
            for bench_id in bench_ids
            for flow in flows
            if (bench_id, flow) not in self._cache
        ]
        if not jobs:
            return 0
        workers = os.cpu_count() or 1 if workers is None else workers
        # The fault-tolerant pool tier retries crashed/hung flow runs and
        # recomputes them inline as a last resort, so a broken worker can
        # never leave the cache partially warmed.
        from repro.parallel import run_tasks

        payloads = [
            (self.pdk, self.designs[key[0]], self.config, key[1]) for key in jobs
        ]
        results = run_tasks(
            "flow_cache",
            _compute_flow_task,
            payloads,
            min(workers, len(jobs)),
            policy=self.config.resolved_parallel_policy(),
            diagnostics=self.parallel_diagnostics,
            label=lambda i, payload: f"{jobs[i][0]}/{jobs[i][1]}",
        )
        for key, result in zip(jobs, results):
            self._cache[key] = result
        return len(jobs)

    # ------------------------------------------------------------- our flows
    def ours(self, bench_id: str, selection: str = "moes") -> OursRun:
        """Hierarchical routing + concurrent insertion + skew refinement."""
        key = (bench_id, f"ours_{selection}")
        if key not in self._cache:
            self._cache[key] = _compute_flow(
                self.pdk, self.designs[bench_id], self.config, key[1]
            )
        return self._cache[key]

    def single(self, bench_id: str):
        """Our buffered clock tree (front side only)."""
        key = (bench_id, "single")
        if key not in self._cache:
            self._cache[key] = _compute_flow(
                self.pdk, self.designs[bench_id], self.config, "single"
            )
        return self._cache[key]

    # ------------------------------------------------------------- baselines
    def openroad(self, bench_id: str):
        key = (bench_id, "openroad")
        if key not in self._cache:
            self._cache[key] = _compute_flow(
                self.pdk, self.designs[bench_id], self.config, "openroad"
            )
        return self._cache[key]

    def openroad_veloso(self, bench_id: str):
        key = (bench_id, "openroad_veloso")
        if key not in self._cache:
            base = self.openroad(bench_id)
            run = VelosoBacksideOptimizer(self.pdk).run(
                base.design, design_name=self.designs[bench_id].name
            )
            self._cache[key] = self._with_total_runtime(run, base.metrics.runtime)
        return self._cache[key]

    def single_veloso(self, bench_id: str):
        key = (bench_id, "single_veloso")
        if key not in self._cache:
            base = self.single(bench_id)
            run = VelosoBacksideOptimizer(self.pdk).run(
                base.design, design_name=self.designs[bench_id].name
            )
            self._cache[key] = self._with_total_runtime(run, base.metrics.runtime)
        return self._cache[key]

    def single_fanout(self, bench_id: str, fanout_threshold: int = 100):
        key = (bench_id, f"single_fanout_{fanout_threshold}")
        if key not in self._cache:
            base = self.single(bench_id)
            run = FanoutBacksideOptimizer(
                self.pdk, fanout_threshold=fanout_threshold
            ).run(base.design, design_name=self.designs[bench_id].name)
            self._cache[key] = self._with_total_runtime(run, base.metrics.runtime)
        return self._cache[key]

    def single_critical(self, bench_id: str, critical_fraction: float = 0.5):
        key = (bench_id, f"single_critical_{critical_fraction}")
        if key not in self._cache:
            base = self.single(bench_id)
            run = TimingCriticalBacksideOptimizer(
                self.pdk, critical_fraction=critical_fraction
            ).run(base.design, design_name=self.designs[bench_id].name)
            self._cache[key] = self._with_total_runtime(run, base.metrics.runtime)
        return self._cache[key]

    @staticmethod
    def _with_total_runtime(run, base_runtime: float):
        """Report the incremental flows' runtime as CTS + post-CTS flipping.

        The paper's RT column for "X + [2]" covers the whole incremental
        flow, i.e. generating the buffered clock tree plus the back-side
        optimisation, so the substrate's runtime is added here.
        """
        run.metrics = replace(run.metrics, runtime=run.metrics.runtime + base_runtime)
        return run
