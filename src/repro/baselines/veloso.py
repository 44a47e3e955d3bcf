"""Baseline [2] (Veloso et al., IEDM 2023): latency-driven trunk flipping.

The method moves *every* trunk-level net of an existing buffered clock-tree
design to the back side (Fig. 2(b) of the paper), inserting nTSVs around the
front-side buffer pins and at the boundary to the leaf nets.  It maximises
the latency benefit of the low-RC back-side metal at the cost of the largest
nTSV count among the baselines.

:class:`BacksideOptimizerBase` is the driver every post-CTS baseline shares.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.baselines.backside import BacksideAssignment, assign_backside, trunk_edges
from repro.evaluation.metrics import ClockTreeMetrics, evaluate_tree
from repro.ir.design import DesignArrays
from repro.tech.pdk import Pdk


@dataclass
class BacksideOptimizationResult:
    """Result shared by all post-CTS back-side optimizers."""

    design_name: str
    flow_name: str
    design: DesignArrays
    assignment: BacksideAssignment
    metrics: ClockTreeMetrics
    runtime: float


class BacksideOptimizerBase:
    """Shared driver: copy the design, select edges, assign, evaluate."""

    flow_name = "backside_base"

    def __init__(self, pdk: Pdk) -> None:
        if not pdk.has_backside:
            raise ValueError("back-side optimisation needs a back-side enabled PDK")
        self.pdk = pdk

    def select_edges(self, design: DesignArrays) -> list[int]:
        """Return the child rows of the edges to flip, in flip order (overridden)."""
        raise NotImplementedError

    def run(
        self, design: DesignArrays, design_name: str = ""
    ) -> BacksideOptimizationResult:
        """Apply the method to a copy of ``design`` and evaluate the copy."""
        if not isinstance(design, DesignArrays):
            raise TypeError(
                f"{type(self).__name__}.run edits a DesignArrays; compile object "
                "trees with DesignArrays.from_clock_tree(tree)"
            )
        start = time.perf_counter()
        work = DesignArrays(name=design.name, capacity=design.size)
        work.restore(design.snapshot())
        assignment = assign_backside(work, self.pdk, self.select_edges(work))
        runtime = time.perf_counter() - start
        work.validate()
        metrics = evaluate_tree(
            work, self.pdk, design=design_name, flow=self.flow_name, runtime=runtime
        )
        return BacksideOptimizationResult(
            design_name=design_name,
            flow_name=self.flow_name,
            design=work,
            assignment=assignment,
            metrics=metrics,
            runtime=runtime,
        )


class VelosoBacksideOptimizer(BacksideOptimizerBase):
    """[2]: flip all trunk nets above the low-level cluster centroids."""

    flow_name = "veloso_2023"

    def select_edges(self, design: DesignArrays) -> list[int]:
        return trunk_edges(design)
