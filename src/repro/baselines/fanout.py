"""Baseline [7] (Bethur, 2023): fanout-driven back-side assignment.

A trunk net is moved to the back side when the number of sinks it ultimately
drives reaches a threshold (100 in the paper's Table III comparison, swept
from 20 to 1000 in the Fig. 12 DSE comparison).  High-fanout nets are the
upper levels of the tree, so the method is a tunable version of [2].
"""

from __future__ import annotations

import numpy as np

from repro.baselines.backside import trunk_edges
from repro.baselines.veloso import BacksideOptimizerBase
from repro.ir.design import KIND_SINK, DesignArrays, subtree_totals


class FanoutBacksideOptimizer(BacksideOptimizerBase):
    """[7]: flip trunk nets whose driven-sink fanout meets the threshold."""

    flow_name = "bethur_fanout_2023"

    def __init__(self, pdk, fanout_threshold: int = 100) -> None:
        super().__init__(pdk)
        if fanout_threshold < 1:
            raise ValueError("the fanout threshold must be at least 1")
        self.fanout_threshold = fanout_threshold

    def select_edges(self, design: DesignArrays) -> list[int]:
        sinks = design.kind[: design.size] == KIND_SINK
        fanout = subtree_totals(design, sinks.astype(np.int64))
        return [
            row for row in trunk_edges(design) if fanout[row] >= self.fanout_threshold
        ]
