#!/usr/bin/env python3
"""Compare the systematic flow against the incremental back-side baselines.

Reproduces a miniature Table III on one design: the OpenROAD-like buffered
tree, its back-side optimisation per Veloso et al. [2], our single-side
buffered tree with the post-CTS methods [2], [7], [6], and the paper's
systematic double-side flow.

Usage::

    python examples/compare_backside_flows.py [design] [scale]
"""

from __future__ import annotations

import sys

from repro import (
    DoubleSideCTS,
    FanoutBacksideOptimizer,
    OpenRoadLikeCTS,
    SingleSideCTS,
    TimingCriticalBacksideOptimizer,
    VelosoBacksideOptimizer,
    asap7_backside,
    load_design,
)
from repro.evaluation import ComparisonTable, format_table
from repro.evaluation.reporting import format_ratio_summary


def main() -> int:
    design_id = sys.argv[1] if len(sys.argv) > 1 else "C4"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5

    pdk = asap7_backside()
    design = load_design(design_id, scale=scale, include_combinational=False)
    print(f"Comparing flows on {design!r}\n")

    ours = DoubleSideCTS(pdk).run(design)
    single = SingleSideCTS(pdk).run(design)
    openroad = OpenRoadLikeCTS(pdk).run(design)

    flows = {
        "ours": ours.metrics,
        "our_buffered_tree": single.metrics,
        "openroad_buffered_tree": openroad.metrics,
        "openroad+[2]": VelosoBacksideOptimizer(pdk)
        .run(openroad.design, design_name=design.name)
        .metrics,
        "our_buffered_tree+[2]": VelosoBacksideOptimizer(pdk)
        .run(single.design, design_name=design.name)
        .metrics,
        "our_buffered_tree+[7]": FanoutBacksideOptimizer(pdk, fanout_threshold=100)
        .run(single.design, design_name=design.name)
        .metrics,
        "our_buffered_tree+[6]": TimingCriticalBacksideOptimizer(pdk, critical_fraction=0.5)
        .run(single.design, design_name=design.name)
        .metrics,
    }

    table = ComparisonTable(reference_flow="ours")
    rows = []
    for label, metrics in flows.items():
        relabelled = type(metrics)(**{**metrics.__dict__, "flow": label})
        table.add(relabelled)
        rows.append(relabelled.as_row())

    print(format_table(rows))
    print("\nRatios against 'ours' (values > 1.0 mean ours is better):\n")
    print(format_ratio_summary(table.summary()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
