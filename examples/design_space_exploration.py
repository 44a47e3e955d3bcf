#!/usr/bin/env python3
"""Design space exploration: sweep the fanout threshold of the DP tree.

Reproduces the Fig. 12 experiment in miniature: the heterogeneous DP tree's
insertion modes are controlled through a fanout threshold, and sweeping it
traces a Pareto frontier that trades latency and skew against buffer and
nTSV usage.  The baselines [7] and [6] are swept on a fixed buffered design
for comparison.

Usage::

    python examples/design_space_exploration.py [design] [scale]
"""

from __future__ import annotations

import sys

from repro import DesignSpaceExplorer, SingleSideCTS, asap7_backside, load_design
from repro.evaluation import format_table
from repro.flow import CtsConfig


def main() -> int:
    design_id = sys.argv[1] if len(sys.argv) > 1 else "C5"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.4

    pdk = asap7_backside()
    config = CtsConfig()
    design = load_design(design_id, scale=scale, include_combinational=False)
    print(f"Exploring the double-side design space of {design!r}\n")

    explorer = DesignSpaceExplorer(pdk, config)
    thresholds = [0, 20, 50, 100, 300, 1000, 10_000]
    sweep = explorer.explore(design, fanout_thresholds=thresholds)

    columns = ["configuration", "parameter", "latency_ps", "skew_ps",
               "buffers", "ntsvs", "resources"]
    print("Our DSE sweep (fanout threshold controls nTSV-enabled DP nodes):")
    print(format_table(sweep.rows(), columns=columns))

    pareto = sweep.pareto()
    print(f"\nPareto-optimal configurations: "
          f"{sorted(int(p.parameter) for p in pareto)}")

    print("\nBaseline sweeps on a fixed buffered clock tree:")
    buffered = SingleSideCTS(pdk, config).run(design)
    fanout = explorer.sweep_fanout_baseline(
        buffered.design, thresholds=[20, 100, 400, 1000], design_name=design.name
    )
    critical = explorer.sweep_critical_baseline(
        buffered.design, fractions=[0.2, 0.5, 0.8], design_name=design.name
    )
    print(format_table(fanout.rows() + critical.rows(), columns=columns))

    best = sweep.best_latency()
    print(f"\nBest latency reached by the DSE flow: {best.metrics.latency:.2f} ps "
          f"(threshold {int(best.parameter)}, {best.metrics.resource_count} cells)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
