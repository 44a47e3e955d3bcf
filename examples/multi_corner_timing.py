#!/usr/bin/env python3
"""Multi-corner sign-off: batch a PVT corner set through one timing engine.

Demonstrates the scenario-batching subsystem on top of the vectorized
timing kernel:

1. direct engine use — one ``VectorizedElmoreEngine`` evaluating five
   corners (tt/ss/ff/hot/cold) in a single level-synchronous pass over a
   shared design compile, cross-checked against a sequential per-corner loop;
2. flow integration — ``CtsConfig(corners=...)`` attaches per-corner skew
   and latency columns (plus the worst-corner summary) to the flow metrics;
3. worst-corner DSE — with corners configured, the fanout-threshold sweep
   scores every point on worst-corner skew/latency instead of nominal.

Usage::

    python examples/multi_corner_timing.py [design] [scale]

    design  benchmark id (C1..C5) or name (jpeg, aes, ...); default C1
    scale   size factor in (0, 1]; default 0.1
"""

from __future__ import annotations

import sys
import time

from repro import CornerSet, CtsConfig, DoubleSideCTS, asap7_backside, load_design
from repro.dse import DesignSpaceExplorer
from repro.evaluation import format_corner_table, format_metrics, format_table
from repro.timing import create_engine


def main() -> int:
    design_id = sys.argv[1] if len(sys.argv) > 1 else "C1"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.1

    pdk = asap7_backside()
    corners = CornerSet.signoff()  # tt, ss, ff, hot, cold
    print(f"Corner set: {', '.join(corners.names)}")
    print(format_table(corners.describe()))

    print(f"\nRunning the double-side CTS flow on {design_id} (scale {scale}) ...")
    design = load_design(design_id, scale=scale, include_combinational=False)
    config = CtsConfig(corners=corners)
    result = DoubleSideCTS(pdk, config).run(design)
    print("  " + format_metrics(result.metrics))
    print(format_corner_table(result.metrics))

    print("\nBatched vs sequential corner analysis on the synthesised design:")
    design_arrays = result.design
    # Engines are built outside the timed region on both sides so the
    # comparison isolates the analysis cost (like the bench harness does).
    batched = create_engine(pdk, corners=corners)
    sequential = {
        scenario.name: create_engine(scenario.apply_to(pdk))
        for scenario in corners
    }
    start = time.perf_counter()
    batched_skews = batched.skew_per_corner(design_arrays)
    t_batched = time.perf_counter() - start
    start = time.perf_counter()
    sequential_skews = {
        name: engine.skew(design_arrays) for name, engine in sequential.items()
    }
    t_sequential = time.perf_counter() - start
    for corner, skew in batched_skews.items():
        drift = abs(skew - sequential_skews[corner])
        print(f"  {corner:>5}: skew {skew:8.3f} ps   (drift vs sequential {drift:.2e})")
    print(
        f"  batched {t_batched * 1e3:.2f} ms vs sequential "
        f"{t_sequential * 1e3:.2f} ms for {len(corners)} corners"
    )

    print("\nWorst-corner DSE sweep (Pareto on worst-corner skew):")
    explorer = DesignSpaceExplorer(pdk, config)
    sweep = explorer.explore(design, fanout_thresholds=[20, 100, 400])
    print(format_table(sweep.rows()))
    pareto = sweep.pareto()
    print(f"Pareto-optimal thresholds (worst-corner objectives): "
          f"{[p.parameter for p in pareto]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
