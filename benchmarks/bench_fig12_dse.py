"""Fig. 12 — design space exploration versus the incremental baselines (C3).

The paper sweeps the fanout threshold of our DSE flow (20..1000) and the
knobs of [7] (fanout threshold) and [6] (critical-path fraction) on top of a
fixed buffered clock tree, then plots latency and skew against the total
resource count (#buffers + #nTSVs).  The expected shape: the DSE flow traces
a Pareto frontier that reaches latency/skew values the fixed-tree baselines
cannot reach, even when those are given more nTSVs.

The published sweep uses 99 threshold values; to keep the harness fast the
reproduction samples the same range more coarsely (the frontier shape is
already clear with ~8 points per method).
"""

from __future__ import annotations

from repro.dse import DesignSpaceExplorer
from repro.evaluation import format_table
from repro.flow import CtsConfig

from benchmarks.conftest import publish

BENCH_ID = "C3"
#: The paper sweeps 20..1000; the final entry exceeds the sink count of C3 so
#: that the sweep also contains the all-full-mode (Table III) configuration.
OUR_FANOUT_SWEEP = [20, 50, 100, 200, 400, 700, 1000, 20_000]
BASELINE_FANOUT_SWEEP = [20, 50, 100, 200, 400, 700, 1000]
CRITICAL_FRACTION_SWEEP = [0.2, 0.35, 0.5, 0.65, 0.8, 0.9]


def test_fig12_dse_comparison(benchmark, pdk, designs, flow_cache, results_dir):
    explorer = DesignSpaceExplorer(pdk, CtsConfig())
    design = designs[BENCH_ID]

    def build():
        ours_sweep = explorer.explore(design, fanout_thresholds=OUR_FANOUT_SWEEP)
        buffered = flow_cache.single(BENCH_ID)
        fanout_sweep = explorer.sweep_fanout_baseline(
            buffered.design, thresholds=BASELINE_FANOUT_SWEEP, design_name=design.name
        )
        critical_sweep = explorer.sweep_critical_baseline(
            buffered.design, fractions=CRITICAL_FRACTION_SWEEP, design_name=design.name
        )
        veloso = explorer.veloso_point(buffered.design, design_name=design.name)
        return ours_sweep, fanout_sweep, critical_sweep, veloso, buffered

    ours_sweep, fanout_sweep, critical_sweep, veloso, buffered = benchmark.pedantic(
        build, rounds=1, iterations=1
    )

    rows = []
    for sweep in (ours_sweep, fanout_sweep, critical_sweep):
        rows.extend(sweep.rows())
    rows.append(veloso.as_row())
    buffered_row = buffered.metrics.as_row()
    buffered_row["configuration"] = "our_buffered_tree"
    buffered_row["parameter"] = 0.0
    buffered_row["resources"] = buffered.metrics.resource_count
    rows.append(buffered_row)
    columns = [
        "configuration", "parameter", "latency_ps", "skew_ps",
        "buffers", "ntsvs", "resources",
    ]
    publish(results_dir, "fig12_dse_points", format_table(rows, columns=columns))

    pareto_rows = [p.as_row() for p in ours_sweep.pareto()]
    publish(results_dir, "fig12_dse_pareto", format_table(pareto_rows, columns=columns))

    # Shape checks: the DSE flow reaches lower latency than any fixed-tree
    # baseline configuration, and sweeping the threshold trades resources.
    best_ours = min(p.metrics.latency for p in ours_sweep.points)
    best_fixed_tree = min(
        [p.metrics.latency for p in fanout_sweep.points]
        + [p.metrics.latency for p in critical_sweep.points]
        + [veloso.metrics.latency]
    )
    assert best_ours <= best_fixed_tree + 1e-6
    resources = [p.metrics.resource_count for p in ours_sweep.points]
    assert max(resources) > min(resources), "the sweep must trade resources"
