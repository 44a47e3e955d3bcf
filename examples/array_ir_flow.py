#!/usr/bin/env python3
"""The persistent array IR: one ``DesignArrays`` through the whole flow.

``DoubleSideCTS.run`` threads a single struct-of-arrays design
(``repro.ir.DesignArrays``) through routing, insertion, refinement, and
evaluation; ``result.design`` is that design and ``result.tree`` realises
the object ``ClockTree`` from it on first access.  Object trees exist only
at the boundaries — ``to_clock_tree()`` / ``from_clock_tree()`` — and both
bridges are lossless.

This script runs the flow, then replays it stage by stage through the
IR-native entry points (``route_design``, ``ConcurrentInserter.run(design)``,
``SkewRefiner.refine(design)``, ``evaluate_tree(design)``) built from the
flow's own construction points, checks the replay lands on the flow's
metrics, and round-trips the result through the bridges.

Usage::

    python examples/array_ir_flow.py [sinks]

    sinks    sink count of the generated clock net; default 2000
"""

from __future__ import annotations

import sys
import time

from repro import asap7_backside
from repro.designs import random_sink_cloud
from repro.evaluation import evaluate_tree
from repro.flow import CtsConfig, DoubleSideCTS
from repro.ir import DesignArrays
from repro.ir.stages import build_inserter, build_refiner, build_router


def fingerprint(tree) -> list[tuple]:
    """Order-independent structural identity of a clock tree."""
    return sorted(
        (
            node.name,
            node.kind.value,
            node.parent.name if node.parent is not None else "",
            node.location.x,
            node.location.y,
        )
        for node in tree.nodes()
    )


def main() -> int:
    sinks = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    pdk = asap7_backside()
    config = CtsConfig()
    clock_net = random_sink_cloud(sinks, seed=11)

    start = time.perf_counter()
    result = DoubleSideCTS(pdk, config).run(clock_net)
    elapsed = time.perf_counter() - start
    nodes, sink_count, buffers, ntsvs = result.design.counts()
    print(f"{sinks}-sink clock net, one flow run in {elapsed * 1e3:.1f} ms")
    print(
        f"  design rows : {nodes} "
        f"({sink_count} sinks, {buffers} buffers, {ntsvs} nTSVs)"
    )
    print(
        f"  metrics     : skew {result.metrics.skew:.2f} ps, "
        f"latency {result.metrics.latency:.2f} ps, "
        f"wirelength {result.metrics.wirelength:.0f} um\n"
    )

    # The same pipeline by hand, one IR-native entry point per stage.
    backends = config.resolved_backends()
    routed = build_router(pdk, config).route_design(clock_net)
    design = routed.design
    print(f"routing    : {design.size} rows, {len(routed.tap_names)} taps")
    build_inserter(pdk, config, backends.timing, backends.dp).run(design)
    print(f"insertion  : {design.counts()[2]} buffers, {design.counts()[3]} nTSVs")
    report = build_refiner(pdk, config, backends.timing).refine(design)
    print(f"refinement : {report.added_buffers} skew buffers added")
    metrics = evaluate_tree(design, pdk, engine=backends.timing)
    same = (metrics.skew, metrics.buffers) == (
        result.metrics.skew,
        result.metrics.buffers,
    )
    print(f"evaluation : skew {metrics.skew:.2f} ps (matches the flow: {same})\n")
    if not same:
        raise AssertionError("the stage-by-stage replay diverged from the flow")

    # The boundary bridges: object tree -> arrays -> object tree.
    tree = result.tree
    round_tripped = DesignArrays.from_clock_tree(tree).to_clock_tree()
    identical = fingerprint(round_tripped) == fingerprint(tree)
    print(
        f"bridges    : {tree.sink_count()} sinks realised, "
        f"round trip identical: {identical}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
