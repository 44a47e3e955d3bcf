#!/usr/bin/env python3
"""Insertion-DP backends: the per-candidate DP vs. the candidate-frontier engine.

The concurrent buffer/nTSV insertion has two interchangeable backends behind
``InsertionConfig.dp_backend`` (mirroring the two timing engines):

* ``reference`` — the per-candidate DP, the executable spec;
* ``vectorized`` (default) — struct-of-arrays candidate frontiers with
  broadcast merges, batched pattern costs, and vectorized pruning sweeps.

Both edit the routed design in place and build *identical* trees; this
script routes one design and snapshots it, runs the DP with each backend on
a copy restored from the snapshot (nominal and against a 5-corner sign-off
batch), verifies the realised trees agree, and prints the wall-clock
comparison.  The vectorized backend pulls ahead where candidate frontiers
are dense — corner batches and the Pareto-rich ``keep_resource_diversity``
configuration.

Usage::

    python examples/insertion_backends.py [sinks]

    sinks   sink count of the generated clock net; default 500
"""

from __future__ import annotations

import sys
import time

from repro import asap7_backside
from repro.designs import random_sink_cloud
from repro.insertion import ConcurrentInserter
from repro.insertion.concurrent import InsertionConfig
from repro.ir.design import DesignArrays
from repro.routing.hierarchical import HierarchicalClockRouter
from repro.tech import CornerSet


def main() -> int:
    sinks = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    pdk = asap7_backside()
    print(f"Routing a {sinks}-sink clock net ...")
    routed = HierarchicalClockRouter(pdk).route_design(random_sink_cloud(sinks))
    name, snapshot = routed.design.name, routed.design.snapshot()

    configurations = [
        ("nominal, default pruning", None, False),
        ("nominal, resource diversity", None, True),
        ("signoff K=5, resource diversity", CornerSet.signoff(), True),
    ]
    print(f"{'configuration':>32}  {'reference':>10}  {'vectorized':>10}  speedup")
    for label, corners, diversity in configurations:
        timings = {}
        outcomes = {}
        for backend in ("reference", "vectorized"):
            design = DesignArrays(name=name, capacity=snapshot["size"])
            design.restore(snapshot)
            config = InsertionConfig(
                dp_backend=backend, keep_resource_diversity=diversity
            )
            start = time.perf_counter()
            result = ConcurrentInserter(pdk, config, corners=corners).run(design)
            timings[backend] = time.perf_counter() - start
            outcomes[backend] = (
                result.inserted_buffers,
                result.inserted_ntsvs,
                round(result.skew, 9),
            )
        if outcomes["reference"] != outcomes["vectorized"]:
            raise AssertionError(f"backends diverged on {label!r}")
        print(
            f"{label:>32}  {timings['reference'] * 1e3:8.1f}ms"
            f"  {timings['vectorized'] * 1e3:8.1f}ms"
            f"  {timings['reference'] / timings['vectorized']:6.2f}x"
        )
    buffers, ntsvs, skew = outcomes["vectorized"]
    print(
        f"\nIdentical trees from both backends: {buffers} buffers, "
        f"{ntsvs} nTSVs, skew {skew:.3f} ps (worst corner batch)."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
