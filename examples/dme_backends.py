#!/usr/bin/env python3
"""DME routing backends: the scalar router vs. the level-batched arrays.

The DME clock routing has two interchangeable backends behind
``CtsConfig(backends=BackendSelection(dme=...))`` (mirroring the timing
engines and the insertion-DP backends):

* ``reference`` — the per-node scalar ``DmeRouter``, the executable spec;
* ``vectorized`` (default) — ``VectorizedDmeRouter``: the topology is
  flattened to struct-of-arrays and every level's merging-segment
  endpoints, Elmore edge balancing (a 64-step vector bisection with
  detour masks), and top-down embedding run as whole numpy batches.

Both embed *bit-identical* trees; this script builds one matching topology
over a generated sink cloud, routes it with each backend, verifies the
embedded wirelength agrees to the last bit, and prints the wall-clock
comparison — standalone DME and through the full hierarchical router.

Usage::

    python examples/dme_backends.py [terminals]

    terminals   terminal count of the generated net; default 2000
"""

from __future__ import annotations

import sys
import time

from repro import asap7_backside
from repro.designs import random_sink_cloud
from repro.flow import BackendSelection, CtsConfig
from repro.routing import DmeTerminal, HierarchicalClockRouter, create_dme_router
from repro.routing.topology import matching_topology


def main() -> int:
    terminals = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    pdk = asap7_backside()
    clock_net = random_sink_cloud(terminals)
    leaves = [
        DmeTerminal(name=s.name, location=s.location, capacitance=s.capacitance)
        for s in clock_net.sinks
    ]
    print(f"Building a matching topology over {terminals} terminals ...")
    topology = matching_topology([t.location for t in leaves])

    print(f"{'stage':>24}  {'reference':>10}  {'vectorized':>10}  speedup")
    timings = {}
    wirelengths = {}
    for backend in ("reference", "vectorized"):
        router = create_dme_router(pdk.front_layer, backend=backend)
        start = time.perf_counter()
        embedded = router.route(
            leaves, root_location=clock_net.source.location, topology=topology
        )
        timings[backend] = time.perf_counter() - start
        wirelengths[backend] = embedded.wirelength()
    if wirelengths["reference"] != wirelengths["vectorized"]:
        raise AssertionError("DME backends diverged (wirelength mismatch)")
    print(
        f"{'flat DME embed':>24}  {timings['reference'] * 1e3:8.1f}ms"
        f"  {timings['vectorized'] * 1e3:8.1f}ms"
        f"  {timings['reference'] / timings['vectorized']:6.2f}x"
    )

    flow_timings = {}
    for backend in ("reference", "vectorized"):
        config = CtsConfig(backends=BackendSelection(dme=backend))
        router = HierarchicalClockRouter(pdk, config=config)
        start = time.perf_counter()
        result = router.route(clock_net)
        flow_timings[backend] = time.perf_counter() - start
    print(
        f"{'hierarchical routing':>24}  {flow_timings['reference'] * 1e3:8.1f}ms"
        f"  {flow_timings['vectorized'] * 1e3:8.1f}ms"
        f"  {flow_timings['reference'] / flow_timings['vectorized']:6.2f}x"
    )
    print(
        f"\nIdentical embeddings from both backends: "
        f"{result.tree.sink_count()} sinks, wirelength "
        f"{wirelengths['vectorized']:.3f} um (bit-equal across backends)."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
