#!/usr/bin/env python3
"""The subtree-parallel scaled tier: ``workers=N`` construction.

With ``CtsConfig(workers=N)`` (or ``dscts run --workers N``, or
``REPRO_FLOW_WORKERS=N``) the insertion DP ships its bottom subtrees to a
process pool as flat tables and finishes the spine serially; routing stays
serial at every worker count.  The contract is *bit-identical to serial* —
same frontiers, so the same names, rows and coordinates — at every worker
count (``tests/test_parallel_construction.py`` pins it across the backend
matrix).

This script runs one clock net serially and at a sweep of worker counts,
verifies the trees are identical node-for-node and that the DP really used
the pool, and prints the wall-clock sweep.  Only the insertion stage can
get faster, so the whole-flow ratio stays modest even with the cores.  On
a machine with fewer cores than workers the pool adds pickling and spin-up
cost with nothing to parallelise on, so parallel runs measure *slower*
than serial there — the perf gates (``benchmarks/check_regression.py``)
apply the ``*_100k`` floors only when the row was measured with
``cores >= workers`` for exactly this reason.  The bit-identity checks
hold regardless.

Usage::

    python examples/parallel_construction.py [sinks] [workers ...]

    sinks     sink count of the generated clock net; default 20000
    workers   worker counts to sweep; default 2 4
"""

from __future__ import annotations

import os
import sys
import time

from repro import asap7_backside
from repro.designs import random_sink_cloud
from repro.flow import CtsConfig, DoubleSideCTS


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


def run_once(pdk, clock_net, workers: int):
    flow = DoubleSideCTS(pdk, CtsConfig(workers=workers))
    start = time.perf_counter()
    result = flow.run(clock_net)
    return time.perf_counter() - start, result


def main() -> int:
    sinks = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    sweep = [int(arg) for arg in sys.argv[2:]] or [2, 4]
    cores = os.cpu_count() or 1
    pdk = asap7_backside()
    clock_net = random_sink_cloud(sinks, seed=11)

    print(f"host cores: {cores}   sinks: {sinks}")
    t_serial, serial = run_once(pdk, clock_net, workers=1)
    reference = fingerprint(serial.tree)
    print(
        f"workers= 1  {t_serial * 1e3:9.1f} ms   "
        f"skew={serial.metrics.skew:.4f}  buffers={serial.metrics.buffers}"
    )

    for workers in sweep:
        t_parallel, parallel = run_once(pdk, clock_net, workers=workers)
        identical = fingerprint(parallel.tree) == reference
        ratio = t_serial / t_parallel
        note = "" if cores >= workers else "  (more workers than cores)"
        print(
            f"workers={workers:2d}  {t_parallel * 1e3:9.1f} ms   "
            f"serial/parallel={ratio:5.2f}x   "
            f"tasks={parallel.parallel_tasks}   "
            f"bit-identical={identical}{note}"
        )
        if not identical:
            print("ERROR: parallel construction diverged from serial")
            return 1
        if parallel.parallel_tasks == 0:
            print("ERROR: the insertion DP shipped no subtree to the pool")
            return 1

    if cores < max(sweep):
        print(
            "\nNote: this host has fewer cores than the largest worker "
            "count; the ratios above measure pool overhead, not scaling. "
            "Only the insertion DP runs on the pool, so the whole-flow "
            "ratio is bounded by its share of the runtime (see "
            "benchmarks/perf_floors.json)."
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
