#!/usr/bin/env python3
"""The fault-tolerant parallel tier: worker failures that never change bits.

Every pool consumer (the insertion DP's bottom subtrees, the DSE sweep,
``FlowCache.warm``) runs through ``repro.parallel.run_tasks`` under a
``ParallelPolicy``
(``CtsConfig(parallel_policy=...)`` / ``REPRO_PARALLEL_POLICY``):

* a failed task — worker crash, hang past ``timeout_s``, corrupt result,
  lost worker — is retried with exponential backoff on a respawned pool;
* a task that exhausts its attempts is recomputed **inline, serially**.
  Because the parallel tier is bit-identical to serial by construction,
  that degraded result is exactly what the healthy pool would have
  produced — recovery never changes the answer, only the wall-clock;
* every recovery is recorded as a ``ParallelDiagnostic`` on the result
  (``result.parallel_diagnostics`` / ``result.parallel_summary()``);
* ``mode="strict"`` (``dscts run --strict-parallel``) raises a typed
  ``ParallelError`` instead of degrading — and like ``GuardError`` it is
  never caught at a call site.

This script arms the worker-fault injectors from ``repro.guard.faults``
against the insertion stage of a real flow run at ``workers=2`` (the DP
ships its bottom subtrees to the pool as one forest per worker) and shows
the whole ladder: a crash retried, a corrupted forest result degraded to
serial, and strict mode failing fast.  It exits non-zero when a recovered
tree differs from the serial one, when no pool task ran, or when strict
mode does not raise.

Usage::

    python examples/parallel_faults.py [sinks]

    sinks   sink count of the generated clock net; default 2000
"""

from __future__ import annotations

import sys

from repro import asap7_backside
from repro.designs import random_sink_cloud
from repro.flow import CtsConfig, DoubleSideCTS, ParallelError, ParallelPolicy
from repro.guard import WorkerFault, arm_worker_faults


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


def run_once(pdk, clock_net, workers: int, policy: ParallelPolicy | None = None):
    config = CtsConfig(workers=workers, parallel_policy=policy)
    return DoubleSideCTS(pdk, config).run(clock_net)


def check(result, reference) -> bool:
    """Print the recovery summary; True when the run used the pool and
    recovered the serial tree bit for bit."""
    print(f"  {result.parallel_summary()}")
    for diagnostic in result.parallel_diagnostics:
        print(
            f"  {diagnostic.action} {diagnostic.stage!r} {diagnostic.task} "
            f"after {diagnostic.attempts} attempts ({diagnostic.cause})"
        )
    identical = fingerprint(result.tree) == reference
    print(f"  bit-identical to serial: {identical}\n")
    if result.parallel_tasks == 0:
        print("ERROR: no pool task ran, so no fault could fire")
        return False
    if not identical:
        print("ERROR: the recovered tree differs from the serial one")
        return False
    return True


def main() -> int:
    sinks = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    pdk = asap7_backside()
    clock_net = random_sink_cloud(sinks, seed=11)
    policy = ParallelPolicy(attempts=2, backoff_s=0.0)

    print(f"{sinks}-sink clock net, serial baseline first\n")
    serial = run_once(pdk, clock_net, workers=1)
    reference = fingerprint(serial.tree)

    print("crash on every first attempt — the retry rung recovers:")
    crash = WorkerFault(stage="insertion", kind="crash", fail_attempts=1)
    with arm_worker_faults(crash):
        result = run_once(pdk, clock_net, workers=2, policy=policy)
    if not check(result, reference):
        return 1

    print("corrupt results on every attempt — degrade-to-serial recovers:")
    corrupt = WorkerFault(
        stage="insertion", kind="corrupt", fail_attempts=policy.attempts
    )
    with arm_worker_faults(corrupt):
        result = run_once(pdk, clock_net, workers=2, policy=policy)
    if not check(result, reference):
        return 1

    print("the same exhausted fault under mode='strict' — fail fast instead:")
    with arm_worker_faults(corrupt):
        try:
            run_once(
                pdk, clock_net, workers=2, policy=policy.with_updates(mode="strict")
            )
        except ParallelError as exc:
            print(f"  ParallelError at stage {exc.stage!r}, {exc.task}")
            print(f"  {exc}")
            return 0
    print("ERROR: strict mode did not raise ParallelError")
    return 1


if __name__ == "__main__":
    sys.exit(main())
