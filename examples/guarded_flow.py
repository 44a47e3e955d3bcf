#!/usr/bin/env python3
"""The guarded flow: anomaly detection and graceful degradation in action.

The flow's three guard policies (``BackendSelection(guard=...)`` /
``dscts --guard`` / ``REPRO_GUARD``):

* ``off`` (default) — the unguarded flow, no checks, no overhead;
* ``strict`` — validate the inputs at entry and the stage invariants after
  every step, raising a typed ``GuardError`` on the first anomaly;
* ``degrade`` — same checks, but an anomalous stage is re-run through the
  reference backend (the executable spec of the two-engine pattern), a
  ``GuardDiagnostic`` is recorded on the result, and the flow continues.

This script simulates a backend bug with the fault-injection harness
(``repro.guard.faults``): a fault armed at the insertion stage poisons a pin
capacitance with NaN right after the stage runs.  It then shows all three
policies reacting — ``strict`` failing fast with the stage and design
fingerprint, ``degrade`` recovering on the reference backend and shipping a
healthy tree, and input validation catching a malformed design before any
construction runs.

Usage::

    python examples/guarded_flow.py [sinks]

    sinks   sink count of the generated clock net; default 300
"""

from __future__ import annotations

import sys

from repro import asap7_backside
from repro.designs import random_sink_cloud
from repro.flow import BackendSelection, CtsConfig, DoubleSideCTS
from repro.guard import GuardError, StageFault
from repro.guard.faults import poke_nan_capacitance


def guarded(policy: str) -> CtsConfig:
    return CtsConfig(backends=BackendSelection(guard=policy))


def main() -> int:
    sinks = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    pdk = asap7_backside()
    clock_net = random_sink_cloud(sinks, seed=11)
    fault = StageFault("insertion", poke_nan_capacitance)

    print(f"{sinks}-sink clock net, fault armed: NaN capacitance after insertion\n")

    print("guard=strict — fail fast on the first anomaly:")
    flow = DoubleSideCTS(pdk, guarded("strict"), guard_faults=[fault])
    try:
        flow.run(clock_net)
    except GuardError as exc:
        print(f"  GuardError at stage {exc.stage!r}")
        print(f"  {exc}\n")

    print("guard=degrade — re-run the anomalous stage on the reference backend:")
    flow = DoubleSideCTS(pdk, guarded("degrade"), guard_faults=[fault])
    result = flow.run(clock_net)
    for diagnostic in result.guard_diagnostics:
        print(f"  degraded {diagnostic.stage!r} -> {diagnostic.backend} backend")
        print(f"  anomaly was: {diagnostic.anomaly}")
    print(
        f"  flow completed: skew {result.metrics.skew:.2f} ps, "
        f"latency {result.metrics.latency:.2f} ps\n"
    )

    print("input validation — a malformed design never reaches construction:")
    bad_net = random_sink_cloud(sinks, seed=11)
    object.__setattr__(bad_net.sinks[0], "capacitance", float("nan"))
    try:
        DoubleSideCTS(pdk, guarded("strict")).run(bad_net)
    except GuardError as exc:
        print(f"  GuardError at stage {exc.stage!r}: {exc.anomaly}")
        print(f"  design fingerprint: {exc.fingerprint}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
