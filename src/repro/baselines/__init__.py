"""Baseline methods the paper compares against.

* :mod:`repro.baselines.openroad_cts` — an OpenROAD/TritonCTS-style
  single-side buffered CTS (geometric bisection topology, cap-driven
  buffering); the "OpenROAD Buffered Clock Tree" columns of Table III.
* :mod:`repro.baselines.backside` — the shared machinery that flips a chosen
  set of trunk edges of an existing buffered design to the back side and
  inserts the nTSVs needed to keep buffers and leaf nets on the front side.
* :mod:`repro.baselines.veloso` — [2]: flip *all* trunk nets (latency-driven).
* :mod:`repro.baselines.fanout` — [7]: flip nets whose fanout exceeds a
  threshold (100 in the paper's comparison).
* :mod:`repro.baselines.timing_critical` — [6]: flip the nets feeding the
  most timing-critical end-points (the paper uses a GNN to pick them; here a
  delay-criticality oracle selects the same fraction, see DESIGN.md).
* :mod:`repro.baselines.pdn_aware` — [29]: the criticality-driven flipping of
  [6] under a back-side resource (nTSV) budget reserved for the PDN.

Every baseline builds or edits a :class:`~repro.ir.design.DesignArrays`: a
post-CTS optimizer's ``run(design)`` flips edges on a copy of a buffered
substrate (an OpenROAD-like or single-side run's ``.design``) and returns
the copy on ``.design``; an object tree is rejected with a ``TypeError``.
"""

from repro.baselines.openroad_cts import OpenRoadLikeCTS, OpenRoadCtsConfig
from repro.baselines.backside import BacksideAssignment, assign_backside, trunk_edges
from repro.baselines.veloso import VelosoBacksideOptimizer
from repro.baselines.fanout import FanoutBacksideOptimizer
from repro.baselines.timing_critical import TimingCriticalBacksideOptimizer
from repro.baselines.pdn_aware import PdnAwareBacksideOptimizer

__all__ = [
    "OpenRoadLikeCTS",
    "OpenRoadCtsConfig",
    "BacksideAssignment",
    "assign_backside",
    "trunk_edges",
    "VelosoBacksideOptimizer",
    "FanoutBacksideOptimizer",
    "TimingCriticalBacksideOptimizer",
    "PdnAwareBacksideOptimizer",
]
