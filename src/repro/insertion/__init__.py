"""Concurrent buffer and nTSV insertion (Section III-C of the paper).

This package contains the paper's primary contribution:

* :mod:`repro.insertion.patterns` — the six edge patterns P1..P6 (Fig. 6) and
  the full / intra-side insertion modes.
* :mod:`repro.insertion.candidate` — DP candidate solutions carrying
  effective capacitance, max/min path delay, buffer and nTSV counts.
* :mod:`repro.insertion.pruning` — per-side inferior-solution pruning (the
  van Ginneken dominance rule extended to two sides) and the max-cap filter.
* :mod:`repro.insertion.dp_tree` — building the heterogeneous DP tree from a
  routed design (one DP node per trunk edge, with optional segmentation of
  long edges) and per-node insertion-mode configuration.
* :mod:`repro.insertion.moes` — the multi-objective enhancement score used to
  pick the final root solution, plus the min-latency selector used in the
  Fig. 10 comparison.
* :mod:`repro.insertion.concurrent` — the multi-objective dynamic program:
  bottom-up generation, multi-objective selection, top-down decision, and
  realisation of the chosen patterns on the design rows.  The paper's "Our
  Buffered Clock Tree" is the same DP on a front-side-only PDK
  (:class:`repro.flow.SingleSideCTS`).
* :mod:`repro.insertion.frontier` — the vectorized DP backend: candidate
  sets as :class:`CandidateFrontier` struct-of-arrays with broadcast merges,
  batched pattern costs, and vectorized pruning sweeps.  Selected via
  ``InsertionConfig.dp_backend`` / ``REPRO_DP_BACKEND`` (default
  ``vectorized``); the per-candidate DP in ``concurrent`` is the executable
  spec.
"""

from repro.insertion.patterns import EdgePattern, InsertionMode, PATTERNS, patterns_for
from repro.insertion.candidate import CandidateSolution
from repro.insertion.pruning import prune_per_side, prune_dominated, filter_max_cap
from repro.insertion.dp_tree import DpNode, DpTree, build_dp_tree
from repro.insertion.frontier import (
    CandidateFrontier,
    DP_BACKEND_NAMES,
    FrontierStore,
    VectorizedInsertionDp,
    default_dp_backend,
    resolve_dp_backend,
)
from repro.insertion.moes import MoesWeights, select_by_moes, select_min_latency
from repro.insertion.concurrent import ConcurrentInserter, InsertionResult

__all__ = [
    "EdgePattern",
    "InsertionMode",
    "PATTERNS",
    "patterns_for",
    "CandidateSolution",
    "prune_per_side",
    "prune_dominated",
    "filter_max_cap",
    "DpNode",
    "DpTree",
    "build_dp_tree",
    "CandidateFrontier",
    "DP_BACKEND_NAMES",
    "FrontierStore",
    "VectorizedInsertionDp",
    "default_dp_backend",
    "resolve_dp_backend",
    "MoesWeights",
    "select_by_moes",
    "select_min_latency",
    "ConcurrentInserter",
    "InsertionResult",
]
