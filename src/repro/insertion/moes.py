"""Multi-objective enhancement score (MOES) and root-solution selection.

Step 3 of the DP (Eq. (3) of the paper): the root candidate set ``S_root``
contains many combinations of latency, buffer count, and nTSV count; the
final solution is the candidate minimising

    MOES = alpha * latency + beta * #buffers + gamma * #nTSVs

with the paper's defaults alpha=1, beta=10, gamma=1.  A pure minimum-latency
selector is also provided for the Fig. 10 comparison (w/ vs w/o MOES).

The latency term is the candidate's *worst-corner* delay
(``CandidateSolution.worst_max_delay``), so the selected tree signs off
across the whole corner batch; on the one-corner nominal batch it is the
classic scalar latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.insertion.candidate import CandidateSolution


@dataclass(frozen=True, slots=True)
class MoesWeights:
    """Weights of the multi-objective enhancement score.

    ``alpha`` weights latency (ps), ``beta`` the buffer count, and ``gamma``
    the nTSV count.  The paper uses (1, 10, 1).
    """

    alpha: float = 1.0
    beta: float = 10.0
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ValueError("MOES weights must be non-negative")
        if self.alpha == self.beta == self.gamma == 0:
            raise ValueError("at least one MOES weight must be positive")

    def score(self, candidate: CandidateSolution) -> float:
        """Evaluate Eq. (3) for a root candidate (worst-corner latency)."""
        return (
            self.alpha * candidate.worst_max_delay
            + self.beta * candidate.buffer_count
            + self.gamma * candidate.ntsv_count
        )


def select_by_moes(
    candidates: Sequence[CandidateSolution],
    weights: MoesWeights | None = None,
) -> CandidateSolution:
    """Return the root candidate minimising the MOES."""
    if not candidates:
        raise ValueError("cannot select from an empty candidate set")
    w = weights if weights is not None else MoesWeights()
    return min(candidates, key=w.score)


def select_min_latency(candidates: Sequence[CandidateSolution]) -> CandidateSolution:
    """Return the root candidate with the smallest worst-path delay.

    Ties are broken by fewer resources, which mirrors how a latency-only
    objective would still prefer cheaper implementations.  Candidates are
    ranked by their worst-corner delay.
    """
    if not candidates:
        raise ValueError("cannot select from an empty candidate set")
    return min(
        candidates,
        key=lambda c: (c.worst_max_delay, c.resource_count, c.worst_capacitance),
    )

