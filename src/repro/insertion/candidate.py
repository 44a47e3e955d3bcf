"""DP candidate solutions.

A candidate describes one way of implementing the *whole subtree* hanging
below (and including) a DP node's edge.  It records everything the DP needs
to keep going upward (side at the upstream end, effective capacitance, path
delays) and everything the multi-objective selection needs (buffer and nTSV
counts), together with back-pointers for the top-down decision step.

**Per-corner tuples.**  Every candidate carries per-corner tuples of
(capacitance, max delay, min delay) — one entry per scenario of the DP's
resolved :class:`~repro.tech.corners.CornerSet`, in corner order.  A nominal
DP runs the one-corner set, so its tuples hold a single entry.  The scalar
fields mirror the *primary* (nominal) corner for readers that want one
number; dominance pruning and the multi-objective selection read the tuples
through the ``worst_*`` properties (the worst corner of the batch, which is
the only entry at one corner).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, sub
from typing import TYPE_CHECKING, Optional

from repro.tech.layers import Side

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.insertion.patterns import EdgePattern

#: The three per-corner tuples of a candidate (cap, max delay, min delay).
CornerTuples = tuple["tuple[float, ...]", "tuple[float, ...]", "tuple[float, ...]"]


def merged_corner_tuples(
    a: "CandidateSolution", b: "CandidateSolution"
) -> CornerTuples:
    """Element-wise merge of two candidates' corner tuples at a shared vertex.

    Capacitances add, the worst path delay is the per-corner max, the best
    the per-corner min — the classic merge rule, once per corner.
    """
    return (
        tuple(map(add, a.corner_capacitance, b.corner_capacitance)),
        tuple(map(max, a.corner_max_delay, b.corner_max_delay)),
        tuple(map(min, a.corner_min_delay, b.corner_min_delay)),
    )


@dataclass
class CandidateSolution:
    """One candidate implementation of a DP subtree.

    Attributes:
        up_side: side type of the edge's upstream (root-facing) end-point.
        capacitance: effective capacitance (fF) seen looking down into the
            edge from the upstream end-point (primary corner).
        max_delay: worst path delay (ps) from the upstream end-point to any
            sink in the subtree (primary corner).
        min_delay: best (smallest) such path delay; tracked so that skew can
            be estimated for every candidate (primary corner).
        buffer_count: buffers used by the whole subtree under this candidate.
        ntsv_count: nTSVs used by the whole subtree under this candidate.
        pattern: pattern chosen for this DP node's edge (None for the virtual
            base solution of a leaf DP node before its first insertion).
        children: the predecessor-node candidates this one was merged from;
            recorded dependencies for the top-down decision (Step 4).
        corner_capacitance / corner_max_delay / corner_min_delay: per-corner
            tuples (one entry per scenario, corner order).  A caller that
            passes none gets the one-corner tuples of the scalar fields.
    """

    up_side: Side
    capacitance: float
    max_delay: float
    min_delay: float
    buffer_count: int = 0
    ntsv_count: int = 0
    pattern: Optional["EdgePattern"] = None
    children: tuple["CandidateSolution", ...] = field(default=(), repr=False)
    corner_capacitance: tuple[float, ...] | None = None
    corner_max_delay: tuple[float, ...] | None = None
    corner_min_delay: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.capacitance < 0:
            raise ValueError("candidate capacitance must be non-negative")
        if self.min_delay > self.max_delay + 1e-9:
            raise ValueError("candidate min delay exceeds max delay")
        if self.buffer_count < 0 or self.ntsv_count < 0:
            raise ValueError("candidate resource counts must be non-negative")
        caps = self.corner_capacitance
        maxs = self.corner_max_delay
        mins = self.corner_min_delay
        if caps is None and maxs is None and mins is None:
            self.corner_capacitance = (self.capacitance,)
            self.corner_max_delay = (self.max_delay,)
            self.corner_min_delay = (self.min_delay,)
        elif (
            caps is None
            or maxs is None
            or mins is None
            or not 0 < len(caps) == len(maxs) == len(mins)
        ):
            raise ValueError(
                "corner tuples must be given together and share one "
                "non-zero length"
            )

    @property
    def skew(self) -> float:
        """Skew (ps) within the subtree covered by this candidate."""
        return self.max_delay - self.min_delay

    @property
    def resource_count(self) -> int:
        """Total inserted cells (buffers + nTSVs)."""
        return self.buffer_count + self.ntsv_count

    # -------------------------------------------------- worst-corner views
    # The pruning sweeps read these per candidate; on a single entry an
    # index is several times cheaper than ``max``.
    @property
    def worst_capacitance(self) -> float:
        """Largest effective capacitance across the corner batch (fF)."""
        caps = self.corner_capacitance
        return caps[0] if len(caps) == 1 else max(caps)

    @property
    def worst_max_delay(self) -> float:
        """Largest worst-path delay across the corner batch (ps)."""
        delays = self.corner_max_delay
        return delays[0] if len(delays) == 1 else max(delays)

    @property
    def worst_skew(self) -> float:
        """Largest per-corner subtree skew across the corner batch (ps)."""
        return max(map(sub, self.corner_max_delay, self.corner_min_delay))

    def dominates(self, other: "CandidateSolution", tol: float = 1e-9) -> bool:
        """Van Ginneken dominance on (capacitance, max delay), per corner.

        A candidate dominates another when it is no worse in both effective
        capacitance and worst path delay at every corner of the batch (and
        the two share the same upstream side, which the caller is
        responsible for grouping by); at one corner this is the classic
        rule.  The vector rule is the sound one — downstream pattern/merge
        deltas are per-corner monotone, so a per-corner dominator stays at
        least as good at every corner, whereas comparing only worst-corner
        scalars could discard a candidate that a corner-skewed downstream
        edge would have made the better sign-off tree.
        """
        for mine, theirs in zip(self.corner_capacitance, other.corner_capacitance):
            if not mine <= theirs + tol:
                return False
        for mine, theirs in zip(self.corner_max_delay, other.corner_max_delay):
            if not mine <= theirs + tol:
                return False
        return True

    def strictly_dominates(self, other: "CandidateSolution", tol: float = 1e-9) -> bool:
        """Dominates *and* is strictly better in at least one dimension."""
        if not self.dominates(other, tol):
            return False
        return any(
            a < b - tol
            for a, b in zip(self.corner_capacitance, other.corner_capacitance)
        ) or any(
            a < b - tol
            for a, b in zip(self.corner_max_delay, other.corner_max_delay)
        )

    def with_pattern(
        self,
        pattern: "EdgePattern",
        capacitance: float,
        max_delay: float,
        min_delay: float,
        added_buffers: int,
        added_ntsvs: int,
        corner_capacitance: tuple[float, ...] | None = None,
        corner_max_delay: tuple[float, ...] | None = None,
        corner_min_delay: tuple[float, ...] | None = None,
    ) -> "CandidateSolution":
        """Return a new candidate obtained by applying ``pattern`` above this one."""
        return CandidateSolution(
            up_side=pattern.up_side,
            capacitance=capacitance,
            max_delay=max_delay,
            min_delay=min_delay,
            buffer_count=self.buffer_count + added_buffers,
            ntsv_count=self.ntsv_count + added_ntsvs,
            pattern=pattern,
            children=(self,),
            corner_capacitance=corner_capacitance,
            corner_max_delay=corner_max_delay,
            corner_min_delay=corner_min_delay,
        )

    @staticmethod
    def merge(a: "CandidateSolution", b: "CandidateSolution") -> "CandidateSolution":
        """Merge two predecessor candidates at a shared vertex.

        The merge is only legal when both upstream sides agree (the paper's
        connectivity constraint); the caller must enforce that before calling.
        Corner tuples merge element-wise (sum of capacitances, max/min of the
        path delays per corner), and the scalars by the same rule.
        """
        if a.up_side is not b.up_side:
            raise ValueError(
                "cannot merge candidates with different upstream sides "
                f"({a.up_side.value} vs {b.up_side.value})"
            )
        corner_cap, corner_max, corner_min = merged_corner_tuples(a, b)
        return CandidateSolution(
            up_side=a.up_side,
            capacitance=a.capacitance + b.capacitance,
            max_delay=max(a.max_delay, b.max_delay),
            min_delay=min(a.min_delay, b.min_delay),
            buffer_count=a.buffer_count + b.buffer_count,
            ntsv_count=a.ntsv_count + b.ntsv_count,
            pattern=None,
            children=(a, b),
            corner_capacitance=corner_cap,
            corner_max_delay=corner_max,
            corner_min_delay=corner_min,
        )
