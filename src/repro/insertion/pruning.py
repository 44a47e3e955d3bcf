"""Candidate pruning rules for the multi-objective DP.

The paper extends van Ginneken's inferior-solution rule to the double-side
scenario by pruning candidates *per side*: a candidate whose effective
capacitance and worst path delay are both no better than another candidate
on the same side can never be part of an optimal-latency solution and is
dropped.  A separate filter removes candidates violating the maximum
driven-capacitance constraint.

The rule is **per-corner vector dominance**
(:meth:`CandidateSolution.dominates`): a candidate dies only when another
same-side candidate is no worse in capacitance *and* delay at every corner
of the batch — the sound multi-corner extension, since downstream deltas are
per-corner monotone.  At one corner (the nominal DP) it is exactly the
classic scalar staircase, which the sweep runs in O(n).  The maximum-load
filter likewise must hold at every corner (worst-corner capacitance).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from repro.insertion.candidate import CandidateSolution
from repro.tech.layers import Side


def filter_max_cap(
    candidates: Iterable[CandidateSolution], max_capacitance: float
) -> list[CandidateSolution]:
    """Drop candidates whose effective capacitance exceeds the PDK limit.

    Candidates are filtered on their worst-corner capacitance: the
    constraint is physical and must hold at every operating point.
    """
    if max_capacitance <= 0:
        raise ValueError("max capacitance must be positive")
    return [c for c in candidates if c.worst_capacitance <= max_capacitance + 1e-9]


def prune_dominated(
    candidates: Sequence[CandidateSolution],
    keep_resource_diversity: bool = False,
    tol: float = 1e-9,
) -> list[CandidateSolution]:
    """Remove candidates dominated on (capacitance, max delay).

    The sweep visits candidates sorted by (worst capacitance, worst delay,
    resource count) and drops every candidate dominated by an already-kept
    one (:meth:`CandidateSolution.dominates`, which at one corner is the
    scalar staircase the sweep then runs directly).

    **Resource-diversity rule.**  With ``keep_resource_diversity`` a
    dominated candidate still survives when its resource count (buffers +
    nTSVs) is strictly lower than the *minimum resource count among the kept
    candidates that dominate it*.  The bound is dominator-relative on
    purpose: a kept candidate that does **not** dominate the contender (a
    cheap solution elsewhere on the staircase, or one that loses at some
    corner) says nothing about whether the contender buys a
    resource saving over the solutions that actually beat it, so it must not
    veto the survival.  Survivors join the kept set and participate as
    dominators for later candidates.  This single definition is the
    executable spec both DP backends implement (the object sweep here, the
    array sweep in :mod:`repro.insertion.frontier`) and is pinned by
    differential tests.
    """
    if not candidates:
        return []
    scalar = len(candidates[0].corner_capacitance) == 1
    # Sort by worst-corner capacitance, then delay: a sweep keeps the
    # lower-left staircase.
    ordered = sorted(
        candidates,
        key=lambda c: (c.worst_capacitance, c.worst_max_delay, c.resource_count),
    )
    kept: list[CandidateSolution] = []
    best_delay = float("inf")
    for cand in ordered:
        delay = cand.worst_max_delay
        dominators: list[CandidateSolution] | None = None
        if scalar:
            # Sorted by capacitance, so every kept candidate is no worse in
            # cap: the staircase test against the best kept delay is exactly
            # "some kept candidate dominates this one".
            dominated = delay >= best_delay - tol
        elif keep_resource_diversity:
            # The diversity exception needs the dominator set anyway, so
            # collect it in one pass instead of re-testing dominance below.
            dominators = [k for k in kept if k.dominates(cand, tol)]
            dominated = bool(dominators)
        else:
            # Vector dominance: a per-corner dominator sorts no later than
            # its victims (up to tol), so testing against the kept set
            # suffices.
            dominated = any(keeper.dominates(cand, tol) for keeper in kept)
        if dominated and keep_resource_diversity:
            if dominators is None:
                # One corner: every kept candidate sorts no later in cap, so
                # it dominates exactly when it is no slower.  This is
                # ``dominates`` without the two tuple walks that made this
                # list the one-corner diversity sweep's main cost.
                dominators = [k for k in kept if k.worst_max_delay <= delay + tol]
            resource_floor = min(k.resource_count for k in dominators)
            dominated = cand.resource_count >= resource_floor
        if not dominated:
            kept.append(cand)
            best_delay = min(best_delay, delay)
    return kept


def prune_per_side(
    candidates: Sequence[CandidateSolution],
    max_capacitance: float | None = None,
    keep_resource_diversity: bool = False,
    max_candidates_per_side: int | None = None,
) -> list[CandidateSolution]:
    """The paper's pruning: dominance applied separately per upstream side.

    Args:
        candidates: candidate set of one DP node.
        max_capacitance: when given, candidates above this load are removed
            first (maximum driven-capacitance constraint).
        keep_resource_diversity: see :func:`prune_dominated`.
        max_candidates_per_side: optional hard cap (beam width) per side; the
            candidates kept are those with the smallest delays, preserving
            the latency-optimality of the DP in practice while bounding the
            O(k^2) merge cost.

    Returns:
        The pruned candidate list, front-side candidates first.
    """
    pool = list(candidates)
    if max_capacitance is not None:
        pool = filter_max_cap(pool, max_capacitance)
    by_side: dict[Side, list[CandidateSolution]] = defaultdict(list)
    for cand in pool:
        by_side[cand.up_side].append(cand)
    result: list[CandidateSolution] = []
    for side in (Side.FRONT, Side.BACK):
        pruned = prune_dominated(
            by_side.get(side, []), keep_resource_diversity=keep_resource_diversity
        )
        if max_candidates_per_side is not None and len(pruned) > max_candidates_per_side:
            pruned = _beam_select(pruned, max_candidates_per_side)
        result.extend(pruned)
    return result


def _beam_select(
    candidates: list[CandidateSolution], beam_width: int
) -> list[CandidateSolution]:
    """Keep ``beam_width`` candidates spread across the (cap, delay) staircase.

    Keeping only the lowest-delay candidates would bias the beam toward
    high-capacitance solutions that leave no head-room for the wires above
    them, so the beam samples the staircase evenly: the lowest-capacitance
    and the lowest-delay candidates are always retained and the rest are
    taken at even intervals in between, along the worst-corner staircase
    the dominance sweep sorted by.
    """
    ordered = sorted(
        candidates, key=lambda c: (c.worst_capacitance, c.worst_max_delay)
    )
    if beam_width <= 1:
        return [min(ordered, key=lambda c: c.worst_max_delay)]
    last = len(ordered) - 1
    indices = {round(i * last / (beam_width - 1)) for i in range(beam_width)}
    return [ordered[i] for i in sorted(indices)]
