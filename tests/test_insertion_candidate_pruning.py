"""Unit tests for DP candidates, dominance pruning, and MOES selection."""

from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.pareto import pareto_front
from repro.insertion import (
    PATTERNS,
    CandidateSolution,
    ConcurrentInserter,
    MoesWeights,
    filter_max_cap,
    prune_dominated,
    prune_per_side,
    select_by_moes,
    select_min_latency,
)
from repro.insertion.patterns import P_BUFFER
from repro.tech.layers import Side


def cand(side=Side.FRONT, cap=10.0, dmax=50.0, dmin=None, buffers=0, ntsvs=0):
    return CandidateSolution(
        up_side=side,
        capacitance=cap,
        max_delay=dmax,
        min_delay=dmin if dmin is not None else dmax,
        buffer_count=buffers,
        ntsv_count=ntsvs,
    )


class TestCandidateSolution:
    def test_skew_and_resources(self):
        c = cand(dmax=50.0, dmin=30.0, buffers=2, ntsvs=3)
        assert c.skew == 20.0
        assert c.resource_count == 5

    def test_invalid_candidates_rejected(self):
        with pytest.raises(ValueError):
            cand(cap=-1.0)
        with pytest.raises(ValueError):
            CandidateSolution(Side.FRONT, 1.0, max_delay=1.0, min_delay=2.0)
        with pytest.raises(ValueError):
            cand(buffers=-1)

    def test_dominance(self):
        better = cand(cap=5.0, dmax=10.0)
        worse = cand(cap=6.0, dmax=12.0)
        assert better.dominates(worse)
        assert better.strictly_dominates(worse)
        assert not worse.dominates(better)

    def test_equal_candidates_dominate_but_not_strictly(self):
        a, b = cand(), cand()
        assert a.dominates(b)
        assert not a.strictly_dominates(b)

    def test_with_pattern_accumulates_resources(self):
        base = cand(buffers=1, ntsvs=1)
        derived = base.with_pattern(
            P_BUFFER, capacitance=2.0, max_delay=60.0, min_delay=55.0,
            added_buffers=1, added_ntsvs=0,
        )
        assert derived.buffer_count == 2
        assert derived.ntsv_count == 1
        assert derived.pattern is P_BUFFER
        assert derived.children == (base,)

    def test_merge_requires_matching_sides(self):
        with pytest.raises(ValueError):
            CandidateSolution.merge(cand(side=Side.FRONT), cand(side=Side.BACK))

    def test_merge_combines_worst_case(self):
        a = cand(cap=3.0, dmax=40.0, dmin=20.0, buffers=1)
        b = cand(cap=4.0, dmax=50.0, dmin=30.0, ntsvs=2)
        merged = CandidateSolution.merge(a, b)
        assert merged.capacitance == 7.0
        assert merged.max_delay == 50.0
        assert merged.min_delay == 20.0
        assert merged.buffer_count == 1
        assert merged.ntsv_count == 2
        assert merged.children == (a, b)


class TestPruning:
    def test_filter_max_cap(self):
        pool = [cand(cap=10.0), cand(cap=70.0)]
        kept = filter_max_cap(pool, 60.0)
        assert len(kept) == 1
        assert kept[0].capacitance == 10.0

    def test_filter_max_cap_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            filter_max_cap([], 0.0)

    def test_prune_dominated_keeps_staircase(self):
        pool = [
            cand(cap=1.0, dmax=100.0),
            cand(cap=5.0, dmax=50.0),
            cand(cap=10.0, dmax=20.0),
            cand(cap=6.0, dmax=60.0),   # dominated by (5, 50)
            cand(cap=12.0, dmax=25.0),  # dominated by (10, 20)
        ]
        kept = prune_dominated(pool)
        assert len(kept) == 3
        caps = sorted(c.capacitance for c in kept)
        assert caps == [1.0, 5.0, 10.0]

    def test_prune_dominated_empty(self):
        assert prune_dominated([]) == []

    def test_resource_diversity_keeps_cheaper_dominated_candidates(self):
        pool = [
            cand(cap=1.0, dmax=10.0, buffers=5),
            cand(cap=2.0, dmax=20.0, buffers=0),  # dominated but much cheaper
        ]
        strict = prune_dominated(pool, keep_resource_diversity=False)
        diverse = prune_dominated(pool, keep_resource_diversity=True)
        assert len(strict) == 1
        assert len(diverse) == 2

    def test_prune_per_side_groups_by_side(self):
        pool = [
            cand(side=Side.FRONT, cap=1.0, dmax=10.0),
            cand(side=Side.BACK, cap=2.0, dmax=50.0),
            cand(side=Side.BACK, cap=3.0, dmax=60.0),  # dominated within BACK
        ]
        kept = prune_per_side(pool)
        sides = [c.up_side for c in kept]
        assert sides.count(Side.FRONT) == 1
        assert sides.count(Side.BACK) == 1

    def test_prune_per_side_applies_cap_limit(self):
        pool = [cand(cap=100.0, dmax=1.0), cand(cap=10.0, dmax=5.0)]
        kept = prune_per_side(pool, max_capacitance=60.0)
        assert len(kept) == 1 and kept[0].capacitance == 10.0

    def test_beam_width_limits_candidates(self):
        pool = [cand(cap=float(i), dmax=100.0 - i) for i in range(20)]
        kept = prune_per_side(pool, max_candidates_per_side=5)
        assert len(kept) == 5
        # The beam samples the staircase: both extremes survive so that
        # upstream nodes can still buffer (low cap) or go fast (low delay).
        assert min(c.capacitance for c in kept) == 0.0
        assert min(c.max_delay for c in kept) == 81.0

    def test_beam_width_one_keeps_fastest(self):
        pool = [cand(cap=float(i), dmax=100.0 - i) for i in range(10)]
        kept = prune_per_side(pool, max_candidates_per_side=1)
        assert len(kept) == 1
        assert kept[0].max_delay == 91.0


class TestSelection:
    def test_moes_weights_validation(self):
        with pytest.raises(ValueError):
            MoesWeights(alpha=-1)
        with pytest.raises(ValueError):
            MoesWeights(alpha=0, beta=0, gamma=0)

    def test_moes_score_matches_eq3(self):
        weights = MoesWeights(alpha=1.0, beta=10.0, gamma=1.0)
        c = cand(dmax=100.0, buffers=3, ntsvs=7)
        assert weights.score(c) == pytest.approx(100 + 30 + 7)

    def test_select_by_moes_prefers_cheap_solution(self):
        expensive_fast = cand(dmax=90.0, buffers=20, ntsvs=50)
        cheap_slightly_slower = cand(dmax=100.0, buffers=5, ntsvs=5)
        chosen = select_by_moes([expensive_fast, cheap_slightly_slower])
        assert chosen is cheap_slightly_slower

    def test_select_min_latency_ignores_resources(self):
        expensive_fast = cand(dmax=90.0, buffers=20, ntsvs=50)
        cheap_slightly_slower = cand(dmax=100.0, buffers=5, ntsvs=5)
        chosen = select_min_latency([expensive_fast, cheap_slightly_slower])
        assert chosen is expensive_fast

    def test_min_latency_tie_break_on_resources(self):
        a = cand(dmax=90.0, buffers=9)
        b = cand(dmax=90.0, buffers=2)
        assert select_min_latency([a, b]) is b

    def test_selection_from_empty_set_rejected(self):
        with pytest.raises(ValueError):
            select_by_moes([])
        with pytest.raises(ValueError):
            select_min_latency([])

    def test_pareto_front(self):
        a = cand(dmax=100.0, buffers=1, ntsvs=1)
        b = cand(dmax=90.0, buffers=2, ntsvs=1)
        c = cand(dmax=95.0, buffers=3, ntsvs=2)  # dominated by b
        front = pareto_front(
            [a, b, c],
            lambda c: (c.worst_max_delay, c.buffer_count, c.ntsv_count),
        )
        assert a in front and b in front and c not in front


class TestResourceDiversityRule:
    """The dominator-relative resource-diversity rule (one rule, both DP
    backends): a dominated candidate survives iff its resource count is
    strictly below the minimum resource count among the kept candidates
    that actually dominate it."""

    def test_non_dominating_cheap_keeper_does_not_veto_survival(self):
        # c1 (delay 10, 0 resources) does NOT dominate c3 (delay 6): only
        # c2 (delay 5, 4 resources) does.  c3 uses 2 < 4 resources, so the
        # rule keeps it — the old min-over-all-kept bound (0) wrongly
        # dropped it.
        c1 = cand(cap=1.0, dmax=10.0)
        c2 = cand(cap=2.0, dmax=5.0, buffers=4)
        c3 = cand(cap=3.0, dmax=6.0, buffers=2)
        kept = prune_dominated([c1, c2, c3], keep_resource_diversity=True)
        assert c3 in kept
        assert kept == [c1, c2, c3]

    def test_candidate_matching_dominator_resources_still_dies(self):
        c1 = cand(cap=1.0, dmax=5.0, buffers=2)
        c2 = cand(cap=2.0, dmax=6.0, buffers=2)  # dominated, equal resources
        kept = prune_dominated([c1, c2], keep_resource_diversity=True)
        assert kept == [c1]

    def test_corner_aware_floor_is_dominator_relative(self):
        def corner_cand(caps, dmaxs, buffers=0):
            return CandidateSolution(
                up_side=Side.FRONT,
                capacitance=caps[0],
                max_delay=dmaxs[0],
                min_delay=0.0,
                buffer_count=buffers,
                corner_capacitance=caps,
                corner_max_delay=dmaxs,
                corner_min_delay=(0.0,) * len(caps),
            )

        # b is kept (wins corner 1 against a) and cheap, but does NOT
        # vector-dominate c; only a (4 buffers) does.  c survives on the
        # dominator-relative floor, where the stale min-over-kept bound
        # (b's 0 resources) would have pruned it.
        a = corner_cand((1.0, 1.0), (5.0, 5.0), buffers=4)
        b = corner_cand((2.0, 2.0), (9.0, 2.0), buffers=0)
        c = corner_cand((3.0, 3.0), (6.0, 6.0), buffers=2)
        assert a.dominates(c) and not b.dominates(c)
        kept = prune_dominated([a, b, c], keep_resource_diversity=True)
        assert kept == [a, b, c]
        # Without the diversity exception the vector-dominated c dies.
        assert prune_dominated([a, b, c]) == [a, b]

    def test_diversity_survivors_act_as_dominators_later(self):
        c1 = cand(cap=1.0, dmax=5.0, buffers=4)
        c2 = cand(cap=2.0, dmax=7.0, buffers=1)  # survives via diversity
        c3 = cand(cap=3.0, dmax=8.0, buffers=1)  # dominated by c2, equal cost
        kept = prune_dominated([c1, c2, c3], keep_resource_diversity=True)
        assert kept == [c1, c2]


# ------------------------------------------------- the one-corner rule spec
def scalar_prune_dominated(candidates, keep_resource_diversity=False, tol=1e-9):
    """The classic scalar dominance sweep: van Ginneken's staircase on
    (capacitance, max delay), with the dominator-relative diversity rule."""
    ordered = sorted(
        candidates, key=lambda c: (c.capacitance, c.max_delay, c.resource_count)
    )
    kept = []
    best_delay = float("inf")
    for cand in ordered:
        dominated = cand.max_delay >= best_delay - tol
        if dominated and keep_resource_diversity:
            dominators = [
                k
                for k in kept
                if k.capacitance <= cand.capacitance + tol
                and k.max_delay <= cand.max_delay + tol
            ]
            dominated = cand.resource_count >= min(k.resource_count for k in dominators)
        if not dominated:
            kept.append(cand)
            best_delay = min(best_delay, cand.max_delay)
    return kept


def scalar_beam_select(candidates, beam_width):
    """The classic scalar beam: an even sample of the (cap, delay) staircase,
    or the fastest candidate at width 1."""
    ordered = sorted(candidates, key=lambda c: (c.capacitance, c.max_delay))
    if beam_width <= 1:
        return [min(ordered, key=lambda c: c.max_delay)]
    last = len(ordered) - 1
    indices = {round(i * last / (beam_width - 1)) for i in range(beam_width)}
    return [ordered[i] for i in sorted(indices)]


def scalar_prune_per_side(
    candidates,
    max_capacitance=None,
    keep_resource_diversity=False,
    max_candidates_per_side=None,
):
    """The classic scalar per-side pruning: load filter, sweep, beam."""
    pool = list(candidates)
    if max_capacitance is not None:
        pool = [c for c in pool if c.capacitance <= max_capacitance + 1e-9]
    by_side = defaultdict(list)
    for cand in pool:
        by_side[cand.up_side].append(cand)
    result = []
    for side in (Side.FRONT, Side.BACK):
        pruned = scalar_prune_dominated(by_side[side], keep_resource_diversity)
        beam = max_candidates_per_side
        if beam is not None and len(pruned) > beam:
            pruned = scalar_beam_select(pruned, beam)
        result.extend(pruned)
    return result


#: Sub- and super-tolerance offsets on a coarse grid: exact duplicates, ties
#: within 1e-9 and clear gaps all occur.
JITTER = st.sampled_from([0.0, 4e-10, 8e-10, 1.6e-9])


@st.composite
def one_corner_candidates(draw, min_size=0):
    """One-corner candidates on both sides; half pass their 1-tuples
    explicitly, half leave them to ``__post_init__``, and some repeat an
    earlier candidate's values as a new object.  Staircase-shaped sets
    (delay falling as capacitance grows) keep more candidates than the beam
    width, so the beam samples them."""
    staircase = draw(st.booleans())
    candidates = []
    for _ in range(draw(st.integers(min_size, 32))):
        if candidates and draw(st.integers(0, 4)) == 0:
            candidates.append(replace(draw(st.sampled_from(candidates))))
            continue
        step = draw(st.integers(1, 16))
        cap = step * 0.5 + draw(JITTER)
        if staircase:
            rank = 17 - step + draw(st.integers(0, 2))
        else:
            rank = draw(st.integers(1, 16))
        max_delay = rank * 2.0 + draw(JITTER)
        min_delay = max_delay - draw(st.sampled_from([0.0, 1.0, 2.0]))
        corners = (
            {
                "corner_capacitance": (cap,),
                "corner_max_delay": (max_delay,),
                "corner_min_delay": (min_delay,),
            }
            if draw(st.booleans())
            else {}
        )
        candidates.append(
            CandidateSolution(
                draw(st.sampled_from([Side.FRONT, Side.BACK])),
                cap,
                max_delay,
                min_delay,
                buffer_count=draw(st.integers(0, 3)),
                ntsv_count=draw(st.integers(0, 3)),
                **corners,
            )
        )
    return candidates


def ids(candidates):
    return [id(c) for c in candidates]


class TestOneCornerRule:
    """At one corner the per-corner rules are the classic scalar DP: the
    vector dominance sweep keeps exactly the staircase, the beam samples the
    same candidates, and merged or pattern-extended candidates mirror their
    only corner in the scalar fields."""

    @settings(deadline=None)
    @given(
        candidates=one_corner_candidates(),
        keep_resource_diversity=st.booleans(),
        beam=st.one_of(st.none(), st.integers(1, 6)),
        max_capacitance=st.sampled_from([None, 2.5]),
    )
    def test_prune_per_side_is_the_scalar_rule(
        self, candidates, keep_resource_diversity, beam, max_capacitance
    ):
        got = prune_per_side(
            candidates,
            max_capacitance=max_capacitance,
            keep_resource_diversity=keep_resource_diversity,
            max_candidates_per_side=beam,
        )
        want = scalar_prune_per_side(
            candidates,
            max_capacitance=max_capacitance,
            keep_resource_diversity=keep_resource_diversity,
            max_candidates_per_side=beam,
        )
        assert ids(got) == ids(want)

    @settings(deadline=None)
    @given(
        steps=st.lists(st.integers(1, 40), min_size=1, max_size=40, unique=True),
        beam=st.integers(1, 6),
    )
    def test_beam_samples_the_scalar_staircase(self, steps, beam):
        # Every candidate is on the staircase, so the beam sees all of them.
        candidates = [
            CandidateSolution(Side.FRONT, step * 0.5, (41 - step) * 2.0, 0.0)
            for step in steps
        ]
        got = prune_per_side(candidates, max_candidates_per_side=beam)
        want = scalar_prune_per_side(candidates, max_candidates_per_side=beam)
        assert ids(got) == ids(want)

    @settings(deadline=None)
    @given(
        candidates=one_corner_candidates(), keep_resource_diversity=st.booleans()
    )
    def test_prune_dominated_is_the_scalar_sweep(
        self, candidates, keep_resource_diversity
    ):
        got = prune_dominated(candidates, keep_resource_diversity)
        want = scalar_prune_dominated(candidates, keep_resource_diversity)
        assert ids(got) == ids(want)

    @settings(deadline=None)
    @given(
        candidates=one_corner_candidates(min_size=2),
        pattern=st.sampled_from(PATTERNS),
        length=st.sampled_from([0.0, 7.5, 37.0, 180.0]),
    )
    def test_merge_and_with_pattern_mirror_their_only_corner(
        self, pdk, candidates, pattern, length
    ):
        a, b = candidates[0], replace(candidates[1], up_side=candidates[0].up_side)
        merged = CandidateSolution.merge(a, b)
        assert merged.corner_capacitance == (a.capacitance + b.capacitance,)
        assert merged.corner_max_delay == (max(a.max_delay, b.max_delay),)
        assert merged.corner_min_delay == (min(a.min_delay, b.min_delay),)
        derived = a.with_pattern(pattern, 2.0, 60.0, 55.0, 1, 0)
        assert derived.corner_capacitance == (derived.capacitance,)
        assert derived.corner_max_delay == (derived.max_delay,)
        assert derived.corner_min_delay == (derived.min_delay,)
        # The DP's pattern step on the nominal batch equals the scalar cost.
        inserter = ConcurrentInserter(pdk)
        applied = inserter._apply_pattern(pattern, length, a)
        cost = inserter._pattern_cost(pattern, length, a.capacitance, pdk, True)
        assert (applied is None) == (cost is None)
        if applied is not None:
            delay, cap = cost
            assert applied.capacitance == cap
            assert applied.max_delay == a.max_delay + delay
            assert applied.min_delay == a.min_delay + delay
            assert applied.corner_capacitance == (applied.capacitance,)
            assert applied.corner_max_delay == (applied.max_delay,)
            assert applied.corner_min_delay == (applied.min_delay,)
