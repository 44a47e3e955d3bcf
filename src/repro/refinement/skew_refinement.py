"""Resource-aware end-point buffer insertion for skew refinement.

The refinement is triggered when the tree's skew exceeds ``p%`` of its
maximum latency (``p = 23`` in the paper).  It then refines
``n = min(N * t, m)`` end-points — low-level cluster centroids (tap nodes) —
by inserting one buffer at each centroid, which shifts the arrival times of
that cluster's sinks without touching the trunk.

Two orderings are provided (see DESIGN.md, "Interpretation notes"):

* ``pad_fast`` (default): refine the end-points whose sinks arrive earliest.
  The inserted buffer delays the whole cluster, closing the gap to the
  slowest sink and reducing skew while leaving latency untouched — this is
  the behaviour shown in Fig. 11.
* ``shield_slow``: refine the end-points whose sinks arrive latest.  The
  buffer decouples the leaf-net load from the trunk, which can reduce the
  slow paths when the shielding gain exceeds the buffer delay.

**End-points.**  :func:`end_point_rows` and :func:`rank_end_points` define
the end-points once, on design rows, for the refiner and for the
criticality oracle of baselines [6] and [29]
(:mod:`repro.baselines.timing_critical`, latest-first).  The end-points are
the taps in pre-order; a design without taps (the flat DME ablation, an
OpenROAD-like tree) uses the non-root parents of its sinks.  Each is keyed
by the minimum (earliest-first) or maximum (latest-first) sink arrival over
its whole subtree, one reduction up the design's levels, and a stable sort
keeps end-point order among equal keys.  Whole subtrees, not each sink's
nearest end-point: flat DME trees can hang one sink parent below another.

**Corner-aware refinement.**  Pass ``corners=`` to optimise the worst corner
of a PVT batch instead of the nominal point: end-points are ranked by the
arrivals of the *worst-skew corner*, and an edit is accepted only when it
improves the worst-corner skew without degrading the worst-corner latency
or regressing the nominal skew beyond ``nominal_skew_budget``.  Every
measurement is one corner-batched (incremental) ``analyze_corners`` pass,
and nominal refinement is its one-corner case: the worst corner is the
nominal one and the budget clause follows from the skew clause.  The
engine is created once and never re-instantiated in the loop.

The refiner edits a :class:`~repro.ir.design.DesignArrays` in place with
either timing engine (both walk the design's rows).  A trial records the
row of the buffer it appended, and a rejected trial pops it again.  Compile
an object tree with :meth:`DesignArrays.from_clock_tree` first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ir.design import (
    KIND_BUFFER,
    KIND_ROOT,
    KIND_SINK,
    KIND_TAP,
    DesignArrays,
    subtree_totals,
)
from repro.refinement.adaptive import refined_endpoint_count
from repro.tech.corners import CornerSet, Scenario
from repro.tech.pdk import Pdk
from repro.timing import TimingResult, create_engine

#: An end-point buffer trial: the buffer's row and the ``(slot, row)`` of
#: every sink it adopted from the end-point.
_EndpointBuffer = tuple[int, list[tuple[int, int]]]


def end_point_rows(design: DesignArrays) -> list[int]:
    """The end-point rows of ``design``: its taps, in pre-order.

    A design without taps (the flat DME ablation, an OpenROAD-like tree)
    uses the non-root parents of its sinks instead, ordered by where each
    parent's first sink falls in pre-order.
    """
    order = np.asarray(design.rows_preorder(), dtype=np.int64)
    kinds = design.kind[order]
    taps = order[kinds == KIND_TAP]
    if taps.size:
        return taps.tolist()
    parents = design.parent_row[order[kinds == KIND_SINK]]
    _unique, first = np.unique(parents, return_index=True)
    parents = parents[np.sort(first)]
    return parents[(parents >= 0) & (design.kind[parents] != KIND_ROOT)].tolist()


def arrivals_by_row(design: DesignArrays, timing: TimingResult) -> np.ndarray:
    """``timing``'s sink arrivals on ``design``'s rows (NaN off the sinks)."""
    arrivals = np.full(design.size, np.nan)
    arrivals[[design.name_to_row[name] for name in timing.sink_names]] = (
        timing.arrival_array
    )
    return arrivals


def rank_end_points(
    design: DesignArrays, arrivals: np.ndarray, latest_first: bool = False
) -> list[int]:
    """:func:`end_point_rows` ordered by the sink arrivals below each one.

    Earliest-first keys every end-point by the minimum sink arrival over its
    whole subtree and sorts ascending; latest-first keys it by the maximum
    and sorts descending.  The sort is stable, so equal keys keep
    end-point order, and an end-point without a sink below it is dropped.
    ``arrivals`` holds one value per row (:func:`arrivals_by_row`); only
    the sink rows are read.
    """
    fill = -np.inf if latest_first else np.inf
    sinks = design.kind[: design.size] == KIND_SINK
    keys = subtree_totals(
        design,
        np.where(sinks, arrivals, fill),
        np.maximum if latest_first else np.minimum,
    ).tolist()
    rows = [row for row in end_point_rows(design) if keys[row] != fill]
    return sorted(rows, key=keys.__getitem__, reverse=latest_first)


@dataclass
class _TimingSnapshot:
    """One measurement of the tree: one corner-batched analysis.

    ``results`` holds one :class:`TimingResult` per corner (a single one for
    nominal refinement).  The worst-skew corner's arrivals by row, which
    ranking and padded-sink selection read, are built on first use.
    """

    results: dict[str, TimingResult]
    primary: str
    corner_skews: dict[str, float] = field(init=False)
    corner_latencies: dict[str, float] = field(init=False)
    arrivals: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.corner_skews = {name: r.skew for name, r in self.results.items()}
        self.corner_latencies = {name: r.latency for name, r in self.results.items()}

    @property
    def nominal(self) -> TimingResult:
        return self.results[self.primary]

    @property
    def nominal_skew(self) -> float:
        return self.corner_skews[self.primary]

    @property
    def worst_skew(self) -> float:
        return max(self.corner_skews.values())

    @property
    def worst_latency(self) -> float:
        return max(self.corner_latencies.values())

    @property
    def worst_corner(self) -> str:
        """Name of the worst-skew corner (the primary when nominal-only)."""
        return max(self.corner_skews, key=self.corner_skews.__getitem__)

    @property
    def ranking(self) -> TimingResult:
        """The worst-skew corner's result, the one end-points are ranked by."""
        return self.results[self.worst_corner]

    def ranking_arrivals(self, design: DesignArrays) -> np.ndarray:
        """:attr:`ranking`'s sink arrivals on ``design``'s rows."""
        if self.arrivals is None:
            self.arrivals = arrivals_by_row(design, self.ranking)
        return self.arrivals

    def violates(self, fraction: float) -> bool:
        """Skew-trigger check: any corner exceeding ``fraction`` x latency."""
        return any(
            self.corner_skews[name] > fraction * self.corner_latencies[name]
            for name in self.corner_skews
        )


@dataclass
class SkewRefinementReport:
    """Before/after record of one skew refinement run.

    ``before``/``after`` always report the nominal (primary) corner; the
    ``corner_skews_*`` dicts carry the whole batch for corner-aware runs
    (and stay empty for nominal-only refinement).
    """

    triggered: bool
    refined_endpoints: int
    added_buffers: int
    before: TimingResult
    after: TimingResult
    corner_skews_before: dict[str, float] = field(default_factory=dict)
    corner_skews_after: dict[str, float] = field(default_factory=dict)

    @property
    def skew_reduction(self) -> float:
        """Absolute skew improvement (ps); positive when skew decreased."""
        return self.before.skew - self.after.skew

    @property
    def latency_increase(self) -> float:
        """Latency change (ps); small positive values are expected."""
        return self.after.latency - self.before.latency

    @property
    def worst_skew_before(self) -> float:
        """Worst-corner skew before refinement (nominal when no corners)."""
        if not self.corner_skews_before:
            return self.before.skew
        return max(self.corner_skews_before.values())

    @property
    def worst_skew_after(self) -> float:
        """Worst-corner skew after refinement (nominal when no corners)."""
        if not self.corner_skews_after:
            return self.after.skew
        return max(self.corner_skews_after.values())

    @property
    def worst_skew_reduction(self) -> float:
        """Worst-corner skew improvement (ps); positive when it decreased."""
        return self.worst_skew_before - self.worst_skew_after

    def summary(self) -> dict[str, float | int | bool]:
        summary: dict[str, float | int | bool] = {
            "triggered": self.triggered,
            "refined_endpoints": self.refined_endpoints,
            "added_buffers": self.added_buffers,
            "skew_before_ps": round(self.before.skew, 3),
            "skew_after_ps": round(self.after.skew, 3),
            "latency_before_ps": round(self.before.latency, 3),
            "latency_after_ps": round(self.after.latency, 3),
        }
        if self.corner_skews_before:
            summary["worst_skew_before_ps"] = round(self.worst_skew_before, 3)
            summary["worst_skew_after_ps"] = round(self.worst_skew_after, 3)
        return summary


class SkewRefiner:
    """Implements the paper's Section III-D post-processing step."""

    def __init__(
        self,
        pdk: Pdk,
        skew_trigger_fraction: float = 0.23,
        max_endpoints: int = 33,
        strategy: str = "pad_fast",
        force: bool = False,
        engine: str | None = None,
        corners: CornerSet | Scenario | str | None = None,
        nominal_skew_budget: float = 0.0,
    ) -> None:
        if not 0 < skew_trigger_fraction <= 1:
            raise ValueError("the skew trigger fraction must be in (0, 1]")
        if max_endpoints < 1:
            raise ValueError("the maximum end-point count must be at least 1")
        if strategy not in ("pad_fast", "shield_slow"):
            raise ValueError(f"unknown refinement strategy {strategy!r}")
        if nominal_skew_budget < 0:
            raise ValueError("the nominal skew budget must be non-negative")
        self.pdk = pdk
        self.skew_trigger_fraction = skew_trigger_fraction
        self.max_endpoints = max_endpoints
        self.strategy = strategy
        self.force = force
        self.nominal_skew_budget = nominal_skew_budget
        # The refiner's trial loop re-times the design after every endpoint
        # edit; the (default) vectorized engine serves those queries from its
        # incremental re-timing path because every design mutator records
        # the edit that covers it, and one corner-batched pass scores all K
        # corners of a trial (K = 1 for nominal refinement).
        self._engine = create_engine(pdk, engine, corners=corners)
        self._primary_name = self._engine.corners[self._engine.primary_index].name
        self._corner_pdks = dict(
            zip(self._engine.corners.names, self._engine.corner_pdks)
        )

    # ----------------------------------------------------------------- public
    @property
    def corners(self) -> CornerSet:
        """The resolved corner set the refiner optimises against."""
        return self._engine.corners

    def refine(self, design: DesignArrays) -> SkewRefinementReport:
        """Refine ``design`` in place and return the before/after report."""
        if not isinstance(design, DesignArrays):
            raise TypeError(
                "SkewRefiner.refine edits a DesignArrays; compile object trees "
                "with DesignArrays.from_clock_tree(tree)"
            )
        before = self._measure(design)
        if not self.force and not before.violates(self.skew_trigger_fraction):
            return self._report(False, 0, 0, before, before)

        sink_count = int(design.sink_rows().size)
        budget = refined_endpoint_count(sink_count, self.max_endpoints)
        ranked = rank_end_points(
            design,
            before.ranking_arrivals(design),
            latest_first=self.strategy == "shield_slow",
        )[:budget]

        added, after = self._refine_batch(design, ranked, before)
        if added == 0:
            added, after = self._refine_greedy(design, ranked, before)
        return self._report(True, len(ranked), added, before, after)

    def _refine_batch(
        self,
        design: DesignArrays,
        ranked: list[int],
        before: _TimingSnapshot,
    ) -> tuple[int, _TimingSnapshot]:
        """Refine all budgeted end-points at once.

        The end-point buffers interact through the shared trunk (shielding a
        leaf net speeds up every sibling path), so refining them together
        lets those interactions cancel; the batch is accepted only when it
        improves the worst-corner skew without degrading the worst-corner
        latency.
        """
        inserted: list[tuple[int, _EndpointBuffer]] = []
        for endpoint in ranked:
            edit = self._insert_endpoint_buffer(design, endpoint, before)
            if edit is not None:
                inserted.append((endpoint, edit))
        if not inserted:
            return 0, before
        after = self._measure(design)
        if not self._improves(after, before, before):
            for endpoint, edit in reversed(inserted):
                self._remove_endpoint_buffer(design, endpoint, edit)
            return 0, before
        return len(inserted), after

    def _refine_greedy(
        self,
        design: DesignArrays,
        ranked: list[int],
        before: _TimingSnapshot,
    ) -> tuple[int, _TimingSnapshot]:
        """Refine end-points one at a time, keeping only improving insertions."""
        added = 0
        current = before
        for endpoint in ranked:
            if not self.force and not current.violates(self.skew_trigger_fraction):
                break
            edit = self._insert_endpoint_buffer(design, endpoint, current)
            if edit is None:
                continue
            trial = self._measure(design)
            if self._improves(trial, current, before):
                current = trial
                added += 1
            else:
                self._remove_endpoint_buffer(design, endpoint, edit)
        return added, current

    # --------------------------------------------------------------- internals
    def _measure(self, design: DesignArrays) -> _TimingSnapshot:
        """One corner-batched engine pass over the design.

        Slews are skipped: nothing in the refiner reads them.
        """
        return _TimingSnapshot(
            self._engine.analyze_corners(design, with_slew=False),
            self._primary_name,
        )

    def _improves(
        self,
        trial: _TimingSnapshot,
        current: _TimingSnapshot,
        initial: _TimingSnapshot,
    ) -> bool:
        """Accept/reject rule for one trial edit (or the whole batch).

        The worst-corner skew strictly improves, the worst-corner latency
        does not degrade, and the *nominal* skew never regresses more than
        ``nominal_skew_budget`` past its initial value.  With one corner the
        last clause follows from the first: skew only ever decreases.
        """
        return (
            trial.worst_skew < current.worst_skew - 1e-9
            and trial.worst_latency <= current.worst_latency + 1e-6
            and trial.nominal_skew
            <= initial.nominal_skew + self.nominal_skew_budget + 1e-9
        )

    def _report(
        self,
        triggered: bool,
        refined_endpoints: int,
        added_buffers: int,
        before: _TimingSnapshot,
        after: _TimingSnapshot,
    ) -> SkewRefinementReport:
        corner_aware = len(self.corners) > 1
        return SkewRefinementReport(
            triggered=triggered,
            refined_endpoints=refined_endpoints,
            added_buffers=added_buffers,
            before=before.nominal,
            after=after.nominal,
            corner_skews_before=dict(before.corner_skews) if corner_aware else {},
            corner_skews_after=dict(after.corner_skews) if corner_aware else {},
        )

    def _padded_sinks(
        self,
        design: DesignArrays,
        endpoint_row: int,
        snapshot: _TimingSnapshot,
    ) -> list[int]:
        """Select the sink rows of the cluster the end-point buffer will drive.

        ``pad_fast`` must not increase latency (Fig. 11), so only the sinks
        that remain below the tree latency after gaining the buffer delay are
        moved behind the new buffer; slower sinks stay directly on the tap.
        The buffer delay is estimated at the worst-skew corner, the operating
        point the accept rule is trying to improve.  ``shield_slow`` moves
        the whole leaf net behind the buffer so the trunk is shielded from
        its load.
        """
        sink_children = [
            child
            for child in design.children_rows[endpoint_row]
            if design.kind[child] == KIND_SINK
        ]
        if not sink_children:
            return []
        if self.strategy == "shield_slow":
            return sink_children
        arrivals = snapshot.ranking_arrivals(design)
        latency = snapshot.ranking.latency
        est_pdk = self._corner_pdks[snapshot.worst_corner]
        layer = est_pdk.front_layer
        endpoint_location = design.location_of(endpoint_row)
        selected = sink_children
        # Two fixed-point passes: the buffer delay depends on the selected load.
        for _ in range(2):
            load = sum(
                layer.wire_capacitance(
                    endpoint_location.manhattan(design.location_of(child))
                )
                + float(design.cap[child])
                for child in selected
            )
            added_delay = est_pdk.buffer.delay(load)
            selected = [
                child
                for child in sink_children
                if arrivals[child] + added_delay <= latency + 1e-9
            ]
            if not selected:
                return []
        return selected

    def _insert_endpoint_buffer(
        self, design: DesignArrays, endpoint_row: int, snapshot: _TimingSnapshot
    ) -> _EndpointBuffer | None:
        """Insert one buffer at the end-point, re-parenting (part of) its leaf net.

        Returns the inserted buffer's row with the ``(slot, row)`` of each
        sink it adopted (``slot`` is the sink's position among the
        end-point's children, ascending), or None when no sink of the
        cluster can profit from the buffer.
        """
        padded = self._padded_sinks(design, endpoint_row, snapshot)
        if not padded:
            return None
        adopted = set(padded)
        slots = [
            (slot, child)
            for slot, child in enumerate(design.children_rows[endpoint_row])
            if child in adopted
        ]
        location = design.location_of(endpoint_row)
        buffer_row = design.add_child(
            endpoint_row,
            design.new_name("sr_buf"),
            KIND_BUFFER,
            location.x,
            location.y,
            side_front=True,
            capacitance=self.pdk.buffer.input_capacitance,
            wire_front=True,
        )
        for sink in padded:
            design.move_child(sink, buffer_row)
        return buffer_row, slots

    @staticmethod
    def _remove_endpoint_buffer(
        design: DesignArrays, endpoint_row: int, edit: _EndpointBuffer
    ) -> None:
        """Undo :meth:`_insert_endpoint_buffer` (used when a trial is rejected).

        Each sink goes back to its slot, in ascending slot order, so the
        end-point's children order is restored exactly.  The buffer must be
        the design's newest row.
        """
        buffer_row, slots = edit
        for slot, sink in slots:
            design.move_child(sink, endpoint_row, slot)
        design.remove_leaf(buffer_row)
