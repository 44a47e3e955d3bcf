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

**Corner-aware refinement.**  Pass ``corners=`` to optimise the worst corner
of a PVT batch instead of the nominal point: end-points are ranked by the
arrivals of the *worst-skew corner*, and an edit is accepted only when it
improves the worst-corner skew without degrading the worst-corner latency
or regressing the nominal skew beyond ``nominal_skew_budget``.  Every trial
is scored by one corner-batched (incremental) engine pass — the engine is
created once and never re-instantiated in the loop.

The refiner edits a :class:`~repro.ir.design.DesignArrays` in place with
either timing engine (both walk the design's rows).  A rejected trial pops
the buffer rows it appended, newest first.  Compile an object tree with
:meth:`DesignArrays.from_clock_tree` first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.design import (
    KIND_BUFFER,
    KIND_ROOT,
    KIND_SINK,
    KIND_TAP,
    DesignArrays,
)
from repro.refinement.adaptive import refined_endpoint_count
from repro.tech.corners import CornerSet, Scenario
from repro.tech.pdk import Pdk
from repro.timing import TimingResult, create_engine

#: An end-point buffer trial: the buffer's name and the ``(slot, row)`` of
#: every sink it adopted from the end-point.
_EndpointBuffer = tuple[str, list[tuple[int, int]]]


@dataclass
class _TimingSnapshot:
    """One measurement of the tree: per-corner skew/latency scalars.

    The trial loop only ever needs these scalars (one batched
    ``skew_per_corner``/``latency_per_corner`` pass each, served from the
    engine's cached sink-arrival matrix); the full per-sink ``nominal`` and
    ``ranking`` results are attached — by :meth:`SkewRefiner._attach_arrivals`
    while the design is in this snapshot's state — only where arrivals are
    actually consulted: the initial measurement, accepted trials, and the
    report.  Nominal-only refinement carries a single (primary) corner.
    """

    corner_skews: dict[str, float]
    corner_latencies: dict[str, float]
    primary: str
    nominal: TimingResult | None = None
    ranking: TimingResult | None = None

    @property
    def nominal_skew(self) -> float:
        return self.corner_skews[self.primary]

    @property
    def nominal_latency(self) -> float:
        return self.corner_latencies[self.primary]

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

    def violates(self, fraction: float) -> bool:
        """Skew-trigger check: any corner exceeding ``fraction`` x latency."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
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
        # the edit that covers it — corner-batched when corners are given,
        # so one pass scores all K corners of a trial.
        self._engine = create_engine(pdk, engine, corners=corners)
        self._corner_aware = corners is not None and len(self._engine.corners) > 1
        self._primary_name = self._engine.corners[self._engine.primary_index].name
        self._corner_pdks = (
            dict(zip(self._engine.corners.names, self._engine.corner_pdks))
            if self._corner_aware
            else {}
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
        before = self._measure(design, with_arrivals=True)
        if not self.force and not before.violates(self.skew_trigger_fraction):
            return self._report(False, 0, 0, before, before)

        endpoints = self._end_points(design)
        sink_count = int(design.sink_rows().size)
        budget = refined_endpoint_count(sink_count, self.max_endpoints)
        ranked = self._rank_endpoints(design, endpoints, before.ranking)[:budget]

        added, after = self._refine_batch(design, ranked, before)
        if added == 0:
            added, after = self._refine_greedy(design, ranked, before)
        return self._report(True, len(ranked), added, before, after)

    def _refine_batch(
        self,
        design: DesignArrays,
        ranked: list[str],
        before: _TimingSnapshot,
    ) -> tuple[int, _TimingSnapshot]:
        """Refine all budgeted end-points at once.

        The end-point buffers interact through the shared trunk (shielding a
        leaf net speeds up every sibling path), so refining them together
        lets those interactions cancel; the batch is accepted only when it
        improves skew without degrading latency (worst-corner skew/latency
        when the refiner runs corner-aware).
        """
        inserted: list[tuple[str, _EndpointBuffer]] = []
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
        self._attach_arrivals(after, design)
        return len(inserted), after

    def _refine_greedy(
        self,
        design: DesignArrays,
        ranked: list[str],
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
                # The accepted trial becomes the snapshot later padded-sink
                # selections consult, so it needs arrivals (the design is in
                # exactly this trial's state here).
                self._attach_arrivals(trial, design)
                current = trial
                added += 1
            else:
                self._remove_endpoint_buffer(design, endpoint, edit)
        return added, current

    # --------------------------------------------------------------- internals
    def _measure(
        self, design: DesignArrays, with_arrivals: bool = False
    ) -> _TimingSnapshot:
        """One engine pass over the design (corner-batched when corner-aware).

        The corner-aware per-trial hot path reads only per-corner
        skew/latency scalars — both batched calls sync the same cached
        engine state (the vectorized engine serves them from its cached
        sink-arrival matrix), so a trial never builds K per-sink
        dictionaries.  The nominal path keeps the classic single
        ``analyze`` per trial (one full traversal on the reference engine),
        which also makes its arrivals free to attach.  Slews are skipped
        throughout: nothing in the refiner reads them.
        """
        if not self._corner_aware:
            nominal = self._engine.analyze(design, with_slew=False)
            return _TimingSnapshot(
                corner_skews={self._primary_name: nominal.skew},
                corner_latencies={self._primary_name: nominal.latency},
                primary=self._primary_name,
                nominal=nominal,
                ranking=nominal,
            )
        snapshot = _TimingSnapshot(
            corner_skews=self._engine.skew_per_corner(design),
            corner_latencies=self._engine.latency_per_corner(design),
            primary=self._primary_name,
        )
        if with_arrivals:
            self._attach_arrivals(snapshot, design)
        return snapshot

    def _attach_arrivals(
        self, snapshot: _TimingSnapshot, design: DesignArrays
    ) -> None:
        """Materialise the per-sink results arrivals consumers need.

        Must be called while ``design`` is in exactly the state ``snapshot``
        measured — i.e. on the initial snapshot, on an accepted trial, or on
        the final state — never on a rejected (reverted) trial.
        """
        if snapshot.nominal is not None:
            return  # nominal-path snapshots are born with arrivals
        per_corner = self._engine.analyze_corners(design, with_slew=False)
        snapshot.nominal = per_corner[snapshot.primary]
        snapshot.ranking = per_corner[snapshot.worst_corner]

    def _improves(
        self,
        trial: _TimingSnapshot,
        current: _TimingSnapshot,
        initial: _TimingSnapshot,
    ) -> bool:
        """Accept/reject rule for one trial edit (or the whole batch).

        Nominal runs keep the classic rule: skew strictly improves, latency
        does not degrade.  Corner-aware runs apply the same rule to the
        worst-corner skew/latency, plus a guard that the *nominal* skew never
        regresses more than ``nominal_skew_budget`` past its initial value.
        """
        if not self._corner_aware:
            return (
                trial.nominal_skew < current.nominal_skew - 1e-9
                and trial.nominal_latency <= current.nominal_latency + 1e-6
            )
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
        corner_aware = self._corner_aware
        return SkewRefinementReport(
            triggered=triggered,
            refined_endpoints=refined_endpoints,
            added_buffers=added_buffers,
            before=before.nominal,
            after=after.nominal,
            corner_skews_before=dict(before.corner_skews) if corner_aware else {},
            corner_skews_after=dict(after.corner_skews) if corner_aware else {},
        )

    @staticmethod
    def _end_points(design: DesignArrays) -> list[str]:
        """Names of the end-points eligible for refinement: tap nodes (low
        centroids), in pre-order.

        Trees built without dual-level clustering (e.g. the flat DME
        ablation) have no taps; the parents of sinks act as end-points then.
        """
        preorder = design.rows_preorder()
        taps = [design.names[row] for row in preorder if design.kind[row] == KIND_TAP]
        if taps:
            return taps
        parent_rows: dict[int, None] = {}
        for row in preorder:
            parent = int(design.parent_row[row])
            if design.kind[row] == KIND_SINK and parent >= 0:
                parent_rows.setdefault(parent, None)
        return [
            design.names[parent]
            for parent in parent_rows
            if design.kind[parent] != KIND_ROOT
        ]

    def _rank_endpoints(
        self,
        design: DesignArrays,
        endpoints: list[str],
        timing: TimingResult,
    ) -> list[str]:
        """Order end-points by refinement priority according to the strategy.

        ``pad_fast`` processes the clusters whose sinks arrive earliest (they
        define the minimum arrival and therefore the skew); ``shield_slow``
        processes the clusters whose sinks arrive latest.  Corner-aware runs
        rank by the worst-skew corner's arrivals (``timing`` is that
        corner's result then).
        """
        scored: list[tuple[float, str]] = []
        for endpoint in endpoints:
            arrivals = self._sink_arrivals(
                design, design.name_to_row[endpoint], timing
            )
            if not arrivals:
                continue
            key = min(arrivals) if self.strategy == "pad_fast" else max(arrivals)
            scored.append((key, endpoint))
        reverse = self.strategy == "shield_slow"
        scored.sort(key=lambda item: item[0], reverse=reverse)
        return [endpoint for _score, endpoint in scored]

    @staticmethod
    def _sink_arrivals(
        design: DesignArrays, row: int, timing: TimingResult
    ) -> list[float]:
        """Arrivals of the sinks in the subtree below ``row``."""
        arrivals: list[float] = []
        stack = [row]
        while stack:
            current = stack.pop()
            stack.extend(design.children_rows[current])
            if design.kind[current] == KIND_SINK:
                name = design.names[current]
                if name in timing.arrivals:
                    arrivals.append(timing.arrivals[name])
        return arrivals

    def _estimation_pdk(self, snapshot: _TimingSnapshot) -> Pdk:
        """Technology used to estimate the padded-sink buffer delay.

        Corner-aware runs estimate at the worst-skew corner — the operating
        point the accept/reject rule is trying to improve.
        """
        if not self._corner_aware:
            return self.pdk
        return self._corner_pdks[snapshot.worst_corner]

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
        ``shield_slow`` moves the whole leaf net behind the buffer so the
        trunk is shielded from its load.
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
        timing = snapshot.ranking
        if timing is None:  # pragma: no cover - internal misuse guard
            raise RuntimeError("padded-sink selection needs an arrivals snapshot")
        est_pdk = self._estimation_pdk(snapshot)
        latency = timing.latency
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
                if timing.arrivals.get(design.names[child], latency) + added_delay
                <= latency + 1e-9
            ]
            if not selected:
                return []
        return selected

    def _insert_endpoint_buffer(
        self, design: DesignArrays, endpoint: str, snapshot: _TimingSnapshot
    ) -> _EndpointBuffer | None:
        """Insert one buffer at the end-point, re-parenting (part of) its leaf net.

        Returns the inserted buffer's name with the ``(slot, row)`` of each
        sink it adopted (``slot`` is the sink's position among the
        end-point's children, ascending), or None when no sink of the
        cluster can profit from the buffer.
        """
        endpoint_row = design.name_to_row[endpoint]
        padded = self._padded_sinks(design, endpoint_row, snapshot)
        if not padded:
            return None
        adopted = set(padded)
        slots = [
            (slot, child)
            for slot, child in enumerate(design.children_rows[endpoint_row])
            if child in adopted
        ]
        buffer_name = design.new_name("sr_buf")
        location = design.location_of(endpoint_row)
        buffer_row = design.add_child(
            endpoint_row,
            buffer_name,
            KIND_BUFFER,
            location.x,
            location.y,
            side_front=True,
            capacitance=self.pdk.buffer.input_capacitance,
            wire_front=True,
        )
        for sink in padded:
            design.move_child(sink, buffer_row)
        return buffer_name, slots

    @staticmethod
    def _remove_endpoint_buffer(
        design: DesignArrays, endpoint: str, edit: _EndpointBuffer
    ) -> None:
        """Undo :meth:`_insert_endpoint_buffer` (used when a trial is rejected).

        Each sink goes back to its slot, in ascending slot order, so the
        end-point's children order is restored exactly.  The buffer must be
        the design's newest row.
        """
        buffer_name, slots = edit
        endpoint_row = design.name_to_row[endpoint]
        for slot, sink in slots:
            design.move_child(sink, endpoint_row, slot)
        design.remove_leaf(design.name_to_row[buffer_name])
