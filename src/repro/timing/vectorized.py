"""Vectorized array-based Elmore timing engine with incremental re-timing.

:class:`VectorizedElmoreEngine` is a drop-in replacement for
:class:`~repro.timing.ElmoreTimingEngine` that computes the exact same model
(L-type wire reduction, buffer shielding, nTSV series RC, NLDM buffer delay,
PERI slew propagation) on the columns of a
:class:`~repro.ir.design.DesignArrays` instead of per-node Python dicts:

* subtree capacitances and driver loads are one bottom-up sweep over the
  breadth-first levels (one ``bincount`` scatter per level),
* arrivals and slews are one top-down sweep (one gather per level),
* repeated queries on an unchanged design reuse the cached arrays outright.

The engine only reads the design.  It times the rows where they sit: a
level lists each node's children in children order, so no result depends
on how the rows are numbered.

On top of the full pass the engine supports **incremental re-timing**: every
:class:`DesignArrays` mutator records the splice or rewire that covers it in
the design's edit log, and from it the
next query patches only the affected rows, walks capacitance changes up to
the first shielding buffer (or the root), and re-times just that driver's
cone instead of the whole tree.  A single end-point buffer insertion on a
large design therefore costs O(cone) instead of O(tree).

Every entry takes a design only (a ``ClockTree`` raises a ``TypeError``;
compile it with :meth:`DesignArrays.from_clock_tree`), and the load queries
report by node name.

**Multi-corner batching**: every numeric array carries a leading scenario
axis of size ``K = len(corners)`` (:class:`~repro.tech.corners.CornerSet`).
One design compile is shared across the whole corner batch, the
level-synchronous passes evaluate all corners at once, and the dirty-cone
incremental path stays corner-batched — so K-corner sign-off costs far less
than K sequential analyses.  The single-corner API (:meth:`analyze`,
:meth:`skew`, :meth:`latency`, load queries) reports the *primary* (nominal)
corner; :meth:`analyze_corners`, :meth:`skew_per_corner`,
:meth:`worst_skew` and friends cover the batch.

Results match the reference engine to well below 1e-9 ps per corner (the
reference loops over ``scenario.apply_to(pdk)`` PDKs); the only permitted
difference is floating-point summation order.  Use the reference engine for
differential testing (see :mod:`repro.timing.factory`).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.ir.design import KIND_BUFFER, KIND_NTSV, KIND_ROOT, DesignArrays
from repro.tech.corners import CornerSet, Scenario
from repro.tech.layers import Side
from repro.tech.pdk import Pdk
from repro.timing.analysis import TimingResult
from repro.timing.elmore import ROOT_DRIVE_RESISTANCE, ElmoreModel
from repro.timing.slew import LN9, SOURCE_SLEW

#: Edit batches larger than this are cheaper to recompile than to replay.
_MAX_INCREMENTAL_EDITS = 64


class _EngineState:
    """Cached arrays for one compiled design.

    Every numeric array has shape ``(corners, capacity)``: axis 0 is the
    scenario batch, axis 1 the design row.
    """

    __slots__ = (
        "arrays",
        "version",
        "wire_cap",
        "wire_res",
        "down_cap",
        "load",
        "stage",
        "wire_delay",
        "arrival",
        "slew_at",
        "slew_out",
        "slews_valid",
        "sink_rows_cache",
        "sink_arrival",
        "sink_col",
        "sink_names",
    )

    def __init__(self, arrays: DesignArrays, corner_count: int) -> None:
        self.arrays = arrays
        self.version = -1
        # Contiguous (corners, sinks) gather of the sink arrivals, kept fresh
        # across incremental edits so skew/latency queries skip the per-call
        # fancy-index gather (the dominant cost of the refinement trial loop
        # on large trees), and every timing result is a row copy of it.
        # ``sink_col`` maps a row to its column (-1 for non-sinks) over the
        # rows that existed when the matrix was built; ``sink_names`` is the
        # name tuple results carry, built on the first ``analyze``.  All
        # None until the first query builds the matrix, and dropped with it.
        self.sink_rows_cache: np.ndarray | None = None
        self.sink_arrival: np.ndarray | None = None
        self.sink_col: np.ndarray | None = None
        self.sink_names: tuple[str, ...] | None = None
        n = arrays.capacity
        k = corner_count
        self.wire_cap = np.zeros((k, n))
        self.wire_res = np.zeros((k, n))
        self.down_cap = np.zeros((k, n))
        self.load = np.zeros((k, n))
        self.stage = np.zeros((k, n))
        self.wire_delay = np.zeros((k, n))
        self.arrival = np.zeros((k, n))
        self.slew_at = np.zeros((k, n))
        self.slew_out = np.zeros((k, n))
        self.slews_valid = False

    def drop_sink_arrivals(self) -> None:
        self.sink_rows_cache = None
        self.sink_arrival = None
        self.sink_col = None
        self.sink_names = None

    def ensure_capacity(self) -> None:
        """Grow the numeric arrays in lockstep with the design's rows."""
        n = self.arrays.capacity
        if self.wire_cap.shape[1] >= n:
            return
        k = self.wire_cap.shape[0]
        for name in (
            "wire_cap",
            "wire_res",
            "down_cap",
            "load",
            "stage",
            "wire_delay",
            "arrival",
            "slew_at",
            "slew_out",
        ):
            old = getattr(self, name)
            grown = np.zeros((k, n))
            grown[:, : old.shape[1]] = old
            setattr(self, name, grown)


class VectorizedElmoreEngine(ElmoreModel):
    """Array-based timing engine, API-compatible with the reference engine.

    The wire-reduction model comes from the shared :class:`ElmoreModel`
    base and the source driver from ``ROOT_DRIVE_RESISTANCE``, so a model
    tweak cannot drift the two engines apart.

    Attributes:
        corners: the resolved :class:`CornerSet` this engine batches over
            (the nominal single-corner set by default).
        full_compiles: number of from-scratch compiles performed (telemetry).
        incremental_updates: number of edit batches applied incrementally.
    """

    def __init__(
        self,
        pdk: Pdk,
        use_nldm: bool = False,
        corners: CornerSet | Scenario | str | None = None,
    ) -> None:
        self.pdk = pdk
        self.use_nldm = use_nldm
        self.corners = CornerSet.resolve(corners).ensure_nominal()
        self.full_compiles = 0
        self.incremental_updates = 0
        self._state: _EngineState | None = None
        self._primary = self.corners.nominal_index()
        self._compile_corner_tables()

    @property
    def corner_pdks(self) -> list[Pdk]:
        """The per-corner ``scenario.apply_to(pdk)`` technologies, corner order.

        Exposed so corner-aware construction code shares the engine's corner
        resolution instead of re-deriving PDKs at call sites.
        """
        return list(self._corner_pdks)

    @property
    def primary_index(self) -> int:
        """Index of the primary (nominal) corner in :attr:`corners`."""
        return self._primary

    def _compile_corner_tables(self) -> None:
        """Precompute the per-corner technology vectors the passes consume."""
        pdk = self.pdk
        self._corner_pdks = [scenario.apply_to(pdk) for scenario in self.corners]
        self._buffers = [corner_pdk.buffer for corner_pdk in self._corner_pdks]
        self._buf_intrinsic = np.array([b.intrinsic_delay for b in self._buffers])
        self._buf_drive = np.array([b.drive_resistance for b in self._buffers])
        self._front_c = np.array(
            [p.front_layer.unit_capacitance for p in self._corner_pdks]
        )
        self._front_r = np.array(
            [p.front_layer.unit_resistance for p in self._corner_pdks]
        )
        if pdk.has_backside:
            self._back_c = np.array(
                [p.back_layer.unit_capacitance for p in self._corner_pdks]
            )
            self._back_r = np.array(
                [p.back_layer.unit_resistance for p in self._corner_pdks]
            )
        else:
            self._back_c = self._front_c
            self._back_r = self._front_r
        if pdk.ntsv is not None:
            self._ntsv_r = np.array([p.ntsv.resistance for p in self._corner_pdks])
            self._ntsv_c = np.array([p.ntsv.capacitance for p in self._corner_pdks])
        else:
            self._ntsv_r = None
            self._ntsv_c = None
        nldm_flags = [
            self.use_nldm if scenario.use_nldm is None else scenario.use_nldm
            for scenario in self.corners
        ]
        self._nldm_corners = [k for k, flag in enumerate(nldm_flags) if flag]
        self._linear_corners = np.asarray(
            [k for k, flag in enumerate(nldm_flags) if not flag], dtype=np.int64
        )

    # ------------------------------------------------------------------ sync
    def invalidate(self) -> None:
        """Drop the cached state (next query recompiles from scratch)."""
        self._state = None

    def _sync(self, design: DesignArrays, need_slews: bool) -> _EngineState:
        if not isinstance(design, DesignArrays):
            raise TypeError(
                "VectorizedElmoreEngine times a DesignArrays; compile object "
                "trees with DesignArrays.from_clock_tree(tree)"
            )
        state = self._state
        if state is None or state.arrays is not design:
            state = self._compile(design)
        else:
            edits = design.edits_since(state.version)
            if edits is None:
                state = self._compile(design)
            elif edits and not self._apply_edits(state, edits):
                state = self._compile(design)
        if need_slews and not state.slews_valid:
            self._full_slews(state)
        return state

    def _compile(self, design: DesignArrays) -> _EngineState:
        """From-scratch passes over the design's columns, rows as they sit.

        Each level lists every node's children in children order, so the
        level-batched reductions below sum each node's children in the
        order :meth:`DesignArrays.from_clock_tree` of the realised tree
        would: a design and its realised tree time bit-identically, however
        its rows are numbered.
        """
        state = _EngineState(design, len(self.corners))
        rows = np.arange(design.size, dtype=np.int64)
        self._refresh_wire(state, rows)
        self._full_caps(state)
        self._refresh_stage(state, rows)
        self._refresh_wire_delay(state, rows)
        self._full_arrivals(state)
        state.slews_valid = False
        state.version = design.version
        self._state = state
        self.full_compiles += 1
        return state

    # ------------------------------------------------------------ full passes
    def _refresh_wire(self, state: _EngineState, rows: np.ndarray) -> None:
        """Recompute the parent-wire R/C of ``rows`` from the snapshot."""
        arrays = state.arrays
        length = arrays.edge_length[rows]
        if self.pdk.has_backside:
            front = arrays.wire_front[rows]
            unit_c = np.where(front[None, :], self._front_c[:, None], self._back_c[:, None])
            unit_r = np.where(front[None, :], self._front_r[:, None], self._back_r[:, None])
        else:
            back_rows = rows[~arrays.wire_front[rows]]
            if back_rows.size and np.any(arrays.parent_row[back_rows] >= 0):
                # Reference parity: timing a back-side wire without back-side
                # resources must raise, on the incremental path too (the
                # root's wire side is meaningless and stays exempt).
                self.pdk.clock_layer(Side.BACK)
            unit_c = self._front_c[:, None]
            unit_r = self._front_r[:, None]
        state.wire_cap[:, rows] = unit_c * length[None, :]
        state.wire_res[:, rows] = unit_r * length[None, :]

    @staticmethod
    def _scatter_add(weights: np.ndarray, parents: np.ndarray, capacity: int) -> np.ndarray:
        """Per-corner ``bincount`` scatter: (K, r) weights into (K, capacity)."""
        k = weights.shape[0]
        if k == 1:  # single-corner fast path: plain 1-D bincount
            return np.bincount(parents, weights=weights[0], minlength=capacity)[None, :]
        flat = (np.arange(k, dtype=np.int64)[:, None] * capacity + parents[None, :]).ravel()
        return np.bincount(
            flat, weights=weights.ravel(), minlength=k * capacity
        ).reshape(k, capacity)

    def _full_caps(self, state: _EngineState) -> None:
        """Bottom-up subtree capacitances and driver loads, level by level."""
        arrays = state.arrays
        capacity = state.load.shape[1]
        state.load[:, : arrays.size] = 0.0
        for rows in reversed(arrays.levels()):
            down = arrays.cap[rows][None, :] + state.load[:, rows]
            shielded = arrays.kind[rows] == KIND_BUFFER
            if shielded.any():
                down[:, shielded] = arrays.cap[rows][shielded][None, :]
            state.down_cap[:, rows] = down
            parents = arrays.parent_row[rows]
            if parents[0] >= 0:  # every non-root level scatters into its parents
                state.load += self._scatter_add(
                    state.wire_cap[:, rows] + down, parents, capacity
                )

    def _refresh_stage(self, state: _EngineState, rows: np.ndarray) -> None:
        """Recompute the driver-stage delay added at each of ``rows``."""
        if rows.size == 0:
            return
        arrays = state.arrays
        kinds = arrays.kind[rows]
        state.stage[:, rows] = 0.0
        buffer_rows = rows[kinds == KIND_BUFFER]
        if buffer_rows.size:
            linear = self._linear_corners
            if linear.size == len(self._buffers):  # every corner is linear
                state.stage[:, buffer_rows] = (
                    self._buf_intrinsic[:, None]
                    + self._buf_drive[:, None] * state.load[:, buffer_rows]
                )
            elif linear.size:
                state.stage[linear[:, None], buffer_rows[None, :]] = (
                    self._buf_intrinsic[linear][:, None]
                    + self._buf_drive[linear][:, None]
                    * state.load[linear[:, None], buffer_rows[None, :]]
                )
            for k in self._nldm_corners:
                # The reference engine propagates a constant source slew; the
                # batched bilinear lookup is bit-identical to its scalar
                # ``buffer.delay`` calls.
                buffer = self._buffers[k]
                state.stage[k, buffer_rows] = buffer.delay_batch(
                    state.load[k, buffer_rows], input_slews=SOURCE_SLEW
                )
        ntsv_rows = rows[kinds == KIND_NTSV]
        if ntsv_rows.size:
            if self._ntsv_r is None:
                raise ValueError("tree contains nTSVs but the PDK has none")
            state.stage[:, ntsv_rows] = self._ntsv_r[:, None] * (
                self._ntsv_c[:, None] + state.load[:, ntsv_rows]
            )
        root_rows = rows[kinds == KIND_ROOT]
        if root_rows.size:
            # Dispatch by kind like the reference engine (a ROOT-kind node
            # spliced in as an internal node still drives with the source R).
            loads = state.load[:, root_rows]
            state.stage[:, root_rows] = np.where(
                loads == 0, 0.0, ROOT_DRIVE_RESISTANCE * loads
            )

    def _refresh_wire_delay(self, state: _EngineState, rows: np.ndarray) -> None:
        """Recompute the Elmore delay of the parent wire of each of ``rows``."""
        state.wire_delay[:, rows] = state.wire_res[:, rows] * (
            state.wire_cap[:, rows] + state.down_cap[:, rows]
        )

    def _full_arrivals(self, state: _EngineState) -> None:
        state.arrival[:, 0] = 0.0
        for rows in state.arrays.levels()[1:]:
            parents = state.arrays.parent_row[rows]
            state.arrival[:, rows] = (
                state.arrival[:, parents]
                + state.stage[:, parents]
                + state.wire_delay[:, rows]
            )

    def _full_slews(self, state: _EngineState) -> None:
        arrays = state.arrays
        state.slew_at[:, 0] = SOURCE_SLEW
        state.slew_out[:, 0] = SOURCE_SLEW
        for rows in arrays.levels()[1:]:
            parents = arrays.parent_row[rows]
            state.slew_at[:, rows] = np.sqrt(
                state.slew_out[:, parents] ** 2
                + (LN9 * state.wire_delay[:, rows]) ** 2
            )
            self._regenerate_slews(state, rows)
        state.slews_valid = True

    def _regenerate_slews(self, state: _EngineState, rows: np.ndarray) -> None:
        """Compute the post-node slew of ``rows`` from their arriving slew."""
        arrays = state.arrays
        kinds = arrays.kind[rows]
        state.slew_out[:, rows] = state.slew_at[:, rows]
        buffer_rows = rows[kinds == KIND_BUFFER]
        if buffer_rows.size:
            for k, buffer in enumerate(self._buffers):
                state.slew_out[k, buffer_rows] = buffer.slew_batch(
                    state.load[k, buffer_rows],
                    input_slews=state.slew_at[k, buffer_rows],
                )
        ntsv_rows = rows[kinds == KIND_NTSV]
        if ntsv_rows.size and self._ntsv_r is not None:
            step = LN9 * (
                self._ntsv_r[:, None]
                * (self._ntsv_c[:, None] + state.load[:, ntsv_rows])
            )
            state.slew_out[:, ntsv_rows] = np.sqrt(
                state.slew_at[:, ntsv_rows] ** 2 + step**2
            )

    # ------------------------------------------------------------ incremental
    def _apply_edits(self, state: _EngineState, edits: list) -> bool:
        """Replay the design's recorded row edits onto the cached state.

        The design's structure is already up to date (its mutators apply
        edits eagerly); the log only tells the engine *where* to patch.  A
        splice refreshes the new row and its child; a rewire re-sums the
        whole subtree bottom-up.  Either walks the capacitance change up to
        the first shielding buffer and re-times that driver's cone.  Returns
        False to request a recompile.

        A trial logs the same row once per mutation, so the batch is first
        reduced to its distinct ``(kind, row)`` pairs in first-seen order.
        An entry naming a row at or past ``size`` is dropped: that row was
        popped, and :meth:`DesignArrays.remove_leaf` logged a rewire of its
        parent, which covers it.
        """
        design = state.arrays
        distinct: dict[tuple[str, int], None] = {}
        for _version, edit_kind, row in edits:
            if row is None or edit_kind == "touch":
                return False
            if row < design.size:
                distinct[edit_kind, row] = None
        if len(distinct) > _MAX_INCREMENTAL_EDITS:
            return False
        changed: set[int] = set()
        tops: list[int] = []
        for edit_kind, row in distinct:
            row = int(row)
            if not _row_attached(design, row):
                return False
            if edit_kind == "splice":
                children = design.children_rows[row]
                if len(children) != 1 or design.parent_row[row] < 0:
                    return False  # a later edit reshaped the splice: recompile
                state.ensure_capacity()
                child_row = int(children[0])
                self._refresh_wire(
                    state, np.asarray([row, child_row], dtype=np.int64)
                )
                state.load[:, row] = (
                    state.wire_cap[:, child_row] + state.down_cap[:, child_row]
                )
                if design.kind[row] == KIND_BUFFER:
                    state.down_cap[:, row] = design.cap[row]
                else:
                    state.down_cap[:, row] = (
                        design.cap[row] + state.load[:, row]
                    )
                changed.update((row, child_row))
            elif edit_kind == "rewire":
                sub_levels = _design_sub_levels(design, row)
                state.ensure_capacity()
                flat = np.concatenate(sub_levels)
                self._refresh_wire(state, flat)
                state.load[:, flat] = 0.0
                for rows in reversed(sub_levels):
                    down = design.cap[rows][None, :] + state.load[:, rows]
                    shielded = design.kind[rows] == KIND_BUFFER
                    if shielded.any():
                        down[:, shielded] = design.cap[rows][shielded][None, :]
                    state.down_cap[:, rows] = down
                    if rows is sub_levels[0]:
                        continue  # the subtree root's parent lies outside
                    # The scatter targets only the (few) subtree parents, so
                    # it stays O(subtree) instead of O(capacity) per level —
                    # what keeps the dirty-cone path cone-local on big trees.
                    contribution = state.wire_cap[:, rows] + down
                    parents = design.parent_row[rows]
                    for k in range(contribution.shape[0]):
                        np.add.at(state.load[k], parents, contribution[k])
                changed.update(int(r) for r in flat)
            else:  # pragma: no cover - defensive against future edit kinds
                return False
            tops.append(self._propagate_caps_up(state, row, changed))
        rows = np.fromiter(changed, dtype=np.int64, count=len(changed))
        self._refresh_stage(state, rows)
        self._refresh_wire_delay(state, rows)
        retimed: list[np.ndarray] = []
        for top in self._merge_tops(state, tops):
            self._retime_cone(state, top, retimed)
        self._patch_sink_arrivals(state, retimed)
        state.version = design.version
        self.incremental_updates += 1
        return True

    def _propagate_caps_up(
        self, state: _EngineState, row: int, changed: set[int]
    ) -> int:
        """Walk capacitance changes from ``row`` toward the root.

        Stops at the first shielding buffer (whose load changed but whose
        upstream capacitance did not) or at the root.  Returns the row of the
        highest driver whose stage delay changed — the dirty-cone top.
        """
        design = state.arrays
        walk = int(design.parent_row[row])
        if walk < 0:
            return row
        while True:
            child_rows = np.asarray(design.children_rows[walk], dtype=np.int64)
            state.load[:, walk] = np.sum(
                state.wire_cap[:, child_rows] + state.down_cap[:, child_rows],
                axis=1,
            )
            changed.add(walk)
            if design.kind[walk] == KIND_BUFFER:
                return walk  # shielded: upstream sees the pin cap only
            state.down_cap[:, walk] = design.cap[walk] + state.load[:, walk]
            parent = int(design.parent_row[walk])
            if parent < 0:
                return walk
            walk = parent

    def _merge_tops(self, state: _EngineState, tops: list[int]) -> list[int]:
        """Drop cone tops nested inside another top's subtree."""
        top_set = set(tops)
        merged = []
        for top in sorted(top_set):
            parent = state.arrays.parent_row[top]
            while parent >= 0 and parent not in top_set:
                parent = state.arrays.parent_row[parent]
            if parent < 0:
                merged.append(top)
        return merged

    def _retime_cone(
        self, state: _EngineState, top: int, retimed: list[np.ndarray]
    ) -> None:
        """Recompute arrivals (and slews when valid) strictly below ``top``.

        ``retimed`` collects the row arrays whose arrivals were rewritten, so
        the cached sink-arrival gather can be patched in place.
        """
        arrays = state.arrays
        if state.slews_valid and arrays.kind[top] == KIND_BUFFER:
            # The top buffer's output slew tracks its (changed) load.
            for k, buffer in enumerate(self._buffers):
                state.slew_out[k, top] = buffer.slew(
                    float(state.load[k, top]),
                    input_slew=float(state.slew_at[k, top]),
                )
        frontier = list(arrays.children_rows[top])
        while frontier:
            rows = np.asarray(frontier, dtype=np.int64)
            retimed.append(rows)
            parents = arrays.parent_row[rows]
            state.arrival[:, rows] = (
                state.arrival[:, parents]
                + state.stage[:, parents]
                + state.wire_delay[:, rows]
            )
            if state.slews_valid:
                state.slew_at[:, rows] = np.sqrt(
                    state.slew_out[:, parents] ** 2
                    + (LN9 * state.wire_delay[:, rows]) ** 2
                )
                self._regenerate_slews(state, rows)
            frontier = [c for row in frontier for c in arrays.children_rows[row]]

    # ------------------------------------------------------ sink arrival cache
    @staticmethod
    def _sink_rows_current(
        cache: np.ndarray | None, sink_rows: np.ndarray
    ) -> bool:
        """True when the cached sink-row vector matches the current one.

        A ``None`` cache never matches: a partially dropped state (rows gone,
        arrivals kept) must rebuild rather than serve stale sink arrivals —
        long-lived serve sessions hit this constantly.
        """
        if cache is None:
            return False
        return cache is sink_rows or bool(np.array_equal(cache, sink_rows))

    def _sink_arrival_matrix(self, state: _EngineState) -> np.ndarray:
        """The (corners, sinks) sink-arrival gather, cached across edits.

        Built lazily from the current arrival array; incremental updates keep
        it fresh via :meth:`_patch_sink_arrivals`, so repeated skew/latency
        queries in an edit loop avoid re-gathering every sink each time.
        """
        sink_rows = state.arrays.sink_rows()
        if (
            state.sink_arrival is None
            or state.sink_col is None
            or not self._sink_rows_current(state.sink_rows_cache, sink_rows)
        ):
            state.drop_sink_arrivals()
            state.sink_arrival = state.arrival[:, sink_rows].copy()
            state.sink_col = np.full(state.arrays.size, -1, dtype=np.int64)
            state.sink_col[sink_rows] = np.arange(sink_rows.size)
        state.sink_rows_cache = sink_rows
        return state.sink_arrival

    def _patch_sink_arrivals(
        self, state: _EngineState, retimed: list[np.ndarray]
    ) -> None:
        """Refresh the cached sink-arrival columns touched by an edit batch.

        When the edit changed the sink *set* itself — or the cached row
        vector is gone — the cache is dropped and rebuilt on the next query.
        Otherwise one gather/scatter through ``sink_col`` copies the retimed
        sinks' arrivals into their columns.  A row appended since the matrix
        was built lies past ``sink_col`` or reuses a popped non-sink row
        (popping a sink records a touch, which recompiles), so it cannot be
        a sink the matrix knows.
        """
        if state.sink_arrival is None or state.sink_col is None:
            return
        sink_rows = state.arrays.sink_rows()
        if not self._sink_rows_current(state.sink_rows_cache, sink_rows):
            state.drop_sink_arrivals()
            return
        state.sink_rows_cache = sink_rows
        if not retimed:
            return
        rows = np.concatenate(retimed)
        rows = rows[rows < state.sink_col.size]
        cols = state.sink_col[rows]
        known = cols >= 0
        state.sink_arrival[:, cols[known]] = state.arrival[:, rows[known]]

    @staticmethod
    def _sink_names(state: _EngineState) -> tuple[str, ...]:
        """The name tuple of the cached sink-arrival matrix's columns."""
        if state.sink_names is None:
            names = state.arrays.names
            state.sink_names = tuple(
                [names[row] for row in state.sink_rows_cache.tolist()]
            )
        return state.sink_names

    # ---------------------------------------------------------------- analyze
    def analyze(self, design: DesignArrays, with_slew: bool = True) -> TimingResult:
        """Run a full (or incremental) analysis; reports the primary corner.

        The result is a row copy of the cached sink-arrival matrix (plus the
        sink slews when ``with_slew``); its dicts are built only if read.
        """
        return self._results(design, with_slew, (self._primary,))[0]

    def analyze_corners(
        self, design: DesignArrays, with_slew: bool = True
    ) -> dict[str, TimingResult]:
        """One batched pass, one :class:`TimingResult` per corner name."""
        results = self._results(design, with_slew, range(len(self.corners)))
        return dict(zip(self.corners.names, results))

    def _results(
        self, design: DesignArrays, with_slew: bool, corners: Iterable[int]
    ) -> list[TimingResult]:
        """One result per corner index, from the cached sink-arrival rows."""
        state = self._sync(design, need_slews=with_slew)
        self._checked_sink_rows(state.arrays)
        sink_arrival = self._sink_arrival_matrix(state)
        names = self._sink_names(state)
        rows = state.sink_rows_cache
        return [
            TimingResult.from_arrays(
                names, sink_arrival[k], state.slew_at[k, rows] if with_slew else None
            )
            for k in corners
        ]

    @staticmethod
    def _checked_sink_rows(design: DesignArrays) -> np.ndarray:
        sink_rows = design.sink_rows()
        if sink_rows.size == 0:
            raise ValueError(f"clock tree {design.name!r} has no sinks to analyse")
        return sink_rows

    def latency(self, design: DesignArrays) -> float:
        """Convenience: maximum sink arrival (ps) at the primary corner."""
        state = self._sync(design, need_slews=False)
        self._checked_sink_rows(state.arrays)
        return float(self._sink_arrival_matrix(state)[self._primary].max())

    def skew(self, design: DesignArrays) -> float:
        """Convenience: global skew (ps) at the primary corner."""
        state = self._sync(design, need_slews=False)
        self._checked_sink_rows(state.arrays)
        arrivals = self._sink_arrival_matrix(state)[self._primary]
        return float(arrivals.max() - arrivals.min())

    # ---------------------------------------------------------- corner batch
    def skew_per_corner(self, design: DesignArrays) -> dict[str, float]:
        """Global skew (ps) of every corner, from one batched pass."""
        state = self._sync(design, need_slews=False)
        self._checked_sink_rows(state.arrays)
        arrivals = self._sink_arrival_matrix(state)
        skews = arrivals.max(axis=1) - arrivals.min(axis=1)
        return dict(zip(self.corners.names, skews.tolist()))

    def latency_per_corner(self, design: DesignArrays) -> dict[str, float]:
        """Maximum sink arrival (ps) of every corner, from one batched pass."""
        state = self._sync(design, need_slews=False)
        self._checked_sink_rows(state.arrays)
        latencies = self._sink_arrival_matrix(state).max(axis=1)
        return dict(zip(self.corners.names, latencies.tolist()))

    def worst_skew(self, design: DesignArrays) -> float:
        """The largest skew (ps) across the corner batch."""
        return max(self.skew_per_corner(design).values())

    def worst_latency(self, design: DesignArrays) -> float:
        """The largest latency (ps) across the corner batch."""
        return max(self.latency_per_corner(design).values())

    # ------------------------------------------------------------------ loads
    def subtree_capacitances(self, design: DesignArrays) -> dict[str, float]:
        """Capacitance (fF) looking into each node, by name, in pre-order."""
        state = self._sync(design, need_slews=False)
        return self._by_name(state.arrays, state.down_cap[self._primary])

    def driver_loads(self, design: DesignArrays) -> dict[str, float]:
        """Load (fF) each node drives, by name, in pre-order."""
        state = self._sync(design, need_slews=False)
        return self._by_name(state.arrays, state.load[self._primary])

    @staticmethod
    def _by_name(design: DesignArrays, values: np.ndarray) -> dict[str, float]:
        names = design.names
        values = values.tolist()
        return {names[row]: values[row] for row in design.rows_preorder()}

    def max_capacitance_violations(
        self, design: DesignArrays
    ) -> list[tuple[str, float]]:
        """``(driver name, load)`` pairs exceeding the PDK max load."""
        limit = self.pdk.max_capacitance
        state = self._sync(design, need_slews=False)
        design = state.arrays
        loads = state.load[self._primary]
        violations = []
        for row in design.rows_preorder():
            if design.kind[row] in (KIND_ROOT, KIND_BUFFER):
                load = float(loads[row])
                if load > limit + 1e-9:
                    violations.append((design.names[row], load))
        return violations


def _row_attached(design: DesignArrays, row: int) -> bool:
    """True when ``row`` (below ``size``) is reachable from the design root.

    A logged edit may name a row popped since and reused by a later append;
    that append's own edit covers the new node.
    """
    while design.parent_row[row] >= 0:
        row = int(design.parent_row[row])
    return row == 0


def _design_sub_levels(design: DesignArrays, row: int) -> list[np.ndarray]:
    """The subtree below ``row`` grouped by relative depth (row first).

    Breadth-first over ``children_rows``, so each level lists the rows in
    per-parent children order, like :meth:`DesignArrays.levels`.
    """
    sub_levels: list[np.ndarray] = []
    frontier = [row]
    while frontier:
        sub_levels.append(np.asarray(frontier, dtype=np.int64))
        frontier = [c for r in frontier for c in design.children_rows[r]]
    return sub_levels
