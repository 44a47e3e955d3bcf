"""Elmore-based timing engine for double-side clock trees.

The engine evaluates the delay of a :class:`~repro.ir.design.DesignArrays`
design against a :class:`~repro.tech.Pdk`.  Wires use the L-type lumped
Elmore model of the paper (all wire capacitance lumped at the far end),
buffers shield their downstream load, and nTSVs contribute a series RC
without shielding — exactly matching Eq. (1) and Eq. (2).

The engine walks the design's rows one scalar at a time: loads bottom-up
over the breadth-first levels, arrivals and slews top-down in pre-order,
wire lengths from the coordinates.  It never edits or caches the design.
A :class:`~repro.clocktree.ClockTree` it is given is compiled with
:meth:`DesignArrays.from_clock_tree` first.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.clocktree import ClockTree
from repro.ir.design import KIND_BUFFER, KIND_NTSV, KIND_ROOT, KIND_SINK, DesignArrays
from repro.tech.corners import CornerSet, Scenario
from repro.tech.layers import Side
from repro.tech.pdk import Pdk
from repro.timing.analysis import TimingResult
from repro.timing.slew import SOURCE_SLEW, peri_combine, ramp_slew

#: Drive resistance (kOhm) of the clock source, shared by both timing
#: engines and both insertion-DP backends.
ROOT_DRIVE_RESISTANCE = 0.1


class ElmoreModel:
    """The wire-reduction model shared by every engine.

    Keeping it in one place (rather than per engine) is what preserves
    the 1e-9 reference/vectorized equivalence contract when the model is
    tuned.  Subclasses set ``pdk``.
    """

    pdk: Pdk

    def wire_capacitance(self, length: float, side: Side) -> float:
        """Total capacitance (fF) of a clock wire of ``length`` um on ``side``."""
        return self.pdk.clock_layer(side).wire_capacitance(length)

    def wire_resistance(self, length: float, side: Side) -> float:
        """Total resistance (kOhm) of a clock wire of ``length`` um on ``side``."""
        return self.pdk.clock_layer(side).wire_resistance(length)

    def wire_delay(self, length: float, side: Side, load_capacitance: float) -> float:
        """L-type Elmore delay (ps) of a wire driving ``load_capacitance`` fF:
        R * (C_wire + C_load)."""
        resistance = self.wire_resistance(length, side)
        capacitance = self.wire_capacitance(length, side)
        return resistance * (capacitance + load_capacitance)


class _RowLoads(NamedTuple):
    """Per-row results of the bottom-up pass, indexed by design row."""

    wire_cap: list[float]  # capacitance of the wire to the parent
    wire_delay: list[float]  # Elmore delay of the wire to the parent
    down: list[float]  # capacitance looking into the row from that wire
    load: list[float]  # load the row drives


class ElmoreTimingEngine(ElmoreModel):
    """Computes per-node loads and per-sink arrival times of a clock tree.

    Multi-corner analysis is a plain per-corner loop: every scenario of the
    resolved :class:`CornerSet` gets its own child engine built against
    ``scenario.apply_to(pdk)``.  This is deliberately naive — it is the
    executable specification the batched vectorized kernel is differentially
    tested against.
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
        self._corner_engines: list["ElmoreTimingEngine"] | None = None

    @staticmethod
    def _design(tree: ClockTree | DesignArrays) -> DesignArrays:
        """The design an entry walks: a ``ClockTree`` is compiled first."""
        if isinstance(tree, ClockTree):
            return DesignArrays.from_clock_tree(tree)
        return tree

    @property
    def corner_pdks(self) -> list[Pdk]:
        """The per-corner ``scenario.apply_to(pdk)`` technologies, corner order.

        Exposed (mirroring the vectorized engine) so corner-aware
        construction code shares the engine's corner resolution instead of
        re-deriving PDKs at call sites.
        """
        return [engine.pdk for engine in self._engines_per_corner()]

    @property
    def primary_index(self) -> int:
        """Index of the primary (nominal) corner in :attr:`corners`."""
        index = self.corners.nominal_index()
        return 0 if index is None else index

    # ------------------------------------------------------------------ loads
    def _loads(self, design: DesignArrays) -> _RowLoads:
        """Bottom-up pass over ``design.levels()``.

        A buffer presents only its input pin capacitance.  Any other row
        presents its pin capacitance plus, for each child in
        ``children_rows`` order, the child's wire and then the child's own
        downstream capacitance.
        """
        size = design.size
        xs = design.x[:size].tolist()
        ys = design.y[:size].tolist()
        caps = design.cap[:size].tolist()
        kinds = design.kind[:size].tolist()
        fronts = design.wire_front[:size].tolist()
        children = design.children_rows
        wire_cap = [0.0] * size
        wire_delay = [0.0] * size
        down = [0.0] * size
        load = [0.0] * size
        for level in reversed(design.levels()):
            for row in level.tolist():
                x, y = xs[row], ys[row]
                # Two running sums, not ``total = cap + driven``: each keeps
                # its own floating-point association.
                driven = 0.0
                total = caps[row]
                for child in children[row]:
                    length = abs(xs[child] - x) + abs(ys[child] - y)
                    side = Side.FRONT if fronts[child] else Side.BACK
                    capacitance = self.wire_capacitance(length, side)
                    wire_cap[child] = capacitance
                    wire_delay[child] = self.wire_delay(length, side, down[child])
                    driven += capacitance
                    driven += down[child]
                    total += capacitance
                    total += down[child]
                load[row] = driven
                down[row] = caps[row] if kinds[row] == KIND_BUFFER else total
        return _RowLoads(wire_cap, wire_delay, down, load)

    def subtree_capacitances(
        self, tree: ClockTree | DesignArrays
    ) -> dict[str, float]:
        """Capacitance (fF) looking into each node from its parent wire.

        Keyed by node name, in pre-order.  Buffers shield their downstream
        load and present only their input pin capacitance.
        """
        design = self._design(tree)
        down = self._loads(design).down
        return {design.names[row]: down[row] for row in design.rows_preorder()}

    def driver_loads(self, tree: ClockTree | DesignArrays) -> dict[str, float]:
        """Load (fF) seen by each node when driving its children, by name.

        For buffers this is the load the buffer output drives; for the root
        it is the load on the clock source; for nTSVs it is the capacitance
        downstream of the via (excluding the via's own capacitance).
        """
        design = self._design(tree)
        load = self._loads(design).load
        return {design.names[row]: load[row] for row in design.rows_preorder()}

    def max_capacitance_violations(
        self, tree: ClockTree | DesignArrays
    ) -> list[tuple[str, float]]:
        """Return ``(driver name, load)`` pairs exceeding the PDK max load.

        Checked drivers are the clock root and every buffer (the elements
        with an output stage); Steiner points and nTSVs do not drive.
        """
        design = self._design(tree)
        load = self._loads(design).load
        limit = self.pdk.max_capacitance
        kinds = design.kind
        return [
            (design.names[row], load[row])
            for row in design.rows_preorder()
            if kinds[row] in (KIND_ROOT, KIND_BUFFER) and load[row] > limit + 1e-9
        ]

    # --------------------------------------------------------------- arrivals
    def _stage_delay(self, kind: int, load: float) -> float:
        """Delay added *at* a row driving ``load`` before its outgoing wires."""
        if kind == KIND_BUFFER:
            # The delay model takes the source slew at every buffer input;
            # propagated slews are the separate slew pass.
            input_slew = SOURCE_SLEW if self.use_nldm else None
            return self.pdk.buffer.delay(load, input_slew=input_slew)
        if kind == KIND_NTSV:
            ntsv = self.pdk.ntsv
            if ntsv is None:
                raise ValueError("tree contains nTSVs but the PDK has none")
            return ntsv.resistance * (ntsv.capacitance + load)
        if kind == KIND_ROOT:
            # The clock source behaves as a driver with a fixed resistance.
            return 0.0 if load == 0 else ROOT_DRIVE_RESISTANCE * load
        return 0.0

    def _sink_arrivals(
        self, design: DesignArrays, loads: _RowLoads, order: list[int]
    ) -> dict[str, float]:
        """Arrival (ps) of every sink, from the root, in pre-order."""
        kinds = design.kind[: design.size].tolist()
        names = design.names
        children = design.children_rows
        arrival = [0.0] * design.size
        sinks: dict[str, float] = {}
        for row in order:
            kind = kinds[row]
            if kind == KIND_SINK:
                sinks[names[row]] = arrival[row]
            start = arrival[row] + self._stage_delay(kind, loads.load[row])
            for child in children[row]:
                arrival[child] = start + loads.wire_delay[child]
        return sinks

    def _sink_slews(
        self, design: DesignArrays, loads: _RowLoads, order: list[int]
    ) -> dict[str, float]:
        """Slew (ps) at every sink, by the PERI rule of :mod:`repro.timing.slew`.

        Buffers regenerate the slew from their load and input slew, nTSVs
        and wires degrade it.  A driver's load here is the plain
        ``sum(wire + down)`` over its children.
        """
        kinds = design.kind[: design.size].tolist()
        names = design.names
        children = design.children_rows
        wire_cap, wire_delay, down = loads.wire_cap, loads.wire_delay, loads.down
        ntsv = self.pdk.ntsv
        slew = [SOURCE_SLEW] * design.size
        sinks: dict[str, float] = {}
        for row in order:
            here = slew[row]
            kind = kinds[row]
            if kind == KIND_BUFFER:
                load = sum(wire_cap[c] + down[c] for c in children[row])
                here = self.pdk.buffer.slew(load, input_slew=here)
            elif kind == KIND_NTSV and ntsv is not None:
                load = sum(wire_cap[c] + down[c] for c in children[row])
                here = peri_combine(
                    here, ramp_slew(ntsv.resistance * (ntsv.capacitance + load))
                )
            for child in children[row]:
                slew[child] = peri_combine(here, ramp_slew(wire_delay[child]))
                if kinds[child] == KIND_SINK:
                    sinks[names[child]] = slew[child]
        return sinks

    # ---------------------------------------------------------------- analyze
    def analyze(
        self, tree: ClockTree | DesignArrays, with_slew: bool = True
    ) -> TimingResult:
        """Run a full analysis and return the :class:`TimingResult`."""
        design = self._design(tree)
        loads = self._loads(design)
        order = design.rows_preorder()
        sink_arrivals = self._sink_arrivals(design, loads, order)
        if not sink_arrivals:
            raise ValueError(f"clock tree {design.name!r} has no sinks to analyse")
        slews = self._sink_slews(design, loads, order) if with_slew else {}
        return TimingResult(arrivals=sink_arrivals, slews=slews)

    def latency(self, tree: ClockTree | DesignArrays) -> float:
        """Convenience: maximum sink arrival (ps)."""
        return self.analyze(tree, with_slew=False).latency

    def skew(self, tree: ClockTree | DesignArrays) -> float:
        """Convenience: global skew (ps)."""
        return self.analyze(tree, with_slew=False).skew

    # ---------------------------------------------------------- corner loop
    def _engines_per_corner(self) -> list["ElmoreTimingEngine"]:
        """One single-corner reference engine per scenario (lazily built)."""
        if self._corner_engines is None:
            self._corner_engines = [
                ElmoreTimingEngine(
                    scenario.apply_to(self.pdk),
                    use_nldm=(
                        self.use_nldm
                        if scenario.use_nldm is None
                        else scenario.use_nldm
                    ),
                )
                for scenario in self.corners
            ]
        return self._corner_engines

    def analyze_corners(
        self, tree: ClockTree | DesignArrays, with_slew: bool = True
    ) -> dict[str, TimingResult]:
        """Per-corner loop over fresh single-corner analyses."""
        design = self._design(tree)
        return {
            scenario.name: engine.analyze(design, with_slew=with_slew)
            for scenario, engine in zip(self.corners, self._engines_per_corner())
        }

    def skew_per_corner(self, tree: ClockTree | DesignArrays) -> dict[str, float]:
        """Global skew (ps) of every corner (one full analysis each)."""
        design = self._design(tree)
        return {
            scenario.name: engine.skew(design)
            for scenario, engine in zip(self.corners, self._engines_per_corner())
        }

    def latency_per_corner(
        self, tree: ClockTree | DesignArrays
    ) -> dict[str, float]:
        """Maximum sink arrival (ps) of every corner (one analysis each)."""
        design = self._design(tree)
        return {
            scenario.name: engine.latency(design)
            for scenario, engine in zip(self.corners, self._engines_per_corner())
        }

    def worst_skew(self, tree: ClockTree | DesignArrays) -> float:
        """The largest skew (ps) across the corner set."""
        return max(self.skew_per_corner(tree).values())

    def worst_latency(self, tree: ClockTree | DesignArrays) -> float:
        """The largest latency (ps) across the corner set."""
        return max(self.latency_per_corner(tree).values())
