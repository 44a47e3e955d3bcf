"""Elmore-based timing engine for double-side clock trees.

The engine evaluates the delay of a :class:`~repro.clocktree.ClockTree`
against a :class:`~repro.tech.Pdk`.  Wires use the L-type lumped Elmore model
of the paper (all wire capacitance lumped at the far end), buffers shield
their downstream load, and nTSVs contribute a series RC without shielding —
exactly matching Eq. (1) and Eq. (2).

The engine walks object trees.  Its timing entries also accept a
:class:`~repro.ir.design.DesignArrays` and realise it (``to_clock_tree()``)
once per design version, so flow stages hand either engine their design.
"""

from __future__ import annotations

import enum
from typing import Mapping

from repro.clocktree import ClockTree, ClockTreeNode, NodeKind
from repro.ir.design import DesignArrays
from repro.tech.corners import CornerSet, Scenario
from repro.tech.layers import Side
from repro.tech.pdk import Pdk
from repro.timing.analysis import TimingResult
from repro.timing.slew import SOURCE_SLEW, SlewAnalyzer

#: Drive resistance (kOhm) of the clock source, shared by every engine.
ROOT_DRIVE_RESISTANCE = 0.1


def require_clock_tree(tree: ClockTree | DesignArrays, method: str) -> None:
    """Reject a design where a result is keyed by ``id(node)``."""
    if isinstance(tree, DesignArrays):
        raise TypeError(
            f"{method}() keys loads by id(node), which needs a ClockTree; "
            "realise the design with to_clock_tree()"
        )


class WireModel(enum.Enum):
    """Wire reduction model.

    ``L``: the paper's model, all wire capacitance lumped at the far end,
    delay = R * (C_wire + C_load).
    ``PI``: the classic pi-model, half the wire capacitance at each end,
    delay = R * (C_wire / 2 + C_load).
    """

    L = "l"
    PI = "pi"


class ElmoreWireModel:
    """The wire-reduction and source-driver model shared by every engine.

    Keeping these in one place (rather than per engine) is what preserves
    the 1e-9 reference/vectorized equivalence contract when the model is
    tuned.  Subclasses set ``pdk`` and ``wire_model``.
    """

    pdk: Pdk
    wire_model: WireModel

    def wire_capacitance(self, length: float, side: Side) -> float:
        """Total capacitance (fF) of a clock wire of ``length`` um on ``side``."""
        return self.pdk.clock_layer(side).wire_capacitance(length)

    def wire_resistance(self, length: float, side: Side) -> float:
        """Total resistance (kOhm) of a clock wire of ``length`` um on ``side``."""
        return self.pdk.clock_layer(side).wire_resistance(length)

    def wire_delay(self, length: float, side: Side, load_capacitance: float) -> float:
        """Elmore delay (ps) of a wire driving ``load_capacitance`` fF."""
        resistance = self.wire_resistance(length, side)
        capacitance = self.wire_capacitance(length, side)
        if self.wire_model is WireModel.PI:
            return resistance * (capacitance / 2.0 + load_capacitance)
        return resistance * (capacitance + load_capacitance)

    def _root_resistance(self) -> float:
        """Drive resistance (kOhm) of the clock source."""
        return ROOT_DRIVE_RESISTANCE


class ElmoreTimingEngine(ElmoreWireModel):
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
        wire_model: WireModel = WireModel.L,
        use_nldm: bool = False,
        corners: CornerSet | Scenario | str | None = None,
    ) -> None:
        self.pdk = pdk
        self.wire_model = wire_model
        self.use_nldm = use_nldm
        self.corners = CornerSet.resolve(corners).ensure_nominal()
        self._slew = SlewAnalyzer(pdk)
        self._corner_engines: list["ElmoreTimingEngine"] | None = None
        self._realised_design: tuple[DesignArrays, int, ClockTree] | None = None

    def _realised(self, tree: ClockTree | DesignArrays) -> ClockTree:
        """The object tree the reference walks.

        A design is realised once per ``(design, version)``: queries at an
        unchanged version (a refiner trial's skew and latency, an
        evaluation's nominal and per-corner passes) share one realisation.
        """
        if not isinstance(tree, DesignArrays):
            return tree
        cached = self._realised_design
        if cached is None or cached[0] is not tree or cached[1] != tree.version:
            cached = (tree, tree.version, tree.to_clock_tree())
            self._realised_design = cached
        return cached[2]

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
    def subtree_capacitances(self, tree: ClockTree) -> dict[int, float]:
        """Capacitance looking into each node from its parent wire.

        Returns a mapping ``id(node) -> capacitance`` (fF).  Buffers shield
        their downstream load and present only their input pin capacitance.
        """
        require_clock_tree(tree, "subtree_capacitances")
        caps: dict[int, float] = {}
        for node in tree.nodes_bottom_up():
            if node.kind is NodeKind.BUFFER:
                caps[id(node)] = node.capacitance
                continue
            if node.is_leaf:
                caps[id(node)] = node.capacitance
                continue
            total = node.capacitance
            for child in node.children:
                total += self.wire_capacitance(child.edge_length(), child.wire_side)
                total += caps[id(child)]
            caps[id(node)] = total
        return caps

    def driver_loads(self, tree: ClockTree) -> dict[int, float]:
        """Load (fF) seen by each node when driving its children.

        For buffers this is the load the buffer output drives; for the root
        it is the load on the clock source; for nTSVs it is the capacitance
        downstream of the via (excluding the via's own capacitance).
        """
        require_clock_tree(tree, "driver_loads")
        caps = self.subtree_capacitances(tree)
        loads: dict[int, float] = {}
        for node in tree.nodes():
            load = 0.0
            for child in node.children:
                load += self.wire_capacitance(child.edge_length(), child.wire_side)
                load += caps[id(child)]
            loads[id(node)] = load
        return loads

    def max_capacitance_violations(
        self, tree: ClockTree | DesignArrays
    ) -> list[tuple[str, float]]:
        """Return ``(driver name, load)`` pairs exceeding the PDK max load.

        Checked drivers are the clock root and every buffer (the elements
        with an output stage); Steiner points and nTSVs do not drive.
        """
        tree = self._realised(tree)
        loads = self.driver_loads(tree)
        limit = self.pdk.max_capacitance
        violations = []
        for node in tree.nodes():
            if node.kind in (NodeKind.ROOT, NodeKind.BUFFER):
                load = loads[id(node)]
                if load > limit + 1e-9:
                    violations.append((node.name, load))
        return violations

    # --------------------------------------------------------------- arrivals
    def node_arrivals(self, tree: ClockTree) -> dict[int, float]:
        """Arrival time (ps) at every node, measured from the clock root."""
        caps = self.subtree_capacitances(tree)
        arrivals: dict[int, float] = {id(tree.root): 0.0}
        slews: dict[int, float] = {id(tree.root): SOURCE_SLEW}

        for node in tree.nodes():
            node_arrival = arrivals[id(node)]
            extra = self._stage_delay(node, caps, slews)
            for child in node.children:
                length = child.edge_length()
                delay = self.wire_delay(length, child.wire_side, caps[id(child)])
                arrivals[id(child)] = node_arrival + extra + delay
                slews[id(child)] = slews[id(node)]
        return arrivals

    def _stage_delay(
        self,
        node: ClockTreeNode,
        caps: Mapping[int, float],
        slews: Mapping[int, float],
    ) -> float:
        """Delay added *at* a node before its outgoing wires (driver stages)."""
        load = 0.0
        for child in node.children:
            load += self.wire_capacitance(child.edge_length(), child.wire_side)
            load += caps[id(child)]
        if node.kind is NodeKind.BUFFER:
            input_slew = slews.get(id(node)) if self.use_nldm else None
            return self.pdk.buffer.delay(load, input_slew=input_slew)
        if node.kind is NodeKind.NTSV:
            ntsv = self.pdk.ntsv
            if ntsv is None:
                raise ValueError("tree contains nTSVs but the PDK has none")
            return ntsv.resistance * (ntsv.capacitance + load)
        if node.kind is NodeKind.ROOT:
            # The clock source behaves as a driver with a fixed resistance.
            return 0.0 if load == 0 else self._root_resistance() * load
        return 0.0

    # ---------------------------------------------------------------- analyze
    def analyze(
        self, tree: ClockTree | DesignArrays, with_slew: bool = True
    ) -> TimingResult:
        """Run a full analysis and return the :class:`TimingResult`."""
        tree = self._realised(tree)
        arrivals = self.node_arrivals(tree)
        sink_arrivals = {
            node.name: arrivals[id(node)] for node in tree.nodes() if node.is_sink
        }
        if not sink_arrivals:
            raise ValueError(f"clock tree {tree.name!r} has no sinks to analyse")
        slews = self._slew.sink_slews(tree, self) if with_slew else {}
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
                    wire_model=self.wire_model,
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
        tree = self._realised(tree)
        return {
            scenario.name: engine.analyze(tree, with_slew=with_slew)
            for scenario, engine in zip(self.corners, self._engines_per_corner())
        }

    def skew_per_corner(self, tree: ClockTree | DesignArrays) -> dict[str, float]:
        """Global skew (ps) of every corner (one full analysis each)."""
        tree = self._realised(tree)
        return {
            scenario.name: engine.skew(tree)
            for scenario, engine in zip(self.corners, self._engines_per_corner())
        }

    def latency_per_corner(
        self, tree: ClockTree | DesignArrays
    ) -> dict[str, float]:
        """Maximum sink arrival (ps) of every corner (one analysis each)."""
        tree = self._realised(tree)
        return {
            scenario.name: engine.latency(tree)
            for scenario, engine in zip(self.corners, self._engines_per_corner())
        }

    def worst_skew(self, tree: ClockTree | DesignArrays) -> float:
        """The largest skew (ps) across the corner set."""
        return max(self.skew_per_corner(tree).values())

    def worst_latency(self, tree: ClockTree | DesignArrays) -> float:
        """The largest latency (ps) across the corner set."""
        return max(self.latency_per_corner(tree).values())
