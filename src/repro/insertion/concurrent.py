"""The multi-objective dynamic program for concurrent buffer and nTSV insertion.

Implements the four steps of Section III-C.2 and Fig. 7:

1. **Build heterogeneous DP tree** — delegated to
   :func:`repro.insertion.dp_tree.build_dp_tree`; per-node insertion modes
   make the tree heterogeneous.
2. **Bottom-up generation** — leaf DP nodes start from the lumped leaf-net
   load with the sink-facing end forced to the front side; every node merges
   the candidate sets of its predecessors (only combinations whose shared
   vertex has a consistent side are legal) and then applies every allowed
   edge pattern, with per-side inferior-solution pruning and the maximum
   driven-capacitance filter.
3. **Multi-objective selection** — the root candidate set is scored with the
   MOES (Eq. (3)) or, optionally, by pure minimum latency.
4. **Top-down decision** — the recorded dependencies are retraced and the
   chosen pattern of every DP node is realised on the design rows (buffer
   and nTSV rows are inserted, wire sides assigned), producing a legal
   double-side clock tree without any extra legalisation step.

The DP reads and edits only a :class:`~repro.ir.design.DesignArrays`: both
backends walk the same :class:`~repro.insertion.dp_tree.DpNode` fields and
realise their decisions through the one row-level :meth:`_realize_pattern`.

**One corner model.**  The DP always runs against the timing engine's
resolved PVT corner batch: every candidate carries per-corner (capacitance,
max delay, min delay) tuples evaluated against the ``scenario.apply_to(pdk)``
corner PDKs, pruning keeps the per-corner vector-dominance front, and the
MOES / min-latency selection scores the worst-corner delay — so the selected
tree optimises what multi-corner sign-off actually measures.  Pass
``corners=`` (a :class:`~repro.tech.corners.CornerSet`, a scenario, or a
spec string) to choose the batch; ``corners=None`` is the one-corner nominal
batch, whose only PDK is ``pdk`` itself, and on which every rule reduces to
the classic single-corner DP (van Ginneken's staircase, the scalar merge).
The scalar candidate fields mirror the primary (nominal) corner.

**Two DP backends.**  The per-candidate DP implemented in this module
(:class:`~repro.insertion.candidate.CandidateSolution` objects) is the
executable spec; :mod:`repro.insertion.frontier` provides the
production ``vectorized`` backend (struct-of-arrays candidate frontiers,
broadcast merges, batched pattern costs, vectorized pruning) which builds an
identical tree several-fold faster — close to corner-count-independent on
multi-corner batches.  Select per inserter (``dp_backend=``), per config
(``InsertionConfig.dp_backend`` / ``CtsConfig.backends.dp``), from the CLI
(``dscts --dp-backend``), or globally via ``REPRO_DP_BACKEND``; the default
is ``vectorized``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import Callable, Sequence

from repro.geometry.point import point_toward
from repro.insertion.candidate import CandidateSolution, merged_corner_tuples
from repro.insertion.dp_tree import DpNode, DpTree, build_dp_tree
from repro.insertion.frontier import (
    DP_BACKEND_NAMES,
    VectorizedInsertionDp,
    resolve_dp_backend,
)
from repro.insertion.moes import MoesWeights, select_by_moes, select_min_latency
from repro.insertion.patterns import EdgePattern, InsertionMode, patterns_for
from repro.insertion.pruning import prune_per_side
from repro.ir.design import KIND_NTSV, DesignArrays
from repro.tech.corners import CornerSet, Scenario
from repro.tech.layers import Side
from repro.tech.pdk import Pdk
from repro.timing import TimingResult, create_engine
from repro.timing.elmore import ROOT_DRIVE_RESISTANCE


@dataclass
class InsertionConfig:
    """Tuning knobs of the concurrent insertion DP.

    Attributes:
        weights: MOES weights (alpha, beta, gamma); the paper uses (1, 10, 1).
        selection: ``"moes"`` (default) or ``"min_latency"``; the latter is
            the "w/o MOES" variant compared in Fig. 10.
        max_segment_length: trunk edges longer than this (um) are subdivided
            before the DP; ``None`` keeps the routed edges untouched.
        keep_resource_diversity: keep cheaper-but-slower candidates alongside
            the (cap, delay) Pareto staircase so the root set stays diverse.
        max_candidates_per_side: beam width per side and DP node (an
            integer of at least 1, or ``None`` for no beam); bounds the
            quadratic merge cost.
        default_mode: insertion mode applied to every DP node unless a
            mode assignment callable or fanout threshold overrides it.
        dp_backend: ``"vectorized"`` (the array-based
            :class:`~repro.insertion.frontier.VectorizedInsertionDp` fast
            engine) or ``"reference"`` (the per-candidate DP, the executable
            spec); ``None`` uses the library default, overridable
            via the ``REPRO_DP_BACKEND`` environment variable.  Both backends
            produce identical selected trees (enforced differentially).
    """

    weights: MoesWeights = field(default_factory=MoesWeights)
    selection: str = "moes"
    max_segment_length: float | None = 200.0
    keep_resource_diversity: bool = False
    max_candidates_per_side: int | None = 16
    default_mode: InsertionMode = InsertionMode.FULL
    dp_backend: str | None = None

    def __post_init__(self) -> None:
        if self.selection not in ("moes", "min_latency"):
            raise ValueError(f"unknown selection strategy {self.selection!r}")
        if self.dp_backend is not None and self.dp_backend not in DP_BACKEND_NAMES:
            raise ValueError(
                f"unknown DP backend {self.dp_backend!r}; "
                f"expected one of {DP_BACKEND_NAMES}"
            )
        beam = self.max_candidates_per_side
        if beam is not None and (
            isinstance(beam, bool) or not isinstance(beam, int) or beam < 1
        ):
            raise ValueError(
                "max_candidates_per_side must be None or an integer >= 1, "
                f"got {beam!r}"
            )


@dataclass
class InsertionResult:
    """Outcome of the concurrent buffer and nTSV insertion.

    ``timing`` always reports the primary (nominal) corner;
    ``timing_per_corner`` carries one result per scenario when the DP's
    corner batch holds more than one (and is ``None`` for the one-corner
    nominal batch).  Both are analysed without slews, so their ``slews`` are
    empty.
    """

    tree: DesignArrays
    dp_tree: DpTree
    selected: CandidateSolution
    root_candidates: list[CandidateSolution]
    timing: TimingResult
    inserted_buffers: int
    inserted_ntsvs: int
    timing_per_corner: dict[str, TimingResult] | None = None
    #: DP subtrees the parallel path shipped to the pool (0 when serial)
    #: and the recovery events (retries, degrade-to-serial) recorded for
    #: them by :func:`repro.parallel.run_tasks`.
    parallel_tasks: int = 0
    parallel_diagnostics: list = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.timing.latency

    @property
    def skew(self) -> float:
        return self.timing.skew

    @property
    def worst_latency(self) -> float:
        """Largest latency across the corner batch (nominal when no corners)."""
        if not self.timing_per_corner:
            return self.latency
        return max(r.latency for r in self.timing_per_corner.values())

    @property
    def worst_skew(self) -> float:
        """Largest skew across the corner batch (nominal when no corners)."""
        if not self.timing_per_corner:
            return self.skew
        return max(r.skew for r in self.timing_per_corner.values())

    def summary(self) -> dict[str, float | int]:
        summary: dict[str, float | int] = {
            "latency_ps": round(self.timing.latency, 3),
            "skew_ps": round(self.timing.skew, 3),
            "buffers": self.inserted_buffers,
            "ntsvs": self.inserted_ntsvs,
            "root_candidates": len(self.root_candidates),
        }
        if self.timing_per_corner:
            summary["worst_latency_ps"] = round(self.worst_latency, 3)
            summary["worst_skew_ps"] = round(self.worst_skew, 3)
        return summary


class ConcurrentInserter:
    """Concurrent buffer and nTSV insertion by multi-objective DP."""

    def __init__(
        self,
        pdk: Pdk,
        config: InsertionConfig | None = None,
        engine: str | None = None,
        corners: CornerSet | Scenario | str | None = None,
        dp_backend: str | None = None,
        workers: int | None = None,
        parallel_policy=None,
    ) -> None:
        self.pdk = pdk
        self.config = config if config is not None else InsertionConfig()
        # Deferred import: repro.parallel is dependency-free but the explicit
        # resolution rule (argument > env > 1) lives there.
        from repro.parallel import resolve_workers

        self.workers = resolve_workers(workers)
        # Fault-tolerance knob of the subtree-parallel DP path; ``None``
        # resolves the usual precedence (env var, then defaults) inside
        # run_tasks.
        self.parallel_policy = parallel_policy
        if dp_backend is None:
            dp_backend = self.config.dp_backend
        self.dp_backend = resolve_dp_backend(dp_backend)
        self._engine = create_engine(pdk, engine, corners=corners)
        # The engine resolves the corner set (nominal prepended when absent)
        # and derives the per-corner PDKs, so DP candidate tuples and engine
        # corner batches share one order and one technology.  ``None``
        # resolves to the nominal set, whose only PDK is ``pdk`` itself.
        self.corners = self._engine.corners
        self._primary = self._engine.primary_index
        self._corner_pdks = self._engine.corner_pdks

    # ----------------------------------------------------------------- public
    def run(
        self,
        design: DesignArrays,
        mode_of: Callable[[DpNode], InsertionMode] | None = None,
        fanout_threshold: int | None = None,
    ) -> InsertionResult:
        """Insert buffers and nTSVs into ``design`` (modified in place).

        Args:
            design: the routed, unbuffered design, under either DP backend
                and either timing engine.
            mode_of: optional per-node mode assignment (overrides the default).
            fanout_threshold: the DSE heuristic — nodes with fewer downstream
                sinks than the threshold use full mode, others intra-side.
        """
        if not isinstance(design, DesignArrays):
            raise TypeError(
                "ConcurrentInserter.run edits a DesignArrays; compile object "
                "trees with DesignArrays.from_clock_tree(tree)"
            )
        dp_tree = build_dp_tree(
            design,
            self.pdk,
            max_segment_length=self.config.max_segment_length,
            default_mode=self.config.default_mode,
            corner_pdks=self._corner_pdks,
        )
        if mode_of is not None:
            dp_tree.configure_modes(mode_of)
        if fanout_threshold is not None:
            dp_tree.configure_fanout_threshold(fanout_threshold)

        self._last_parallel: tuple[int, list] = (0, [])
        if self.dp_backend == "vectorized":
            root_candidates, selected = self._run_vectorized(dp_tree)
        else:
            candidates = self._bottom_up(dp_tree)
            root_candidates = self._root_candidates(dp_tree, candidates)
            selected = self._select(root_candidates)
            self._top_down(dp_tree, candidates, selected)

        # Only latency and skew of the closing analysis are read (and the
        # guard screens its arrivals): no slews.
        timing = self._engine.analyze(design, with_slew=False)
        timing_per_corner = (
            self._engine.analyze_corners(design, with_slew=False)
            if len(self.corners) > 1
            else None
        )
        _nodes, _sinks, buffers, ntsvs = design.counts()
        parallel_tasks, parallel_diagnostics = self._last_parallel
        return InsertionResult(
            tree=design,
            dp_tree=dp_tree,
            selected=selected,
            root_candidates=root_candidates,
            timing=timing,
            inserted_buffers=buffers,
            inserted_ntsvs=ntsvs,
            timing_per_corner=timing_per_corner,
            parallel_tasks=parallel_tasks,
            parallel_diagnostics=parallel_diagnostics,
        )

    # --------------------------------------------------- vectorized backend
    def _run_vectorized(
        self, dp_tree: DpTree
    ) -> tuple[list[CandidateSolution], CandidateSolution]:
        """Steps 2-4 on the array-based fast engine (``dp_backend``).

        The frontier DP produces the same root candidate set (materialised
        back into :class:`CandidateSolution` objects so Step 3 reuses the
        exact MOES / min-latency selectors) and realises the chosen patterns
        from the recorded back-pointer arrays in the same stack order as the
        object backend, so both backends build bit-identical trees.
        """
        dp = VectorizedInsertionDp(
            self.pdk, self.config, self._corner_pdks, primary_index=self._primary
        )
        frontiers, root = dp.run(
            dp_tree, workers=self.workers, parallel_policy=self.parallel_policy
        )
        self._last_parallel = (dp.parallel_tasks, dp.parallel_diagnostics)
        root_candidates = dp.materialize_root(root)
        selected = self._select(root_candidates)
        chosen = next(i for i, c in enumerate(root_candidates) if c is selected)
        dp.realize(dp_tree, frontiers, root.choice[chosen], self._realize_pattern)
        return root_candidates, selected

    # ------------------------------------------------------- step 2: bottom-up
    def _bottom_up(self, dp_tree: DpTree) -> dict[int, list[CandidateSolution]]:
        """Generate pruned candidate sets for every DP node, bottom-up."""
        candidates: dict[int, list[CandidateSolution]] = {}
        for dp_node in dp_tree.nodes:
            merged = self._merge(dp_node, candidates)
            inserted = self._insert(dp_node, merged)
            pruned = prune_per_side(
                inserted,
                max_capacitance=self.pdk.max_capacitance,
                keep_resource_diversity=self.config.keep_resource_diversity,
                max_candidates_per_side=self.config.max_candidates_per_side,
            )
            if not pruned:
                # Every candidate violates the maximum load (e.g. an oversized
                # leaf net that even a buffer cannot legalise).  Keep the DP
                # total by retaining the unchecked candidates; the violation
                # then shows up in the evaluation instead of aborting the run.
                relaxed = self._insert(dp_node, merged, enforce_driver_load=False)
                pruned = prune_per_side(
                    relaxed,
                    max_capacitance=None,
                    keep_resource_diversity=self.config.keep_resource_diversity,
                    max_candidates_per_side=self.config.max_candidates_per_side,
                )
            if not pruned:  # pragma: no cover - relaxed insertion is always non-empty
                raise RuntimeError(
                    f"DP node {dp_node.name} has no feasible candidate solutions"
                )
            candidates[dp_node.index] = pruned
        return candidates

    def _merge(
        self,
        dp_node: DpNode,
        candidates: dict[int, list[CandidateSolution]],
    ) -> list[CandidateSolution]:
        """Merge predecessor candidates at the downstream vertex of ``dp_node``.

        Leaf DP nodes start from the lumped leaf-net load with the vertex
        forced to the front side.  The merged candidate's ``children`` tuple
        lists one candidate per predecessor, in predecessor order, which is
        what the top-down decision retraces.
        """
        if dp_node.is_leaf:
            return [
                self._candidate(
                    Side.FRONT,
                    dp_node.corner_base_capacitance,
                    dp_node.corner_base_max_delay,
                    dp_node.corner_base_min_delay,
                )
            ]

        first, *rest = dp_node.predecessors
        combos = self._combos(candidates[first.index])
        for pred in rest:
            combos = self._combine(combos, candidates[pred.index])
            if not combos:
                raise RuntimeError(
                    f"DP node {dp_node.name}: predecessors have no side-compatible "
                    "candidate combination"
                )

        # Add the static load at the vertex (pin cap + direct leaf net).
        base_cap = dp_node.corner_base_capacitance
        base_max = dp_node.corner_base_max_delay
        base_min = dp_node.corner_base_min_delay
        finalized: list[CandidateSolution] = []
        for combo in combos:
            corner_max = combo.corner_max_delay
            corner_min = combo.corner_min_delay
            if dp_node.has_direct_sinks:
                if combo.up_side is not Side.FRONT:
                    continue  # leaf nets are front-side: the vertex must be front
                corner_max = tuple(map(max, corner_max, base_max))
                corner_min = tuple(map(min, corner_min, base_min))
            finalized.append(
                self._candidate(
                    combo.up_side,
                    tuple(map(add, combo.corner_capacitance, base_cap)),
                    corner_max,
                    corner_min,
                    combo.buffer_count,
                    combo.ntsv_count,
                    combo.children,
                )
            )
        if not finalized:
            raise RuntimeError(
                f"DP node {dp_node.name}: no merged candidate satisfies the "
                "front-side leaf-net constraint"
            )
        return prune_per_side(
            finalized,
            max_capacitance=None,
            keep_resource_diversity=self.config.keep_resource_diversity,
            max_candidates_per_side=self.config.max_candidates_per_side,
        )

    def _insert(
        self,
        dp_node: DpNode,
        merged: Sequence[CandidateSolution],
        enforce_driver_load: bool = True,
    ) -> list[CandidateSolution]:
        """Apply every allowed pattern of ``dp_node`` to every merged candidate."""
        results: list[CandidateSolution] = []
        for base in merged:
            allowed = patterns_for(
                dp_node.mode,
                self.pdk.has_backside,
                required_down_side=base.up_side,
            )
            for pattern in allowed:
                candidate = self._apply_pattern(
                    pattern,
                    dp_node.length,
                    base,
                    enforce_driver_load=enforce_driver_load,
                )
                if candidate is not None:
                    results.append(candidate)
        return results

    def _pattern_cost(
        self,
        pattern: EdgePattern,
        length: float,
        cap: float,
        corner_pdk: Pdk,
        enforce_driver_load: bool,
    ) -> tuple[float, float] | None:
        """(added delay, new upstream cap) of one pattern at one corner.

        Matches the realisation in :meth:`_realize_pattern` and therefore the
        Elmore engine exactly (Eq. (1) / Eq. (2) of the paper) — per corner,
        because ``corner_pdk`` is the ``scenario.apply_to(pdk)`` technology of
        one operating point.  Returns None when the pattern would make an
        inserted buffer drive more than the PDK's maximum load (and
        ``enforce_driver_load`` is set).
        """
        front = corner_pdk.front_layer
        back = corner_pdk.back_layer if corner_pdk.has_backside else None
        buffer = corner_pdk.buffer
        delay = 0.0

        if pattern.name == "P2_Wiring_F":
            delay += front.wire_delay(length, cap)
            cap += front.wire_capacitance(length)
        elif pattern.name == "P3_Wiring_B":
            assert back is not None
            delay += back.wire_delay(length, cap)
            cap += back.wire_capacitance(length)
        elif pattern.name == "P1_Buffer":
            half = length / 2.0
            delay += front.wire_delay(half, cap)
            cap += front.wire_capacitance(half)
            if enforce_driver_load and cap > corner_pdk.max_capacitance + 1e-9:
                return None
            delay += buffer.delay(cap)
            cap = buffer.input_capacitance
            delay += front.wire_delay(half, cap)
            cap += front.wire_capacitance(half)
        elif pattern.name == "P4_nTSV1":
            assert back is not None and corner_pdk.ntsv is not None
            ntsv = corner_pdk.ntsv
            delay += ntsv.delay(cap)
            cap += ntsv.capacitance
            delay += back.wire_delay(length, cap)
            cap += back.wire_capacitance(length)
            delay += ntsv.delay(cap)
            cap += ntsv.capacitance
        elif pattern.name == "P5_nTSV2":
            assert back is not None and corner_pdk.ntsv is not None
            ntsv = corner_pdk.ntsv
            delay += ntsv.delay(cap)
            cap += ntsv.capacitance
            delay += back.wire_delay(length, cap)
            cap += back.wire_capacitance(length)
        elif pattern.name == "P6_nTSV3":
            assert back is not None and corner_pdk.ntsv is not None
            ntsv = corner_pdk.ntsv
            delay += back.wire_delay(length, cap)
            cap += back.wire_capacitance(length)
            delay += ntsv.delay(cap)
            cap += ntsv.capacitance
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown pattern {pattern.name!r}")
        return delay, cap

    def _apply_pattern(
        self,
        pattern: EdgePattern,
        length: float,
        base: CandidateSolution,
        enforce_driver_load: bool = True,
    ) -> CandidateSolution | None:
        """Electrical effect of implementing one edge with ``pattern``.

        Evaluates the per-corner loop over the corner PDKs (the executable
        spec of the corner cost model) and mirrors the primary corner in the
        scalar fields.  A pattern illegal at *any* corner (buffer overload)
        is rejected outright — the constraint is physical.
        """
        caps: list[float] = []
        max_delays: list[float] = []
        min_delays: list[float] = []
        for cap, max_delay, min_delay, corner_pdk in zip(
            base.corner_capacitance,
            base.corner_max_delay,
            base.corner_min_delay,
            self._corner_pdks,
        ):
            cost = self._pattern_cost(
                pattern, length, cap, corner_pdk, enforce_driver_load
            )
            if cost is None:
                return None
            delay, cap = cost
            caps.append(cap)
            max_delays.append(max_delay + delay)
            min_delays.append(min_delay + delay)
        primary = self._primary
        return base.with_pattern(
            pattern,
            capacitance=caps[primary],
            max_delay=max_delays[primary],
            min_delay=min_delays[primary],
            added_buffers=pattern.buffer_count,
            added_ntsvs=pattern.ntsv_count,
            corner_capacitance=tuple(caps),
            corner_max_delay=tuple(max_delays),
            corner_min_delay=tuple(min_delays),
        )

    def _combos(self, cands: list[CandidateSolution]) -> list[CandidateSolution]:
        """The first predecessor's candidates as one-child merge combos."""
        return [
            self._candidate(
                c.up_side,
                c.corner_capacitance,
                c.corner_max_delay,
                c.corner_min_delay,
                c.buffer_count,
                c.ntsv_count,
                (c,),
            )
            for c in cands
        ]

    def _combine(
        self, combos: list[CandidateSolution], cands: list[CandidateSolution]
    ) -> list[CandidateSolution]:
        """Merge every combo with every candidate of the next predecessor
        whose side matches (the connectivity constraint at the shared
        vertex), combo-major; each merge appends the candidate to the
        combo's ``children``."""
        return [
            self._candidate(
                combo.up_side,
                *merged_corner_tuples(combo, cand),
                combo.buffer_count + cand.buffer_count,
                combo.ntsv_count + cand.ntsv_count,
                combo.children + (cand,),
            )
            for combo in combos
            for cand in cands
            if cand.up_side is combo.up_side
        ]

    def _candidate(
        self,
        up_side: Side,
        corner_capacitance: tuple[float, ...],
        corner_max_delay: tuple[float, ...],
        corner_min_delay: tuple[float, ...],
        buffer_count: int = 0,
        ntsv_count: int = 0,
        children: tuple[CandidateSolution, ...] = (),
    ) -> CandidateSolution:
        """A pattern-less candidate whose scalars mirror the primary corner."""
        primary = self._primary
        return CandidateSolution(
            up_side,
            corner_capacitance[primary],
            corner_max_delay[primary],
            corner_min_delay[primary],
            buffer_count,
            ntsv_count,
            None,
            children,
            corner_capacitance,
            corner_max_delay,
            corner_min_delay,
        )

    # -------------------------------------------------------- step 3: selection
    def _root_candidates(
        self,
        dp_tree: DpTree,
        candidates: dict[int, list[CandidateSolution]],
    ) -> list[CandidateSolution]:
        """Combine the root DP nodes at the clock source (front side only)."""
        fronts: list[list[CandidateSolution]] = []
        for root_dp in dp_tree.root_nodes:
            cands = [
                c for c in candidates[root_dp.index] if c.up_side is Side.FRONT
            ]
            if not cands:
                raise RuntimeError(
                    f"root DP node {root_dp.name} has no front-side candidate"
                )
            fronts.append(cands)
        combos = self._combos(fronts[0])
        for cands in fronts[1:]:
            combos = self._combine(combos, cands)
        # Account for the clock source driving the root load.  The source
        # drive resistance is corner-independent, but the driven load is not,
        # so each corner gets its own source delay.
        final = []
        for combo in combos:
            source_delay = [
                ROOT_DRIVE_RESISTANCE * cap for cap in combo.corner_capacitance
            ]
            final.append(
                self._candidate(
                    Side.FRONT,
                    combo.corner_capacitance,
                    tuple(map(add, combo.corner_max_delay, source_delay)),
                    tuple(map(add, combo.corner_min_delay, source_delay)),
                    combo.buffer_count,
                    combo.ntsv_count,
                    combo.children,
                )
            )
        return final

    def _select(self, root_candidates: list[CandidateSolution]) -> CandidateSolution:
        if self.config.selection == "min_latency":
            return select_min_latency(root_candidates)
        return select_by_moes(root_candidates, self.config.weights)

    # -------------------------------------------------------- step 4: top-down
    def _top_down(
        self,
        dp_tree: DpTree,
        candidates: dict[int, list[CandidateSolution]],
        selected: CandidateSolution,
    ) -> None:
        """Retrace the recorded dependencies and realise the chosen patterns."""
        stack: list[tuple[DpNode, CandidateSolution]] = list(
            zip(dp_tree.root_nodes, selected.children)
        )
        while stack:
            dp_node, cand = stack.pop()
            if cand.pattern is None:
                raise RuntimeError(
                    f"top-down decision reached {dp_node.name} without a pattern"
                )
            self._realize_pattern(dp_tree.design, dp_node, cand.pattern)
            merged = cand.children[0]
            stack.extend(zip(dp_node.predecessors, merged.children))
        # Pattern realisation rewrites wire sides directly on the rows, which
        # the design's edit log cannot see — record an unscoped change so that
        # incremental timing engines recompile instead of serving stale data.
        dp_tree.design.touch()

    def _realize_pattern(
        self, design: DesignArrays, dp_node: DpNode, pattern: EdgePattern
    ) -> None:
        """Insert the devices and assign wire sides for one decided edge."""
        child = dp_node.tree_row
        parent = int(design.parent_row[child])
        if parent < 0:  # pragma: no cover - root edges always have a parent
            raise RuntimeError(f"DP node {dp_node.name} has no parent edge")
        ntsv = self.pdk.ntsv
        length = dp_node.length

        if pattern.name == "P2_Wiring_F":
            design.wire_front[child] = True
            if design.kind[child] != KIND_NTSV:
                design.side_front[child] = True
        elif pattern.name == "P3_Wiring_B":
            design.wire_front[child] = False
            design.side_front[child] = False
        elif pattern.name == "P1_Buffer":
            design.wire_front[child] = True
            design.side_front[child] = True
            midpoint = point_toward(
                design.location_of(child), design.location_of(parent), length / 2.0
            )
            design.add_buffer(
                child, midpoint.x, midpoint.y, self.pdk.buffer.input_capacitance
            )
        elif pattern.name == "P4_nTSV1":
            assert ntsv is not None
            design.wire_front[child] = True
            design.side_front[child] = True
            child_location = design.location_of(child)
            parent_location = design.location_of(parent)
            low = design.add_ntsv(
                child,
                child_location.x,
                child_location.y,
                ntsv.capacitance,
                upstream_front=False,
            )
            design.add_ntsv(
                low,
                parent_location.x,
                parent_location.y,
                ntsv.capacitance,
                upstream_front=True,
            )
        elif pattern.name == "P5_nTSV2":
            assert ntsv is not None
            design.wire_front[child] = True
            design.side_front[child] = True
            child_location = design.location_of(child)
            design.add_ntsv(
                child,
                child_location.x,
                child_location.y,
                ntsv.capacitance,
                upstream_front=False,
            )
        elif pattern.name == "P6_nTSV3":
            assert ntsv is not None
            design.wire_front[child] = False
            design.side_front[child] = False
            parent_location = design.location_of(parent)
            design.add_ntsv(
                child,
                parent_location.x,
                parent_location.y,
                ntsv.capacitance,
                upstream_front=True,
            )
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown pattern {pattern.name!r}")
