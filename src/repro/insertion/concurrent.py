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
   chosen pattern of every DP node is realised on the clock tree (buffer and
   nTSV nodes are inserted, wire sides assigned), producing a legal
   double-side clock tree without any extra legalisation step.

**Corner-aware construction.**  Pass ``corners=`` (a
:class:`~repro.tech.corners.CornerSet`, a scenario, or a spec string) to run
the whole DP against a PVT corner batch: every candidate carries per-corner
(capacitance, max delay, min delay) tuples evaluated against the
``scenario.apply_to(pdk)`` corner PDKs, pruning switches to worst-corner
dominance, and the MOES / min-latency selection scores the worst-corner
delay — so the selected tree optimises what multi-corner sign-off actually
measures.  The scalar candidate fields keep mirroring the primary (nominal)
corner, and a nominal-only run (``corners=None``) is bit-identical to the
classic single-corner DP.

**Two DP backends.**  The per-candidate object DP implemented in this module
is the executable spec; :mod:`repro.insertion.frontier` provides the
production ``vectorized`` backend (struct-of-arrays candidate frontiers,
broadcast merges, batched pattern costs, vectorized pruning) which builds an
identical tree several-fold faster — close to corner-count-independent for
corner-aware runs.  Select per inserter (``dp_backend=``), per config
(``InsertionConfig.dp_backend`` / ``CtsConfig.backends.dp``), from the CLI
(``dscts --dp-backend``), or globally via ``REPRO_DP_BACKEND``; the default
is ``vectorized``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.clocktree import ClockTree
from repro.geometry.point import point_toward
from repro.insertion.candidate import CandidateSolution, merged_corner_tuples
from repro.insertion.dp_tree import (
    DpNode,
    DpTree,
    attach_corner_bases,
    build_dp_tree,
)
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
from repro.timing import TimingResult, VectorizedElmoreEngine, create_engine


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
        max_candidates_per_side: beam width per side and DP node; bounds the
            quadratic merge cost.
        default_mode: insertion mode applied to every DP node unless a
            mode assignment callable or fanout threshold overrides it.
        root_resistance: drive resistance (kOhm) of the clock source, used to
            translate root candidates into latency estimates.
        corners: PVT corner batch the DP optimises against (a
            :class:`~repro.tech.corners.CornerSet`, a scenario, or a spec
            string); ``None`` keeps the classic nominal-only cost model.  An
            explicit ``corners=`` argument to :class:`ConcurrentInserter`
            takes precedence.
        dp_backend: ``"vectorized"`` (the array-based
            :class:`~repro.insertion.frontier.VectorizedInsertionDp` fast
            engine) or ``"reference"`` (the per-candidate object DP, the
            executable spec); ``None`` uses the library default, overridable
            via the ``REPRO_DP_BACKEND`` environment variable.  Both backends
            produce identical selected trees (enforced differentially).
    """

    weights: MoesWeights = field(default_factory=MoesWeights)
    selection: str = "moes"
    max_segment_length: float | None = 200.0
    keep_resource_diversity: bool = False
    max_candidates_per_side: int | None = 16
    default_mode: InsertionMode = InsertionMode.FULL
    root_resistance: float = 0.1
    corners: CornerSet | Scenario | str | None = None
    dp_backend: str | None = None

    def __post_init__(self) -> None:
        if self.selection not in ("moes", "min_latency"):
            raise ValueError(f"unknown selection strategy {self.selection!r}")
        if self.dp_backend is not None and self.dp_backend not in DP_BACKEND_NAMES:
            raise ValueError(
                f"unknown DP backend {self.dp_backend!r}; "
                f"expected one of {DP_BACKEND_NAMES}"
            )


@dataclass
class InsertionResult:
    """Outcome of the concurrent buffer and nTSV insertion.

    ``timing`` always reports the primary (nominal) corner;
    ``timing_per_corner`` carries one result per scenario when the DP ran
    corner-aware (and is ``None`` for nominal-only runs).
    """

    tree: ClockTree | DesignArrays
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
        if corners is None:
            corners = self.config.corners
        self._engine = create_engine(pdk, engine, corners=corners)
        # The engine resolves the corner set (nominal prepended when absent)
        # and derives the per-corner PDKs, so DP candidate tuples and engine
        # corner batches share one order and one technology.
        self.corners = self._engine.corners
        self._corner_aware = corners is not None and len(self.corners) > 1
        self._primary = self._engine.primary_index
        self._corner_pdks = (
            self._engine.corner_pdks if self._corner_aware else [pdk]
        )

    # ----------------------------------------------------------------- public
    def run(
        self,
        tree: ClockTree | DesignArrays,
        dp_tree: DpTree | None = None,
        mode_of: Callable[[DpNode], InsertionMode] | None = None,
        fanout_threshold: int | None = None,
    ) -> InsertionResult:
        """Insert buffers and nTSVs into ``tree`` (modified in place).

        Args:
            tree: the routed, unbuffered clock tree — :class:`ClockTree` or
                its array IR, :class:`~repro.ir.design.DesignArrays` (the
                ``vectorized`` DP backend and timing engine only; the
                reference DP and the reference engine consume object trees,
                bridge via ``to_clock_tree()``).
            dp_tree: a pre-built DP tree; built from ``tree`` when omitted.
            mode_of: optional per-node mode assignment (overrides the default).
            fanout_threshold: the DSE heuristic — nodes with fewer downstream
                sinks than the threshold use full mode, others intra-side.
        """
        is_design = isinstance(tree, DesignArrays)
        if is_design and self.dp_backend != "vectorized":
            raise ValueError(
                "the reference DP backend runs on object trees; realise the "
                "design via to_clock_tree() before running it"
            )
        if is_design and not isinstance(self._engine, VectorizedElmoreEngine):
            raise ValueError(
                "the reference timing engine runs on object trees; realise the "
                "design via to_clock_tree() before running it"
            )
        if dp_tree is None:
            dp_tree = build_dp_tree(
                tree,
                self.pdk,
                max_segment_length=self.config.max_segment_length,
                default_mode=self.config.default_mode,
                corner_pdks=self._corner_pdks if self._corner_aware else None,
            )
        elif self._corner_aware:
            # A pre-built DP tree may lack (or carry stale) corner bases.
            attach_corner_bases(dp_tree, self._corner_pdks)
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

        timing = self._engine.analyze(tree)
        timing_per_corner = (
            self._engine.analyze_corners(tree, with_slew=False)
            if self._corner_aware
            else None
        )
        if is_design:
            _nodes, _sinks, buffers, ntsvs = tree.counts()
        else:
            buffers = tree.buffer_count()
            ntsvs = tree.ntsv_count()
        parallel_tasks, parallel_diagnostics = self._last_parallel
        return InsertionResult(
            tree=tree,
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
            self.pdk,
            self.config,
            self._corner_pdks,
            primary_index=self._primary if self._corner_aware else 0,
            corner_aware=self._corner_aware,
        )
        frontiers, root = dp.run(
            dp_tree, workers=self.workers, parallel_policy=self.parallel_policy
        )
        self._last_parallel = (dp.parallel_tasks, dp.parallel_diagnostics)
        root_candidates = dp.materialize_root(root)
        selected = self._select(root_candidates)
        chosen = next(i for i, c in enumerate(root_candidates) if c is selected)
        realize = (
            self._realize_pattern_design
            if isinstance(dp_tree.clock_tree, DesignArrays)
            else self._realize_pattern
        )
        dp.realize(dp_tree, frontiers, root.choice[chosen], realize)
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
        corner_aware = self._corner_aware
        if dp_node.is_leaf:
            return [
                CandidateSolution(
                    up_side=Side.FRONT,
                    capacitance=dp_node.base_capacitance,
                    max_delay=dp_node.base_max_delay,
                    min_delay=dp_node.base_min_delay,
                    corner_capacitance=(
                        dp_node.corner_base_capacitance if corner_aware else None
                    ),
                    corner_max_delay=(
                        dp_node.corner_base_max_delay if corner_aware else None
                    ),
                    corner_min_delay=(
                        dp_node.corner_base_min_delay if corner_aware else None
                    ),
                )
            ]

        combos: list[CandidateSolution] = []
        first = True
        for pred in dp_node.predecessors:
            pred_cands = candidates[pred.index]
            if first:
                combos = [
                    CandidateSolution(
                        up_side=c.up_side,
                        capacitance=c.capacitance,
                        max_delay=c.max_delay,
                        min_delay=c.min_delay,
                        buffer_count=c.buffer_count,
                        ntsv_count=c.ntsv_count,
                        children=(c,),
                        corner_capacitance=c.corner_capacitance,
                        corner_max_delay=c.corner_max_delay,
                        corner_min_delay=c.corner_min_delay,
                    )
                    for c in pred_cands
                ]
                first = False
                continue
            next_combos: list[CandidateSolution] = []
            for combo in combos:
                for cand in pred_cands:
                    if cand.up_side is not combo.up_side:
                        continue  # connectivity constraint at the shared vertex
                    corner_cap, corner_max, corner_min = merged_corner_tuples(
                        combo, cand
                    )
                    next_combos.append(
                        CandidateSolution(
                            up_side=combo.up_side,
                            capacitance=combo.capacitance + cand.capacitance,
                            max_delay=max(combo.max_delay, cand.max_delay),
                            min_delay=min(combo.min_delay, cand.min_delay),
                            buffer_count=combo.buffer_count + cand.buffer_count,
                            ntsv_count=combo.ntsv_count + cand.ntsv_count,
                            children=combo.children + (cand,),
                            corner_capacitance=corner_cap,
                            corner_max_delay=corner_max,
                            corner_min_delay=corner_min,
                        )
                    )
            combos = next_combos
            if not combos:
                raise RuntimeError(
                    f"DP node {dp_node.name}: predecessors have no side-compatible "
                    "candidate combination"
                )

        # Add the static load at the vertex (pin cap + direct leaf net).
        finalized: list[CandidateSolution] = []
        for combo in combos:
            max_delay = combo.max_delay
            min_delay = combo.min_delay
            corner_max = combo.corner_max_delay
            corner_min = combo.corner_min_delay
            if dp_node.has_direct_sinks:
                if combo.up_side is not Side.FRONT:
                    continue  # leaf nets are front-side: the vertex must be front
                max_delay = max(max_delay, dp_node.base_max_delay)
                min_delay = min(min_delay, dp_node.base_min_delay)
                if corner_aware:
                    corner_max = tuple(
                        max(a, b)
                        for a, b in zip(corner_max, dp_node.corner_base_max_delay)
                    )
                    corner_min = tuple(
                        min(a, b)
                        for a, b in zip(corner_min, dp_node.corner_base_min_delay)
                    )
            finalized.append(
                CandidateSolution(
                    up_side=combo.up_side,
                    capacitance=combo.capacitance + dp_node.base_capacitance,
                    max_delay=max_delay,
                    min_delay=min_delay,
                    buffer_count=combo.buffer_count,
                    ntsv_count=combo.ntsv_count,
                    children=combo.children,
                    corner_capacitance=(
                        tuple(
                            cap + base
                            for cap, base in zip(
                                combo.corner_capacitance,
                                dp_node.corner_base_capacitance,
                            )
                        )
                        if corner_aware
                        else None
                    ),
                    corner_max_delay=corner_max,
                    corner_min_delay=corner_min,
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

        Nominal runs evaluate the single-corner cost; corner-aware runs
        evaluate the per-corner loop over the corner PDKs (the executable
        spec of the corner cost model) and keep the scalar fields mirroring
        the primary corner.  A pattern illegal at *any* corner (buffer
        overload) is rejected outright — the constraint is physical.
        """
        if not self._corner_aware:
            cost = self._pattern_cost(
                pattern, length, base.capacitance, self.pdk, enforce_driver_load
            )
            if cost is None:
                return None
            delay, cap = cost
            return base.with_pattern(
                pattern,
                capacitance=cap,
                max_delay=base.max_delay + delay,
                min_delay=base.min_delay + delay,
                added_buffers=pattern.buffer_count,
                added_ntsvs=pattern.ntsv_count,
            )

        caps: list[float] = []
        max_delays: list[float] = []
        min_delays: list[float] = []
        for k, corner_pdk in enumerate(self._corner_pdks):
            cost = self._pattern_cost(
                pattern,
                length,
                base.corner_capacitance[k],
                corner_pdk,
                enforce_driver_load,
            )
            if cost is None:
                return None
            delay, cap = cost
            caps.append(cap)
            max_delays.append(base.corner_max_delay[k] + delay)
            min_delays.append(base.corner_min_delay[k] + delay)
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

    # -------------------------------------------------------- step 3: selection
    def _root_candidates(
        self,
        dp_tree: DpTree,
        candidates: dict[int, list[CandidateSolution]],
    ) -> list[CandidateSolution]:
        """Combine the root DP nodes at the clock source (front side only)."""
        corner_aware = self._corner_aware
        combos: list[CandidateSolution] = []
        first = True
        for root_dp in dp_tree.root_nodes:
            cands = [
                c for c in candidates[root_dp.index] if c.up_side is Side.FRONT
            ]
            if not cands:
                raise RuntimeError(
                    f"root DP node {root_dp.name} has no front-side candidate"
                )
            if first:
                combos = [
                    CandidateSolution(
                        up_side=Side.FRONT,
                        capacitance=c.capacitance,
                        max_delay=c.max_delay,
                        min_delay=c.min_delay,
                        buffer_count=c.buffer_count,
                        ntsv_count=c.ntsv_count,
                        children=(c,),
                        corner_capacitance=c.corner_capacitance,
                        corner_max_delay=c.corner_max_delay,
                        corner_min_delay=c.corner_min_delay,
                    )
                    for c in cands
                ]
                first = False
                continue
            next_combos = []
            for combo in combos:
                for cand in cands:
                    corner_cap, corner_max, corner_min = merged_corner_tuples(
                        combo, cand
                    )
                    next_combos.append(
                        CandidateSolution(
                            up_side=Side.FRONT,
                            capacitance=combo.capacitance + cand.capacitance,
                            max_delay=max(combo.max_delay, cand.max_delay),
                            min_delay=min(combo.min_delay, cand.min_delay),
                            buffer_count=combo.buffer_count + cand.buffer_count,
                            ntsv_count=combo.ntsv_count + cand.ntsv_count,
                            children=combo.children + (cand,),
                            corner_capacitance=corner_cap,
                            corner_max_delay=corner_max,
                            corner_min_delay=corner_min,
                        )
                    )
            combos = next_combos
        # Account for the clock source driving the root load.  The source
        # drive resistance is corner-independent, but the driven load is not,
        # so each corner gets its own source delay.
        final = []
        for combo in combos:
            source_delay = self.config.root_resistance * combo.capacitance
            final.append(
                CandidateSolution(
                    up_side=Side.FRONT,
                    capacitance=combo.capacitance,
                    max_delay=combo.max_delay + source_delay,
                    min_delay=combo.min_delay + source_delay,
                    buffer_count=combo.buffer_count,
                    ntsv_count=combo.ntsv_count,
                    children=combo.children,
                    corner_capacitance=combo.corner_capacitance,
                    corner_max_delay=(
                        tuple(
                            d + self.config.root_resistance * cap
                            for d, cap in zip(
                                combo.corner_max_delay, combo.corner_capacitance
                            )
                        )
                        if corner_aware
                        else None
                    ),
                    corner_min_delay=(
                        tuple(
                            d + self.config.root_resistance * cap
                            for d, cap in zip(
                                combo.corner_min_delay, combo.corner_capacitance
                            )
                        )
                        if corner_aware
                        else None
                    ),
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
            self._realize_pattern(dp_tree.clock_tree, dp_node, cand.pattern)
            merged = cand.children[0]
            stack.extend(zip(dp_node.predecessors, merged.children))
        # Pattern realisation rewrites wire sides directly on the nodes, which
        # the tree's edit log cannot see — record an unscoped change so that
        # incremental timing engines recompile instead of serving stale data.
        dp_tree.clock_tree.touch()

    def _realize_pattern(
        self, tree: ClockTree, dp_node: DpNode, pattern: EdgePattern
    ) -> None:
        """Insert the devices and assign wire sides for one decided edge."""
        child = dp_node.tree_child
        parent = child.parent
        if parent is None:  # pragma: no cover - root edges always have a parent
            raise RuntimeError(f"DP node {dp_node.name} has no parent edge")
        ntsv = self.pdk.ntsv
        length = dp_node.length

        if pattern.name == "P2_Wiring_F":
            child.wire_side = Side.FRONT
            child.side = Side.FRONT if not child.is_ntsv else child.side
        elif pattern.name == "P3_Wiring_B":
            child.wire_side = Side.BACK
            child.side = Side.BACK
        elif pattern.name == "P1_Buffer":
            child.wire_side = Side.FRONT
            child.side = Side.FRONT
            midpoint = point_toward(child.location, parent.location, length / 2.0)
            tree.add_buffer(child, midpoint, self.pdk.buffer.input_capacitance)
        elif pattern.name == "P4_nTSV1":
            assert ntsv is not None
            child.wire_side = Side.FRONT
            child.side = Side.FRONT
            low = tree.add_ntsv(child, child.location, ntsv.capacitance, Side.BACK)
            tree.add_ntsv(low, parent.location, ntsv.capacitance, Side.FRONT)
        elif pattern.name == "P5_nTSV2":
            assert ntsv is not None
            child.wire_side = Side.FRONT
            child.side = Side.FRONT
            tree.add_ntsv(child, child.location, ntsv.capacitance, Side.BACK)
        elif pattern.name == "P6_nTSV3":
            assert ntsv is not None
            child.wire_side = Side.BACK
            child.side = Side.BACK
            tree.add_ntsv(child, parent.location, ntsv.capacitance, Side.FRONT)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown pattern {pattern.name!r}")

    def _realize_pattern_design(
        self, design: DesignArrays, dp_node: DpNode, pattern: EdgePattern
    ) -> None:
        """Row twin of :meth:`_realize_pattern` (same devices, names, order)."""
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
