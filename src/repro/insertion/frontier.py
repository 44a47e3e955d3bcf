"""Array-based DP backend for the concurrent insertion (the fast engine).

Mirrors the two-engine pattern of :mod:`repro.timing`: the object DP in
:mod:`repro.insertion.concurrent` (per-candidate
:class:`~repro.insertion.candidate.CandidateSolution` objects) is the
executable spec, and this module is the production backend.  Every DP node's
candidate set lives in a :class:`CandidateFrontier` struct-of-arrays, so

* ``_merge`` becomes a broadcast cross-product over two frontiers (outer-sum
  capacitance grids, element-wise max/min delay grids),
* pattern application evaluates all (candidate x pattern x corner) costs in
  one shot through the batched cell models
  (:meth:`~repro.tech.cells.BufferCell.delay_batch`, which routes through the
  batched NLDM path when a table and slew are available),
* the maximum driven-capacitance filter is a boolean mask, and
* dominance pruning is a vectorized staircase sweep (sort + cummin for the
  scalar case, an ``(n, n, K)`` broadcast — blocked for very large sets —
  vector-dominance test for corner batches).

Backends are selected through ``InsertionConfig.dp_backend`` /
``CtsConfig.backends.dp`` / ``dscts --dp-backend`` / the ``REPRO_DP_BACKEND``
environment variable, defaulting to ``vectorized``.

Both backends are kept *decision-identical*: candidate values are computed
with the same operation order (bit-identical floats), candidate ordering
follows the same stable sort keys, pruning implements the single rule
documented in :mod:`repro.insertion.pruning`, and the top-down realisation
walks the recorded back-pointers in the same stack order, so inserted nodes
receive identical names.  ``tests/test_insertion_vectorized.py`` enforces
identical selected trees and 1e-9-equal root candidate fronts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.insertion.candidate import CandidateSolution
from repro.insertion.dp_tree import DpNode, DpTree
from repro.insertion.patterns import PATTERNS, EdgePattern, patterns_for
from repro.ir.design import DesignArrays
from repro.tech.layers import Side
from repro.tech.pdk import Pdk
from repro.timing.elmore import ROOT_DRIVE_RESISTANCE

#: Backend used when neither the caller, the config, nor the environment
#: chooses one.  Mirrors ``repro.flow.config.DP_BACKEND_CHOICE`` (kept as
#: literals here because importing ``repro.flow.config`` at module scope
#: would cycle back into this package through ``repro.insertion.moes``).
DEFAULT_DP_BACKEND = "vectorized"

DP_BACKEND_NAMES = ("reference", "vectorized")

#: Compact side codes used by the frontier arrays.
SIDE_FRONT = 0
SIDE_BACK = 1
_SIDE_CODES = {Side.FRONT: SIDE_FRONT, Side.BACK: SIDE_BACK}

#: Pattern name -> compact pattern id (index into ``PATTERNS``).
_PATTERN_INDEX = {pattern.name: i for i, pattern in enumerate(PATTERNS)}

#: Tolerance shared with the object backend's dominance and load checks.
_TOL = 1e-9

#: Above this candidate count the pairwise dominance test runs in column
#: blocks (bounding the (n, n, K) broadcast memory).
_PAIRWISE_LIMIT = 512


def default_dp_backend() -> str:
    """The DP backend used for ``dp_backend=None`` (env override included)."""
    # Deferred import: repro.flow.config imports this package at module scope.
    from repro.flow.config import DP_BACKEND_CHOICE

    return DP_BACKEND_CHOICE.default_name()


def resolve_dp_backend(name: str | None) -> str:
    """Resolve an explicit/None backend name against the environment default."""
    from repro.flow.config import DP_BACKEND_CHOICE

    return DP_BACKEND_CHOICE.resolve(name)


@dataclass
class CandidateFrontier:
    """One DP node's candidate set as struct-of-arrays.

    The arrays mirror :class:`CandidateSolution` fields, with the per-corner
    tuples widened to a leading scenario axis: ``cap`` / ``max_delay`` /
    ``min_delay`` are ``(K, n)`` matrices (``K = 1`` for nominal runs; the
    primary row mirrors the object backend's scalar fields).

    Attributes:
        side: ``(n,)`` upstream-side codes (``SIDE_FRONT`` / ``SIDE_BACK``).
        cap: ``(K, n)`` effective capacitance (fF) per corner.
        max_delay: ``(K, n)`` worst path delay (ps) per corner.
        min_delay: ``(K, n)`` best path delay (ps) per corner.
        buffers: ``(n,)`` buffers used by the subtree under each candidate.
        ntsvs: ``(n,)`` nTSVs used by the subtree under each candidate.
        pattern: ``(n,)`` compact pattern ids (``-1`` before insertion).
        choice: ``(n, P)`` back-pointers — the candidate index chosen in each
            of the node's ``P`` predecessor frontiers (the recorded
            dependencies the top-down decision retraces).

    Frontier arrays may alias other frontiers (views / shared constants) and
    must therefore never be mutated in place; every DP step builds new arrays.
    """

    side: np.ndarray
    cap: np.ndarray
    max_delay: np.ndarray
    min_delay: np.ndarray
    buffers: np.ndarray
    ntsvs: np.ndarray
    pattern: np.ndarray
    choice: np.ndarray

    @property
    def size(self) -> int:
        return int(self.side.size)

    def take(self, idx: np.ndarray) -> "CandidateFrontier":
        """Gather a sub-frontier (preserving the order of ``idx``)."""
        return CandidateFrontier(
            side=self.side[idx],
            cap=self.cap[:, idx],
            max_delay=self.max_delay[:, idx],
            min_delay=self.min_delay[:, idx],
            buffers=self.buffers[idx],
            ntsvs=self.ntsvs[idx],
            pattern=self.pattern[idx],
            choice=self.choice[idx],
        )

    @staticmethod
    def concatenate(parts: Sequence["CandidateFrontier"]) -> "CandidateFrontier":
        """Concatenate frontiers with identical K and back-pointer width."""
        if len(parts) == 1:
            return parts[0]
        return CandidateFrontier(
            side=np.concatenate([p.side for p in parts]),
            cap=np.concatenate([p.cap for p in parts], axis=1),
            max_delay=np.concatenate([p.max_delay for p in parts], axis=1),
            min_delay=np.concatenate([p.min_delay for p in parts], axis=1),
            buffers=np.concatenate([p.buffers for p in parts]),
            ntsvs=np.concatenate([p.ntsvs for p in parts]),
            pattern=np.concatenate([p.pattern for p in parts]),
            choice=np.concatenate([p.choice for p in parts], axis=0),
        )


class VectorizedInsertionDp:
    """The array-based insertion DP: batched costs, masked filters, sweeps.

    Instantiated by :class:`~repro.insertion.concurrent.ConcurrentInserter`
    with the engine-resolved corner PDK list (``[pdk]`` for nominal runs), so
    both DP backends share one corner order and one technology.
    """

    def __init__(
        self,
        pdk: Pdk,
        config,
        corner_pdks: Sequence[Pdk],
        primary_index: int = 0,
        corner_aware: bool = False,
    ) -> None:
        self.pdk = pdk
        self.config = config
        self.corner_aware = corner_aware
        self.primary = primary_index
        self._buffers = [corner_pdk.buffer for corner_pdk in corner_pdks]
        self._k = len(corner_pdks)
        # Kept for the subtree-parallel path: workers rebuild an equivalent
        # DP instance from (pdk, config, corner pdks) in their own process.
        self._corner_pdks = list(corner_pdks)
        # Filled by run(): pool tasks shipped and recovery events recorded
        # for them (the inserter surfaces these on its result).
        self.parallel_tasks = 0
        self.parallel_diagnostics: list = []

        def column(values: list[float]) -> np.ndarray:
            return np.asarray(values, dtype=float)[:, None]

        front = [corner_pdk.front_layer for corner_pdk in corner_pdks]
        self.f_ur = column([layer.unit_resistance for layer in front])
        self.f_uc = column([layer.unit_capacitance for layer in front])
        self.buf_incap = column([buf.input_capacitance for buf in self._buffers])
        self.buf_intr = column([buf.intrinsic_delay for buf in self._buffers])
        self.buf_drive = column([buf.drive_resistance for buf in self._buffers])
        self.max_cap = column([p.max_capacitance for p in corner_pdks])
        if pdk.has_backside:
            back = [corner_pdk.back_layer for corner_pdk in corner_pdks]
            self.b_ur = column([layer.unit_resistance for layer in back])
            self.b_uc = column([layer.unit_capacitance for layer in back])
            ntsvs = [corner_pdk.ntsv for corner_pdk in corner_pdks]
            self.ntsv_r = column([ntsv.resistance for ntsv in ntsvs])
            self.ntsv_c = column([ntsv.capacitance for ntsv in ntsvs])
        else:
            self.b_ur = self.b_uc = self.ntsv_r = self.ntsv_c = None

        # Shared small constants (never mutated): leaf frontier scaffolding,
        # identity back-pointer ranges, per-pattern-set constant rows.
        self._leaf_side = np.zeros(1, np.int8)
        self._leaf_zeros = np.zeros(1, np.int64)
        self._leaf_pattern = np.full(1, -1, np.int16)
        self._leaf_choice = np.empty((1, 0), np.int64)
        self._arange_cache: dict[int, np.ndarray] = {}
        self._no_pattern_cache: dict[int, np.ndarray] = {}
        self._triu_cache: dict[int, np.ndarray] = {}
        self._tiled_cache: dict[
            tuple[tuple[EdgePattern, ...], int],
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        ] = {}
        self._pattern_consts: dict[
            tuple[EdgePattern, ...],
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        ] = {}

    def _arange(self, n: int) -> np.ndarray:
        cached = self._arange_cache.get(n)
        if cached is None:
            cached = np.arange(n, dtype=np.int64)
            self._arange_cache[n] = cached
        return cached

    def _no_pattern(self, n: int) -> np.ndarray:
        """Shared ``(n,)`` array of -1 pattern ids (merged frontiers)."""
        cached = self._no_pattern_cache.get(n)
        if cached is None:
            cached = np.full(n, -1, np.int16)
            self._no_pattern_cache[n] = cached
        return cached

    def _triu(self, n: int) -> np.ndarray:
        """Shared strict upper-triangle mask (earlier-candidate pairs)."""
        cached = self._triu_cache.get(n)
        if cached is None:
            rows = np.arange(n)
            cached = rows[:, None] < rows[None, :]
            self._triu_cache[n] = cached
        return cached

    def _tiled_rows(
        self, allowed: tuple[EdgePattern, ...], n_base: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Cached per-(pattern set, base count) constant rows, pre-tiled:
        (pattern ids, up-side codes, added buffers, added nTSVs, base rows
        for an identity selection)."""
        key = (allowed, n_base)
        cached = self._tiled_cache.get(key)
        if cached is None:
            ids_row, sides_row, bufs_row, ntsvs_row = self._pattern_rows(allowed)
            cached = (
                np.tile(ids_row, n_base),
                np.tile(sides_row, n_base),
                np.tile(bufs_row, n_base),
                np.tile(ntsvs_row, n_base),
                np.repeat(self._arange(n_base), len(allowed)),
            )
            self._tiled_cache[key] = cached
        return cached

    def _pattern_rows(
        self, allowed: tuple[EdgePattern, ...]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Cached (ids, up-side codes, buffer counts, nTSV counts) rows."""
        cached = self._pattern_consts.get(allowed)
        if cached is None:
            cached = (
                np.asarray([_PATTERN_INDEX[p.name] for p in allowed], np.int16),
                np.asarray([_SIDE_CODES[p.up_side] for p in allowed], np.int8),
                np.asarray([p.buffer_count for p in allowed], np.int64),
                np.asarray([p.ntsv_count for p in allowed], np.int64),
            )
            self._pattern_consts[allowed] = cached
        return cached

    # ------------------------------------------------------------------ driver
    def run(
        self,
        dp_tree: DpTree,
        workers: int = 1,
        parallel_policy=None,
    ) -> tuple[dict[int, CandidateFrontier], CandidateFrontier]:
        """Bottom-up generation: the pruned frontier of every DP node plus
        the combined root frontier (Steps 2 and the root part of Step 3).

        With ``workers > 1`` the DP ships disjoint bottom subtrees to a
        process pool first (each node's frontier depends only on its
        predecessors' frontiers, so a whole subtree evaluates without any
        cross-subtree data) and finishes the remaining spine serially.  The
        per-node arithmetic is byte-for-byte the serial code, so the result
        is bit-identical at every worker count.

        The pool hops go through the fault-tolerant
        :func:`~repro.parallel.run_tasks` map under ``parallel_policy``
        (``None`` resolves the usual knob precedence); recovery events and
        the shipped-task count are exposed as :attr:`parallel_diagnostics`
        and :attr:`parallel_tasks` after the call, so the inserter can
        surface them on its result.
        """
        self.parallel_tasks = 0
        self.parallel_diagnostics = []
        frontiers: dict[int, CandidateFrontier] = {}
        remaining = dp_tree.nodes
        if workers > 1:
            subtrees = self._partition_dp_subtrees(dp_tree, workers)
            if len(subtrees) >= 2:
                frontiers.update(
                    self._run_subtrees_parallel(
                        subtrees,
                        workers,
                        policy=parallel_policy,
                        diagnostics=self.parallel_diagnostics,
                    )
                )
                self.parallel_tasks = len(subtrees)
                remaining = [n for n in dp_tree.nodes if n.index not in frontiers]
        for dp_node in remaining:
            frontiers[dp_node.index] = self._generate(dp_node, frontiers)
        return frontiers, self._root_frontier(dp_tree, frontiers)

    def _generate(
        self, dp_node: DpNode, frontiers: dict[int, CandidateFrontier]
    ) -> CandidateFrontier:
        """One DP node's pruned frontier (merge, insert, prune, relax)."""
        merged = self._merge(dp_node, frontiers)
        inserted = self._insert(dp_node, merged)
        pruned = self._prune(inserted, max_capacitance=self.pdk.max_capacitance)
        if pruned.size == 0:
            # Mirror the object backend: retain unchecked candidates when
            # even a buffer cannot legalise the load.
            relaxed = self._insert(dp_node, merged, enforce_driver_load=False)
            pruned = self._prune(relaxed)
        if pruned.size == 0:  # pragma: no cover - relaxed set is non-empty
            raise RuntimeError(
                f"DP node {dp_node.name} has no feasible candidate solutions"
            )
        return pruned

    # ------------------------------------------------------ subtree parallelism
    @staticmethod
    def _partition_dp_subtrees(dp_tree: DpTree, workers: int) -> list[list[DpNode]]:
        """Disjoint bottom subtrees big enough to amortise a process hop.

        A node roots a shipped subtree iff its subtree holds at least
        ``target`` DP nodes while every predecessor's subtree is still below
        the target.  No strict descendant of such a root reaches the target
        (so no nested root below) and every ancestor has a >= target
        predecessor on the path down (so no nested root above): the selected
        subtrees are provably disjoint.  Each returned list is in the global
        bottom-up order, so a worker can evaluate it front to back.
        """
        nodes = dp_tree.nodes
        target = max(32, len(nodes) // (workers * 4))
        size: dict[int, int] = {}
        for node in nodes:
            size[node.index] = 1 + sum(size[p.index] for p in node.predecessors)
        position = {node.index: i for i, node in enumerate(nodes)}
        subtrees: list[list[DpNode]] = []
        for root in nodes:
            if size[root.index] < target:
                continue
            if any(size[p.index] >= target for p in root.predecessors):
                continue
            members = []
            stack = [root]
            while stack:
                node = stack.pop()
                members.append(node)
                stack.extend(node.predecessors)
            members.sort(key=lambda n: position[n.index])
            subtrees.append(members)
        return subtrees

    @staticmethod
    def _subtree_tables(nodes: list[DpNode]) -> list[tuple]:
        """Flatten a subtree into primitive rows for the process boundary.

        Recursive :class:`DpNode` graphs and the live design never cross
        into a worker: each row carries the node's own scalars, its design
        row, the direct-sink flag, and predecessor links as positions into
        this same table.
        """
        local = {node.index: i for i, node in enumerate(nodes)}
        return [
            (
                node.index,
                node.length,
                node.mode,
                node.fanout,
                node.base_capacitance,
                node.base_max_delay,
                node.base_min_delay,
                node.corner_base_capacitance,
                node.corner_base_max_delay,
                node.corner_base_min_delay,
                node.tree_row,
                node.has_direct_sinks,
                [local[p.index] for p in node.predecessors],
            )
            for node in nodes
        ]

    @staticmethod
    def _nodes_from_tables(tables: list[tuple]) -> list[DpNode]:
        """Rebuild worker-side :class:`DpNode` objects from flat rows."""
        nodes: list[DpNode] = []
        for (
            index,
            length,
            mode,
            fanout,
            base_cap,
            base_max,
            base_min,
            corner_cap,
            corner_max,
            corner_min,
            tree_row,
            has_direct_sinks,
            preds,
        ) in tables:
            nodes.append(
                DpNode(
                    index=index,
                    tree_row=tree_row,
                    length=length,
                    predecessors=[nodes[p] for p in preds],
                    mode=mode,
                    fanout=fanout,
                    base_capacitance=base_cap,
                    base_max_delay=base_max,
                    base_min_delay=base_min,
                    corner_base_capacitance=corner_cap,
                    corner_base_max_delay=corner_max,
                    corner_base_min_delay=corner_min,
                    has_direct_sinks=has_direct_sinks,
                )
            )
        return nodes

    def _run_subtrees_parallel(
        self,
        subtrees: list[list[DpNode]],
        workers: int,
        policy=None,
        diagnostics: list | None = None,
    ) -> dict[int, CandidateFrontier]:
        """Evaluate shipped subtrees on the shared pool, frontiers keyed by
        the original DP node indices (the serial spine reads them directly).

        Each subtree is one fault-tolerant :func:`~repro.parallel.run_tasks`
        task: a failed worker is retried and finally recomputed inline by
        the very same :func:`_dp_subtree_worker` (bit-identical by
        construction) under the ``degrade`` policy, or raises a typed
        :class:`~repro.parallel.ParallelError` under ``strict``.
        """
        from repro.parallel import run_tasks

        payloads = [
            (
                self.pdk,
                self.config,
                self._corner_pdks,
                self.primary,
                self.corner_aware,
                self._subtree_tables(nodes),
            )
            for nodes in subtrees
        ]
        results = run_tasks(
            "insertion",
            _dp_subtree_worker,
            payloads,
            min(workers, len(payloads)),
            policy=policy,
            validate=_validate_subtree_frontiers,
            diagnostics=diagnostics,
            label=lambda i, payload: f"subtree {i} ({len(payload[5])} nodes)",
        )
        merged: dict[int, CandidateFrontier] = {}
        for result in results:
            merged.update(result)
        return merged

    def materialize_root(self, root: CandidateFrontier) -> list[CandidateSolution]:
        """Root frontier rows as :class:`CandidateSolution` objects.

        The objects carry no children (the vectorized top-down walks the
        back-pointer arrays instead); scalar fields mirror the primary corner
        exactly as in the object backend.
        """
        out: list[CandidateSolution] = []
        primary = self.primary
        for i in range(root.size):
            corner_cap = corner_max = corner_min = None
            if self.corner_aware:
                corner_cap = tuple(float(v) for v in root.cap[:, i])
                corner_max = tuple(float(v) for v in root.max_delay[:, i])
                corner_min = tuple(float(v) for v in root.min_delay[:, i])
            out.append(
                CandidateSolution(
                    up_side=Side.FRONT,
                    capacitance=float(root.cap[primary, i]),
                    max_delay=float(root.max_delay[primary, i]),
                    min_delay=float(root.min_delay[primary, i]),
                    buffer_count=int(root.buffers[i]),
                    ntsv_count=int(root.ntsvs[i]),
                    corner_capacitance=corner_cap,
                    corner_max_delay=corner_max,
                    corner_min_delay=corner_min,
                )
            )
        return out

    def realize(
        self,
        dp_tree: DpTree,
        frontiers: dict[int, CandidateFrontier],
        root_choice: np.ndarray,
        realize_pattern: Callable[[DesignArrays, DpNode, EdgePattern], None],
    ) -> None:
        """Top-down decision (Step 4): retrace back-pointers, realise patterns.

        The stack order matches the object backend's ``_top_down`` exactly, so
        inserted buffers/nTSVs receive identical generated names.
        """
        stack: list[tuple[DpNode, int]] = [
            (root_dp, int(idx))
            for root_dp, idx in zip(dp_tree.root_nodes, root_choice)
        ]
        while stack:
            dp_node, i = stack.pop()
            frontier = frontiers[dp_node.index]
            pattern_id = int(frontier.pattern[i])
            if pattern_id < 0:
                raise RuntimeError(
                    f"top-down decision reached {dp_node.name} without a pattern"
                )
            realize_pattern(dp_tree.design, dp_node, PATTERNS[pattern_id])
            stack.extend(
                (pred, int(c))
                for pred, c in zip(dp_node.predecessors, frontier.choice[i])
            )
        # Pattern realisation rewrites wire sides directly on the rows, which
        # the design's edit log cannot see — record an unscoped change so that
        # incremental timing engines recompile instead of serving stale data.
        dp_tree.design.touch()

    # --------------------------------------------------------------- DP steps
    def _leaf_base_columns(
        self, dp_node: DpNode
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(K, 1) columns of the node's static leaf-net base quantities."""
        if self.corner_aware:
            return (
                np.asarray(dp_node.corner_base_capacitance, float)[:, None],
                np.asarray(dp_node.corner_base_max_delay, float)[:, None],
                np.asarray(dp_node.corner_base_min_delay, float)[:, None],
            )
        return (
            np.asarray([[dp_node.base_capacitance]], float),
            np.asarray([[dp_node.base_max_delay]], float),
            np.asarray([[dp_node.base_min_delay]], float),
        )

    def _merge(
        self, dp_node: DpNode, frontiers: dict[int, CandidateFrontier]
    ) -> CandidateFrontier:
        """Broadcast cross-product merge at the node's downstream vertex."""
        if dp_node.is_leaf:
            base_cap, base_max, base_min = self._leaf_base_columns(dp_node)
            return CandidateFrontier(
                side=self._leaf_side,
                cap=base_cap,
                max_delay=base_max,
                min_delay=base_min,
                buffers=self._leaf_zeros,
                ntsvs=self._leaf_zeros,
                pattern=self._leaf_pattern,
                choice=self._leaf_choice,
            )

        predecessors = dp_node.predecessors
        first = frontiers[predecessors[0].index]
        combo = CandidateFrontier(
            side=first.side,
            cap=first.cap,
            max_delay=first.max_delay,
            min_delay=first.min_delay,
            buffers=first.buffers,
            ntsvs=first.ntsvs,
            pattern=self._no_pattern(first.size),
            choice=self._arange(first.size)[:, None],
        )
        if (
            len(predecessors) == 1
            and dp_node.base_capacitance == 0.0
            and not dp_node.has_direct_sinks
        ):
            # Chain node (a segmentation Steiner): the merged frontier IS the
            # predecessor's pruned frontier, value for value, and pruning is
            # idempotent on an already-pruned, already-sorted set — skip it.
            return combo
        for pred in predecessors[1:]:
            frontier = frontiers[pred.index]
            # Row-major pair enumeration matches the object backend's nested
            # loop (combo-major, candidate-minor, side mismatches skipped).
            ia, ib = np.nonzero(combo.side[:, None] == frontier.side[None, :])
            if ia.size == 0:
                raise RuntimeError(
                    f"DP node {dp_node.name}: predecessors have no "
                    "side-compatible candidate combination"
                )
            combo = CandidateFrontier(
                side=combo.side[ia],
                cap=combo.cap[:, ia] + frontier.cap[:, ib],
                max_delay=np.maximum(combo.max_delay[:, ia], frontier.max_delay[:, ib]),
                min_delay=np.minimum(combo.min_delay[:, ia], frontier.min_delay[:, ib]),
                buffers=combo.buffers[ia] + frontier.buffers[ib],
                ntsvs=combo.ntsvs[ia] + frontier.ntsvs[ib],
                pattern=self._no_pattern(ia.size),
                choice=np.concatenate(
                    [combo.choice[ia], ib[:, None].astype(np.int64)], axis=1
                ),
            )

        # Add the static load at the vertex (pin cap + direct leaf net).
        # Chain nodes (no pin cap, no direct sinks) skip the arithmetic
        # entirely: adding a zero base is the identity on positive floats.
        side = combo.side
        cap = combo.cap
        max_delay = combo.max_delay
        min_delay = combo.min_delay
        buffers, ntsvs, choice = combo.buffers, combo.ntsvs, combo.choice
        if dp_node.base_capacitance != 0.0 or dp_node.has_direct_sinks:
            base_cap, base_max, base_min = self._leaf_base_columns(dp_node)
            cap = cap + base_cap
            if dp_node.has_direct_sinks:
                keep = np.nonzero(side == SIDE_FRONT)[0]
                if keep.size == 0:
                    raise RuntimeError(
                        f"DP node {dp_node.name}: no merged candidate satisfies "
                        "the front-side leaf-net constraint"
                    )
                if keep.size != side.size:
                    side = side[keep]
                    cap = cap[:, keep]
                    max_delay = max_delay[:, keep]
                    min_delay = min_delay[:, keep]
                    buffers, ntsvs = buffers[keep], ntsvs[keep]
                    choice = choice[keep]
                max_delay = np.maximum(max_delay, base_max)
                min_delay = np.minimum(min_delay, base_min)
        merged = CandidateFrontier(
            side=side,
            cap=cap,
            max_delay=max_delay,
            min_delay=min_delay,
            buffers=buffers,
            ntsvs=ntsvs,
            pattern=self._no_pattern(side.size),
            choice=choice,
        )
        return self._prune(merged)

    def _insert(
        self,
        dp_node: DpNode,
        merged: CandidateFrontier,
        enforce_driver_load: bool = True,
    ) -> CandidateFrontier:
        """Apply every allowed pattern to every merged candidate, batched.

        A pruned frontier groups front-side candidates before back-side ones,
        so processing the two side blocks in that order reproduces the object
        backend's base-major / pattern-minor result order.
        """
        side = merged.side
        any_back = bool(side.any())
        all_back = any_back and bool(side.all())
        parts: list[CandidateFrontier] = []
        has_backside = self.pdk.has_backside
        for side_enum, code in ((Side.FRONT, SIDE_FRONT), (Side.BACK, SIDE_BACK)):
            if code == SIDE_FRONT and all_back:
                continue
            if code == SIDE_BACK and not any_back:
                continue
            allowed = patterns_for(
                dp_node.mode, has_backside, required_down_side=side_enum
            )
            if not allowed:  # pragma: no cover - every reachable side has one
                continue
            if all_back or not any_back:  # single-side frontier (common case)
                sel = self._arange(merged.size)
                base_cap = merged.cap
                base_max = merged.max_delay
                base_min = merged.min_delay
            else:
                sel = np.nonzero(side == code)[0]
                base_cap = merged.cap[:, sel]
                base_max = merged.max_delay[:, sel]
                base_min = merged.min_delay[:, sel]
            parts.append(
                self._insert_block(
                    dp_node,
                    merged,
                    sel,
                    base_cap,
                    base_max,
                    base_min,
                    allowed,
                    enforce_driver_load,
                )
            )
        if not parts:  # pragma: no cover - defensive: merged is never empty
            return merged.take(np.empty(0, np.int64))
        return CandidateFrontier.concatenate(parts)

    def _insert_block(
        self,
        dp_node: DpNode,
        merged: CandidateFrontier,
        sel: np.ndarray,
        base_cap: np.ndarray,
        base_max: np.ndarray,
        base_min: np.ndarray,
        allowed: tuple[EdgePattern, ...],
        enforce_driver_load: bool,
    ) -> CandidateFrontier:
        """Batched pattern application for one side block of ``merged``."""
        length = dp_node.length
        delays, caps = [], []
        valid: np.ndarray | None = None
        for pattern in allowed:
            delay, cap, pattern_valid = self._pattern_cost_batch(
                pattern, length, base_cap, enforce_driver_load
            )
            delays.append(delay)
            caps.append(cap)
            if pattern_valid is not None:
                if valid is None:
                    valid = np.ones((sel.size, len(allowed)), bool)
                valid[:, len(delays) - 1] = pattern_valid
        n_base, n_pat = sel.size, len(allowed)
        delay_grid = np.stack(delays, axis=2)  # (K, B, P)
        new_cap = np.stack(caps, axis=2).reshape(self._k, n_base * n_pat)
        new_max = (base_max[:, :, None] + delay_grid).reshape(self._k, n_base * n_pat)
        new_min = (base_min[:, :, None] + delay_grid).reshape(self._k, n_base * n_pat)
        tiled = self._tiled_rows(allowed, n_base)
        pattern_ids, up_sides, add_buffers, add_ntsvs, identity_rows = tiled
        if sel is self._arange_cache.get(n_base):
            base_rows = identity_rows
        else:
            base_rows = np.repeat(sel, n_pat)
        buffers = merged.buffers[base_rows] + add_buffers
        ntsvs = merged.ntsvs[base_rows] + add_ntsvs
        choice = merged.choice[base_rows]
        if valid is not None:
            mask = valid.reshape(n_base * n_pat)  # (B, P) flat: base-major
            if not mask.all():
                return CandidateFrontier(
                    side=up_sides[mask],
                    cap=new_cap[:, mask],
                    max_delay=new_max[:, mask],
                    min_delay=new_min[:, mask],
                    buffers=buffers[mask],
                    ntsvs=ntsvs[mask],
                    pattern=pattern_ids[mask],
                    choice=choice[mask],
                )
        return CandidateFrontier(
            side=up_sides,
            cap=new_cap,
            max_delay=new_max,
            min_delay=new_min,
            buffers=buffers,
            ntsvs=ntsvs,
            pattern=pattern_ids,
            choice=choice,
        )

    def _pattern_cost_batch(
        self,
        pattern: EdgePattern,
        length: float,
        cap: np.ndarray,
        enforce_driver_load: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(added delay, new upstream cap, validity) of one pattern, batched.

        Mirrors ``ConcurrentInserter._pattern_cost`` operation for operation
        (bit-identical element-wise arithmetic) with the candidate axis
        vectorized and the corner axis broadcast.  The returned validity mask
        is ``None`` unless the pattern can reject candidates (P1's maximum
        driven-capacitance check, enforced at every corner).
        """
        name = pattern.name
        if name == "P2_Wiring_F":
            delay = self._wire_delay(self.f_ur, self.f_uc, length, cap)
            return delay, cap + self.f_uc * length, None
        if name == "P3_Wiring_B":
            delay = self._wire_delay(self.b_ur, self.b_uc, length, cap)
            return delay, cap + self.b_uc * length, None
        if name == "P1_Buffer":
            half = length / 2.0
            delay = self._wire_delay(self.f_ur, self.f_uc, half, cap)
            cap = cap + self.f_uc * half
            valid = None
            if enforce_driver_load:
                violating = (cap > self.max_cap + _TOL).any(axis=0)
                if violating.any():
                    valid = ~violating
            delay = delay + self._buffer_delay(cap)
            cap = np.broadcast_to(self.buf_incap, cap.shape)
            delay = delay + self._wire_delay(self.f_ur, self.f_uc, half, cap)
            return delay, cap + self.f_uc * half, valid
        if name == "P4_nTSV1":
            delay = self.ntsv_r * (self.ntsv_c + cap)
            cap = cap + self.ntsv_c
            delay = delay + self._wire_delay(self.b_ur, self.b_uc, length, cap)
            cap = cap + self.b_uc * length
            delay = delay + self.ntsv_r * (self.ntsv_c + cap)
            return delay, cap + self.ntsv_c, None
        if name == "P5_nTSV2":
            delay = self.ntsv_r * (self.ntsv_c + cap)
            cap = cap + self.ntsv_c
            delay = delay + self._wire_delay(self.b_ur, self.b_uc, length, cap)
            return delay, cap + self.b_uc * length, None
        if name == "P6_nTSV3":
            delay = self._wire_delay(self.b_ur, self.b_uc, length, cap)
            cap = cap + self.b_uc * length
            delay = delay + self.ntsv_r * (self.ntsv_c + cap)
            return delay, cap + self.ntsv_c, None
        raise ValueError(f"unknown pattern {name!r}")  # pragma: no cover

    @staticmethod
    def _wire_delay(
        unit_r: np.ndarray, unit_c: np.ndarray, length: float, load: np.ndarray
    ) -> np.ndarray:
        """Batched ``LayerRC.wire_delay`` (same operation order)."""
        resistance = unit_r * length
        capacitance = unit_c * length
        return resistance * (capacitance + load)

    def _buffer_delay(self, caps: np.ndarray) -> np.ndarray:
        """Per-corner batched buffer delay (the DP uses no slew input, so the
        batched cell model resolves to the linear model, exactly like the
        object backend's ``buffer.delay(cap)`` calls)."""
        if self._k == 1:
            return self._buffers[0].delay_batch(caps[0])[None, :]
        # Corner batches broadcast the per-corner linear coefficients in one
        # shot — element-wise identical to per-corner ``delay_batch`` calls.
        return self.buf_intr + self.buf_drive * caps

    # ---------------------------------------------------------------- pruning
    def _prune(
        self,
        frontier: CandidateFrontier,
        max_capacitance: float | None = None,
    ) -> CandidateFrontier:
        """Vectorized ``prune_per_side``: mask filter, per-side sweep, beam."""
        n = frontier.size
        if n == 0:
            return frontier
        scalar = self._k == 1
        worst_cap = frontier.cap[0] if scalar else frontier.cap.max(axis=0)
        if max_capacitance is not None:
            legal = worst_cap <= max_capacitance + _TOL
            if not legal.all():
                keep = np.nonzero(legal)[0]
                frontier = frontier.take(keep)
                worst_cap = worst_cap[keep]
                n = frontier.size
                if n == 0:
                    return frontier
        if n == 1:
            return frontier
        side = frontier.side
        any_back = bool(side.any())
        all_back = any_back and bool(side.all())
        worst_delay = (
            frontier.max_delay[0] if scalar else frontier.max_delay.max(axis=0)
        )
        resources = frontier.buffers + frontier.ntsvs
        beam = self.config.max_candidates_per_side
        parts: list[np.ndarray] = []
        for code in (SIDE_FRONT, SIDE_BACK):
            if code == SIDE_FRONT and all_back:
                continue
            if code == SIDE_BACK and not any_back:
                continue
            if all_back or not any_back:
                side_idx = self._arange(n)
            else:
                side_idx = np.nonzero(side == code)[0]
            if side_idx.size == 1:
                parts.append(side_idx)
                continue
            order = side_idx[
                np.lexsort(
                    (
                        resources[side_idx],
                        worst_delay[side_idx],
                        worst_cap[side_idx],
                    )
                )
            ]
            kept_pos = self._dominance_sweep(
                frontier.cap[:, order],
                frontier.max_delay[:, order],
                resources[order],
                self.config.keep_resource_diversity,
            )
            kept = order[kept_pos]
            if beam is not None and kept.size > beam:
                kept = self._beam_select(kept, worst_delay, beam)
            parts.append(kept)
        if len(parts) == 1 and parts[0].size == n:
            # Everything survived on a single side: still gather, because
            # the object backend returns candidates in sorted order.
            return frontier.take(parts[0])
        return frontier.take(np.concatenate(parts))

    def _dominance_sweep(
        self,
        caps: np.ndarray,
        delays: np.ndarray,
        resources: np.ndarray,
        keep_resource_diversity: bool,
    ) -> np.ndarray:
        """Positions kept by the dominance sweep over one sorted side block.

        Implements exactly the rule of
        :func:`repro.insertion.pruning.prune_dominated` (including the
        dominator-relative resource-diversity exception) on ``(K, n)`` arrays
        already gathered in sorted order.
        """
        if keep_resource_diversity:
            return self._diversity_sweep(caps, delays, resources)
        if caps.shape[0] == 1:
            # Scalar staircase: every true keeper is a strict running-min
            # record of the delay sequence (a dropped candidate's delay is
            # always >= some earlier delay), so a cummin prefilter reduces
            # the exact tolerance sweep to the record positions.
            d = delays[0]
            running = np.minimum.accumulate(d)
            record = np.empty(d.size, dtype=bool)
            record[0] = True
            record[1:] = d[1:] < running[:-1]
            positions = np.nonzero(record)[0]
            kept: list[int] = []
            best = float("inf")
            for pos, value in zip(positions.tolist(), d[positions].tolist()):
                if value < best - _TOL:
                    kept.append(pos)
                    best = value
            return np.asarray(kept, np.int64)
        return self._corner_sweep(caps, delays)

    def _corner_sweep(self, caps: np.ndarray, delays: np.ndarray) -> np.ndarray:
        """Vector-dominance sweep over a sorted corner-aware side block.

        The pairwise broadcast decides almost every candidate in O(1) numpy
        calls: a candidate with an earlier tolerance-free dominator is
        provably dropped by the kept-set rule (the dominator is either kept,
        or its own kept dominator absorbs the single tolerance hop), and a
        candidate with no earlier within-tolerance dominator at all is
        trivially kept.  Only candidates between the two bounds (near-ties
        within the 1e-9 band) fall back to the exact sequential scan.
        """
        n = caps.shape[1]
        if n > _PAIRWISE_LIMIT:
            survivors = self._blocked_prefilter(caps, delays)
            if survivors.size == n:  # pragma: no cover - degenerate fallback
                return self._scan_sweep(caps, delays)
            return survivors[self._corner_sweep(caps[:, survivors], delays[:, survivors])]
        cap_t = caps[:, None, :]
        del_t = delays[:, None, :]
        dom0 = np.logical_and(
            (caps[:, :, None] <= cap_t).all(axis=0),
            (delays[:, :, None] <= del_t).all(axis=0),
        )
        domt = np.logical_and(
            (caps[:, :, None] <= cap_t + _TOL).all(axis=0),
            (delays[:, :, None] <= del_t + _TOL).all(axis=0),
        )
        triu = self._triu(n)
        flag0 = (dom0 & triu).any(axis=0)
        flagt = (domt & triu).any(axis=0)
        if not (flagt & ~flag0).any():
            return np.nonzero(~flagt)[0]
        # Exact kept-set scan on the precomputed tolerance matrix.
        rows = domt.tolist()
        kept: list[int] = []
        for j in range(n):
            if any(rows[i][j] for i in kept):
                continue
            kept.append(j)
        return np.asarray(kept, np.int64)

    def _blocked_prefilter(self, caps: np.ndarray, delays: np.ndarray) -> np.ndarray:
        """Column-blocked tolerance-free prefilter for very large blocks."""
        n = caps.shape[1]
        earlier = np.zeros(n, dtype=bool)
        rows = np.arange(n)[:, None]
        block = max(1, int(4_000_000 // max(1, n * caps.shape[0])))
        for start in range(0, n, block):
            stop = min(start + block, n)
            dominated = np.all(caps[:, :, None] <= caps[:, None, start:stop], axis=0)
            dominated &= np.all(
                delays[:, :, None] <= delays[:, None, start:stop], axis=0
            )
            dominated &= rows < np.arange(start, stop)[None, :]
            earlier[start:stop] = dominated.any(axis=0)
        return np.nonzero(~earlier)[0]

    def _scan_sweep(
        self, caps: np.ndarray, delays: np.ndarray
    ) -> np.ndarray:  # pragma: no cover - degenerate fallback
        """Per-candidate kept-set scan (no pairwise matrix)."""
        kept: list[int] = []
        for pos in range(caps.shape[1]):
            if kept:
                cols = np.asarray(kept)
                dominated = np.all(
                    caps[:, cols] <= caps[:, pos : pos + 1] + _TOL, axis=0
                )
                dominated &= np.all(
                    delays[:, cols] <= delays[:, pos : pos + 1] + _TOL, axis=0
                )
                if dominated.any():
                    continue
            kept.append(pos)
        return np.asarray(kept, np.int64)

    def _diversity_sweep(
        self, caps: np.ndarray, delays: np.ndarray, resources: np.ndarray
    ) -> np.ndarray:
        """The dominator-relative resource-diversity sweep (both K regimes).

        Precomputes the pairwise within-tolerance dominance matrix, then runs
        the exact sequential rule over plain Python lists — the kept set and
        the dominator resource floors depend on scan order, but every
        comparison is a precomputed boolean.
        """
        n = delays.shape[1]
        if n > _PAIRWISE_LIMIT:
            return self._diversity_scan(caps, delays, resources)
        cap_t = caps[:, None, :]
        del_t = delays[:, None, :]
        domt = np.logical_and(
            (caps[:, :, None] <= cap_t + _TOL).all(axis=0),
            (delays[:, :, None] <= del_t + _TOL).all(axis=0),
        )
        rows = domt.tolist()
        res = resources.tolist()
        kept: list[int] = []
        for j in range(n):
            dominators = [i for i in kept if rows[i][j]]
            if dominators:
                floor = min(res[i] for i in dominators)
                if res[j] >= floor:
                    continue
            kept.append(j)
        return np.asarray(kept, np.int64)

    def _diversity_scan(
        self, caps: np.ndarray, delays: np.ndarray, resources: np.ndarray
    ) -> np.ndarray:  # pragma: no cover - very large diversity blocks
        """Per-candidate diversity scan for blocks past the pairwise limit."""
        kept: list[int] = []
        for pos in range(delays.shape[1]):
            if kept:
                cols = np.asarray(kept)
                dominated = np.all(
                    caps[:, cols] <= caps[:, pos : pos + 1] + _TOL, axis=0
                )
                dominated &= np.all(
                    delays[:, cols] <= delays[:, pos : pos + 1] + _TOL, axis=0
                )
                if dominated.any():
                    floor = int(resources[cols[dominated]].min())
                    if int(resources[pos]) >= floor:
                        continue
            kept.append(pos)
        return np.asarray(kept, np.int64)

    @staticmethod
    def _beam_select(
        kept: np.ndarray, worst_delay: np.ndarray, beam_width: int
    ) -> np.ndarray:
        """Vectorized ``_beam_select``: sample the staircase evenly.

        ``kept`` is already sorted by (worst cap, worst delay, resources),
        which the object backend's stable re-sort by (worst cap, worst delay)
        leaves unchanged.
        """
        if beam_width <= 1:
            first_min = int(np.argmin(worst_delay[kept]))
            return kept[first_min : first_min + 1]
        last = kept.size - 1
        indices = sorted(
            {round(i * last / (beam_width - 1)) for i in range(beam_width)}
        )
        return kept[np.asarray(indices, np.int64)]

    # ------------------------------------------------------------------- root
    def _root_frontier(
        self, dp_tree: DpTree, frontiers: dict[int, CandidateFrontier]
    ) -> CandidateFrontier:
        """Cross-combine the root DP nodes at the clock source (front only)."""
        combo: CandidateFrontier | None = None
        for root_dp in dp_tree.root_nodes:
            frontier = frontiers[root_dp.index]
            sel = np.nonzero(frontier.side == SIDE_FRONT)[0]
            if sel.size == 0:
                raise RuntimeError(
                    f"root DP node {root_dp.name} has no front-side candidate"
                )
            if combo is None:
                combo = CandidateFrontier(
                    side=frontier.side[sel],
                    cap=frontier.cap[:, sel],
                    max_delay=frontier.max_delay[:, sel],
                    min_delay=frontier.min_delay[:, sel],
                    buffers=frontier.buffers[sel],
                    ntsvs=frontier.ntsvs[sel],
                    pattern=frontier.pattern[sel],
                    choice=sel[:, None].astype(np.int64),
                )
                continue
            m, n = combo.size, sel.size
            ia = np.repeat(np.arange(m), n)
            ib = np.tile(np.arange(n), m)
            combo = CandidateFrontier(
                side=np.zeros(ia.size, np.int8),
                cap=combo.cap[:, ia] + frontier.cap[:, sel][:, ib],
                max_delay=np.maximum(
                    combo.max_delay[:, ia], frontier.max_delay[:, sel][:, ib]
                ),
                min_delay=np.minimum(
                    combo.min_delay[:, ia], frontier.min_delay[:, sel][:, ib]
                ),
                buffers=combo.buffers[ia] + frontier.buffers[sel][ib],
                ntsvs=combo.ntsvs[ia] + frontier.ntsvs[sel][ib],
                pattern=np.full(ia.size, -1, np.int16),
                choice=np.concatenate(
                    [combo.choice[ia], sel[ib][:, None].astype(np.int64)],
                    axis=1,
                ),
            )
        # The clock source drives the root load; the drive resistance is
        # corner-independent but the driven load is not, so every corner row
        # gets its own source delay.
        source_delay = ROOT_DRIVE_RESISTANCE * combo.cap
        return CandidateFrontier(
            side=combo.side,
            cap=combo.cap,
            max_delay=combo.max_delay + source_delay,
            min_delay=combo.min_delay + source_delay,
            buffers=combo.buffers,
            ntsvs=combo.ntsvs,
            pattern=combo.pattern,
            choice=combo.choice,
        )


def _dp_subtree_worker(payload) -> dict[int, CandidateFrontier]:
    """Evaluate one shipped DP subtree in a worker process.

    Rebuilds an equivalent :class:`VectorizedInsertionDp` and the subtree's
    nodes, then runs the exact serial per-node generation bottom-up.  The
    returned frontiers are keyed by the original DP node indices.
    """
    pdk, config, corner_pdks, primary, corner_aware, tables = payload
    dp = VectorizedInsertionDp(
        pdk,
        config,
        corner_pdks,
        primary_index=primary,
        corner_aware=corner_aware,
    )
    frontiers: dict[int, CandidateFrontier] = {}
    for node in VectorizedInsertionDp._nodes_from_tables(tables):
        frontiers[node.index] = dp._generate(node, frontiers)
    return frontiers


def _validate_subtree_frontiers(result, payload) -> None:
    """``run_tasks`` validate hook: probe a worker's frontier dict pre-merge.

    Cheap structural checks on the main process — exact key coverage of the
    shipped subtree, non-empty frontiers, finite cost columns — so a
    corrupting worker counts as a failed attempt (retried, then recomputed
    inline) instead of poisoning the serial spine above it.
    """
    tables = payload[5]
    expected = {row[0] for row in tables}
    if not isinstance(result, dict) or set(result) != expected:
        got = sorted(result) if isinstance(result, dict) else type(result).__name__
        raise RuntimeError(
            f"worker frontier keys mismatch: expected {sorted(expected)}, "
            f"got {got}"
        )
    for index, frontier in result.items():
        if frontier.size == 0:
            raise RuntimeError(f"DP node {index}: empty frontier from worker")
        for name in ("cap", "max_delay", "min_delay"):
            if not np.all(np.isfinite(getattr(frontier, name))):
                raise RuntimeError(
                    f"DP node {index}: non-finite {name} values in a "
                    "worker frontier"
                )
