"""Array-based DP backend for the concurrent insertion (the fast engine).

Mirrors the two-engine pattern of :mod:`repro.timing`: the object DP in
:mod:`repro.insertion.concurrent` (per-candidate
:class:`~repro.insertion.candidate.CandidateSolution` objects) is the
executable spec, and this module is the production backend.  Every DP node's
candidate set lives in a :class:`CandidateFrontier` struct-of-arrays, and the
DP evaluates the tree one *height level* at a time (leaves are height 0, a
node sits one above its highest predecessor): all nodes of a level go
through each step as one ragged batch, with each candidate's node recorded
as a segment id, instead of one small-array pass per node.

* **Merge** is one ragged cross-product per predecessor position: offset
  arithmetic enumerates every node's (combo, candidate) pairs row-major,
  drops side mismatches, and folds three or more predecessors left to right.
  Chain nodes (one predecessor, no static load) take their predecessor's
  pruned frontier as is.
* **Insert** groups the level's (node, side-block) segments by their allowed
  pattern tuple and evaluates every (candidate x pattern x corner) cost of a
  group in one call through the batched cell models
  (:meth:`~repro.tech.cells.BufferCell.delay_batch`), with a per-candidate
  edge-length row in place of the scalar, then scatters the results back
  into per-node order.
* **Prune** is one segmented sweep over (node, side) segments: the
  maximum driven-capacitance mask, one stable ``lexsort`` keyed by node and
  side, a segmented running-min staircase for one-corner batches (the exact
  tolerance scan only where records tie within it), per-segment calls of
  the vector-dominance and resource-diversity sweeps for multi-corner and
  diversity runs, and a beam sample from per-count index tables.

Nodes whose every candidate breaks the load cap re-run insert and prune
unchecked as one sub-batch (the relaxed fallback).  Every level's pruned
candidates are appended to one :class:`FrontierStore`, which a level batch
gathers its predecessors from and which ``run`` returns: a mapping whose
per-node frontiers are views of its arrays, cut on access, while the
top-down realisation reads its rows directly.

With ``workers > 1`` the maximal bottom subtrees of at most
``n / (4 * workers)`` DP nodes are dealt into one forest per worker.  A
forest crosses the process boundary as a few flat columns; the worker runs
the same level driver over it and ships back its store's arrays as one
record, which the main process appends to its own store before evaluating
the remaining spine on top.

Backends are selected through ``InsertionConfig.dp_backend`` /
``CtsConfig.backends.dp`` / ``dscts --dp-backend`` / the ``REPRO_DP_BACKEND``
environment variable, defaulting to ``vectorized``.

Both backends are kept *decision-identical*: every candidate goes through
the same element-wise operations in the same order (bit-identical floats),
candidate ordering follows the same stable sort keys, pruning implements the
single rule documented in :mod:`repro.insertion.pruning`, and the top-down
realisation walks the recorded back-pointers in the same stack order, so
inserted nodes receive identical names.  ``tests/test_insertion_vectorized.py``
enforces identical selected trees and 1e-9-equal root candidate fronts.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.insertion.candidate import CandidateSolution
from repro.insertion.dp_tree import DpNode, DpTree
from repro.insertion.patterns import (
    PATTERNS,
    EdgePattern,
    InsertionMode,
    patterns_for,
)
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

#: Per pattern id: up-side code, buffers added, nTSVs added.
_UP_SIDE = np.asarray([_SIDE_CODES[p.up_side] for p in PATTERNS], np.int8)
_ADDED_BUFFERS = np.asarray([p.buffer_count for p in PATTERNS], np.int64)
_ADDED_NTSVS = np.asarray([p.ntsv_count for p in PATTERNS], np.int64)

#: Tolerance shared with the object backend's dominance and load checks.
_TOL = 1e-9

#: Above this candidate count the pairwise dominance test runs in column
#: blocks (bounding the (n, n, K) broadcast memory).
_PAIRWISE_LIMIT = 512

#: Fewest DP nodes a pool task (a forest of subtrees) carries: below this a
#: process hop costs more than the forest's level-batched evaluation.
_MIN_FOREST = 32


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
    ``min_delay`` are ``(K, n)`` matrices (``K = 1`` for the nominal batch;
    the primary row mirrors the object backend's scalar fields).

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

    def window(self, start: int, stop: int, width: int) -> "CandidateFrontier":
        """Views of candidates ``[start, stop)`` with ``width`` back-pointer
        columns (a level batch pads narrower back-pointer matrices)."""
        return CandidateFrontier(
            side=self.side[start:stop],
            cap=self.cap[:, start:stop],
            max_delay=self.max_delay[:, start:stop],
            min_delay=self.min_delay[:, start:stop],
            buffers=self.buffers[start:stop],
            ntsvs=self.ntsvs[start:stop],
            pattern=self.pattern[start:stop],
            choice=self.choice[start:stop, :width],
        )

    @staticmethod
    def concatenate(parts: Sequence["CandidateFrontier"]) -> "CandidateFrontier":
        """Concatenate frontiers with identical K; narrower back-pointer
        matrices are zero-padded to the widest."""
        if len(parts) == 1:
            return parts[0]
        side = np.concatenate([p.side for p in parts])
        widths = [p.choice.shape[1] for p in parts]
        if min(widths) == max(widths):
            choice = np.concatenate([p.choice for p in parts], axis=0)
        else:
            choice = np.zeros((side.size, max(widths)), np.int64)
            start = 0
            for p, width in zip(parts, widths):
                choice[start : start + p.size, :width] = p.choice
                start += p.size
        return CandidateFrontier(
            side=side,
            cap=np.concatenate([p.cap for p in parts], axis=1),
            max_delay=np.concatenate([p.max_delay for p in parts], axis=1),
            min_delay=np.concatenate([p.min_delay for p in parts], axis=1),
            buffers=np.concatenate([p.buffers for p in parts]),
            ntsvs=np.concatenate([p.ntsvs for p in parts]),
            pattern=np.concatenate([p.pattern for p in parts]),
            choice=choice,
        )


class VectorizedInsertionDp:
    """The array-based insertion DP: batched costs, masked filters, sweeps.

    Instantiated by :class:`~repro.insertion.concurrent.ConcurrentInserter`
    with the engine-resolved corner PDK list (``[pdk]`` for the nominal batch), so
    both DP backends share one corner order and one technology.
    """

    def __init__(
        self,
        pdk: Pdk,
        config,
        corner_pdks: Sequence[Pdk],
        primary_index: int = 0,
    ) -> None:
        self.pdk = pdk
        self.config = config
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

        # Shared small constants (never mutated): upper-triangle masks and
        # per-pattern-set id rows.
        self._triu_cache: dict[int, np.ndarray] = {}
        self._pattern_ids: dict[tuple[EdgePattern, ...], np.ndarray] = {}

    def _triu(self, n: int) -> np.ndarray:
        """Shared strict upper-triangle mask (earlier-candidate pairs)."""
        cached = self._triu_cache.get(n)
        if cached is None:
            rows = np.arange(n)
            cached = rows[:, None] < rows[None, :]
            self._triu_cache[n] = cached
        return cached

    # ------------------------------------------------------------------ driver
    def run(
        self,
        dp_tree: DpTree,
        workers: int = 1,
        parallel_policy=None,
    ) -> tuple["FrontierStore", CandidateFrontier]:
        """Bottom-up generation: the pruned frontier of every DP node (a
        :class:`FrontierStore` keyed by DP node index) plus the combined
        root frontier (Steps 2 and the root part of Step 3).

        With ``workers > 1`` the DP ships disjoint bottom subtrees to a
        process pool first (each node's frontier depends only on its
        predecessors' frontiers, so a whole subtree evaluates without any
        cross-subtree data) and finishes the remaining spine serially.  Both
        run the same level driver (:meth:`_run_levels`), whose per-candidate
        arithmetic does not depend on how nodes are batched, so the result is
        bit-identical at every worker count.

        The pool hops go through the fault-tolerant
        :func:`~repro.parallel.run_tasks` map under ``parallel_policy``
        (``None`` resolves the usual knob precedence); recovery events and
        the shipped-task count are exposed as :attr:`parallel_diagnostics`
        and :attr:`parallel_tasks` after the call, so the inserter can
        surface them on its result.
        """
        self.parallel_tasks = 0
        self.parallel_diagnostics = []
        store = FrontierStore(self._k)
        remaining = dp_tree.nodes
        if workers > 1:
            forests = self._partition_dp_subtrees(dp_tree, workers)
            if len(forests) >= 2:
                for record in self._run_subtrees_parallel(
                    forests,
                    workers,
                    policy=parallel_policy,
                    diagnostics=self.parallel_diagnostics,
                ):
                    store.add(record)
                self.parallel_tasks = len(forests)
                runs = store.runs
                remaining = [n for n in dp_tree.nodes if n.index not in runs]
        self._run_levels(remaining, store)
        return store, self._root_frontier(dp_tree, store)

    def _run_levels(self, nodes: Sequence[DpNode], store: "FrontierStore") -> None:
        """Evaluate ``nodes`` (bottom-up order) level by level into ``store``.

        A node's height is 1 + the largest height of its predecessors among
        ``nodes``, and leaves sit at height 0; a predecessor outside
        ``nodes`` (the root of a shipped subtree) is already in ``store``.
        Each level is one ragged batch: its nodes depend only on lower
        levels.
        """
        height: dict[int, int] = {}
        levels: list[list[DpNode]] = []
        for node in nodes:
            level = 0
            for pred in node.predecessors:
                below = height.get(pred.index)
                if below is not None and below >= level:
                    level = below + 1
            height[node.index] = level
            if level == len(levels):
                levels.append([])
            levels[level].append(node)
        for level_nodes in levels:
            for record in self._generate_level(level_nodes, store):
                store.add(record)

    def _generate_level(
        self, nodes: list[DpNode], store: "FrontierStore"
    ) -> list["_LevelRecord"]:
        """One level's pruned frontiers: merge, insert, prune, relax."""
        nodes, n_leaf, n_chain = self._level_order(nodes)
        merged, seg = self._merge_level(nodes, n_leaf, n_chain, store)
        inserted, inserted_seg = self._insert_level(merged, seg, nodes)
        pruned, pruned_seg = self._prune_segments(
            inserted, inserted_seg, max_capacitance=self.pdk.max_capacitance
        )
        counts = np.bincount(pruned_seg, minlength=len(nodes))
        records = [_LevelRecord.of(nodes, pruned, counts)]
        empty = counts == 0
        if empty.any():
            # Mirror the object backend: nodes whose every candidate breaks
            # the load cap (even a buffer cannot legalise it) retain their
            # unchecked candidates, as one sub-batch.
            sub = np.nonzero(empty[seg])[0]
            relaxed, relaxed_seg = self._insert_level(
                merged.take(sub), seg[sub], nodes, enforce_driver_load=False
            )
            relaxed, relaxed_seg = self._prune_segments(relaxed, relaxed_seg)
            relaxed_counts = np.bincount(relaxed_seg, minlength=len(nodes))
            if (relaxed_counts[empty] == 0).any():  # pragma: no cover
                bad = nodes[int(np.flatnonzero(empty & (relaxed_counts == 0))[0])]
                raise RuntimeError(
                    f"DP node {bad.name} has no feasible candidate solutions"
                )
            records.append(_LevelRecord.of(nodes, relaxed, relaxed_counts))
        return records

    # ------------------------------------------------------ subtree parallelism
    @staticmethod
    def _partition_dp_subtrees(dp_tree: DpTree, workers: int) -> list[list[DpNode]]:
        """At most ``workers`` disjoint forests of bottom subtrees, one pool
        task each, or none when the tree is too small to amortise a hop.

        The shipped subtrees are the maximal ones of at most ``target`` DP
        nodes: a node roots one iff its subtree fits the target while its
        successor's does not (or it hangs off the clock root).  They are
        disjoint and cover every node but the *spine* (the nodes whose
        subtree exceeds the target), which the caller evaluates afterwards.
        Subtrees are dealt largest first onto the forest holding the fewest
        nodes so far, so each worker evaluates one balanced forest as one
        level-batched run.  Every forest holds at least ``_MIN_FOREST``
        nodes: while the lightest one falls short, the subtrees are dealt
        into one forest fewer.  Each returned list is in the global
        bottom-up order, so a worker can evaluate it front to back.
        """
        nodes = dp_tree.nodes
        target = max(_MIN_FOREST, len(nodes) // (4 * workers))
        size: dict[int, int] = {}
        successor: dict[int, int] = {}
        for node in nodes:
            index, total = node.index, 1
            for pred in node.predecessors:
                total += size[pred.index]
                successor[pred.index] = index
            size[index] = total
        # Top-down, every node below the spine joins its successor's subtree.
        root_of: dict[int, int] = {}
        for node in reversed(nodes):
            index = node.index
            if size[index] <= target:
                above = successor.get(index)
                if above is None or size[above] > target:
                    root_of[index] = index
                else:
                    root_of[index] = root_of[above]
        roots = sorted(set(root_of.values()), key=lambda i: (-size[i], i))
        for count in range(min(workers, len(roots)), 1, -1):
            load = [0] * count
            forest_of: dict[int, int] = {}
            for index in roots:
                forest = load.index(min(load))
                forest_of[index] = forest
                load[forest] += size[index]
            if min(load) >= _MIN_FOREST:
                break
        else:
            return []
        forests: list[list[DpNode]] = [[] for _ in range(count)]
        for node in nodes:
            root = root_of.get(node.index)
            if root is not None:
                forests[forest_of[root]].append(node)
        return forests

    @staticmethod
    def _subtree_tables(nodes: list[DpNode]) -> "_ForestTable":
        """Flatten a forest into columns for the process boundary.

        Recursive :class:`DpNode` graphs and the live design never cross
        into a worker: the table carries every node's own scalars and base
        tuples, its design row and direct-sink flag, and its predecessor
        links as positions into this same table.
        """
        local = {node.index: i for i, node in enumerate(nodes)}
        modes = tuple(InsertionMode)
        k = len(nodes[0].corner_base_capacitance) if nodes else 1
        return _ForestTable(
            index=np.asarray([node.index for node in nodes], np.int64),
            tree_row=np.asarray([node.tree_row for node in nodes], np.int64),
            length=np.asarray([node.length for node in nodes], float),
            fanout=np.asarray([node.fanout for node in nodes], np.int64),
            base=np.asarray(
                [
                    [node.corner_base_capacitance for node in nodes],
                    [node.corner_base_max_delay for node in nodes],
                    [node.corner_base_min_delay for node in nodes],
                ],
                float,
            ).reshape(3, len(nodes), k),
            direct=np.asarray([node.has_direct_sinks for node in nodes], bool),
            mode=np.asarray([modes.index(node.mode) for node in nodes], np.int64),
            modes=modes,
            pred_stop=np.cumsum(
                [len(node.predecessors) for node in nodes], dtype=np.int64
            ),
            pred=np.asarray(
                [local[p.index] for node in nodes for p in node.predecessors],
                np.int64,
            ),
        )

    @staticmethod
    def _nodes_from_tables(table: "_ForestTable") -> list[DpNode]:
        """Rebuild worker-side :class:`DpNode` objects from a forest table.

        The fields go in positionally, in ``DpNode`` declaration order
        (about twice as fast as keywords on the worker's critical path).
        """
        modes = [table.modes[m] for m in table.mode.tolist()]
        pred = table.pred.tolist()
        nodes: list[DpNode] = []
        start = 0
        for (
            index,
            tree_row,
            length,
            stop,
            mode,
            fanout,
            base_cap,
            base_max,
            base_min,
            has_direct_sinks,
        ) in zip(
            table.index.tolist(),
            table.tree_row.tolist(),
            table.length.tolist(),
            table.pred_stop.tolist(),
            modes,
            table.fanout.tolist(),
            *[map(tuple, rows) for rows in table.base.tolist()],
            table.direct.tolist(),
        ):
            nodes.append(
                DpNode(
                    index,
                    tree_row,
                    length,
                    [nodes[p] for p in pred[start:stop]],
                    mode,
                    fanout,
                    base_cap,
                    base_max,
                    base_min,
                    has_direct_sinks,
                )
            )
            start = stop
        return nodes

    def _run_subtrees_parallel(
        self,
        subtrees: list[list[DpNode]],
        workers: int,
        policy=None,
        diagnostics: list | None = None,
    ) -> list["_LevelRecord"]:
        """Evaluate shipped forests on the shared pool: one record per
        forest, keyed by the original DP node indices, for the caller to
        append to its store (the serial spine reads them from there).

        Each forest is one fault-tolerant :func:`~repro.parallel.run_tasks`
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
                self._subtree_tables(nodes),
            )
            for nodes in subtrees
        ]
        return run_tasks(
            "insertion",
            _dp_subtree_worker,
            payloads,
            min(workers, len(payloads)),
            policy=policy,
            validate=_validate_subtree_frontiers,
            diagnostics=diagnostics,
            label=lambda i, payload: f"subtree {i} ({payload[4].index.size} nodes)",
        )

    def materialize_root(self, root: CandidateFrontier) -> list[CandidateSolution]:
        """Root frontier rows as :class:`CandidateSolution` objects.

        The objects carry no children (the vectorized top-down walks the
        back-pointer arrays instead); scalar fields mirror the primary corner
        exactly as in the object backend.
        """
        primary = self.primary
        return [
            CandidateSolution(
                up_side=Side.FRONT,
                capacitance=cap[primary],
                max_delay=max_delay[primary],
                min_delay=min_delay[primary],
                buffer_count=buffers,
                ntsv_count=ntsvs,
                corner_capacitance=tuple(cap),
                corner_max_delay=tuple(max_delay),
                corner_min_delay=tuple(min_delay),
            )
            for cap, max_delay, min_delay, buffers, ntsvs in zip(
                root.cap.T.tolist(),
                root.max_delay.T.tolist(),
                root.min_delay.T.tolist(),
                root.buffers.tolist(),
                root.ntsvs.tolist(),
            )
        ]

    def realize(
        self,
        dp_tree: DpTree,
        frontiers: "FrontierStore",
        root_choice: np.ndarray,
        realize_pattern: Callable[[DesignArrays, DpNode, EdgePattern], None],
    ) -> None:
        """Top-down decision (Step 4): retrace back-pointers, realise patterns.

        The stack order matches the object backend's ``_top_down`` exactly, so
        inserted buffers/nTSVs receive identical generated names.  Each
        chosen candidate is read straight from the store's rows (its padded
        back-pointer row zips against the node's own predecessors).
        """
        runs, pattern, choice = frontiers.runs, frontiers.pattern, frontiers.choice
        stack: list[tuple[DpNode, int]] = [
            (root_dp, int(idx))
            for root_dp, idx in zip(dp_tree.root_nodes, root_choice)
        ]
        while stack:
            dp_node, i = stack.pop()
            row = runs[dp_node.index][0] + i
            pattern_id = int(pattern[row])
            if pattern_id < 0:
                raise RuntimeError(
                    f"top-down decision reached {dp_node.name} without a pattern"
                )
            realize_pattern(dp_tree.design, dp_node, PATTERNS[pattern_id])
            stack.extend(
                (pred, int(c)) for pred, c in zip(dp_node.predecessors, choice[row])
            )
        # Pattern realisation rewrites wire sides directly on the rows, which
        # the design's edit log cannot see — record an unscoped change so that
        # incremental timing engines recompile instead of serving stale data.
        dp_tree.design.touch()

    # --------------------------------------------------------------- DP steps
    @staticmethod
    def _level_order(nodes: list[DpNode]) -> tuple[list[DpNode], int, int]:
        """The level's nodes as leaves, chain nodes, then merge nodes by
        ascending predecessor count; plus the leaf and chain counts.

        A chain node (a segmentation Steiner: one predecessor, no pin cap, no
        direct sinks) merges nothing, so its merged frontier IS its
        predecessor's pruned frontier.
        """
        leaves, chains, merges = [], [], []
        for node in nodes:
            if node.is_leaf:
                leaves.append(node)
            elif len(node.predecessors) == 1 and not node.has_static_load:
                chains.append(node)
            else:
                merges.append(node)
        merges.sort(key=lambda node: len(node.predecessors))
        return leaves + chains + merges, len(leaves), len(chains)

    def _base_rows(
        self, nodes: Sequence[DpNode]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(K, len(nodes))`` static leaf-net base quantities, one column
        per node."""
        return (
            np.asarray([n.corner_base_capacitance for n in nodes], float).T,
            np.asarray([n.corner_base_max_delay for n in nodes], float).T,
            np.asarray([n.corner_base_min_delay for n in nodes], float).T,
        )

    def _merge_level(
        self,
        nodes: list[DpNode],
        n_leaf: int,
        n_chain: int,
        store: "FrontierStore",
    ) -> tuple[CandidateFrontier, np.ndarray]:
        """Every level node's merged frontier, grouped by node.

        Returns the candidates and their node positions in ``nodes``; each
        node's candidates are contiguous, front block before back block.
        """
        parts: list[CandidateFrontier] = []
        segs: list[np.ndarray] = []
        if n_leaf:
            # Leaves start from the lumped leaf-net load on the front side.
            base_cap, base_max, base_min = self._base_rows(nodes[:n_leaf])
            parts.append(
                CandidateFrontier(
                    side=np.zeros(n_leaf, np.int8),
                    cap=base_cap,
                    max_delay=base_max,
                    min_delay=base_min,
                    buffers=np.zeros(n_leaf, np.int64),
                    ntsvs=np.zeros(n_leaf, np.int64),
                    pattern=np.full(n_leaf, -1, np.int16),
                    choice=np.empty((n_leaf, 0), np.int64),
                )
            )
            segs.append(np.arange(n_leaf, dtype=np.int64))
        if n_chain:
            # The predecessor's pruned frontier, value for value; pruning is
            # idempotent on an already-pruned, already-sorted set, so skip it.
            positions = np.arange(n_leaf, n_leaf + n_chain, dtype=np.int64)
            chain, sizes = store.gather(
                [nodes[s].predecessors[0].index for s in positions.tolist()]
            )
            parts.append(chain)
            segs.append(np.repeat(positions, sizes))
        if n_leaf + n_chain < len(nodes):
            merged, seg = self._merge_nodes(nodes, n_leaf + n_chain, store)
            parts.append(merged)
            segs.append(seg)
        return CandidateFrontier.concatenate(parts), np.concatenate(segs)

    def _merge_nodes(
        self, nodes: list[DpNode], first: int, store: "FrontierStore"
    ) -> tuple[CandidateFrontier, np.ndarray]:
        """Ragged cross-product merge of ``nodes[first:]`` at their
        downstream vertices, static load added, pruned (no cap).

        ``nodes[first:]`` are sorted by predecessor count, so the nodes whose
        fold completes at step ``j`` lead the still-active run.
        """
        active = np.arange(first, len(nodes), dtype=np.int64)
        pred_counts = np.asarray([len(nodes[s].predecessors) for s in active])
        combo, sizes = store.gather(
            [nodes[s].predecessors[0].index for s in active.tolist()]
        )
        seg = np.repeat(active, sizes)
        done: list[CandidateFrontier] = []
        done_seg: list[np.ndarray] = []
        for j in range(1, int(pred_counts[-1])):
            finished = int(np.searchsorted(pred_counts, j, side="right"))
            if finished:
                cut = int(np.searchsorted(seg, active[finished]))
                done.append(combo.window(0, cut, j))
                done_seg.append(seg[:cut])
                combo = combo.window(cut, combo.size, j)
                seg = seg[cut:]
                active, pred_counts = active[finished:], pred_counts[finished:]
            combo, seg = self._cross(nodes, active, combo, seg, j, store)
        done.append(combo)
        done_seg.append(seg)
        merged = CandidateFrontier.concatenate(done)
        seg = np.concatenate(done_seg)

        # Add the static load at the vertex (pin cap + direct leaf net).
        # Nodes with no pin cap and no direct sinks skip the arithmetic:
        # adding a zero base is the identity on positive floats.
        merging = nodes[first:]
        local = seg - first
        base_cap, base_max, base_min = self._base_rows(merging)
        add = np.asarray([n.has_static_load for n in merging])
        direct = np.asarray([n.has_direct_sinks for n in merging])
        cap = merged.cap
        if add.any():
            cap = np.where(add[local], cap + base_cap[:, local], cap)
        max_delay, min_delay = merged.max_delay, merged.min_delay
        keep = None
        if direct.any():
            # Leaf nets are front-side: a direct-sink vertex must be front.
            direct_c = direct[local]
            max_delay = np.where(
                direct_c, np.maximum(max_delay, base_max[:, local]), max_delay
            )
            min_delay = np.where(
                direct_c, np.minimum(min_delay, base_min[:, local]), min_delay
            )
            keep = ~direct_c | (merged.side == SIDE_FRONT)
            kept = np.bincount(local[keep], minlength=len(merging))
            bad = np.flatnonzero(direct & (kept == 0))
            if bad.size:
                raise RuntimeError(
                    f"DP node {merging[int(bad[0])].name}: no merged "
                    "candidate satisfies the front-side leaf-net constraint"
                )
        merged = CandidateFrontier(
            side=merged.side,
            cap=cap,
            max_delay=max_delay,
            min_delay=min_delay,
            buffers=merged.buffers,
            ntsvs=merged.ntsvs,
            pattern=merged.pattern,
            choice=merged.choice,
        )
        if keep is not None and not keep.all():
            rows = np.nonzero(keep)[0]
            merged, seg = merged.take(rows), seg[rows]
        return self._prune_segments(merged, seg)

    def _cross(
        self,
        nodes: list[DpNode],
        active: np.ndarray,
        combo: CandidateFrontier,
        seg: np.ndarray,
        j: int,
        store: "FrontierStore",
    ) -> tuple[CandidateFrontier, np.ndarray]:
        """Combine every active node's combos with its predecessor ``j``.

        Pairs are enumerated per node row-major (combo-major,
        candidate-minor) with side mismatches dropped: the object backend's
        nested loop order.
        """
        pred, pred_sizes = store.gather(
            [nodes[s].predecessors[j].index for s in active.tolist()]
        )
        combo_sizes = np.diff(np.append(np.searchsorted(seg, active), seg.size))
        pairs = combo_sizes * pred_sizes
        owner = np.repeat(np.arange(active.size), pairs)
        t = np.arange(int(pairs.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(pairs) - pairs, pairs
        )
        width = pred_sizes[owner]
        ia = (np.cumsum(combo_sizes) - combo_sizes)[owner] + t // width
        ib_local = t % width
        ib = (np.cumsum(pred_sizes) - pred_sizes)[owner] + ib_local
        ok = combo.side[ia] == pred.side[ib]
        ia, ib, ib_local, owner = ia[ok], ib[ok], ib_local[ok], owner[ok]
        missing = np.flatnonzero(np.bincount(owner, minlength=active.size) == 0)
        if missing.size:
            raise RuntimeError(
                f"DP node {nodes[int(active[missing[0]])].name}: predecessors "
                "have no side-compatible candidate combination"
            )
        merged = CandidateFrontier(
            side=combo.side[ia],
            cap=combo.cap[:, ia] + pred.cap[:, ib],
            max_delay=np.maximum(combo.max_delay[:, ia], pred.max_delay[:, ib]),
            min_delay=np.minimum(combo.min_delay[:, ia], pred.min_delay[:, ib]),
            buffers=combo.buffers[ia] + pred.buffers[ib],
            ntsvs=combo.ntsvs[ia] + pred.ntsvs[ib],
            pattern=np.full(ia.size, -1, np.int16),
            choice=np.concatenate([combo.choice[ia], ib_local[:, None]], axis=1),
        )
        return merged, seg[ia]

    def _insert_level(
        self,
        merged: CandidateFrontier,
        seg: np.ndarray,
        nodes: list[DpNode],
        enforce_driver_load: bool = True,
    ) -> tuple[CandidateFrontier, np.ndarray]:
        """Apply every allowed pattern to every merged candidate of a level.

        The (node, side-block) segments are grouped by their allowed-pattern
        tuple (the node's mode and the required down side) and each group's
        costs come from one batched call per pattern.  Results land in the
        object backend's per-node order: node-major, the front block before
        the back block (a merged frontier lists its front candidates first),
        base-major and pattern-minor within a block.
        """
        has_backside = self.pdk.has_backside
        mode_ids: dict[InsertionMode, int] = {}
        node_mode = np.asarray(
            [mode_ids.setdefault(n.mode, len(mode_ids)) for n in nodes], np.int64
        )
        lengths = np.asarray([n.length for n in nodes], float)
        key = 2 * node_mode[seg] + merged.side
        groups = []
        counts = np.zeros(merged.size, np.int64)
        for mode, mode_id in mode_ids.items():
            for side_enum, code in ((Side.FRONT, SIDE_FRONT), (Side.BACK, SIDE_BACK)):
                sel = np.nonzero(key == 2 * mode_id + code)[0]
                allowed = patterns_for(mode, has_backside, required_down_side=side_enum)
                if sel.size and allowed:
                    counts[sel] = len(allowed)
                    groups.append((sel, allowed))
        first = np.cumsum(counts) - counts
        total = int(counts.sum())
        k = self._k
        cap = np.empty((k, total))
        max_delay = np.empty((k, total))
        min_delay = np.empty((k, total))
        pattern = np.empty(total, np.int16)
        base = np.empty(total, np.int64)
        valid = np.ones(total, bool)
        for sel, allowed in groups:
            n_pat = len(allowed)
            pos = (first[sel][:, None] + np.arange(n_pat)).ravel()
            length = lengths[seg[sel]][None, :]
            base_cap = merged.cap[:, sel]
            delays, caps = [], []
            for p, edge_pattern in enumerate(allowed):
                delay, new_cap, pattern_valid = self._pattern_cost_batch(
                    edge_pattern, length, base_cap, enforce_driver_load
                )
                delays.append(delay)
                caps.append(new_cap)
                if pattern_valid is not None:
                    valid[pos[p::n_pat]] = pattern_valid
            delay_grid = np.stack(delays, axis=2)  # (K, B, P): base-major
            cap[:, pos] = np.stack(caps, axis=2).reshape(k, -1)
            max_delay[:, pos] = (
                merged.max_delay[:, sel][:, :, None] + delay_grid
            ).reshape(k, -1)
            min_delay[:, pos] = (
                merged.min_delay[:, sel][:, :, None] + delay_grid
            ).reshape(k, -1)
            ids = self._pattern_ids.get(allowed)
            if ids is None:
                ids = np.asarray([_PATTERN_INDEX[q.name] for q in allowed], np.int16)
                self._pattern_ids[allowed] = ids
            pattern[pos] = np.tile(ids, sel.size)
            base[pos] = np.repeat(sel, n_pat)
        inserted = CandidateFrontier(
            side=_UP_SIDE[pattern],
            cap=cap,
            max_delay=max_delay,
            min_delay=min_delay,
            buffers=merged.buffers[base] + _ADDED_BUFFERS[pattern],
            ntsvs=merged.ntsvs[base] + _ADDED_NTSVS[pattern],
            pattern=pattern,
            choice=merged.choice[base],
        )
        inserted_seg = seg[base]
        if not valid.all():
            rows = np.nonzero(valid)[0]
            inserted, inserted_seg = inserted.take(rows), inserted_seg[rows]
        return inserted, inserted_seg

    def _pattern_cost_batch(
        self,
        pattern: EdgePattern,
        length: float | np.ndarray,
        cap: np.ndarray,
        enforce_driver_load: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(added delay, new upstream cap, validity) of one pattern, batched.

        Mirrors ``ConcurrentInserter._pattern_cost`` operation for operation
        (bit-identical element-wise arithmetic) with the candidate axis
        vectorized and the corner axis broadcast.  ``length`` is a scalar or
        a ``(1, n)`` row of per-candidate edge lengths; either way every
        element sees the same IEEE operations.  The returned validity mask
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
            cap = np.repeat(self.buf_incap, cap.shape[1], axis=1)
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
        unit_r: np.ndarray,
        unit_c: np.ndarray,
        length: float | np.ndarray,
        load: np.ndarray,
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
        """Vectorized ``prune_per_side`` of one frontier (one segment)."""
        pruned, _ = self._prune_segments(
            frontier, np.zeros(frontier.size, np.int64), max_capacitance
        )
        return pruned

    def _prune_segments(
        self,
        frontier: CandidateFrontier,
        seg: np.ndarray,
        max_capacitance: float | None = None,
    ) -> tuple[CandidateFrontier, np.ndarray]:
        """Vectorized ``prune_per_side`` of every node at once.

        ``seg`` holds each candidate's node; a sweep segment is one (node,
        side).  The stable ``lexsort`` keyed by node and side puts every
        segment in the per-node sort order (worst cap, worst delay,
        resources; ties by position), so the result is grouped by ascending
        node, front block before back block, each block exactly as per-node
        pruning returns it.  Returns the pruned candidates and their nodes.
        """
        scalar = self._k == 1
        worst_cap = frontier.cap[0] if scalar else frontier.cap.max(axis=0)
        worst_delay = (
            frontier.max_delay[0] if scalar else frontier.max_delay.max(axis=0)
        )
        resources = frontier.buffers + frontier.ntsvs
        segment = 2 * seg + frontier.side
        # ``rows`` maps positions of the (legal) candidates being swept back
        # to ``frontier``; one gather at the end builds the result.
        rows = np.arange(frontier.size)
        if max_capacitance is not None:
            legal = worst_cap <= max_capacitance + _TOL
            if not legal.all():
                rows = np.nonzero(legal)[0]
                worst_cap, worst_delay = worst_cap[rows], worst_delay[rows]
                resources, segment = resources[rows], segment[rows]
        n = rows.size
        if n == 0:
            return frontier.take(rows), seg[rows]
        order = np.lexsort((resources, worst_delay, worst_cap, segment))
        sorted_segment = segment[order]
        first = np.empty(n, bool)
        first[0] = True
        first[1:] = sorted_segment[1:] != sorted_segment[:-1]
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, n))
        sorted_delay = worst_delay[order]
        if scalar and not self.config.keep_resource_diversity:
            kept = self._staircase(sorted_delay, starts, sizes)
        else:
            # Multi-corner and diversity runs sweep one segment at a time, so
            # each kept-set rule stays written once.
            pieces = []
            for start, size in zip(starts.tolist(), sizes.tolist()):
                if size == 1:
                    pieces.append(np.array([start], np.int64))
                    continue
                block = order[start : start + size]
                caps = frontier.cap[:, rows[block]]
                delays = frontier.max_delay[:, rows[block]]
                if self.config.keep_resource_diversity:
                    pos = self._diversity_sweep(caps, delays, resources[block])
                else:
                    pos = self._corner_sweep(caps, delays)
                pieces.append(start + pos)
            kept = np.concatenate(pieces)
        beam = self.config.max_candidates_per_side
        if beam is not None:
            kept = self._beam_segments(kept, starts, sorted_delay, beam)
        rows = rows[order[kept]]
        return frontier.take(rows), seg[rows]

    @staticmethod
    def _staircase(
        delays: np.ndarray, starts: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray:
        """Positions kept by the scalar dominance sweep of sorted segments.

        ``delays`` lists each segment (starting at ``starts``) in sort order.
        Every true keeper is a strict running-min record of its segment's
        delays (a dropped candidate's delay is always >= some earlier
        delay), so a segmented cummin over a padded ``(segments, width)``
        grid reduces the exact tolerance sweep to the records.  A record is
        kept iff it beats the last kept record by more than the tolerance;
        when every record beats the previous one by that much all are kept,
        and only segments holding a near-tie run the sequential scan.  A
        single-candidate segment is always kept.
        """
        n = delays.size
        rows = np.repeat(np.arange(starts.size), sizes)
        cols = np.arange(n) - starts[rows]
        grid = np.full((starts.size, int(sizes.max())), np.inf)
        grid[rows, cols] = delays
        running = np.minimum.accumulate(grid, axis=1)
        record = cols == 0
        inner = np.flatnonzero(~record)
        record[inner] = delays[inner] < running[rows[inner], cols[inner] - 1]
        positions = np.flatnonzero(record)
        values = delays[positions]
        lead = cols[positions] == 0
        previous = np.empty_like(values)
        previous[0] = np.inf
        previous[1:] = values[:-1]
        previous[lead] = np.inf
        clear = (values < previous - _TOL) | (lead & (sizes[rows[positions]] == 1))
        if clear.all():
            return positions
        owner = rows[positions]
        tied = np.zeros(starts.size, bool)
        tied[owner[~clear]] = True
        keep = ~tied[owner]
        best = float("inf")
        current = -1
        for i in np.flatnonzero(tied[owner]).tolist():
            if owner[i] != current:
                current, best = owner[i], float("inf")
            if values[i] < best - _TOL:
                keep[i] = True
                best = values[i]
        return positions[keep]

    def _corner_sweep(self, caps: np.ndarray, delays: np.ndarray) -> np.ndarray:
        """Vector-dominance sweep over a sorted multi-corner side block.

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

    def _beam_segments(
        self,
        kept: np.ndarray,
        starts: np.ndarray,
        sorted_delay: np.ndarray,
        beam_width: int,
    ) -> np.ndarray:
        """Per-segment beam sample of the kept sorted positions.

        The kept positions of a segment are already sorted by (worst cap,
        worst delay, resources), which the object backend's stable re-sort
        by (worst cap, worst delay) leaves unchanged; a segment keeping more
        than ``beam_width`` candidates samples its staircase evenly (first
        and last included), or keeps its lowest worst delay (first on ties)
        at ``beam_width <= 1``.
        """
        owner = np.searchsorted(starts, kept, side="right") - 1
        counts = np.bincount(owner, minlength=starts.size)
        over = counts > beam_width
        if not over.any():
            return kept
        offsets = np.cumsum(counts) - counts
        mask = ~over[owner]
        for b in np.flatnonzero(over).tolist():
            first, count = int(offsets[b]), int(counts[b])
            if beam_width <= 1:
                run = kept[first : first + count]
                mask[first + int(np.argmin(sorted_delay[run]))] = True
            else:
                last = count - 1
                picks = [round(i * last / (beam_width - 1)) for i in range(beam_width)]
                mask[[first + pick for pick in picks]] = True
        return kept[mask]

    # ------------------------------------------------------------------- root
    def _root_frontier(
        self, dp_tree: DpTree, frontiers: "FrontierStore"
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


class _LevelRecord(NamedTuple):
    """Pruned candidates grouped by node: one level batch, or a whole
    shipped forest.

    ``counts[i]`` candidates of node ``keys[i]`` follow those of
    ``keys[i - 1]`` in ``frontier``; ``widths[i]`` is the node's
    back-pointer width (its predecessor count).
    """

    frontier: CandidateFrontier
    keys: list[int]
    counts: list[int]
    widths: list[int]

    @staticmethod
    def of(
        nodes: list[DpNode], frontier: CandidateFrontier, counts: np.ndarray
    ) -> "_LevelRecord":
        return _LevelRecord(
            frontier,
            [node.index for node in nodes],
            counts.tolist(),
            [len(node.predecessors) for node in nodes],
        )


class _ForestTable(NamedTuple):
    """A shipped forest as flat columns (see ``_subtree_tables``).

    ``pred[pred_stop[i - 1]:pred_stop[i]]`` are node ``i``'s predecessors as
    positions into the table; ``base`` is the ``(3, n, K)`` stack of the
    per-corner base capacitance, max and min delay, and ``mode`` indexes
    ``modes``.
    """

    index: np.ndarray
    tree_row: np.ndarray
    length: np.ndarray
    fanout: np.ndarray
    base: np.ndarray
    direct: np.ndarray
    mode: np.ndarray
    modes: tuple[InsertionMode, ...]
    pred_stop: np.ndarray
    pred: np.ndarray


class FrontierStore(Mapping):
    """The pruned frontier of every DP node evaluated so far, appended
    record by record into one set of growing arrays.

    A level batch gathers its predecessors' frontiers from here with one
    fancy index per array, never touching per-node objects, and
    :meth:`VectorizedInsertionDp.run` returns the store itself: a mapping
    from DP node index to that node's :class:`CandidateFrontier`, cut as
    views of the arrays on access (so no per-node object is built unless
    asked for).  ``choice`` is zero-padded to the widest node; a node's
    frontier carries only its own predecessor count of columns.
    """

    def __init__(self, k: int) -> None:
        self.size = 0
        self.side = np.empty(0, np.int8)
        self.cap = np.empty((k, 0))
        self.max_delay = np.empty((k, 0))
        self.min_delay = np.empty((k, 0))
        self.buffers = np.empty(0, np.int64)
        self.ntsvs = np.empty(0, np.int64)
        self.pattern = np.empty(0, np.int16)
        self.choice = np.zeros((0, 0), np.int64)
        #: DP node index -> (first row, candidate count, back-pointer width)
        self.runs: dict[int, tuple[int, int, int]] = {}

    def __getitem__(self, index: int) -> CandidateFrontier:
        start, count, width = self.runs[index]
        return self._window(start, start + count, width)

    def __iter__(self) -> Iterator[int]:
        return iter(self.runs)

    def __len__(self) -> int:
        return len(self.runs)

    def __contains__(self, index: object) -> bool:
        return index in self.runs

    def _window(self, start: int, stop: int, width: int) -> CandidateFrontier:
        return CandidateFrontier(
            side=self.side[start:stop],
            cap=self.cap[:, start:stop],
            max_delay=self.max_delay[:, start:stop],
            min_delay=self.min_delay[:, start:stop],
            buffers=self.buffers[start:stop],
            ntsvs=self.ntsvs[start:stop],
            pattern=self.pattern[start:stop],
            choice=self.choice[start:stop, :width],
        )

    def add(self, record: _LevelRecord) -> None:
        """Append a record's candidates and index its nodes' runs."""
        frontier = record.frontier
        stop = self.size + frontier.size
        width = frontier.choice.shape[1]
        if stop > self.side.size or width > self.choice.shape[1]:
            self._grow(max(stop, 2 * self.side.size), max(width, self.choice.shape[1]))
        rows = slice(self.size, stop)
        self.side[rows] = frontier.side
        self.cap[:, rows] = frontier.cap
        self.max_delay[:, rows] = frontier.max_delay
        self.min_delay[:, rows] = frontier.min_delay
        self.buffers[rows] = frontier.buffers
        self.ntsvs[rows] = frontier.ntsvs
        self.pattern[rows] = frontier.pattern
        self.choice[rows, :width] = frontier.choice
        start = self.size
        runs = self.runs
        for key, count, node_width in zip(record.keys, record.counts, record.widths):
            if count:
                runs[key] = (start, count, node_width)
                start += count
        self.size = stop

    def _grow(self, capacity: int, width: int) -> None:
        size = self.size
        for name in ("side", "buffers", "ntsvs", "pattern"):
            old = getattr(self, name)
            grown = np.empty(capacity, old.dtype)
            grown[:size] = old[:size]
            setattr(self, name, grown)
        for name in ("cap", "max_delay", "min_delay"):
            old = getattr(self, name)
            grown = np.empty((old.shape[0], capacity))
            grown[:, :size] = old[:, :size]
            setattr(self, name, grown)
        # Zero-filled: rows past ``size`` and columns past a node's own
        # width must read as padding.
        grown = np.zeros((capacity, width), np.int64)
        grown[:size, : self.choice.shape[1]] = self.choice[:size]
        self.choice = grown

    def record(self) -> _LevelRecord:
        """Everything stored, as one record (a pool task's result)."""
        runs = self.runs.values()
        return _LevelRecord(
            self._window(0, self.size, self.choice.shape[1]),
            list(self.runs),
            [count for _, count, _ in runs],
            [width for _, _, width in runs],
        )

    def gather(self, keys: list[int]) -> tuple[CandidateFrontier, np.ndarray]:
        """The frontiers of ``keys``, concatenated, with -1 patterns and each
        candidate's index in its own frontier as the one back-pointer column;
        plus the frontier sizes."""
        runs = np.asarray([self.runs[key] for key in keys], np.int64).reshape(-1, 3)
        sizes = runs[:, 1]
        local = np.arange(int(sizes.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(sizes) - sizes, sizes
        )
        rows = np.repeat(runs[:, 0], sizes) + local
        frontier = CandidateFrontier(
            side=self.side[rows],
            cap=self.cap[:, rows],
            max_delay=self.max_delay[:, rows],
            min_delay=self.min_delay[:, rows],
            buffers=self.buffers[rows],
            ntsvs=self.ntsvs[rows],
            pattern=np.full(rows.size, -1, np.int16),
            choice=local[:, None],
        )
        return frontier, sizes


def _dp_subtree_worker(payload) -> _LevelRecord:
    """Evaluate one shipped forest of DP subtrees in a worker process.

    Rebuilds an equivalent :class:`VectorizedInsertionDp` and the forest's
    nodes, then runs the serial spine's level driver over them.  Returns
    the forest's store as one record keyed by the original DP node indices.
    """
    pdk, config, corner_pdks, primary, table = payload
    dp = VectorizedInsertionDp(pdk, config, corner_pdks, primary_index=primary)
    store = FrontierStore(dp._k)
    dp._run_levels(VectorizedInsertionDp._nodes_from_tables(table), store)
    return store.record()


def _validate_subtree_frontiers(result, payload) -> None:
    """``run_tasks`` validate hook: probe a worker's record pre-merge.

    Cheap structural checks on the main process — exact, non-empty key
    coverage of the shipped forest, counts that add up, finite cost
    columns — so a corrupting worker counts as a failed attempt (retried,
    then recomputed inline) instead of poisoning the serial spine above it.
    """
    expected = set(payload[4].index.tolist())
    if not isinstance(result, _LevelRecord):
        raise RuntimeError(
            f"worker returned {type(result).__name__}, not a DP forest record"
        )
    got = [key for key, count in zip(result.keys, result.counts) if count]
    if len(got) != len(expected) or set(got) != expected:
        raise RuntimeError(
            f"worker frontier keys mismatch: expected {sorted(expected)}, "
            f"got {sorted(got)}"
        )
    if sum(result.counts) != result.frontier.size:
        raise RuntimeError("worker record sizes do not add up")
    for name in ("cap", "max_delay", "min_delay"):
        values = getattr(result.frontier, name)
        if np.isfinite(values).all():
            continue
        bad = int(np.flatnonzero(~np.isfinite(values).all(axis=0))[0])
        stops = np.cumsum(result.counts)
        index = result.keys[int(np.searchsorted(stops, bad, side="right"))]
        raise RuntimeError(
            f"DP node {index}: non-finite {name} values in a worker frontier"
        )
