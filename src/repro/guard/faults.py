"""Fault injection: deliberately corrupt live flow state to prove guards fire.

The guard's value rests on a falsifiable claim: *every* anomaly class it
advertises is actually detected, and the degrade path actually recovers.
The injectors here corrupt a clock tree the way a buggy kernel would —
NaN escaping into a :class:`~repro.clocktree.arrays.TreeArrays` column,
a silently dropped sink subtree, a lost edit-log entry, an off-side wire
(the observable effect of a DME backend returning a node on the wrong
side), a duplicated node name — so the test suite can run the full flow
with a fault armed at a chosen stage and assert:

* ``strict`` raises :class:`~repro.guard.GuardError` naming that stage,
* ``degrade`` completes with a recorded diagnostic and a final tree
  bit-identical to an all-reference-backend run,
* ``off`` reproduces today's unguarded behaviour, corruption included.

Faults are applied to the *output* of a stage (after the backend ran, before
the guard checks), which models backend bugs without patching backend
internals; a degraded re-run on the reference backend starts from the
restored pre-stage design snapshot, and the degraded stage itself is never
re-faulted.

Everything here is module-level and pickle-friendly so faults can cross
process pools (the DSE crash hook :class:`SweepCrash` must reach
``ProcessPoolExecutor`` workers).

Beyond the stage-output injectors, this module also owns the **worker-level**
injectors of the fault-tolerant parallel tier (:class:`WorkerFault`): crash,
sleep-past-timeout, corrupt-result, crash-on-pickle, exit-mid-task, and
broken-pool failures applied inside (or against) pool workers, so the test
matrix in ``tests/test_parallel_faults.py`` can prove that
:func:`repro.parallel.run_tasks` recovers every failure mode byte-identical
to an all-serial run.  Arm them programmatically
(:func:`arm_worker_faults`) or via the ``REPRO_PARALLEL_FAULTS``
environment variable (:func:`parse_worker_faults`) so a whole CI job can
run with, say, every first worker attempt crashing.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.clocktree.node import NodeKind
from repro.clocktree.tree import ClockTree
from repro.geometry import Point
from repro.ir.design import KIND_NTSV, KIND_TAP, DesignArrays
from repro.clocktree.arrays import KIND_STEINER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flow.config import CtsConfig

#: Either tree form a fault may be asked to corrupt.
FlowState = ClockTree | DesignArrays


@dataclass(frozen=True)
class StageFault:
    """Corrupt the tree right after the flow stage named ``stage``.

    ``stage`` is one of the guarded stage names (``"routing"``,
    ``"insertion"``, ``"refinement"``); ``inject`` is a module-level callable
    taking the live :class:`ClockTree` or :class:`DesignArrays`.  Every
    injector here handles both forms: the flow stages hand it their
    :class:`DesignArrays`, and the probe tests corrupt object trees directly.
    """

    stage: str
    inject: Callable[[FlowState], None]

    @property
    def name(self) -> str:
        return getattr(self.inject, "__name__", repr(self.inject))


def apply_faults(
    faults: Iterable[StageFault], stage: str, tree: FlowState
) -> None:
    """Apply every fault registered for ``stage`` to ``tree``."""
    for fault in faults:
        if fault.stage == stage:
            fault.inject(tree)


# ---------------------------------------------------------------- injectors
def poke_nan_capacitance(tree: FlowState) -> None:
    """NaN escaping a numpy kernel into a pin capacitance (``cap`` column)."""
    if isinstance(tree, DesignArrays):
        tree.cap[int(tree.sink_rows()[0])] = float("nan")
    else:
        tree.sinks()[0].capacitance = float("nan")
    tree.touch()


def poke_nan_location(tree: FlowState) -> None:
    """NaN coordinates on a node (poisons the ``edge_length`` column)."""
    if isinstance(tree, DesignArrays):
        row = int(tree.sink_rows()[-1])
        tree.x[row] = tree.y[row] = float("nan")
        tree.edge_length[row] = tree._edge(row, int(tree.parent_row[row]))
    else:
        tree.sinks()[-1].location = Point(float("nan"), float("nan"))
    tree.touch()


def poke_negative_capacitance(tree: FlowState) -> None:
    """A negative capacitance (an underflowing subtraction in a kernel)."""
    if isinstance(tree, DesignArrays):
        tree.cap[int(tree.sink_rows()[0])] = -1.0
    else:
        tree.sinks()[0].capacitance = -1.0
    tree.touch()


def drop_sink(tree: FlowState) -> None:
    """Silently lose one sink subtree (the PR-5 silent-sink-drop bug class)."""
    if isinstance(tree, DesignArrays):
        tree.detach_subtree(int(tree.sink_rows()[0]))
    else:
        tree.sinks()[0].detach()
    tree.touch()


def flip_wire_side(tree: FlowState) -> None:
    """Move one wire to the opposite die side without an nTSV.

    This is the observable effect of a routing backend returning an
    off-side node: a non-nTSV vertex now touches wires on both sides,
    violating the paper's shared-vertex side constraint.
    """
    if isinstance(tree, DesignArrays):
        for row in tree.rows_preorder():
            parent = int(tree.parent_row[row])
            if parent < 0:
                continue
            if tree.kind[row] == KIND_NTSV or tree.kind[parent] == KIND_NTSV:
                continue
            tree.wire_front[row] = not tree.wire_front[row]
            tree.touch()
            return
        raise AssertionError("no flippable wire found")  # pragma: no cover
    for node in tree.nodes():
        if node.parent is None or node.is_ntsv or node.parent.is_ntsv:
            continue
        node.wire_side = node.wire_side.opposite
        tree.touch()
        return
    raise AssertionError("no flippable wire found")  # pragma: no cover


def duplicate_node_name(tree: FlowState) -> None:
    """Give an internal node the name of an existing sink."""
    if isinstance(tree, DesignArrays):
        sink_name = tree.names[int(tree.sink_rows()[0])]
        for row in tree.rows_preorder():
            if tree.kind[row] in (KIND_STEINER, KIND_TAP):
                # Bypass rename(): the simulated bug corrupts the name
                # column without maintaining the lookup index.
                tree.names[row] = sink_name
                tree.touch()
                return
        raise AssertionError("no internal node to rename")  # pragma: no cover
    sink_name = tree.sinks()[0].name
    for node in tree.nodes():
        if node.kind in (NodeKind.STEINER, NodeKind.TAP):
            node.name = sink_name
            tree.touch()
            return
    raise AssertionError("no internal node to rename")  # pragma: no cover


def drop_edit_log_entry(tree: FlowState) -> None:
    """Lose one recorded edit (incremental timers would silently desync).

    Reaches into the private log on purpose: that is the corruption being
    simulated.  The tree structure is untouched; only the log lies.  Both
    representations keep the same private log shape.
    """
    if not tree._edits:
        tree.touch()
    del tree._edits[-1]


# ------------------------------------------------------------ worker faults
#: Environment variable arming worker faults process-wide.  Comma- or
#: semicolon-separated ``stage:kind[:fail_attempts[:task_index]]`` entries;
#: ``stage`` may be ``*`` (every pool consumer), e.g. ``*:crash:1`` crashes
#: the first attempt of every parallel task.
WORKER_FAULTS_ENV_VAR = "REPRO_PARALLEL_FAULTS"

#: The worker failure modes :class:`WorkerFault` can inject.
WORKER_FAULT_KINDS = (
    "crash",  # raise inside the worker (the task fails cleanly)
    "hang",  # sleep past the policy timeout inside the worker
    "corrupt",  # return structurally corrupt rows (caught by validate)
    "unpicklable",  # crash-on-pickle: the result cannot travel back
    "exit",  # os._exit mid-task: kills the worker, breaks the pool
    "broken_pool",  # main-side: terminate the pool's workers pre-submit
)


class _Unpicklable:
    """A worker return value whose pickling fails (crash-on-pickle)."""

    def __init__(self, wrapped: object = None) -> None:
        self.wrapped = wrapped

    def __reduce__(self):
        raise RuntimeError("injected crash-on-pickle fault")


def corrupt_worker_result(result: object) -> object:
    """Structurally corrupt a pool-task result the way a buggy worker would.

    Duck-typed over the pool consumers' result shapes: a routing
    ``_RegionShard`` loses one sink subtree (tombstoned rows — caught by the
    shard probe), a frontier dict gets NaN capacitances poked into one
    frontier (caught by the finiteness probe).  Unknown result shapes pass
    through unchanged (nothing meaningful to corrupt).
    """
    shard = getattr(result, "shard", None)
    if shard is not None and hasattr(shard, "detach_subtree"):
        shard.detach_subtree(int(shard.sink_rows()[0]))
        return result
    if isinstance(result, dict) and result:
        frontier = result[min(result)]
        cap = getattr(frontier, "cap", None)
        if cap is not None:
            cap[...] = float("nan")
        return result
    return result


@dataclass(frozen=True)
class WorkerFault:
    """One injected worker-level failure of the fault-tolerant parallel tier.

    Frozen and built from primitives so instances travel to pool workers
    inside every task payload (no worker-side arming needed — the injector
    works under any multiprocessing start method).

    Attributes:
        stage: pool consumer the fault targets (``"routing"``,
            ``"insertion"``, ``"dse"``, ``"flow_cache"``, or ``"*"`` for
            all).
        kind: one of :data:`WORKER_FAULT_KINDS`.
        fail_attempts: the fault fires while ``attempt <= fail_attempts``
            — ``1`` (default) fails only the first attempt so a retry
            recovers; set it at or above ``ParallelPolicy.attempts`` to
            force degrade-to-serial (or a strict failure).
        task_index: restrict the fault to one task position (``None`` hits
            every task of the stage).
        hang_s: sleep duration of the ``hang`` kind.
    """

    stage: str = "*"
    kind: str = "crash"
    fail_attempts: int = 1
    task_index: int | None = None
    hang_s: float = 1.5

    def __post_init__(self) -> None:
        if self.kind not in WORKER_FAULT_KINDS:
            raise ValueError(
                f"unknown worker-fault kind {self.kind!r}; expected one of "
                f"{WORKER_FAULT_KINDS}"
            )
        if self.fail_attempts < 1:
            raise ValueError(
                f"fail_attempts must be at least 1, got {self.fail_attempts}"
            )

    def applies_to(self, stage: str) -> bool:
        return self.stage in ("*", stage)

    def fires(self, stage: str, index: int, attempt: int) -> bool:
        if not self.applies_to(stage):
            return False
        if self.task_index is not None and index != self.task_index:
            return False
        return attempt <= self.fail_attempts

    # Called by repro.parallel._policed_call inside the worker process.
    def worker_before(self, stage: str, index: int, attempt: int) -> None:
        """Pre-task injection: crash, hang, or kill the worker outright."""
        if not self.fires(stage, index, attempt):
            return
        if self.kind == "crash":
            raise RuntimeError(
                f"injected worker crash ({stage} task {index}, "
                f"attempt {attempt})"
            )
        if self.kind == "hang":
            time.sleep(self.hang_s)
        elif self.kind == "exit":
            os._exit(23)

    def worker_after(
        self, stage: str, index: int, attempt: int, result: object
    ) -> object:
        """Post-task injection: corrupt or un-picklable results."""
        if not self.fires(stage, index, attempt):
            return result
        if self.kind == "corrupt":
            return corrupt_worker_result(result)
        if self.kind == "unpicklable":
            return _Unpicklable(result)
        return result


def break_pool(pool) -> None:
    """Terminate a pool's worker processes (the ``broken_pool`` injector).

    Models a worker killed from outside (OOM killer, a node draining): the
    executor notices the lost worker and marks itself broken, so pending
    futures raise :class:`~concurrent.futures.process.BrokenProcessPool`.
    A pool that has not spawned workers yet is forced to first — otherwise
    there would be nothing to kill and the fault would silently no-op.
    """
    if not getattr(pool, "_processes", None):
        pool.submit(_noop).result()
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        process.terminate()
    for process in list(processes.values()):
        process.join(timeout=5)


def _noop() -> None:
    """Trivial pool task used to force worker spawn before breaking it."""


def parse_worker_faults(spec: str) -> tuple[WorkerFault, ...]:
    """Parse a ``REPRO_PARALLEL_FAULTS`` spec into :class:`WorkerFault` rows.

    Format: comma- or semicolon-separated
    ``stage:kind[:fail_attempts[:task_index]]`` entries, e.g. ``*:crash:1``
    or ``routing:corrupt:99;insertion:hang:1:0``.
    """
    faults: list[WorkerFault] = []
    for entry in spec.replace(";", ",").split(","):
        entry = entry.strip()
        if not entry:
            continue
        fields = entry.split(":")
        if len(fields) < 2 or len(fields) > 4:
            raise ValueError(
                f"bad worker-fault entry {entry!r}; expected "
                "stage:kind[:fail_attempts[:task_index]]"
            )
        kwargs: dict = {"stage": fields[0], "kind": fields[1]}
        if len(fields) > 2 and fields[2]:
            kwargs["fail_attempts"] = int(fields[2])
        if len(fields) > 3 and fields[3]:
            kwargs["task_index"] = int(fields[3])
        faults.append(WorkerFault(**kwargs))
    return tuple(faults)


#: Faults armed programmatically for the current process (see
#: :func:`arm_worker_faults`).
_ARMED_WORKER_FAULTS: list[WorkerFault] = []


@contextmanager
def arm_worker_faults(*faults: WorkerFault):
    """Arm worker faults for the duration of a ``with`` block (tests)."""
    _ARMED_WORKER_FAULTS.extend(faults)
    try:
        yield
    finally:
        for fault in faults:
            _ARMED_WORKER_FAULTS.remove(fault)


def active_worker_faults() -> tuple[WorkerFault, ...]:
    """Armed faults plus any ``REPRO_PARALLEL_FAULTS`` environment spec."""
    faults = tuple(_ARMED_WORKER_FAULTS)
    env = (os.environ.get(WORKER_FAULTS_ENV_VAR) or "").strip()
    if env:
        faults += parse_worker_faults(env)
    return faults


# ----------------------------------------------------------------- DSE hook
@dataclass(frozen=True)
class SweepCrash:
    """Picklable DSE point hook that raises at one sweep threshold.

    Passed as ``point_hook`` to
    :meth:`~repro.dse.DesignSpaceExplorer.explore`; the hook is invoked with
    the point's configuration before the point is evaluated.  With
    ``only_fast`` the crash spares all-reference configurations, so the
    sweep's one reference retry succeeds — exercising the recovery path
    end-to-end instead of only the failure bookkeeping.
    """

    threshold: int
    only_fast: bool = False

    def __call__(self, config: "CtsConfig", threshold: int) -> None:
        if threshold != self.threshold:
            return
        backends = config.resolved_backends()
        if self.only_fast and (
            backends.timing == backends.dp == backends.dme == "reference"
        ):
            return
        raise RuntimeError(f"injected sweep crash at threshold {threshold}")
