"""Design sessions: long-lived built designs answering warm what-if queries.

A :class:`DesignSession` is what ``dscts serve`` keeps between requests: the
flow's persistent :class:`~repro.ir.design.DesignArrays` design, the
compiled :class:`~repro.timing.vectorized.VectorizedElmoreEngine` state (one
engine per corner set the session has been asked about), and the log of
committed what-if edits.  A ``what_if`` request applies its edits to the
live design, re-evaluates through the engine's incremental dirty-cone
update, and (unless committed) reverts them — the same trial idiom the skew
refiner uses, so a warm answer costs a small cone re-time instead of a flow
rebuild.

Sessions are registered in a :class:`SessionCache` keyed by
:func:`~repro.guard.validation.design_cache_key` — the canonical sha of the
clock net's full-precision columns plus the PDK and corner identity — and
evicted least-recently-used under a configurable cap.

:func:`one_shot_reply` is the executable spec of the warm path: it rebuilds
the design cold (a full flow run), replays the same edits, and produces the
same reply dict.  The serve tests and the ``serve_whatif`` bench pin the
warm reply byte-identical to it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Iterable

from repro.flow.config import CtsConfig
from repro.flow.cts import CtsRunResult, DoubleSideCTS
from repro.guard.validation import design_cache_key
from repro.ir.design import KIND_BUFFER, KIND_SINK, DesignArrays
from repro.netlist.clock import ClockNet
from repro.serve.protocol import EDIT_KINDS, ProtocolError, SessionError
from repro.tech.corners import CornerSet
from repro.tech.pdk import Pdk
from repro.timing.vectorized import VectorizedElmoreEngine


# ------------------------------------------------------------------- edits
def _row_of(design: DesignArrays, name: Any) -> int:
    if not isinstance(name, str) or name not in design.name_to_row:
        raise ProtocolError(f"unknown design node {name!r}")
    return design.name_to_row[name]


def _fresh_name(design: DesignArrays, base: str) -> str:
    """A deterministic unused name derived from ``base`` (no counters).

    Generated what-if names must depend only on the design's current content
    and the edit itself, never on how many (possibly reverted) what-ifs this
    process has already served — otherwise a warm reply could not be
    byte-identical to a cold replay of the same edits.
    """
    if base not in design.name_to_row:
        return base
    suffix = 2
    while f"{base}_{suffix}" in design.name_to_row:
        suffix += 1
    return f"{base}_{suffix}"


def apply_edit(
    design: DesignArrays, edit: dict[str, Any], pdk: Pdk
) -> Callable[[], None]:
    """Apply one what-if edit and return the callable that reverts it.

    Every mutation goes through the :class:`DesignArrays` mutators and
    records its covering edit, so both the apply and the revert ride the
    timing engine's incremental replay.  Undo closures look rows up by name
    at revert time — the engine may compact the design in between, and names
    are the stable handle across renumbering.
    """
    kind = edit.get("kind")
    if kind not in EDIT_KINDS:
        raise ProtocolError(
            f"unknown edit kind {kind!r}; expected one of {list(EDIT_KINDS)}"
        )
    if kind == "insert_buffer":
        node = edit.get("node")
        row = _row_of(design, node)
        parent = int(design.parent_row[row])
        if parent < 0:
            raise ProtocolError(f"cannot insert a buffer above the root {node!r}")
        x = float(edit.get("x", (design.x[row] + design.x[parent]) / 2.0))
        y = float(edit.get("y", (design.y[row] + design.y[parent]) / 2.0))
        name = edit.get("name") or _fresh_name(design, f"wi_buf_{node}")
        design.insert_on_edge(
            row,
            KIND_BUFFER,
            x,
            y,
            side_front=True,
            capacitance=pdk.buffer.input_capacitance,
            name=name,
        )

        def undo() -> None:
            buffer_row = design.name_to_row[name]
            buffer_parent = int(design.parent_row[buffer_row])
            child = design.children_rows[buffer_row][0]
            design.move_child(child, buffer_parent)
            design.remove_leaf(buffer_row)
            design.mark_rewire(buffer_parent)

        return undo

    # retarget / rewire: move a subtree under a new parent.
    node = edit.get("node")
    row = _row_of(design, node)
    target = _row_of(design, edit.get("new_parent"))
    if int(design.parent_row[row]) < 0:
        raise ProtocolError(f"cannot retarget the root {node!r}")
    if design.kind[target] == KIND_SINK:
        raise ProtocolError(
            f"cannot retarget {node!r} under sink {edit.get('new_parent')!r}"
        )
    walk = target
    while walk >= 0:
        if walk == row:
            raise ProtocolError(
                f"retargeting {node!r} under its own subtree would form a cycle"
            )
        walk = int(design.parent_row[walk])
    old_parent = int(design.parent_row[row])
    old_parent_name = design.names[old_parent]
    target_name = design.names[target]
    design.move_child(row, target)
    # Both cones changed: the donor lost load, the receiver gained it.
    design.mark_rewire(old_parent)
    design.mark_rewire(target)

    def undo() -> None:
        moved = design.name_to_row[node]
        donor = design.name_to_row[old_parent_name]
        receiver = design.name_to_row[target_name]
        design.move_child(moved, donor)
        design.mark_rewire(receiver)
        design.mark_rewire(donor)

    return undo


# ----------------------------------------------------------------- session
def _corners_token(corners: CornerSet | None) -> tuple:
    if corners is None:
        return ()
    return tuple(
        (s.name, s.wire_res_scale, s.wire_cap_scale, s.buffer_derate,
         s.ntsv_res_scale, s.use_nldm)
        for s in corners
    )


def _metrics_row(metrics) -> dict[str, Any]:
    """The metrics reply row: ``as_row`` minus the wall-clock column.

    Runtime is the one column that legitimately differs between a warm
    session answer and its cold one-shot equivalent; everything else is part
    of the byte-identity contract.
    """
    row = dict(metrics.as_row())
    row.pop("runtime_s", None)
    return row


class DesignSession:
    """One cached design: built arrays, warm engines, committed edit log."""

    def __init__(
        self,
        key: str,
        pdk: Pdk,
        config: CtsConfig,
        run: CtsRunResult,
    ) -> None:
        self.key = key
        self.pdk = pdk
        self.config = config
        self.run = run
        self.design = run.design
        self.design_name = run.design_name
        self.edit_log: list[dict[str, Any]] = []
        self.requests = 0
        self._fingerprint: str | None = None
        self._cts = DoubleSideCTS(pdk, config)
        self._engines: dict[tuple, VectorizedElmoreEngine] = {}
        # One lock per session: concurrent clients may share a session, and
        # a what-if is a mutate-measure-revert critical section.
        self._lock = threading.Lock()

    # ------------------------------------------------------------- engines
    def _corner_set(self, corners: Any) -> CornerSet | None:
        if corners is None:
            return self.config.corners
        if isinstance(corners, CornerSet):
            return corners
        if not isinstance(corners, str):
            raise ProtocolError(f"corners must be a spec string, got {corners!r}")
        return CornerSet.parse(corners)

    def _engine(self, corners: CornerSet | None) -> VectorizedElmoreEngine:
        """The compiled engine for ``corners`` (created on first use).

        The session always times through the vectorized engine — its
        compiled state *is* what the session keeps warm; corner swaps get
        their own engine so each corner set's state stays warm independently.
        """
        token = _corners_token(corners)
        engine = self._engines.get(token)
        if engine is None:
            engine = VectorizedElmoreEngine(self.pdk, corners=corners)
            self._engines[token] = engine
        return engine

    # ------------------------------------------------------------- queries
    def fingerprint(self) -> str:
        """The canonical sha of the session's *committed* design state.

        Cached: the canonical hash walks every alive row, which would
        otherwise dominate a warm reply.  Only a commit changes the
        committed state, so only a commit invalidates it — trial edits are
        reverted before any reply is assembled.
        """
        if self._fingerprint is None:
            self._fingerprint = design_cache_key(self.design)
        return self._fingerprint

    def query(self, corners: Any = None) -> dict[str, Any]:
        """The metrics row of the design as built (plus committed edits)."""
        return self.what_if([], corners=corners)

    def what_if(
        self,
        edits: Iterable[dict[str, Any]],
        corners: Any = None,
        commit: bool = False,
    ) -> dict[str, Any]:
        """Apply ``edits``, re-evaluate warm, and revert unless committed."""
        edits = list(edits)
        for edit in edits:
            if not isinstance(edit, dict):
                raise ProtocolError(f"each edit must be an object, got {edit!r}")
        with self._lock:
            self.requests += 1
            corner_set = self._corner_set(corners)
            engine = self._engine(corner_set)
            undos: list[Callable[[], None]] = []
            try:
                for edit in edits:
                    undos.append(apply_edit(self.design, edit, self.pdk))
                metrics = self._cts.evaluate_design(
                    self.design, self.design_name, timing_engine=engine
                )
            except BaseException:
                for undo in reversed(undos):
                    undo()
                raise
            if commit:
                self.edit_log.extend(dict(edit) for edit in edits)
                if edits:
                    self._fingerprint = None
            else:
                for undo in reversed(undos):
                    undo()
            # The fingerprint reports the *committed* state the reply was
            # answered from (trial edits are reverted by now), so the cached
            # hash serves every warm reply between commits.
            return {
                "design": self.design_name,
                "fingerprint": self.fingerprint(),
                "corners": list(engine.corners.names),
                "edits": len(edits),
                "committed": bool(commit and edits),
                "metrics": _metrics_row(metrics),
            }

    def describe(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "design": self.design_name,
            "sinks": self.run.metrics.sinks,
            "requests": self.requests,
            "committed_edits": len(self.edit_log),
            "corner_sets": len(self._engines),
        }


def build_session(
    pdk: Pdk,
    clock_net: ClockNet,
    config: CtsConfig | None = None,
    design_name: str | None = None,
) -> DesignSession:
    """Run the flow once and wrap the result as a cacheable session."""
    config = config or CtsConfig()
    key = design_cache_key(clock_net, pdk, config.corners)
    run = DoubleSideCTS(pdk, config).run(clock_net, design_name)
    return DesignSession(key, pdk, config, run)


def one_shot_reply(
    pdk: Pdk,
    clock_net: ClockNet,
    config: CtsConfig | None = None,
    design_name: str | None = None,
    edits: Iterable[dict[str, Any]] = (),
    corners: Any = None,
    committed: Iterable[dict[str, Any]] = (),
) -> dict[str, Any]:
    """The cold one-shot equivalent of a warm ``what_if`` reply.

    Builds the design from scratch (a full ``dscts run``-equivalent flow),
    replays the session's ``committed`` edits and then the query ``edits``,
    and evaluates on a fresh engine.  The executable spec the warm path's
    byte-identity is pinned against — any worker count must land on these
    exact bytes.
    """
    session = build_session(pdk, clock_net, config, design_name)
    for edit in committed:
        apply_edit(session.design, edit, pdk)
        session.edit_log.append(dict(edit))
    return session.what_if(edits, corners=corners)


# ------------------------------------------------------------------- cache
class SessionCache:
    """A thread-safe LRU registry of :class:`DesignSession` objects."""

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("session cache capacity must be at least 1")
        self.capacity = capacity
        self.evictions = 0
        self._sessions: OrderedDict[str, DesignSession] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> DesignSession | None:
        with self._lock:
            session = self._sessions.get(key)
            if session is not None:
                self._sessions.move_to_end(key)
            return session

    def require(self, key: Any) -> DesignSession:
        if not isinstance(key, str):
            raise ProtocolError(f"session key must be a string, got {key!r}")
        session = self.get(key)
        if session is None:
            raise SessionError(f"unknown session {key!r} (expired or never built)")
        return session

    def put(self, session: DesignSession) -> list[str]:
        """Register ``session`` (most-recent) and return any evicted keys."""
        evicted: list[str] = []
        with self._lock:
            self._sessions[session.key] = session
            self._sessions.move_to_end(session.key)
            while len(self._sessions) > self.capacity:
                key, _ = self._sessions.popitem(last=False)
                self.evictions += 1
                evicted.append(key)
        return evicted

    def evict(self, key: str) -> bool:
        with self._lock:
            return self._sessions.pop(key, None) is not None

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def describe(self) -> dict[str, Any]:
        with self._lock:
            sessions = [session.describe() for session in self._sessions.values()]
        return {
            "capacity": self.capacity,
            "evictions": self.evictions,
            "sessions": sessions,
        }
