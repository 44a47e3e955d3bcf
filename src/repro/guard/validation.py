"""Input validation and stage-invariant checks of the guarded flow.

Two layers live here:

* **Input validation** — run once at flow entry on the design
  (:func:`clock_net_problems`), the technology
  (:func:`pdk_problems`, including NLDM table finiteness that the table
  constructor deliberately does not enforce), and the corner set
  (:func:`corner_problems`).  :func:`validate_flow_inputs` bundles all
  three and raises a :class:`~repro.guard.policy.GuardError` with every
  problem listed.
* **Stage invariants** — :func:`stage_anomaly` is the shared post-stage
  probe: the structural invariants of :meth:`ClockTree.validate`, edit-log
  coherence, finite/non-negative capacitance and edge-length columns, and
  sink preservation against the input clock net (the PR-5 silent-sink-drop
  bug class, made a permanent check) — all fused into a single traversal,
  because the probe runs after every guarded stage and the healthy path
  must stay cheap.  The per-result probes (:func:`timing_anomaly`,
  :func:`insertion_anomaly`, :func:`metrics_anomaly`) cover the numeric
  outputs a corrupted kernel would poison first.

Every probe returns ``None`` when healthy or a human-readable summary of the
offending values (counts plus example names, never full array dumps), which
is what :class:`~repro.guard.policy.GuardError` and
:class:`~repro.guard.policy.GuardDiagnostic` carry.
"""

from __future__ import annotations

import hashlib
import math
from typing import TYPE_CHECKING

import numpy as np

from repro.clocktree.node import ClockTreeNode, NodeKind
from repro.clocktree.tree import ClockTree, ConnectivityError
from repro.ir.design import DesignArrays
from repro.tech.layers import Side
from repro.guard.policy import GuardError
from repro.netlist.clock import ClockNet
from repro.tech.corners import CornerSet
from repro.tech.nldm import NldmTable
from repro.tech.pdk import Pdk

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.evaluation.metrics import ClockTreeMetrics
    from repro.insertion.concurrent import InsertionResult
    from repro.timing.analysis import TimingResult

#: Edit kinds :meth:`ClockTree._record` may legally log.
_EDIT_KINDS = ("splice", "rewire", "touch")


def design_fingerprint(clock_net: ClockNet) -> str:
    """A short stable fingerprint of a clock net (name, source, sinks).

    Attached to guard errors and diagnostics so anomalies reported from
    long-running sweeps or services can be traced back to their input.
    """
    hasher = hashlib.sha1()
    source = clock_net.source
    hasher.update(
        f"{clock_net.name}|{source.name}:{source.location.x}:{source.location.y}"
        f":{source.drive_resistance}:{source.output_slew}".encode()
    )
    for sink in clock_net.sinks:
        hasher.update(
            f"|{sink.name}:{sink.location.x}:{sink.location.y}:{sink.capacitance}".encode()
        )
    return hasher.hexdigest()[:12]


def design_cache_key(
    design: "ClockNet | DesignArrays",
    pdk: Pdk | None = None,
    corners: CornerSet | None = None,
) -> str:
    """:func:`design_fingerprint` extended into a stable cache key.

    Keys the serve tier's :class:`~repro.serve.session.SessionCache`: the sha
    of the design's identity — the full-precision clock-net columns for a
    pre-build lookup, or the canonicalised :class:`DesignArrays` columns of a
    built tree — plus the PDK and corner identity, so two requests share a
    session exactly when they would build the same tree and time it the same
    way.  Floats hash by ``float.hex()`` (exact, no repr rounding) and built
    designs hash their *alive* rows in name order with parent *names*, so
    tombstones, row renumbering, and compaction never change the key.
    """
    hasher = hashlib.sha256()
    if isinstance(design, DesignArrays):
        hasher.update(b"design-arrays")
        rows = sorted(
            (int(row) for row in design.alive_rows()),
            key=lambda row: design.names[row],
        )
        for row in rows:
            parent = int(design.parent_row[row])
            parent_name = design.names[parent] if parent >= 0 else ""
            hasher.update(
                f"|{design.names[row]}:{int(design.kind[row])}:{parent_name}"
                f":{float(design.x[row]).hex()}:{float(design.y[row]).hex()}"
                f":{float(design.cap[row]).hex()}:{int(design.side_front[row])}"
                f":{int(design.wire_front[row])}".encode()
            )
    else:
        source = design.source
        hasher.update(
            f"clock-net|{design.name}|{source.name}"
            f":{float(source.location.x).hex()}:{float(source.location.y).hex()}"
            f":{float(source.drive_resistance).hex()}"
            f":{float(source.output_slew).hex()}".encode()
        )
        for sink in design.sinks:
            hasher.update(
                f"|{sink.name}:{float(sink.location.x).hex()}"
                f":{float(sink.location.y).hex()}"
                f":{float(sink.capacitance).hex()}".encode()
            )
    if pdk is not None:
        buffer = pdk.buffer
        hasher.update(
            f"|pdk:{pdk.name}:{int(pdk.has_backside)}"
            f":{float(pdk.max_capacitance).hex()}:{float(pdk.max_slew).hex()}"
            f"|buf:{buffer.name}:{float(buffer.input_capacitance).hex()}"
            f":{float(buffer.intrinsic_delay).hex()}"
            f":{float(buffer.drive_resistance).hex()}"
            f":{float(buffer.output_slew).hex()}".encode()
        )
        for layer in (pdk.front_layer, pdk.back_layer if pdk.has_backside else None):
            if layer is not None:
                hasher.update(
                    f"|layer:{layer.name}:{float(layer.unit_resistance).hex()}"
                    f":{float(layer.unit_capacitance).hex()}".encode()
                )
        if pdk.ntsv is not None:
            hasher.update(
                f"|ntsv:{pdk.ntsv.name}:{float(pdk.ntsv.resistance).hex()}"
                f":{float(pdk.ntsv.capacitance).hex()}".encode()
            )
    if corners is not None:
        for scenario in corners:
            hasher.update(
                f"|corner:{scenario.name}"
                f":{float(scenario.wire_res_scale).hex()}"
                f":{float(scenario.wire_cap_scale).hex()}"
                f":{float(scenario.buffer_derate).hex()}"
                f":{float(scenario.ntsv_res_scale).hex()}"
                f":{scenario.use_nldm}".encode()
            )
    return hasher.hexdigest()


# ------------------------------------------------------------------- inputs
def _positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


def clock_net_problems(clock_net: ClockNet) -> list[str]:
    """Every validation problem of a design's clock net (empty when clean)."""
    problems: list[str] = []
    if not clock_net.sinks:
        problems.append(f"clock net {clock_net.name!r} has no sinks")
    source = clock_net.source
    if not (math.isfinite(source.location.x) and math.isfinite(source.location.y)):
        problems.append(f"source {source.name!r}: location is not finite")
    if not _positive(source.drive_resistance):
        problems.append(
            f"source {source.name!r}: drive resistance "
            f"{source.drive_resistance!r} is not positive and finite"
        )
    if not (math.isfinite(source.output_slew) and source.output_slew >= 0):
        problems.append(
            f"source {source.name!r}: output slew {source.output_slew!r} "
            "is not non-negative and finite"
        )
    seen: set[str] = set()
    for sink in clock_net.sinks:
        if sink.name in seen:
            problems.append(f"duplicate sink name {sink.name!r}")
        seen.add(sink.name)
        if not (math.isfinite(sink.location.x) and math.isfinite(sink.location.y)):
            problems.append(f"sink {sink.name!r}: location is not finite")
        if not _positive(sink.capacitance):
            problems.append(
                f"sink {sink.name!r}: capacitance {sink.capacitance!r} "
                "is not positive and finite"
            )
    return problems


def _nldm_problems(table: NldmTable | None, label: str) -> list[str]:
    if table is None:
        return []
    problems: list[str] = []
    slews = np.asarray(table.slew_axis, dtype=float)
    caps = np.asarray(table.cap_axis, dtype=float)
    for name, axis in (("slew", slews), ("cap", caps)):
        if not np.isfinite(axis).all():
            problems.append(f"{label}: {name} axis has non-finite entries")
        elif np.any(np.diff(axis) <= 0):
            problems.append(f"{label}: {name} axis is not strictly increasing")
    values = np.asarray(table.values, dtype=float)
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        problems.append(f"{label}: {bad}/{values.size} table entries are not finite")
    return problems


def pdk_problems(pdk: Pdk) -> list[str]:
    """Every validation problem of a PDK (empty when clean)."""
    problems: list[str] = []
    for layer in pdk.stack:
        for attr in ("unit_resistance", "unit_capacitance"):
            value = getattr(layer, attr)
            if not _positive(value):
                problems.append(
                    f"layer {layer.name!r}: {attr} {value!r} is not positive and finite"
                )
    buffer = pdk.buffer
    for attr in ("input_capacitance", "max_capacitance"):
        if not _positive(getattr(buffer, attr)):
            problems.append(
                f"buffer {buffer.name!r}: {attr} "
                f"{getattr(buffer, attr)!r} is not positive and finite"
            )
    for attr in ("intrinsic_delay", "drive_resistance", "output_slew"):
        value = getattr(buffer, attr)
        if not (math.isfinite(value) and value >= 0):
            problems.append(
                f"buffer {buffer.name!r}: {attr} {value!r} "
                "is not non-negative and finite"
            )
    problems += _nldm_problems(buffer.nldm_delay, f"buffer {buffer.name!r} delay table")
    problems += _nldm_problems(buffer.nldm_slew, f"buffer {buffer.name!r} slew table")
    if pdk.ntsv is not None:
        for attr in ("resistance", "capacitance"):
            value = getattr(pdk.ntsv, attr)
            if not (math.isfinite(value) and value >= 0):
                problems.append(
                    f"nTSV {pdk.ntsv.name!r}: {attr} {value!r} "
                    "is not non-negative and finite"
                )
    for attr in ("max_capacitance", "max_slew"):
        if not _positive(getattr(pdk, attr)):
            problems.append(
                f"PDK {pdk.name!r}: {attr} {getattr(pdk, attr)!r} "
                "is not positive and finite"
            )
    return problems


def corner_problems(corners: CornerSet | str | None) -> list[str]:
    """Every validation problem of a corner set (empty when clean or None).

    ``corners`` may be anything the timing engines accept (a spec string
    such as ``"ss,ff"``, a scenario, an iterable of scenarios); it is
    resolved with :meth:`CornerSet.resolve` first, exactly as the engines
    do, and a value that does not resolve is itself the problem.
    """
    if corners is None:
        return []
    try:
        corners = CornerSet.resolve(corners)
    except (TypeError, ValueError) as exc:
        return [f"corner set {corners!r} does not resolve: {exc}"]
    problems: list[str] = []
    for scenario in corners:
        for attr in (
            "wire_res_scale",
            "wire_cap_scale",
            "buffer_derate",
            "ntsv_res_scale",
        ):
            value = getattr(scenario, attr)
            if not _positive(value):
                problems.append(
                    f"corner {scenario.name!r}: {attr} {value!r} "
                    "is not positive and finite"
                )
    try:
        # Engines report the first nominal member as the primary corner;
        # a set that cannot gain one (both fallback names squatted by
        # non-nominal scenarios) has no well-defined nominal point.
        corners.ensure_nominal()
    except ValueError as exc:
        problems.append(str(exc))
    return problems


def validate_clock_net(clock_net: ClockNet) -> None:
    """Raise :class:`GuardError` when the clock net is invalid."""
    _raise_on_problems(clock_net_problems(clock_net), design_fingerprint(clock_net))


def validate_pdk(pdk: Pdk) -> None:
    """Raise :class:`GuardError` when the PDK is invalid."""
    _raise_on_problems(pdk_problems(pdk), "")


def validate_corners(corners: CornerSet | str | None) -> None:
    """Raise :class:`GuardError` when the corner set is invalid."""
    _raise_on_problems(corner_problems(corners), "")


def _clock_net_clean(clock_net: ClockNet) -> bool:
    """Fast screen of the per-sink checks (no problem messages).

    True means :func:`clock_net_problems` would return an empty list, so
    the detailed Python loop — and the design fingerprint — only run when a
    problem actually exists.  This keeps flow-entry validation nearly free
    on clean multi-thousand-sink designs.
    """
    sinks = clock_net.sinks
    if not sinks:
        return False
    source = clock_net.source
    if not (math.isfinite(source.location.x) and math.isfinite(source.location.y)):
        return False
    if not _positive(source.drive_resistance):
        return False
    if not (math.isfinite(source.output_slew) and source.output_slew >= 0):
        return False
    if len({sink.name for sink in sinks}) != len(sinks):
        return False
    data = np.array([(s.location.x, s.location.y, s.capacitance) for s in sinks])
    return bool(np.isfinite(data).all()) and bool((data[:, 2] > 0).all())


def validate_flow_inputs(
    clock_net: ClockNet, pdk: Pdk, corners: CornerSet | str | None = None
) -> None:
    """Validate design, PDK, and corners together (flow-entry check)."""
    problems = [] if _clock_net_clean(clock_net) else clock_net_problems(clock_net)
    problems += pdk_problems(pdk) + corner_problems(corners)
    if problems:
        _raise_on_problems(problems, design_fingerprint(clock_net))


def _raise_on_problems(problems: list[str], fingerprint: str) -> None:
    if problems:
        raise GuardError("inputs", "; ".join(problems), fingerprint)


# ------------------------------------------------------------------- stages
def stage_anomaly(
    tree: ClockTree | DesignArrays, clock_net: ClockNet | None = None
) -> str | None:
    """The shared post-stage probe: None when healthy, else a summary.

    Semantically this is :meth:`ClockTree.validate` (cycles, parent links,
    duplicate names, side constraints, name-index coherence) plus edit-log
    coherence, finite/non-negative capacitance and edge-length screens,
    and — when the input net is supplied — sink preservation.  All of it is
    fused into one iterative traversal with numpy doing the numeric
    screens: the probe runs after every guarded stage, so the healthy path
    must cost a couple of milliseconds, not a handful of full-tree passes
    (``tests/test_guard.py`` proves each corruption class is still caught,
    and the ``guarded_flow`` bench row gates the overhead in CI).

    :class:`~repro.ir.design.DesignArrays` designs take a fully vectorized
    variant of the same probe (column screens instead of a node traversal).
    """
    if isinstance(tree, DesignArrays):
        return _stage_anomaly_design(tree, clock_net)
    sink_kind, buffer_kind, ntsv_kind = NodeKind.SINK, NodeKind.BUFFER, NodeKind.NTSV
    front = Side.FRONT
    seen: set[int] = set()
    names: dict[str, ClockTreeNode] = {}
    order: list[ClockTreeNode] = []
    caps: list[float] = []
    lengths: list[float] = []
    sink_names: list[str] = []
    stack = [tree.root]
    pop = stack.pop
    extend = stack.extend
    while stack:
        node = pop()
        if id(node) in seen:
            return f"invariant violation: cycle detected at node {node.name!r}"
        seen.add(id(node))
        name = node.name
        if name in names:
            return f"invariant violation: duplicate node name {name!r}"
        names[name] = node
        order.append(node)
        parent = node.parent
        kind = node.kind
        node_side = node.side
        children = node.children
        caps.append(node.capacitance)
        if parent is None:
            lengths.append(0.0)
        else:
            # Inlined node.edge_length(): this loop visits every node after
            # every stage, so the method + Point.manhattan call overhead is
            # measurable.
            loc, ploc = node.location, parent.location
            lengths.append(abs(loc.x - ploc.x) + abs(loc.y - ploc.y))
        for child in children:
            if child.parent is not node:
                return (
                    "invariant violation: broken parent link: "
                    f"{child.name!r} does not point to {name!r}"
                )
        if kind is sink_kind:
            sink_names.append(name)
            if node_side is not front:
                return f"invariant violation: sink {name!r} is on the back side"
        elif kind is buffer_kind and node_side is not front:
            return f"invariant violation: buffer {name!r} is on the back side"
        if kind is ntsv_kind:
            # An nTSV spans both sides: upstream wire on the stored
            # (upstream) side, downstream wires on the opposite side.
            if parent is not None and node.wire_side is not node_side:
                return (
                    f"invariant violation: nTSV {name!r}: upstream wire on "
                    f"{node.wire_side.value}, expected {node_side.value}"
                )
            opposite = node_side.opposite
            for child in children:
                if child.wire_side is not opposite:
                    return (
                        f"invariant violation: nTSV {name!r}: downstream wire "
                        f"on {child.wire_side.value}, expected {opposite.value}"
                    )
        else:
            # The paper's shared-vertex constraint: every wire touching a
            # non-nTSV node lies on that node's side.
            if parent is not None and node.wire_side is not node_side:
                return (
                    f"invariant violation: node {name!r} ({kind.value}) on side "
                    f"{node_side.value} touches a wire on side {node.wire_side.value}"
                )
            for child in children:
                if child.wire_side is not node_side:
                    return (
                        f"invariant violation: node {name!r} ({kind.value}) on side "
                        f"{node_side.value} touches a wire on side "
                        f"{child.wire_side.value}"
                    )
        extend(children)
    try:
        # Private on purpose: the probe reuses the tree's own index check so
        # the two stay coherent.
        tree._check_find_index(names)
    except ConnectivityError as exc:
        return f"invariant violation: {exc}"
    anomaly = edit_log_anomaly(tree)
    if anomaly is None:
        anomaly = _column_anomaly(order, caps, "node capacitance")
    if anomaly is None:
        anomaly = _column_anomaly(order, lengths, "edge length")
    if anomaly is None and clock_net is not None:
        anomaly = _sink_preservation_anomaly(sink_names, clock_net)
    return anomaly


def _stage_anomaly_design(
    design: DesignArrays, clock_net: ClockNet | None
) -> str | None:
    """The IR twin of the shared probe, reduced over the design's rows.

    Structure (cycles, reachability, duplicate names, side constraints)
    reuses :meth:`DesignArrays.validate` after a bounded reachability walk —
    the walk must come first because a corrupted ``children_rows`` cycle
    would spin ``validate``'s level grouping forever.  The numeric screens
    recompute edge lengths from the coordinate columns (mirroring the object
    probe, which derives lengths from node locations), so a NaN poked into
    either the geometry or the capacitance column is caught.
    """
    rows = design.alive_rows()
    total = int(rows.size)
    if not total or not design.alive[0]:
        return "invariant violation: design has no alive root row"
    reached = 0
    frontier = [0]
    while frontier:
        reached += len(frontier)
        if reached > total:
            return "invariant violation: cycle detected in the design rows"
        frontier = [c for row in frontier for c in design.children_rows[row]]
    try:
        design.validate()
    except ConnectivityError as exc:
        return f"invariant violation: {exc}"
    anomaly = edit_log_anomaly(design)
    if anomaly is None:
        anomaly = _design_column_anomaly(
            design, rows, design.cap[rows], "node capacitance"
        )
    if anomaly is None:
        parents = design.parent_row[rows]
        edge_rows = rows[parents >= 0]
        edge_parents = parents[parents >= 0]
        lengths = np.abs(design.x[edge_rows] - design.x[edge_parents]) + np.abs(
            design.y[edge_rows] - design.y[edge_parents]
        )
        anomaly = _design_column_anomaly(design, edge_rows, lengths, "edge length")
    if anomaly is None and clock_net is not None:
        sink_names = [design.names[int(row)] for row in design.sink_rows()]
        anomaly = _sink_preservation_anomaly(sink_names, clock_net)
    return anomaly


def _design_column_anomaly(
    design: DesignArrays, rows: np.ndarray, values: np.ndarray, label: str
) -> str | None:
    """Non-finite or negative entries in one per-row numeric column."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = rows[~finite]
        names = [design.names[int(row)] for row in bad[:3]]
        return f"{label}: {bad.size}/{values.size} non-finite entries (e.g. {names})"
    negative = values < 0
    if negative.any():
        bad = rows[negative]
        names = [design.names[int(row)] for row in bad[:3]]
        return f"{label}: {bad.size}/{values.size} negative entries (e.g. {names})"
    return None


def _column_anomaly(
    order: list[ClockTreeNode], values: list[float], label: str
) -> str | None:
    """Non-finite or negative entries in one per-node numeric column."""
    column = np.asarray(values)
    finite = np.isfinite(column)
    if not finite.all():
        rows = np.flatnonzero(~finite)
        names = [order[row].name for row in rows[:3]]
        return (
            f"{label}: {rows.size}/{column.size} non-finite entries (e.g. {names})"
        )
    negative = column < 0
    if negative.any():
        rows = np.flatnonzero(negative)
        names = [order[row].name for row in rows[:3]]
        return f"{label}: {rows.size}/{column.size} negative entries (e.g. {names})"
    return None


def _sink_preservation_anomaly(
    sink_names: list[str], clock_net: ClockNet
) -> str | None:
    """Every input sink must survive every stage, and no sink may appear."""
    expected = {sink.name for sink in clock_net.sinks}
    actual = set(sink_names)
    if actual == expected:
        return None
    missing = expected - actual
    extra = actual - expected
    parts = []
    if missing:
        parts.append(f"{len(missing)} input sinks lost (e.g. {sorted(missing)[:3]})")
    if extra:
        parts.append(f"{len(extra)} unexpected sinks (e.g. {sorted(extra)[:3]})")
    return "sink preservation violated: " + ", ".join(parts)


def edit_log_anomaly(tree: ClockTree | DesignArrays) -> str | None:
    """Coherence of the edit log incremental timers replay.

    The log must carry known edit kinds with strictly increasing versions,
    splice/rewire entries must name their node, and the newest entry must
    match the tree version (an edited tree with a pruned or stale log would
    silently desync every incremental consumer).  Designs share the log
    shape (including ``compact()``'s collapsed single-touch log), so the
    same checks apply to both tree forms.
    """
    edits = tree.edit_log
    if not edits:
        if tree.version != 0:
            return (
                f"edit log incoherent: empty log on a tree at version {tree.version}"
            )
        return None
    last = 0
    for version, kind, node in edits:
        if kind not in _EDIT_KINDS:
            return f"edit log incoherent: unknown edit kind {kind!r}"
        if version <= last:
            return (
                "edit log incoherent: versions not strictly increasing "
                f"({version} after {last})"
            )
        last = version
        if kind != "touch" and node is None:
            return f"edit log incoherent: {kind} entry at {version} names no node"
    if last != tree.version:
        return (
            f"edit log incoherent: newest entry {last} != tree version {tree.version}"
        )
    return None


# ------------------------------------------------------------------ results
def timing_anomaly(timing: "TimingResult | None") -> str | None:
    """Non-finite or negative sink arrivals in a timing result."""
    if timing is None:
        return None
    arrivals = timing.arrivals
    values = np.fromiter(arrivals.values(), dtype=float, count=len(arrivals))
    # Fast screen first; names are only materialized on an actual anomaly.
    if np.isfinite(values).all() and not (values < 0).any():
        return None
    bad = [name for name, value in arrivals.items() if not math.isfinite(value)]
    if bad:
        return f"timing: {len(bad)} non-finite sink arrivals (e.g. {sorted(bad)[:3]})"
    negative = [name for name, value in arrivals.items() if value < 0]
    return (
        f"timing: {len(negative)} negative sink arrivals "
        f"(e.g. {sorted(negative)[:3]})"
    )


def insertion_anomaly(result: "InsertionResult") -> str | None:
    """Anomalies in an insertion result (nominal and per-corner timing)."""
    anomaly = timing_anomaly(result.timing)
    if anomaly is not None:
        return anomaly
    if result.timing_per_corner:
        for corner, timing in result.timing_per_corner.items():
            anomaly = timing_anomaly(timing)
            if anomaly is not None:
                return f"corner {corner}: {anomaly}"
    if result.inserted_buffers < 0 or result.inserted_ntsvs < 0:
        return (
            "insertion: negative resource counts "
            f"(buffers={result.inserted_buffers}, ntsvs={result.inserted_ntsvs})"
        )
    return None


def metrics_anomaly(metrics: "ClockTreeMetrics") -> str | None:
    """Non-finite or negative values in the final evaluation metrics."""
    for label in (
        "latency",
        "skew",
        "wirelength",
        "front_wirelength",
        "back_wirelength",
    ):
        value = getattr(metrics, label)
        if not (math.isfinite(value) and value >= 0):
            return f"metrics: {label} = {value!r}"
    for mapping, what in (
        (metrics.corner_skews, "skew"),
        (metrics.corner_latencies, "latency"),
    ):
        for corner, value in mapping.items():
            if not (math.isfinite(value) and value >= 0):
                return f"metrics: corner {corner} {what} = {value!r}"
    return None
