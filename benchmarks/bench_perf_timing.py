"""Perf harness for the timing kernel: full vs. incremental re-timing.

Times four access patterns on generated 500 / 2000 / 8000-sink clock trees:

* ``full_analysis`` — one cold analysis (reference per-node engine vs. a
  fresh vectorized compile),
* ``repeated_skew`` — repeated ``skew()`` queries on an unchanged tree (the
  inner loop of the DSE and refinement flows),
* ``incremental_buffer`` — a single end-point buffer insertion followed by a
  ``skew()`` query, vs. a from-scratch reference analysis of the edited tree,
* ``batched_corners`` — K-corner sign-off in one batched engine (shared tree
  compile, leading scenario axis) vs. K sequential single-corner vectorized
  analyses.
* ``corner_aware_refine`` — the corner-aware skew-refinement trial loop:
  SkewRefiner-style endpoint buffer edits scored on worst-corner skew by one
  corner-batched incremental engine vs. K sequential single-corner engines
  each replaying the same edit.
* ``insertion_dp`` / ``insertion_dp_corners`` — the two insertion-DP
  backends end-to-end (``ConcurrentInserter.run`` on a routed 500/2000-sink
  tree): the array-based candidate-frontier engine vs. the per-candidate
  object DP, nominal and at K=5 corners, in the Pareto-rich
  ``keep_resource_diversity`` configuration where the DP dominates the flow
  runtime.
* ``dme_embed`` / ``dme_embed_corners`` — the two DME routing backends on
  one shared matching topology over a 2k/5k-terminal sink cloud: the
  level-batched array router (bottom-up merge + top-down embedding) vs. the
  per-node scalar router, nominal and — ``dme_embed_corners`` — replayed
  under every corner-scaled PDK of the K=5 sign-off set (DME balances
  against one corner's wire RC at a time, so the corner row is K
  independent routes for both backends).  Topology construction is shared
  and untimed; the rows isolate the embedding kernel.
* ``serve_whatif`` — the serve tier's warm path: a ``what_if`` buffer-insert
  query answered by a cached ``DesignSession`` (incremental dirty-cone
  re-time on the live design) vs. the cold one-shot equivalent (full flow
  rebuild plus the same edit and evaluation).  The warm reply is asserted
  byte-identical to the cold one before timing.
* ``guarded_flow`` — the full double-side flow with ``guard=off`` vs.
  ``guard=degrade`` on a healthy 2000-sink run; the ``speedup`` column is
  ``t_off / t_degrade`` and its floor (just under 1.0x) caps the guard's
  validation + invariant-probe overhead.

Results are printed and written to ``BENCH_perf_timing.json`` at the repo
root — or to ``BENCH_perf_timing.smoke.json`` in smoke mode, so quick CI
runs never clobber the committed full-run trajectory.  Run as a script
(``PYTHONPATH=src python benchmarks/bench_perf_timing.py``) or through
pytest (``python -m pytest benchmarks/bench_perf_timing.py``).  Set
``REPRO_BENCH_SMOKE=1`` to only run the 500-sink size (CI smoke mode).

The pytest entry asserts the speedups against the committed floors in
``benchmarks/perf_floors.json`` — the same numbers the CI regression gate
(``benchmarks/check_regression.py``) enforces.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.clocktree import ClockTree, ClockTreeNode, NodeKind
from repro.designs import random_sink_cloud
from repro.geometry import Point
from repro.insertion.concurrent import ConcurrentInserter, InsertionConfig
from repro.routing.dme import DmeRouter, DmeTerminal
from repro.routing.dme_arrays import VectorizedDmeRouter
from repro.routing.hierarchical import HierarchicalClockRouter
from repro.routing.topology import matching_topology
from repro.tech import CornerSet, asap7_backside
from repro.timing import ElmoreTimingEngine, VectorizedElmoreEngine

_REPO_ROOT = Path(__file__).resolve().parent.parent
FLOORS_PATH = Path(__file__).resolve().parent / "perf_floors.json"

#: (repeat queries, incremental edits) per size; enough to average noise out.
REPEAT_QUERIES = 20
INCREMENTAL_EDITS = 20

#: Corner batch used by the ``batched_corners`` pattern.
BENCH_CORNERS = "tt,ss,ff,hot,cold"

#: Sink counts the insertion-DP backend rows run on (the object DP at K=5 on
#: the 8000-sink tree would dominate the whole bench runtime).
INSERTION_DP_SIZES = (500, 2000)

#: Terminal counts the DME-backend rows run on (2k gates the CI smoke run;
#: the full run adds 5k plus the K=5 corner replay at 2k).
DME_EMBED_SIZES_FULL = (2000, 5000)
DME_EMBED_SIZES_SMOKE = (2000,)

#: Sink count the guarded-flow overhead row runs on (both modes).
GUARDED_FLOW_SINKS = 2000

#: Sink counts the serve warm-vs-cold row runs on (cold is a full flow run
#: per round, so smoke gates a smaller cut of the same code path).
SERVE_WHATIF_SINKS_FULL = 2000
SERVE_WHATIF_SINKS_SMOKE = 500

#: The region-parallel scaled tier: serial vs. process-pool construction at
#: this worker count.  Full mode runs the 100k-sink tier the rows are named
#: after; smoke gates a 20k-sink cut of the same code path on CI runners.
PARALLEL_WORKERS = 4
PARALLEL_SINKS_FULL = 100_000
PARALLEL_SINKS_SMOKE = 20_000


def dme_embed_sizes() -> tuple[int, ...]:
    return DME_EMBED_SIZES_SMOKE if smoke_mode() else DME_EMBED_SIZES_FULL


def parallel_sinks() -> int:
    return PARALLEL_SINKS_SMOKE if smoke_mode() else PARALLEL_SINKS_FULL


def smoke_mode() -> bool:
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def result_path() -> Path:
    """Smoke runs write next to, never over, the committed full-run results."""
    name = "BENCH_perf_timing.smoke.json" if smoke_mode() else "BENCH_perf_timing.json"
    return _REPO_ROOT / name


def bench_sizes() -> list[int]:
    if smoke_mode():
        return [500]
    return [500, 2000, 8000]


def perf_floors() -> dict[str, float]:
    """The committed speedup floors for the current mode (smoke or full)."""
    floors = json.loads(FLOORS_PATH.read_text())
    return floors["smoke" if smoke_mode() else "full"]


def synthetic_tree(sink_count: int, seed: int = 11, group: int = 16) -> ClockTree:
    """A CTS-shaped tree: trunk steiners, buffered taps, leaf sink groups."""
    rng = np.random.default_rng(seed)
    root = ClockTreeNode("root", NodeKind.ROOT, Point(50.0, 0.0))
    tree = ClockTree(root)
    groups = max(1, sink_count // group)
    trunks = []
    for g in range(max(1, groups // 8)):
        trunk = ClockTreeNode(
            f"trunk{g}",
            NodeKind.STEINER,
            Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
        )
        root.add_child(trunk)
        trunks.append(trunk)
    taps = []
    for g in range(groups):
        buffer_node = ClockTreeNode(
            f"tbuf{g}",
            NodeKind.BUFFER,
            Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            capacitance=0.8,
        )
        trunks[g % len(trunks)].add_child(buffer_node)
        tap = ClockTreeNode(f"tap{g}", NodeKind.TAP, buffer_node.location)
        buffer_node.add_child(tap)
        taps.append(tap)
    for i in range(sink_count):
        tap = taps[i % len(taps)]
        tap.add_child(
            ClockTreeNode(
                f"s{i}",
                NodeKind.SINK,
                Point(
                    tap.location.x + float(rng.uniform(-5, 5)),
                    tap.location.y + float(rng.uniform(-5, 5)),
                ),
                capacitance=0.8,
            )
        )
    return tree


def _median_time(fn, rounds: int) -> float:
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def bench_size(sink_count: int, pdk) -> list[dict]:
    tree = synthetic_tree(sink_count)
    reference = ElmoreTimingEngine(pdk)
    vectorized = VectorizedElmoreEngine(pdk)

    t_ref_full = _median_time(lambda: reference.skew(tree), rounds=3)
    t_vec_full = _median_time(
        lambda: VectorizedElmoreEngine(pdk).skew(tree), rounds=3
    )

    vectorized.skew(tree)  # warm the cache
    t_ref_repeat = _median_time(lambda: reference.skew(tree), rounds=REPEAT_QUERIES)
    t_vec_repeat = _median_time(lambda: vectorized.skew(tree), rounds=REPEAT_QUERIES)

    rng = np.random.default_rng(3)
    sinks = tree.sinks()
    incr_samples = []
    ref_edit_samples = []
    for _ in range(INCREMENTAL_EDITS):
        sink = sinks[int(rng.integers(len(sinks)))]
        midpoint = Point(
            (sink.location.x + sink.parent.location.x) / 2.0,
            (sink.location.y + sink.parent.location.y) / 2.0,
        )
        tree.add_buffer(sink, midpoint, pdk.buffer.input_capacitance)
        start = time.perf_counter()
        vectorized.skew(tree)
        incr_samples.append(time.perf_counter() - start)
        start = time.perf_counter()
        ElmoreTimingEngine(pdk).skew(tree)
        ref_edit_samples.append(time.perf_counter() - start)
    incr_samples.sort()
    ref_edit_samples.sort()
    t_vec_incr = incr_samples[len(incr_samples) // 2]
    t_ref_edit = ref_edit_samples[len(ref_edit_samples) // 2]

    # Sanity: the incremental state still matches a fresh reference analysis.
    ref_result = ElmoreTimingEngine(pdk).analyze(tree)
    vec_result = vectorized.analyze(tree)
    worst = max(
        abs(ref_result.arrivals[name] - vec_result.arrivals[name])
        for name in ref_result.arrivals
    )
    if worst > 1e-9:
        raise AssertionError(
            f"incremental drift {worst} exceeds 1e-9 on {sink_count} sinks"
        )

    return [
        {
            "flow": "full_analysis",
            "sinks": sink_count,
            "reference_s": round(t_ref_full, 6),
            "vectorized_s": round(t_vec_full, 6),
            "speedup": round(t_ref_full / t_vec_full, 2),
        },
        {
            "flow": "repeated_skew",
            "sinks": sink_count,
            "reference_s": round(t_ref_repeat, 6),
            "vectorized_s": round(t_vec_repeat, 9),
            "speedup": round(t_ref_repeat / t_vec_repeat, 2),
        },
        {
            "flow": "incremental_buffer",
            "sinks": sink_count,
            "reference_s": round(t_ref_edit, 6),
            "vectorized_s": round(t_vec_incr, 9),
            "speedup": round(t_ref_edit / t_vec_incr, 2),
        },
    ]


def bench_corners(sink_count: int, pdk, spec: str = BENCH_CORNERS) -> dict:
    """K-corner batched analysis vs. K sequential single-corner analyses.

    Both sides use the vectorized kernel on cold engines (``invalidate``
    before every timed round), so the comparison isolates what the batching
    buys: one shared tree compile plus K-row level passes against K separate
    compiles.  Corner PDKs are derived outside the timed region for both.
    """
    tree = synthetic_tree(sink_count)
    corners = CornerSet.parse(spec)
    corner_count = len(corners)
    sequential_engines = [
        VectorizedElmoreEngine(scenario.apply_to(pdk)) for scenario in corners
    ]
    batched = VectorizedElmoreEngine(pdk, corners=corners)

    def run_sequential() -> float:
        worst = 0.0
        for engine in sequential_engines:
            engine.invalidate()
            worst = max(worst, engine.skew(tree))
        return worst

    def run_batched() -> float:
        batched.invalidate()
        return batched.worst_skew(tree)

    # Sanity: the batch agrees with the per-corner loop to 1e-9.
    sequential_skews = [engine.skew(tree) for engine in sequential_engines]
    batched_skews = batched.skew_per_corner(tree)
    for scenario, expected in zip(corners, sequential_skews):
        if abs(batched_skews[scenario.name] - expected) > 1e-9:
            raise AssertionError(
                f"batched corner {scenario.name} drifts from the sequential "
                f"analysis on {sink_count} sinks"
            )

    t_seq = _median_time(run_sequential, rounds=3)
    t_bat = _median_time(run_batched, rounds=3)
    return {
        "flow": "batched_corners",
        "sinks": sink_count,
        "corners": corner_count,
        "reference_s": round(t_seq, 6),
        "vectorized_s": round(t_bat, 6),
        "speedup": round(t_seq / t_bat, 2),
    }


def bench_corner_refine(sink_count: int, pdk, spec: str = BENCH_CORNERS) -> dict:
    """Corner-aware refinement trial scoring: batched vs. per-corner loop.

    Replays the skew refiner's inner loop — an endpoint buffer edit recorded
    with ``mark_rewire`` followed by the trial score (per-corner skew *and*
    latency, exactly what ``SkewRefiner._measure`` reads) — and compares one
    corner-batched incremental engine (what ``SkewRefiner(corners=...)``
    uses) against K sequential single-corner vectorized engines that each
    replay the same edit (what a naive per-corner wrapper would do).
    """
    tree = synthetic_tree(sink_count)
    corners = CornerSet.parse(spec)
    batched = VectorizedElmoreEngine(pdk, corners=corners)
    sequential_engines = [
        VectorizedElmoreEngine(scenario.apply_to(pdk)) for scenario in corners
    ]
    batched.worst_skew(tree)  # compile once; edits go the incremental path
    for engine in sequential_engines:
        engine.skew(tree)

    taps = [node for node in tree.nodes() if node.kind is NodeKind.TAP]
    rng = np.random.default_rng(7)
    bat_samples: list[float] = []
    seq_samples: list[float] = []
    for _ in range(INCREMENTAL_EDITS):
        tap = taps[int(rng.integers(len(taps)))]
        buffer_node = ClockTreeNode(
            tree.new_name("sr_buf"),
            NodeKind.BUFFER,
            tap.location,
            capacitance=pdk.buffer.input_capacitance,
        )
        tap.add_child(buffer_node)
        for sink in [c for c in list(tap.children) if c.is_sink][:2]:
            sink.detach()
            buffer_node.add_child(sink)
        tree.mark_rewire(tap)
        start = time.perf_counter()
        worst_batched = max(batched.skew_per_corner(tree).values())
        max(batched.latency_per_corner(tree).values())
        bat_samples.append(time.perf_counter() - start)
        start = time.perf_counter()
        worst_sequential = max(engine.skew(tree) for engine in sequential_engines)
        max(engine.latency(tree) for engine in sequential_engines)
        seq_samples.append(time.perf_counter() - start)
        if abs(worst_batched - worst_sequential) > 1e-9:
            raise AssertionError(
                f"corner-aware refine drift {abs(worst_batched - worst_sequential)} "
                f"exceeds 1e-9 on {sink_count} sinks"
            )
    bat_samples.sort()
    seq_samples.sort()
    t_bat = bat_samples[len(bat_samples) // 2]
    t_seq = seq_samples[len(seq_samples) // 2]
    return {
        "flow": "corner_aware_refine",
        "sinks": sink_count,
        "corners": len(corners),
        "reference_s": round(t_seq, 9),
        "vectorized_s": round(t_bat, 9),
        "speedup": round(t_seq / t_bat, 2),
    }


def bench_insertion_dp(sink_count: int, pdk, corners_spec: str | None = None) -> dict:
    """Insertion-DP backends end-to-end: object DP vs. candidate frontiers.

    Routes a sink cloud once, then replays ``ConcurrentInserter.run`` (DP
    tree build, bottom-up candidate generation, selection, realisation,
    final timing) on a fresh tree copy per round and per backend.  The
    inserter runs the Pareto-rich ``keep_resource_diversity`` configuration:
    with diverse candidate frontiers the DP — not routing or timing — is the
    flow bottleneck, and the array backend's broadcast merges and pairwise
    dominance sweeps replace the object DP's per-candidate loops (whose cost
    grows with frontier size times corner count).  The sparse default-beam
    nominal DP is roughly a wash between backends and is not what this row
    gates.
    """
    routed = HierarchicalClockRouter(pdk).route(random_sink_cloud(sink_count)).tree
    corners = CornerSet.parse(corners_spec) if corners_spec else None

    def run_backend(backend: str):
        samples = []
        result = None
        for _ in range(3):
            tree = routed.copy()
            config = InsertionConfig(dp_backend=backend, keep_resource_diversity=True)
            start = time.perf_counter()
            result = ConcurrentInserter(pdk, config, corners=corners).run(tree)
            samples.append(time.perf_counter() - start)
        samples.sort()
        return samples[len(samples) // 2], result

    t_ref, ref = run_backend("reference")
    t_vec, vec = run_backend("vectorized")

    # Sanity: the two backends are decision-identical.
    if (
        ref.inserted_buffers != vec.inserted_buffers
        or ref.inserted_ntsvs != vec.inserted_ntsvs
        or abs(ref.skew - vec.skew) > 1e-9
    ):
        raise AssertionError(
            f"DP backends diverge on {sink_count} sinks "
            f"(corners={corners_spec!r})"
        )

    row = {
        "flow": "insertion_dp_corners" if corners_spec else "insertion_dp",
        "sinks": sink_count,
        "reference_s": round(t_ref, 6),
        "vectorized_s": round(t_vec, 6),
        "speedup": round(t_ref / t_vec, 2),
    }
    if corners_spec:
        row["corners"] = len(corners)
    return row


def bench_dme_embed(terminal_count: int, pdk, corners_spec: str | None = None) -> dict:
    """DME routing backends: scalar per-node router vs. level-batched arrays.

    Builds one matching topology over a seeded sink cloud (untimed — the
    O(n^2) greedy matching is identical input for both backends) and times
    ``route`` end-to-end: bottom-up merging-segment computation with Elmore
    edge balancing, top-down embedding, and EmbeddedNode realisation.  With
    ``corners_spec`` each timed round replays the route under every
    corner-scaled PDK's front layer (the corner-aware construction question:
    which corner's wire RC to balance against), for both backends alike.

    The two backends are decision-identical; the sanity check asserts
    bit-equal embedded wirelength on every layer.
    """
    clock_net = random_sink_cloud(terminal_count)
    terminals = [
        DmeTerminal(name=s.name, location=s.location, capacitance=s.capacitance)
        for s in clock_net.sinks
    ]
    topology = matching_topology([t.location for t in terminals])
    root_location = clock_net.source.location
    if corners_spec:
        corners = CornerSet.parse(corners_spec)
        layers = [scenario.apply_to(pdk).front_layer for scenario in corners]
    else:
        corners = None
        layers = [pdk.front_layer]

    def run(router_class) -> float:
        return _median_time(
            lambda: [
                router_class(layer).route(
                    terminals, root_location=root_location, topology=topology
                )
                for layer in layers
            ],
            rounds=3,
        )

    t_ref = run(DmeRouter)
    t_vec = run(VectorizedDmeRouter)

    # Sanity: the two backends embed bit-identical trees on every layer.
    for layer in layers:
        reference = DmeRouter(layer).route(
            terminals, root_location=root_location, topology=topology
        )
        vectorized = VectorizedDmeRouter(layer).route(
            terminals, root_location=root_location, topology=topology
        )
        if reference.wirelength() != vectorized.wirelength():
            raise AssertionError(
                f"DME backends diverge on {terminal_count} terminals "
                f"(layer {layer.name}, corners={corners_spec!r})"
            )

    row = {
        "flow": "dme_embed_corners" if corners_spec else "dme_embed",
        "sinks": terminal_count,
        "reference_s": round(t_ref, 6),
        "vectorized_s": round(t_vec, 6),
        "speedup": round(t_ref / t_vec, 2),
    }
    if corners_spec:
        row["corners"] = len(corners)
    return row


def bench_guarded_flow(sink_count: int, pdk) -> dict:
    """Guarded-flow overhead: guard=off vs. guard=degrade on a healthy run.

    Runs the full double-side flow on one sink cloud under both policies.
    On a healthy run ``degrade`` pays for input validation and the fused
    post-stage invariant probes, but never replays a stage — the row gates
    that this overhead stays small.  The two policies are timed in
    interleaved pairs and scored by their best sample: the overhead being
    measured is a fixed few milliseconds of checking, and minima separate
    it from scheduler noise far better than a median of three back-to-back
    runs does.  The ``speedup`` column is ``t_off / t_degrade`` (close to,
    and bounded below by, the committed floor just under 1.0x) so the
    shared ``speedup >= floor`` gate caps the overhead.
    """
    from repro.flow.config import BackendSelection, CtsConfig
    from repro.flow.cts import DoubleSideCTS

    clock_net = random_sink_cloud(sink_count)
    samples: dict[str, list[float]] = {"off": [], "degrade": []}
    results: dict[str, object] = {}
    for _ in range(5):
        for policy in ("off", "degrade"):
            config = CtsConfig(backends=BackendSelection(guard=policy))
            flow = DoubleSideCTS(pdk, config)
            start = time.perf_counter()
            results[policy] = flow.run(clock_net)
            samples[policy].append(time.perf_counter() - start)
    t_off, t_degrade = min(samples["off"]), min(samples["degrade"])
    off, degraded = results["off"], results["degrade"]

    # Sanity: a healthy degrade run never intervenes and builds the same tree.
    if degraded.guard_diagnostics:
        raise AssertionError(
            f"healthy degrade run recorded diagnostics: {degraded.guard_diagnostics}"
        )
    if (
        abs(off.metrics.skew - degraded.metrics.skew) > 1e-12
        or abs(off.metrics.latency - degraded.metrics.latency) > 1e-12
        or off.metrics.wirelength != degraded.metrics.wirelength
    ):
        raise AssertionError(f"guard policies diverge on {sink_count} sinks")

    return {
        "flow": "guarded_flow",
        "sinks": sink_count,
        "reference_s": round(t_off, 6),
        "vectorized_s": round(t_degrade, 6),
        "speedup": round(t_off / t_degrade, 3),
    }


def bench_serve_whatif(sink_count: int, pdk) -> dict:
    """The serve tier's warm path vs. its cold one-shot equivalent.

    Warm: ``DesignSession.what_if`` on a cached built design — a buffer
    insert applied to the live ``DesignArrays``, re-timed through the
    engine's incremental dirty-cone update, measured, and reverted.  Cold:
    :func:`repro.serve.session.one_shot_reply` — a full flow rebuild plus
    the same edit and a fresh-engine evaluation, i.e. what answering the
    same question with ``dscts run`` costs.  The two replies are asserted
    byte-identical (the serve acceptance contract) before anything is timed.
    """
    from repro.flow.config import CtsConfig
    from repro.serve import build_session, encode_reply, one_shot_reply

    clock_net = random_sink_cloud(sink_count)
    config = CtsConfig()
    session = build_session(pdk, clock_net, config)
    session.query()  # compile the engine once; what-ifs ride incrementally

    pinned_edit = [{"kind": "insert_buffer", "node": "ff_7"}]
    cold_reply = one_shot_reply(pdk, clock_net, config, edits=pinned_edit)
    warm_reply = session.what_if(pinned_edit)
    if encode_reply(warm_reply) != encode_reply(cold_reply):
        raise AssertionError(
            f"warm what_if reply drifts from the cold one-shot on "
            f"{sink_count} sinks"
        )

    rng = np.random.default_rng(17)
    warm_samples: list[float] = []
    for sink in rng.integers(0, sink_count, size=INCREMENTAL_EDITS):
        edits = [{"kind": "insert_buffer", "node": f"ff_{int(sink)}"}]
        start = time.perf_counter()
        session.what_if(edits)
        warm_samples.append(time.perf_counter() - start)
    warm_samples.sort()
    t_warm = warm_samples[len(warm_samples) // 2]

    t_cold = _median_time(
        lambda: one_shot_reply(pdk, clock_net, config, edits=pinned_edit),
        rounds=3,
    )
    return {
        "flow": "serve_whatif",
        "sinks": sink_count,
        "reference_s": round(t_cold, 6),
        "vectorized_s": round(t_warm, 9),
        "speedup": round(t_cold / t_warm, 2),
    }


def bench_parallel_construction(sink_count: int, pdk) -> list[dict]:
    """The region-parallel scaled tier: serial vs. process-pool construction.

    Three rows, each timing ``workers=1`` against ``workers=PARALLEL_WORKERS``
    on the same input:

    * ``dme_embed_100k`` — ``route_design``: per-region low clustering, tap
      DME, and shard materialisation fanned out over the top-level clusters,
      stitched back by the deterministic graft protocol;
    * ``insertion_dp_100k`` — the frontier DP with bottom subtrees shipped
      to the pool as flat tables;
    * ``flow_e2e_100k`` — the full flow end to end.

    The parallel path is bit-identical to serial by contract
    (``tests/test_parallel_construction.py`` pins the full matrix); each row
    re-asserts a cheap cut of that invariant here before reporting.

    Every row records the worker count and the measuring host's core count:
    on hosts with fewer cores than workers the pool adds pickling and
    spin-up cost with no hardware to spend it on, so the measured "speedup"
    is honestly below 1.0 there.  The regression gates therefore apply the
    committed floors only when ``cores >= workers`` (see
    ``check_regression.py`` and ``test_perf_timing``); single-core hosts
    still run the rows — exercising and sanity-checking the parallel code
    path — but report them ungated.
    """
    from repro.flow.config import CtsConfig
    from repro.flow.cts import DoubleSideCTS
    from repro.insertion.dp_tree import build_dp_tree
    from repro.insertion.frontier import VectorizedInsertionDp

    cores = os.cpu_count() or 1
    workers = PARALLEL_WORKERS
    clock_net = random_sink_cloud(sink_count)

    def config_for(n: int) -> CtsConfig:
        return CtsConfig(workers=n)

    def make_row(flow: str, serial_samples, parallel_samples) -> dict:
        t_serial, t_parallel = min(serial_samples), min(parallel_samples)
        return {
            "flow": flow,
            "sinks": sink_count,
            "workers": workers,
            "cores": cores,
            "reference_s": round(t_serial, 6),
            "vectorized_s": round(t_parallel, 6),
            "speedup": round(t_serial / t_parallel, 2),
        }

    def timed_pairs(run, rounds: int):
        samples: dict[int, list[float]] = {1: [], workers: []}
        results: dict[int, object] = {}
        for _ in range(rounds):
            for n in (1, workers):
                results[n] = None
                gc.collect()
                gc.disable()
                try:
                    start = time.perf_counter()
                    results[n] = run(n)
                    samples[n].append(time.perf_counter() - start)
                finally:
                    gc.enable()
        return samples, results[1], results[workers]

    rows: list[dict] = []

    # Region-parallel routing straight into design rows.
    samples, serial, parallel = timed_pairs(
        lambda n: HierarchicalClockRouter(pdk, config=config_for(n)).route_design(
            clock_net
        ),
        rounds=3,
    )
    if (
        serial.design.size != parallel.design.size
        or serial.design.names != parallel.design.names
        or serial.trunk_wirelength != parallel.trunk_wirelength
        or serial.leaf_wirelength != parallel.leaf_wirelength
    ):
        raise AssertionError(
            f"region-parallel routing diverges on {sink_count} sinks"
        )
    rows.append(make_row("dme_embed_100k", samples[1], samples[workers]))

    # Subtree-parallel frontier DP over the serially routed design.
    dp_tree = build_dp_tree(serial.design, pdk)
    dp = VectorizedInsertionDp(pdk, InsertionConfig(), [pdk])
    samples, (_, serial_root), (_, parallel_root) = timed_pairs(
        lambda n: dp.run(dp_tree, workers=n), rounds=3
    )
    if not np.array_equal(serial_root.cap, parallel_root.cap) or not np.array_equal(
        serial_root.choice, parallel_root.choice
    ):
        raise AssertionError(
            f"subtree-parallel DP diverges on {sink_count} sinks"
        )
    rows.append(make_row("insertion_dp_100k", samples[1], samples[workers]))

    # The full flow end to end.
    samples, serial_flow, parallel_flow = timed_pairs(
        lambda n: DoubleSideCTS(pdk, config_for(n)).run(clock_net), rounds=2
    )
    if (
        serial_flow.metrics.skew != parallel_flow.metrics.skew
        or serial_flow.metrics.latency != parallel_flow.metrics.latency
        or serial_flow.metrics.buffers != parallel_flow.metrics.buffers
        or serial_flow.metrics.ntsvs != parallel_flow.metrics.ntsvs
    ):
        raise AssertionError(
            f"region-parallel flow diverges on {sink_count} sinks"
        )
    rows.append(make_row("flow_e2e_100k", samples[1], samples[workers]))
    return rows


def bench_parallel_resilience(pdk) -> dict:
    """Healthy-path overhead of the fault-tolerant pool tier.

    Times region-parallel ``route_design`` twice on the same pool and input:
    once under a bare-minimum policy (one attempt, no timeout — the
    pre-fault-tolerance behaviour) and once under a production policy
    (retries, backoff, and a per-task timeout armed).  On a healthy run the
    policy machinery must be almost free — its per-task cost is one
    ``future.result(timeout=...)`` call and a validate hook on the main
    process — so the ratio gates with a floor just under 1.0.

    Both runs use the pool identically, so the ratio is core-independent and
    the row gates on every host (no ``workers``/``cores`` keys).
    """
    from repro.flow.config import CtsConfig
    from repro.parallel import ParallelPolicy

    clock_net = random_sink_cloud(PARALLEL_SINKS_SMOKE)
    plain_policy = ParallelPolicy(attempts=1, backoff_s=0.0)
    policed_policy = ParallelPolicy(attempts=3, timeout_s=600.0, backoff_s=0.05)

    def config_for(policy: ParallelPolicy) -> CtsConfig:
        return CtsConfig(workers=PARALLEL_WORKERS, parallel_policy=policy)

    samples: dict[str, list[float]] = {"plain": [], "policed": []}
    results: dict[str, object] = {}
    for _ in range(3):
        for key, policy in (("plain", plain_policy), ("policed", policed_policy)):
            router = HierarchicalClockRouter(pdk, config=config_for(policy))
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                results[key] = router.route_design(clock_net)
                samples[key].append(time.perf_counter() - start)
            finally:
                gc.enable()
    plain, policed = results["plain"], results["policed"]
    if (
        plain.design.size != policed.design.size
        or plain.design.names != policed.design.names
        or plain.trunk_wirelength != policed.trunk_wirelength
        or policed.parallel_diagnostics
    ):
        raise AssertionError("policed healthy-path routing diverges from plain")
    t_plain, t_policed = min(samples["plain"]), min(samples["policed"])
    return {
        "flow": "parallel_resilience",
        "sinks": PARALLEL_SINKS_SMOKE,
        "reference_s": round(t_plain, 6),
        "vectorized_s": round(t_policed, 6),
        "speedup": round(t_plain / t_policed, 2),
    }


def run_bench() -> list[dict]:
    pdk = asap7_backside()
    rows: list[dict] = []
    for sink_count in bench_sizes():
        rows.extend(bench_size(sink_count, pdk))
        rows.append(bench_corners(sink_count, pdk))
        rows.append(bench_corner_refine(sink_count, pdk))
        if sink_count in INSERTION_DP_SIZES:
            rows.append(bench_insertion_dp(sink_count, pdk))
            rows.append(bench_insertion_dp(sink_count, pdk, BENCH_CORNERS))
    for terminal_count in dme_embed_sizes():
        rows.append(bench_dme_embed(terminal_count, pdk))
    if not smoke_mode():
        rows.append(bench_dme_embed(DME_EMBED_SIZES_FULL[0], pdk, BENCH_CORNERS))
    rows.append(bench_guarded_flow(GUARDED_FLOW_SINKS, pdk))
    rows.append(
        bench_serve_whatif(
            SERVE_WHATIF_SINKS_SMOKE if smoke_mode() else SERVE_WHATIF_SINKS_FULL,
            pdk,
        )
    )
    rows.extend(bench_parallel_construction(parallel_sinks(), pdk))
    rows.append(bench_parallel_resilience(pdk))
    result_path().write_text(json.dumps(rows, indent=2) + "\n")
    for row in rows:
        label = row["flow"]
        if "corners" in row:
            label = f"{label}(K={row['corners']})"
        print(
            f"{label:>22} sinks={row['sinks']:>5} "
            f"ref={row['reference_s'] * 1e3:9.3f} ms "
            f"vec={row['vectorized_s'] * 1e3:9.3f} ms "
            f"speedup={row['speedup']:8.1f}x"
        )
    return rows


def test_perf_timing():
    """Pytest entry: the kernel must beat the committed regression floors.

    Parallel-tier rows (those recording ``workers``) only gate when the
    measuring host has at least that many cores; below that the pool cannot
    physically deliver a speedup and the row is informational.
    """
    rows = run_bench()
    floors = perf_floors()
    for row in rows:
        floor = floors.get(row["flow"])
        if floor is None:
            continue
        if row.get("cores", 1) < row.get("workers", 1):
            continue
        assert row["speedup"] >= floor, row


if __name__ == "__main__":
    run_bench()
