"""The benchmark flow cache: parallel warm-up must equal the lazy path.

``FlowCache.warm`` fans the independent base flows out over a process pool
the same way the DSE grid is parallelised; both the warm path and the lazy
path execute the same module-level flow functions on the same deterministic
inputs, so the cached results must be identical (runtime excepted — it is
wall-clock).
"""

from __future__ import annotations

import pytest

from benchmarks.flow_cache import FlowCache
from repro.designs import benchmark_suite
from repro.flow import BackendSelection, CtsConfig, DoubleSideCTS
from repro.insertion import InsertionMode
from repro.tech import asap7_backside

BENCH_IDS = ["C4"]
FLOWS = ("ours_moes", "single")


@pytest.fixture(scope="module")
def tiny_setup():
    pdk = asap7_backside()
    designs = benchmark_suite(scale=0.05, include_combinational=False, only=BENCH_IDS)
    config = CtsConfig(high_cluster_size=60, low_cluster_size=8)
    return pdk, designs, config


def comparable_row(metrics) -> dict:
    """A metrics row with the wall-clock runtime column dropped."""
    row = metrics.as_row()
    row.pop("runtime_s", None)
    return row


def tree_shape(tree) -> list[tuple]:
    return sorted(
        (
            node.name,
            node.kind.value,
            node.side.value,
            node.wire_side.value,
            node.parent.name if node.parent is not None else "",
        )
        for node in tree.nodes()
    )


class TestFlowCacheOurs:
    @pytest.mark.parametrize(
        "updates",
        [
            dict(backends=BackendSelection()),
            dict(
                backends=BackendSelection(
                    timing="reference", dp="reference", dme="reference"
                )
            ),
            dict(corners="tt,ss,ff", corner_aware_construction=True),
            dict(default_mode=InsertionMode.INTRA_SIDE),
        ],
        ids=["default", "all-reference", "corner-aware", "intra-side"],
    )
    def test_ours_matches_the_flow(self, tiny_setup, updates):
        """The cached "ours" run is the flow's run, whatever the backends,
        corners and default insertion mode."""
        pdk, designs, config = tiny_setup
        config = config.with_updates(**updates)
        cache = FlowCache(pdk=pdk, designs=designs, config=config)
        for bench_id in BENCH_IDS:
            flow = DoubleSideCTS(pdk, config).run(designs[bench_id])
            assert comparable_row(cache.ours(bench_id).metrics) == comparable_row(
                flow.metrics
            )


class TestFlowCacheWarm:
    def test_parallel_warm_matches_lazy_serial(self, tiny_setup):
        pdk, designs, config = tiny_setup
        warmed = FlowCache(pdk=pdk, designs=designs, config=config)
        computed = warmed.warm(flows=FLOWS, workers=2)
        assert computed == len(BENCH_IDS) * len(FLOWS)

        lazy = FlowCache(pdk=pdk, designs=designs, config=config)
        for bench_id in BENCH_IDS:
            warm_ours, lazy_ours = warmed.ours(bench_id), lazy.ours(bench_id)
            assert comparable_row(warm_ours.metrics) == comparable_row(
                lazy_ours.metrics
            )
            assert comparable_row(warm_ours.metrics_without_refinement) == (
                comparable_row(lazy_ours.metrics_without_refinement)
            )
            assert tree_shape(warm_ours.tree) == tree_shape(lazy_ours.tree)
            assert len(warm_ours.root_candidates) == len(lazy_ours.root_candidates)
            assert warm_ours.selected.max_delay == lazy_ours.selected.max_delay
            warm_single, lazy_single = warmed.single(bench_id), lazy.single(bench_id)
            assert comparable_row(warm_single.metrics) == comparable_row(
                lazy_single.metrics
            )
            assert tree_shape(warm_single.tree) == tree_shape(lazy_single.tree)

    def test_warm_skips_cached_pairs(self, tiny_setup):
        pdk, designs, config = tiny_setup
        cache = FlowCache(pdk=pdk, designs=designs, config=config)
        cache.ours("C4")  # lazily computed first
        computed = cache.warm(flows=("ours_moes",), workers=2)
        assert computed == 0
        # Serial fallback (workers=1) fills remaining pairs via the same path.
        assert cache.warm(flows=("single",), workers=1) == 1

    def test_warm_rejects_unknown_flow(self, tiny_setup):
        pdk, designs, config = tiny_setup
        cache = FlowCache(pdk=pdk, designs=designs, config=config)
        with pytest.raises(KeyError, match="unknown base flow"):
            cache.warm(flows=("bogus",), workers=1)
