"""Unit tests for K-means and the dual-level clustering of Section III-B."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import KMeans, dual_level_clustering
from repro.clustering.kmeans import KMeansResult
from repro.geometry import Point
from repro.netlist import ClockSink


def blob_points(seed=0, clusters=4, per_cluster=50, spread=2.0, pitch=100.0):
    rng = np.random.default_rng(seed)
    points = []
    for i in range(clusters):
        cx, cy = (i % 2) * pitch, (i // 2) * pitch
        points.append(rng.normal([cx, cy], spread, size=(per_cluster, 2)))
    return np.vstack(points)


class TestKMeans:
    def test_recovers_well_separated_blobs(self):
        pts = blob_points()
        result = KMeans(n_clusters=4, seed=1).fit(pts)
        assert result.cluster_count == 4
        sizes = result.cluster_sizes()
        assert sorted(sizes.tolist()) == [50, 50, 50, 50]

    def test_deterministic_for_fixed_seed(self):
        pts = blob_points(seed=3)
        a = KMeans(n_clusters=4, seed=9).fit(pts)
        b = KMeans(n_clusters=4, seed=9).fit(pts)
        assert np.array_equal(a.labels, b.labels)
        assert np.allclose(a.centroids, b.centroids)

    def test_more_clusters_than_points_degrades_gracefully(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        result = KMeans(n_clusters=10, seed=0).fit(pts)
        assert result.cluster_count == 2

    def test_single_cluster(self):
        pts = blob_points(clusters=1)
        result = KMeans(n_clusters=1, seed=0).fit(pts)
        assert result.cluster_count == 1
        assert result.cluster_sizes()[0] == len(pts)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=2).fit(np.empty((0, 2)))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=2).fit(np.zeros((5, 3)))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=0)
        with pytest.raises(ValueError):
            KMeans(n_clusters=2, max_iterations=0)

    def test_max_cluster_size_respected(self):
        pts = blob_points(per_cluster=40)
        result = KMeans(n_clusters=8, seed=5, max_cluster_size=25).fit(pts)
        assert int(result.cluster_sizes().max()) <= 25

    def test_max_cluster_size_infeasible_rejected(self):
        pts = blob_points(per_cluster=40)
        with pytest.raises(ValueError):
            KMeans(n_clusters=2, seed=5, max_cluster_size=10).fit(pts)

    def test_inertia_decreases_with_more_clusters(self):
        pts = blob_points()
        few = KMeans(n_clusters=2, seed=0).fit(pts)
        many = KMeans(n_clusters=8, seed=0).fit(pts)
        assert many.inertia < few.inertia

    def test_members_partition_all_points(self):
        pts = blob_points()
        result = KMeans(n_clusters=4, seed=0).fit(pts)
        all_members = np.concatenate(
            [result.members(c) for c in range(result.cluster_count)]
        )
        assert sorted(all_members.tolist()) == list(range(len(pts)))


# ------------------------------------------------- per-cluster reference
def reference_balance(points, centroids, labels, max_size):
    """The greedy balancing loop over every point (the test oracle)."""
    k = centroids.shape[0]
    n = points.shape[0]
    labels = labels.copy()
    sizes = np.bincount(labels, minlength=k)
    distances = KMeans._distances(points, centroids)
    order = np.argsort(distances[np.arange(n), labels])[::-1]
    for idx in order:
        cluster = labels[idx]
        if sizes[cluster] <= max_size:
            continue
        for candidate in np.argsort(distances[idx]):
            if candidate == cluster:
                continue
            if sizes[candidate] < max_size:
                labels[idx] = candidate
                sizes[cluster] -= 1
                sizes[candidate] += 1
                break
    return labels


def reference_fit(model: KMeans, points) -> KMeansResult:
    """Lloyd's algorithm with one ``.mean`` per cluster (the test oracle)."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    k = min(model.n_clusters, n)
    rng = np.random.default_rng(model.seed)
    centroids = KMeans._kmeanspp_init(pts, k, rng)
    point_norms = np.einsum("ij,ij->i", pts, pts)
    labels = np.zeros(n, dtype=int)
    iterations = 0
    for iterations in range(1, model.max_iterations + 1):
        centroid_norms = np.einsum("ij,ij->i", centroids, centroids)
        distances = point_norms[:, None] + centroid_norms[None, :]
        distances -= 2.0 * (pts @ centroids.T)
        np.maximum(distances, 0.0, out=distances)
        labels = np.argmin(distances, axis=1)
        new_centroids = centroids.copy()
        order = np.argsort(labels, kind="stable")
        grouped = pts[order]
        counts = np.bincount(labels, minlength=k)
        stops = np.cumsum(counts)
        for cluster in range(k):
            stop = stops[cluster]
            if counts[cluster] > 0:
                new_centroids[cluster] = grouped[stop - counts[cluster] : stop].mean(
                    axis=0
                )
            else:
                farthest = int(np.argmax(np.min(distances, axis=1)))
                new_centroids[cluster] = pts[farthest]
        shift = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        if shift < model.tolerance:
            break
    if model.max_cluster_size is not None:
        labels = reference_balance(pts, centroids, labels, model.max_cluster_size)
        recomputed = centroids.copy()
        for cluster in range(k):
            members = pts[labels == cluster]
            if len(members) > 0:
                recomputed[cluster] = members.mean(axis=0)
        centroids = recomputed
    inertia = float(np.sum((pts - centroids[labels]) ** 2))
    return KMeansResult(labels, centroids, inertia, iterations)


def assert_fits_identical(got: KMeansResult, want: KMeansResult) -> None:
    assert np.array_equal(got.labels, want.labels)
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.inertia == want.inertia
    assert got.iterations == want.iterations


@st.composite
def point_sets(draw):
    """(n, 2) point sets: coarse grids full of duplicates, or free floats."""
    n = draw(st.integers(min_value=1, max_value=80))
    if draw(st.booleans()):
        grid = draw(st.integers(min_value=1, max_value=6))
        scale = draw(st.sampled_from([0.37, 1.0, 12.5, 1e3]))
        coords = draw(
            st.lists(st.integers(0, grid), min_size=2 * n, max_size=2 * n)
        )
        return np.asarray(coords, float).reshape(n, 2) * scale
    coords = draw(
        st.lists(
            st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
            min_size=2 * n,
            max_size=2 * n,
        )
    )
    return np.asarray(coords, float).reshape(n, 2)


class TestLloydUpdateParity:
    """``KMeans.fit`` (one bincount pass per iteration) equals the
    per-cluster ``.mean`` loop bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        points=point_sets(),
        n_clusters=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**16),
        slack=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    )
    def test_fit_matches_per_cluster_loop(self, points, n_clusters, seed, slack):
        max_size = None
        if slack is not None:
            k = min(n_clusters, len(points))
            max_size = math.ceil(len(points) / k) + slack
        model = KMeans(n_clusters=n_clusters, seed=seed, max_cluster_size=max_size)
        assert_fits_identical(model.fit(points), reference_fit(model, points))

    @pytest.mark.parametrize("max_cluster_size", [None, 3])
    def test_empty_clusters_reseed_like_reference(self, max_cluster_size):
        """Two distinct points, six clusters: k-means++ duplicates
        centroids, so clusters go empty and the reseed runs."""
        pts = np.array([[0.0, 0.0]] * 5 + [[1.5, 2.5]] * 5)
        model = KMeans(n_clusters=6, seed=4, max_cluster_size=max_cluster_size)
        result = model.fit(pts)
        if max_cluster_size is None:
            assert (result.cluster_sizes() == 0).any()
        assert_fits_identical(result, reference_fit(model, pts))

    @settings(max_examples=100, deadline=None)
    @given(
        points=point_sets(),
        k=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**16),
        slack=st.integers(min_value=0, max_value=2),
    )
    def test_balance_matches_full_loop(self, points, k, seed, slack):
        """Visiting only members of overfull clusters moves the same points."""
        rng = np.random.default_rng(seed)
        k = min(k, len(points))
        centroids = points[rng.choice(len(points), size=k, replace=False)]
        labels = rng.integers(0, k, len(points))
        max_size = math.ceil(len(points) / k) + slack
        got = KMeans._balance(points, centroids, labels, max_size)
        want = reference_balance(points, centroids, labels, max_size)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_groups_match_members(self):
        result = KMeans(n_clusters=7, seed=3).fit(blob_points(per_cluster=20))
        groups = result.groups()
        assert len(groups) == result.cluster_count
        for cluster, group in enumerate(groups):
            assert np.array_equal(group, result.members(cluster))


def make_sinks(count, extent=200.0, seed=0):
    rng = np.random.default_rng(seed)
    return [
        ClockSink(
            f"ff_{i}",
            Point(float(rng.uniform(0, extent)), float(rng.uniform(0, extent))),
            0.8,
        )
        for i in range(count)
    ]


class TestDualLevelClustering:
    def test_partition_covers_every_sink(self):
        sinks = make_sinks(400)
        clustering = dual_level_clustering(sinks, high_size=200, low_size=20, seed=1)
        assert clustering.sink_count == 400
        names = [s.name for c in clustering.low_clusters for s in c.sinks]
        assert sorted(names) == sorted(s.name for s in sinks)

    def test_cluster_counts_match_targets(self):
        sinks = make_sinks(600)
        clustering = dual_level_clustering(sinks, high_size=200, low_size=30, seed=1)
        assert len(clustering.high_clusters) == 3
        assert len(clustering.low_clusters) >= 600 // 30

    def test_low_cluster_sizes_near_target(self):
        sinks = make_sinks(300)
        clustering = dual_level_clustering(sinks, high_size=300, low_size=30, seed=2)
        assert max(c.size for c in clustering.low_clusters) <= 32

    def test_low_clusters_point_to_existing_high_cluster(self):
        sinks = make_sinks(250)
        clustering = dual_level_clustering(sinks, high_size=100, low_size=10, seed=3)
        high_indices = {c.index for c in clustering.high_clusters}
        assert all(c.parent_index in high_indices for c in clustering.low_clusters)

    def test_centroid_is_mean_of_members(self):
        sinks = make_sinks(60)
        clustering = dual_level_clustering(sinks, high_size=60, low_size=60, seed=4)
        cluster = clustering.low_clusters[0]
        mean_x = sum(s.location.x for s in cluster.sinks) / cluster.size
        assert cluster.centroid.x == pytest.approx(mean_x)

    def test_single_sink(self):
        clustering = dual_level_clustering([ClockSink("ff", Point(1, 1), 1.0)])
        assert len(clustering.high_clusters) == 1
        assert len(clustering.low_clusters) == 1
        assert clustering.low_clusters[0].size == 1

    def test_small_design_uses_paper_defaults(self):
        sinks = make_sinks(100)
        clustering = dual_level_clustering(sinks)  # Hc=3000, Lc=30
        assert len(clustering.high_clusters) == 1
        assert 3 <= len(clustering.low_clusters) <= 5

    def test_invalid_arguments_rejected(self):
        sinks = make_sinks(10)
        with pytest.raises(ValueError):
            dual_level_clustering([], high_size=10, low_size=5)
        with pytest.raises(ValueError):
            dual_level_clustering(sinks, high_size=10, low_size=20)
        with pytest.raises(ValueError):
            dual_level_clustering(sinks, high_size=0, low_size=0)

    def test_total_capacitance_and_wirelength(self):
        sinks = make_sinks(50)
        clustering = dual_level_clustering(sinks, high_size=50, low_size=10, seed=5)
        total_cap = sum(c.total_capacitance for c in clustering.low_clusters)
        assert total_cap == pytest.approx(sum(s.capacitance for s in sinks))
        assert clustering.total_leaf_wirelength() > 0

    def test_deterministic(self):
        sinks = make_sinks(200)
        a = dual_level_clustering(sinks, high_size=100, low_size=10, seed=11)
        b = dual_level_clustering(sinks, high_size=100, low_size=10, seed=11)
        assert [c.size for c in a.low_clusters] == [c.size for c in b.low_clusters]
