"""Unit tests for K-means and the dual-level clustering of Section III-B."""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.clustering import KMeans, dual_level_clustering
from repro.clustering.kmeans import _LEAN_PAIRS, KMeansResult
from repro.designs import load_design, random_sink_cloud
from repro.flow import BackendSelection, CtsConfig, DoubleSideCTS
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("n_clusters", [1, 3])
    def test_non_finite_point_rejected(self, value, axis, n_clusters):
        pts = blob_points()
        pts[7, axis] = value
        pts[9, 1 - axis] = value
        with pytest.raises(ValueError, match=r"^points must be finite: row 7 is"):
            KMeans(n_clusters=n_clusters).fit(pts)

    def test_flow_names_a_non_finite_sink(self, pdk):
        """Unguarded, a NaN sink coordinate stops the flow with the fit's
        one-line error instead of numpy's K-means++ probability error."""
        net = random_sink_cloud(300)
        sink = net.sinks[42]
        net.sinks[42] = ClockSink(sink.name, Point(math.nan, sink.location.y))
        config = CtsConfig(backends=BackendSelection(guard="off"))
        with pytest.raises(ValueError, match="points must be finite: row 42 is"):
            DoubleSideCTS(pdk, config).run(net)

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


def exact_distances(pts, centroids):
    """``(x - cx)**2 + (y - cy)**2`` for every (point, centroid) pair."""
    return (pts[:, :1] - centroids[:, 0]) ** 2 + (pts[:, 1:] - centroids[:, 1]) ** 2


def expansion_distances(pts, centroids):
    """The ``|x|^2 + |c|^2 - 2 x.c`` BLAS expansion ``fit`` used to assign with."""
    point_norms = np.einsum("ij,ij->i", pts, pts)
    centroid_norms = np.einsum("ij,ij->i", centroids, centroids)
    distances = point_norms[:, None] + centroid_norms[None, :]
    distances -= 2.0 * (pts @ centroids.T)
    np.maximum(distances, 0.0, out=distances)
    return distances


def reference_fit(
    model: KMeans, points, distances_of=exact_distances, trace=None
) -> KMeansResult:
    """Lloyd's algorithm with one ``.mean`` per cluster (the executable spec).

    Every iteration evaluates the full (n, k) matrix of exact per-element
    distances.  ``trace``, when given, collects the iterations whose update
    emptied a cluster (``"reseeds"``) and whether the loop converged.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    k = min(model.n_clusters, n)
    rng = np.random.default_rng(model.seed)
    centroids = KMeans._kmeanspp_init(pts, k, rng)
    labels = np.zeros(n, dtype=int)
    iterations, reseeds, converged = 0, [], False
    for iterations in range(1, model.max_iterations + 1):
        distances = distances_of(pts, centroids)
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
        if (counts == 0).any():
            reseeds.append(iterations)
        shift = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        if shift < model.tolerance:
            converged = True
            break
    if trace is not None:
        trace.update(reseeds=reseeds, converged=converged)
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


def legacy_fit(model: KMeans, points) -> KMeansResult:
    """The Lloyd loop before exact per-element distances (BLAS expansion)."""
    return reference_fit(model, points, distances_of=expansion_distances)


def legacy_kmeanspp_init(points, k, rng):
    """K-means++ seeding as it was computed on ``(n, 2)`` rows."""
    n = points.shape[0]
    centroids = np.empty((k, 2), dtype=float)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = float(closest.sum())
        if total <= 0:
            centroids[i:] = points[int(rng.integers(n))]
            break
        probs = closest / total
        choice = int(rng.choice(n, p=probs))
        centroids[i] = points[choice]
        closest = np.minimum(closest, np.sum((points - centroids[i]) ** 2, axis=1))
    return centroids


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


# ------------------------------------------------ bounded-Lloyd generators
# Sizes come from the seeded numpy generator, not from hypothesis, whose
# integer draws favour the low end: the bounded path needs n * k > 4096.
@st.composite
def clouds(draw):
    """Seeded uniform or blob clouds of up to a few hundred points."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = int(rng.integers(2, 401))
    extent = draw(st.sampled_from([1.0, 400.0, 5e4]))
    if draw(st.booleans()):
        return rng.uniform(-extent, extent, size=(n, 2))
    centres = rng.uniform(-extent, extent, size=(draw(st.integers(1, 12)), 2))
    spread = extent * draw(st.sampled_from([1e-3, 0.02, 0.2]))
    return centres[rng.integers(len(centres), size=n)] + rng.normal(0, spread, (n, 2))


@st.composite
def mirrored(draw):
    """Two seed points plus grid points mirrored about their bisector, so
    distances to centroids placed symmetrically tie exactly."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    half = int(rng.integers(1, 201))
    axis = draw(st.integers(-50, 50)) / 2
    pts = rng.integers(-100, 100, size=(half, 2)).astype(float)
    twins = np.column_stack((2 * axis - pts[:, 0], pts[:, 1]))
    seeds = np.array([[axis - 7.0, 3.0], [axis + 7.0, 3.0]])
    stacked = np.vstack((seeds, pts, twins))
    return stacked[rng.permutation(len(stacked))] * draw(st.sampled_from([1.0, 0.1]))


@st.composite
def offset(draw):
    """A small cloud far from the origin: 1e6 plus a spread of 1e-3 to 10."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = int(rng.integers(2, 301))
    spread = draw(st.sampled_from([1e-3, 0.5, 10.0]))
    return 1e6 + rng.normal(0.0, spread, size=(n, 2))


@st.composite
def duplicates(draw):
    """A few distinct locations repeated many times: K-means++ runs out of
    distinct seeds and repeats centroids, so clusters empty and reseed."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = int(rng.integers(2, 401))
    sites = rng.uniform(0, 100, size=(draw(st.integers(1, 6)), 2))
    return sites[rng.integers(len(sites), size=n)]


def lloyd_path(model: KMeans, points, trace) -> str:
    """Name the Lloyd path a fit takes, for hypothesis statistics."""
    n = len(points)
    k = min(model.n_clusters, n)
    path = "bounded" if k > 1 and n * k > _LEAN_PAIRS else "lean"
    reseeds = trace["reseeds"]
    if 1 in reseeds:
        path += " reseed at iteration 1"
    if reseeds and max(reseeds) > 1:
        path += " reseed after iteration 1"
    if not trace["converged"]:
        path += " exhausted"
    return path


def flow_sized_model(n, target=30, seed=7):
    """The low-level fit ``dual_level_clustering`` makes of ``n`` sinks."""
    count = math.ceil(n / target)
    max_size = max(target, math.ceil(n / count) + 1)
    return KMeans(n_clusters=count, seed=seed, max_cluster_size=max_size)


def uniform_cloud(n, seed):
    return np.random.default_rng(seed).uniform(0, 400, size=(n, 2))


def reseeding_duplicates(n=300, sites=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 100, size=(sites, 2))[rng.integers(sites, size=n)]


#: Deterministic fits that reach each Lloyd path of ``KMeans.fit``, keyed
#: by the parts of their ``lloyd_path`` name: the assignment (bounds or
#: none), the reseed of iteration 1 (every row evaluated) or of a later one
#: (a bounded fit evaluates the full matrix again), and an exhausted loop.
PATH_FITS = {
    ("lean",): (KMeans(n_clusters=4, seed=1), blob_points()),
    ("lean", "reseed at iteration 1", "reseed after iteration 1"): (
        KMeans(n_clusters=6, seed=4),
        np.array([[0.0, 0.0]] * 5 + [[1.5, 2.5]] * 5),
    ),
    ("lean", "exhausted"): (
        KMeans(n_clusters=3, max_iterations=1, seed=2),
        blob_points(),
    ),
    ("bounded",): (KMeans(n_clusters=40, seed=3), uniform_cloud(400, 3)),
    ("bounded", "exhausted"): (
        KMeans(n_clusters=40, max_iterations=3, seed=3),
        uniform_cloud(400, 3),
    ),
    ("bounded", "reseed at iteration 1", "reseed after iteration 1"): (
        KMeans(n_clusters=20, seed=5),
        reseeding_duplicates(),
    ),
}


class TestBoundedLloyd:
    """Every Lloyd path of ``KMeans.fit`` equals the full exact-difference
    Lloyd (``reference_fit``) bit for bit, and the bounds do prune."""

    @settings(deadline=None)
    @given(
        points=st.one_of(point_sets(), clouds(), mirrored(), offset(), duplicates()),
        n_clusters=st.sampled_from(range(1, 41)),
        seed=st.integers(min_value=0, max_value=2**16),
        max_iterations=st.one_of(st.just(50), st.integers(min_value=1, max_value=3)),
        slack=st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
    )
    def test_fit_matches_spec(self, points, n_clusters, seed, max_iterations, slack):
        max_size = None
        if slack is not None:
            max_size = math.ceil(len(points) / min(n_clusters, len(points))) + slack
        model = KMeans(
            n_clusters=n_clusters,
            max_iterations=max_iterations,
            seed=seed,
            max_cluster_size=max_size,
        )
        trace = {}
        want = reference_fit(model, points, trace=trace)
        event(lloyd_path(model, points, trace))
        assert_fits_identical(model.fit(points), want)

    @pytest.mark.parametrize("parts", PATH_FITS, ids=" / ".join)
    def test_every_path_is_reached_and_matches_spec(self, parts):
        model, points = PATH_FITS[parts]
        trace = {}
        want = reference_fit(model, points, trace=trace)
        path = lloyd_path(model, points, trace)
        assert path.startswith(parts[0])
        assert all(part in path for part in parts[1:])
        got = model.fit(points)
        assert_fits_identical(got, want)
        if parts == ("bounded",):
            assert got.distance_rows < len(points) * got.iterations

    @settings(deadline=None)
    @given(
        points=st.one_of(point_sets(), clouds(), offset(), duplicates()),
        k=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_kmeanspp_init_matches_row_formula(self, points, k, seed):
        """Column-wise seeding returns the row formula's centroids bit for
        bit and leaves the generator in the same state."""
        k = min(k, len(points))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = KMeans._kmeanspp_init(points, k, got_rng)
        want = legacy_kmeanspp_init(points, k, want_rng)
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_bounds_prune_a_flow_sized_fit(self):
        """A 3000-point, k = 100 fit (a high cluster split into low ones)
        evaluates at most a third of its rows and equals the spec."""
        points = uniform_cloud(3000, 11)
        model = flow_sized_model(len(points))
        assert model.n_clusters == 100
        got = model.fit(points)
        assert got.distance_rows <= len(points) * got.iterations / 3
        assert_fits_identical(got, reference_fit(model, points))

    def test_lean_fit_evaluates_every_row(self):
        got = KMeans(n_clusters=2, seed=0).fit(uniform_cloud(31, 0))
        assert got.distance_rows == 31 * got.iterations

    @pytest.mark.parametrize(
        "placement", ["C1", "C2", "C3", "C4", "C5", (300, 1), (900, 2), (2000, 3)]
    )
    def test_continuous_placements_keep_their_legacy_labels(self, placement):
        """On Table II placements (at scale 0.1) and sink clouds, the
        exact-difference formula assigns like the BLAS expansion it replaced,
        so the flow's fits stay put (grids, which tie exactly, are left out)."""
        if isinstance(placement, tuple):
            count, seed = placement
            sinks = random_sink_cloud(count, seed=seed).sinks
        else:
            design = load_design(placement, scale=0.1, include_combinational=False)
            sinks = design.require_clock_net().sinks
        points = np.array([[s.location.x, s.location.y] for s in sinks])
        for model in (flow_sized_model(len(points)), KMeans(n_clusters=2, seed=3)):
            got, want = model.fit(points), legacy_fit(model, points)
            assert np.array_equal(got.labels, want.labels)
            assert got.centroids.tobytes() == want.centroids.tobytes()


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
