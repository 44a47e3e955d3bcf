"""A small, deterministic K-means implementation on top of numpy.

The clustering quality requirements of clock routing are modest (the paper
uses vanilla K-means), but determinism matters for reproducible benchmarks,
so the implementation seeds its own random generator and uses K-means++
initialisation.  An optional capacity balancing pass caps the maximum cluster
size, which keeps low-level clusters close to the target size ``Lc``.

Lloyd's assignment and the K-means++ seeding compute every squared distance
per element as ``(x - cx)**2 + (y - cy)**2``: two subtractions, two squares
and one addition, with no clamp.  Each element is therefore the same float
whichever subset of rows is evaluated, which the ``|x|^2 + |c|^2 - 2 x.c``
expansion through BLAS does not promise (only ``_balance`` still uses that
expansion).  The seeding works on the x and y columns; its two squares and
one addition per element are exactly what the row formula
``np.sum((points - c) ** 2, axis=1)`` computes, so the two seed alike.

Each Lloyd iteration updates all centroids in one pass: ``np.bincount``
sums every cluster's member coordinates (weights ``x`` and ``y``) and
divides by the member counts.  ``bincount`` adds each cluster's members in
their original point order starting from 0.0, which is exactly what the
per-cluster ``points[labels == c].mean(axis=0)`` does on a C-contiguous
``(m, 2)`` block (numpy sums pairwise only along the fast axis), so the
centroids are bit-identical to the per-cluster loop.

The assignment skips every row whose label provably cannot change (G.
Hamerly, "Making k-means even faster", SDM 2010).  Iteration 1 evaluates
every row.  Each point keeps an upper bound ``u`` on its Euclidean distance
to its own centroid and a lower bound ``l`` on its distance to every other
centroid, and each iteration gives each centroid ``s``, half the distance
to its nearest other centroid.  A point with ``u < max(s[own], l)`` keeps
its label; otherwise ``u`` is recomputed exactly and, if the test still
fails, the point's full row is evaluated.  After the centroid update ``u``
grows by its own centroid's move and ``l`` shrinks by the largest move
among the other centroids.  Every bound is padded outward (``u`` and the
moves up, ``l`` and ``s`` down) by ``1e-9 * (max|coordinate| + 1)``
whenever it is set or moved.  That is orders of magnitude more than the few
ulp a float squared distance carries and the few ulp of the coordinate scale
each iteration of bound updates adds (~10^2 over fifty iterations), so a
skipped point is strictly nearer its own centroid than any other, and its
float row has a unique minimum at its label.  An iteration whose update empties a cluster
evaluates the full matrix, because the reseed reads every point's minimum
distance.  The bounded fit therefore equals the full exact-difference Lloyd
(the executable spec kept in ``tests/test_clustering.py``) in labels,
centroid bytes, inertia and iteration count, by construction, for finite
coordinates, which ``fit`` checks.  Fits with one cluster or at most
``_LEAN_PAIRS`` point-centroid pairs keep no bounds and evaluate every row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Fits with at most this many point-centroid pairs keep no bounds and
#: evaluate every row in every iteration: on the two-way bisections of ~30
#: points that dominate a flow's fits, the bound bookkeeping costs more
#: numpy calls than the rows it would skip.
_LEAN_PAIRS = 4096

#: Rounding margin of the bounds, per unit of ``max|coordinate| + 1``.
_MARGIN = 1e-9


@dataclass
class KMeansResult:
    """Result of a K-means run.

    Attributes:
        labels: array of shape (n,) with the cluster index of every point.
        centroids: array of shape (k, 2) with the final cluster centroids.
        inertia: sum of squared distances of points to their centroid.
        iterations: number of Lloyd iterations executed.
        distance_rows: number of full point-to-centroid distance rows the
            Lloyd iterations evaluated (at most ``n * iterations`` plus ``n``
            per cluster-emptying iteration).
    """

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int
    distance_rows: int = 0

    @property
    def cluster_count(self) -> int:
        return int(self.centroids.shape[0])

    def cluster_sizes(self) -> np.ndarray:
        """Return the number of points assigned to each cluster."""
        return np.bincount(self.labels, minlength=self.cluster_count)

    def members(self, cluster: int) -> np.ndarray:
        """Indices of the points assigned to ``cluster``."""
        return np.flatnonzero(self.labels == cluster)

    def groups(self) -> list[np.ndarray]:
        """``members(c)`` of every cluster ``c``, grouped by one stable sort.

        Each entry holds the same ascending indices ``members`` returns,
        without a scan over every label per cluster.
        """
        order = np.argsort(self.labels, kind="stable")
        return np.split(order, np.cumsum(self.cluster_sizes())[:-1])


class KMeans:
    """Lloyd's algorithm with K-means++ seeding and optional size capping."""

    def __init__(
        self,
        n_clusters: int,
        max_iterations: int = 50,
        seed: int = 2025,
        max_cluster_size: int | None = None,
        tolerance: float = 1e-4,
    ) -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be at least 1")
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.n_clusters = n_clusters
        self.max_iterations = max_iterations
        self.seed = seed
        self.max_cluster_size = max_cluster_size
        self.tolerance = tolerance

    # ------------------------------------------------------------------ fit
    def fit(self, points: np.ndarray) -> KMeansResult:
        """Cluster ``points`` of shape (n, 2) and return a :class:`KMeansResult`."""
        pts = np.ascontiguousarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
        n = pts.shape[0]
        if n == 0:
            raise ValueError("cannot cluster an empty point set")
        if not np.isfinite(pts).all():
            row = int(np.flatnonzero(~np.isfinite(pts).all(axis=1))[0])
            raise ValueError(
                f"points must be finite: row {row} is {tuple(pts[row].tolist())}"
            )
        k = min(self.n_clusters, n)

        rng = np.random.default_rng(self.seed)
        centroids = self._kmeanspp_init(pts, k, rng)
        xs, ys = pts.T.copy()
        labels, centroids, iterations, distance_rows = self._lloyd(xs, ys, centroids)

        if self.max_cluster_size is not None:
            labels = self._balance(pts, centroids, labels, self.max_cluster_size)
            centroids, _ = self._cluster_means(xs, ys, labels, centroids)

        inertia = float(
            np.sum((pts - centroids[labels]) ** 2)
        )
        return KMeansResult(
            labels=labels,
            centroids=centroids,
            inertia=inertia,
            iterations=iterations,
            distance_rows=distance_rows,
        )

    def _lloyd(
        self, xs: np.ndarray, ys: np.ndarray, centroids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Lloyd iterations from ``centroids`` over the point columns.

        Returns ``(labels, centroids, iterations, distance_rows)``.
        """
        n, k = xs.size, centroids.shape[0]
        labels = np.zeros(n, dtype=np.intp)
        # Row buffers for the whole fit; each pass fills the rows it needs.
        block, scratch = np.empty((n, k)), np.empty((n, k))
        bounds = None
        if k > 1 and n * k > _LEAN_PAIRS:
            scale = max(float(np.abs(xs).max()), float(np.abs(ys).max()))
            bounds = _Bounds(n, _MARGIN * (scale + 1.0))
        distance_rows = iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            cx, cy = centroids.T.copy()
            every = bounds is None or iterations == 1
            rows = slice(None) if every else bounds.unsettled(xs, ys, cx, cy, labels)
            distances = _squared_distances(xs[rows], ys[rows], cx, cy, block, scratch)
            distance_rows += distances.shape[0]
            if bounds is None:
                distances.argmin(axis=1, out=labels)
            else:
                labels[rows] = bounds.reset(rows, distances)
            new_centroids, empty = self._cluster_means(xs, ys, labels, centroids)
            if empty.any():
                # Re-seed empty clusters at the point farthest from its
                # centroid, which reads every row's minimum.
                if not every:
                    distances = _squared_distances(xs, ys, cx, cy, block, scratch)
                    distance_rows += n
                farthest = int(np.argmax(distances.min(axis=1)))
                new_centroids[empty] = (xs[farthest], ys[farthest])
            moves = new_centroids - centroids
            centroids = new_centroids
            if float(np.max(np.abs(moves))) < self.tolerance:
                break
            if bounds is not None:
                bounds.move(moves, labels)
        return labels, centroids, iterations, distance_rows

    # ------------------------------------------------------------- internals
    @staticmethod
    def _distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        """Squared Euclidean distances, shape (n, k), for ``_balance`` only.

        Uses the ``|x|^2 + |c|^2 - 2 x.c`` expansion instead of broadcasting
        an (n, k, 2) difference tensor: peak memory drops from O(n*k*2) to
        O(n*k) and the inner product runs through BLAS.  Values are clamped
        at zero because cancellation can produce tiny negative distances for
        points that coincide with a centroid.  Lloyd's assignment and the
        seeding use exact per-element differences instead (see the module
        docstring).
        """
        point_norms = np.einsum("ij,ij->i", points, points)
        centroid_norms = np.einsum("ij,ij->i", centroids, centroids)
        distances = point_norms[:, None] + centroid_norms[None, :]
        distances -= 2.0 * (points @ centroids.T)
        np.maximum(distances, 0.0, out=distances)
        return distances

    @staticmethod
    def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
        """K-means++ initial centroid selection."""
        n = points.shape[0]
        xs, ys = points.T.copy()
        centroids = np.empty((k, 2), dtype=float)
        first = int(rng.integers(n))
        centroids[0] = points[first]
        closest = (xs - xs[first]) ** 2 + (ys - ys[first]) ** 2
        gap, scratch = np.empty(n), np.empty(n)
        for i in range(1, k):
            total = float(closest.sum())
            if total <= 0:
                centroids[i:] = points[int(rng.integers(n))]
                break
            choice = int(rng.choice(n, p=closest / total))
            centroids[i] = points[choice]
            np.subtract(xs, xs[choice], out=gap)
            np.square(gap, out=gap)
            np.subtract(ys, ys[choice], out=scratch)
            np.square(scratch, out=scratch)
            gap += scratch
            np.minimum(closest, gap, out=closest)
        return centroids

    @staticmethod
    def _cluster_means(
        xs: np.ndarray, ys: np.ndarray, labels: np.ndarray, fallback: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Member means of every cluster, and the mask of empty clusters.

        Empty clusters keep their ``fallback`` row.  Bit-identical to
        ``points[labels == c].mean(axis=0)`` per cluster (see the module
        docstring).
        """
        k = fallback.shape[0]
        counts = np.bincount(labels, minlength=k)
        filled = counts > 0
        centroids = fallback.copy()
        for axis, column in enumerate((xs, ys)):
            sums = np.bincount(labels, weights=column, minlength=k)
            centroids[filled, axis] = sums[filled] / counts[filled]
        return centroids, ~filled

    @staticmethod
    def _balance(
        points: np.ndarray,
        centroids: np.ndarray,
        labels: np.ndarray,
        max_size: int,
    ) -> np.ndarray:
        """Greedy reassignment so that no cluster exceeds ``max_size`` points.

        Overfull clusters evict their farthest members, which move to the
        nearest cluster that still has room.  Guaranteed to terminate because
        ``max_size * k >= n`` is enforced by the caller.
        """
        k = centroids.shape[0]
        n = points.shape[0]
        if max_size * k < n:
            raise ValueError(
                f"cannot balance {n} points into {k} clusters of at most {max_size}"
            )
        labels = labels.copy()
        counts = np.bincount(labels, minlength=k)
        distances = KMeans._distances(points, centroids)
        order = np.argsort(distances[np.arange(n), labels])[::-1]
        # Moves only go to clusters below the cap, so a cluster that starts
        # at or under it never exceeds it: only members of initially
        # overfull clusters can move, and the rest are skipped up front.
        order = order[(counts > max_size)[labels[order]]]
        sizes = counts.tolist()
        for idx in order.tolist():
            cluster = int(labels[idx])
            if sizes[cluster] <= max_size:
                continue
            # Move to the nearest non-full cluster.
            for candidate in np.argsort(distances[idx]).tolist():
                if candidate == cluster:
                    continue
                if sizes[candidate] < max_size:
                    labels[idx] = candidate
                    sizes[cluster] -= 1
                    sizes[candidate] += 1
                    break
        return labels


def _squared_distances(
    xs: np.ndarray,
    ys: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    block: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """``(x - cx)**2 + (y - cy)**2`` for every (point, centroid) pair.

    Written into the first ``len(xs)`` rows of ``block``, which the result
    views; the same rows of ``scratch`` are overwritten.
    """
    out, tmp = block[: xs.size], scratch[: xs.size]
    np.subtract(xs[:, None], cx, out=out)
    np.square(out, out=out)
    np.subtract(ys[:, None], cy, out=tmp)
    np.square(tmp, out=tmp)
    out += tmp
    return out


class _Bounds:
    """Hamerly's per-point distance bounds of one fit (module docstring).

    ``upper[i]`` is at least point ``i``'s Euclidean distance to its own
    centroid and ``lower[i]`` at most its distance to any other centroid;
    every value set or moved is padded outward by ``pad``.
    """

    def __init__(self, n: int, pad: float) -> None:
        self.pad = pad
        self.upper = np.empty(n)
        self.lower = np.empty(n)

    def unsettled(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        cx: np.ndarray,
        cy: np.ndarray,
        labels: np.ndarray,
    ) -> np.ndarray:
        """Rows whose label may change under the centroids ``(cx, cy)``."""
        k = cx.size
        gaps = _squared_distances(cx, cy, cx, cy, np.empty((k, k)), np.empty((k, k)))
        np.fill_diagonal(gaps, np.inf)
        half_gap = 0.5 * np.sqrt(gaps.min(axis=1)) - self.pad
        bound = np.maximum(half_gap[labels], self.lower)
        rows = np.flatnonzero(~(self.upper < bound))
        own = labels[rows]
        exact = (xs[rows] - cx[own]) ** 2 + (ys[rows] - cy[own]) ** 2
        upper = np.sqrt(exact) + self.pad
        self.upper[rows] = upper
        return rows[~(upper < bound[rows])]

    def reset(self, rows: np.ndarray | slice, distances: np.ndarray) -> np.ndarray:
        """Bound ``rows`` by their evaluated ``distances``; return their labels.

        ``distances`` holds the rows' squared distances and is left as given.
        """
        labels = distances.argmin(axis=1)
        picked = (np.arange(labels.size), labels)
        nearest = distances[picked]
        distances[picked] = np.inf
        second = distances.min(axis=1)
        distances[picked] = nearest
        self.upper[rows] = np.sqrt(nearest) + self.pad
        self.lower[rows] = np.sqrt(second) - self.pad
        return labels

    def move(self, moves: np.ndarray, labels: np.ndarray) -> None:
        """Widen the bounds by the centroid moves, an array of shape (k, 2)."""
        lengths = np.sqrt(moves[:, 0] ** 2 + moves[:, 1] ** 2) + self.pad
        fastest = int(np.argmax(lengths))
        runner_up = float(np.max(np.delete(lengths, fastest)))
        self.upper += lengths[labels]
        self.lower -= np.where(labels == fastest, runner_up, lengths[fastest])
