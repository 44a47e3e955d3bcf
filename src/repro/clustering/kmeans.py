"""A small, deterministic K-means implementation on top of numpy.

The clustering quality requirements of clock routing are modest (the paper
uses vanilla K-means), but determinism matters for reproducible benchmarks,
so the implementation seeds its own random generator and uses K-means++
initialisation.  An optional capacity balancing pass caps the maximum cluster
size, which keeps low-level clusters close to the target size ``Lc``.

Each Lloyd iteration updates all centroids in one pass: ``np.bincount``
sums every cluster's member coordinates (weights ``x`` and ``y``) and
divides by the member counts.  ``bincount`` adds each cluster's members in
their original point order starting from 0.0, which is exactly what the
per-cluster ``points[labels == c].mean(axis=0)`` does on a C-contiguous
``(m, 2)`` block (numpy sums pairwise only along the fast axis), so the
centroids are bit-identical to the per-cluster loop.  The ``(n, k)``
distance matrix of the assignment step is the remaining arithmetic floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class KMeansResult:
    """Result of a K-means run.

    Attributes:
        labels: array of shape (n,) with the cluster index of every point.
        centroids: array of shape (k, 2) with the final cluster centroids.
        inertia: sum of squared distances of points to their centroid.
        iterations: number of Lloyd iterations executed.
    """

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int

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
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
        n = pts.shape[0]
        if n == 0:
            raise ValueError("cannot cluster an empty point set")
        k = min(self.n_clusters, n)

        rng = np.random.default_rng(self.seed)
        centroids = self._kmeanspp_init(pts, k, rng)

        # The point-norm term of the distance expansion is loop-invariant.
        point_norms = np.einsum("ij,ij->i", pts, pts)
        labels = np.zeros(n, dtype=int)
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            centroid_norms = np.einsum("ij,ij->i", centroids, centroids)
            distances = point_norms[:, None] + centroid_norms[None, :]
            distances -= 2.0 * (pts @ centroids.T)
            np.maximum(distances, 0.0, out=distances)
            labels = np.argmin(distances, axis=1)
            new_centroids, empty = self._cluster_means(pts, labels, k, centroids)
            if empty.any():
                # Re-seed empty clusters at the point farthest from its centroid.
                farthest = int(np.argmax(np.min(distances, axis=1)))
                new_centroids[empty] = pts[farthest]
            shift = float(np.max(np.abs(new_centroids - centroids)))
            centroids = new_centroids
            if shift < self.tolerance:
                break

        if self.max_cluster_size is not None:
            labels = self._balance(pts, centroids, labels, self.max_cluster_size)
            centroids, _ = self._cluster_means(pts, labels, k, centroids)

        inertia = float(
            np.sum((pts - centroids[labels]) ** 2)
        )
        return KMeansResult(
            labels=labels, centroids=centroids, inertia=inertia, iterations=iterations
        )

    # ------------------------------------------------------------- internals
    @staticmethod
    def _distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        """Squared Euclidean distances, shape (n, k).

        Uses the ``|x|^2 + |c|^2 - 2 x.c`` expansion instead of broadcasting
        an (n, k, 2) difference tensor: peak memory drops from O(n*k*2) to
        O(n*k) and the inner product runs through BLAS, which is the
        difference between seconds and minutes on large clustering runs.
        Values are clamped at zero because cancellation can produce tiny
        negative distances for points that coincide with a centroid.
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

    @staticmethod
    def _cluster_means(
        points: np.ndarray, labels: np.ndarray, k: int, fallback: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Member means of every cluster, and the mask of empty clusters.

        Empty clusters keep their ``fallback`` row.  Bit-identical to
        ``points[labels == c].mean(axis=0)`` per cluster (see the module
        docstring).
        """
        counts = np.bincount(labels, minlength=k)
        filled = counts > 0
        centroids = fallback.copy()
        for axis in (0, 1):
            sums = np.bincount(labels, weights=points[:, axis], minlength=k)
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
