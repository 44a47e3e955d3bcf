"""Sink clustering for hierarchical clock routing (Section III-B).

The paper clusters sinks at two levels with K-means: high-level clusters of
target size ``Hc = 3000`` and, within each of them, low-level clusters of
target size ``Lc = 30``.  The centroids of both levels become the skeleton of
the hierarchical DME routing.
"""

from repro.clustering.kmeans import KMeans, KMeansResult
from repro.clustering.dual_level import (
    Cluster,
    DualLevelClustering,
    dual_level_clustering,
    estimate_leaf_load,
    split_by_capacitance,
)

__all__ = [
    "KMeans",
    "KMeansResult",
    "Cluster",
    "DualLevelClustering",
    "dual_level_clustering",
    "estimate_leaf_load",
    "split_by_capacitance",
]
