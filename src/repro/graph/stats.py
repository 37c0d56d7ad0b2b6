"""Descriptive statistics of attributed graphs.

These back the dataset documentation, sanity tests on the synthetic
generators, and the Figure 4 analysis of the operator-built
self-supervision graph (star-shaped sub-graph structure).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.graph.graph import AttributedGraph


def edge_count(adjacency: np.ndarray) -> int:
    """Number of undirected edges."""
    return int(np.triu(np.asarray(adjacency) > 0, k=1).sum())


def density(adjacency: np.ndarray) -> float:
    """Fraction of possible undirected edges that are present."""
    adjacency = np.asarray(adjacency)
    n = int(adjacency.shape[0])
    possible = n * (n - 1) / 2
    if possible == 0:
        return 0.0
    return float(edge_count(adjacency) / possible)


def homophily(adjacency: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of edges connecting nodes with the same label."""
    adjacency = np.asarray(adjacency)
    labels = np.asarray(labels)
    upper = np.triu(adjacency > 0, k=1)
    total = int(upper.sum())
    if total == 0:
        return 0.0
    same = labels[:, None] == labels[None, :]
    return float((upper & same).sum() / total)


def intra_cluster_edge_fraction(adjacency: np.ndarray, labels: np.ndarray) -> float:
    """Alias of :func:`homophily` with the paper's terminology."""
    return homophily(adjacency, labels)


def connected_components(adjacency: np.ndarray) -> List[np.ndarray]:
    """Connected components as lists of node indices (BFS, no networkx needed)."""
    adjacency = np.asarray(adjacency) > 0
    n = int(adjacency.shape[0])
    unvisited = np.ones(n, dtype=bool)
    components: List[np.ndarray] = []
    for start in range(n):
        if not unvisited[start]:
            continue
        frontier = [start]
        unvisited[start] = False
        members = [start]
        while frontier:
            node = frontier.pop()
            neighbors = np.flatnonzero(adjacency[node] & unvisited)
            for neighbor in neighbors:
                unvisited[neighbor] = False
                members.append(int(neighbor))
                frontier.append(int(neighbor))
        components.append(np.array(sorted(members)))
    return components


def star_subgraph_count(adjacency: np.ndarray, min_leaves: int = 2) -> int:
    """Count star-shaped sub-structures (hub nodes with >= ``min_leaves`` leaf neighbours).

    Figure 4 of the paper shows that the operator Υ turns the
    self-supervision graph into K star-shaped sub-graphs; this statistic lets
    the benchmark verify that structure quantitatively.
    """
    adjacency = np.asarray(adjacency) > 0
    degrees = adjacency.sum(axis=1)
    stars = 0
    for hub in np.flatnonzero(degrees >= min_leaves):
        neighbors = np.flatnonzero(adjacency[hub])
        leaves = [n for n in neighbors if degrees[n] == 1]
        if len(leaves) >= min_leaves:
            stars += 1
    return int(stars)


def describe(graph: AttributedGraph) -> Dict[str, object]:
    """Summary dictionary for dataset docs and tests; builds no N×N temporary."""
    n, num_edges = graph.num_nodes, graph.num_edges
    possible = n * (n - 1) / 2
    summary: Dict[str, object] = {
        "name": graph.name,
        "num_nodes": n,
        "num_edges": num_edges,
        "num_features": graph.num_features,
        "density": float(num_edges / possible) if possible else 0.0,
    }
    if graph.labels is not None:
        edges = graph.edge_list()
        same = int(np.count_nonzero(graph.labels[edges[:, 0]] == graph.labels[edges[:, 1]]))
        summary["num_clusters"] = graph.num_clusters
        summary["homophily"] = float(same / num_edges) if num_edges else 0.0
        _, counts = np.unique(graph.labels, return_counts=True)
        summary["cluster_sizes"] = counts.tolist()
    return summary
