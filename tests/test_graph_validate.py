"""``AttributedGraph.validate`` and ``graph.stats.describe`` without N×N temporaries.

``validate`` proves a valid adjacency with one ``np.nonzero`` pass and
O(nnz) memory, and falls back to the dense checks only to choose the error.
These tests keep the dense checks as the oracle: every invalid input must
raise exactly the message the dense checks give, valid inputs must pass,
and validating an N=2000 graph must allocate less than N² bytes.
``describe`` must equal the array-level ``density`` / ``homophily``
formulas exactly, within the same memory bound.
"""

from __future__ import annotations

import tracemalloc
from typing import Optional

import numpy as np
import pytest

from repro.graph import AttributedGraph, density, homophily
from repro.graph.stats import describe

SYMMETRIC = "adjacency must be symmetric (undirected graph)"
SELF_LOOP = "adjacency must have a zero diagonal (no self loops)"
BINARY = "adjacency must be binary"


def dense_oracle(adjacency: np.ndarray) -> Optional[str]:
    """The dense checks ``validate`` ran on every graph before, in order."""
    if not np.allclose(adjacency, adjacency.T):
        return SYMMETRIC
    if np.any(np.diag(adjacency) != 0):
        return SELF_LOOP
    if np.any((adjacency != 0) & (adjacency != 1)):
        return BINARY
    return None


def random_adjacency(num_nodes: int, avg_degree: float, seed: int) -> np.ndarray:
    """A random symmetric binary adjacency with a zero diagonal."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((num_nodes, num_nodes)) < avg_degree / max(num_nodes, 1), k=1)
    return (upper | upper.T).astype(np.float64)


def path_adjacency(num_nodes: int = 5) -> np.ndarray:
    adjacency = np.zeros((num_nodes, num_nodes))
    idx = np.arange(num_nodes - 1)
    adjacency[idx, idx + 1] = adjacency[idx + 1, idx] = 1.0
    return adjacency


def edit(entries) -> np.ndarray:
    """The 5-node path graph with ``{(row, col): value}`` written into it."""
    adjacency = path_adjacency()
    for (row, col), value in entries.items():
        adjacency[row, col] = value
    return adjacency


#: case -> (adjacency, the message the dense checks give for it)
INVALID = {
    "asymmetric": (edit({(0, 2): 1.0}), SYMMETRIC),
    "symmetric_half": (edit({(0, 2): 0.5, (2, 0): 0.5}), BINARY),
    # allclose accepts these as symmetric, so the binary check decides.
    "half_within_allclose": (edit({(0, 2): 0.5, (2, 0): 0.5 + 1e-12}), BINARY),
    "one_within_allclose": (edit({(0, 2): 1.0, (2, 0): 1.0 + 1e-12}), BINARY),
    "self_loop": (edit({(1, 1): 1.0}), SELF_LOOP),
    # NaN never compares close, not even to itself.
    "nan_off_diagonal": (edit({(0, 2): np.nan, (2, 0): np.nan}), SYMMETRIC),
    "nan_on_diagonal": (edit({(1, 1): np.nan}), SYMMETRIC),
    "plus_inf": (edit({(0, 2): np.inf, (2, 0): np.inf}), BINARY),
    "minus_inf": (edit({(0, 2): -np.inf, (2, 0): -np.inf}), BINARY),
    "minus_one": (edit({(0, 2): -1.0, (2, 0): -1.0}), BINARY),
}


class TestValidate:
    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_invalid_raises_the_dense_message(self, case):
        adjacency, message = INVALID[case]
        assert dense_oracle(adjacency) == message
        with pytest.raises(ValueError) as raised:
            AttributedGraph(adjacency, np.zeros((5, 2)))
        assert str(raised.value) == message

    @pytest.mark.parametrize("num_nodes", [0, 1, 2, 300])
    def test_random_valid_graphs_pass(self, num_nodes):
        for seed in range(3):
            adjacency = random_adjacency(num_nodes, 4.0, seed)
            assert dense_oracle(adjacency) is None
            graph = AttributedGraph(adjacency, np.zeros((num_nodes, 2)))
            graph.validate()

    def test_non_contiguous_adjacency(self):
        adjacency = random_adjacency(40, 4.0, 0)
        graph = AttributedGraph(adjacency, np.zeros((40, 2)))
        graph.adjacency = np.asfortranarray(adjacency)
        graph.validate()
        graph.adjacency = np.asfortranarray(INVALID["asymmetric"][0])
        graph.features = np.zeros((5, 2))
        with pytest.raises(ValueError, match="symmetric"):
            graph.validate()

    def test_in_place_edit_is_caught_by_an_explicit_validate(self):
        graph = AttributedGraph(random_adjacency(60, 4.0, 1), np.zeros((60, 2)))
        assert graph.num_edges > 0  # builds the CSR memo before the edit
        row, col = np.argwhere(graph.adjacency == 0)[1]
        graph.adjacency[row, col] = 1.0
        with pytest.raises(ValueError) as raised:
            graph.validate()
        assert str(raised.value) == dense_oracle(graph.adjacency)

    def test_construction_does_not_build_the_csr_memo(self):
        graph = AttributedGraph(random_adjacency(60, 4.0, 2), np.zeros((60, 2)))
        assert "_csr_memo" not in graph.__dict__

    def test_memory_stays_below_n_squared_bytes(self):
        num_nodes = 2000
        graph = AttributedGraph(random_adjacency(num_nodes, 8.0, 3), np.zeros((num_nodes, 2)))
        tracemalloc.start()
        try:
            graph.validate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < num_nodes**2


def array_formulas(graph: AttributedGraph):
    values = {"density": density(graph.adjacency)}
    if graph.labels is not None:
        values["homophily"] = homophily(graph.adjacency, graph.labels)
    return values


class TestDescribe:
    def test_equals_array_formulas_on_tiny_fixtures(self, tiny_graph, tiny_hard_graph):
        for graph in (tiny_graph, tiny_hard_graph):
            summary = describe(graph)
            for key, value in array_formulas(graph).items():
                assert summary[key] == value, key

    def test_equals_array_formulas_on_a_generated_graph(self):
        num_nodes = 450
        rng = np.random.default_rng(5)
        graph = AttributedGraph(
            random_adjacency(num_nodes, 6.0, 5),
            np.zeros((num_nodes, 2)),
            labels=rng.integers(0, 5, size=num_nodes),
        )
        summary = describe(graph)
        assert summary["density"] == array_formulas(graph)["density"]
        assert summary["homophily"] == array_formulas(graph)["homophily"]

    def test_edgeless_and_unlabelled_graphs(self):
        for num_nodes in (0, 1, 3):
            graph = AttributedGraph(
                np.zeros((num_nodes, num_nodes)),
                np.zeros((num_nodes, 2)),
                labels=np.zeros(num_nodes, dtype=np.int64),
            )
            summary = describe(graph)
            assert summary["density"] == 0.0 and summary["homophily"] == 0.0
        unlabelled = AttributedGraph(path_adjacency(), np.zeros((5, 2)))
        summary = describe(unlabelled)
        assert "homophily" not in summary
        assert summary["density"] == density(unlabelled.adjacency)

    def test_memory_stays_below_n_squared_bytes(self):
        num_nodes = 2000
        rng = np.random.default_rng(6)
        graph = AttributedGraph(
            random_adjacency(num_nodes, 8.0, 6),
            np.zeros((num_nodes, 2)),
            labels=rng.integers(0, 6, size=num_nodes),
        )
        tracemalloc.start()
        try:
            describe(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < num_nodes**2
