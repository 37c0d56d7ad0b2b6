"""The memoised CSR forms of an AttributedGraph (``AttributedGraph.csr_memo``).

A graph derives its non-zero count, its CSR adjacency and its normalised CSR
propagation matrix at most once per adjacency object.  These tests pin that
the memo is exact (bit for bit against the unmemoised conversion), that it
is built once per graph across a whole minibatch run, that it follows
reassignment and per-call threshold overrides, that it never leaks into
copies, pickles, equality, ``repr`` or store fingerprints, and that its
arrays cannot be written.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.api import Pipeline
from repro.graph.generators import attributed_sbm_graph
from repro.graph.graph import AttributedGraph
from repro.graph.laplacian import normalize_adjacency
from repro.graph.sparse import (
    SparseAdjacency,
    adjacency_backend,
    as_sparse_adjacency,
    propagation_matrix,
    sparse_threshold_overrides,
)
from repro.models.base import GAEClusteringModel
from repro.store.keys import graph_fingerprint


def make_sparse_graph(num_nodes: int = 300, seed: int = 0) -> AttributedGraph:
    """A graph above the CSR promotion thresholds (N ≥ 256, density ≪ 25%)."""
    return attributed_sbm_graph(
        num_nodes=num_nodes,
        proportions=[1.0 / 3.0] * 3,
        p_intra=0.06,
        p_inter=0.005,
        num_features=20,
        active_per_class=5,
        signal=0.4,
        noise=0.02,
        seed=seed,
        name=f"sparse_{num_nodes}",
    )


@pytest.fixture()
def sparse_graph():
    return make_sparse_graph()


def assert_csr_identical(left: SparseAdjacency, right: SparseAdjacency) -> None:
    assert left.shape == right.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name


def count_square_from_dense(monkeypatch, num_nodes: int):
    """Spy on ``SparseAdjacency.from_dense``; returns the list of N×N calls."""
    original = SparseAdjacency.from_dense.__func__
    calls = []

    def spy(cls, dense):
        if np.shape(dense) == (num_nodes, num_nodes):
            calls.append(np.shape(dense))
        return original(cls, dense)

    monkeypatch.setattr(SparseAdjacency, "from_dense", classmethod(spy))
    return calls


class TestEdgeAccessors:
    """``num_edges`` / ``edge_list()`` read the memo, never an N×N copy."""

    @pytest.mark.parametrize("which", ["tiny", "tiny_hard", "generated"])
    def test_match_the_dense_formulas(self, which, tiny_graph, tiny_hard_graph):
        graph = {
            "tiny": tiny_graph,
            "tiny_hard": tiny_hard_graph,
            "generated": make_sparse_graph(num_nodes=400, seed=3),
        }[which]
        a = graph.adjacency
        assert graph.num_edges == int(np.triu(a, k=1).sum())
        rows, cols = np.nonzero(np.triu(a, k=1))
        expected = np.stack([rows, cols], axis=1)
        edges = graph.edge_list()
        assert edges.dtype == expected.dtype
        np.testing.assert_array_equal(edges, expected)  # row-major order too

    def test_edgeless_graph(self):
        graph = AttributedGraph(adjacency=np.zeros((4, 4)), features=np.ones((4, 2)))
        assert graph.num_edges == 0
        assert graph.edge_list().shape == (0, 2)

    def test_edge_list_is_writable_and_detached(self, sparse_graph):
        edges = sparse_graph.edge_list()
        edges[0, 0] = -1
        assert sparse_graph.edge_list()[0, 0] != -1


class TestMemoisedForms:
    def test_propagation_and_backend_equal_the_unmemoised_oracle(self, sparse_graph):
        a = sparse_graph.adjacency
        oracle_csr = SparseAdjacency.from_dense(a)
        backend = adjacency_backend(sparse_graph)
        assert isinstance(backend, SparseAdjacency)
        assert_csr_identical(backend, oracle_csr)
        assert_csr_identical(propagation_matrix(sparse_graph), oracle_csr.normalize())
        assert_csr_identical(
            propagation_matrix(sparse_graph, self_loops=False),
            oracle_csr.normalize(self_loops=False),
        )
        # a bare dense array still takes the same (one-off) conversion, also
        # when it must first be converted to float64
        assert_csr_identical(propagation_matrix(a), oracle_csr.normalize())
        for raw in (a.astype(np.int64), a.tolist()):
            assert_csr_identical(as_sparse_adjacency(raw), oracle_csr)
            assert_csr_identical(adjacency_backend(raw), oracle_csr)
            assert_csr_identical(propagation_matrix(raw), oracle_csr.normalize())

    def test_each_form_is_built_once_and_shared(self, sparse_graph):
        adj_norm = propagation_matrix(sparse_graph)
        assert propagation_matrix(sparse_graph) is adj_norm
        assert GAEClusteringModel.prepare_inputs(sparse_graph)[1] is adj_norm
        assert as_sparse_adjacency(sparse_graph) is adjacency_backend(sparse_graph)
        assert sparse_graph.csr_memo() is sparse_graph.csr_memo()

    def test_dense_path_is_untouched(self, tiny_graph):
        adj_norm = propagation_matrix(tiny_graph)
        assert isinstance(adj_norm, np.ndarray)
        expected = normalize_adjacency(tiny_graph.adjacency)
        assert adj_norm.tobytes() == expected.tobytes()
        assert adjacency_backend(tiny_graph) is tiny_graph.adjacency

    def test_construction_is_lazy_and_node_count_checked_first(self, tiny_graph):
        graph = tiny_graph.copy()
        assert "_csr_memo" not in vars(graph)
        propagation_matrix(graph)  # 90 nodes: below the node threshold
        memo = graph.csr_memo()
        assert memo._nnz is None and memo._csr is None

    def test_one_conversion_per_graph_across_minibatch_runs(self, monkeypatch):
        graph = make_sparse_graph()
        calls = count_square_from_dense(monkeypatch, graph.num_nodes)

        def run():
            return (
                Pipeline()
                .graph(graph)
                .model("gae")
                .minibatch("cluster", batch_size=100)
                .rethink(stop_at_convergence=False)
                .seed(0)
                .training(pretrain_epochs=2, rethink_epochs=2)
                .warm_start(False)
                .run()
            )

        first = run()
        assert len(calls) == 1
        second = run()
        assert len(calls) == 1
        assert first.report.accuracy == second.report.accuracy
        assert first.report.nmi == second.report.nmi

    def test_reassigning_the_adjacency_rebuilds_the_memo(self, sparse_graph):
        before = propagation_matrix(sparse_graph)
        old_memo = sparse_graph.csr_memo()
        replacement = sparse_graph.adjacency.copy()
        i, j = sparse_graph.edge_list()[0]
        replacement[i, j] = replacement[j, i] = 0.0
        sparse_graph.adjacency = replacement
        assert sparse_graph.csr_memo() is not old_memo
        after = propagation_matrix(sparse_graph)
        assert after is not before
        assert after.nnz == before.nnz - 2
        assert_csr_identical(after, SparseAdjacency.from_dense(replacement).normalize())
        assert sparse_graph.num_edges == int(np.triu(replacement, k=1).sum())

    def test_memo_keeps_no_dense_array_alive(self, sparse_graph):
        propagation_matrix(sparse_graph)
        old = sparse_graph.adjacency
        reference = weakref.ref(old)
        sparse_graph.adjacency = old.copy()
        del old
        gc.collect()
        assert reference() is None

    def test_thresholds_still_resolve_per_call(self, sparse_graph, tiny_graph):
        assert isinstance(propagation_matrix(sparse_graph), SparseAdjacency)
        with sparse_threshold_overrides(node_threshold=10 ** 6):
            assert isinstance(propagation_matrix(sparse_graph), np.ndarray)
            assert isinstance(adjacency_backend(sparse_graph), np.ndarray)
        with sparse_threshold_overrides(density_threshold=0.0):
            assert isinstance(propagation_matrix(sparse_graph), np.ndarray)
        assert isinstance(propagation_matrix(sparse_graph), SparseAdjacency)
        graph = tiny_graph.copy()
        assert isinstance(propagation_matrix(graph), np.ndarray)
        with sparse_threshold_overrides(node_threshold=10):
            promoted = propagation_matrix(graph)
        assert isinstance(promoted, SparseAdjacency)
        assert_csr_identical(promoted, SparseAdjacency.from_dense(graph.adjacency).normalize())

    def test_memoised_arrays_are_read_only(self, sparse_graph):
        for matrix in (propagation_matrix(sparse_graph), adjacency_backend(sparse_graph)):
            for array in (matrix.data, matrix.indices, matrix.indptr):
                with pytest.raises(ValueError):
                    array[0] = array[0]


class TestMemoStaysPrivate:
    def test_copies_and_pickles_carry_no_memo(self, sparse_graph):
        propagation_matrix(sparse_graph)
        assert "_csr_memo" in vars(sparse_graph)
        copies = [
            pickle.loads(pickle.dumps(sparse_graph)),
            copy.copy(sparse_graph),
            copy.deepcopy(sparse_graph),
            sparse_graph.copy(),
            sparse_graph.with_adjacency(sparse_graph.adjacency),
            sparse_graph.with_features(sparse_graph.features),
        ]
        for clone in copies:
            assert "_csr_memo" not in vars(clone)
            assert_csr_identical(
                propagation_matrix(clone), propagation_matrix(sparse_graph)
            )

    def test_fingerprint_repr_and_equality_are_unchanged(self, sparse_graph):
        twin = dataclasses.replace(sparse_graph)
        fingerprint = graph_fingerprint(sparse_graph)
        text = repr(sparse_graph)
        propagation_matrix(sparse_graph)
        sparse_graph.edge_list()
        assert graph_fingerprint(sparse_graph) == fingerprint
        assert repr(sparse_graph) == text
        assert sparse_graph == twin
        assert [f.name for f in dataclasses.fields(sparse_graph)] == [
            "adjacency", "features", "labels", "name", "metadata",
        ]
