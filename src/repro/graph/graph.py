"""The :class:`AttributedGraph` container used across the library.

The paper works with a non-directed attributed graph ``G = (V, E, X)`` with
adjacency matrix ``A`` (binary, symmetric, zero diagonal), node feature
matrix ``X`` and, for evaluation only, ground-truth cluster labels ``y``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.graph.sparse import CSRMemo


@dataclass
class AttributedGraph:
    """An undirected attributed graph with optional ground-truth labels.

    Attributes
    ----------
    adjacency:
        (N, N) binary symmetric matrix with zero diagonal.
    features:
        (N, J) node feature matrix.
    labels:
        Optional (N,) integer array of ground-truth cluster labels, used only
        to *evaluate* clustering (never during training).
    name:
        Human readable identifier (e.g. ``"cora_sim"``).
    metadata:
        Free-form dictionary (generator parameters, number of clusters, ...).

    The CSR forms of ``adjacency`` — its non-zero count, its
    :class:`~repro.graph.sparse.SparseAdjacency` and its normalised
    propagation matrix — are derived lazily, at most once per adjacency
    object, and kept in a memo (:meth:`csr_memo`) that holds O(nnz) memory
    and read-only arrays.  Reassigning ``adjacency`` invalidates the memo;
    writing into the array in place does not, so never do that: build a new
    graph with :meth:`with_adjacency` or the :mod:`repro.graph.ops` helpers.
    The memo is not part of ``==``, ``repr``, pickles, :meth:`copy` or the
    ``with_*`` copies.
    """

    adjacency: np.ndarray
    features: np.ndarray
    labels: Optional[np.ndarray] = None
    name: str = "graph"
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.adjacency = np.asarray(self.adjacency, dtype=np.float64)
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
        self.validate()

    # ------------------------------------------------------------------
    # shape helpers
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each counted once)."""
        return self.csr_memo().nnz // 2

    def csr_memo(self) -> CSRMemo:
        """The memoised CSR forms of the current ``adjacency`` object."""
        memo = self.__dict__.get("_csr_memo")
        if memo is None or not memo.derived_from(self.adjacency):
            memo = CSRMemo(self.adjacency)
            self.__dict__["_csr_memo"] = memo
        return memo

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_csr_memo", None)
        return state

    @property
    def num_clusters(self) -> int:
        """Number of ground-truth clusters.

        Falls back to ``metadata['num_clusters']`` when labels are absent.
        """
        if self.labels is not None:
            return int(len(np.unique(self.labels)))
        if "num_clusters" in self.metadata:
            return int(self.metadata["num_clusters"])
        raise ValueError("graph has neither labels nor metadata['num_clusters']")

    # ------------------------------------------------------------------
    # validation and edits
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on violation.

        Costs one O(N²) read of the current dense ``adjacency`` (never the
        CSR memo, so an in-place edit is seen) and O(nnz) memory: every
        stored entry must be exactly 1 and off the diagonal, and the sorted
        transposed keys ``c·N + r`` must equal the row-major keys ``r·N + c``.
        Only when that fails do the dense checks run, to pick the message.
        """
        a = self.adjacency
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        if self.features.ndim != 2 or self.features.shape[0] != a.shape[0]:
            raise ValueError(
                "features must be (N, J) with N matching the adjacency "
                f"(got {self.features.shape} vs N={a.shape[0]})"
            )
        n = a.shape[0]
        rows, cols = np.nonzero(a)
        if not (
            np.all(a[rows, cols] == 1)
            and np.all(rows != cols)
            and np.array_equal(rows * n + cols, np.sort(cols * n + rows))
        ):
            if not np.allclose(a, a.T):
                raise ValueError("adjacency must be symmetric (undirected graph)")
            if np.any(np.diag(a) != 0):
                raise ValueError("adjacency must have a zero diagonal (no self loops)")
            if np.any((a != 0) & (a != 1)):
                raise ValueError("adjacency must be binary")
        if self.labels is not None and self.labels.shape[0] != a.shape[0]:
            raise ValueError("labels length must match the number of nodes")

    def copy(self) -> "AttributedGraph":
        """Deep copy of the graph."""
        return AttributedGraph(
            adjacency=self.adjacency.copy(),
            features=self.features.copy(),
            labels=None if self.labels is None else self.labels.copy(),
            name=self.name,
            metadata=dict(self.metadata),
        )

    def with_adjacency(self, adjacency: np.ndarray) -> "AttributedGraph":
        """Return a copy of the graph with a replacement adjacency matrix."""
        return AttributedGraph(
            adjacency=np.asarray(adjacency, dtype=np.float64).copy(),
            features=self.features.copy(),
            labels=None if self.labels is None else self.labels.copy(),
            name=self.name,
            metadata=dict(self.metadata),
        )

    def with_features(self, features: np.ndarray) -> "AttributedGraph":
        """Return a copy of the graph with a replacement feature matrix."""
        return AttributedGraph(
            adjacency=self.adjacency.copy(),
            features=np.asarray(features, dtype=np.float64).copy(),
            labels=None if self.labels is None else self.labels.copy(),
            name=self.name,
            metadata=dict(self.metadata),
        )

    def neighbors(self, node: int) -> np.ndarray:
        """Indices of nodes adjacent to ``node``."""
        return np.flatnonzero(self.adjacency[node])

    def edge_list(self) -> np.ndarray:
        """(E, 2) array of undirected edges with i < j."""
        csr = self.csr_memo().csr()
        rows, cols = csr.row_indices(), csr.indices
        upper = rows < cols
        return np.stack([rows[upper], cols[upper]], axis=1)

    def row_normalized_features(self) -> np.ndarray:
        """Features row-normalised by their Euclidean norm (paper Section 5.1)."""
        norms = np.linalg.norm(self.features, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return self.features / norms
