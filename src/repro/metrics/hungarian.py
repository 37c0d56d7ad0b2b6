"""Hungarian (Kuhn-Munkres) assignment and label alignment.

The paper uses the Hungarian algorithm ``AH`` to map predicted cluster ids to
ground-truth classes both for the ACC metric and for building the supervised
counterpart ``Q' = AH(Q, P)`` used by the Λ_FR / Λ_FD diagnostics.

The matching is numpy-only: :func:`hungarian_algorithm` is a self-contained
shortest-augmenting-path solver, and the cost matrices are K×K with K the
number of clusters, so a match takes well under a millisecond.  scipy is
not a dependency and is never imported; at most a test may use it as an
oracle.  ACC counts the optimally matched samples, which is the same for
every optimal assignment.  Among tied assignments the solver picks the one
scipy's ``linear_sum_assignment`` picks, so the FR/FD oracle and the
per-group accuracies, which read the chosen pairs, keep their values.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np


def hungarian_algorithm(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment on a square or rectangular cost matrix.

    Shortest augmenting path (Crouse, 2016), one augmentation per row of the
    smaller dimension.  Among equal-cost paths it takes the same ones as
    scipy's ``linear_sum_assignment``, so tied matchings agree with it.
    Returns ``(row_indices, col_indices)`` sorted by row, one pair per row of
    the smaller dimension.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise ValueError("cost matrix contains NaN or -inf")
    transposed = cost.shape[0] > cost.shape[1]
    if transposed:
        cost = cost.T
    n, m = cost.shape
    rows_cost: List[List[float]] = cost.tolist()
    u, v = [0.0] * n, [0.0] * m
    col4row, row4col, path = [-1] * n, [-1] * m, [-1] * m
    for cur_row in range(n):
        shortest = [math.inf] * m
        visited: List[int] = []
        scanned: List[int] = []
        # Filled in reverse, so a constant cost matrix gives the identity.
        remaining = list(range(m - 1, -1, -1))
        min_val, row, sink = 0.0, cur_row, -1
        while sink == -1:
            index, lowest = -1, math.inf
            row_cost, u_row = rows_cost[row], u[row]
            for it, j in enumerate(remaining):
                reduced = min_val + row_cost[j] - u_row - v[j]
                if reduced < shortest[j]:
                    path[j], shortest[j] = row, reduced
                # On ties prefer a free column: it ends the path.
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    index, lowest = it, shortest[j]
            if lowest == math.inf:
                raise ValueError("cost matrix is infeasible")
            min_val, j = lowest, remaining[index]
            scanned.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                sink = j
            else:
                row = row4col[j]
                visited.append(row)
        u[cur_row] += min_val
        for i in visited:
            u[i] += min_val - shortest[col4row[i]]
        for j in scanned:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    rows_arr = np.arange(n)
    cols_arr = np.array(col4row, dtype=int)
    if transposed:
        order = np.argsort(cols_arr)
        return cols_arr[order], rows_arr[order]
    return rows_arr, cols_arr


def hungarian_matching(
    true_labels: np.ndarray, predicted_labels: np.ndarray
) -> Dict[int, int]:
    """Best mapping from predicted cluster ids to ground-truth class ids.

    Maximises the number of correctly matched samples.  Returns a dictionary
    ``{predicted_id: true_id}`` covering every predicted id.
    """
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted_labels = np.asarray(predicted_labels, dtype=np.int64)
    if true_labels.shape != predicted_labels.shape:
        raise ValueError("label arrays must have the same shape")
    num_classes = int(max(true_labels.max(), predicted_labels.max())) + 1
    contingency = np.zeros((num_classes, num_classes))
    np.add.at(contingency, (predicted_labels, true_labels), 1.0)
    cost = contingency.max() - contingency
    rows, cols = hungarian_algorithm(cost)
    return {int(r): int(c) for r, c in zip(rows, cols)}


def align_labels(true_labels: np.ndarray, predicted_labels: np.ndarray) -> np.ndarray:
    """Relabel predictions with the Hungarian-optimal mapping to true classes.

    This is the paper's ``Q' = AH(Q, P)`` operation expressed on hard labels:
    the returned array lives in the ground-truth label space.
    """
    mapping = hungarian_matching(true_labels, predicted_labels)
    lookup = np.array([mapping[label] for label in range(len(mapping))], dtype=np.int64)
    return np.asarray(lookup[np.asarray(predicted_labels, dtype=np.int64)])
