"""Tests for the Hungarian matching and the ACC / NMI / ARI metrics."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.metrics import (
    adjusted_rand_index,
    align_labels,
    clustering_accuracy,
    evaluate_clustering,
    hungarian_matching,
    normalized_mutual_information,
)
from repro.metrics.hungarian import hungarian_algorithm
from repro.metrics.nmi import contingency_matrix


def brute_force_min_cost(cost: np.ndarray) -> float:
    """Exact minimum assignment cost over every injective row/column pairing."""
    rows, cols = cost.shape
    if rows > cols:
        return brute_force_min_cost(cost.T)
    return min(
        sum(cost[r, c] for r, c in zip(range(rows), chosen))
        for chosen in itertools.permutations(range(cols), rows)
    )


def brute_force_matched_count(true: np.ndarray, pred: np.ndarray) -> int:
    """Most samples any injective predicted→true id mapping can match."""
    size = int(max(true.max(), pred.max())) + 1
    contingency = np.zeros((size, size), dtype=np.int64)
    np.add.at(contingency, (pred, true), 1)
    return int(-brute_force_min_cost(-contingency))


class TestHungarian:
    def test_pure_implementation_matches_brute_force(self, rng):
        for _ in range(10):
            cost = rng.random((5, 5))
            rows, cols = hungarian_algorithm(cost)
            assert list(rows) == list(range(5)) and sorted(cols) == list(range(5))
            assert cost[rows, cols].sum() == pytest.approx(brute_force_min_cost(cost))

    def test_pure_implementation_rectangular(self, rng):
        for shape in [(3, 6), (6, 3), (4, 5), (5, 4), (1, 6), (6, 6)]:
            cost = rng.integers(0, 4, size=shape).astype(float)
            rows, cols = hungarian_algorithm(cost)
            assert len(rows) == len(cols) == min(shape)
            assert list(rows) == sorted(set(rows)) and len(set(cols)) == len(cols)
            assert cost[rows, cols].sum() == brute_force_min_cost(cost)

    def test_ties_resolve_like_linear_sum_assignment(self):
        # Each cost has several optimal assignments; the expected pairs were
        # recorded from scipy.optimize.linear_sum_assignment (scipy 1.17).
        # The FR/FD oracle and per-group accuracies read the chosen pairs.
        constant = np.full((4, 4), 2.0)
        np.testing.assert_array_equal(hungarian_algorithm(constant)[1], [0, 1, 2, 3])
        cases = [
            ([[0, 0, 1], [1, 2, 1], [1, 1, 1]], [0, 1, 2], [0, 2, 1]),
            (
                [[2, 0, 2, 1], [0, 1, 2, 1], [1, 2, 1, 1], [0, 0, 2, 2]],
                [0, 1, 2, 3],
                [3, 0, 2, 1],
            ),
            ([[0, 2, 0], [2, 0, 1], [2, 2, 1], [0, 0, 2], [1, 0, 2]], [0, 1, 3], [2, 1, 0]),
        ]
        for cost, rows, cols in cases:
            got_rows, got_cols = hungarian_algorithm(np.array(cost, dtype=float))
            np.testing.assert_array_equal(got_rows, rows)
            np.testing.assert_array_equal(got_cols, cols)

    def test_rejects_invalid_costs(self):
        with pytest.raises(ValueError):
            hungarian_algorithm(np.array([[np.nan, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            hungarian_algorithm(np.array([[np.inf, np.inf], [1.0, 0.0]]))

    def test_matching_reaches_brute_force_optimum(self, rng):
        for _ in range(60):
            num_true, num_pred = rng.integers(1, 7, size=2)
            size = int(rng.integers(1, 40))
            true = rng.integers(0, num_true, size=size)
            pred = rng.integers(0, num_pred, size=size)
            mapping = hungarian_matching(true, pred)
            assert set(mapping) == set(range(int(max(true.max(), pred.max())) + 1))
            assert len(set(mapping.values())) == len(mapping)
            matched = int(sum(np.sum((pred == p) & (true == t)) for p, t in mapping.items()))
            assert matched == brute_force_matched_count(true, pred)

    def test_import_loads_no_scipy(self):
        code = (
            "import sys\n"
            "import repro, repro.api.pipeline, repro.experiments.runner\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert out.stdout.strip() == "[]"

    def test_matching_identity(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        mapping = hungarian_matching(labels, labels)
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_matching_permutation(self):
        true = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([2, 2, 0, 0, 1, 1])
        mapping = hungarian_matching(true, pred)
        assert mapping[2] == 0 and mapping[0] == 1 and mapping[1] == 2

    def test_align_labels_recovers_permutation(self):
        true = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([1, 1, 2, 2, 0, 0])
        np.testing.assert_array_equal(align_labels(true, pred), true)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            hungarian_matching(np.array([0, 1]), np.array([0]))


class TestAccuracy:
    def test_perfect_clustering(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        assert clustering_accuracy(labels, labels) == 1.0

    def test_permutation_invariance(self):
        true = np.array([0, 0, 1, 1])
        pred = np.array([1, 1, 0, 0])
        assert clustering_accuracy(true, pred) == 1.0

    def test_partial_agreement(self):
        true = np.array([0, 0, 0, 1, 1, 1])
        pred = np.array([0, 0, 1, 1, 1, 1])
        assert clustering_accuracy(true, pred) == pytest.approx(5.0 / 6.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            clustering_accuracy(np.array([]), np.array([]))

    def test_all_in_one_cluster(self):
        true = np.array([0, 0, 1, 1, 2, 2])
        pred = np.zeros(6, dtype=int)
        assert clustering_accuracy(true, pred) == pytest.approx(2.0 / 6.0)


class TestNMI:
    def test_identical_partitions(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert normalized_mutual_information(labels, labels) == pytest.approx(1.0)

    def test_permutation_invariance(self):
        true = np.array([0, 0, 1, 1])
        pred = np.array([5, 5, 3, 3])
        assert normalized_mutual_information(true, pred) == pytest.approx(1.0)

    def test_independent_partitions_near_zero(self, rng):
        true = np.repeat([0, 1], 500)
        pred = rng.integers(0, 2, size=1000)
        assert normalized_mutual_information(true, pred) < 0.05

    def test_single_cluster_prediction_zero(self):
        true = np.array([0, 0, 1, 1])
        pred = np.zeros(4, dtype=int)
        assert normalized_mutual_information(true, pred) == 0.0

    def test_geometric_average_option(self):
        true = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([0, 0, 1, 2, 2, 2])
        arithmetic = normalized_mutual_information(true, pred, average="arithmetic")
        geometric = normalized_mutual_information(true, pred, average="geometric")
        assert 0.0 < arithmetic <= 1.0 and 0.0 < geometric <= 1.0

    def test_unknown_average_raises(self):
        with pytest.raises(ValueError):
            normalized_mutual_information(np.array([0, 1]), np.array([0, 1]), average="max")

    def test_contingency_matrix_counts(self):
        true = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 1, 1])
        matrix = contingency_matrix(true, pred)
        assert matrix.sum() == 4
        assert matrix[0, 0] == 1 and matrix[1, 1] == 2


class TestARI:
    def test_identical_partitions(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    def test_permutation_invariance(self):
        true = np.array([0, 0, 1, 1])
        pred = np.array([1, 1, 0, 0])
        assert adjusted_rand_index(true, pred) == pytest.approx(1.0)

    def test_random_partition_near_zero(self, rng):
        true = np.repeat([0, 1, 2], 300)
        pred = rng.integers(0, 3, size=900)
        assert abs(adjusted_rand_index(true, pred)) < 0.05

    def test_can_be_negative(self):
        # Systematic disagreement worse than chance.
        true = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 0, 1])
        assert adjusted_rand_index(true, pred) <= 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            adjusted_rand_index(np.array([]), np.array([]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            adjusted_rand_index(np.array([0, 1]), np.array([0]))


class TestReport:
    def test_evaluate_clustering_bundles_metrics(self):
        true = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([1, 1, 0, 0, 2, 2])
        report = evaluate_clustering(true, pred)
        assert report.accuracy == pytest.approx(1.0)
        assert report.nmi == pytest.approx(1.0)
        assert report.ari == pytest.approx(1.0)

    def test_report_percentages_and_str(self):
        report = evaluate_clustering(np.array([0, 1, 0, 1]), np.array([0, 1, 1, 1]))
        percentages = report.as_percentages()
        assert percentages["acc"] == pytest.approx(100.0 * report.accuracy)
        assert "ACC=" in str(report)

    def test_report_dict_keys(self):
        report = evaluate_clustering(np.array([0, 1]), np.array([0, 1]))
        assert set(report.as_dict()) == {"acc", "nmi", "ari"}
