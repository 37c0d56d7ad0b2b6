"""The fused inner-product BCE against its unfused oracle.

``F.inner_product_bce`` computes in one autograd op what the composition
``binary_cross_entropy_with_logits(z @ z.T, ...)`` computes in about ten.
The composition is the oracle: loss and gradient must agree to 1e-12 for
every model, on the pretraining target, on a Υ-rewritten target and on a
minibatch block.  The second half checks the per-graph target cache on the
model.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core import RethinkConfig, RethinkTrainer
from repro.core.graph_transform import GraphTransformOperator, build_clustering_oriented_graph
from repro.core.sampling import select_reliable_nodes
from repro.minibatch import ClusterLoader
from repro.models import build_model, reconstruction_weights
from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad

TOL = 1e-12


def oracle_target(adjacency):
    """The target preparation of the unfused reconstruction loss."""
    target = np.asarray(adjacency, dtype=np.float64) + np.eye(adjacency.shape[0])
    np.clip(target, 0.0, 1.0, out=target)
    pos_weight, norm = reconstruction_weights(target)
    return target, pos_weight, norm


def loss_and_grad(loss_fn, z_data):
    z = Tensor(np.array(z_data, copy=True), requires_grad=True)
    loss = loss_fn(z)
    loss.backward()
    loss.release_graph()
    return loss.item(), z.grad


def assert_matches_oracle(fused_fn, z_data, target, pos_weight=None, norm=1.0):
    expected, expected_grad = loss_and_grad(
        lambda z: F.binary_cross_entropy_with_logits(z @ z.T, target, pos_weight, norm), z_data
    )
    value, grad = loss_and_grad(fused_fn, z_data)
    assert np.isfinite(value) and np.all(np.isfinite(grad))
    assert abs(value - expected) <= TOL * max(1.0, abs(expected))
    np.testing.assert_allclose(grad, expected_grad, rtol=0.0, atol=TOL)


def upsilon_target(model, graph):
    embeddings = model.embed(graph)
    assignments = model.predict_assignments(embeddings)
    sampling = select_reliable_nodes(embeddings, assignments, alpha1=0.4, alpha2=0.2)
    return build_clustering_oriented_graph(
        graph.adjacency, sampling.soft_assignments, sampling.reliable_nodes, embeddings
    )


@pytest.fixture(scope="module", params=["gae", "dgae", "gmm_vgae", "argae"])
def pretrained(request, tiny_graph):
    model = build_model(request.param, tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
    model.pretrain(tiny_graph, epochs=5)
    model.init_clustering(model.embed(tiny_graph))
    return model


class TestOracle:
    def test_pretraining_target(self, pretrained, tiny_graph):
        target = tiny_graph.adjacency
        assert_matches_oracle(
            lambda z: pretrained.reconstruction_loss(z, target),
            pretrained.embed(tiny_graph),
            *oracle_target(target),
        )

    def test_upsilon_target(self, pretrained, tiny_graph):
        rewritten = upsilon_target(pretrained, tiny_graph)
        assert not np.array_equal(rewritten, tiny_graph.adjacency)
        assert_matches_oracle(
            lambda z: pretrained.reconstruction_loss(z, rewritten),
            pretrained.embed(tiny_graph),
            *oracle_target(rewritten),
        )

    def test_parameter_gradients_through_the_encoder(self, pretrained, tiny_graph):
        features, adj_norm = pretrained.prepare_inputs(tiny_graph)
        target, pos_weight, norm = oracle_target(tiny_graph.adjacency)

        def parameter_grads(loss_fn):
            pretrained.zero_grad()
            loss = loss_fn(pretrained.encode(features, adj_norm, sample=False))
            loss.backward()
            loss.release_graph()
            return loss.item(), pretrained.gradient_vector()

        value, grads = parameter_grads(
            lambda z: pretrained.reconstruction_loss(z, tiny_graph.adjacency)
        )
        expected, expected_grads = parameter_grads(
            lambda z: F.binary_cross_entropy_with_logits(z @ z.T, target, pos_weight, norm)
        )
        pretrained.zero_grad()
        assert abs(value - expected) <= TOL
        np.testing.assert_allclose(grads, expected_grads, rtol=0.0, atol=TOL)

    def test_cluster_loader_block(self, pretrained, tiny_graph):
        loader = ClusterLoader(tiny_graph, batch_size=30, seed=0)
        batch = next(iter(loader.epoch_batches(0)))
        assert batch.num_nodes < tiny_graph.num_nodes
        block = tiny_graph.adjacency[np.ix_(batch.node_ids, batch.node_ids)]
        with no_grad():
            z_block = pretrained.encode(batch.features, batch.adj_norm, sample=False).numpy()
        assert_matches_oracle(
            lambda z: pretrained.reconstruction_loss(z, block), z_block, *oracle_target(block)
        )

    def test_asymmetric_target_takes_the_two_term_backward(self, rng):
        z_data = rng.standard_normal((20, 4))
        target = (rng.random((20, 20)) < 0.3).astype(np.float64)
        prepared = F.BCETarget.prepare(target, pos_weight=3.0, norm=0.7)
        assert not prepared.symmetric
        assert_matches_oracle(
            lambda z: F.inner_product_bce(z, prepared), z_data, target, 3.0, 0.7
        )
        # The one-product shortcut would be wrong here.
        forced = dataclasses.replace(prepared, symmetric=True)
        _, wrong = loss_and_grad(lambda z: F.inner_product_bce(z, forced), z_data)
        _, right = loss_and_grad(lambda z: F.inner_product_bce(z, prepared), z_data)
        assert np.abs(wrong - right).max() > 1e-6

    def test_all_zero_target(self, rng):
        target = np.zeros((15, 15))
        assert reconstruction_weights(target) == (1.0, 1.0)
        assert_matches_oracle(
            lambda z: F.inner_product_bce(z, target, 1.0, 1.0),
            rng.standard_normal((15, 3)),
            target,
            1.0,
            1.0,
        )

    def test_unweighted_target(self, rng):
        target = (rng.random((12, 12)) < 0.5).astype(np.float64)
        assert_matches_oracle(
            lambda z: F.inner_product_bce(z, target), rng.standard_normal((12, 3)), target
        )

    def test_large_logits_stay_finite(self, rng):
        # |x| reaches the hundreds, past exp's overflow point and the
        # oracle sigmoid's clip at 60.
        z_data = 12.0 * rng.standard_normal((20, 8))
        assert np.abs(z_data @ z_data.T).max() > 745.0
        target = (rng.random((20, 20)) < 0.2).astype(np.float64)
        target = np.maximum(target, target.T)
        assert_matches_oracle(
            lambda z: F.inner_product_bce(z, target, 4.0, 0.6), z_data, target, 4.0, 0.6
        )

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_finite_difference_gradient(self, rng, symmetric):
        n, d, h = 20, 3, 1e-6
        z_data = rng.standard_normal((n, d))
        target = (rng.random((n, n)) < 0.25).astype(np.float64)
        if symmetric:
            target = np.maximum(target, target.T)
        prepared = F.BCETarget.prepare(target, pos_weight=2.5, norm=1.3)
        assert prepared.symmetric == symmetric
        _, grad = loss_and_grad(lambda z: F.inner_product_bce(z, prepared), z_data)

        def value(z):
            with no_grad():
                return F.inner_product_bce(z, prepared).item()

        numeric = np.zeros_like(z_data)
        for index in np.ndindex(*z_data.shape):
            step = np.zeros_like(z_data)
            step[index] = h
            numeric[index] = (value(z_data + step) - value(z_data - step)) / (2.0 * h)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)

    def test_no_grad_builds_no_graph(self, rng):
        z = Tensor(rng.standard_normal((10, 3)), requires_grad=True)
        target = np.eye(10)
        with no_grad():
            loss = F.inner_product_bce(z, target, 2.0, 1.0)
        assert not loss.requires_grad and loss._backward is None
        assert loss.item() == pytest.approx(F.inner_product_bce(z, target, 2.0, 1.0).item())

    def test_rejects_mismatched_inputs(self, rng):
        z = Tensor(rng.standard_normal((10, 3)))
        prepared = F.BCETarget.prepare(np.eye(10), pos_weight=2.0)
        with pytest.raises(ValueError, match="carries its own"):
            F.inner_product_bce(z, prepared, pos_weight=2.0)
        with pytest.raises(ValueError, match="shape"):
            F.inner_product_bce(z, np.eye(9))


class TestTargetCache:
    def test_swapping_the_supervision_graph_changes_the_loss(self, pretrained, tiny_graph):
        z = Tensor(pretrained.embed(tiny_graph))
        rewritten = upsilon_target(pretrained, tiny_graph)
        with no_grad():
            first = pretrained.reconstruction_loss(z, tiny_graph.adjacency).item()
            swapped = pretrained.reconstruction_loss(z, rewritten).item()
            back = pretrained.reconstruction_loss(z, tiny_graph.adjacency).item()
        assert swapped != first
        assert back == first

    def test_the_same_graph_object_reuses_its_prepared_target(self, pretrained, tiny_graph):
        adjacency = tiny_graph.adjacency
        prepared = pretrained._reconstruction_target(adjacency)
        assert pretrained._reconstruction_target(adjacency) is prepared
        assert pretrained._reconstruction_target(adjacency.copy()) is not prepared
        with pytest.raises(ValueError):
            prepared.weight[0, 0] = 0.0

    def test_model_state_is_unchanged_by_a_loss_call(self, tiny_graph):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        model.pretrain(tiny_graph, epochs=3)
        model.init_clustering(model.embed(tiny_graph))
        z_data = model.embed(tiny_graph)
        before = (
            model.config_signature(),
            model.state_dict(),
            model.extra_state(),
            len(pickle.dumps(model)),
        )
        loss_and_grad(lambda z: model.reconstruction_loss(z, tiny_graph.adjacency), z_data)
        assert model._reconstruction_cache is not None
        after = (
            model.config_signature(),
            model.state_dict(),
            model.extra_state(),
            len(pickle.dumps(model)),
        )
        assert after[0] == before[0]
        assert after[1].keys() == before[1].keys()
        for name in before[1]:
            np.testing.assert_array_equal(after[1][name], before[1][name])
        assert pickle.dumps(after[2]) == pickle.dumps(before[2])
        assert after[3] == before[3]
        restored = pickle.loads(pickle.dumps(model))
        assert restored._reconstruction_cache is None
        with no_grad():
            z = Tensor(z_data)
            assert (
                restored.reconstruction_loss(z, tiny_graph.adjacency).item()
                == model.reconstruction_loss(z, tiny_graph.adjacency).item()
            )

    @pytest.mark.parametrize("sampler", [None, "cluster"])
    @pytest.mark.parametrize("model_name", ["gae", "dgae", "gmm_vgae", "argae"])
    def test_training_never_writes_to_a_target(
        self, tiny_graph, monkeypatch, model_name, sampler
    ):
        """The cache keys on the graph object, so an in-place edit would go
        unseen: every target array is read-only here, so any write raises."""
        original = GraphTransformOperator.__call__

        def read_only_transform(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            result.flags.writeable = False
            return result

        monkeypatch.setattr(GraphTransformOperator, "__call__", read_only_transform)
        graph = tiny_graph.with_adjacency(tiny_graph.adjacency)
        graph.adjacency.flags.writeable = False
        model = build_model(model_name, graph.num_features, graph.num_clusters, seed=0)
        model.fit(graph, pretrain_epochs=2, clustering_epochs=2)
        config = RethinkConfig(
            epochs=4,
            pretrain_epochs=2,
            update_omega_every=2,
            update_graph_every=2,
            stop_at_convergence=False,
            sampler=sampler,
            batch_size=32,
        )
        history = RethinkTrainer(model, config).fit(graph, pretrained=True)
        assert all(np.isfinite(history.losses))
