"""Functional wrappers around :class:`~repro.nn.tensor.Tensor` operations.

These mirror the ``torch.nn.functional`` style API the original code base
uses, plus the loss functions specific to graph auto-encoders (dense binary
cross-entropy over the reconstructed adjacency, KL terms for the variational
models, and the KL clustering loss of DGAE).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.nn.tensor import Tensor, as_tensor, grad_enabled
from repro.observability.tracer import span as _span

ArrayOrTensor = Union[np.ndarray, Tensor]


def relu(x: ArrayOrTensor) -> Tensor:
    """Element-wise rectified linear unit."""
    return as_tensor(x).relu()


def sigmoid(x: ArrayOrTensor) -> Tensor:
    """Element-wise logistic sigmoid."""
    return as_tensor(x).sigmoid()


def tanh(x: ArrayOrTensor) -> Tensor:
    """Element-wise hyperbolic tangent."""
    return as_tensor(x).tanh()


def softplus(x: ArrayOrTensor) -> Tensor:
    """Numerically stable ``log(1 + exp(x))``."""
    return as_tensor(x).softplus()


def exp(x: ArrayOrTensor) -> Tensor:
    return as_tensor(x).exp()


def log(x: ArrayOrTensor) -> Tensor:
    return as_tensor(x).log()


def linear(x: ArrayOrTensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight + bias``."""
    out = as_tensor(x) @ weight
    if bias is not None:
        out = out + bias
    return out


def spmm(adjacency, x: ArrayOrTensor) -> Tensor:
    """Sparse-dense product ``A @ X`` with autograd support through ``X``.

    ``adjacency`` is a constant :class:`~repro.graph.sparse.SparseAdjacency`
    (or any object exposing ``matmul``/``transpose``): the GCN propagation
    matrix is fixed for a given graph, so no gradient flows into it.  The
    backward pass is ``∂L/∂X = Aᵀ @ ∂L/∂out``, also computed sparsely, which
    keeps both directions at O(nnz · d) instead of O(N² d).
    """
    x_t = as_tensor(x)
    with _span("kernel.spmm"):
        out_data = adjacency.matmul(x_t.data)
    adjacency_t = adjacency.transpose()

    def backward(grad: np.ndarray):
        return (adjacency_t.matmul(grad),)

    return x_t._make_child(out_data, (x_t,), backward)


def dropout(x: ArrayOrTensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout.

    During evaluation (``training=False``) or with ``rate=0`` the input is
    returned unchanged.
    """
    x = as_tensor(x)
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(np.float64) / keep
    return x * mask


def softmax(x: ArrayOrTensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def binary_cross_entropy_with_logits(
    logits: ArrayOrTensor,
    targets: ArrayOrTensor,
    pos_weight: Optional[float] = None,
    norm: float = 1.0,
) -> Tensor:
    """Mean binary cross-entropy computed from logits, as a composition of ops.

    ARGAE's discriminator trains on it.  With ``logits = Z Z^T`` it is the
    unfused form of :func:`inner_product_bce`, which the GAE models train
    on, and the tests keep it as that op's oracle.  ``pos_weight``
    re-weights positive entries, which the original implementations use to
    counter the extreme sparsity of real graphs.  ``norm`` is a scalar
    multiplier applied to the final mean (the usual ``N^2 / (2 * #neg)``
    normalisation).
    """
    logits = as_tensor(logits)
    targets_arr = np.asarray(
        targets.data if isinstance(targets, Tensor) else targets, dtype=np.float64
    )
    targets_t = Tensor(targets_arr)
    # log(1 + exp(logits)) - targets * logits, optionally with pos_weight on
    # the positive term: -[w*y*log(sig) + (1-y)*log(1-sig)].
    if pos_weight is None:
        losses = logits.softplus() - targets_t * logits
    else:
        w = float(pos_weight)
        # -(w*y*log(s) + (1-y)*log(1-s))
        #  = (1 + (w-1)*y) * softplus(logits) - w*y*logits   [derivation below]
        # log(s) = -softplus(-x), log(1-s) = -softplus(x)
        # loss = w*y*softplus(-x) + (1-y)*softplus(x)
        neg_logits = -logits
        losses = targets_t * (w * neg_logits.softplus()) + (1.0 - targets_t) * logits.softplus()
    return losses.mean() * norm


@dataclass(frozen=True)
class BCETarget:
    """A dense BCE target ``y`` prepared once for :func:`inner_product_bce`.

    Preparing costs a few O(N²) passes, so a caller whose target stays fixed
    over many steps prepares it once and passes it back in.  The arrays are
    read-only: a prepared target may be shared between calls.
    """

    #: ``1 + (w - 1) y``, the coefficient of ``softplus(x)``.
    weight: np.ndarray
    #: ``w y``, the coefficient of ``x``.
    positive: np.ndarray
    norm: float
    #: ``y == yᵀ`` exactly, which lets the backward pass use one product.
    symmetric: bool

    @classmethod
    def prepare(
        cls, targets: np.ndarray, pos_weight: Optional[float] = None, norm: float = 1.0
    ) -> "BCETarget":
        y = np.asarray(targets, dtype=np.float64)
        w = 1.0 if pos_weight is None else float(pos_weight)
        weight = 1.0 + (w - 1.0) * y
        positive = w * y
        weight.flags.writeable = False
        positive.flags.writeable = False
        return cls(weight, positive, float(norm), bool(np.array_equal(y, y.T)))


def inner_product_bce(
    z: ArrayOrTensor,
    target: Union[np.ndarray, BCETarget],
    pos_weight: Optional[float] = None,
    norm: float = 1.0,
) -> Tensor:
    """Weighted BCE between ``sigmoid(Z Zᵀ)`` and ``target``, as one autograd op.

    The value is that of ``binary_cross_entropy_with_logits(z @ z.T, target,
    pos_weight, norm)``: ``mean((1 + (w-1) y) softplus(x) - w y x) * norm``
    with ``x = Z Zᵀ``.  The op records one graph node with ``z`` as its only
    parent, where the composition records about ten over (N, N) arrays; its
    backward pass is ``gx @ z + gxᵀ @ z`` with
    ``gx = ((1 + (w-1) y) sigmoid(x) - w y) * norm / N²``.  ``target`` is
    the (N, N) array ``y`` or a :class:`BCETarget` prepared from it, which
    carries its own ``pos_weight`` and ``norm``.
    """
    z = as_tensor(z)
    if not isinstance(target, BCETarget):
        target = BCETarget.prepare(target, pos_weight, norm)
    elif pos_weight is not None or norm != 1.0:
        raise ValueError("a prepared BCETarget carries its own pos_weight and norm")
    z_data = z.data
    x = z_data @ z_data.T
    if x.shape != target.weight.shape:
        raise ValueError(f"target has shape {target.weight.shape}, logits {x.shape}")
    # softplus(x) = max(x, 0) + log1p(e) and sigmoid(x) = exp(min(x, 0)) / (1 + e)
    # share e = exp(-|x|); no exponent is positive, so nothing overflows.
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    losses = np.log1p(e)
    work = np.maximum(x, 0.0)
    losses += work
    losses *= target.weight
    np.multiply(target.positive, x, out=work)
    losses -= work
    value = losses.sum() * (1.0 / x.size) * target.norm

    grad_logits: Optional[np.ndarray] = None
    if grad_enabled() and z.requires_grad:
        grad_logits = np.minimum(x, 0.0, out=work)
        np.exp(grad_logits, out=grad_logits)
        e += 1.0
        grad_logits /= e
        grad_logits *= target.weight
        grad_logits -= target.positive
    scale = target.norm * (1.0 / x.size)
    symmetric = target.symmetric

    def backward(grad: np.ndarray):
        # x = Z Zᵀ, so dL/dZ = gx @ Z + gxᵀ @ Z, and gx = gxᵀ when y = yᵀ.
        grad_z = grad_logits @ z_data
        if symmetric:
            grad_z *= 2.0
        else:
            grad_z += grad_logits.T @ z_data
        grad_z *= float(grad) * scale
        return (grad_z,)

    return z._make_child(np.asarray(value), (z,), backward)


def binary_cross_entropy_sum(logits: ArrayOrTensor, targets: ArrayOrTensor) -> Tensor:
    """Summed (not averaged) BCE from logits.

    The theoretical decompositions in the paper (Proposition 1, Theorem 1)
    are stated for the *sum* over all node pairs, so the analysis code uses
    this variant.
    """
    logits = as_tensor(logits)
    targets_arr = np.asarray(
        targets.data if isinstance(targets, Tensor) else targets, dtype=np.float64
    )
    targets_t = Tensor(targets_arr)
    losses = logits.softplus() - targets_t * logits
    return losses.sum()


def gaussian_kl_divergence(mu: Tensor, log_sigma: Tensor) -> Tensor:
    """KL( N(mu, sigma^2) || N(0, I) ) averaged over nodes.

    Used by VGAE-style models; ``log_sigma`` holds log standard deviations.
    """
    n = mu.shape[0]
    term = 1.0 + 2.0 * log_sigma - mu * mu - (2.0 * log_sigma).exp()
    return term.sum() * (-0.5 / n)


def kl_divergence_rows(p: ArrayOrTensor, q: ArrayOrTensor, eps: float = 1e-12) -> Tensor:
    """Row-wise ``KL(p || q)`` summed over all rows.

    Both arguments are (N, K) row-stochastic matrices.  This is the DGAE
    clustering loss ``KL(Q || P)`` of Appendix B when called as
    ``kl_divergence_rows(target, soft_assignment)``.
    """
    p = as_tensor(p)
    q = as_tensor(q)
    p_safe = p + eps
    q_safe = q + eps
    return (p * (p_safe.log() - q_safe.log())).sum()


def mean_squared_error(pred: ArrayOrTensor, target: ArrayOrTensor) -> Tensor:
    """Mean squared error between two arrays."""
    pred = as_tensor(pred)
    target_t = as_tensor(target).detach()
    diff = pred - target_t
    return (diff * diff).mean()


def pairwise_squared_distances(z: np.ndarray) -> np.ndarray:
    """Dense (N, N) matrix of squared Euclidean distances (numpy only)."""
    sq = np.sum(z ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * z @ z.T
    np.maximum(d2, 0.0, out=d2)
    return d2
