"""Region-aware spatial pooling with trainable correlation weighting, and
temporal pair-average pooling.

Spatial pooling contracts a (batch, channels, frames, nodes) feature map onto
region nodes through a binary assignment matrix. Each source node's share is
modulated by 1 + its correlation value, computed per frame from learned
projections; the bare structural path acts as a residual and can be disabled
for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Parameter, Tensor

SIGMAS = ("tanh", "sigmoid", "softmax")


@dataclass
class PoolingParams:
    """Projection weights and normalization choice for the correlation field."""

    w_phi: Parameter  # (channels, channels/ratio)
    w_psi: Parameter  # (channels, channels/ratio)
    ratio: int
    sigma: str = "tanh"

    @classmethod
    def init(cls, channels: int, ratio: int = 4, sigma: str = "tanh",
             rng=None, dtype=np.float32):
        if ratio < 1:
            raise ValueError("ratio must be >= 1")
        if channels % ratio != 0:
            raise ValueError(f"channels {channels} not divisible by ratio {ratio}")
        if sigma not in SIGMAS:
            raise ValueError(f"sigma must be one of {SIGMAS}")
        rng = rng if rng is not None else np.random.default_rng(0)
        proj = channels // ratio
        return cls(
            w_phi=Parameter(T.glorot(rng, (channels, proj)), dtype=dtype),
            w_psi=Parameter(T.glorot(rng, (channels, proj)), dtype=dtype),
            ratio=ratio, sigma=sigma)


def correlation(x: Tensor, params: PoolingParams) -> Tensor:
    """Per-frame, per-node mean embedding similarity to all nodes, normalized.

    The similarity of node i to node j is <u_i, v_j> with u = W_phi^T x and
    v = W_psi^T x. Its mean over j is <u_i, W_psi^T mean_j x_j>, so psi
    projects only the node-mean of the input, (batch, channels, frames, 1),
    and one batched product per frame pairs it with every u_i; no
    (batch, frames, nodes, nodes) similarity tensor is formed.

    Returns a (batch, frames, nodes) field; with tanh every value lies in
    (-1, 1), with softmax each frame's values sum to 1 over nodes.
    """
    if x.ndim != 4:
        raise ValueError("correlation expects a (batch, channels, frames, nodes) input")
    if x.shape[1] != params.w_phi.shape[0]:
        raise ValueError(f"input channels {x.shape[1]} do not match projection "
                         f"{params.w_phi.shape}")
    b, c, t, n = x.shape
    u = T.conv1x1(x, params.w_phi)                 # (B, P, T, N)
    x_mean = T.reshape(T.tmean(x, axes=(3,)), (b, c, t, 1))
    v_mean = T.conv1x1(x_mean, params.w_psi)       # (B, P, T, 1) = mean_j v_j
    ut = T.transpose(u, (0, 2, 3, 1))              # (B, T, N, P)
    vt = T.transpose(v_mean, (0, 2, 1, 3))         # (B, T, P, 1)
    mean = T.reshape(T.matmul(ut, vt), (b, t, n))  # mean similarity to all nodes
    if params.sigma == "tanh":
        return T.tanh(mean)
    if params.sigma == "sigmoid":
        return T.sigmoid(mean)
    return T.softmax(mean)                         # over nodes (last axis)


def spatial_pool(x: Tensor, corr: Tensor | None, assignment: Tensor,
                 residual: bool = True) -> Tensor:
    """Contract nodes onto regions: sum of member features weighted by 1 + corr.

    The weight 1 + corr is formed on the (batch, frames, nodes) field and
    broadcast over channels once, so the input is multiplied by one weight
    map, (x * (1 + corr)) @ assignment, rather than added to its weighted
    copy. With `corr=None` the correlation term is dropped (plain structural
    pooling); with `residual=False` only the correlation-weighted path
    remains, (x * corr) @ assignment.
    """
    if x.ndim != 4:
        raise ValueError("spatial_pool expects a 4-D feature map")
    b, c, t, n = x.shape
    if assignment.ndim != 2 or assignment.shape[0] != n:
        raise ValueError(f"assignment {assignment.shape} does not match {n} nodes")
    if corr is None:
        return T.matmul(x, assignment)
    if corr.shape != (b, t, n):
        raise ValueError(f"correlation field {corr.shape} != {(b, t, n)}")
    if residual:
        corr = T.add(corr, Tensor(np.ones(corr.shape, dtype=corr.dtype)))
    weights = T.expand(T.reshape(corr, (b, 1, t, n)), (b, c, t, n))
    return T.matmul(T.mul(x, weights), assignment)


def st_pool(x: Tensor, params: PoolingParams | None, assignment: Tensor,
            residual: bool = True, corr_out: list | None = None) -> Tensor:
    """Spatial pooling followed by temporal pair averaging.

    `params=None` selects the purely structural path. `corr_out`, when given,
    receives the correlation field tensor for inspection/export.
    """
    corr = correlation(x, params) if params is not None else None
    if corr is not None and corr_out is not None:
        corr_out.append(corr)
    return T.pair_avg_time(spatial_pool(x, corr, assignment, residual=residual))
