"""Generic spatial-temporal graph convolution block and batch normalization.

One block is: pointwise channel update, right-multiplication by a normalized
adjacency (the neighbor aggregation), batch norm, rectifier, temporal
convolution, and an identity skip when shapes line up. The adjacency is a
fixed constant per graph resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Parameter, Tensor


@dataclass
class BatchNorm:
    """Per-channel normalization with trainable affine and running moments."""

    gamma: Parameter
    beta: Parameter
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5

    @classmethod
    def init(cls, channels: int, dtype=np.float32):
        return cls(
            gamma=Parameter(np.ones(channels), decay=False, dtype=dtype),
            beta=Parameter(np.zeros(channels), decay=False, dtype=dtype),
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=np.ones(channels, dtype=dtype))


def batch_normalize(x: Tensor, norm: BatchNorm, train: bool, skip: Tensor | None = None,
                    rectify: bool = False) -> Tensor:
    """Train mode: batch statistics (and a running-moment update). Eval mode:
    a pure affine map from the saved moments.

    In train mode the batch moments are computed once and shared by the
    running-moment update and the normalization op. `skip` and `rectify`
    are passed to the operator, which adds the skip and rectifies in place.
    """
    if x.shape[1] != norm.gamma.shape[0]:
        raise ValueError(f"batch_normalize: {x.shape[1]} channels vs "
                         f"{norm.gamma.shape[0]} norm parameters")
    if train:
        if x.shape[0] == 0:
            raise ValueError("batch_normalize: empty batch")
        mu, var = T.channel_moments(x.data)
        norm.running_mean += norm.momentum * (mu - norm.running_mean)
        norm.running_var += norm.momentum * (var - norm.running_var)
        return T.batch_norm_train(x, norm.gamma, norm.beta, eps=norm.eps, moments=(mu, var),
                                  skip=skip, rectify=rectify)
    scale = norm.gamma.data / np.sqrt(norm.running_var + norm.eps)
    shift = norm.beta.data - norm.running_mean * scale
    return T.channel_affine(x, Tensor(scale.astype(x.dtype)), Tensor(shift.astype(x.dtype)),
                            skip=skip, rectify=rectify)


def spatial_graph_conv(x: Tensor, w: Tensor, adjacency: Tensor) -> Tensor:
    """Pointwise channel update and neighbor aggregation over the graph.

    The channel map acts on axis 1 and the adjacency on the node axis, so the
    two commute: the adjacency is applied on the narrower side, after the
    channel map when it narrows or keeps the width (conv1x1, then matmul) and
    before it when it widens (matmul, then conv1x1).
    """
    n = x.shape[3]
    if adjacency.shape != (n, n):
        raise ValueError(f"adjacency {adjacency.shape} does not match {n} nodes")
    if w.shape[0] < w.shape[1]:
        return T.conv1x1(T.matmul(x, adjacency), w)
    return T.matmul(T.conv1x1(x, w), adjacency)


@dataclass
class GraphConvParams:
    """Weights for one spatial-temporal block on a fixed graph resolution."""

    w_spatial: Parameter   # (c_in, c_out)
    w_temporal: Parameter  # (c_out, c_out, kernel)
    norm: BatchNorm
    norm_out: BatchNorm

    @classmethod
    def init(cls, c_in: int, c_out: int, kernel: int = 5, rng=None, dtype=np.float32):
        if kernel % 2 == 0:
            raise ValueError("temporal kernel must be odd")
        rng = rng if rng is not None else np.random.default_rng(0)
        return cls(
            w_spatial=Parameter(T.glorot(rng, (c_in, c_out)), dtype=dtype),
            w_temporal=Parameter(T.glorot(rng, (c_out, c_out, kernel),
                                          fan_in=c_out * kernel, fan_out=c_out * kernel),
                                 dtype=dtype),
            norm=BatchNorm.init(c_out, dtype=dtype),
            norm_out=BatchNorm.init(c_out, dtype=dtype))


def gcn_block(x: Tensor, params: GraphConvParams, adjacency: Tensor, train: bool) -> Tensor:
    """spatial conv -> norm -> rectifier -> temporal conv -> norm (+ skip) -> rectifier.

    Normalizing after each convolution keeps activations bounded across stacked
    stages; the skip applies whenever shapes line up. Each norm records one
    operator with its skip and rectifier, so neither pre-activation is stored.
    """
    y = spatial_graph_conv(x, params.w_spatial, adjacency)
    y = batch_normalize(y, params.norm, train, rectify=True)
    y = T.temporal_conv(y, params.w_temporal)
    return batch_normalize(y, params.norm_out, train,
                           skip=x if y.shape == x.shape else None, rectify=True)
