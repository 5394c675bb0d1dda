"""Composite model blocks: cross fusion, input supplement and the
classification head.

The cross fusion block runs a coarse branch (pool, then graph-convolve on the
pooled graph) and a fine branch (graph-convolve at full resolution, then pool
to align), and fuses the two as a weighted sum or a channel concatenation with
a learned re-projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .gcn import BatchNorm, GraphConvParams, batch_normalize, gcn_block, spatial_graph_conv
from .pooling import PoolingParams, st_pool
from .tensor import Parameter, Tensor

FUSION_MODES = ("sum", "concat")


@dataclass
class CrossFusionParams:
    """Both branches of one cross fusion block.

    `pool_in` pools the block input (c_in channels); `pool_fine` aligns the
    convolved fine branch (c_out channels). Either may be None for the
    non-adaptive (purely structural) pooling mode.
    """

    gcn_coarse: GraphConvParams
    gcn_fine: GraphConvParams
    pool_in: PoolingParams | None
    pool_fine: PoolingParams | None
    weight: float = 0.5
    fuse: str = "sum"
    w_merge: Parameter | None = None  # (2*c_out, c_out), concat mode only
    residual_pool: bool = True

    @classmethod
    def init(cls, c_in: int, c_out: int, ratio: int = 4, sigma: str = "tanh",
             kernel: int = 5, fuse: str = "sum", weight: float = 0.5,
             adaptive: bool = True, residual_pool: bool = True,
             rng=None, dtype=np.float32):
        if fuse not in FUSION_MODES:
            raise ValueError(f"fuse must be one of {FUSION_MODES}")
        if not 0.0 <= weight <= 1.0:
            raise ValueError("fusion weight must lie in [0, 1]")
        rng = rng if rng is not None else np.random.default_rng(0)
        pool_in = pool_fine = None
        if adaptive:
            pool_in = PoolingParams.init(c_in, ratio=ratio, sigma=sigma, rng=rng, dtype=dtype)
            pool_fine = PoolingParams.init(c_out, ratio=ratio, sigma=sigma, rng=rng,
                                           dtype=dtype)
        w_merge = None
        if fuse == "concat":
            w_merge = Parameter(T.glorot(rng, (2 * c_out, c_out)), dtype=dtype)
        return cls(
            gcn_coarse=GraphConvParams.init(c_in, c_out, kernel=kernel, rng=rng, dtype=dtype),
            gcn_fine=GraphConvParams.init(c_in, c_out, kernel=kernel, rng=rng, dtype=dtype),
            pool_in=pool_in, pool_fine=pool_fine,
            weight=weight, fuse=fuse, w_merge=w_merge, residual_pool=residual_pool)


def cross_fusion_split(x: Tensor, params: CrossFusionParams, assignment: Tensor | None,
                       adj_coarse: Tensor, adj_fine: Tensor, train: bool,
                       corr_out: list | None = None) -> tuple[Tensor, Tensor]:
    """The two aligned branch outputs (coarse h, fine e) before fusion.

    With `assignment=None` both branches skip pooling and stay at full
    resolution (the no-pooling control).
    """
    if assignment is not None:
        xp = st_pool(x, params.pool_in, assignment,
                     residual=params.residual_pool, corr_out=corr_out)
    else:
        xp = x
    h = gcn_block(xp, params.gcn_coarse, adj_coarse, train)
    xf = gcn_block(x, params.gcn_fine, adj_fine, train)
    e = st_pool(xf, params.pool_fine, assignment,
                residual=params.residual_pool) if assignment is not None else xf
    return h, e


def fuse_branches(h: Tensor, e: Tensor, params: CrossFusionParams) -> Tensor:
    """Weighted sum (s*h + (1-s)*e) or channel concat plus learned re-projection."""
    if params.fuse == "sum":
        return T.add(T.scale(h, params.weight), T.scale(e, 1.0 - params.weight))
    merged = T.concat_channels(h, e)
    if merged.ndim == 2:  # fused after global pooling: plain matrix product
        return T.matmul(merged, params.w_merge)
    return T.conv1x1(merged, params.w_merge)


def cross_fusion_block(x: Tensor, params: CrossFusionParams, assignment: Tensor | None,
                       adj_coarse: Tensor, adj_fine: Tensor, train: bool,
                       corr_out: list | None = None) -> Tensor:
    h, e = cross_fusion_split(x, params, assignment, adj_coarse, adj_fine, train,
                              corr_out=corr_out)
    return fuse_branches(h, e, params)


# ---------------------------------------------------------------------------
# input supplement: embed positions and bone vectors, concatenate


@dataclass
class IsmParams:
    """Two embedding streams (bone vectors and positions), each a normalization
    plus two graph-convolution layers into `channels` dimensions."""

    vec_norm: BatchNorm
    pos_norm: BatchNorm
    vec_conv1: Parameter
    vec_conv2: Parameter
    pos_conv1: Parameter
    pos_conv2: Parameter

    @classmethod
    def init(cls, channels: int = 32, rng=None, dtype=np.float32):
        rng = rng if rng is not None else np.random.default_rng(0)

        def conv(c_in, c_out):
            return Parameter(T.glorot(rng, (c_in, c_out)), dtype=dtype)

        return cls(
            vec_norm=BatchNorm.init(3, dtype=dtype),
            pos_norm=BatchNorm.init(3, dtype=dtype),
            vec_conv1=conv(3, channels),
            vec_conv2=conv(channels, channels),
            pos_conv1=conv(3, channels),
            pos_conv2=conv(channels, channels))

    @property
    def out_channels(self) -> int:
        return 2 * self.vec_conv2.shape[1]


def information_supplement(x: Tensor, params: IsmParams, bones: Tensor,
                           adjacency: Tensor, train: bool) -> Tensor:
    """Embed bone-vector and position streams and concatenate on channels
    (bone stream leading), doubling the per-stream embedding width. `bones` is
    the topology's `skeleton.bone_matrix`, which maps positions to bone vectors."""
    if x.ndim != 4 or x.shape[1] != 3:
        raise ValueError("information_supplement expects raw (batch, 3, frames, nodes) input")

    def stream(feat, norm, w1, w2):
        feat = batch_normalize(feat, norm, train)
        feat = spatial_graph_conv(feat, w1, adjacency)
        feat = T.relu(feat)
        return spatial_graph_conv(feat, w2, adjacency)

    vec = stream(T.matmul(x, bones), params.vec_norm,
                 params.vec_conv1, params.vec_conv2)
    pos = stream(x, params.pos_norm, params.pos_conv1, params.pos_conv2)
    return T.concat_channels(vec, pos)


# ---------------------------------------------------------------------------
# classification head


@dataclass
class ClassifierHead:
    """Global average pool over frames and nodes, then an affine map to logits.

    Zero initialization keeps initial logits uniform and makes training
    equivariant to class relabeling.
    """

    w: Parameter  # (channels, classes)
    b: Parameter  # (classes,)

    @classmethod
    def init(cls, channels: int, classes: int, rng=None, dtype=np.float32):
        return cls(w=Parameter(np.zeros((channels, classes)), dtype=dtype),
                   b=Parameter(np.zeros(classes), dtype=dtype))

    def affine(self, pooled: Tensor) -> Tensor:
        return T.add_bias(T.matmul(pooled, self.w), self.b)


def global_average(x: Tensor) -> Tensor:
    return T.tmean(x, axes=(2, 3))


def classifier_head(x: Tensor, head: ClassifierHead) -> Tensor:
    """Logits from a (batch, channels, frames, nodes) map or pooled (batch, channels)."""
    return head.affine(global_average(x) if x.ndim == 4 else x)
