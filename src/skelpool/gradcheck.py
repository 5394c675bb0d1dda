"""Finite-difference verification of every registered operator and composite.

The oracle side never touches the reverse-mode machinery: it evaluates the
forward pass at perturbed inputs only. `operator_cases` covers the closed
primitive set from `tensor`; `composite_cases` covers the assembled blocks
(correlation, spatial pooling, cross fusion, input supplement, classifier
head). A case gives only its name, its operator or block and its leaves; the
template `WeightedLoss` makes the scalar loss, with weights in the shape of the
operator's output. The CLI `gradcheck` subcommand and the acceptance suite both
run `run_all`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import blocks, gcn, pooling
from . import tensor as T
from .skeleton import (SkeletonTopology, bone_matrix, build_assignment, coarsen_adjacency,
                       normalized_adjacency, raw_adjacency)
from .tensor import Tape, Tensor, gradients


def _fd_on_leaf(thunk: Callable[[], Tensor], leaf: Tensor, eps: float) -> np.ndarray:
    """Central differences of thunk() with respect to one leaf buffer."""
    base = leaf.data
    work = base.copy()
    leaf.data = work
    flat = work.reshape(-1)
    out = np.zeros(base.size, dtype=np.float64)
    try:
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(thunk().data)
            flat[i] = orig - eps
            fm = float(thunk().data)
            flat[i] = orig
            out[i] = (fp - fm) / (2.0 * eps)
    finally:
        leaf.data = base
    return out.reshape(base.shape)


@dataclass
class CheckCase:
    """One named gradient check: build(rng, dtype) -> (thunk, leaves).

    The thunk re-evaluates a scalar from the current leaf buffers, so the
    finite-difference side can perturb leaves in place between calls.
    """

    name: str
    build: Callable


def check_gradients(case: CheckCase, seeds=range(10), dtype=np.float64, eps: float = 1e-5):
    """Max relative error of reverse-mode vs finite differences over all seeds.

    Relative error per element is |a - n| / max(1, |n|): relative for O(1)
    gradients, absolute below that scale. An empty `seeds` raises ValueError:
    a check that ran nothing must not read as a pass.
    """
    given, seeds = seeds, list(seeds)
    if not seeds:
        raise ValueError(f"gradient check needs at least one seed; {given!r} is empty")
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        thunk, leaves = case.build(rng, dtype)
        with Tape() as tape:
            out = thunk()
        gs = gradients(tape, out, leaves)
        for leaf in leaves:
            numeric = _fd_on_leaf(thunk, leaf, eps)
            analytic = gs[leaf].data.astype(np.float64)
            err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
            worst = max(worst, float(err.max()))
    return worst


def _rand(rng, shape, dtype):
    return Tensor(rng.standard_normal(shape).astype(dtype))


def _away_from_zero(rng, shape, dtype, margin=0.1):
    # keeps relu/kink crossings farther than any finite-difference step
    mag = rng.uniform(margin, 1.5, size=shape)
    sign = rng.choice([-1.0, 1.0], size=shape)
    return Tensor((mag * sign).astype(dtype))


def _skip_off_kink(rng, unskipped: Tensor) -> Tensor:
    """A skip leaf that puts every pre-activation of a fused rectifier at
    `_away_from_zero` values, given the operator's output without the skip."""
    target = _away_from_zero(rng, unskipped.shape, unskipped.dtype)
    return Tensor(target.data - unskipped.data)


@dataclass
class WeightedLoss:
    """The case template: loss = sum(forward output * fixed weights).

    `forward(rng, dtype) -> (thunk, leaves)` draws the leaves and returns the
    operator or block applied to them. The weights are standard-normal draws
    in the shape of one run of the thunk, drawn after the leaves. A scalar
    output (cross-entropy) is the loss itself.
    """

    forward: Callable

    def __call__(self, rng, dtype):
        thunk, leaves = self.forward(rng, dtype)
        shape = thunk().shape
        if shape == ():
            return thunk, leaves
        w = _rand(rng, shape, dtype)
        return (lambda: T.tsum(T.mul(thunk(), w))), leaves


def _op_case(name: str, op: Callable, *shapes) -> CheckCase:
    """`op` applied to standard-normal leaves of the given shapes, in order."""

    def forward(rng, dtype):
        leaves = [_rand(rng, shape, dtype) for shape in shapes]
        return (lambda: op(*leaves)), leaves

    return CheckCase(name, WeightedLoss(forward))


def operator_cases() -> list[CheckCase]:
    """One check per recording operator of `tensor` (some get two shape regimes)."""

    def scale(rng, dtype):
        x = _rand(rng, (2, 5), dtype)
        c = float(rng.uniform(-2, 2))
        return (lambda: T.scale(x, c)), [x]

    def relu(rng, dtype):
        x = _away_from_zero(rng, (3, 5), dtype)
        return (lambda: T.relu(x)), [x]

    def batch_norm(rng, dtype):
        x = _rand(rng, (3, 4, 2, 2), dtype)
        g = Tensor(rng.uniform(0.5, 1.5, size=4).astype(dtype))
        b = _rand(rng, (4,), dtype)
        s = _skip_off_kink(rng, T.batch_norm_train(x, g, b))
        return (lambda: T.batch_norm_train(x, g, b, skip=s, rectify=True)), [x, g, b, s]

    def channel_affine(rng, dtype):
        x, g, b = (_rand(rng, shape, dtype) for shape in ((2, 4, 3, 2), (4,), (4,)))
        s = _skip_off_kink(rng, T.channel_affine(x, g, b))
        return (lambda: T.channel_affine(x, g, b, skip=s, rectify=True)), [x, g, b, s]

    def cross_entropy(rng, dtype):
        logits = _rand(rng, (4, 5), dtype)
        labels = rng.integers(0, 5, size=4)
        return (lambda: T.cross_entropy(logits, labels)), [logits]

    return [
        _op_case("add", T.add, (3, 4), (3, 4)),
        _op_case("mul", T.mul, (3, 4), (3, 4)),
        CheckCase("scale", WeightedLoss(scale)),
        _op_case("add_bias", T.add_bias, (2, 4, 3, 2), (4,)),
        CheckCase("channel_affine", WeightedLoss(channel_affine)),
        _op_case("expand", lambda x: T.expand(x, (2, 4, 3, 2)), (2, 1, 3, 1)),
        _op_case("tanh", T.tanh, (3, 5)),
        _op_case("sigmoid", T.sigmoid, (3, 5)),
        _op_case("softmax", T.softmax, (3, 5)),
        CheckCase("relu", WeightedLoss(relu)),
        _op_case("sum", lambda x: T.tsum(x, axes=(0, 2)), (2, 3, 4)),
        _op_case("mean", lambda x: T.tmean(x, axes=(1,)), (2, 3, 4)),
        _op_case("matmul", T.matmul, (4, 3), (3, 2)),
        _op_case("matmul_batched", T.matmul, (2, 3, 4, 3), (3, 2)),
        _op_case("matmul_per_batch", T.matmul, (2, 3, 4, 3), (2, 3, 3, 2)),
        _op_case("assign_pool", T.assign_pool, (2, 3, 4, 5), (2, 4, 5, 3)),
        _op_case("conv1x1", T.conv1x1, (2, 6, 3, 4), (6, 2)),
        _op_case("temporal_conv", T.temporal_conv, (2, 3, 7, 2), (4, 3, 5)),
        # an odd frame count hits the pass-through path
        _op_case("pair_avg_time", T.pair_avg_time, (2, 3, 5, 2)),
        _op_case("concat_channels", T.concat_channels, (2, 3, 2, 2), (2, 2, 2, 2)),
        _op_case("reshape", lambda x: T.reshape(x, (3, 4)), (2, 6)),
        _op_case("transpose", lambda x: T.transpose(x, (2, 0, 1)), (2, 3, 4)),
        CheckCase("batch_norm", WeightedLoss(batch_norm)),
        CheckCase("cross_entropy", WeightedLoss(cross_entropy)),
    ]


def _chain4():
    return SkeletonTopology(name="chain4", node_count=4,
                            edges=((1, 2), (2, 3), (3, 4)),
                            parents={2: 1, 3: 2, 4: 3})


def block_case(name: str, init: Callable, x_shape, block: Callable, *consts) -> CheckCase:
    """block(x, params, *consts): params from init(rng=, dtype=), then a
    standard-normal x; the leaves are x and every parameter of params. The
    constant arrays `consts` (graphs, assignments) enter as tensors of the
    case's dtype."""

    def forward(rng, dtype):
        params = init(rng=rng, dtype=dtype)
        x = _rand(rng, x_shape, dtype)
        args = [Tensor(c.astype(dtype)) for c in consts]
        return (lambda: block(x, params, *args)), \
            [x] + [t for _, t in T.named_leaves(params, "", T.Parameter)]

    return CheckCase(name, WeightedLoss(forward))


def composite_cases() -> list[CheckCase]:
    """Gradient checks through the assembled model pieces."""
    chain = _chain4()
    adj = normalized_adjacency(chain)
    regions = build_assignment(4, [((1, 2), 1), ((3, 4), 2)])
    coarse = coarsen_adjacency(raw_adjacency(chain), regions)
    overlap = build_assignment(5, [((1, 2, 3), 1), ((3, 4, 5), 2)])  # joint 3 is in both regions
    pool = partial(pooling.PoolingParams.init, channels=4, ratio=2)

    def head(rng, dtype):
        head = blocks.ClassifierHead.init(channels=3, classes=4, rng=rng, dtype=dtype)
        # zero-init head params would hide errors; perturb them for the check
        head.w.data = rng.standard_normal(head.w.shape).astype(dtype)
        head.b.data = rng.standard_normal(head.b.shape).astype(dtype)
        return head

    return [
        block_case("correlation", pool, (1, 4, 3, 5), pooling.correlation),
        block_case("spatial_pool", pool, (1, 4, 3, 5), lambda x, params, p:
                   pooling.spatial_pool(x, pooling.correlation(x, params), p), overlap),
        block_case("st_pool", pool, (1, 4, 4, 5), pooling.st_pool, overlap),
        block_case("cross_fusion_block",
                   partial(blocks.CrossFusionParams.init, c_in=4, c_out=4, ratio=2, kernel=3,
                           fuse="sum", weight=0.5),
                   (1, 4, 4, 4), partial(blocks.cross_fusion_block, train=True),
                   regions, coarse, adj),
        block_case("information_supplement", partial(blocks.IsmParams.init, channels=3),
                   (1, 3, 3, 4), partial(blocks.information_supplement, train=True),
                   bone_matrix(chain), adj),
        block_case("classifier_head", head, (2, 3, 4, 5), blocks.classifier_head),
        block_case("gcn_block", partial(gcn.GraphConvParams.init, c_in=3, c_out=3, kernel=3),
                   (1, 3, 4, 4), partial(gcn.gcn_block, train=True), adj),
    ]


def run_all(seeds=range(10), dtype=np.float64, eps: float = 1e-5, tol: float = 1e-4,
            names=None):
    """Run every case, or those in `names` (a name that matches no case raises
    ValueError); returns (name, max_rel_err, passed) triples."""
    cases = operator_cases() + composite_cases()
    if names is not None:
        unknown = set(names) - {case.name for case in cases}
        if unknown:
            raise ValueError(f"unknown gradcheck cases: {', '.join(map(repr, sorted(unknown)))}")
        cases = [case for case in cases if case.name in names]
    errs = [(case.name, check_gradients(case, seeds=seeds, dtype=dtype, eps=eps))
            for case in cases]
    return [(name, err, err <= tol) for name, err in errs]
