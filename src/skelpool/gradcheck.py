"""Finite-difference verification of every registered operator and composite.

The oracle side never touches the reverse-mode machinery: it evaluates the
forward pass at perturbed inputs only. `operator_cases` covers the closed
primitive set from `tensor`; `composite_cases` covers the assembled blocks
(correlation, spatial pooling, cross fusion, input supplement, classifier
head). The CLI `gradcheck` subcommand and the acceptance suite both run
`run_all`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
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
    gradients, absolute below that scale.
    """
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


def _weighted_sum(out: Tensor, const: Tensor) -> Tensor:
    return T.tsum(T.mul(out, const))


def _simple(name, op_builder):
    """Case template: loss = sum(op(leaves...) * fixed_random_weights)."""

    def build(rng, dtype):
        op, leaves, out_shape = op_builder(rng, dtype)
        w = Tensor(rng.standard_normal(out_shape).astype(dtype))
        return (lambda: _weighted_sum(op(), w)), leaves

    return CheckCase(name, build)


def operator_cases() -> list[CheckCase]:
    """One check per registered primitive operator (some get two shape regimes)."""
    cases = []

    def pointwise(name, fn):
        def builder(rng, dtype):
            a, b = _rand(rng, (3, 4), dtype), _rand(rng, (3, 4), dtype)
            return (lambda: fn(a, b)), [a, b], (3, 4)
        return _simple(name, builder)

    cases += [pointwise("add", T.add), pointwise("sub", T.sub), pointwise("mul", T.mul)]

    def scale_builder(rng, dtype):
        x = _rand(rng, (2, 5), dtype)
        c = float(rng.uniform(-2, 2))
        return (lambda: T.scale(x, c)), [x], (2, 5)
    cases.append(_simple("scale", scale_builder))

    def add_bias_builder(rng, dtype):
        x, b = _rand(rng, (2, 4, 3, 2), dtype), _rand(rng, (4,), dtype)
        return (lambda: T.add_bias(x, b)), [x, b], (2, 4, 3, 2)
    cases.append(_simple("add_bias", add_bias_builder))

    def affine_builder(rng, dtype):
        x = _rand(rng, (2, 4, 3, 2), dtype)
        g, b = _rand(rng, (4,), dtype), _rand(rng, (4,), dtype)
        return (lambda: T.channel_affine(x, g, b)), [x, g, b], (2, 4, 3, 2)
    cases.append(_simple("channel_affine", affine_builder))

    def expand_builder(rng, dtype):
        x = _rand(rng, (2, 1, 3, 1), dtype)
        return (lambda: T.expand(x, (2, 4, 3, 2))), [x], (2, 4, 3, 2)
    cases.append(_simple("expand", expand_builder))

    for name, fn in (("tanh", T.tanh), ("sigmoid", T.sigmoid), ("softmax", T.softmax)):
        def unary_builder(rng, dtype, fn=fn):
            x = _rand(rng, (3, 5), dtype)
            return (lambda: fn(x)), [x], (3, 5)
        cases.append(_simple(name, unary_builder))

    def relu_builder(rng, dtype):
        x = _away_from_zero(rng, (3, 5), dtype)
        return (lambda: T.relu(x)), [x], (3, 5)
    cases.append(_simple("relu", relu_builder))

    def sum_builder(rng, dtype):
        x = _rand(rng, (2, 3, 4), dtype)
        return (lambda: T.tsum(x, axes=(0, 2))), [x], (3,)
    cases.append(_simple("sum", sum_builder))

    def mean_builder(rng, dtype):
        x = _rand(rng, (2, 3, 4), dtype)
        return (lambda: T.tmean(x, axes=(1,))), [x], (2, 4)
    cases.append(_simple("mean", mean_builder))

    def matmul_builder(rng, dtype):
        a, b = _rand(rng, (4, 3), dtype), _rand(rng, (3, 2), dtype)
        return (lambda: T.matmul(a, b)), [a, b], (4, 2)
    cases.append(_simple("matmul", matmul_builder))

    def matmul_batched_builder(rng, dtype):
        a, b = _rand(rng, (2, 3, 4, 3), dtype), _rand(rng, (3, 2), dtype)
        return (lambda: T.matmul(a, b)), [a, b], (2, 3, 4, 2)
    cases.append(_simple("matmul_batched", matmul_batched_builder))

    def conv1x1_builder(rng, dtype):
        x, w = _rand(rng, (2, 6, 3, 4), dtype), _rand(rng, (6, 2), dtype)
        return (lambda: T.conv1x1(x, w)), [x, w], (2, 2, 3, 4)
    cases.append(_simple("conv1x1", conv1x1_builder))

    for stride in (1, 2):
        def tconv_builder(rng, dtype, stride=stride):
            x, w = _rand(rng, (2, 3, 7, 2), dtype), _rand(rng, (4, 3, 5), dtype)
            t_out = -(-7 // stride)
            return (lambda: T.temporal_conv(x, w, stride=stride)), [x, w], (2, 4, t_out, 2)
        cases.append(_simple(f"temporal_conv_s{stride}", tconv_builder))

    def pairavg_builder(rng, dtype):
        x = _rand(rng, (2, 3, 5, 2), dtype)  # odd frame count hits the pass-through path
        return (lambda: T.pair_avg_time(x)), [x], (2, 3, 3, 2)
    cases.append(_simple("pair_avg_time", pairavg_builder))

    def concat_builder(rng, dtype):
        a, b = _rand(rng, (2, 3, 2, 2), dtype), _rand(rng, (2, 2, 2, 2), dtype)
        return (lambda: T.concat_channels(a, b)), [a, b], (2, 5, 2, 2)
    cases.append(_simple("concat_channels", concat_builder))

    def reshape_builder(rng, dtype):
        x = _rand(rng, (2, 6), dtype)
        return (lambda: T.reshape(x, (3, 4))), [x], (3, 4)
    cases.append(_simple("reshape", reshape_builder))

    def transpose_builder(rng, dtype):
        x = _rand(rng, (2, 3, 4), dtype)
        return (lambda: T.transpose(x, (2, 0, 1))), [x], (4, 2, 3)
    cases.append(_simple("transpose", transpose_builder))

    def bn_builder(rng, dtype):
        x = _rand(rng, (3, 4, 2, 2), dtype)
        g = Tensor(rng.uniform(0.5, 1.5, size=4).astype(dtype))
        b = _rand(rng, (4,), dtype)
        return (lambda: T.batch_norm_train(x, g, b)), [x, g, b], (3, 4, 2, 2)
    cases.append(_simple("batch_norm", bn_builder))

    def ce_builder(rng, dtype):
        logits = _rand(rng, (4, 5), dtype)
        labels = rng.integers(0, 5, size=4)
        return (lambda: T.cross_entropy(logits, labels)), [logits]
    cases.append(CheckCase("cross_entropy", ce_builder))

    return cases


def _chain4():
    from .skeleton import SkeletonTopology
    return SkeletonTopology(name="chain4", node_count=4,
                            edges=((1, 2), (2, 3), (3, 4)),
                            parents={2: 1, 3: 2, 4: 3})


def composite_cases() -> list[CheckCase]:
    """Gradient checks through the assembled model pieces."""
    # local imports: these modules build on tensor, which imports nothing here
    from . import blocks, gcn, pooling
    from .skeleton import (build_assignment, coarsen_pattern, normalize_pattern,
                           normalized_adjacency, raw_adjacency)

    cases = []

    def corr_builder(rng, dtype):
        params = pooling.PoolingParams.init(channels=4, ratio=2, rng=rng, dtype=dtype)
        x = _rand(rng, (1, 4, 3, 5), dtype)
        w = Tensor(rng.standard_normal((1, 3, 5)).astype(dtype))
        leaves = [x, params.w_phi, params.w_psi]
        return (lambda: _weighted_sum(pooling.correlation(x, params), w)), leaves
    cases.append(CheckCase("correlation", corr_builder))

    assign = np.zeros((5, 2))
    assign[[0, 1, 2], 0] = 1.0
    assign[[2, 3, 4], 1] = 1.0  # node 2 overlaps both regions

    def spool_builder(rng, dtype):
        params = pooling.PoolingParams.init(channels=4, ratio=2, rng=rng, dtype=dtype)
        x = _rand(rng, (1, 4, 3, 5), dtype)
        p = Tensor(assign.astype(dtype))
        w = Tensor(rng.standard_normal((1, 4, 3, 2)).astype(dtype))

        def thunk():
            r = pooling.correlation(x, params)
            return _weighted_sum(pooling.spatial_pool(x, r, p), w)
        return thunk, [x, params.w_phi, params.w_psi]
    cases.append(CheckCase("spatial_pool", spool_builder))

    def stpool_builder(rng, dtype):
        params = pooling.PoolingParams.init(channels=4, ratio=2, rng=rng, dtype=dtype)
        x = _rand(rng, (1, 4, 4, 5), dtype)
        p = Tensor(assign.astype(dtype))
        w = Tensor(rng.standard_normal((1, 4, 2, 2)).astype(dtype))
        return (lambda: _weighted_sum(pooling.st_pool(x, params, p), w)), \
            [x, params.w_phi, params.w_psi]
    cases.append(CheckCase("st_pool", stpool_builder))

    def cfb_builder(rng, dtype):
        topo = _chain4()
        fine = Tensor(normalized_adjacency(topo).astype(dtype))
        p_arr = build_assignment(4, [((1, 2), 1), ((3, 4), 2)])
        coarse = Tensor(
            normalize_pattern(coarsen_pattern(raw_adjacency(topo), p_arr)).astype(dtype))
        p = Tensor(p_arr.astype(dtype))
        params = blocks.CrossFusionParams.init(
            c_in=4, c_out=4, ratio=2, kernel=3, fuse="sum", weight=0.5,
            rng=rng, dtype=dtype)
        x = _rand(rng, (1, 4, 4, 4), dtype)
        w = Tensor(rng.standard_normal((1, 4, 2, 2)).astype(dtype))

        def thunk():
            y = blocks.cross_fusion_block(x, params, p, coarse, fine, train=True)
            return _weighted_sum(y, w)
        return thunk, [x] + [t for _, t in T.named_leaves(params, "cfb", T.Parameter)]
    cases.append(CheckCase("cross_fusion_block", cfb_builder))

    def ism_builder(rng, dtype):
        topo = _chain4()
        adj = Tensor(normalized_adjacency(topo).astype(dtype))
        params = blocks.IsmParams.init(channels=3, rng=rng, dtype=dtype)
        x = _rand(rng, (1, 3, 3, 4), dtype)
        w = Tensor(rng.standard_normal((1, 6, 3, 4)).astype(dtype))

        def thunk():
            y = blocks.information_supplement(x, params, topo, adj, train=True)
            return _weighted_sum(y, w)
        return thunk, [x] + [t for _, t in T.named_leaves(params, "ism", T.Parameter)]
    cases.append(CheckCase("information_supplement", ism_builder))

    def head_builder(rng, dtype):
        head = blocks.ClassifierHead.init(channels=3, classes=4, rng=rng, dtype=dtype)
        # zero-init head params would hide errors; perturb them for the check
        head.w.data = rng.standard_normal(head.w.shape).astype(dtype)
        head.b.data = rng.standard_normal(head.b.shape).astype(dtype)
        x = _rand(rng, (2, 3, 4, 5), dtype)
        w = Tensor(rng.standard_normal((2, 4)).astype(dtype))
        return (lambda: _weighted_sum(blocks.classifier_head(x, head), w)), [x, head.w, head.b]
    cases.append(CheckCase("classifier_head", head_builder))

    def gcnblock_builder(rng, dtype):
        topo = _chain4()
        adj = Tensor(normalized_adjacency(topo).astype(dtype))
        params = gcn.GraphConvParams.init(c_in=3, c_out=3, kernel=3, rng=rng, dtype=dtype)
        x = _rand(rng, (1, 3, 4, 4), dtype)
        w = Tensor(rng.standard_normal((1, 3, 4, 4)).astype(dtype))

        def thunk():
            return _weighted_sum(gcn.gcn_block(x, params, adj, train=True), w)
        return thunk, [x] + [t for _, t in T.named_leaves(params, "gcn", T.Parameter)]
    cases.append(CheckCase("gcn_block", gcnblock_builder))

    return cases


def run_all(seeds=range(10), dtype=np.float64, eps: float = 1e-5, tol: float = 1e-4,
            names=None):
    """Run every case; returns (name, max_rel_err, passed) triples."""
    results = []
    for case in operator_cases() + composite_cases():
        if names is not None and case.name not in names:
            continue
        err = check_gradients(case, seeds=seeds, dtype=dtype, eps=eps)
        results.append((case.name, err, err <= tol))
    return results
