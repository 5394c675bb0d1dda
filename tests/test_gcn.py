"""Spatial-temporal graph convolution block and batch normalization."""

import numpy as np
import pytest

from skelpool import tensor as T
from skelpool.gcn import (BatchNorm, GraphConvParams, batch_normalize, gcn_block,
                          spatial_graph_conv)
from skelpool.skeleton import SkeletonTopology, normalized_adjacency
from skelpool.tensor import Tensor


def rand(shape, seed, dtype=np.float64):
    return Tensor(np.random.default_rng(seed).standard_normal(shape).astype(dtype))


class TestSpatialGraphConv:
    def test_identity_adjacency_and_weight(self):
        x = rand((2, 3, 4, 1), seed=0)
        out = spatial_graph_conv(x, Tensor(np.eye(3)), Tensor(np.eye(1)))
        assert np.allclose(out.data, x.data)

    def test_constant_nodes_scale_by_column_sums(self):
        # constant features across nodes pick up each node's adjacency column sum
        adj = np.array([[0.2, 0.5, 0.1],
                        [0.5, 0.1, 0.2],
                        [0.1, 0.2, 0.6]])
        x = np.ones((1, 2, 3, 3))
        out = spatial_graph_conv(Tensor(x), Tensor(np.eye(2)), Tensor(adj)).data
        want = np.ones((1, 2, 3, 1)) * adj.sum(axis=0)[None, None, None, :]
        assert np.allclose(out, want)

    def test_matches_dense_matrix_oracle(self):
        x = rand((1, 3, 2, 4), seed=1)
        w = rand((3, 5), seed=2)
        topo = SkeletonTopology("chain4", 4, ((1, 2), (2, 3), (3, 4)))
        adj = normalized_adjacency(topo)
        got = spatial_graph_conv(x, w, Tensor(adj)).data
        want = np.zeros((1, 5, 2, 4))
        for t in range(2):
            want[0, :, t, :] = (w.data.T @ x.data[0, :, t, :]) @ adj
        assert np.abs(got - want).max() <= 1e-9

    def test_linearity(self):
        w = rand((3, 4), seed=3)
        adj = Tensor(normalized_adjacency(
            SkeletonTopology("tri", 3, ((1, 2), (2, 3)))))
        x1, x2 = rand((1, 3, 2, 3), seed=4), rand((1, 3, 2, 3), seed=5)
        a, b = 1.7, -0.4
        lhs = spatial_graph_conv(Tensor(a * x1.data + b * x2.data), w, adj).data
        rhs = a * spatial_graph_conv(x1, w, adj).data \
            + b * spatial_graph_conv(x2, w, adj).data
        assert np.abs(lhs - rhs).max() <= 1e-9

    def test_wrong_adjacency_size_rejected(self):
        with pytest.raises(ValueError, match="adjacency"):
            spatial_graph_conv(rand((1, 3, 2, 4), seed=6), Tensor(np.eye(3)),
                               Tensor(np.eye(3)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c_in, c_out", [(3, 7), (7, 3), (5, 5)])
    def test_either_operator_order_matches_einsum(self, dtype, c_in, c_out):
        # widening maps aggregate first, the others map channels first
        rng = np.random.default_rng(30)
        x = Tensor(rng.standard_normal((2, c_in, 3, 6)).astype(dtype))
        w = Tensor(rng.standard_normal((c_in, c_out)).astype(dtype))
        adj = Tensor(rng.standard_normal((6, 6)).astype(dtype))
        r = rng.standard_normal((2, c_out, 3, 6)).astype(dtype)
        with T.Tape() as tape:
            out = spatial_graph_conv(x, w, adj)
            loss = T.tsum(T.mul(out, Tensor(r)))
        record = [e.op for e in tape.entries[:2]]
        assert record == (["matmul", "conv1x1"] if c_in < c_out else ["conv1x1", "matmul"])
        gx, gw, gadj = T.gradients(tape, loss, [x, w, adj])
        xd, wd, ad = (t.data.astype(np.float64) for t in (x, w, adj))
        tol = dict(rtol=1e-4, atol=1e-4) if dtype == np.float32 else dict(rtol=1e-10,
                                                                          atol=1e-10)
        np.testing.assert_allclose(out.data, np.einsum("bctn,co,nm->botm", xd, wd, ad), **tol)
        np.testing.assert_allclose(gx.data, np.einsum("botm,co,nm->bctn", r, wd, ad), **tol)
        np.testing.assert_allclose(gw.data, np.einsum("bctn,nm,botm->co", xd, ad, r), **tol)
        np.testing.assert_allclose(gadj.data, np.einsum("bctn,co,botm->nm", xd, wd, r),
                                   **tol)


class TestTemporalConv:
    def test_kernel_one_identity_weight(self):
        x = rand((2, 3, 5, 2), seed=7)
        w = Tensor(np.eye(3)[:, :, None])
        assert np.allclose(T.temporal_conv(x, w).data, x.data)

    def test_impulse_response(self):
        x = np.zeros((1, 1, 4, 1))
        x[0, 0, 1, 0] = 1.0
        w = np.array([0.25, 0.5, 0.25]).reshape(1, 1, 3)
        out = T.temporal_conv(Tensor(x), Tensor(w)).data.ravel()
        assert np.allclose(out, [0.25, 0.5, 0.25, 0.0])


class TestBatchNorm:
    def test_constant_input_maps_to_zero(self):
        bn = BatchNorm.init(3, dtype=np.float64)
        x = Tensor(np.full((2, 3, 4, 5), 7.0))
        out = batch_normalize(x, bn, train=True)
        assert np.allclose(out.data, 0.0, atol=1e-6)

    def test_zero_gamma_returns_beta(self):
        bn = BatchNorm.init(3, dtype=np.float64)
        bn.gamma.assign(np.zeros(3))
        bn.beta.assign(np.array([1.0, -2.0, 0.5]))
        out = batch_normalize(rand((2, 3, 4, 5), seed=10), bn, train=True)
        assert np.allclose(out.data, bn.beta.data[None, :, None, None])

    def test_train_mode_standardizes_per_channel(self):
        bn = BatchNorm.init(4, dtype=np.float64)
        x = rand((3, 4, 5, 6), seed=11)
        out = batch_normalize(x, bn, train=True).data
        mean = out.mean(axis=(0, 2, 3))
        var = out.var(axis=(0, 2, 3))
        assert np.abs(mean).max() <= 1e-6
        assert np.abs(var - 1).max() <= 1e-3

    def test_eval_mode_is_pure_function_of_saved_moments(self):
        bn = BatchNorm.init(3, dtype=np.float64)
        batch_normalize(rand((4, 3, 2, 2), seed=12), bn, train=True)
        saved = (bn.running_mean.copy(), bn.running_var.copy())
        x = rand((2, 3, 2, 2), seed=13)
        a = batch_normalize(x, bn, train=False).data
        b = batch_normalize(x, bn, train=False).data
        assert np.array_equal(a, b)
        assert np.array_equal(saved[0], bn.running_mean)
        assert np.array_equal(saved[1], bn.running_var)

    def test_train_mode_updates_running_moments(self):
        bn = BatchNorm.init(2, dtype=np.float64)
        before = bn.running_mean.copy()
        batch_normalize(Tensor(np.full((2, 2, 2, 2), 3.0)), bn, train=True)
        assert not np.array_equal(before, bn.running_mean)

    def test_empty_batch_rejected(self):
        bn = BatchNorm.init(2, dtype=np.float64)
        with pytest.raises(ValueError, match="empty"):
            batch_normalize(Tensor(np.zeros((0, 2, 2, 2))), bn, train=True)


class TestGcnBlock:
    def _adj(self, n=4):
        edges = tuple((i, i + 1) for i in range(1, n))
        return Tensor(normalized_adjacency(SkeletonTopology("chain", n, edges)))

    def test_shape_preserved_for_equal_channels(self):
        params = GraphConvParams.init(3, 3, kernel=3,
                                      rng=np.random.default_rng(14), dtype=np.float64)
        x = rand((2, 3, 6, 4), seed=15)
        out = gcn_block(x, params, self._adj(), train=True)
        assert out.shape == x.shape

    def test_channel_change_drops_residual(self):
        params = GraphConvParams.init(3, 5, kernel=3,
                                      rng=np.random.default_rng(16), dtype=np.float64)
        out = gcn_block(rand((2, 3, 6, 4), seed=17), params, self._adj(), train=True)
        assert out.shape == (2, 5, 6, 4)

    def test_tape_holds_four_activation_sized_arrays(self):
        # spatial conv (two), then each norm with its skip and rectifier as one
        # operator: the normalized pre-activations and the sum are never stored
        params = GraphConvParams.init(3, 3, kernel=3,
                                      rng=np.random.default_rng(20), dtype=np.float64)
        x = rand((2, 3, 6, 4), seed=21)
        with T.Tape() as tape:
            out = gcn_block(x, params, self._adj(), train=True)
        assert [e.op for e in tape.entries] == \
            ["conv1x1", "matmul", "batch_norm", "temporal_conv", "batch_norm"]
        held = {id(t.data) for e in tape.entries for t in (*e.inputs, e.output)
                if t.shape == x.shape}
        assert len(held - {id(x.data), id(out.data)}) == 4

    def test_eval_mode_fuses_the_same_chain(self):
        params = GraphConvParams.init(3, 3, kernel=3,
                                      rng=np.random.default_rng(22), dtype=np.float64)
        x = rand((2, 3, 6, 4), seed=23)
        with T.shape_record() as record:
            gcn_block(x, params, self._adj(), train=False)
        assert [op for _, op, _, _ in record] == \
            ["conv1x1", "matmul", "channel_affine", "temporal_conv", "channel_affine"]
        assert record[-1][2][3] == x.shape  # the skip enters the last operator

    def test_eval_forward_deterministic(self):
        params = GraphConvParams.init(3, 3, kernel=3,
                                      rng=np.random.default_rng(18), dtype=np.float64)
        x = rand((2, 3, 6, 4), seed=19)
        gcn_block(x, params, self._adj(), train=True)  # populate running moments
        a = gcn_block(x, params, self._adj(), train=False).data
        b = gcn_block(x, params, self._adj(), train=False).data
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_running_moments_use_the_statistics_the_op_normalized_with(dtype, monkeypatch):
    bn = BatchNorm.init(4, dtype=dtype)
    bn.momentum = 1.0  # from zero, running moments become the batch moments
    bn.running_var[:] = 0.0
    x = Tensor((2.0 * np.random.default_rng(27).standard_normal((3, 4, 5, 6)) - 1.0)
               .astype(dtype))
    used = []
    op = T.batch_norm_train

    def spy(*args, **kwargs):
        used.append(kwargs["moments"])
        return op(*args, **kwargs)

    monkeypatch.setattr(T, "batch_norm_train", spy)
    train_out = batch_normalize(x, bn, train=True).data
    (mu, var), = used
    assert np.array_equal(bn.running_mean, mu) and np.array_equal(bn.running_var, var)
    tol = 1e-5 if dtype == np.float32 else 1e-12
    np.testing.assert_allclose(mu, x.data.mean(axis=(0, 2, 3)), rtol=tol, atol=tol)
    np.testing.assert_allclose(var, x.data.var(axis=(0, 2, 3)), rtol=tol, atol=tol)
    # eval mode from those moments reproduces the train-mode normalization
    np.testing.assert_allclose(batch_normalize(x, bn, train=False).data, train_out,
                               rtol=10 * tol, atol=10 * tol)
