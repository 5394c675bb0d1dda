"""Region-aware spatial pooling and temporal pair pooling against loop oracles."""

import numpy as np
import pytest

from skelpool import tensor as T
from skelpool.gradcheck import _fd_on_leaf
from skelpool.pooling import PoolingParams, correlation, spatial_pool, st_pool
from skelpool.skeleton import build_assignment, builtin_partition
from skelpool.tensor import Tape, Tensor, gradients


def loop_correlation(x, w_phi, w_psi, sigma=np.tanh):
    """Direct double-loop evaluation of the per-frame mean similarity."""
    b, c, t, n = x.shape
    out = np.zeros((b, t, n))
    for bi in range(b):
        for ti in range(t):
            feats = x[bi, :, ti, :]            # (c, n)
            phi = w_phi.T @ feats              # (p, n)
            psi = w_psi.T @ feats
            for i in range(n):
                acc = 0.0
                for j in range(n):
                    acc += float(phi[:, i] @ psi[:, j])
                out[bi, ti, i] = sigma(acc / n)
    return out


def loop_spatial_pool(x, corr, assign, residual=True):
    """Triple-loop evaluation of the weighted region sum."""
    b, c, t, n = x.shape
    m = assign.shape[1]
    out = np.zeros((b, c, t, m))
    for bi in range(b):
        for ci in range(c):
            for ti in range(t):
                for j in range(m):
                    acc = 0.0
                    for i in range(n):
                        w = corr[bi, ti, i] * assign[i, j]
                        if residual:
                            w += assign[i, j]
                        acc += x[bi, ci, ti, i] * w
                    out[bi, ci, ti, j] = acc
    return out


def make_params(channels, ratio, seed, sigma="tanh"):
    return PoolingParams.init(channels, ratio=ratio, sigma=sigma,
                              rng=np.random.default_rng(seed), dtype=np.float64)


class TestCorrelation:
    def test_zero_input_gives_zero_field(self):
        params = make_params(8, 4, seed=0)
        x = Tensor(np.zeros((2, 8, 3, 5)))
        assert np.array_equal(correlation(x, params).data, np.zeros((2, 3, 5)))

    def test_tanh_keeps_values_inside_open_unit_interval(self):
        params = make_params(8, 4, seed=1)
        x = Tensor(np.random.default_rng(2).standard_normal((2, 8, 3, 5)))
        r = correlation(x, params).data
        assert (np.abs(r) < 1).all()
        # extreme inputs saturate but never exceed the bound
        big = correlation(Tensor(x.data * 50), params).data
        assert (np.abs(big) <= 1).all()

    def test_matches_double_loop_oracle(self):
        params = make_params(8, 4, seed=3)
        x = np.random.default_rng(4).standard_normal((1, 8, 2, 4))
        got = correlation(Tensor(x), params).data
        want = loop_correlation(x, params.w_phi.data, params.w_psi.data)
        assert np.abs(got - want).max() <= 1e-9

    def test_forms_no_node_by_node_tensor(self):
        # the node-mean identity pairs each node with one mean vector per frame
        params = make_params(8, 4, seed=12)
        with T.shape_record() as record:
            correlation(Tensor(np.ones((2, 8, 3, 5))), params)
        assert all(out[-2:] != (5, 5) for _, _, _, out in record)
        assert ("matmul", ((2, 3, 5, 2), (2, 3, 2, 1)), (2, 3, 5, 1)) in \
            [(op, ins, out) for _, op, ins, out in record]

    def test_softmax_sigma_sums_to_one_over_nodes(self):
        params = make_params(8, 4, seed=5, sigma="softmax")
        x = Tensor(np.random.default_rng(6).standard_normal((2, 8, 3, 5)))
        r = correlation(x, params).data
        assert np.allclose(r.sum(axis=-1), 1.0)

    def test_channel_mismatch_rejected(self):
        params = make_params(8, 4, seed=7)
        with pytest.raises(ValueError, match="channels"):
            correlation(Tensor(np.zeros((1, 6, 2, 3))), params)

    def test_ratio_must_divide_channels(self):
        with pytest.raises(ValueError, match="divisible"):
            make_params(6, 4, seed=8)


class TestSpatialPool:
    def test_zero_correlation_reduces_to_structural_pooling(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 4, 5))
        assign = build_assignment(5, [((1, 2), 1), ((3, 4, 5), 2)])
        corr = Tensor(np.zeros((2, 4, 5)))
        got = spatial_pool(Tensor(x), corr, Tensor(assign)).data
        assert np.allclose(got, x @ assign)

    def test_identity_assignment_zero_correlation_is_identity(self):
        x = np.random.default_rng(10).standard_normal((1, 2, 3, 4))
        got = spatial_pool(Tensor(x), Tensor(np.zeros((1, 3, 4))),
                           Tensor(np.eye(4))).data
        assert np.allclose(got, x)

    def test_matches_triple_loop_on_overlapping_stage(self):
        rng = np.random.default_rng(11)
        stage = list(builtin_partition("ntu25").stages[0])
        assign = build_assignment(25, stage)
        x = rng.standard_normal((1, 4, 2, 25))
        params = make_params(4, 2, seed=12)
        corr = correlation(Tensor(x), params)
        got = spatial_pool(Tensor(x), corr, Tensor(assign)).data
        want = loop_spatial_pool(x, corr.data, assign)
        assert np.abs(got - want).max() <= 1e-9

    def test_no_residual_mode_matches_loop(self):
        rng = np.random.default_rng(13)
        assign = build_assignment(4, [((1, 2, 3), 1), ((3, 4), 2)])
        x = rng.standard_normal((2, 3, 2, 4))
        corr = rng.uniform(-0.9, 0.9, size=(2, 2, 4))
        got = spatial_pool(Tensor(x), Tensor(corr), Tensor(assign),
                           residual=False).data
        want = loop_spatial_pool(x, corr, assign, residual=False)
        assert np.abs(got - want).max() <= 1e-9

    def test_randomized_small_graph_equivalence(self):
        rng = np.random.default_rng(14)
        for trial in range(20):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n + 1))
            assign = np.zeros((n, m))
            for i in range(n):
                assign[i, rng.integers(0, m)] = 1.0
            assign[rng.integers(0, n), rng.integers(0, m)] = 1.0  # overlap chance
            for j in range(m):  # every region non-empty
                if not assign[:, j].any():
                    assign[rng.integers(0, n), j] = 1.0
            x = rng.standard_normal((1, 2, 2, n))
            corr = rng.uniform(-1, 1, size=(1, 2, n))
            got = spatial_pool(Tensor(x), Tensor(corr), Tensor(assign)).data
            want = loop_spatial_pool(x, corr, assign)
            assert np.abs(got - want).max() <= 1e-9

    def test_magnitude_bound_under_tanh(self):
        rng = np.random.default_rng(15)
        params = make_params(4, 2, seed=16)
        assign = build_assignment(5, [((1, 2, 3), 1), ((3, 4, 5), 2)])
        x = rng.standard_normal((2, 4, 3, 5)) * 2
        corr = correlation(Tensor(x), params)
        out = spatial_pool(Tensor(x), corr, Tensor(assign)).data
        col = assign.sum(axis=0)
        peak = np.abs(x).max(axis=3)  # (b, c, t)
        bound = 2.0 * peak[..., None] * col[None, None, None, :]
        assert (np.abs(out) <= bound + 1e-9).all()

    def test_within_region_permutation_equivariance(self):
        rng = np.random.default_rng(17)
        assign = build_assignment(5, [((1, 2, 3), 1), ((4, 5), 2)])
        params = make_params(4, 2, seed=18)
        x = rng.standard_normal((1, 4, 2, 5))
        perm = [1, 2, 0, 3, 4]  # rotate joints 1,2,3 inside region 1
        base = spatial_pool(Tensor(x), correlation(Tensor(x), params),
                            Tensor(assign)).data
        xp = x[:, :, :, perm]
        pp = assign[perm, :]
        other = spatial_pool(Tensor(xp), correlation(Tensor(xp), params),
                             Tensor(pp)).data
        assert np.abs(base - other).max() <= 1e-12

    def test_builtin_stages_strictly_reduce_nodes(self):
        for name in ("ntu25", "uwa15"):
            counts = builtin_partition(name).node_counts
            assert all(b < a for a, b in zip(counts, counts[1:]))


class TestTemporalPool:
    def test_pair_average_values(self):
        x = Tensor(np.array([1.0, 3.0, 5.0, 7.0]).reshape(1, 1, 4, 1))
        assert np.array_equal(T.pair_avg_time(x).data.ravel(), [2.0, 6.0])

    def test_single_frame_passes_through(self):
        x = Tensor(np.random.default_rng(19).standard_normal((2, 3, 1, 4)))
        assert np.array_equal(T.pair_avg_time(x).data, x.data)

    def test_three_applications_take_64_frames_to_8(self):
        x = Tensor(np.random.default_rng(20).standard_normal((1, 2, 64, 3)))
        for want in (32, 16, 8):
            x = T.pair_avg_time(x)
            assert x.shape[2] == want


class TestStPool:
    def test_zero_input_gives_zero_output(self):
        params = make_params(4, 2, seed=21)
        assign = Tensor(build_assignment(4, [((1, 2), 1), ((3, 4), 2)]))
        out = st_pool(Tensor(np.zeros((1, 4, 4, 4))), params, assign)
        assert np.array_equal(out.data, np.zeros((1, 4, 2, 2)))

    def test_shape_contract_on_first_stage(self):
        params = make_params(8, 4, seed=22)
        assign = Tensor(build_assignment(25, list(builtin_partition("ntu25").stages[0])))
        out = st_pool(Tensor(np.random.default_rng(23).standard_normal((1, 8, 4, 25))),
                      params, assign)
        assert out.shape == (1, 8, 2, 10)

    def test_projection_gradient_nonzero_and_matches_fd(self):
        params = make_params(4, 2, seed=24)
        assign = Tensor(build_assignment(4, [((1, 2, 3), 1), ((3, 4), 2)]).astype(np.float64))
        x = Tensor(np.random.default_rng(25).standard_normal((1, 4, 4, 4)))
        weights = Tensor(np.random.default_rng(26).standard_normal((1, 4, 2, 2)))

        def thunk():
            return T.tsum(T.mul(st_pool(x, params, assign), weights))

        with Tape() as tape:
            out = thunk()
        gs = gradients(tape, out, [params.w_phi])
        assert np.abs(gs[params.w_phi].data).max() > 0
        fd = _fd_on_leaf(thunk, params.w_phi, eps=1e-5)
        rel = np.abs(gs[params.w_phi].data - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() <= 1e-4

    def test_structural_mode_drops_correlation(self):
        assign = Tensor(build_assignment(4, [((1, 2), 1), ((3, 4), 2)]))
        x = np.random.default_rng(27).standard_normal((1, 3, 4, 4))
        got = st_pool(Tensor(x), None, assign).data
        paired = (x[:, :, 0::2] + x[:, :, 1::2]) / 2
        assert np.allclose(got, paired @ assign.data)

    def test_correlation_export_hook(self):
        params = make_params(4, 2, seed=28)
        assign = Tensor(build_assignment(4, [((1, 2), 1), ((3, 4), 2)]))
        sink = []
        st_pool(Tensor(np.random.default_rng(29).standard_normal((2, 4, 4, 4))),
                params, assign, corr_out=sink)
        assert len(sink) == 1 and sink[0].shape == (2, 4, 4)
