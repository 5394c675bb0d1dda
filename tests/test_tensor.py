"""Tensor core: operator semantics, recording, replay, and gradient evaluation."""

import threading
import warnings
import weakref

import numpy as np
import pytest

from skelpool import tensor as T
from skelpool.gradcheck import _fd_on_leaf
from skelpool.tensor import (NonFiniteError, Parameter, Tape, Tensor, gradients,
                             verify_replay)


def scalar(v, dtype=np.float64):
    return Tensor(np.asarray(v, dtype=dtype))


def test_square_gradient_is_two_x():
    x = scalar(3.0)
    with Tape() as tape:
        y = T.mul(x, x)
    (gx,) = gradients(tape, y, [x])
    assert gx.data == pytest.approx(6.0)


def test_tanh_gradient_at_zero_is_one():
    x = scalar(0.0)
    with Tape() as tape:
        y = T.tanh(x)
    (gx,) = gradients(tape, y, [x])
    assert gx.data == pytest.approx(1.0)


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((4, 3)))
    b = Tensor(rng.standard_normal((3, 2)))
    with Tape() as tape:
        out = T.tsum(T.matmul(a, b))
    for leaf, grad in zip((a, b), gradients(tape, out, [a, b])):
        fd = _fd_on_leaf(lambda: T.tsum(T.matmul(a, b)), leaf, eps=1e-5)
        rel = np.abs(grad.data - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() <= 1e-6


class TestConcatChannels:
    def test_channel_counts_and_blocks(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((2, 32, 4, 5)).astype(np.float32))
        b = Tensor(rng.standard_normal((2, 32, 4, 5)).astype(np.float32))
        out = T.concat_channels(a, b)
        assert out.shape == (2, 64, 4, 5)
        assert np.array_equal(out.data[:, :32], a.data)
        assert np.array_equal(out.data[:, 32:], b.data)

    def test_empty_channel_operand_is_identity(self):
        a = Tensor(np.random.default_rng(2).standard_normal((2, 3, 2, 2)))
        b = Tensor(np.zeros((2, 0, 2, 2)))
        assert np.array_equal(T.concat_channels(a, b).data, a.data)

    def test_gradient_of_sum_is_all_ones(self):
        a = Tensor(np.random.default_rng(3).standard_normal((2, 3, 2, 2)))
        b = Tensor(np.random.default_rng(4).standard_normal((2, 2, 2, 2)))
        with Tape() as tape:
            out = T.tsum(T.concat_channels(a, b))
        ga, gb = gradients(tape, out, [a, b])
        assert np.array_equal(ga.data, np.ones_like(a.data))
        assert np.array_equal(gb.data, np.ones_like(b.data))

    def test_non_channel_mismatch_rejected(self):
        a = Tensor(np.zeros((2, 3, 2, 2)))
        b = Tensor(np.zeros((2, 3, 3, 2)))
        with pytest.raises(ValueError):
            T.concat_channels(a, b)


def _small_graph(x, w):
    h = T.tanh(T.matmul(x, w))
    return T.tsum(T.mul(h, h))


def test_replay_reproduces_forward_bitwise():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
    w = Tensor(rng.standard_normal((4, 2)).astype(np.float32))
    with Tape() as tape:
        _small_graph(x, w)
    verify_replay(tape)


def test_forward_is_deterministic():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
    w = Tensor(rng.standard_normal((4, 2)).astype(np.float32))
    assert np.array_equal(_small_graph(x, w).data, _small_graph(x, w).data)


def test_finite_difference_of_sum_is_ones():
    x = Tensor(np.random.default_rng(7).standard_normal((2, 3)))
    fd = _fd_on_leaf(lambda: T.tsum(x), x, eps=1e-5)
    assert np.allclose(fd, 1.0, atol=1e-9)


def test_finite_difference_of_square_at_one():
    x = scalar(1.0)
    fd = _fd_on_leaf(lambda: T.mul(x, x), x, eps=1e-5)
    assert abs(float(fd) - 2.0) <= 1e-9


def test_gradients_reject_non_scalar_output():
    x = Tensor(np.ones((2, 2)))
    with Tape() as tape:
        y = T.tanh(x)
    with pytest.raises(ValueError, match="scalar"):
        gradients(tape, y, [x])


def test_unreachable_leaf_gets_flagged_zero_gradient():
    x, other = scalar(2.0), Tensor(np.ones((3,)))
    with Tape() as tape:
        y = T.mul(x, x)
    gx, gother = gradients(tape, y, [x, other])
    assert np.array_equal(gother.data, np.zeros(3))
    assert gx.data == pytest.approx(4.0)


def test_gradients_come_back_in_the_requested_order():
    x = Tensor(np.array([1.0, 2.0, 3.0]))
    w = Tensor(np.array([-2.0, 0.5, 4.0]))
    for order in ([w, x], [x, w]):
        with Tape() as tape:
            out = T.tsum(T.mul(x, w))  # recorded with x first
        got = gradients(tape, out, order)
        # d/dx sum(x*w) = w and d/dw = x: each leaf's gradient is the other leaf
        want = [w.data if leaf is x else x.data for leaf in order]
        for g, expected in zip(got, want, strict=True):
            np.testing.assert_array_equal(g.data, expected)


def test_duplicate_leaf_rejected():
    x = scalar(1.0)
    with Tape() as tape:
        y = T.mul(x, x)
    with pytest.raises(ValueError, match="duplicate"):
        gradients(tape, y, [x, x])


def test_non_finite_forward_raises_with_operator_name():
    x = scalar(1e300)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as exc:
        T.scale(T.scale(x, 1e300), 1e300)
    assert exc.value.op == "scale"


def test_pointwise_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


def test_mixed_dtype_rejected():
    a = Tensor(np.zeros((2, 2)), dtype=np.float32)
    b = Tensor(np.zeros((2, 2)), dtype=np.float64)
    with pytest.raises(ValueError, match="dtype"):
        T.add(a, b)


def test_parameter_assign_checks_shape():
    p = Parameter(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        p.assign(np.zeros((3, 2)))
    p.assign(np.ones((2, 3)))
    assert np.array_equal(p.data, np.ones((2, 3)))


def test_expand_rejects_non_unit_axes():
    with pytest.raises(ValueError):
        T.expand(Tensor(np.zeros((2, 3))), (2, 6))


def test_temporal_conv_frame_contract():
    # symmetric padding keeps the frame count
    x = Tensor(np.random.default_rng(8).standard_normal((1, 2, 7, 3)))
    w = Tensor(np.random.default_rng(9).standard_normal((4, 2, 3)))
    assert T.temporal_conv(x, w).shape == (1, 4, 7, 3)
    with pytest.raises(ValueError, match="odd"):
        T.temporal_conv(x, Tensor(np.zeros((4, 2, 2))))


def test_pair_avg_time_examples():
    x = Tensor(np.array([1.0, 3.0, 5.0, 7.0]).reshape(1, 1, 4, 1))
    assert np.array_equal(T.pair_avg_time(x).data.ravel(), [2.0, 6.0])
    single = Tensor(np.array([4.0]).reshape(1, 1, 1, 1))
    assert np.array_equal(T.pair_avg_time(single).data, single.data)
    # backward at odd frame counts: a pair halves its gradient between its two
    # frames, and the trailing frame takes its own whole
    for upstream, want in (([5.0], [5.0]), ([2.0, 5.0], [1.0, 1.0, 5.0])):
        x = Tensor(np.zeros((1, 1, len(want), 1)))
        with Tape() as tape:
            out = T.tsum(T.mul(T.pair_avg_time(x), Tensor(np.reshape(upstream, (1, 1, -1, 1)))))
        (gx,) = gradients(tape, out, [x])
        assert np.array_equal(gx.data.ravel(), want)


def test_tapes_do_not_nest():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass


def _in_two_threads(fn) -> None:
    """fn("a") on a second thread and fn("b") on this one, the second thread joined."""
    other = threading.Thread(target=fn, args=("a",))
    other.start()
    try:
        fn("b")
    finally:
        other.join(10)
    assert not other.is_alive()


def test_a_tape_records_nothing_from_another_thread():
    x = Tensor(np.ones(3, np.float32))
    opened, ran = threading.Event(), threading.Event()

    def run(name):
        if name == "a":  # runs operators while the other thread's tape is open
            assert opened.wait(10)
            T.add(x, x)
            ran.set()
            return
        with Tape() as tape:
            opened.set()
            assert ran.wait(10)
            T.mul(x, x)
        assert [e.op for e in tape.entries] == ["mul"]

    _in_two_threads(run)


def test_two_threads_hold_a_tape_at_once():
    x = Tensor(np.ones(3, np.float32))
    both = threading.Barrier(2, timeout=10)
    ops = {}

    def run(name):
        with Tape() as tape:
            both.wait()  # both tapes are open
            (T.add if name == "a" else T.mul)(x, x)
            both.wait()  # both have recorded before either closes
        ops[name] = [e.op for e in tape.entries]

    _in_two_threads(run)
    assert ops == {"a": ["add"], "b": ["mul"]}


def test_shape_record_scope_and_error_path_are_per_thread():
    x, bad = Tensor(np.ones((2, 2), np.float32)), Tensor(np.full((2, 2), np.inf, np.float32))
    both = threading.Barrier(2, timeout=10)
    seen = {}

    def run(name):
        with T.scope(name), T.shape_record() as record:
            both.wait()  # both scopes and records are open
            T.add(x, x)
            with pytest.raises(NonFiniteError) as exc:
                T.add(bad, x)
            both.wait()
            seen[name] = (list(record), T.recording(), T.block_path(), exc.value.path)

    _in_two_threads(run)
    for name in "ab":
        assert seen[name] == ([(name, "add", ((2, 2), (2, 2)), (2, 2))], True, name, name)
    assert not T.recording() and T.block_path() == ""


def test_large_finite_values_are_not_reported_non_finite():
    # the sum of these finite f32 values overflows; the check must not raise
    x = Tensor(np.full(4, 2e38, np.float32))
    with np.errstate(over="ignore"):
        out = T.scale(x, 0.5)
    assert np.array_equal(out.data, np.full(4, 1e38, np.float32))


def test_large_finite_values_raise_no_numpy_warning():
    # neither the forward output nor the leaf gradient may make numpy warn
    x = Tensor(np.full(4, 1e-30, np.float32))
    w = Tensor(np.full(4, 3e38, np.float32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(T.scale(w, 1.0).data, w.data)
        with Tape() as tape:
            out = T.tsum(T.mul(x, w))
        assert np.array_equal(gradients(tape, out, [x])[0].data, w.data)


def test_gradient_accumulation_check_confirms_before_raising():
    x = Tensor(np.full(4, 1e-30, np.float32))
    w = Tensor(np.full(4, 3e38, np.float32))
    with np.errstate(over="ignore"):
        with Tape() as tape:
            once = T.tsum(T.mul(x, w))
        # finite gradient elements whose sum overflows
        assert np.array_equal(gradients(tape, once, [x])[0].data, w.data)
        with Tape() as tape:
            twice = T.add(T.tsum(T.mul(x, w)), T.tsum(T.mul(x, w)))
        # accumulating two 3e38 contributions overflows each element
        with pytest.raises(NonFiniteError) as exc:
            gradients(tape, twice, [x])
    assert exc.value.op == "gradient accumulation"


# ---------------------------------------------------------------------------
# GEMM kernels and batch norm against plain references, forward and gradients

DTYPES = [np.float32, np.float64]


def _tol(dtype):
    return dict(rtol=1e-4, atol=1e-4) if dtype == np.float32 else dict(rtol=1e-10, atol=1e-10)


def _fwd_and_grads(op, inputs, seed):
    """Output of op(*inputs) and the gradients of sum(output * r) for a random r."""
    with Tape() as tape:
        out = op(*inputs)
        r = Tensor(np.random.default_rng(seed).standard_normal(out.shape).astype(out.dtype))
        loss = T.tsum(T.mul(out, r))
    return out.data, r.data, [g.data for g in gradients(tape, loss, inputs)]


@pytest.mark.parametrize("dtype", DTYPES)
def test_conv1x1_matches_einsum(dtype):
    rng = np.random.default_rng(20)
    x = Tensor(rng.standard_normal((3, 5, 4, 6)).astype(dtype))
    w = Tensor(rng.standard_normal((5, 7)).astype(dtype))
    out, r, (gx, gw) = _fwd_and_grads(T.conv1x1, [x, w], seed=21)
    np.testing.assert_allclose(out, np.einsum("bctn,co->botn", x.data, w.data), **_tol(dtype))
    np.testing.assert_allclose(gx, np.einsum("botn,co->bctn", r, w.data), **_tol(dtype))
    np.testing.assert_allclose(gw, np.einsum("bctn,botn->co", x.data, r), **_tol(dtype))


@pytest.mark.parametrize("dtype", DTYPES)
def test_assign_pool_matches_einsum(dtype):
    rng = np.random.default_rng(30)
    x = Tensor(rng.standard_normal((3, 5, 4, 6)).astype(dtype))
    m = Tensor(rng.standard_normal((3, 4, 6, 2)).astype(dtype))
    out, r, (gx, gm) = _fwd_and_grads(T.assign_pool, [x, m], seed=31)
    np.testing.assert_allclose(out, np.einsum("bctn,btnr->bctr", x.data, m.data), **_tol(dtype))
    np.testing.assert_allclose(gx, np.einsum("bctr,btnr->bctn", r, m.data), **_tol(dtype))
    np.testing.assert_allclose(gm, np.einsum("bctn,bctr->btnr", x.data, r), **_tol(dtype))


@pytest.mark.parametrize("m_shape", [
    (2, 4, 5),        # rank 3
    (3, 4, 5, 2),     # batch differs
    (2, 3, 5, 2),     # frames differ
    (2, 4, 6, 2),     # nodes differ
])
def test_assign_pool_rejects_mismatched_assignments(m_shape):
    x = Tensor(np.zeros((2, 3, 4, 5)))
    with pytest.raises(ValueError, match="assign_pool"):
        T.assign_pool(x, Tensor(np.zeros(m_shape)))


def test_assign_pool_rejects_non_4d_input_and_mixed_dtypes():
    with pytest.raises(ValueError, match="assign_pool"):
        T.assign_pool(Tensor(np.zeros((3, 4, 5))), Tensor(np.zeros((3, 4, 5, 2))))
    with pytest.raises(ValueError, match="mixed dtypes"):
        T.assign_pool(Tensor(np.zeros((2, 3, 4, 5))),
                      Tensor(np.zeros((2, 4, 5, 2), dtype=np.float32)))


def _temporal_conv_loop(x, w, r):
    """Per-frame reference: output, input gradient and weight gradient."""
    c_out, _, k = w.shape
    pad = (k - 1) // 2
    frames = x.shape[2]
    out = np.zeros((x.shape[0], c_out, frames, x.shape[3]))
    gx, gw = np.zeros(x.shape), np.zeros(w.shape)
    for t in range(frames):
        for i in range(k):
            f = t + i - pad
            if 0 <= f < frames:
                out[:, :, t] += np.einsum("oc,bcn->bon", w[:, :, i], x[:, :, f])
                gx[:, :, f] += np.einsum("oc,bon->bcn", w[:, :, i], r[:, :, t])
                gw[:, :, i] += np.einsum("bon,bcn->oc", r[:, :, t], x[:, :, f])
    return out, gx, gw


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k,frames", [(1, 6), (3, 7), (5, 9), (5, 2), (7, 3), (3, 1)])
def test_temporal_conv_matches_per_frame_loop(dtype, k, frames):
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal((2, 3, frames, 4)).astype(dtype))
    w = Tensor(rng.standard_normal((5, 3, k)).astype(dtype))
    out, r, (gx, gw) = _fwd_and_grads(T.temporal_conv, [x, w], seed=23)
    want, want_gx, want_gw = _temporal_conv_loop(x.data.astype(np.float64),
                                                 w.data.astype(np.float64),
                                                 r.astype(np.float64))
    assert out.shape == want.shape == (2, 5, frames, 4)
    np.testing.assert_allclose(out, want, **_tol(dtype))
    np.testing.assert_allclose(gx, want_gx, **_tol(dtype))
    np.testing.assert_allclose(gw, want_gw, **_tol(dtype))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("transposed", [False, True])
def test_matmul_shared_right_operand_matches_einsum(dtype, transposed):
    rng = np.random.default_rng(24)
    if transposed:  # a non-contiguous left operand: a transposed view
        a_arr = rng.standard_normal((2, 3, 6, 4)).astype(dtype).transpose(0, 1, 3, 2)
        assert not a_arr.flags.c_contiguous
    else:
        a_arr = rng.standard_normal((2, 3, 4, 6)).astype(dtype)
    a = Tensor(a_arr)
    b = Tensor(rng.standard_normal((6, 5)).astype(dtype))
    out, r, (ga, gb) = _fwd_and_grads(T.matmul, [a, b], seed=25)
    np.testing.assert_allclose(out, np.einsum("bcik,km->bcim", a_arr, b.data), **_tol(dtype))
    np.testing.assert_allclose(ga, np.einsum("bcim,km->bcik", r, b.data), **_tol(dtype))
    np.testing.assert_allclose(gb, np.einsum("bcik,bcim->km", a_arr, r), **_tol(dtype))


@pytest.mark.parametrize("b_shape", [(1, 3, 3, 2), (3, 3, 2), (2, 1, 3, 2)])
def test_matmul_per_batch_operand_needs_equal_batch_axes(b_shape):
    a = Tensor(np.zeros((2, 3, 4, 3)))
    with pytest.raises(ValueError, match="batch axes differ"):
        T.matmul(a, Tensor(np.zeros(b_shape)))


@pytest.mark.parametrize("dtype", DTYPES)
def test_batch_norm_train_matches_numpy_moments(dtype):
    rng = np.random.default_rng(26)
    x = Tensor((3.0 * rng.standard_normal((3, 4, 5, 6)) + 2.0).astype(dtype))
    g = Tensor(rng.uniform(0.5, 1.5, size=4).astype(dtype))
    b = Tensor(rng.standard_normal(4).astype(dtype))
    mean = x.data.mean(axis=(0, 2, 3))
    var = x.data.var(axis=(0, 2, 3))
    mu, v = T.channel_moments(x.data)
    np.testing.assert_allclose(mu, mean, **_tol(dtype))
    np.testing.assert_allclose(v, var, **_tol(dtype))
    shape = (1, -1, 1, 1)
    want = ((x.data - mean.reshape(shape)) / np.sqrt(var.reshape(shape) + 1e-5)
            * g.data.reshape(shape) + b.data.reshape(shape))
    np.testing.assert_allclose(T.batch_norm_train(x, g, b).data, want, **_tol(dtype))
    np.testing.assert_allclose(T.batch_norm_train(x, g, b, moments=(mu, v)).data, want,
                               **_tol(dtype))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape,axes", [((3, 5, 4, 6), (3,)), ((3, 5, 4, 6), (2, 3)),
                                        ((3, 5, 4, 6), None), ((4, 7), (1,)),
                                        ((3, 5, 4, 6), (1,)), ((3, 5, 4, 6), (0, 2))])
def test_tmean_matches_numpy_mean(dtype, shape, axes):
    # trailing axes take the matrix-vector path, other axes numpy's mean
    x = Tensor(np.random.default_rng(28).standard_normal(shape).astype(dtype))
    out, r, (gx,) = _fwd_and_grads(lambda a: T.tmean(a, axes=axes), [x], seed=29)
    want = x.data.mean(axis=axes)
    assert out.shape == want.shape and out.dtype == dtype
    np.testing.assert_allclose(out, want, **_tol(dtype))
    reduced = tuple(range(len(shape))) if axes is None else axes
    count = np.prod([shape[a] for a in reduced])
    np.testing.assert_allclose(gx, np.broadcast_to(np.expand_dims(r, reduced), shape) / count,
                               **_tol(dtype))


def test_fan_out_accumulation_leaves_shared_gradients_intact():
    # Each `add` hands one gradient array to both its inputs, so x, y and
    # every tensor between them first receive the same array. y fans out three
    # times: its second term makes a new sum, its third is added into that sum
    # in place, and the array x still holds must stay as it was.
    x, y = scalar([1.0, 2.0]), scalar([3.0, -1.0])
    with Tape() as tape:
        q = T.scale(y, 2.0)
        p = T.scale(y, 3.0)
        s = T.add(x, y)
        loss = T.tsum(T.add(T.add(s, p), q))
    gx, gy = gradients(tape, loss, [x, y])
    np.testing.assert_array_equal(gx.data, [1.0, 1.0])
    np.testing.assert_array_equal(gy.data, [6.0, 6.0])


# ---------------------------------------------------------------------------
# a tape is spent by `gradients`


def test_gradients_free_intermediate_arrays_while_the_tape_lives():
    x = Tensor(np.random.default_rng(40).standard_normal((3, 4)))
    with Tape() as tape:
        h = T.tanh(x)
        const = Tensor(np.full((3, 4), 2.0))  # an input no gradient is asked for
        loss = T.tsum(T.mul(h, const))
    arrays = [weakref.ref(h.data), weakref.ref(const.data)]
    del h, const
    assert all(ref() is not None for ref in arrays)
    (gx,) = gradients(tape, loss, [x])
    assert all(ref() is None for ref in arrays)
    np.testing.assert_allclose(gx.data, 2.0 * (1.0 - np.tanh(x.data) ** 2))
    assert tape.spent and len(tape) == 3
    assert [e.op for e in tape.entries] == ["tanh", "mul", "sum"]
    assert all(e.inputs is e.output is e.forward is e.backward is None for e in tape.entries)


def test_spent_tape_refuses_replay_and_a_second_sweep():
    x = scalar(3.0)
    with Tape() as tape:
        y = T.mul(x, x)
    verify_replay(tape)  # an unspent tape replays, and stays unspent
    gradients(tape, y, [x])
    for again in (lambda: verify_replay(tape), lambda: gradients(tape, y, [x])):
        with pytest.raises(RuntimeError, match="consumed by gradients"):
            again()


def test_rejected_request_leaves_the_tape_unspent():
    x = Tensor(np.ones((2, 2)))
    with Tape() as tape:
        y = T.tanh(x)
    with pytest.raises(ValueError, match="scalar"):
        gradients(tape, y, [x])
    assert not tape.spent
    verify_replay(tape)


# ---------------------------------------------------------------------------
# batch norm and channel affine with a fused skip and rectifier


def _affine_leaves(rng, dtype, skip):
    x = Tensor(rng.standard_normal((3, 4, 5, 6)).astype(dtype))
    g = Tensor(rng.uniform(0.5, 1.5, size=4).astype(dtype))
    b = Tensor(rng.standard_normal(4).astype(dtype))
    s = Tensor(rng.standard_normal(x.shape).astype(dtype))
    return [x, g, b, s] if skip else [x, g, b]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("skip", [False, True])
@pytest.mark.parametrize("op", [T.batch_norm_train, T.channel_affine])
def test_fused_skip_and_rectifier_equal_the_three_op_chain(op, skip, dtype):
    leaves = _affine_leaves(np.random.default_rng(41), dtype, skip)

    def chain(x, g, b, *s):
        y = op(x, g, b)
        return T.relu(T.add(y, s[0]) if s else y)

    def fused(x, g, b, *s):
        return op(x, g, b, skip=s[0] if s else None, rectify=True)

    want = _fwd_and_grads(chain, leaves, seed=42)
    got = _fwd_and_grads(fused, leaves, seed=42)
    assert (got[0] == 0).any() and (got[0] > 0).any()
    np.testing.assert_array_equal(got[0], want[0])
    for g_got, g_want in zip(got[2], want[2]):
        np.testing.assert_array_equal(g_got, g_want)
    with Tape() as tape:
        fused(*leaves)
    assert [e.op for e in tape.entries] == [op.__name__.replace("_train", "")]


@pytest.mark.parametrize("op", [T.batch_norm_train, T.channel_affine])
def test_fused_skip_must_match_the_input(op):
    x, g, b = _affine_leaves(np.random.default_rng(43), np.float64, skip=False)
    with pytest.raises(ValueError, match="shape mismatch"):
        op(x, g, b, skip=Tensor(np.zeros((3, 4, 5, 1))))
    with pytest.raises(ValueError, match="mixed dtypes"):
        op(x, g, b, skip=Tensor(np.zeros(x.shape, np.float32)))
