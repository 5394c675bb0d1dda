"""Minimal dense tensor core with recorded forward passes and reverse-mode gradients.

The operator set is closed and enumerated: matrix product (plain and batched),
node contraction with per-frame assignments, pointwise add and mul, scalar
scale, bias/affine broadcasts on the channel axis, tanh, sigmoid, relu, softmax
over the last axis, sum/mean reductions, temporal 1-D convolution,
pair-averaging over time, channel concatenation, reshape, transpose, explicit
expansion, fused batch normalization and fused softmax cross-entropy. The
batch-norm affine forms (`batch_norm_train`, `channel_affine`) optionally add
an identity skip and apply the rectifier in the same operator. Every operator
registers a backward rule and is covered by the finite-difference suite in
`gradcheck`.

Recording: operators executed inside a `with Tape() as t:` block append one
entry each (operator id, input refs, output ref, replayable forward closure,
backward closure). Outside a tape, operators just compute values (eval mode).
`shape_record` records shapes instead; `scope` names the block that runs.
The active tape, the shape record and the scope stack belong to the thread
that set them, so threads record, and name their blocks, independently.
`gradients` consumes a tape: each entry lets go of its arrays as soon as its
backward has run, and the spent tape can be neither replayed nor
differentiated again.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


class NonFiniteError(ArithmeticError):
    """An operator produced a NaN or infinity; carries the operator id and its
    block path (the open `scope` names, "" outside every scope)."""

    def __init__(self, op: str, path: str):
        super().__init__(f"non-finite values produced by operator '{op}'"
                         + (f" in {path}" if path else ""))
        self.op, self.path = op, path


class Tensor:
    """Dense row-major array of 32- or 64-bit scalars.

    Treated as immutable once constructed: operators never write into an
    existing buffer, so a tape replays bit for bit until `gradients` consumes
    it. The one sanctioned mutation is `Parameter.assign`, reserved for the
    training owner between recorded passes.
    """

    __slots__ = ("data",)

    def __init__(self, data, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name})"


class Parameter(Tensor):
    """Trainable tensor with a weight-decay flag; its name is its `named_leaves` path."""

    __slots__ = ("decay",)

    def __init__(self, data, decay: bool = True, dtype=None):
        super().__init__(data, dtype=dtype)
        self.decay = decay

    def assign(self, data: np.ndarray) -> None:
        """Replace the stored value. Owner-only; never call inside a recording."""
        arr = np.asarray(data, dtype=self.data.dtype)
        if arr.shape != self.data.shape:
            raise ValueError(f"assign shape {arr.shape} != parameter shape {self.data.shape}")
        self.data = arr

    def __repr__(self):
        return f"Parameter(shape={self.shape}, dtype={self.dtype.name}, decay={self.decay})"


def named_leaves(tree, prefix: str, kind: type) -> list[tuple[str, object]]:
    """(prefix.field, value) of every `kind` field of a dataclass tree.

    Fields are visited in declaration order; dataclass fields are walked depth
    first and None fields are skipped. With `kind=Parameter` this is what
    trains; with `kind=np.ndarray` it is the non-trained state (the running
    moments). Both lists, in this order, are what a checkpoint holds.
    """
    out = []
    for f in dataclasses.fields(tree):
        value, name = getattr(tree, f.name), f"{prefix}.{f.name}"
        if isinstance(value, kind):
            out.append((name, value))
        elif dataclasses.is_dataclass(value):
            out += named_leaves(value, name, kind)
    return out


def glorot(rng: np.random.Generator, shape: tuple[int, ...],
           fan_in: int | None = None, fan_out: int | None = None) -> np.ndarray:
    """Uniform Glorot initialization; fans default to the first/last extents."""
    fan_in = shape[0] if fan_in is None else fan_in
    fan_out = shape[-1] if fan_out is None else fan_out
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class TapeEntry:
    __slots__ = ("op", "inputs", "output", "forward", "backward")

    def __init__(self, op, inputs, output, forward, backward):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.forward = forward    # (*input arrays) -> output array, pure
        self.backward = backward  # (grad array, input arrays, output array) -> per-input grads


class Tape:
    """Ordered record of operator applications (a replayable computation record).

    Entries are appended in execution order, so every entry's inputs are
    produced by earlier entries or are leaves; reverse iteration is a valid
    reverse-topological order for gradient accumulation.

    A tape is spent once `gradients` has swept it: its entries keep their
    operator ids, so `len` still counts the recorded operators, but hold no
    tensors or closures any more.
    """

    def __init__(self):
        self.entries: list[TapeEntry] = []
        self.spent = False

    def __enter__(self) -> "Tape":
        if _STATE.tape is not None:
            raise RuntimeError("tapes do not nest")
        _STATE.tape = self
        return self

    def __exit__(self, *exc):
        _STATE.tape = None

    def __len__(self):
        return len(self.entries)


def _require_unspent(tape: Tape) -> None:
    if tape.spent:
        raise RuntimeError("tape was consumed by gradients: its entries no longer hold "
                           "their tensors; record a new tape")


class _RecordingState(threading.local):
    """One thread's active tape, shape record and stack of open scope names."""

    def __init__(self):
        self.tape: Tape | None = None
        self.record: list | None = None
        self.scope: list[str] = []


_STATE = _RecordingState()


@contextlib.contextmanager
def scope(name: str):
    """Name a block: operators run inside it carry `name` in their dotted block path."""
    _STATE.scope.append(name)
    try:
        yield
    finally:
        _STATE.scope.pop()


def block_path() -> str:
    """The dotted names of this thread's open scopes ("" outside every scope)."""
    return ".".join(_STATE.scope)


@contextlib.contextmanager
def shape_record():
    """Yield a list that gets (block path, operator id, input shapes, output
    shape) per operator run inside; an active tape records nothing meanwhile."""
    st = _STATE
    saved, st.tape, st.record = (st.tape, st.record), None, []
    try:
        yield st.record
    finally:
        st.tape, st.record = saved


def recording() -> bool:
    """Whether operators run now are recorded, on a tape or in a shape record."""
    return _STATE.tape is not None or _STATE.record is not None


def _finite_or_raise(arr: np.ndarray, op: str) -> None:
    # Element-wise, not through a sum: large finite values cannot overflow it,
    # numpy has nothing to warn about, and it is no slower than `arr.sum()`.
    if not np.isfinite(arr).all():
        raise NonFiniteError(op, block_path())


def _apply(op: str, inputs: tuple[Tensor, ...], forward: Callable, backward: Callable) -> Tensor:
    out_arr = forward(*[t.data for t in inputs])
    _finite_or_raise(out_arr, op)
    out = Tensor.__new__(Tensor)
    out.data = out_arr
    st = _STATE
    if st.tape is not None:
        st.tape.entries.append(TapeEntry(op, inputs, out, forward, backward))
    elif st.record is not None:
        st.record.append((block_path(), op, tuple(t.shape for t in inputs), out_arr.shape))
    return out


def _same_dtype(*tensors: Tensor):
    dt = tensors[0].dtype
    for t in tensors[1:]:
        if t.dtype != dt:
            raise ValueError(f"mixed dtypes {dt} vs {t.dtype}")
    return dt


# ---------------------------------------------------------------------------
# pointwise arithmetic


def _require_same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape} (no implicit broadcasting)")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")
    _same_dtype(a, b)
    return _apply("add", (a, b), lambda x, y: x + y, lambda g, ins, out: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul")
    _same_dtype(a, b)
    return _apply("mul", (a, b), lambda x, y: x * y,
                  lambda g, ins, out: (g * ins[1], g * ins[0]))


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant (not a differentiable input)."""
    c = float(c)
    return _apply("scale", (x,), lambda xd: xd * np.asarray(c, dtype=xd.dtype),
                  lambda g, ins, out: (g * np.asarray(c, dtype=g.dtype),))


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add a per-channel bias, broadcast over every axis except axis 1."""
    if x.ndim < 2 or bias.shape != (x.shape[1],):
        raise ValueError(f"add_bias: bias {bias.shape} does not match channel axis of {x.shape}")
    _same_dtype(x, bias)
    expand = (1, -1) + (1,) * (x.ndim - 2)
    reduce_axes = tuple(i for i in range(x.ndim) if i != 1)
    return _apply("add_bias", (x, bias),
                  lambda xd, bd: xd + bd.reshape(expand),
                  lambda g, ins, out: (g, g.sum(axis=reduce_axes)))


def _skip_inputs(op: str, x: Tensor, skip: Tensor | None) -> tuple[Tensor, ...]:
    """The optional identity-skip input of a fused affine operator, checked."""
    if skip is None:
        return ()
    _require_same_shape(x, skip, op)
    _same_dtype(x, skip)
    return (skip,)


def _add_rectify(out: np.ndarray, skip: tuple, rectify: bool) -> np.ndarray:
    """The fused tail, in the output buffer: add the skip, then max(., 0)."""
    for sd in skip:
        out += sd
    if rectify:
        np.maximum(out, 0.0, out=out)
    return out


def channel_affine(x: Tensor, gamma: Tensor, beta: Tensor, skip: Tensor | None = None,
                   rectify: bool = False) -> Tensor:
    """Per-channel scale and shift on axis 1 (the batch-norm affine form).

    `skip` (x's shape) is added after the shift and `rectify` applies max(., 0)
    last, as in `batch_norm_train`.
    """
    if x.ndim < 2 or gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ValueError(f"channel_affine: params {gamma.shape}/{beta.shape} vs input {x.shape}")
    _same_dtype(x, gamma, beta)
    expand = (1, -1) + (1,) * (x.ndim - 2)
    reduce_axes = tuple(i for i in range(x.ndim) if i != 1)
    skips = _skip_inputs("channel_affine", x, skip)

    def fwd(xd, gd, bd, *sd):
        out = xd * gd.reshape(expand)
        out += bd.reshape(expand)
        return _add_rectify(out, sd, rectify)

    def bwd(g, ins, out):
        xd, gd = ins[:2]
        if rectify:
            g = g * (out > 0)
        return (g * gd.reshape(expand),
                (g * xd).sum(axis=reduce_axes),
                g.sum(axis=reduce_axes)) + (g,) * len(skips)

    return _apply("channel_affine", (x, gamma, beta) + skips, fwd, bwd)


def expand(x: Tensor, shape: Sequence[int]) -> Tensor:
    """Explicitly tile size-1 axes up to `shape` (same rank required)."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != x.ndim:
        raise ValueError(f"expand: rank mismatch {x.shape} -> {shape}")
    for have, want in zip(x.shape, shape):
        if have != want and have != 1:
            raise ValueError(f"expand: cannot expand {x.shape} to {shape}")
    axes = tuple(i for i in range(len(shape)) if x.shape[i] == 1 and shape[i] > 1)
    return _apply("expand", (x,),
                  lambda xd: np.ascontiguousarray(np.broadcast_to(xd, shape)),
                  lambda g, ins, out: (g.sum(axis=axes, keepdims=True) if axes else g,))


# ---------------------------------------------------------------------------
# nonlinearities


def tanh(x: Tensor) -> Tensor:
    return _apply("tanh", (x,), np.tanh, lambda g, ins, out: (g * (1.0 - out * out),))


def sigmoid(x: Tensor) -> Tensor:
    def fwd(xd):
        # exp on the negative half-line only, for overflow safety
        pos = xd >= 0
        z = np.empty_like(xd)
        z[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
        e = np.exp(xd[~pos])
        z[~pos] = e / (1.0 + e)
        return z

    return _apply("sigmoid", (x,), fwd, lambda g, ins, out: (g * out * (1.0 - out),))


def relu(x: Tensor) -> Tensor:
    return _apply("relu", (x,), lambda xd: np.maximum(xd, 0.0),
                  lambda g, ins, out: (g * (ins[0] > 0),))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    def fwd(xd):
        e = np.exp(xd - xd.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    def bwd(g, ins, out):
        return ((g - (g * out).sum(axis=-1, keepdims=True)) * out,)

    return _apply("softmax", (x,), fwd, bwd)


# ---------------------------------------------------------------------------
# reductions


def _norm_axes(axes, ndim) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    return tuple(sorted(a % ndim for a in axes))


def _expand_reduced(g: np.ndarray, in_shape, axes) -> np.ndarray:
    shape = list(in_shape)
    for a in axes:
        shape[a] = 1
    return np.broadcast_to(g.reshape(shape), in_shape)


def tsum(x: Tensor, axes=None) -> Tensor:
    """Sum over the given axes (all axes when None, yielding a scalar)."""
    ax = _norm_axes(axes, x.ndim)
    return _apply("sum", (x,), lambda xd: xd.sum(axis=ax),
                  lambda g, ins, out: (_expand_reduced(g, ins[0].shape, ax).astype(g.dtype),))


def tmean(x: Tensor, axes=None) -> Tensor:
    """Mean over the given axes (all axes when None).

    Trailing axes (the node axis, or frames and nodes) are summed as one BLAS
    matrix-vector product of the input viewed as (rest, reduced) against a
    ones vector, then divided by the count, as in `channel_moments`; other
    axes use numpy's mean.
    """
    ax = _norm_axes(axes, x.ndim)
    count = math.prod(x.shape[a] for a in ax)
    rows = x.shape[:x.ndim - len(ax)]

    def trailing_mean(xd):
        return (xd.reshape(rows + (count,)) @ np.ones(count, dtype=xd.dtype)) / count

    def bwd(g, ins, out):  # divided before the broadcast: one pass over the input size
        return (_expand_reduced(g / count, ins[0].shape, ax).astype(g.dtype),)

    trailing = ax == tuple(range(len(rows), x.ndim))
    return _apply("mean", (x,), trailing_mean if trailing else lambda xd: xd.mean(axis=ax),
                  bwd)


# ---------------------------------------------------------------------------
# linear algebra


def _shared_rhs_matmul(ad: np.ndarray, bd: np.ndarray) -> np.ndarray:
    # one GEMM over all rows of `ad`, flattened to (rows, inner)
    return (ad.reshape(-1, ad.shape[-1]) @ bd).reshape(ad.shape[:-1] + bd.shape[1:])


def _shared_rhs_matmul_grads(g, ins, out):
    ad, bd = ins
    g2 = g.reshape(-1, g.shape[-1])
    return (g2 @ bd.T).reshape(ad.shape), ad.reshape(-1, ad.shape[-1]).T @ g2


def _batched_matmul_grads(g, ins, out):
    ad, bd = ins
    return np.matmul(g, bd.swapaxes(-1, -2)), np.matmul(ad.swapaxes(-1, -2), g)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes.

    A shared 2-D right operand (an adjacency, assignment or classifier matrix)
    is applied as one GEMM over the rows of `a` flattened to (rows, inner), in
    the forward and in both gradients, rather than one small GEMM per batch
    entry. A non-contiguous `a` is copied by that flattening. A right operand
    with batch axes pairs one matrix with each batch entry of `a`: the batch
    axes must be equal, there is no broadcasting.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires rank >= 2 operands")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner extents differ {a.shape} @ {b.shape}")
    _same_dtype(a, b)
    if b.ndim == 2:
        return _apply("matmul", (a, b), _shared_rhs_matmul, _shared_rhs_matmul_grads)
    if a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"matmul: batch axes differ {a.shape} @ {b.shape}")
    return _apply("matmul", (a, b), np.matmul, _batched_matmul_grads)


def assign_pool(x: Tensor, m: Tensor) -> Tensor:
    """Contract the node axis of a (batch, channels, frames, nodes) feature map
    with one (nodes, regions) matrix per batch entry and frame: `m` is
    (batch, frames, nodes, regions) and the output (batch, channels, frames,
    regions).

    Layout: the input viewed as (batch, frames, channels, nodes) is a strided
    view, so the forward is one `np.matmul` over it with no copy of the input.
    The input gradient is the product of the output gradient, viewed the same
    way, with `m` transposed; the gradient of `m` is (batch, frames, nodes,
    channels) x (batch, frames, channels, regions). The forward product and
    the input gradient are formed in frames-major order and copied once into
    the channels-major layout: with one OpenBLAS thread that was faster than
    writing through a transposed view of the result (`out=`), and it kept a
    batch-64 eval's process peak RSS 12 MB lower.
    """
    if x.ndim != 4 or m.ndim != 4:
        raise ValueError("assign_pool: expects a 4-D input and 4-D assignments")
    b, _, t, n = x.shape
    if m.shape[:3] != (b, t, n):
        raise ValueError(f"assign_pool: assignments {m.shape} do not match input {x.shape}; "
                         f"want ({b}, {t}, {n}, regions)")
    _same_dtype(x, m)

    def fwd(xd, md):
        return np.ascontiguousarray(np.matmul(xd.transpose(0, 2, 1, 3), md).transpose(0, 2, 1, 3))

    def bwd(g, ins, out):
        xd, md = ins
        gt = g.transpose(0, 2, 1, 3)  # (B, T, C, R)
        gx = np.matmul(gt, md.transpose(0, 1, 3, 2))  # (B, T, C, N)
        return (np.ascontiguousarray(gx.transpose(0, 2, 1, 3)),
                np.matmul(xd.transpose(0, 2, 3, 1), gt))

    return _apply("assign_pool", (x, m), fwd, bwd)


def conv1x1(x: Tensor, w: Tensor) -> Tensor:
    """Pointwise channel map on a (batch, channels, frames, nodes) feature map.

    `w` has shape (channels_in, channels_out); equivalent to a 1x1 2-D
    convolution over the frame/node grid.

    Layout: the frame/node grid is flattened without a copy, so each batch
    entry is one (channels_out, channels_in) x (channels_in, frames*nodes)
    GEMM, and the batch is issued as a single `np.matmul` whose output is
    already in (batch, channels_out, frames, nodes) order. The input gradient
    mirrors it with `w`; the weight gradient is a batched (channels_in,
    frames*nodes) x (frames*nodes, channels_out) product summed over the batch.
    """
    if x.ndim != 4 or w.ndim != 2 or w.shape[0] != x.shape[1]:
        raise ValueError(f"conv1x1: weight {w.shape} does not match input {x.shape}")
    _same_dtype(x, w)

    def fwd(xd, wd):
        b, c, t, n = xd.shape
        return np.matmul(wd.T, xd.reshape(b, c, t * n)).reshape(b, -1, t, n)

    def bwd(g, ins, out):
        xd, wd = ins
        b, c, t, n = xd.shape
        g3 = g.reshape(b, -1, t * n)
        gx = np.matmul(wd, g3).reshape(xd.shape)
        gw = np.matmul(xd.reshape(b, c, t * n), g3.swapaxes(1, 2)).sum(axis=0)
        return gx, gw

    return _apply("conv1x1", (x, w), fwd, bwd)


def _frames_major(xd: np.ndarray, pad: int) -> np.ndarray:
    """(b, c, t, n) copied to (c, t + 2*pad, b, n) with `pad` zero frames at each end."""
    b, c, t, n = xd.shape
    xp = np.zeros((c, t + 2 * pad, b, n), dtype=xd.dtype)
    xp[:, pad : pad + t] = xd.transpose(1, 2, 0, 3)
    return xp


def _conv_frames(xd: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """out[t] = sum_i wt[i] @ x[t+i-pad] for x (batch, c_in, frames, nodes) and taps
    `wt` (k, c_out, c_in): tap i reads frames i .. i+frames-1 of the padded
    frames-major copy as one matrix view, and the k GEMMs are accumulated in
    frames-major order and transposed back once."""
    b, c_in, t, n = xd.shape
    k, c_out = wt.shape[:2]
    xp = _frames_major(xd, (k - 1) // 2)
    wt = np.ascontiguousarray(wt)
    out = wt[0] @ xp[:, :t].reshape(c_in, -1)
    part = np.empty_like(out)
    for i in range(1, k):
        out += np.matmul(wt[i], xp[:, i : i + t].reshape(c_in, -1), out=part)
    del xp, part  # free before the transposing copy
    return np.ascontiguousarray(out.reshape(c_out, t, b, n).transpose(2, 0, 1, 3))


def temporal_conv(x: Tensor, w: Tensor) -> Tensor:
    """1-D convolution along the frame axis, per node, mixing channels.

    `w` has shape (channels_out, channels_in, k) with k odd; stride 1 and
    symmetric zero padding of (k-1)/2 keep the frame count.

    One kernel, `_conv_frames`, runs both passes. For stride 1 and "same"
    padding the input gradient is the same convolution of the output gradient
    with the taps reversed and the channel axes swapped:
    gx[t] = sum_i w[:, :, k-1-i].T @ g[t+i-pad]. The weight gradient of tap i
    is one GEMM of the frames-major output gradient against the tap's view of
    the padded input.
    """
    if x.ndim != 4 or w.ndim != 3:
        raise ValueError("temporal_conv: expects 4-D input and 3-D weights")
    c_out, c_in, k = w.shape
    if c_in != x.shape[1]:
        raise ValueError(f"temporal_conv: weight channels {c_in} != input channels {x.shape[1]}")
    if k % 2 == 0:
        raise ValueError("temporal_conv: kernel size must be odd")
    _same_dtype(x, w)

    def fwd(xd, wd):
        return _conv_frames(xd, wd.transpose(2, 0, 1))

    def bwd(g, ins, out):
        xd, wd = ins
        gf = np.ascontiguousarray(g.transpose(1, 2, 0, 3)).reshape(c_out, -1)
        xp = _frames_major(xd, (k - 1) // 2)
        gw = np.empty((k, c_out, c_in), dtype=wd.dtype)
        for i in range(k):
            np.matmul(gf, xp[:, i : i + g.shape[2]].reshape(c_in, -1).T, out=gw[i])
        del gf, xp  # buffers are freed as soon as they are used up, to keep the peak low
        gx = _conv_frames(g, wd[:, :, ::-1].transpose(2, 1, 0))
        return gx, np.ascontiguousarray(gw.transpose(1, 2, 0))

    return _apply("temporal_conv", (x, w), fwd, bwd)


def pair_avg_time(x: Tensor) -> Tensor:
    """Average non-overlapping frame pairs; an odd trailing frame passes through."""
    if x.ndim != 4:
        raise ValueError("pair_avg_time: expects a 4-D feature map")
    t_in = x.shape[2]
    pairs = t_in // 2
    odd = t_in % 2 == 1

    def fwd(xd):
        out = 0.5 * (xd[:, :, 0 : 2 * pairs : 2, :] + xd[:, :, 1 : 2 * pairs : 2, :])
        if odd:
            out = np.concatenate([out, xd[:, :, -1:, :]], axis=2)
        return np.ascontiguousarray(out)

    def bwd(g, ins, out):
        gx = np.zeros_like(ins[0])
        gx[:, :, 0 : 2 * pairs : 2, :] = 0.5 * g[:, :, :pairs, :]
        gx[:, :, 1 : 2 * pairs : 2, :] = 0.5 * g[:, :, :pairs, :]
        if odd:
            gx[:, :, -1, :] += g[:, :, -1, :]
        return (gx,)

    return _apply("pair_avg_time", (x,), fwd, bwd)


# ---------------------------------------------------------------------------
# shape ops


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the channel axis (axis 1); `a` leads."""
    if a.ndim != b.ndim or a.ndim < 2:
        raise ValueError("concat_channels: rank mismatch")
    if a.shape[:1] + a.shape[2:] != b.shape[:1] + b.shape[2:]:
        raise ValueError(f"concat_channels: non-channel extents differ {a.shape} vs {b.shape}")
    _same_dtype(a, b)
    ca = a.shape[1]
    return _apply("concat_channels", (a, b),
                  lambda x, y: np.concatenate([x, y], axis=1),
                  lambda g, ins, out: (np.ascontiguousarray(g[:, :ca]),
                                       np.ascontiguousarray(g[:, ca:])))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    return _apply("reshape", (x,), lambda xd: xd.reshape(shape),
                  lambda g, ins, out: (g.reshape(ins[0].shape),))


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(int(a) for a in axes)
    inv = tuple(np.argsort(axes))
    return _apply("transpose", (x,),
                  lambda xd: np.ascontiguousarray(xd.transpose(axes)),
                  lambda g, ins, out: (np.ascontiguousarray(g.transpose(inv)),))


# ---------------------------------------------------------------------------
# fused training ops


def channel_moments(xd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and biased variance over every axis except axis 1.

    Both sums run through BLAS as one matrix-vector product per batch entry,
    over the input viewed as (batch, channels, rest).
    """
    b, c = xd.shape[:2]
    x3 = xd.reshape(b, c, -1)
    ones = np.ones(x3.shape[2], dtype=xd.dtype)
    count = b * x3.shape[2]
    mu = (x3 @ ones).sum(axis=0) / count
    dev = x3 - mu[:, None]
    np.multiply(dev, dev, out=dev)
    return mu, (dev @ ones).sum(axis=0) / count


def batch_norm_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5,
                     moments: tuple[np.ndarray, np.ndarray] | None = None,
                     skip: Tensor | None = None, rectify: bool = False) -> Tensor:
    """Normalize per channel with batch statistics over all non-channel axes.

    `moments`, when given, is the (mean, variance) pair of `x` from
    `channel_moments`, so a caller that also needs the statistics (the
    running-moment update) computes them once. The op keeps only the mean and
    the inverse standard deviation; the backward recomputes the normalized
    input from them rather than holding an activation-sized copy. Replaying the
    recorded entry on its recorded inputs reuses those moments, bit for bit.

    `skip` (an identity shortcut of x's shape) is added after the affine map,
    and `rectify` applies max(., 0) last. Batch norm -> add -> relu is then
    one entry that stores only its output, not the normalized pre-activation
    or the sum; the backward masks the incoming gradient with `out > 0` and
    passes the masked gradient on to the skip.
    """
    if x.ndim < 2 or gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ValueError("batch_norm_train: parameter shapes must match the channel axis")
    if x.size == 0 or x.shape[0] == 0:
        raise ValueError("batch_norm_train: empty batch")
    _same_dtype(x, gamma, beta)
    skips = _skip_inputs("batch_norm_train", x, skip)
    axes = tuple(i for i in range(x.ndim) if i != 1)
    expand_shape = (1, -1) + (1,) * (x.ndim - 2)
    m = x.size // x.shape[1]
    mu, var = channel_moments(x.data) if moments is None else moments
    mu = np.asarray(mu, dtype=x.dtype).reshape(expand_shape)
    inv_std = (1.0 / np.sqrt(np.asarray(var, dtype=x.dtype) + eps)).reshape(expand_shape)

    def fwd(xd, gd, bd, *sd):
        out = xd - mu
        out *= inv_std * gd.reshape(expand_shape)
        out += bd.reshape(expand_shape)
        return _add_rectify(out, sd, rectify)

    def bwd(g, ins, out):
        xd, gd = ins[:2]
        if rectify:
            g = g * (out > 0)
        xhat = xd - mu
        xhat *= inv_std
        dbeta = g.sum(axis=axes)
        dgamma = (g * xhat).sum(axis=axes)
        # dx = gamma*inv_std * (g - mean(g) - xhat*mean(g*xhat)), in the xhat buffer
        xhat *= (dgamma / m).reshape(expand_shape)
        dx = np.subtract(g, xhat, out=xhat)
        dx -= (dbeta / m).reshape(expand_shape)
        dx *= inv_std * gd.reshape(expand_shape)
        return (dx, dgamma, dbeta) + (g,) * len(skips)

    return _apply("batch_norm", (x, gamma, beta) + skips, fwd, bwd)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy of (batch, classes) logits against int labels."""
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError("cross_entropy: logits must be (batch, classes)")
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"cross_entropy: labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("cross_entropy: label index out of range")
    idx = labels.astype(np.intp).copy()

    def fwd(ld):
        m = ld.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(ld - m).sum(axis=1))
        return np.asarray((lse - ld[np.arange(n), idx]).mean(), dtype=ld.dtype)

    def bwd(g, ins, out):
        ld = ins[0]
        e = np.exp(ld - ld.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(n), idx] -= 1.0
        return (p * (g / n),)

    return _apply("cross_entropy", (logits,), fwd, bwd)


# ---------------------------------------------------------------------------
# gradient evaluation and replay


def gradients(tape: Tape, output: Tensor, leaves: Iterable[Tensor]) -> list[Tensor]:
    """Reverse-accumulate d(output)/d(leaf) over a recorded tape, consuming it.

    Returns one gradient per leaf, in the order of `leaves`. `output` must be
    scalar. Forward values are left untouched. A leaf the output does not
    depend on gets a zero gradient.

    Each entry drops its inputs, output and closures as soon as the sweep has
    passed it, so an activation is freed once the last backward that reads it
    has run, not when the tape dies. The tape is then spent (`Tape.spent`):
    a second `gradients` or a `verify_replay` on it raises RuntimeError.
    """
    leaves = list(leaves)
    if output.shape != ():
        raise ValueError(f"gradient output must be scalar, got shape {output.shape}")
    seen = set()
    for leaf in leaves:
        if id(leaf) in seen:
            raise ValueError("duplicate leaf in gradient request")
        seen.add(id(leaf))
    _require_unspent(tape)
    tape.spent = True

    # Gradients are keyed by id(). Only those something reads are kept: a
    # leaf's, or the output's of an entry not yet swept. Every such tensor is
    # alive now, so a constant input (freed during the sweep) never shares an
    # id with one, and its gradient is dropped.
    read = seen | {id(entry.output) for entry in tape.entries}
    grads: dict[int, np.ndarray] = {id(output): np.ones((), dtype=output.dtype)}
    # Tensors whose accumulated gradient is an array this loop allocated (a
    # sum); only those are added into in place. A backward may return views
    # of its inputs, or one array for two inputs (`add`), which stay untouched.
    owned: set[int] = set()
    for entry in reversed(tape.entries):
        inputs, out, backward = entry.inputs, entry.output, entry.backward
        entry.inputs = entry.output = entry.forward = entry.backward = None
        g = grads.pop(id(out), None)
        if g is None:
            continue
        in_grads = backward(g, tuple(t.data for t in inputs), out.data)
        for t, ig in zip(inputs, in_grads):
            if id(t) not in read:
                continue
            acc = grads.get(id(t))
            if acc is None:
                grads[id(t)] = ig
            elif id(t) in owned:
                acc += ig
            else:
                grads[id(t)] = acc = acc + ig
                if isinstance(acc, np.ndarray):  # a 0-d sum is a numpy scalar
                    owned.add(id(t))

    result = []
    for leaf in leaves:
        g = grads.get(id(leaf))
        if g is None:
            g = np.zeros(leaf.shape, dtype=leaf.dtype)
        else:
            _finite_or_raise(g, "gradient accumulation")
        result.append(Tensor(np.ascontiguousarray(g, dtype=leaf.dtype)))
    return result


def verify_replay(tape: Tape) -> None:
    """Re-run every recorded entry and require bitwise-identical outputs.

    The tape must not have been consumed by `gradients` (RuntimeError)."""
    _require_unspent(tape)
    for i, entry in enumerate(tape.entries):
        redo = entry.forward(*[t.data for t in entry.inputs])
        if not np.array_equal(redo, entry.output.data):
            raise AssertionError(f"replay mismatch at entry {i} ({entry.op})")
