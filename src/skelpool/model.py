"""Model assembly (light and heavy variants) and checkpoint serialization.

A model is an optional input-supplement stem followed by three stages and a
classification head. Light stages are pool-then-graph-convolve; heavy stages
are full cross fusion blocks. Pooling locations form a prefix of the stages
(later partition stages are defined on earlier pooled graphs), and the last
heavy fusion happens after global average pooling.

A `Stage` holds only its graphs and its block: the assignment that pools its
input (None when the stage keeps its graph), the adjacency it reads and the
one it writes. `build_model` makes the stages in one walk over the channel
widths. `ModelConfig.validate` is the only place a config is rejected: a
validated config always builds.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from dataclasses import dataclass, fields

import numpy as np

from .blocks import (FUSION_MODES, ClassifierHead, CrossFusionParams, IsmParams,
                     classifier_head, cross_fusion_block, cross_fusion_split,
                     fuse_branches, global_average, information_supplement)
from .data import STREAMS, read_container, write_container
from .gcn import GraphConvParams, gcn_block
from .pooling import SIGMAS, PoolingParams, st_pool
from .skeleton import (SkeletonTopology, bone_matrix, json_field, load_topology,
                       normalized_adjacency, parse_json, stage_matrices)
from .tensor import Parameter, Tensor, block_path, named_leaves, recording, scope

# the allowed values of each enumerated ModelConfig field, checked by `validate`
# and offered as the CLI's `choices`
FIELD_CHOICES = {"variant": ("light", "heavy"), "sigma": SIGMAS,
                 "fusion_mode": FUSION_MODES, "dtype": ("f32", "f64"), "stream": STREAMS}
_MAGIC = b"SKPL"
# The eval forward scores a batch in blocks whose widest activation fills at most
# this many bytes per BLAS thread, so no operator streams a batch-sized
# activation through memory and each core's share of a block stays within its
# L2 cache. Chosen from sweeps of the block size (see CHANGES.md).
EVAL_BLOCK_BYTES = 1_250_000


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "light"
    topology: str | dict = "ntu25"  # a built-in name or a topology document
    classes: int = 8
    frames: int = 64
    channels: tuple[int, int, int] = (64, 128, 256)
    pooling_locations: tuple[int, ...] = (1, 2, 3)
    ratio: int = 4
    sigma: str = "tanh"
    fusion_weight: float = 0.5
    fusion_mode: str = "sum"
    temporal_kernel: int = 5
    ism: bool = True
    ism_channels: int = 32
    adaptive: bool = True
    residual_pool: bool = True
    dtype: str = "f32"
    stream: str = "joint"  # the input the model reads: `data.apply_stream` of a dataset

    def validate(self) -> "ModelConfig":
        for name, allowed in FIELD_CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}")
        if not 0.0 <= self.fusion_weight <= 1.0:
            raise ValueError("fusion_weight must lie in [0, 1]")
        if len(self.channels) != 3 or any(c < 1 for c in self.channels):
            raise ValueError("channel plan must list three positive widths")
        locs = tuple(self.pooling_locations)
        if locs != tuple(range(1, len(locs) + 1)):
            raise ValueError("pooling locations must form a prefix of (1, 2, 3): "
                             "each pooled stage builds on the previous pooled graph")
        if len(locs) > 3:
            raise ValueError("at most three pooling locations")
        if self.temporal_kernel % 2 == 0:
            raise ValueError("temporal kernel must be odd")
        if self.ratio < 1:
            raise ValueError("ratio must be >= 1")
        if self.classes < 2:
            raise ValueError("need at least two classes")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.ism_channels < 1:
            raise ValueError("ism_channels must be >= 1")
        topo, scheme = load_topology(self.topology)
        if locs and scheme is None:
            raise ValueError(f"topology '{topo.name}' has no partition scheme "
                             "but pooling is enabled")
        if locs and len(scheme.stages) < len(locs):
            raise ValueError(f"scheme defines {len(scheme.stages)} pooling stages, "
                             f"{len(locs)} requested")
        if self.stream == "bone" and topo.parents is None:
            raise ValueError(f"topology '{topo.name}' has no parent map, which the bone "
                             "stream needs; pass --stream joint or motion")
        if self.ism and topo.parents is None:
            raise ValueError(f"topology '{topo.name}' has no parent map, which the input "
                             "supplement's bone stream needs; pass --no-ism")
        # the correlation projections of an adaptive pooled stage divide its input
        # width (light), or its input and output widths (heavy), by the ratio
        widths = _stage_widths(self)[: len(locs) if self.adaptive else 0]
        for i, (c_in, c_out) in enumerate(widths, 1):
            for c in (c_in, c_out) if self.variant == "heavy" else (c_in,):
                if c % self.ratio:
                    stem = (" (stage 1 reads 2 * ism_channels)" if self.ism else
                            " (with ism off, stage 1 reads the 3 raw coordinates)")
                    raise ValueError(f"stage {i} pools {c} channels, not divisible by "
                                     f"ratio {self.ratio}"
                                     + (stem if i == 1 and c == c_in else ""))
        return self

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "f32" else np.float64


@functools.cache
def _blas_thread_getter():
    """`openblas_get_num_threads` of the OpenBLAS bundled with numpy, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(path), sym)
            except (AttributeError, OSError):
                continue
            fn.restype = ctypes.c_int
            return fn
    return None


def _blas_threads() -> int | None:
    """The threads numpy's BLAS runs each call on now, or None where unknown."""
    get = _blas_thread_getter()
    return None if get is None else get()


def _eval_workers() -> int:
    """The most threads, the caller's included, that score the blocks of one eval
    forward: one per core this process may run on when BLAS runs each call on one
    thread, else one. A multi-threaded BLAS already spreads each call over the
    cores, and a thread per block on top of it halved the eval rate (see CHANGES.md)."""
    if _blas_threads() != 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_blocks(run, count: int, threads: int) -> list:
    """[run(0), ..., run(count - 1)]. The calling thread and `threads - 1` helpers
    that end before this returns take the indices in order, each helper under the
    caller's numpy error state and block path; with one thread the caller runs
    them all. A thread whose block raises takes no more; once all have stopped,
    the lowest-numbered failed block's exception is raised, as a serial loop
    would."""
    err, path = np.geterr(), block_path()
    todo, lock, results, failed = iter(range(count)), threading.Lock(), [None] * count, []

    def drain() -> None:
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            try:
                results[i] = run(i)
            except BaseException as exc:
                failed.append((i, exc))
                return

    def helper() -> None:
        with np.errstate(**err), scope(path) if path else contextlib.nullcontext():
            drain()

    helpers = [threading.Thread(target=helper, name="skelpool-eval", daemon=True)
               for _ in range(threads - 1)]
    for t in helpers:
        t.start()
    drain()
    for t in helpers:
        t.join()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return results


def _stage_widths(config: ModelConfig) -> list[tuple[int, int]]:
    """(input, output) channels of each stage; stage 1 reads the input supplement's
    2 * ism_channels, or the 3 raw coordinates without it."""
    stem = 2 * config.ism_channels if config.ism else 3
    return list(zip((stem, *config.channels[:-1]), config.channels))


# ---------------------------------------------------------------------------
# config documents: the JSON form of a config dataclass (ModelConfig, TrainConfig)


def config_doc(cfg) -> dict:
    """Every field of a config dataclass, tuples written as lists."""
    values = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


def _kinds(name: str, default) -> tuple:
    """The JSON types of a config field: the type of its default, a number or null
    for a null default, and a topology document besides a built-in name."""
    if default is None:
        return (float, type(None))
    return (str, dict) if name == "topology" else (type(default),)


def config_from_doc(cls, doc: dict):
    """The validated config of class `cls` from a document; missing fields keep
    their defaults. An unknown key or a value of the wrong type raises ValueError."""
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = set(doc) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return cls(**{k: json_field(doc, k, _kinds(k, d), "config", d)
                  for k, d in defaults.items()}).validate()


@dataclass
class Stage:
    assignment: Tensor | None  # None when the stage keeps its graph
    adj_in: Tensor
    adj_out: Tensor
    pool: PoolingParams | None = None       # light variant
    gcn: GraphConvParams | None = None      # light variant
    cfb: CrossFusionParams | None = None    # heavy variant


class Model:
    """A built network: constant graph matrices plus the parameter tree.

    `bones` is the topology's bone matrix, which the input supplement reads
    (None without it)."""

    def __init__(self, config: ModelConfig, topology: SkeletonTopology,
                 ism: IsmParams | None, bones: Tensor | None, stages: list[Stage],
                 head: ClassifierHead, seed: int):
        self.config = config
        self.topology = topology
        self.ism = ism
        self.bones = bones
        self.stages = stages
        self.head = head
        self.seed = seed

    @property
    def dtype(self):
        return self.config.np_dtype

    def _named_leaves(self, kind: type) -> list:
        trees = [("ism", self.ism)] if self.ism is not None else []
        trees += [(f"stage{i}", s) for i, s in enumerate(self.stages, 1)]
        trees.append(("head", self.head))
        return [pair for prefix, tree in trees for pair in named_leaves(tree, prefix, kind)]

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        """Every trainable parameter: `ism`, then `stage1`..`stage3`, then `head`."""
        return self._named_leaves(Parameter)

    def named_state(self) -> list[tuple[str, np.ndarray]]:
        """The running moments of every batch norm, in the same tree order."""
        return self._named_leaves(np.ndarray)

    def node_trajectory(self) -> list[int]:
        """Node counts from input graph through every stage output."""
        return [self.stages[0].adj_in.shape[0]] + [s.adj_out.shape[0] for s in self.stages]

    def widest_activation_bytes(self) -> int:
        """Bytes of the widest per-sample activation: a stage reads and writes at
        most max(c_in, c_out) channels at its input's frames and nodes."""
        frames, widest = self.config.frames, 0
        for (c_in, c_out), stage, nodes in zip(_stage_widths(self.config), self.stages,
                                                self.node_trajectory()):
            widest = max(widest, max(c_in, c_out) * frames * nodes)
            if stage.assignment is not None:  # pooling pairs frames
                frames = -(-frames // 2)
        return widest * np.dtype(self.dtype).itemsize

    @property
    def eval_block(self) -> int:
        """Samples per block of the eval forward (at least one): `EVAL_BLOCK_BYTES`
        per thread that BLAS spreads a block over (one where unknown)."""
        budget = EVAL_BLOCK_BYTES * (_blas_threads() or 1)
        return max(1, budget // self.widest_activation_bytes())

    def eval_threads(self, batch: int) -> int:
        """Threads that score an eval batch of `batch` samples: one per block, at
        most `_eval_workers()`."""
        return max(1, min(_eval_workers(), -(-batch // self.eval_block)))

    def forward(self, x, train: bool = False, corr_out: list | None = None) -> Tensor:
        """Logits for a (batch, 3, frames, nodes) input.

        `corr_out`, when a list, collects one (stage_index, correlation array)
        pair per adaptive pooling on the main path, each over the whole batch.

        In eval mode with nothing recording (no `Tape`, no `shape_record`) the
        samples are independent, so the batch runs through `logits` in blocks
        of near-equal size, at most `eval_block` samples each, on
        `eval_threads` threads, and the logits and correlation fields are
        concatenated in block order. The calling thread scores blocks too, and
        the helper threads of `_in_blocks` end before this returns. A training
        forward, or one that records, runs the whole batch at once on the
        calling thread.
        """
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x), dtype=self.dtype)
        if x.dtype != self.dtype:
            x = Tensor(x.data, dtype=self.dtype)
        cfg = self.config
        expect = (3, cfg.frames, self.topology.node_count)
        if x.ndim != 4 or x.shape[1:] != expect:
            raise ValueError(f"input shape {x.shape} does not match (batch, {expect[0]}, "
                             f"{expect[1]}, {expect[2]})")
        if train or recording() or x.shape[0] <= self.eval_block:
            return self.logits(x, train, corr_out)
        parts = np.array_split(x.data, -(-x.shape[0] // self.eval_block))

        def run(i: int) -> tuple[np.ndarray, list | None]:
            corr = None if corr_out is None else []
            return self.logits(Tensor(parts[i]), False, corr).data, corr

        logits, fields = zip(*_in_blocks(run, len(parts), self.eval_threads(x.shape[0])))
        if corr_out is not None:
            corr_out += [(i, np.concatenate([f[k][1] for f in fields]))
                         for k, (i, _) in enumerate(fields[0])]
        return Tensor(np.concatenate(logits))

    def logits(self, h: Tensor, train: bool, corr_out: list | None = None) -> Tensor:
        """The network on a checked input tensor; each block runs in its `scope`
        (`ism`, `stage1`..`stage3`, `head`), which names its operators."""
        if self.ism is not None:
            with scope("ism"):
                h = information_supplement(h, self.ism, self.bones,
                                           self.stages[0].adj_in, train)
        for i, stage in enumerate(self.stages, 1):
            stage_corr: list = []
            with scope(f"stage{i}"):
                if stage.cfb is not None and i == len(self.stages):  # heavy: fuse after pooling
                    hb, eb = cross_fusion_split(h, stage.cfb, stage.assignment,
                                                stage.adj_out, stage.adj_in, train,
                                                corr_out=stage_corr)
                    h = fuse_branches(global_average(hb), global_average(eb), stage.cfb)
                elif stage.cfb is not None:  # heavy
                    h = cross_fusion_block(h, stage.cfb, stage.assignment,
                                           stage.adj_out, stage.adj_in, train,
                                           corr_out=stage_corr)
                else:  # light
                    if stage.assignment is not None:
                        h = st_pool(h, stage.pool, stage.assignment,
                                    residual=self.config.residual_pool,
                                    corr_out=stage_corr)
                    h = gcn_block(h, stage.gcn, stage.adj_out, train)
            if corr_out is not None and stage_corr:
                corr_out.append((i, stage_corr[0].data.copy()))
        with scope("head"):
            return classifier_head(h, self.head)


def build_model(config: ModelConfig, seed: int = 0) -> Model:
    """Deterministically initialize a model from a validated config and a seed."""
    config = config.validate()
    topo, scheme = load_topology(config.topology)
    dtype = config.np_dtype
    rng = np.random.default_rng(seed)
    pooled = len(config.pooling_locations)
    mats = stage_matrices(topo, scheme)[:pooled] if pooled else []

    ism = IsmParams.init(config.ism_channels, rng=rng, dtype=dtype) if config.ism else None
    bones = Tensor(bone_matrix(topo), dtype=dtype) if config.ism else None
    adj = Tensor(normalized_adjacency(topo), dtype=dtype)
    stages = []
    for c_in, c_out in _stage_widths(config):
        assignment, adj_in = None, adj
        if mats:
            p, norm, _ = mats.pop(0)
            assignment, adj = Tensor(p, dtype=dtype), Tensor(norm, dtype=dtype)
        adaptive = config.adaptive and assignment is not None
        if config.variant == "heavy":
            cfb = CrossFusionParams.init(
                c_in, c_out, ratio=config.ratio, sigma=config.sigma,
                kernel=config.temporal_kernel, fuse=config.fusion_mode,
                weight=config.fusion_weight, adaptive=adaptive,
                residual_pool=config.residual_pool, rng=rng, dtype=dtype)
            stages.append(Stage(assignment, adj_in, adj, cfb=cfb))
        else:
            pool = PoolingParams.init(c_in, ratio=config.ratio, sigma=config.sigma,
                                      rng=rng, dtype=dtype) if adaptive else None
            gcn = GraphConvParams.init(c_in, c_out, kernel=config.temporal_kernel,
                                       rng=rng, dtype=dtype)
            stages.append(Stage(assignment, adj_in, adj, pool=pool, gcn=gcn))

    head = ClassifierHead.init(config.channels[-1], config.classes, rng=rng, dtype=dtype)
    return Model(config, topo, ism, bones, stages, head, seed)


# ---------------------------------------------------------------------------
# checkpoints: `data.write_container` and `data.read_container` with magic SKPL


def save_checkpoint(model: Model, path: str) -> None:
    params = [(n, p.data) for n, p in model.named_parameters()]
    state = model.named_state()
    header = {"config": config_doc(model.config), "seed": model.seed}
    for key, leaves in (("params", params), ("state", state)):
        header[key] = [{"name": n, "shape": list(a.shape), "dtype": a.dtype.str[1:]}
                       for n, a in leaves]
    write_container(path, _MAGIC, header, (a.astype("<" + a.dtype.str[1:])
                                           for _, a in params + state))


def _read_checkpoint(text: bytes, block) -> Model:
    try:
        header = parse_json(text.decode("utf-8"))
        config = config_from_doc(ModelConfig, json_field(header, "config", (dict,), "header"))
        seed = json_field(header, "seed", (int,), "header", 0)
        if seed < 0:
            raise ValueError(f"header field 'seed' must be a non-negative integer, not {seed}")
        sections = [[(json_field(m, "name", (str,), f"{key} entry {i}"),
                      json_field(m, "shape", (tuple,), f"{key} entry {i}"),
                      json_field(m, "dtype", (str,), f"{key} entry {i}"))
                     for i, m in enumerate(json_field(header, key, (list,), "header"))]
                    for key in ("params", "state")]
    except ValueError as exc:
        raise ValueError(f"malformed checkpoint header: {exc}") from exc
    model = build_model(config, seed=seed)

    for kind, saved, leaves in (("parameter", sections[0], model.named_parameters()),
                                ("state", sections[1], model.named_state())):
        if [name for name, _, _ in saved] != [name for name, _ in leaves]:
            raise ValueError(f"{kind} entries do not match the config")
        for (name, shape, code), (_, leaf) in zip(saved, leaves):
            if code not in ("f4", "f8"):
                raise ValueError(f"unknown dtype {code!r} for {name}")
            if shape != leaf.shape:
                raise ValueError(f"{name} has shape {shape}, not {leaf.shape}")
            value = block("<" + code, leaf.size).reshape(shape).astype(model.dtype)
            if not np.isfinite(value).all():
                raise ValueError(f"{name} holds a non-finite value")
            if name.endswith(".running_var") and (value < 0).any():
                raise ValueError(f"{name} holds a negative variance")
            if isinstance(leaf, Parameter):
                leaf.assign(value)
            else:
                leaf[...] = value
    return model


def load_checkpoint(path: str) -> Model:
    """Rebuild a model from a checkpoint file; a malformed file raises ValueError.

    The header must list exactly the model's `named_parameters()` and then its
    `named_state()`, in that order, with their shapes and a known dtype, and
    the data blocks must end the file. Every stored value must be finite and
    every running variance non-negative.
    """
    return read_container(path, _MAGIC, "checkpoint", _read_checkpoint)
