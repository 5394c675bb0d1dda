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

import json
import struct
from dataclasses import dataclass, fields

import numpy as np

from .blocks import (FUSION_MODES, ClassifierHead, CrossFusionParams, IsmParams,
                     classifier_head, cross_fusion_block, cross_fusion_split,
                     fuse_branches, global_average, information_supplement)
from .gcn import GraphConvParams, gcn_block
from .pooling import SIGMAS, PoolingParams, st_pool
from .skeleton import (SkeletonTopology, load_topology, normalized_adjacency, stage_matrices,
                       unique_keys)
from .tensor import Parameter, Tensor, named_leaves, scope

# the allowed values of each enumerated ModelConfig field, checked by `validate`
# and offered as the CLI's `choices`
FIELD_CHOICES = {"variant": ("light", "heavy"), "sigma": SIGMAS,
                 "fusion_mode": FUSION_MODES, "dtype": ("f32", "f64")}
_MAGIC = b"SKPL"
_VERSION = 1


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


def _field_value(name: str, default, value):
    """`value` checked against the type of the field's default; lists become tuples.
    Types are compared with `type`, not `isinstance`, so a bool is never a number."""
    if isinstance(default, tuple):
        ok = isinstance(value, (list, tuple)) and all(type(v) is int for v in value)
        want = "a list of integers"
    elif default is None or isinstance(default, float):
        ok = type(value) in (int, float) or (default is None and value is None)
        want = "a number" if default is not None else "a number or null"
    else:  # bool, int or str; a topology may also be a topology document
        ok = type(value) is type(default) or (name == "topology" and type(value) is dict)
        want = {bool: "true or false", int: "an integer", str: "a string"}[type(default)]
    if not ok:
        raise ValueError(f"config field {name!r} must be {want}, not {value!r}")
    return tuple(value) if isinstance(default, tuple) else value


def config_from_doc(cls, doc: dict):
    """The validated config of class `cls` from a document; missing fields keep
    their defaults. An unknown key or a value of the wrong type raises ValueError."""
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = set(doc) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return cls(**{k: _field_value(k, defaults[k], v) for k, v in doc.items()}).validate()


@dataclass
class Stage:
    assignment: Tensor | None  # None when the stage keeps its graph
    adj_in: Tensor
    adj_out: Tensor
    pool: PoolingParams | None = None       # light variant
    gcn: GraphConvParams | None = None      # light variant
    cfb: CrossFusionParams | None = None    # heavy variant


class Model:
    """A built network: constant graph matrices plus the parameter tree."""

    def __init__(self, config: ModelConfig, topology: SkeletonTopology,
                 ism: IsmParams | None, stages: list[Stage], head: ClassifierHead,
                 seed: int):
        self.config = config
        self.topology = topology
        self.ism = ism
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

    def forward(self, x, train: bool = False, corr_out: list | None = None) -> Tensor:
        """Logits for a (batch, 3, frames, nodes) input.

        `corr_out`, when a list, collects one (stage_index, correlation array)
        pair per adaptive pooling on the main path.
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
        return self.logits(x, train, corr_out)

    def logits(self, h: Tensor, train: bool, corr_out: list | None = None) -> Tensor:
        """The network on a checked input tensor; each block runs in its `scope`
        (`ism`, `stage1`..`stage3`, `head`), which names its operators."""
        if self.ism is not None:
            with scope("ism"):
                h = information_supplement(h, self.ism, self.topology,
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
    return Model(config, topo, ism, stages, head, seed)


# ---------------------------------------------------------------------------
# checkpoint container: magic, version, json header, raw little-endian blobs


def _dtype_code(arr: np.ndarray) -> str:
    return {np.dtype(np.float32): "f4", np.dtype(np.float64): "f8"}[arr.dtype]


def save_checkpoint(model: Model, path: str) -> None:
    params = model.named_parameters()
    state = model.named_state()
    header = {
        "config": config_doc(model.config),
        "seed": model.seed,
        "params": [{"name": n, "shape": list(p.shape), "dtype": _dtype_code(p.data)}
                   for n, p in params],
        "state": [{"name": n, "shape": list(a.shape), "dtype": _dtype_code(a)}
                  for n, a in state],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, p in params:
            fh.write(p.data.astype("<" + _dtype_code(p.data)).tobytes())
        for _, a in state:
            fh.write(a.astype("<" + _dtype_code(a)).tobytes())


def load_checkpoint(path: str) -> Model:
    """Rebuild a model from a checkpoint file; a malformed file raises ValueError.

    The header must list exactly the model's `named_parameters()` and then its
    `named_state()`, in that order, with their shapes and a known dtype, and
    the data blocks must end the file. Every stored value must be finite and
    every running variance non-negative.
    """
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if n > len(raw) - pos:
            raise ValueError(f"{path}: truncated checkpoint")
        pos += n
        return raw[pos - n : pos]

    if take(4) != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack("<I", take(4))
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (hlen,) = struct.unpack("<Q", take(8))
    blob = take(hlen).tobytes()
    try:
        header = json.loads(blob.decode("utf-8"), object_pairs_hook=unique_keys)
        config = config_from_doc(ModelConfig, header["config"])
        seed = header.get("seed", 0)
        if type(seed) is not int or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, not {seed!r}")
        sections = [[(m["name"], tuple(m["shape"]), m["dtype"]) for m in header[key]]
                    for key in ("params", "state")]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header "
                         f"({type(exc).__name__}: {exc})") from exc
    model = build_model(config, seed=seed)

    for kind, saved, leaves in (("parameter", sections[0], model.named_parameters()),
                                ("state", sections[1], model.named_state())):
        if [name for name, _, _ in saved] != [name for name, _ in leaves]:
            raise ValueError(f"{path}: {kind} entries do not match the config")
        for (name, shape, code), (_, leaf) in zip(saved, leaves):
            if code not in ("f4", "f8"):
                raise ValueError(f"{path}: unknown dtype {code!r} for {name}")
            if shape != leaf.shape:
                raise ValueError(f"{path}: {name} has shape {shape}, not {leaf.shape}")
            dtype = np.dtype("<" + code)
            value = np.frombuffer(take(leaf.size * dtype.itemsize), dtype=dtype)
            value = value.reshape(shape).astype(model.dtype)
            if not np.isfinite(value).all():
                raise ValueError(f"{path}: {name} holds a non-finite value")
            if name.endswith(".running_var") and (value < 0).any():
                raise ValueError(f"{path}: {name} holds a negative variance")
            if isinstance(leaf, Parameter):
                leaf.assign(value)
            else:
                leaf[...] = value
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} trailing bytes after the data blocks")
    return model
