"""Analytic multiply-accumulate accounting, mirroring the forward structure.

Counts depend only on configured shapes, never on values. Convention: one MAC
per multiply (or fused multiply-add); pointwise rectifiers and pure additions
are free. Counts are per input sample (batch size one).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import ModelConfig, stage_plan
from .skeleton import load_topology


@dataclass
class FlopsReport:
    config: ModelConfig
    entries: list[tuple[str, str, int]]  # (block, operator, macs)

    @property
    def total(self) -> int:
        return sum(m for _, _, m in self.entries)

    def block_totals(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for block, _, macs in self.entries:
            out[block] = out.get(block, 0) + macs
        return out

    def lines(self) -> list[str]:
        out = []
        for block, totals in self.block_totals().items():
            out.append(f"{block:8s} {totals / 1e6:10.3f} MMACs")
            for b, op, macs in self.entries:
                if b == block:
                    out.append(f"  {op:18s} {macs / 1e6:10.3f}")
        out.append(f"{'total':8s} {self.total / 1e6:10.3f} MMACs")
        return out


def _gcn_block(add, block, c_in, c_out, t, n, k):
    add(block, "conv1x1", c_in * c_out * t * n)
    add(block, "adjacency", c_out * t * n * n)
    add(block, "batch_norm", c_out * t * n)  # norm
    add(block, "temporal_conv", c_out * c_out * k * t * n)
    add(block, "batch_norm", c_out * t * n)  # norm_out


def _pooling(add, block, c, t, n, m, adaptive, ratio):
    if adaptive:
        proj = c // ratio
        add(block, "correlation_proj", 2 * c * proj * t * n)
        add(block, "correlation_inner", proj * t * n * n)
        add(block, "pool_weight", c * t * n)
    add(block, "pool_assign", c * t * n * m)
    add(block, "temporal_pool", c * (-(-t // 2)) * m)


def count_flops(config: ModelConfig) -> FlopsReport:
    """Per-operator MACs for one forward pass of a single sample."""
    config = config.validate()
    topo, scheme = load_topology(config.topology)
    plans = stage_plan(config, topo, scheme)
    entries: list[tuple[str, str, int]] = []

    def add(block, op, macs):
        entries.append((block, op, int(macs)))

    n0, t0 = topo.node_count, config.frames
    if config.ism:
        e = config.ism_channels
        for _ in ("vec", "pos"):
            add("ism", "batch_norm", 3 * t0 * n0)
            add("ism", "conv1x1", 3 * e * t0 * n0)
            add("ism", "adjacency", e * t0 * n0 * n0)
            add("ism", "conv1x1", e * e * t0 * n0)
            add("ism", "adjacency", e * t0 * n0 * n0)

    for plan in plans:
        block = f"stage{plan.index}"
        heavy = config.variant == "heavy"
        if plan.pooled:
            _pooling(add, block, plan.c_in, plan.t_in, plan.n_in, plan.n_out,
                     config.adaptive, config.ratio)
        _gcn_block(add, block, plan.c_in, plan.c_out, plan.t_out, plan.n_out,
                   config.temporal_kernel)  # coarse (or only) branch
        if heavy:
            _gcn_block(add, block, plan.c_in, plan.c_out, plan.t_in, plan.n_in,
                       config.temporal_kernel)  # fine branch at input resolution
            if plan.pooled:
                _pooling(add, block, plan.c_out, plan.t_in, plan.n_in, plan.n_out,
                         config.adaptive, config.ratio)
            if plan.index == 3:
                add(block, "gap", 2 * plan.c_out * plan.t_out * plan.n_out)
                add(block, "fuse", 2 * plan.c_out if config.fusion_mode == "sum"
                    else 2 * plan.c_out * plan.c_out)
            else:
                add(block, "fuse", 2 * plan.c_out * plan.t_out * plan.n_out
                    if config.fusion_mode == "sum"
                    else 2 * plan.c_out * plan.c_out * plan.t_out * plan.n_out)

    last = plans[-1]
    if not (config.variant == "heavy"):
        add("head", "gap", last.c_out * last.t_out * last.n_out)
    add("head", "fc", last.c_out * config.classes)
    return FlopsReport(config, entries)


def no_pooling_control(config: ModelConfig) -> ModelConfig:
    """Identical depth and channels, pooling removed everywhere."""
    return replace(config, pooling_locations=())
