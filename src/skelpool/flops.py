"""Multiply-accumulate accounting, read from the operators one forward runs.

Counts depend only on shapes, never on values. Convention: one MAC per
multiply (or fused multiply-add); pointwise rectifiers and pure additions are
free. Counts are per input sample (batch size one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelConfig, build_model
from .tensor import Tensor, shape_record


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


# MACs of one operator call from its input and output shapes; operators not
# listed (additions, rectifiers, reshapes, ...) are free.
_MACS = {
    "conv1x1": lambda ins, out: math.prod(out) * ins[1][0],
    **dict.fromkeys(("matmul", "assign_pool"), lambda ins, out: math.prod(out) * ins[0][-1]),
    "temporal_conv": lambda ins, out: math.prod(out) * ins[1][1] * ins[1][2],
    "mean": lambda ins, out: math.prod(ins[0]),
    **dict.fromkeys(("mul", "scale", "batch_norm", "channel_affine", "pair_avg_time"),
                    lambda ins, out: math.prod(out)),
}


def count_flops(config: ModelConfig) -> FlopsReport:
    """Per-operator MACs of one sample, one entry per costed operator call of a
    train-mode forward of a zero sample. It runs `Model.logits`, not `forward`,
    and leaves any active tape alone, so a forward may call it."""
    model = build_model(config)
    x = Tensor(np.zeros((1, 3, model.config.frames, model.topology.node_count)),
               dtype=model.dtype)
    with shape_record() as record:
        model.logits(x, train=True)
    entries = [(block, op, _MACS[op](ins, out))
               for block, op, ins, out in record if op in _MACS]
    return FlopsReport(model.config, entries)


def no_pooling_control(config: ModelConfig) -> ModelConfig:
    """Identical depth and channels, pooling removed everywhere."""
    return replace(config, pooling_locations=())
