"""Loss, optimizer, learning-rate schedule, augmentation, and the training loop.

The recipe: softmax cross-entropy, SGD with Nesterov momentum 0.9, weight
decay off the normalization parameters, a linear warmup over the first epochs,
and step decay by 0.1 at the configured epochs. Runs are bitwise reproducible
for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import Dataset, to_arrays
from .model import Model
from .tensor import GradientSet, Parameter, Tape, gradients

cross_entropy = T.cross_entropy


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 65
    warmup: int = 5
    base_lr: float = 0.1
    decay_steps: tuple[int, ...] = (35, 55)
    decay_factor: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 4e-4
    batch_size: int = 64
    seed: int = 0
    augment: bool = True
    rotate_max: float = 0.3
    early_stop_train_acc: float | None = None

    def validate(self) -> "TrainConfig":
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not 0 <= self.warmup:
            raise ValueError("warmup must be >= 0")
        steps = tuple(self.decay_steps)
        if list(steps) != sorted(set(steps)):
            raise ValueError("decay steps must be strictly increasing")
        if steps and (steps[0] <= self.warmup or steps[-1] > self.epochs):
            raise ValueError("decay steps must satisfy warmup < first and last <= epochs")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if not 0 < self.base_lr < np.inf:
            raise ValueError("base_lr must be positive and finite")
        if not 0 < self.decay_factor <= 1:
            raise ValueError("decay_factor must lie in (0, 1]")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError("weight_decay must be >= 0 and finite")
        if not 0 <= self.rotate_max < np.inf:
            raise ValueError("rotate_max must be >= 0 and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        return self


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Linear warmup from base/warmup to base, then step decay at each step."""
    if not 0 <= epoch < config.epochs:
        raise ValueError(f"epoch {epoch} outside 0..{config.epochs - 1}")
    if epoch < config.warmup:
        return config.base_lr * (epoch + 1) / config.warmup
    drops = sum(1 for s in config.decay_steps if epoch >= s)
    return config.base_lr * config.decay_factor ** drops


class OptimizerState:
    """Per-parameter velocity buffers, zero-initialized on first use."""

    def __init__(self):
        self._velocity: dict[int, np.ndarray] = {}

    def velocity(self, param: Parameter) -> np.ndarray:
        buf = self._velocity.get(id(param))
        if buf is None:
            buf = np.zeros_like(param.data)
            self._velocity[id(param)] = buf
        return buf


def sgd_nesterov_step(params: list[Parameter], grads: GradientSet, state: OptimizerState,
                      lr: float, momentum: float, weight_decay: float) -> None:
    """g <- grad + wd*param; v <- momentum*v + g; param <- param - lr*(g + momentum*v)."""
    for p in params:
        g = grads[p].data
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        if weight_decay and p.decay:
            g = g + weight_decay * p.data
        v = state.velocity(p)
        v *= momentum
        v += g
        p.assign(p.data - lr * (g + momentum * v))


# ---------------------------------------------------------------------------
# augmentation


def rotation_matrix(ax: float, ay: float, az: float) -> np.ndarray:
    """Composed rotation X*Y*Z about the coordinate axes (radians)."""
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rx @ ry @ rz


def random_rotate(seq: np.ndarray, seed_or_rng, max_angle: float = 0.3) -> np.ndarray:
    """One random whole-sequence rotation of a (3, frames, nodes) array."""
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) \
        else np.random.default_rng(seed_or_rng)
    angles = rng.uniform(-max_angle, max_angle, size=3)
    rot = rotation_matrix(*angles).astype(seq.dtype)
    return np.einsum("ij,jtn->itn", rot, seq)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochMetrics:
    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    eval_acc: float  # nan when no eval split was given

    def line(self) -> str:
        return f"{self.epoch},{self.lr!r},{self.train_loss!r}," \
               f"{self.train_acc!r},{self.eval_acc!r}"


def write_metrics(path: str, metrics: list[EpochMetrics]) -> None:
    with open(path, "w") as fh:
        for m in metrics:
            fh.write(m.line() + "\n")


def _batches(count: int, batch_size: int):
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, not {batch_size}")
    for start in range(0, count, batch_size):
        yield np.arange(start, min(start + batch_size, count))


def evaluate(model: Model, x: np.ndarray, y: np.ndarray) -> float:
    """Eval-mode accuracy of one `Model.forward`, which runs the batch in
    cache-sized blocks."""
    logits = model.forward(x, train=False)
    return int((np.argmax(logits.data, axis=1) == y).sum()) / len(y)


def predict_scores(model: Model, x: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Per-sample softmax class scores in eval mode, `batch_size` samples per
    `Model.forward` call (kept only because the benchmark harness passes it)."""
    chunks = []
    for idx in _batches(len(x), batch_size):
        logits = model.forward(x[idx], train=False)
        chunks.append(T.softmax(logits).data.astype(np.float64))
    return np.concatenate(chunks, axis=0)


def train_loop(model: Model, train_set: Dataset, config: TrainConfig,
               eval_set: Dataset | None = None,
               log=None) -> list[EpochMetrics]:
    """Train in place; one metrics row per epoch. Deterministic given the seed.

    A non-finite activation anywhere aborts with an error naming the operator.
    With `early_stop_train_acc` set, training stops after the first epoch whose
    in-epoch accuracy and eval-mode accuracy on the training set both reach it.
    """
    config = config.validate()
    x, y, _ = to_arrays(train_set, dtype=model.dtype)
    if x.shape[2] != model.config.frames or x.shape[3] != model.topology.node_count:
        raise ValueError(f"dataset shape {x.shape[1:]} does not match the model "
                         f"(3, {model.config.frames}, {model.topology.node_count})")
    xe = ye = None
    if eval_set is not None:
        xe, ye, _ = to_arrays(eval_set, dtype=model.dtype)

    params = [p for _, p in model.named_parameters()]
    state = OptimizerState()
    rng = np.random.default_rng(config.seed)
    metrics: list[EpochMetrics] = []

    for epoch in range(config.epochs):
        lr = lr_at(epoch, config)
        order = rng.permutation(len(y))
        losses, correct = [], 0
        for idx in _batches(len(y), config.batch_size):
            take = order[idx]
            xb = x[take].copy()
            if config.augment:
                for i in range(len(take)):
                    xb[i] = random_rotate(xb[i], rng, max_angle=config.rotate_max)
            yb = y[take]
            with Tape() as tape:
                logits = model.forward(xb, train=True)
                loss = cross_entropy(logits, yb)
            grads = gradients(tape, loss, params)
            sgd_nesterov_step(params, grads, state, lr, config.momentum,
                              config.weight_decay)
            losses.append(loss.item())
            correct += int((np.argmax(logits.data, axis=1) == yb).sum())
        train_acc = correct / len(y)
        eval_acc = evaluate(model, xe, ye) if xe is not None else float("nan")
        row = EpochMetrics(epoch, lr, float(np.mean(losses)), train_acc, eval_acc)
        metrics.append(row)
        if log is not None:
            log(row)
        # The eval-mode check matters because eval mode normalizes with the
        # running moments, which lag behind the in-epoch batch statistics.
        if config.early_stop_train_acc is not None \
                and train_acc >= config.early_stop_train_acc \
                and evaluate(model, x, y) >= config.early_stop_train_acc:
            break
    return metrics
