"""Loss, schedule, optimizer recurrence, augmentation, and the training loop."""

import math

import numpy as np
import pytest

from skelpool import model as M
from skelpool.data import synth_generate, to_arrays
from skelpool.model import ModelConfig, build_model, load_checkpoint, save_checkpoint
from skelpool.tensor import (GradientSet, NonFiniteError, Parameter, Tape, Tensor,
                             gradients)
from skelpool.train import (EpochMetrics, OptimizerState, TrainConfig, cross_entropy,
                            evaluate, lr_at, predict_scores, random_rotate, rotation_matrix,
                            sgd_nesterov_step, train_loop, write_metrics)

RECIPE = TrainConfig()  # recipe defaults: 65 epochs, warmup 5, decay at 35/55


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = Tensor(np.zeros((4, 8)))
        loss = cross_entropy(logits, np.arange(4))
        assert loss.item() == pytest.approx(math.log(8), abs=1e-9)

    def test_confident_logits_drive_loss_to_zero(self):
        logits = np.full((3, 5), -30.0)
        logits[np.arange(3), [0, 2, 4]] = 30.0
        loss = cross_entropy(Tensor(logits), np.array([0, 2, 4]))
        assert loss.item() < 1e-6

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_gradient_is_mean_softmax_minus_onehot(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal((4, 6)))
        labels = rng.integers(0, 6, size=4)
        with Tape() as tape:
            loss = cross_entropy(logits, labels)
        g = gradients(tape, loss, [logits])[logits].data
        e = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(4), labels] -= 1
        assert np.allclose(g, p / 4, atol=1e-12)


class TestSchedule:
    @pytest.mark.parametrize("epoch,want", [
        (0, 0.02), (4, 0.1), (5, 0.1), (34, 0.1), (35, 0.01),
        (54, 0.01), (55, 0.001), (64, 0.001),
    ])
    def test_pinned_values(self, epoch, want):
        assert lr_at(epoch, RECIPE) == pytest.approx(want, rel=1e-12)

    def test_piecewise_monotone(self):
        values = [lr_at(e, RECIPE) for e in range(RECIPE.epochs)]
        ramp, rest = values[: RECIPE.warmup], values[RECIPE.warmup :]
        assert all(b >= a for a, b in zip(ramp, ramp[1:]))
        assert all(b <= a for a, b in zip(rest, rest[1:]))

    def test_epoch_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lr_at(65, RECIPE)
        with pytest.raises(ValueError):
            lr_at(-1, RECIPE)

    def test_config_invariant_enforced(self):
        with pytest.raises(ValueError, match="decay steps"):
            TrainConfig(epochs=30, decay_steps=(35, 55)).validate()
        with pytest.raises(ValueError, match="decay steps"):
            TrainConfig(warmup=10, decay_steps=(5, 55)).validate()


class TestSgdNesterov:
    def step(self, param, grad, state, lr=0.1, momentum=0.9, wd=0.0):
        grads = GradientSet([(param, Tensor(np.asarray(grad, dtype=np.float64)))], [])
        sgd_nesterov_step([param], grads, state, lr, momentum, wd)

    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = Parameter(np.array([1.0, -2.0]))
        self.step(p, [0.0, 0.0], OptimizerState())
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_two_step_trajectory_of_stated_recurrence(self):
        # hand evaluation: g=1 each step, lr=0.1, momentum=0.9
        # step 1: v=1,   update=1+0.9*1=1.9,    delta=-0.19
        # step 2: v=1.9, update=1+0.9*1.9=2.71, delta=-0.271
        p = Parameter(np.array([0.0]))
        state = OptimizerState()
        self.step(p, [1.0], state)
        assert p.data[0] == pytest.approx(-0.19, abs=1e-12)
        self.step(p, [1.0], state)
        assert p.data[0] == pytest.approx(-0.19 - 0.271, abs=1e-12)

    def test_weight_decay_only_is_geometric_without_momentum(self):
        p = Parameter(np.array([2.0]))
        state = OptimizerState()
        lr, wd = 0.1, 0.5
        for k in range(1, 6):
            self.step(p, [0.0], state, lr=lr, momentum=0.0, wd=wd)
            assert p.data[0] == pytest.approx(2.0 * (1 - lr * wd) ** k, rel=1e-12)

    def test_weight_decay_with_momentum_matches_reference_loop(self):
        p = Parameter(np.array([1.5]))
        state = OptimizerState()
        ref, v = 1.5, 0.0
        for _ in range(4):
            self.step(p, [0.0], state, lr=0.05, momentum=0.9, wd=0.3)
            g = 0.3 * ref
            v = 0.9 * v + g
            ref = ref - 0.05 * (g + 0.9 * v)
            assert p.data[0] == pytest.approx(ref, rel=1e-12)

    def test_norm_parameters_skip_weight_decay(self):
        gamma = Parameter(np.array([1.0]), decay=False)
        self.step(gamma, [0.0], OptimizerState(), wd=0.5)
        assert gamma.data[0] == 1.0

    def test_zero_learning_rate_is_identity(self):
        p = Parameter(np.array([3.0, -1.0]))
        self.step(p, [5.0, -2.0], OptimizerState(), lr=0.0)
        assert np.array_equal(p.data, [3.0, -1.0])

    def test_shape_mismatch_rejected(self):
        p = Parameter(np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            self.step(p, [1.0, 1.0], OptimizerState())


class TestRandomRotate:
    def test_zero_angle_bound_is_identity(self):
        seq = np.random.default_rng(1).standard_normal((3, 5, 4))
        out = random_rotate(seq, seed_or_rng=0, max_angle=0.0)
        assert np.allclose(out, seq)

    def test_rotation_preserves_joint_norms(self):
        seq = np.random.default_rng(2).standard_normal((3, 6, 5))
        out = random_rotate(seq, seed_or_rng=3, max_angle=0.3)
        assert np.allclose(np.linalg.norm(out, axis=0),
                           np.linalg.norm(seq, axis=0), atol=1e-6)

    def test_same_seed_reproduces(self):
        seq = np.random.default_rng(4).standard_normal((3, 5, 4))
        assert np.array_equal(random_rotate(seq, 7), random_rotate(seq, 7))

    def test_rotation_matrix_is_orthonormal(self):
        m = rotation_matrix(0.2, -0.1, 0.25)
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(m) == pytest.approx(1.0)


def tiny_setup(classes=3, per_class=4, frames=8, seed=0):
    train = synth_generate(classes, per_class, frames, "uwa15", noise=0.01,
                           seed=seed, split="train")
    cfg = ModelConfig(variant="light", topology="uwa15", classes=classes,
                      frames=frames, channels=(4, 8, 8), ism_channels=4)
    return train, cfg


TINY = dict(warmup=1, base_lr=0.05, decay_steps=(2,), batch_size=4, augment=False)


def learning_setup():
    """A setting whose eval-mode accuracy really rises: every model seed 0-9
    reaches 0.9 in 9-19 epochs, so early stopping does not hinge on rounding."""
    train = synth_generate(3, 8, 16, "uwa15", noise=0.01, seed=0, split="train")
    cfg = ModelConfig(variant="light", topology="uwa15", classes=3, frames=16,
                      channels=(8, 16, 16), ism_channels=8)
    return train, cfg


class TestTrainLoop:
    def test_smoke_one_epoch(self, tmp_path):
        train, cfg = tiny_setup()
        model = build_model(cfg, seed=0)
        metrics = train_loop(model, train, TrainConfig(epochs=1, warmup=1,
                                                       decay_steps=(), batch_size=4,
                                                       seed=0))
        assert len(metrics) == 1
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        x, y, _ = to_arrays(train, dtype=model.dtype)
        reloaded = load_checkpoint(str(path))
        assert evaluate(reloaded, x, y) == evaluate(model, x, y)

    def test_first_epoch_loss_near_log_k_then_decreases(self):
        train, cfg = tiny_setup()
        model = build_model(cfg, seed=1)
        metrics = train_loop(model, train, TrainConfig(epochs=3, seed=0, **TINY))
        assert metrics[0].train_loss == pytest.approx(math.log(3), abs=0.05)
        assert metrics[-1].train_loss < metrics[0].train_loss

    def test_same_seed_runs_are_bitwise_identical(self):
        train, cfg = tiny_setup()
        curves = []
        for _ in range(2):
            model = build_model(cfg, seed=2)
            metrics = train_loop(model, train,
                                 TrainConfig(epochs=3, seed=9, **{**TINY, "augment": True}))
            curves.append([(m.train_loss, m.train_acc) for m in metrics])
        assert curves[0] == curves[1]

    def test_early_stop_cuts_epochs(self):
        train, cfg = learning_setup()
        model = build_model(cfg, seed=3)
        metrics = train_loop(model, train,
                             TrainConfig(epochs=50, warmup=1, base_lr=0.02,
                                         decay_steps=(30,), batch_size=8,
                                         augment=False, seed=1,
                                         early_stop_train_acc=0.9))
        assert metrics[-1].train_acc >= 0.9
        assert len(metrics) < 50

    def test_early_stop_requires_eval_mode_accuracy(self):
        # Resetting the running moments after every epoch keeps eval mode far
        # behind train mode; stopping on the train-mode accuracy alone would
        # return a model that fails the target in eval mode.
        train, cfg = learning_setup()
        model = build_model(cfg, seed=3)

        def reset_moments(row):
            for name, arr in model.named_state():
                arr[...] = 1.0 if name.endswith("running_var") else 0.0

        metrics = train_loop(model, train,
                             TrainConfig(epochs=30, warmup=1, base_lr=0.02,
                                         decay_steps=(20,), batch_size=8,
                                         augment=False, seed=1,
                                         early_stop_train_acc=0.9),
                             log=reset_moments)
        x, y, _ = to_arrays(train, dtype=model.dtype)
        assert max(m.train_acc for m in metrics) >= 0.9  # the train-mode gate was met
        assert len(metrics) == 30 or evaluate(model, x, y) >= 0.9

    def test_label_permutation_permutes_confusion_structure(self):
        # zero-init head makes training covariant under class relabeling; run in
        # 64-bit so reordered class sums stay far below decision margins
        import dataclasses
        classes = 3
        train, cfg = tiny_setup(classes=classes, seed=5)
        cfg = dataclasses.replace(cfg, dtype="f64")
        perm = np.array([2, 0, 1])

        def run(dataset):
            model = build_model(cfg, seed=4)
            train_loop(model, dataset, TrainConfig(epochs=3, seed=7, **TINY))
            x, y, _ = to_arrays(dataset, dtype=model.dtype)
            logits = np.concatenate([model.forward(x[i : i + 4]).data
                                     for i in range(0, len(y), 4)])
            out = np.zeros((classes, classes), dtype=int)
            for t, p in zip(y, np.argmax(logits, axis=1)):
                out[t, p] += 1
            return logits, out

        base_logits, base_confusion = run(train)
        relabeled = train.__class__(train.topology, list(train.classes), train.split,
                                    [type(s)(s.frames, int(perm[s.label]), s.id)
                                     for s in train.sequences])
        perm_logits, perm_confusion = run(relabeled)
        assert np.allclose(perm_logits[:, perm], base_logits, rtol=1e-6, atol=1e-9)
        assert np.array_equal(perm_confusion[np.ix_(perm, perm)], base_confusion)

    def test_dataset_shape_mismatch_rejected(self):
        import dataclasses
        train, cfg = tiny_setup(frames=8)
        model = build_model(dataclasses.replace(cfg, frames=16), seed=0)
        with pytest.raises(ValueError, match="does not match"):
            train_loop(model, train, TrainConfig(epochs=1, warmup=1, decay_steps=(),
                                                 batch_size=4, seed=0))

    def test_non_finite_loss_aborts_with_operator_name(self):
        train, cfg = tiny_setup()
        model = build_model(cfg, seed=6)
        name, param = model.named_parameters()[4]
        param.assign(np.full(param.shape, 1e30, dtype=param.dtype))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError):
            train_loop(model, train, TrainConfig(epochs=1, warmup=1, decay_steps=(),
                                                 batch_size=4, seed=0))


@pytest.mark.parametrize("batch_size", [0, -1])
def test_eval_helpers_reject_a_non_positive_batch_size(batch_size):
    train, cfg = tiny_setup()
    model = build_model(cfg, seed=0)
    x, y, _ = to_arrays(train, dtype=model.dtype)
    with pytest.raises(ValueError, match=f"batch_size must be >= 1, not {batch_size}"):
        predict_scores(model, x, batch_size)


def test_evaluate_over_several_blocks_matches_one_shot_logits(monkeypatch):
    train, cfg = tiny_setup()
    model = build_model(cfg, seed=0)
    x, y, _ = to_arrays(train, dtype=model.dtype)
    one_shot = model.logits(Tensor(x), train=False).data
    monkeypatch.setattr(M, "EVAL_BLOCK_BYTES", 2 * model.widest_activation_bytes())
    logits, blocks = M.Model.logits, []

    def counted(self, h, *args, **kwargs):
        blocks.append(h.shape[0])
        return logits(self, h, *args, **kwargs)

    monkeypatch.setattr(M.Model, "logits", counted)
    accuracy = evaluate(model, x, y)
    assert len(blocks) > 2 and max(blocks) == 2 and sum(blocks) == len(y)
    assert accuracy == int((np.argmax(one_shot, axis=1) == y).sum()) / len(y)


def test_metrics_file_format(tmp_path):
    rows = [EpochMetrics(0, 0.02, 2.1, 0.25, float("nan")),
            EpochMetrics(1, 0.04, 1.9, 0.5, 0.75)]
    path = tmp_path / "metrics.csv"
    write_metrics(str(path), rows)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "1" and float(fields[1]) == 0.04
    assert len(fields) == 5
