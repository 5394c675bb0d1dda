"""Model assembly, forward contracts, checkpoints, and MAC accounting."""

import dataclasses
import hashlib
import itertools
import json
import os
import re
import struct
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from skelpool import model as M
from skelpool import skeleton
from skelpool.cli import main
from skelpool.data import save_dataset, synth_generate
from skelpool.flops import count_flops, no_pooling_control
from skelpool.model import (Model, ModelConfig, build_model, config_doc, config_from_doc,
                            load_checkpoint, save_checkpoint)
from skelpool.skeleton import builtin_partition, builtin_topology, load_topology, topology_doc
from skelpool.tensor import NonFiniteError, Tape, Tensor, relu, scope, shape_record
from skelpool.train import TrainConfig

SLIM = dict(classes=8, frames=16, channels=(8, 16, 32), ism_channels=8)


def slim_config(**kw):
    return ModelConfig(**{**SLIM, **kw})


def rand_batch(config, batch=2, seed=0):
    topo, _ = load_topology(config.topology)
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, 3, config.frames, topo.node_count)) * 0.3


class TestBuild:
    @pytest.mark.parametrize("variant", ["light", "heavy"])
    def test_ntu25_node_trajectory(self, variant):
        model = build_model(slim_config(variant=variant), seed=0)
        assert model.node_trajectory() == [25, 10, 5, 2]

    def test_uwa15_node_trajectory(self):
        model = build_model(slim_config(topology="uwa15"), seed=0)
        assert model.node_trajectory() == [15, 10, 5, 2]

    def test_same_seed_builds_identical_parameters(self):
        a = build_model(slim_config(), seed=11)
        b = build_model(slim_config(), seed=11)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb and np.array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a = build_model(slim_config(), seed=11)
        b = build_model(slim_config(), seed=12)
        assert any(not np.array_equal(pa.data, pb.data)
                   for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()))

    def test_parameter_names_unique(self):
        model = build_model(slim_config(variant="heavy", fusion_mode="concat"), seed=0)
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("overrides, params, state", [
        (dict(variant="light"), (34, "a854996692abd0f1"), (16, "62f2e63c341f4ae0")),
        (dict(variant="heavy", fusion_mode="concat"),
         (61, "a94ef9b9de62cf8f"), (28, "7e137c249c5bb0c1")),
    ])
    def test_parameter_and_state_names_are_pinned(self, overrides, params, state):
        # the names, in order, are the checkpoint layout: any change breaks old files
        model = build_model(ModelConfig(**overrides), seed=0)
        for leaves, (count, digest) in ((model.named_parameters(), params),
                                         (model.named_state(), state)):
            names = [n for n, _ in leaves]
            assert len(names) == count
            assert hashlib.sha256("\n".join(names).encode()).hexdigest()[:16] == digest

    def test_partial_pooling_prefix(self):
        model = build_model(slim_config(pooling_locations=(1,)), seed=0)
        assert model.node_trajectory() == [25, 10, 10, 10]

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            slim_config(variant="huge").validate()
        with pytest.raises(ValueError, match="prefix"):
            slim_config(pooling_locations=(2,)).validate()
        with pytest.raises(ValueError, match="odd"):
            slim_config(temporal_kernel=4).validate()
        with pytest.raises(ValueError, match="three"):
            ModelConfig(channels=(8, 16)).validate()
        with pytest.raises(ValueError, match="divisible"):
            build_model(slim_config(ism=False, ratio=4), seed=0)

    def test_pooling_without_scheme_rejected(self):
        cfg = slim_config(topology={"name": "loose", "node_count": 4,
                                    "edges": [[1, 2], [2, 3], [3, 4]]})
        for reject in (cfg.validate, lambda: build_model(cfg, seed=0)):
            with pytest.raises(ValueError, match="partition"):
                reject()

    def test_ism_without_parent_map_rejected(self):
        doc = topology_doc(builtin_topology("uwa15"), builtin_partition("uwa15"))
        del doc["parents"]
        cfg = slim_config(topology=doc)
        for reject in (cfg.validate, lambda: build_model(cfg, seed=0)):
            with pytest.raises(ValueError, match="no parent map.*--no-ism"):
                reject()
        model = build_model(dataclasses.replace(cfg, ism=False, ratio=1), seed=0)
        assert model.bones is None
        assert model.forward(rand_batch(model.config)).shape == (2, 8)

    def test_bone_stream_without_parent_map_rejected(self):
        doc = topology_doc(builtin_topology("uwa15"), builtin_partition("uwa15"))
        del doc["parents"]
        cfg = slim_config(topology=doc, stream="bone", ism=False, ratio=1)
        for reject in (cfg.validate, lambda: build_model(cfg, seed=0)):
            with pytest.raises(ValueError, match="no parent map, which the bone stream"):
                reject()
        for stream in ("joint", "motion"):
            assert build_model(dataclasses.replace(cfg, stream=stream)).config.stream == stream

    def test_validate_passes_exactly_when_build_succeeds(self):
        # topologies with three, one and no pooling stages; widths that a ratio of
        # 2, 3 or 4 may fail to divide at the stem (ism on or off), at a stage input
        # or, for heavy, at a stage output
        one_stage = topology_doc(builtin_topology("uwa15"), builtin_partition("uwa15"))
        one_stage["stages"] = one_stage["stages"][:1]
        no_stages = {k: v for k, v in one_stage.items() if k != "stages"}
        no_parents = {k: v for k, v in one_stage.items() if k != "parents"}
        for topology, variant, ism, adaptive, ratio, channels, k in itertools.product(
                ("ntu25", one_stage, no_stages, no_parents), ("light", "heavy"), (True, False),
                (True, False), (1, 2, 3, 4), ((8, 16, 32), (6, 12, 24)), range(4)):
            cfg = slim_config(topology=topology, variant=variant, ism=ism,
                              adaptive=adaptive, ratio=ratio, channels=channels,
                              pooling_locations=tuple(range(1, k + 1)), ism_channels=4)
            outcomes = []
            for attempt in (cfg.validate, lambda: build_model(cfg, seed=0)):
                try:
                    attempt()
                    outcomes.append(True)
                except ValueError:
                    outcomes.append(False)
            assert outcomes[0] == outcomes[1], cfg


class TestForward:
    def test_logit_shape(self):
        cfg = slim_config()
        model = build_model(cfg, seed=1)
        logits = model.forward(rand_batch(cfg, batch=2), train=False)
        assert logits.shape == (2, 8)

    def test_duplicate_samples_get_identical_rows_in_eval(self):
        cfg = slim_config()
        model = build_model(cfg, seed=2)
        x = rand_batch(cfg, batch=1)
        pair = np.concatenate([x, x], axis=0)
        logits = model.forward(pair, train=False).data
        assert np.array_equal(logits[0], logits[1])

    def test_eval_forward_bitwise_deterministic(self):
        cfg = slim_config(variant="heavy")
        model = build_model(cfg, seed=3)
        x = rand_batch(cfg, batch=2)
        assert np.array_equal(model.forward(x).data, model.forward(x).data)

    def test_light_and_heavy_differ_on_same_seed(self):
        x = rand_batch(slim_config(), batch=2)
        probe = np.random.default_rng(0).standard_normal((32, 8)).astype(np.float32)
        outs = []
        for variant in ("light", "heavy"):
            model = build_model(slim_config(variant=variant), seed=4)
            model.head.w.assign(probe)  # zero-init head would mask the trunk
            outs.append(model.forward(x).data)
        assert not np.allclose(outs[0], outs[1])

    def test_shape_mismatch_rejected(self):
        model = build_model(slim_config(), seed=5)
        with pytest.raises(ValueError, match="input shape"):
            model.forward(np.zeros((1, 3, 16, 24)))

    def test_correlation_collection_covers_pooled_stages(self):
        cfg = slim_config()
        model = build_model(cfg, seed=6)
        sink = []
        model.forward(rand_batch(cfg, batch=2), train=False, corr_out=sink)
        stages = [s for s, _ in sink]
        assert stages == [1, 2, 3]
        assert sink[0][1].shape == (2, 16, 25)
        assert sink[1][1].shape == (2, 8, 10)
        assert sink[2][1].shape == (2, 4, 5)

    def test_heavy_concat_mode_runs(self):
        cfg = slim_config(variant="heavy", fusion_mode="concat")
        model = build_model(cfg, seed=7)
        assert model.forward(rand_batch(cfg, batch=2)).shape == (2, 8)

    def test_non_adaptive_mode_runs(self):
        cfg = slim_config(adaptive=False)
        model = build_model(cfg, seed=8)
        sink = []
        assert model.forward(rand_batch(cfg), corr_out=sink).shape == (2, 8)
        assert sink == []

    @pytest.mark.parametrize("variant", ["light", "heavy"])
    @pytest.mark.parametrize("train", [False, True])
    def test_f32_logits_match_an_f64_copy(self, variant, train):
        # an f32 model stays within 1e-4 x (1 + |f64 logit|) of its f64 copy,
        # with batch moments and with saved ones
        cfg = slim_config(variant=variant)
        m32 = build_model(cfg, seed=9)
        m64 = build_model(dataclasses.replace(cfg, dtype="f64"), seed=9)
        rng = np.random.default_rng(10)
        m32.head.w.assign(rng.normal(0.0, 0.5, m32.head.w.shape))  # zero-init head
        m32.head.b.assign(rng.normal(0.0, 0.1, m32.head.b.shape))  # would mask the trunk
        for name, arr in m32.named_state():
            arr[...] = (rng.uniform(0.5, 2.0, arr.shape) if name.endswith("running_var")
                        else rng.normal(0.0, 0.1, arr.shape))
        for (_, p64), (_, p32) in zip(m64.named_parameters(), m32.named_parameters()):
            p64.assign(p32.data.astype(np.float64))
        for (_, s64), (_, s32) in zip(m64.named_state(), m32.named_state()):
            s64[...] = s32
        x = rand_batch(cfg, batch=4, seed=11)
        got = m32.forward(x.astype(np.float32), train=train).data
        want = m64.forward(x, train=train).data
        assert np.ptp(want) > 0.1
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-4

    def test_non_finite_value_names_its_block(self):
        model = build_model(slim_config(), seed=0)
        w = model.stages[1].gcn.w_spatial
        w.assign(np.full(w.shape, np.nan, dtype=w.dtype))
        with pytest.raises(NonFiniteError) as exc:
            model.forward(rand_batch(model.config))
        assert (exc.value.op, exc.value.path) == ("conv1x1", "stage2")
        assert str(exc.value).endswith("operator 'conv1x1' in stage2")


class TestBlockedEval:
    """The eval forward runs the batch in blocks of at most `eval_block` samples."""

    BATCH = 11  # blocks of 3, 3, 3 and 2 at a budget of three samples

    @pytest.fixture(params=["light", "heavy"])
    def model(self, request, monkeypatch):
        model = build_model(slim_config(variant=request.param), seed=12)
        rng = np.random.default_rng(13)
        model.head.w.assign(rng.normal(0.0, 0.5, model.head.w.shape))  # zero-init head
        monkeypatch.setattr(M, "EVAL_BLOCK_BYTES", 3 * model.widest_activation_bytes())
        return model

    @staticmethod
    def block_sizes(model, monkeypatch) -> list:
        sizes, logits = [], Model.logits

        def spy(self, h, train, corr_out=None):
            sizes.append(h.shape[0])
            return logits(self, h, train, corr_out)

        monkeypatch.setattr(Model, "logits", spy)
        return sizes

    def test_widest_activation_at_paper_width(self):
        for variant in ("light", "heavy"):
            model = build_model(ModelConfig(variant=variant))
            assert model.widest_activation_bytes() == 64 * 64 * 25 * 4  # stage 1
            assert model.eval_block == M.EVAL_BLOCK_BYTES // 409600
        f64 = build_model(ModelConfig(dtype="f64"))
        assert f64.widest_activation_bytes() == 2 * 409600

    def test_blocks_match_one_shot_logits(self, model, monkeypatch):
        x = rand_batch(model.config, batch=self.BATCH, seed=14)
        one_shot = model.logits(Tensor(x, dtype=model.dtype), False).data
        sizes = self.block_sizes(model, monkeypatch)
        got = model.forward(x).data
        assert model.eval_block == 3 and sorted(sizes) == [2, 3, 3, 3]
        assert got.shape == one_shot.shape and np.ptp(one_shot) > 0.1
        assert np.allclose(got, one_shot, rtol=1e-5, atol=1e-6)
        assert np.array_equal(model.forward(x).data, got)

    def test_correlation_fields_cover_the_whole_batch(self, model):
        x = rand_batch(model.config, batch=self.BATCH, seed=15)
        want, got = [], []
        model.logits(Tensor(x, dtype=model.dtype), False, corr_out=want)
        model.forward(x, corr_out=got)
        assert [i for i, _ in got] == [i for i, _ in want] == [1, 2, 3]
        for (_, g), (_, w) in zip(got, want):
            assert g.shape == w.shape and g.shape[0] == self.BATCH
            assert np.allclose(g, w, rtol=1e-5, atol=1e-6)

    def test_train_mode_and_recording_run_one_shot(self, model, monkeypatch):
        x = rand_batch(model.config, batch=self.BATCH, seed=16)
        h = Tensor(x, dtype=model.dtype)
        with shape_record() as want:
            model.logits(h, False)
        with Tape() as direct:
            model.logits(h, False)
        sizes = self.block_sizes(model, monkeypatch)
        with shape_record() as got:
            model.forward(x)
        assert got == want and got[0][3][0] == self.BATCH
        with Tape() as taped:
            model.forward(x)
        assert [e.op for e in taped.entries] == [e.op for e in direct.entries]
        assert [e.output.shape for e in taped.entries] == \
            [e.output.shape for e in direct.entries]
        model.forward(x, train=True)
        assert sizes == [self.BATCH] * 3

    def test_blocked_forward_builds_no_bone_matrix(self, model, monkeypatch):
        calls, build = [], skeleton.bone_matrix

        def counted(topology):
            calls.append(topology.name)
            return build(topology)

        for module in (skeleton, M):
            monkeypatch.setattr(module, "bone_matrix", counted)
        sizes = self.block_sizes(model, monkeypatch)
        model.forward(rand_batch(model.config, batch=self.BATCH, seed=18))
        assert sorted(sizes) == [2, 3, 3, 3] and calls == []
        build_model(model.config, seed=0)
        assert calls == ["ntu25"]  # once per built model

    def test_non_finite_value_in_a_later_block_names_its_operator(self, model, monkeypatch):
        x = rand_batch(model.config, batch=self.BATCH, seed=17)
        x[self.BATCH - 1, 0, 2, 3] = np.inf  # in the last block
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as want:
            model.logits(Tensor(x, dtype=model.dtype), False)
        sizes = self.block_sizes(model, monkeypatch)
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as got:
            model.forward(x)
        assert sorted(sizes) == [2, 3, 3, 3]
        assert (got.value.op, got.value.path) == (want.value.op, want.value.path)
        assert got.value.path == "ism"

    def test_threads_give_bitwise_equal_logits_and_fields(self, model, eval_threads):
        x = rand_batch(model.config, batch=self.BATCH, seed=19)
        got = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads interleave as often as they can
        try:
            for threads in (1, 3):
                eval_threads(threads)
                corr: list = []
                got.append((model.forward(x, corr_out=corr).data, corr))
                assert (M._POOL is None) == (threads == 1)  # one thread builds no pool
        finally:
            sys.setswitchinterval(switch)
        (serial, serial_corr), (threaded, threaded_corr) = got
        assert np.array_equal(serial, threaded)
        assert [i for i, _ in serial_corr] == [i for i, _ in threaded_corr] == [1, 2, 3]
        for (_, a), (_, b) in zip(serial_corr, threaded_corr):
            assert np.array_equal(a, b)

    def test_non_finite_value_in_a_later_block_on_three_threads(self, model, eval_threads):
        x = rand_batch(model.config, batch=self.BATCH, seed=17)
        x[self.BATCH - 1, 2, 5, 1] = -np.inf  # in the last block
        errors = []
        for threads in (1, 3):
            eval_threads(threads)
            with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as exc, \
                    scope("eval"):  # each thread's path starts at the caller's
                model.forward(x)
            errors.append((exc.value.op, exc.value.path))
        assert errors[0] == errors[1] and errors[0][1] == "eval.ism"

    @pytest.mark.parametrize("slow", [3, 9])  # block 1 or block 3 fails last
    def test_lowest_failed_block_is_raised_once_every_block_stopped(self, model, monkeypatch,
                                                                    eval_threads, slow):
        eval_threads(3)
        x = rand_batch(model.config, batch=self.BATCH, seed=20)
        x[:, 0, 0, 0] = np.arange(self.BATCH)  # names each block by its first sample
        logits, lock, running, failing = Model.logits, threading.Lock(), [], {}

        def spy(self, h, train, corr_out=None):
            first = int(h.data[0, 0, 0, 0])
            with lock:
                running.append(first)
            try:
                if first == slow:
                    time.sleep(0.2)
                if first in failing:
                    raise ValueError(failing[first])
                return logits(self, h, train, corr_out)
            finally:
                with lock:
                    running.remove(first)

        monkeypatch.setattr(Model, "logits", spy)
        failing.update({3: "block 1", 9: "block 3"})
        with pytest.raises(ValueError, match="^block 1$"):
            model.forward(x)
        assert running == []
        failing.clear()
        assert model.forward(x).shape == (self.BATCH, model.config.classes)
        assert running == []


@pytest.mark.parametrize("blas", [1, 2, 4, None])
def test_eval_blocks_follow_the_blas_threads(monkeypatch, blas):
    """A thread per block on top of a multi-threaded BLAS, or one whose thread
    count is unknown, would nest two levels of threads; a block spread over k
    BLAS threads gets k times the bytes."""
    get = M._blas_thread_getter()
    assert get is None or get() >= 1
    monkeypatch.setattr(M, "_blas_threads", lambda: blas)
    assert M._eval_workers() == (len(os.sched_getaffinity(0)) if blas == 1 else 1)
    model = build_model(ModelConfig())
    assert model.eval_block == (blas or 1) * M.EVAL_BLOCK_BYTES // 409600


NO_POOL_PROBE = """
import threading
import numpy as np
from skelpool import model as M
from skelpool.data import synth_generate
from skelpool.train import TrainConfig, train_loop

def no_pool(step):
    assert M._POOL is None and threading.active_count() == 1, step

no_pool("import")
ds = synth_generate(3, 2, 8, "uwa15", noise=0.01, seed=0, split="train")
model = M.build_model(M.ModelConfig(topology="uwa15", classes=3, frames=8,
                                    channels=(4, 8, 8), ism_channels=4), seed=0)
no_pool("build_model")
train_loop(model, ds, TrainConfig(epochs=1, warmup=1, decay_steps=(), batch_size=3,
                                  augment=False))
no_pool("train_loop")
x = np.zeros((1, 3, 8, 15))
model.forward(x)
no_pool("batch-1 forward")
M.EVAL_BLOCK_BYTES = model.widest_activation_bytes()
model.forward(np.zeros((4, 3, 8, 15)))
assert (M._POOL is not None) == (M._eval_workers() > 1), "a forward of 4 blocks"
print("ok")
"""


def test_no_eval_pool_before_a_forward_of_two_blocks():
    """Import, `build_model`, a training epoch and a batch-1 forward start no
    thread; a forward of several blocks then builds the pool (given two cores)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", NO_POOL_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


class TestConfigDoc:
    @pytest.mark.parametrize("cfg", [slim_config(variant="heavy", pooling_locations=()),
                                     TrainConfig(decay_steps=(), early_stop_train_acc=0.9)])
    def test_round_trip(self, cfg):
        doc = config_doc(cfg)
        assert json.loads(json.dumps(doc)) == doc  # plain JSON: tuples are lists
        assert config_from_doc(type(cfg), doc) == cfg

    @pytest.mark.parametrize("cls, doc", [
        (ModelConfig, {"fusion_weight": 1}), (ModelConfig, {"channels": [4, 8, 8]}),
        (TrainConfig, {"early_stop_train_acc": None}),
        (TrainConfig, {"early_stop_train_acc": 1}),
        (TrainConfig, {"rotate_max": 0.1, "seed": 5, "augment": False})])
    def test_type_rule_accepts(self, cls, doc):
        cfg = config_from_doc(cls, doc)
        assert all(getattr(cfg, k) == (tuple(v) if isinstance(v, list) else v)
                   for k, v in doc.items())

    @pytest.mark.parametrize("cls, doc", [
        (ModelConfig, {"ism": 0}), (ModelConfig, {"ratio": 2.0}),
        (ModelConfig, {"ratio": True}), (ModelConfig, {"fusion_weight": True}),
        (ModelConfig, {"channels": [4, True, 8]}),
        (ModelConfig, {"sigma": None}), (TrainConfig, {"early_stop_train_acc": "0.9"}),
        (TrainConfig, {"decay_steps": 35}), (TrainConfig, {"seed": None})])
    def test_type_rule_rejects(self, cls, doc):
        with pytest.raises(ValueError, match=f"config field '{next(iter(doc))}'"):
            config_from_doc(cls, doc)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            config_from_doc(TrainConfig, {"epoch": 3})


# defect -> the message that names it
MALFORMED = {"short_header": "truncated", "trailing_bytes": "trailing bytes",
             "no_state": "state entries do not match", "unknown_dtype": "unknown dtype",
             "state_shape": "shape", "config_type": "config field 'ism'",
             "seed_type": "field 'seed' must be an integer",
             "shape_float": "params entry 0 field 'shape' must be an array of integers",
             "shape_bool": "field 'shape' must be an array of integers",
             "entry_array": "params entry 0 field 'name' is missing",
             "nan_param": "non-finite value", "negative_var": "running_var holds a negative"}


def malformed_checkpoint(tmp_path, case: str) -> bytes:
    """The bytes of a small heavy-model checkpoint with one defect."""
    path = tmp_path / "good.ckpt"
    # a temporal kernel of 1 gives `shape_bool` a dimension of 1 to write as `true`
    kernel = 1 if case == "shape_bool" else 5
    save_checkpoint(build_model(slim_config(variant="heavy", temporal_kernel=kernel), seed=0),
                    str(path))
    raw = path.read_bytes()
    if case == "short_header":
        return raw[:6]
    if case == "trailing_bytes":
        return raw + b"junk"
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header, blocks = json.loads(raw[16 : 16 + hlen]), raw[16 + hlen :]
    if case == "no_state":
        state_bytes = 4 * sum(int(np.prod(m["shape"])) for m in header["state"])
        header["state"], blocks = [], blocks[: len(blocks) - state_bytes]
    elif case == "unknown_dtype":
        header["params"][0]["dtype"] = "f2"
    elif case == "state_shape":
        # one value for a whole running-mean vector: it must not be broadcast
        meta = header["state"][-1]
        blocks = blocks[: len(blocks) - 4 * (int(np.prod(meta["shape"])) - 1)]
        meta["shape"] = [1]
    elif case == "config_type":
        header["config"]["ism"] = "false"  # a string, not a bool
    elif case == "seed_type":
        header["seed"] = "0"  # a string, not an integer
    elif case == "shape_float":  # (3.0,) == (3,): the shape check alone lets it through
        assert header["params"][0]["shape"] == [3]
        header["params"][0]["shape"] = [3.0]
    elif case == "shape_bool":  # (8, 8, True) == (8, 8, 1)
        entry = next(m for m in header["params"] if 1 in m["shape"])
        entry["shape"] = [True if d == 1 else d for d in entry["shape"]]
    elif case == "entry_array":  # an entry that is an array, not an object
        meta = header["params"][0]
        header["params"][0] = [meta["name"], meta["shape"], meta["dtype"]]
    elif case in ("nan_param", "negative_var"):
        # every entry is f4: overwrite the first value of the first parameter,
        # or of the first running variance
        entries = header["params"] + header["state"]
        index = 0 if case == "nan_param" else next(
            i for i, m in enumerate(entries) if m["name"].endswith(".running_var"))
        at = 4 * sum(int(np.prod(m["shape"])) for m in entries[:index])
        bad = struct.pack("<f", np.nan if case == "nan_param" else -0.5)
        blocks = blocks[:at] + bad + blocks[at + 4 :]
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return raw[:8] + struct.pack("<Q", len(blob)) + blob + blocks


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        cfg = slim_config(variant="heavy")
        model = build_model(cfg, seed=9)
        x = rand_batch(cfg, batch=2)
        model.forward(x, train=True)  # move running stats off their init values
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        loaded = load_checkpoint(str(path))
        for (na, pa), (nb, pb) in zip(model.named_parameters(), loaded.named_parameters()):
            assert na == nb and np.array_equal(pa.data, pb.data)
        for (na, sa), (nb, sb) in zip(model.named_state(), loaded.named_state()):
            assert na == nb and np.array_equal(sa, sb)
        assert np.array_equal(model.forward(x).data, loaded.forward(x).data)

    def test_header_config_without_stream_loads_as_joint(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(slim_config(stream="bone"), seed=0), str(path))
        assert load_checkpoint(str(path)).config.stream == "bone"
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + hlen])
        del header["config"]["stream"]  # a header written before the stream was recorded
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen :])
        loaded = load_checkpoint(str(path))
        assert loaded.config == slim_config(stream="joint")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("case, message", MALFORMED.items())
    def test_malformed_file_rejected(self, tmp_path, case, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(malformed_checkpoint(tmp_path, case))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("command", ["eval", "dump-attention"])
    @pytest.mark.parametrize("case", MALFORMED)
    def test_cli_exits_3_on_malformed_file(self, tmp_path, capsys, command, case):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(malformed_checkpoint(tmp_path, case))
        data = tmp_path / "data.json"
        save_dataset(synth_generate(classes=8, per_class=1, frames=16, seed=1), str(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a damaged value must not reach numpy
            code = main([command, "--checkpoint", str(path), "--data", str(data),
                         "--out", str(tmp_path / "out")])
            # `main` silences numpy's overflow and invalid-value warnings, so the
            # reader is also called outside it
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                load_checkpoint(str(path))
        assert code == 3
        assert f"error: {path}:" in capsys.readouterr().err


class TestFlops:
    def test_total_equals_sum_of_entries(self):
        report = count_flops(slim_config())
        assert report.total == sum(m for _, _, m in report.entries)

    def test_doubling_frames_doubles_stage_counts(self):
        a = count_flops(slim_config(frames=16)).block_totals()
        b = count_flops(slim_config(frames=32)).block_totals()
        for block in ("ism", "stage1", "stage2", "stage3"):
            assert b[block] == 2 * a[block]

    def test_light_is_under_45_percent_of_control(self):
        cfg = ModelConfig(variant="light", classes=8, frames=64)
        light = count_flops(cfg).total
        control = count_flops(no_pooling_control(cfg)).total
        assert light <= 0.45 * control

    @pytest.mark.parametrize("topology", ["ntu25", "uwa15"])
    @pytest.mark.parametrize("fusion_mode", ["sum", "concat"])
    def test_heavy_exceeds_light(self, topology, fusion_mode):
        base = slim_config(topology=topology, fusion_mode=fusion_mode)
        light = count_flops(dataclasses.replace(base, variant="light")).total
        heavy = count_flops(dataclasses.replace(base, variant="heavy")).total
        assert heavy > light

    def test_removing_pooling_locations_never_decreases_total(self):
        totals = [count_flops(slim_config(pooling_locations=tuple(range(1, k + 1)))).total
                  for k in (3, 2, 1, 0)]
        assert totals == sorted(totals)

    def test_counts_depend_only_on_shapes(self):
        assert count_flops(slim_config()).entries == count_flops(slim_config()).entries

    @pytest.mark.parametrize("variant, gcn_blocks", [("light", 1), ("heavy", 2)])
    def test_two_batch_norms_per_graph_conv_block(self, variant, gcn_blocks):
        # each graph-conv block normalizes after its spatial and its temporal conv
        cfg = slim_config(variant=variant)
        report = count_flops(cfg)
        for index in cfg.pooling_locations:
            ops = [op for block, op, _ in report.entries if block == f"stage{index}"]
            assert ops.count("temporal_conv") == gcn_blocks
            assert ops.count("batch_norm") == 2 * gcn_blocks

    def test_adaptive_toggle_reduces_count(self):
        on = count_flops(slim_config(adaptive=True)).total
        off = count_flops(slim_config(adaptive=False)).total
        assert off < on

    @pytest.mark.parametrize("variant, total", [("light", 31_480_608), ("heavy", 137_929_344)])
    def test_paper_config_totals_are_pinned(self, variant, total):
        assert count_flops(ModelConfig(variant=variant)).total == total

    def test_counting_inside_a_tape_leaves_it_unchanged(self):
        x = Tensor(np.ones(3))
        with Tape() as tape:
            report = count_flops(slim_config())
            assert len(tape) == 0
            relu(x)  # the tape records again once the count is done
        assert len(tape) == 1 and report.total == count_flops(slim_config()).total

    def test_counting_does_not_call_forward(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("count_flops called Model.forward")

        monkeypatch.setattr(Model, "forward", refuse)
        assert count_flops(slim_config(variant="heavy")).total > 0
