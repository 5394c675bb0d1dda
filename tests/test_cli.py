"""CLI contracts: subcommands, exit codes, output files, determinism."""

import json
import os
import re
import shlex
import struct
import threading
import warnings
from dataclasses import fields

import numpy as np
import pytest

from skelpool import model as M
from skelpool.cli import build_parser, main
from skelpool.data import (ScoreFile, apply_stream, load_dataset, load_scores, save_scores,
                           to_arrays)
from skelpool.model import ModelConfig, build_model, load_checkpoint, save_checkpoint
from skelpool.train import TrainConfig, predict_scores
from skelpool.skeleton import (builtin_partition, builtin_topology, parse_topology,
                               topology_doc)

SUBCOMMANDS = ["synth", "train", "eval", "flops", "gradcheck", "fuse",
               "export-topology", "dump-attention"]

FAST_TRAIN = ["--channels", "4,8,8", "--ism-channels", "4", "--epochs", "2",
              "--warmup", "1", "--decay-steps", "", "--lr", "0.05",
              "--batch-size", "4", "--no-augment", "--seed", "3"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    train = root / "train.json"
    test = root / "test.json"
    assert main(["synth", "--classes", "3", "--per-class", "4", "--frames", "8",
                 "--topology", "uwa15", "--seed", "1", "--out", str(train)]) == 0
    assert main(["synth", "--classes", "3", "--per-class", "2", "--frames", "8",
                 "--topology", "uwa15", "--seed", "2", "--split", "test",
                 "--out", str(test)]) == 0
    return root


def test_synth_writes_requested_sample_count(tmp_path):
    out = tmp_path / "d.json"
    code = main(["synth", "--classes", "8", "--per-class", "16", "--frames", "16",
                 "--topology", "ntu25", "--seed", "7", "--out", str(out)])
    assert code == 0
    ds = load_dataset(str(out))
    assert len(ds.sequences) == 128
    assert ds.histogram() == [16] * 8


@pytest.mark.parametrize("cmd", SUBCOMMANDS)
def test_every_subcommand_has_help(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    assert "--" in capsys.readouterr().out


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--bogus"])
    assert exc.value.code == 2


def test_missing_input_file_exits_3(tmp_path):
    code = main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                 "--data", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "s.csv")])
    assert code == 3


def test_bad_config_value_exits_2(workdir, tmp_path):
    code = main(["train", "--data", str(workdir / "train.json"),
                 "--out", str(tmp_path / "run"), "--variant", "light",
                 "--kernel", "4"] + FAST_TRAIN[:-2])
    assert code == 2


def test_train_eval_fuse_dump_pipeline(workdir):
    run = workdir / "run"
    code = main(["train", "--data", str(workdir / "train.json"),
                 "--eval", str(workdir / "test.json"), "--out", str(run)]
                + FAST_TRAIN)
    assert code == 0
    assert (run / "metrics.csv").exists()
    assert (run / "model.ckpt").exists()
    config = json.loads((run / "config.json").read_text())
    assert config["model"]["classes"] == 3 and config["model"]["frames"] == 8

    scores = workdir / "scores.csv"
    assert main(["eval", "--checkpoint", str(run / "model.ckpt"),
                 "--data", str(workdir / "test.json"), "--out", str(scores)]) == 0
    sf = load_scores(str(scores))
    assert sf.scores.shape == (6, 3)
    assert np.allclose(sf.scores.sum(axis=1), 1.0, atol=1e-5)

    fused = workdir / "fused.csv"
    assert main(["fuse", "--scores", str(scores), str(scores),
                 "--weights", "1,1", "--out", str(fused)]) == 0
    ff = load_scores(str(fused))
    assert np.allclose(ff.scores, 2 * sf.scores, atol=1e-12)

    attn = workdir / "attn"
    assert main(["dump-attention", "--checkpoint", str(run / "model.ckpt"),
                 "--data", str(workdir / "test.json"), "--limit", "2",
                 "--out", str(attn)]) == 0
    for stage, nodes in ((1, 15), (2, 10), (3, 5)):
        lines = (attn / f"attention_stage{stage}.csv").read_text().strip().splitlines()
        fields = lines[0].split(",")
        assert len(fields) == 2 + nodes  # id, frame, one value per node


def test_train_runs_are_byte_identical(workdir):
    outs = []
    for tag in ("detA", "detB"):
        run = workdir / tag
        assert main(["train", "--data", str(workdir / "train.json"),
                     "--out", str(run)] + FAST_TRAIN) == 0
        outs.append((run / "metrics.csv").read_bytes()
                    + (run / "model.ckpt").read_bytes())
    assert outs[0] == outs[1]


def test_synth_is_byte_identical_for_same_seed(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert main(["synth", "--classes", "2", "--per-class", "2", "--frames", "6",
                     "--topology", "uwa15", "--seed", "5", "--out", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_motion_stream_training(workdir):
    run = workdir / "motion"
    code = main(["train", "--data", str(workdir / "train.json"), "--out", str(run),
                 "--stream", "motion"] + FAST_TRAIN)
    assert code == 0
    config = json.loads((run / "config.json").read_text())
    assert config["model"]["stream"] == "motion" and "stream" not in config
    assert load_checkpoint(str(run / "model.ckpt")).config.stream == "motion"


def test_eval_takes_no_stream_flag(workdir, small_checkpoint, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--checkpoint", str(small_checkpoint), "--data",
              str(workdir / "test.json"), "--out", str(tmp_path / "s.csv"), "--stream", "bone"])
    assert exc.value.code == 2


def test_flops_reports_reduction_ratio(capsys):
    assert main(["flops", "--variant", "light", "--topology", "ntu25"]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("reduction ratio"))
    assert float(line.split()[2]) <= 0.45


def test_flops_no_pooling_control(capsys):
    assert main(["flops", "--variant", "light", "--no-pooling"]) == 0
    out = capsys.readouterr().out
    assert "reduction ratio" not in out


def test_gradcheck_subset_passes(capsys):
    assert main(["gradcheck", "--seeds", "2", "--ops", "tanh,matmul"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out


def test_gradcheck_unknown_op_exits_2(capsys):
    # every unknown name is refused and named, also next to known ones
    for ops, unknown in (("warp", ["warp"]), ("tanh,tahn", ["tahn"]),
                         ("add,sub,wrap", ["sub", "wrap"])):
        assert main(["gradcheck", "--seeds", "1", "--ops", ops]) == 2, ops
        captured = capsys.readouterr()
        assert all(f"'{name}'" in captured.err for name in unknown), captured.err
        assert "max rel err" not in captured.out


def test_gradcheck_empty_seed_range_exits_2(capsys):
    for seeds in ("0", "-3"):
        assert main(["gradcheck", "--seeds", seeds, "--ops", "tanh,matmul"]) == 2, seeds
        captured = capsys.readouterr()
        assert "at least one seed" in captured.err
        assert "max rel err" not in captured.out and "ok" not in captured.out


def test_export_topology_round_trips(tmp_path):
    out = tmp_path / "ntu.json"
    assert main(["export-topology", "--topology", "ntu25", "--out", str(out)]) == 0
    topo, scheme = parse_topology(json.loads(out.read_text()))
    assert topo.node_count == 25
    assert scheme.node_counts == [25, 10, 5, 2]


def test_half_frames_training(workdir):
    run = workdir / "half"
    assert main(["train", "--data", str(workdir / "train.json"), "--out", str(run),
                 "--half-frames"] + FAST_TRAIN) == 0
    config = json.loads((run / "config.json").read_text())
    assert config["model"]["frames"] == 4


def test_config_precedence_defaults_then_file_then_flags(workdir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"channels": [4, 8, 8], "ism_channels": 8, "sigma": "sigmoid"},
        "train": {"epochs": 3, "base_lr": 0.01, "decay_steps": [2], "batch_size": 4}}))
    run = tmp_path / "run"
    assert main(["train", "--data", str(workdir / "train.json"), "--out", str(run),
                 "--config", str(config), "--ism-channels", "4", "--epochs", "2",
                 "--warmup", "1", "--decay-steps", "", "--no-augment"]) == 0
    echoed = json.loads((run / "config.json").read_text())
    model, train = echoed["model"], echoed["train"]
    # file over defaults
    assert model["channels"] == [4, 8, 8] and model["sigma"] == "sigmoid"
    assert train["base_lr"] == 0.01 and train["batch_size"] == 4
    # flags over the file
    assert model["ism_channels"] == 4 and train["epochs"] == 2
    assert train["decay_steps"] == [] and train["augment"] is False
    # defaults where neither speaks; the data decides topology, classes, frames
    assert model["ratio"] == 4 and train["momentum"] == 0.9 and train["warmup"] == 1
    assert (model["topology"], model["classes"], model["frames"]) == ("uwa15", 3, 8)


# (config document, exit code, subcommands that read the malformed part,
#  the field or section the message must name)
MALFORMED_CONFIGS = [
    ({"model": {"ism": "false"}}, 2, ("train", "flops"), "ism"),
    ({"model": {"ratio": True}}, 2, ("train", "flops"), "ratio"),
    ({"model": {"channels": 5}}, 2, ("train", "flops"), "channels"),
    ({"model": {"frames": True}}, 2, ("flops",), "frames"),
    ({"model": [1, 2]}, 2, ("train", "flops"), "model"),
    ({"model": "abc"}, 2, ("train", "flops"), "model"),
    ({"modle": {}}, 2, ("train", "flops"), "modle"),
    ({"train": {"augment": "no"}}, 2, ("train",), "augment"),
    ({"train": {"epochs": 2.5}}, 2, ("train",), "epochs"),
    ({"train": {"decay_steps": "35"}}, 2, ("train",), "decay_steps"),
    ({"train": {"bogus": 1}}, 2, ("train",), "bogus"),
    ({"train": 3}, 2, ("train",), "train"),
    ([1, 2], 3, ("train", "flops"), None),
]


@pytest.mark.parametrize("command, doc, code, named", [
    pytest.param(command, doc, code, named,
                 id=f"{command}-{json.dumps(doc, separators=(',', ':'))}")
    for doc, code, commands, named in MALFORMED_CONFIGS for command in commands])
def test_malformed_config_exits_with_message(workdir, tmp_path, capsys, command, doc,
                                             code, named):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    args = ["--config", str(config)]
    if command == "train":  # no model or train flags: they would override the file
        args += ["--data", str(workdir / "train.json"), "--out", str(tmp_path / "run")]
    assert main([command] + args) == code
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if named:
        assert f"'{named}'" in err


@pytest.mark.parametrize("flags", [["flops", "--classes", "0"], ["flops", "--frames", "0"],
                                   ["flops", "--channels", ""], ["train", "--frames", "0"],
                                   ["train", "--lr", "-1"], ["train", "--lr", "0"],
                                   ["train", "--decay-factor", "0"],
                                   ["train", "--decay-factor", "1.5"],
                                   ["train", "--weight-decay", "-1"],
                                   ["train", "--rotate-max", "-1"],
                                   ["train", "--frames", "4", "--half-frames"]])
def test_zero_or_empty_flag_reaches_validation(workdir, tmp_path, capsys, flags):
    if flags[0] == "train":  # the flag under test comes last, so it overrides FAST_TRAIN
        flags = ["train", "--data", str(workdir / "train.json"),
                 "--out", str(tmp_path / "run")] + FAST_TRAIN + flags[1:]
    assert main(flags) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flags, code", [(["--lr", "0"], 2), (["--kernel", "4"], 2),
                                         (["--no-ism"], 2), (["--data", "missing.json"], 3)],
                         ids=["lr-0", "kernel-4", "no-ism", "missing-data"])
def test_failing_train_creates_no_out_directory(workdir, tmp_path, capsys, flags, code):
    out = tmp_path / "run"
    if flags[0] == "--data":
        flags = ["--data", str(tmp_path / flags[1])]
    assert main(["train", "--data", str(workdir / "train.json"), "--out", str(out)]
                + FAST_TRAIN + flags) == code
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_flops_rejects_ism_off_at_ratio_4_before_the_config_line(capsys):
    # without the input supplement stage 1 pools the 3 raw coordinates
    assert main(["flops", "--no-ism"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and all(word in err for word in ("ratio", "ism", "divisible"))


# three joints and three pooling stages, but no parent map for bone vectors
TRI = {"name": "tri", "node_count": 3, "edges": [[1, 2], [2, 3]],
       "stages": [[{"members": [1, 2], "new_id": 1}, {"members": [3], "new_id": 2}],
                  [{"members": [1, 2], "new_id": 1}], [{"members": [1], "new_id": 1}]]}


def _tri_argv(tmp_path, command: str, model: dict, flags: list) -> list:
    """`flops` with the `model` config section on TRI, or `train` on a TRI dataset
    with the `flags`."""
    if command == "flops":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": {"topology": TRI, **model}}))
        return ["flops", "--config", str(config)]
    rng = np.random.default_rng(0)
    data = tmp_path / "tri.json"
    data.write_text(json.dumps({"topology": TRI, "classes": ["a", "b"], "samples": [
        {"id": f"s{i}", "label": i % 2, "frames": rng.standard_normal((8, 3, 3)).tolist()}
        for i in range(4)]}))
    return ["train", "--data", str(data), "--out", str(tmp_path / "run")] + FAST_TRAIN + flags


@pytest.mark.parametrize("command", ["flops", "train"])
def test_ism_without_parent_map_exits_2_before_the_config_line(tmp_path, capsys, command):
    assert main(_tri_argv(tmp_path, command, {}, [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: topology 'tri' has no parent map")
    assert "--no-ism" in captured.err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["flops", "train"])
def test_bone_stream_without_parent_map_exits_2_before_the_config_line(tmp_path, capsys,
                                                                       command):
    # without the input supplement, which needs parents too; its 3-channel stem needs ratio 1
    argv = _tri_argv(tmp_path, command, {"stream": "bone", "ism": False, "ratio": 1},
                     ["--stream", "bone", "--no-ism", "--ratio", "1"])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: topology 'tri' has no parent map, which the bone "
                                   "stream needs")
    assert not (tmp_path / "run").exists()
    assert main(argv + ["--stream", "motion"]) == 0  # the later flag wins


# (malformed topology document, the field the message must name)
MALFORMED_TOPOLOGIES = [
    ({"name": "x", "node_count": 3, "edges": 5}, "edges"),
    ({"name": "x", "node_count": 2, "edges": [[1, 2, 3]]}, "edges"),
    ({"name": "x", "node_count": "two", "edges": [[1, 2]]}, "node_count"),
    ({"name": "x", "node_count": 2, "edges": [[1, 2]], "parents": [1]}, "parents"),
    ({"name": "x", "node_count": 2, "edges": [[1, 2]], "stages": [[{"members": 5}]]},
     "stages"),
    ({"node_count": 2, "edges": [[1, 2]]}, "name"),
    # a value of the wrong JSON type is refused, not converted
    ({"name": "x", "node_count": 3.7, "edges": [[1, 2]]}, "node_count"),
    ({"name": "x", "node_count": "3", "edges": [[1, 2]]}, "node_count"),
    ({"name": "x", "node_count": True, "edges": []}, "node_count"),
    ({"name": 5, "node_count": 2, "edges": [[1, 2]]}, "name"),
    ({"name": "x", "node_count": 2, "edges": [[1.9, 2]]}, "edges"),
    ({"name": "x", "node_count": 2, "edges": [[1, 2]],
      "stages": [[{"members": [1, 2.5], "new_id": 1}]]}, "stages"),
    ({"name": "x", "node_count": 2, "edges": [[1, 2]],
      "stages": [[{"members": [1, 2], "new_id": "1"}]]}, "stages"),
    ({"name": "x", "node_count": 2, "edges": [[1, 2]], "parents": {"2": 1.0}}, "parents"),
    # a parent key is a joint id in plain digits: no sign, space or leading zero,
    # so two spellings cannot collapse into one entry
    ({"name": "x", "node_count": 2, "edges": [[1, 2]], "parents": {" 2": 1}}, "parents"),
    ({"name": "x", "node_count": 2, "edges": [[1, 2]], "parents": {"+2": 1}}, "parents"),
    ({"name": "x", "node_count": 2, "edges": [[1, 2]], "parents": {"02": 1}}, "parents"),
    ({"name": "x", "node_count": 2, "edges": [[1, 2]], "parents": {"2": 1, "02": 1}},
     "parents"),
    # an empty string or object is not an empty array
    ({"name": "x", "node_count": 1, "edges": ""}, "edges"),
    ({"name": "x", "node_count": 2, "edges": [[1, 2]], "stages": {}}, "stages"),
    ({"name": "x", "node_count": 2, "edges": [[1, 2]], "stages": [5]}, "stages"),
]


@pytest.fixture(scope="module")
def topology_checkpoint(tmp_path_factory):
    """(magic and version bytes, header, blobs) of a small checkpoint whose
    config holds a topology document."""
    from skelpool.model import build_model, save_checkpoint

    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    doc = topology_doc(builtin_topology("uwa15"), builtin_partition("uwa15"))
    save_checkpoint(build_model(ModelConfig(topology=doc, classes=3, frames=8,
                                            channels=(4, 8, 8), ism_channels=4), seed=0),
                    str(path))
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    return raw[:8], json.loads(raw[16 : 16 + hlen]), raw[16 + hlen :]


@pytest.mark.parametrize("doc, named", MALFORMED_TOPOLOGIES)
def test_malformed_topology_document_exits_with_message(workdir, topology_checkpoint,
                                                        tmp_path, capsys, doc, named):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"topology": doc}}))
    assert main(["flops", "--config", str(config)]) == 2
    assert f"'{named}'" in capsys.readouterr().err
    dataset = json.loads((workdir / "train.json").read_text())
    dataset["topology"] = doc
    data = tmp_path / "train.json"
    data.write_text(json.dumps(dataset))
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")]
                + FAST_TRAIN) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}:") and f"'{named}'" in err
    magic, header, blobs = topology_checkpoint
    header = {**header, "config": {**header["config"], "topology": doc}}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(magic + struct.pack("<Q", len(blob)) + blob + blobs)
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(workdir / "test.json"),
                 "--out", str(tmp_path / "scores.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}:") and f"'{named}'" in err


# a topology document whose `parents` object names joint 2 twice; json alone keeps
# the last value and reads parents {2: 1, 3: 1}
REPEATED_PARENTS = ('{"name": "x", "node_count": 3, "edges": [[1, 2], [2, 3]], '
                    '"parents": {"2": 3, "3": 1, "2": 1}}')


@pytest.mark.parametrize("text, key", [
    ('{"model": {"topology": %s}}' % REPEATED_PARENTS, "2"),
    ('{"model": {"ratio": 2, "ratio": 4}}', "ratio"),
    ('{"model": {}, "train": {}, "model": {"ratio": 2}}', "model"),
], ids=["topology-parents", "field", "section"])
def test_config_with_repeated_key_exits_3_naming_it(tmp_path, capsys, text, key):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["flops", "--config", str(config)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {config}: invalid JSON")
    assert f"repeated JSON key '{key}'" in err


@pytest.mark.parametrize("original, repeated, key", [
    ('"topology": "uwa15"', '"topology": %s' % REPEATED_PARENTS, "2"),
    ('"split": "train"', '"split": "train", "split": "test"', "split"),
    ('"label": 0', '"label": 0, "label": 0', "label"),
], ids=["topology-parents", "top-level", "sample-field"])
def test_dataset_with_repeated_key_exits_3_naming_it(workdir, tmp_path, capsys, original,
                                                     repeated, key):
    text = (workdir / "train.json").read_text()
    assert original in text
    data = tmp_path / "train.json"
    data.write_text(text.replace(original, repeated, 1))
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")]
                + FAST_TRAIN) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}:") and f"repeated JSON key '{key}'" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("placeholder, repeated, key", [
    ('"topology": "@"', '"topology": %s' % REPEATED_PARENTS, "2"),
    ('"seed": 0', '"seed": 0, "seed": 0', "seed"),
], ids=["topology-parents", "seed"])
def test_checkpoint_header_with_repeated_key_exits_3_naming_it(workdir, topology_checkpoint,
                                                               tmp_path, capsys, placeholder,
                                                               repeated, key):
    magic, header, blobs = topology_checkpoint
    header = {**header, "config": {**header["config"], "topology": "@"}}
    text = json.dumps(header, sort_keys=True)
    assert placeholder in text
    blob = text.replace(placeholder, repeated, 1).encode("utf-8")
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(magic + struct.pack("<Q", len(blob)) + blob + blobs)
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(workdir / "test.json"),
                 "--out", str(tmp_path / "scores.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: malformed checkpoint header")
    assert f"repeated JSON key '{key}'" in err


@pytest.mark.parametrize("kind, key, code", [("dataset", "label", 3),
                                             ("topology", "node_count", 3),
                                             ("config", "ratio", 2),
                                             ("checkpoint", "seed", 3)])
def test_a_bool_for_an_integer_is_worded_alike_in_every_document(
        workdir, topology_checkpoint, tmp_path, capsys, kind, key, code):
    dataset = json.loads((workdir / "train.json").read_text())
    if kind == "dataset":
        dataset["samples"][0]["label"] = True
    elif kind == "topology":
        dataset["topology"] = {**topology_doc(builtin_topology("uwa15")), "node_count": True}
    data = tmp_path / "train.json"
    data.write_text(json.dumps(dataset))
    if kind == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": {"ratio": True}}))
        argv = ["flops", "--config", str(config)]
    elif kind == "checkpoint":
        magic, header, blobs = topology_checkpoint
        blob = json.dumps({**header, "seed": True}, sort_keys=True).encode("utf-8")
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(magic + struct.pack("<Q", len(blob)) + blob + blobs)
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(workdir / "test.json"),
                "--out", str(tmp_path / "scores.csv")]
    else:
        argv = ["train", "--data", str(data), "--out", str(tmp_path / "run")] + FAST_TRAIN
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")
    assert f"field '{key}' must be an integer, not True" in err


def test_train_accepts_dataset_with_topology_document(workdir, tmp_path):
    doc = json.loads((workdir / "train.json").read_text())
    doc["topology"] = topology_doc(builtin_topology("uwa15"), builtin_partition("uwa15"))
    data = tmp_path / "train.json"
    data.write_text(json.dumps(doc))
    run = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(run)] + FAST_TRAIN) == 0
    assert main(["eval", "--checkpoint", str(run / "model.ckpt"), "--data", str(data),
                 "--out", str(tmp_path / "s.csv")]) == 0


_SAMPLE = {"id": "s", "label": 0, "frames": np.zeros((2, 15, 3)).tolist()}

# (malformed dataset document, the field the message must name)
MALFORMED_DATASETS = [
    ({"classes": [0], "samples": []}, "topology"),
    ({"topology": 5, "classes": ["a"], "samples": [_SAMPLE]}, "topology"),
    ({"topology": "uwa15", "samples": [_SAMPLE]}, "classes"),
    ({"topology": "uwa15", "classes": "ab", "samples": [_SAMPLE]}, "classes"),
    ({"topology": "uwa15", "classes": ["a"]}, "samples"),
    ({"topology": "uwa15", "classes": ["a"], "samples": {"s": _SAMPLE}}, "samples"),
    ({"topology": "uwa15", "classes": ["a"],
      "samples": [{k: v for k, v in _SAMPLE.items() if k != "frames"}]}, "frames"),
    ({"topology": "uwa15", "classes": ["a"], "samples": [{**_SAMPLE, "frames": [["x"]]}]},
     "frames"),
    ({"topology": "uwa15", "classes": ["a"],
      "samples": [{k: v for k, v in _SAMPLE.items() if k != "label"}]}, "label"),
    ({"topology": "uwa15", "classes": ["a"], "samples": [{**_SAMPLE, "label": "0"}]},
     "label"),
    ({"topology": "uwa15", "classes": ["a"],
      "samples": [{k: v for k, v in _SAMPLE.items() if k != "id"}]}, "id"),
    ({"topology": "uwa15", "classes": ["a"], "split": 1, "samples": [_SAMPLE]}, "split"),
    ([1, 2], "topology"),
    ({"topology": "uwa15", "classes": ["a"],
      "samples": [{**_SAMPLE, "frames": [[["0.5", 0.0, 0.0]] * 15] * 2}]}, "frames"),
    ({"topology": "uwa15", "classes": ["a"],
      "samples": [{**_SAMPLE, "frames": [[[True, 0.5, 0.0]] * 15] * 2}]}, "frames"),
]


@pytest.mark.parametrize("doc, named", MALFORMED_DATASETS)
def test_malformed_dataset_exits_3_with_message(tmp_path, capsys, doc, named):
    from skelpool.model import ModelConfig, build_model, save_checkpoint

    data = tmp_path / "data.json"
    data.write_text(json.dumps(doc))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(build_model(ModelConfig(topology="uwa15", classes=3, frames=8,
                                            channels=(4, 8, 8), ism_channels=4)), str(ckpt))
    for args in (["train", "--data", str(data), "--out", str(tmp_path / "run")] + FAST_TRAIN,
                 ["eval", "--checkpoint", str(ckpt), "--data", str(data),
                  "--out", str(tmp_path / "s.csv")]):
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}:") and f"'{named}'" in err


# one non-default value per config field: the argv that sets it and the value that
# `config:` (flops) or config.json (train) must read back
MODEL_FLAG_CASES = {
    "variant": (["--variant", "heavy"], "heavy"),
    "topology": (["--topology", "uwa15"], "uwa15"),
    "classes": (["--classes", "3"], 3),
    "frames": (["--frames", "16"], 16),
    "channels": (["--channels", "8,16,32"], [8, 16, 32]),
    "pooling_locations": (["--pooling-locations", "1,2"], [1, 2]),
    "ratio": (["--ratio", "2"], 2),
    "sigma": (["--sigma", "sigmoid"], "sigmoid"),
    "fusion_weight": (["--fusion-weight", "0.25"], 0.25),
    "fusion_mode": (["--fusion-mode", "concat"], "concat"),
    "temporal_kernel": (["--kernel", "3"], 3),
    "ism": (["--no-ism", "--ratio", "1"], False),  # the 3-channel stem needs ratio 1
    "ism_channels": (["--ism-channels", "16"], 16),
    "adaptive": (["--no-adaptive"], False),
    "residual_pool": (["--no-residual-pool"], False),
    "dtype": (["--dtype", "f64"], "f64"),
    "stream": (["--stream", "motion"], "motion"),
}
TRAIN_FLAG_BASE = ["--channels", "4,8,8", "--ism-channels", "4", "--epochs", "1",
                   "--warmup", "1", "--decay-steps", "", "--batch-size", "4"]
TRAIN_FLAG_CASES = {  # each argv comes after TRAIN_FLAG_BASE and overrides it
    "epochs": (["--epochs", "2"], 2),
    "warmup": (["--warmup", "0"], 0),
    "base_lr": (["--lr", "0.02"], 0.02),
    "decay_steps": (["--epochs", "2", "--decay-steps", "2"], [2]),
    "decay_factor": (["--decay-factor", "0.5"], 0.5),
    "momentum": (["--momentum", "0.5"], 0.5),
    "weight_decay": (["--weight-decay", "0.001"], 0.001),
    "batch_size": (["--batch-size", "3"], 3),
    "seed": (["--seed", "4"], 4),
    "augment": (["--no-augment"], False),
    "rotate_max": (["--rotate-max", "0.1"], 0.1),
    "early_stop_train_acc": (["--early-stop", "0.9"], 0.9),
}


def test_config_flags_cover_every_field():
    model, train = ({f.name for f in fields(cls)} for cls in (ModelConfig, TrainConfig))
    assert set(MODEL_FLAG_CASES) == model and set(TRAIN_FLAG_CASES) == train
    parser = build_parser()
    assert model <= set(vars(parser.parse_args(["flops"])))
    # train takes topology and classes from the dataset
    given = set(vars(parser.parse_args(["train", "--data", "d", "--out", "o"])))
    assert (model - {"topology", "classes"}) | train <= given


@pytest.mark.parametrize("command, name", [
    *[("flops", name) for name in MODEL_FLAG_CASES],
    *[("train", name) for name in TRAIN_FLAG_CASES]])
def test_config_flag_is_read_back(workdir, tmp_path, capsys, command, name):
    if command == "flops":
        (argv, value), cls, section = MODEL_FLAG_CASES[name], ModelConfig, "model"
        assert main(["flops"] + argv) == 0
        doc = json.loads(capsys.readouterr().out.splitlines()[0].removeprefix("config:"))
    else:
        (argv, value), cls, section = TRAIN_FLAG_CASES[name], TrainConfig, "train"
        run = tmp_path / "run"
        assert main(["train", "--data", str(workdir / "train.json"), "--out", str(run)]
                    + TRAIN_FLAG_BASE + argv) == 0
        doc = json.loads((run / "config.json").read_text())
    default = next(f.default for f in fields(cls) if f.name == name)
    assert value != (list(default) if isinstance(default, tuple) else default)
    assert doc[section][name] == value


# (score file bytes, the line the error must name)
MALFORMED_SCORES = {
    "nan-score": (b"a,0,0.5,nan\n", 1),
    "infinite-score": (b"a,0,0.5,0.5\nb,1,-inf,0.5\n", 2),
    "non-numeric-score": (b"a,0,0.5,y\n", 1),
    "label-past-columns": (b"a,0,0.5,0.5\nb,5,0.5,0.5\n", 2),
    "negative-label": (b"a,-1,0.5,0.5\n", 1),
    "non-integer-label": (b"a,x,0.5,0.5\n", 1),
    "fractional-label": (b"a,1.0,0.5,0.5\n", 1),
    "undecodable-byte": (b"a,0,0.5,0.5\n\n\xff,1,0.5,0.5\n", 3),
    "short-row": (b"a,0\n", 1),
}


@pytest.mark.parametrize("name", MALFORMED_SCORES)
def test_malformed_score_file_exits_3_naming_the_line(tmp_path, capsys, name):
    text, line = MALFORMED_SCORES[name]
    path = tmp_path / "scores.csv"
    path.write_bytes(text)
    out = tmp_path / "fused.csv"
    assert main(["fuse", "--scores", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {path}: line {line}:")
    assert not out.exists()


def _checkpoint(path, stream: str = "joint"):
    """An untrained uwa15 model of `stream` matching the `workdir` datasets, saved
    to `path`, with a head that tells the samples apart."""
    model = build_model(ModelConfig(topology="uwa15", classes=3, frames=8, channels=(4, 8, 8),
                                    ism_channels=4, stream=stream), seed=0)
    model.head.w.assign(np.random.default_rng(1).normal(0.0, 0.5, model.head.w.shape))
    save_checkpoint(model, str(path))
    return model


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("small") / "model.ckpt"
    _checkpoint(path)
    return path


def test_bone_checkpoint_scores_the_bone_stream(workdir, tmp_path):
    model = _checkpoint(tmp_path / "bone.ckpt", stream="bone")
    out = tmp_path / "scores.csv"
    assert main(["eval", "--checkpoint", str(tmp_path / "bone.ckpt"),
                 "--data", str(workdir / "test.json"), "--out", str(out)]) == 0
    ds = load_dataset(str(workdir / "test.json"))  # at the model's 8 frames
    for stream, same in (("bone", True), ("joint", False)):
        x, y, ids = to_arrays(apply_stream(ds, stream))
        want = tmp_path / f"{stream}.csv"
        save_scores(ScoreFile(ids, y, predict_scores(model, x)), str(want))
        assert (want.read_bytes() == out.read_bytes()) == same, stream


def test_motion_checkpoint_dumps_the_motion_stream_fields(workdir, tmp_path):
    model = _checkpoint(tmp_path / "motion.ckpt", stream="motion")
    out = tmp_path / "attn"
    assert main(["dump-attention", "--checkpoint", str(tmp_path / "motion.ckpt"),
                 "--data", str(workdir / "test.json"), "--out", str(out)]) == 0
    got = [(out / f"attention_stage{s}.csv").read_text() for s in (1, 2, 3)]
    ds = load_dataset(str(workdir / "test.json"))
    for stream, same in (("motion", True), ("joint", False)):
        x, _, ids = to_arrays(apply_stream(ds, stream))
        corr: list = []
        model.forward(x, train=False, corr_out=corr)
        want = ["".join(f"{i},{t},{','.join(map(repr, row.tolist()))}\n"
                        for i, field in zip(ids, values) for t, row in enumerate(field))
                for _, values in corr]
        assert (want == got) == same, stream


def test_overflowing_weight_exits_4_with_one_error_line(workdir, tmp_path, capsys):
    model = _checkpoint(tmp_path / "model.ckpt")
    weight = dict(model.named_parameters())["ism.vec_conv2"]
    value = weight.data.copy()
    value.flat[0] = 3e38
    weight.assign(value)
    save_checkpoint(model, str(tmp_path / "model.ckpt"))
    out = tmp_path / "scores.csv"
    assert main(["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                 "--data", str(workdir / "test.json"), "--out", str(out)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite values produced by "
                                               "operator 'matmul' in stage1"), err
    assert not out.exists()


def test_overflowing_weight_on_two_threads_exits_4_without_a_warning(workdir, tmp_path,
                                                                     capsys, monkeypatch,
                                                                     eval_threads):
    """Each eval thread runs under the caller's numpy error state: the blocks
    overflow on the pool threads as on the caller's, and none of them warns."""
    model = _checkpoint(tmp_path / "model.ckpt")
    weight = dict(model.named_parameters())["ism.vec_conv2"]
    value = weight.data.copy()
    value.flat[0] = 3e38
    weight.assign(value)
    save_checkpoint(model, str(tmp_path / "model.ckpt"))
    eval_threads(2)
    monkeypatch.setattr(M, "EVAL_BLOCK_BYTES", 2 * model.widest_activation_bytes())
    logits, threads = M.Model.logits, set()

    def spy(self, h, *args, **kwargs):
        threads.add(threading.current_thread().name)
        return logits(self, h, *args, **kwargs)

    monkeypatch.setattr(M.Model, "logits", spy)
    out = tmp_path / "scores.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--data", str(workdir / "test.json"), "--out", str(out)])
    assert code == 4 and threading.main_thread().name not in threads
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite values produced by "
                                               "operator 'matmul' in stage1"), err
    assert not out.exists()


@pytest.mark.parametrize("sample_id", ["repeated", "a\nb"])
def test_dataset_id_that_a_score_line_cannot_hold_exits_3(workdir, small_checkpoint, tmp_path,
                                                          capsys, sample_id):
    doc = json.loads((workdir / "test.json").read_text())
    if sample_id == "repeated":
        sample_id = doc["samples"][0]["id"]
    doc["samples"][1]["id"] = sample_id
    data = tmp_path / "data.json"
    data.write_text(json.dumps(doc))
    out = tmp_path / "scores.csv"
    assert main(["eval", "--checkpoint", str(small_checkpoint), "--data", str(data),
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {data}: sample {sample_id!r}: ")
    assert not out.exists()


@pytest.mark.parametrize("split", ["a,b", "a\nb", " test"])
def test_synth_split_that_a_score_line_cannot_hold_exits_2(tmp_path, capsys, split):
    out = tmp_path / "d.json"
    assert main(["synth", "--classes", "2", "--per-class", "1", "--frames", "4",
                 "--topology", "uwa15", "--split", split, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: sample {split + '-00-000'!r}")
    assert not out.exists()


def test_readme_commands_parse(capsys):
    """Every `skelpool` command of a ```sh block in README.md, its `\\` continuations
    joined, parses (it is not run)."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), flags=re.M | re.S)
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("skelpool ")]
    assert len(commands) >= 10
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"{command}\n{capsys.readouterr().err}")


@pytest.mark.parametrize("command, flag, value", [
    ("dump-attention", "--limit", "0"), ("dump-attention", "--limit", "-1")])
def test_non_positive_count_exits_2_naming_the_flag(workdir, small_checkpoint, tmp_path,
                                                   capsys, command, flag, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--checkpoint", str(small_checkpoint),
              "--data", str(workdir / "test.json"), "--out", str(out), flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"argument {flag}: invalid positive_int value" \
        in captured.err
    assert not out.exists()


def test_eval_summary_reports_rate_and_eval_block(workdir, small_checkpoint, tmp_path,
                                                  capsys):
    model = load_checkpoint(str(small_checkpoint))
    block, threads = model.eval_block, model.eval_threads(6)
    out = tmp_path / "scores.csv"
    assert main(["eval", "--checkpoint", str(small_checkpoint),
                 "--data", str(workdir / "test.json"), "--out", str(out)]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert re.fullmatch(rf"accuracy \d\.\d{{4}} over 6 samples -> {re.escape(str(out))} "
                        rf"\(\d+\.\d samples/s, eval block {block} on {threads} threads?\)",
                        last), last


def test_dump_attention_is_the_same_in_blocks(workdir, small_checkpoint, tmp_path,
                                              capsys, monkeypatch):
    loaded = load_checkpoint(str(small_checkpoint))
    widest = loaded.widest_activation_bytes()
    forward, calls = M.Model.forward, []

    def counted(self, *args, **kwargs):
        calls.append(args[0].shape[0])
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(M.Model, "forward", counted)
    files = {}
    for budget in (2 * widest, 1 << 40):  # blocks of 2, then one block per call
        monkeypatch.setattr(M, "EVAL_BLOCK_BYTES", budget)
        out = tmp_path / f"attn{budget}"
        calls.clear()
        assert main(["dump-attention", "--checkpoint", str(small_checkpoint),
                     "--data", str(workdir / "test.json"), "--limit", "5",
                     "--out", str(out)]) == 0
        assert calls == [5]  # one forward over every sample, which blocks inside
        last = capsys.readouterr().out.strip().splitlines()[-1]
        threads = loaded.eval_threads(5)  # blocks of 2: 3 blocks; then 1
        assert re.fullmatch(r"dumped 3 stages of 5 samples \(\d+\.\d samples/s, "
                            rf"eval block {budget // widest} on {threads} threads?\)",
                            last), last
        files[budget] = [[row.split(",") for row in
                          (out / f"attention_stage{s}.csv").read_text().splitlines()]
                         for s in (1, 2, 3)]
    blocked, one_shot = files.values()
    for a, b in zip(blocked, one_shot):
        assert [r[:2] for r in a] == [r[:2] for r in b]  # sample id, frame
        assert np.allclose(np.array([r[2:] for r in a], dtype=float),
                           np.array([r[2:] for r in b], dtype=float), rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("weights", ["nan,1", "1,inf", "1e309,1", "nan,nan"])
def test_fuse_rejects_a_non_finite_weight_before_writing(workdir, small_checkpoint, tmp_path,
                                                         capsys, weights):
    scores = tmp_path / "scores.csv"
    assert main(["eval", "--checkpoint", str(small_checkpoint),
                 "--data", str(workdir / "test.json"), "--out", str(scores)]) == 0
    capsys.readouterr()
    fused = tmp_path / "fused.csv"
    assert main(["fuse", "--scores", str(scores), str(scores), "--weights", weights,
                 "--out", str(fused)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: weights must be finite")
    assert not fused.exists()


@pytest.mark.parametrize("scores, weights", [("1.0,0.0", "1e308,1e308"),
                                             ("10.0,0.0", "1e308,1")])
def test_fuse_rejects_an_overflowing_sum_before_writing(tmp_path, capsys, scores, weights):
    one = tmp_path / "one.csv"
    one.write_text(f"a,0,{scores}\n#end,1\n")
    fused = tmp_path / "fused.csv"
    assert main(["fuse", "--scores", str(one), str(one), "--weights", weights,
                 "--out", str(fused)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: the weighted sum")
    assert not fused.exists()


def _unlike(workdir, tmp_path, case):
    """The uwa15 3-class test set with one more class, with the joint count of uwa15
    but other bones, or as an ntu25 dataset."""
    doc = json.loads((workdir / "test.json").read_text())
    if case == "classes":
        doc["classes"].append("extra")
    elif case == "edges":
        doc["topology"] = {"name": "uwa15", "node_count": 15,
                           "edges": [[j, j + 1] for j in range(1, 15)]}
    else:
        doc["topology"] = "ntu25"
        for sample in doc["samples"]:
            sample["frames"] = np.zeros((8, 25, 3)).tolist()
    data = tmp_path / "data.json"
    data.write_text(json.dumps(doc))
    return data


@pytest.mark.parametrize("command", ["eval", "dump-attention"])
@pytest.mark.parametrize("case", ["classes", "edges", "joints"])
def test_dataset_unlike_the_checkpoint_exits_2_before_writing(workdir, small_checkpoint,
                                                              tmp_path, capsys, command, case):
    """The checkpoint scores 3 classes on uwa15, unlike the dataset."""
    data = _unlike(workdir, tmp_path, case)
    out = tmp_path / "out"
    assert main([command, "--checkpoint", str(small_checkpoint), "--data", str(data),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {data}: topology '") and "checkpoint's" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("case", ["classes", "edges", "joints"])
def test_eval_set_unlike_the_training_set_exits_2_before_the_config_line(workdir, tmp_path,
                                                                         capsys, case):
    data = _unlike(workdir, tmp_path, case)
    out = tmp_path / "run"
    assert main(["train", "--data", str(workdir / "train.json"), "--eval", str(data),
                 "--out", str(out)] + FAST_TRAIN) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {data}: topology '")
    assert "training set's 'uwa15' and 3" in captured.err
    assert not out.exists()


DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("kind", ["dataset", "config", "checkpoint"])
def test_deeply_nested_json_exits_3(workdir, small_checkpoint, topology_checkpoint, tmp_path,
                                    capsys, kind):
    path = tmp_path / "deep"
    if kind == "checkpoint":
        blob = DEEP.encode("utf-8")
        magic, _, blobs = topology_checkpoint
        path.write_bytes(magic + struct.pack("<Q", len(blob)) + blob + blobs)
    else:
        path.write_text(DEEP)
    test, run = str(workdir / "test.json"), str(tmp_path / "run")
    argvs = {
        "dataset": [["train", "--data", str(path), "--out", run] + FAST_TRAIN,
                    ["eval", "--checkpoint", str(small_checkpoint), "--data", str(path),
                     "--out", run]],
        "config": [["flops", "--config", str(path)],
                   ["train", "--data", str(workdir / "train.json"), "--config", str(path),
                    "--out", run] + FAST_TRAIN],
        "checkpoint": [[command, "--checkpoint", str(path), "--data", test, "--out", run]
                       for command in ("eval", "dump-attention")],
    }
    for argv in argvs[kind]:
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {path}:")
        assert "invalid JSON (maximum recursion depth exceeded" in captured.err
    assert not (tmp_path / "run").exists()
