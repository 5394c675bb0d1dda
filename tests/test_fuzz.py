"""Damaged input files: prefix truncations and seeded byte flips of a checkpoint,
a dataset, a score file and a --config topology document, run through the CLI.

A flipped byte may still parse (a flipped digit is a different number), and
the command then succeeds; a prefix never does. Otherwise the command exits 2,
3 or 4 with an `error:` line. It never raises.
"""

import json

import numpy as np
import pytest

from skelpool.cli import main
from skelpool.model import ModelConfig, build_model, save_checkpoint
from skelpool.skeleton import builtin_partition, builtin_topology, topology_doc

TINY = ["--channels", "4,4,4", "--ism-channels", "2", "--classes", "2", "--frames", "4"]
TRAIN = ["--channels", "4,4,4", "--ism-channels", "2", "--epochs", "1", "--warmup", "0",
         "--decay-steps", "", "--batch-size", "4", "--no-augment"]
FLIPS = 40         # seeded single-byte flips per file
MAX_PREFIXES = 512  # about this many prefixes per file: a longer file is cut at a stride


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data.json"
    assert main(["synth", "--classes", "2", "--per-class", "2", "--frames", "4",
                 "--topology", "uwa15", "--seed", "1", "--out", str(data)]) == 0
    ckpt = root / "model.ckpt"
    save_checkpoint(build_model(ModelConfig(topology="uwa15", classes=2, frames=4,
                                            channels=(4, 4, 4), ism_channels=2)), str(ckpt))
    scores = root / "scores.csv"
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                 "--out", str(scores)]) == 0
    config = root / "config.json"
    doc = topology_doc(builtin_topology("uwa15"), builtin_partition("uwa15"))
    config.write_text(json.dumps({"model": {"topology": doc}}))
    return {"checkpoint": ckpt, "dataset": data, "scores": scores, "config": config}


def _argv(kind: str, damaged, paths) -> list[str]:
    root = paths["dataset"].parent
    if kind == "checkpoint":
        return ["eval", "--checkpoint", str(damaged), "--data", str(paths["dataset"]),
                "--out", str(root / "out.csv")]
    if kind == "dataset":
        return ["train", "--data", str(damaged), "--out", str(root / "run")] + TRAIN
    if kind == "scores":
        return ["fuse", "--scores", str(damaged), str(paths["scores"]),
                "--out", str(root / "fused.csv")]
    return ["flops", "--config", str(damaged)] + TINY


def _damaged(raw: bytes):
    """(case name, damaged bytes) for strided prefixes and seeded byte flips."""
    stride = max(1, len(raw) // MAX_PREFIXES)
    for n in range(0, len(raw), stride):
        yield f"prefix {n}", raw[:n]
    for seed in range(FLIPS):
        rng = np.random.default_rng(seed)
        pos, mask = int(rng.integers(len(raw))), int(rng.integers(1, 256))
        yield f"flip {pos} ^ {mask:#04x}", raw[:pos] + bytes([raw[pos] ^ mask]) + raw[pos + 1:]


@pytest.mark.parametrize("kind", ["checkpoint", "dataset", "scores", "config"])
def test_damaged_file_exits_with_message(files, tmp_path, capsys, kind):
    raw = files[kind].read_bytes()
    damaged = tmp_path / files[kind].name
    failures = []
    for case, content in _damaged(raw):
        damaged.write_bytes(content)
        try:
            code = main(_argv(kind, damaged, files))
        except Exception as exc:  # a traceback in a real run
            failures.append(f"{case}: raised {exc!r}")
            continue
        err = capsys.readouterr().err
        rejected = code in (2, 3, 4) and any(l.startswith("error:") for l in err.splitlines())
        # a prefix never parses: not of a JSON document or checkpoint, nor of a
        # score file, whose end-marker line counts its rows
        may_parse = case.startswith("flip")
        if not (rejected or code == 0 and may_parse):
            failures.append(f"{case}: exit {code}, stderr {err[-200:]!r}")
    assert not failures, f"{len(failures)} cases:\n" + "\n".join(failures[:20])
