"""Command-line entry point: synth | train | eval | flops | gradcheck | fuse |
export-topology | dump-attention.

Config precedence is built-in defaults, then --config file sections, then
explicit flags; every run echoes its fully-resolved configuration. Exit codes:
0 success, 2 bad flags or config values, 3 I/O failure, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import data as D
from . import train as TR
from .flops import count_flops, no_pooling_control
from .gradcheck import run_all
from .model import (FIELD_CHOICES, ModelConfig, build_model, config_doc, config_from_doc,
                    load_checkpoint, save_checkpoint)
from .skeleton import (builtin_names, builtin_partition, builtin_topology, json_field,
                       load_topology, parse_json, topology_doc)
from .tensor import NonFiniteError


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_config(path: str | None) -> dict:
    """The `model` and `train` sections of a --config file, each {} when absent."""
    doc = {}
    if path:
        try:
            with open(path) as fh:
                doc = parse_json(fh.read())
        except ValueError as exc:
            raise CliError(3, f"{path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise CliError(3, f"{path}: the top level is not a JSON object")
    unknown = set(doc) - {"model", "train"}
    if unknown:
        raise CliError(2, f"{path}: unknown sections {sorted(unknown)}, not 'model' or 'train'")
    return {key: json_field(doc, key, (dict,), f"{path}:", {}) for key in ("model", "train")}


def _read_file(read, path: str):
    """`read(path)`, where a malformed file raises a ValueError naming it: exit 3."""
    try:
        return read(path)
    except ValueError as exc:
        raise CliError(3, str(exc)) from exc


def _model_input(cfg: ModelConfig, ds: D.Dataset, path: str, owner: str) -> D.Dataset:
    """The dataset `ds` read from `path` as the model of `cfg` reads it: its
    `cfg.stream`, resampled to `cfg.frames`. A topology or class count other than
    the config's exits 2, naming the `owner` of the config."""
    topo, want = load_topology(ds.topology)[0], load_topology(cfg.topology)[0]
    if (topo, ds.class_count) != (want, cfg.classes):
        raise CliError(2, f"{path}: topology '{topo.name}' and {ds.class_count} classes, not "
                          f"the {owner}'s '{want.name}' and {cfg.classes}")
    return D.resample_dataset(D.apply_stream(ds, cfg.stream), cfg.frames)


def _scoring_input(args):
    """(model, x, labels, ids) of `--checkpoint` and `--data`, as the model reads it."""
    model = _read_file(load_checkpoint, args.checkpoint)
    ds = _model_input(model.config, _read_file(D.load_dataset, args.data), args.data,
                      "checkpoint")
    return (model, *D.to_arrays(ds, dtype=model.dtype))


def positive_int(text: str) -> int:  # argparse: "invalid positive_int value"
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _throughput(count: int, seconds: float, model) -> str:
    """The rate, the eval block size and the thread count of a scoring pass of
    `count` samples, for a summary line."""
    threads = model.eval_threads(count)
    return (f"{count / max(seconds, 1e-9):.1f} samples/s, eval block {model.eval_block} "
            f"on {threads} thread{'s' if threads > 1 else ''}")


def int_list(text: str) -> list[int]:  # argparse: "invalid int_list value"
    return [int(v) for v in text.split(",") if v != ""]


# config fields whose flag is not `--<field-name>`, and the help of some flags
_SHORT_FLAGS = {"temporal_kernel": "kernel", "base_lr": "lr",
                "early_stop_train_acc": "early-stop"}
_HELP = {
    "channels": "per-stage widths, e.g. 64,128,256",
    "pooling_locations": "pooled stage prefix, e.g. 1,2,3",
    "ratio": "correlation projection reduction",
    "temporal_kernel": "temporal kernel size (odd)",
    "early_stop_train_acc": "stop after the first epoch whose in-epoch train accuracy "
                            "and eval-mode accuracy on the training set both reach "
                            "this value",
}


def _add_config_flags(p: argparse.ArgumentParser, cls, skip=(), helps=_HELP) -> None:
    """One flag per field of the config dataclass `cls`, storing under the field's
    name: `--<field-name>`, or `--no-<field-name>` for a bool that defaults to true.
    The value parses as the type of the field's default: a tuple as comma-separated
    integers, a None default as a float."""
    choices = {**FIELD_CHOICES, "topology": builtin_names()}
    for f in fields(cls):
        if f.name in skip:
            continue
        short = _SHORT_FLAGS.get(f.name)
        flag = short or f.name.replace("_", "-")
        if isinstance(f.default, bool):
            p.add_argument(f"--no-{flag}" if f.default else f"--{flag}", dest=f.name,
                           action="store_const", const=not f.default,
                           help=helps.get(f.name))
        else:
            kind = (int_list if isinstance(f.default, tuple)
                    else float if f.default is None else type(f.default))
            p.add_argument(f"--{flag}", dest=f.name, type=kind, choices=choices.get(f.name),
                           metavar=short and short.replace("-", "_").upper(),
                           help=helps.get(f.name))


def _config_flags(args, cls) -> dict:
    """The fields of `cls` whose flag was given; the file section they override and
    the dataclass defaults supply the rest in `config_from_doc`."""
    return {f.name: value for f in fields(cls)
            if (value := getattr(args, f.name, None)) is not None}


def _echo_config(doc: dict, out_dir: str | None = None) -> None:
    print("config:", json.dumps(doc, sort_keys=True))
    if out_dir:
        with open(os.path.join(out_dir, "config.json"), "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    ds = D.synth_generate(classes=args.classes, per_class=args.per_class,
                          frames=args.frames, topology=args.topology,
                          noise=args.noise, seed=args.seed, split=args.split)
    D.save_dataset(ds, args.out)
    _echo_config({"classes": args.classes, "per_class": args.per_class,
                  "frames": args.frames, "topology": args.topology,
                  "noise": args.noise, "seed": args.seed, "split": args.split,
                  "out": args.out})
    print(f"wrote {len(ds.sequences)} sequences to {args.out}")
    return 0


def cmd_train(args) -> int:
    if args.model_seed < 0:
        raise CliError(2, f"--model-seed must be >= 0, not {args.model_seed}")
    if args.frames is not None and args.half_frames:
        raise CliError(2, "--half-frames halves the native frame count; "
                          "it cannot be combined with --frames")
    train_ds = _read_file(D.load_dataset, args.data)
    eval_ds = _read_file(D.load_dataset, args.eval) if args.eval else None

    frames = args.frames
    if frames is None:
        native = {s.frames.shape[0] for s in train_ds.sequences}
        if len(native) != 1:
            raise CliError(3, f"{args.data}: mixed frame counts; pass --frames")
        frames = native.pop() // (2 if args.half_frames else 1)

    file_cfg = _read_config(args.config)
    model_cfg = config_from_doc(ModelConfig, {
        **file_cfg["model"], **_config_flags(args, ModelConfig),
        "topology": train_ds.topology, "classes": train_ds.class_count, "frames": frames})
    train_cfg = config_from_doc(TR.TrainConfig, {
        **file_cfg["train"], **_config_flags(args, TR.TrainConfig)})

    train_set = _model_input(model_cfg, train_ds, args.data, "training set")
    eval_set = _model_input(model_cfg, eval_ds, args.eval, "training set") if eval_ds else None
    model = build_model(model_cfg, seed=args.model_seed)
    os.makedirs(args.out, exist_ok=True)  # only once the run can start
    _echo_config({"model": config_doc(model_cfg), "train": config_doc(train_cfg),
                  "data": args.data, "eval": args.eval},
                 out_dir=args.out)
    metrics = TR.train_loop(model, train_set, train_cfg, eval_set=eval_set,
                            log=lambda r: print(f"epoch {r.epoch} lr {r.lr:.4g} "
                                                f"loss {r.train_loss:.4f} "
                                                f"acc {r.train_acc:.3f} "
                                                f"eval {r.eval_acc:.3f}"))
    TR.write_metrics(os.path.join(args.out, "metrics.csv"), metrics)
    save_checkpoint(model, os.path.join(args.out, "model.ckpt"))
    print(f"wrote {args.out}/metrics.csv and {args.out}/model.ckpt")
    return 0


def cmd_eval(args) -> int:
    model, x, y, ids = _scoring_input(args)
    start = time.perf_counter()
    scores = TR.predict_scores(model, x)
    rate = _throughput(len(ids), time.perf_counter() - start, model)
    sf = D.ScoreFile(ids, y, scores)
    D.save_scores(sf, args.out)
    _echo_config({"checkpoint": args.checkpoint, "data": args.data, "out": args.out})
    print(f"accuracy {sf.accuracy():.4f} over {len(ids)} samples -> {args.out} ({rate})")
    return 0


def cmd_flops(args) -> int:
    flags = _config_flags(args, ModelConfig)
    if args.no_pooling:
        flags["pooling_locations"] = []
    cfg = config_from_doc(ModelConfig, {**_read_config(args.config)["model"], **flags})
    _echo_config({"model": config_doc(cfg)})
    report = count_flops(cfg)
    lines = report.lines()
    if cfg.pooling_locations:
        control = count_flops(no_pooling_control(cfg))
        lines.append(f"no-pooling control {control.total / 1e6:10.3f} MMACs")
        lines.append(f"reduction ratio {report.total / control.total:.4f} "
                     f"({100 * (1 - report.total / control.total):.1f}% saved)")
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


def cmd_gradcheck(args) -> int:
    dtype = np.float64 if args.precision == "f64" else np.float32
    tol = args.tol if args.tol is not None else (1e-4 if args.precision == "f64" else 1e-2)
    if not 0 < tol < np.inf:
        raise CliError(2, f"--tol must be a positive finite number, not {tol}")
    eps = 1e-5 if args.precision == "f64" else 1e-3
    names = set(args.ops.split(",")) if args.ops else None
    _echo_config({"precision": args.precision, "seeds": args.seeds, "tol": tol,
                  "eps": eps, "ops": sorted(names) if names else "all"})
    results = run_all(seeds=range(args.seeds), dtype=dtype, eps=eps, tol=tol,
                      names=names)
    worst = 0.0
    for name, err, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name:25s} max rel err {err:.3e}")
        worst = max(worst, err)
    print(f"{len(results)} checks, worst {worst:.3e}, tolerance {tol:.0e}")
    if not all(ok for _, _, ok in results):
        print("gradient check FAILED", file=sys.stderr)
        return 4
    return 0


def cmd_fuse(args) -> int:
    files = [_read_file(D.load_scores, p) for p in args.scores]
    weights = [float(v) for v in args.weights.split(",") if v] if args.weights else None
    acc, fused = D.fuse_scores(files, weights)
    D.save_scores(fused, args.out)
    _echo_config({"scores": args.scores,
                  "weights": weights or [1.0] * len(files), "out": args.out})
    print(f"fused accuracy {acc:.4f} over {len(fused.ids)} samples -> {args.out}")
    return 0


def cmd_export_topology(args) -> int:
    topo = builtin_topology(args.topology)
    scheme = builtin_partition(args.topology)
    with open(args.out, "w") as fh:
        json.dump(topology_doc(topo, scheme), fh, indent=2)
    _echo_config({"topology": args.topology, "out": args.out})
    print(f"wrote {args.out}")
    return 0


def cmd_dump_attention(args) -> int:
    model, x, _, ids = _scoring_input(args)
    if not (model.config.adaptive and model.config.pooling_locations):
        raise CliError(2, "checkpoint has no adaptive pooling; nothing to dump")
    x, ids = x[: args.limit], ids[: args.limit]
    os.makedirs(args.out, exist_ok=True)
    _echo_config({"checkpoint": args.checkpoint, "data": args.data,
                  "limit": args.limit, "out": args.out})
    corr: list = []
    start = time.perf_counter()
    model.forward(x, train=False, corr_out=corr)
    rate = _throughput(len(ids), time.perf_counter() - start, model)
    for stage_index, values in corr:  # values: (samples, frames, nodes)
        path = os.path.join(args.out, f"attention_stage{stage_index}.csv")
        with open(path, "w") as fh:
            for sample_id, field in zip(ids, values):
                for t, row in enumerate(field):
                    fh.write(f"{sample_id},{t},{','.join(map(repr, row.tolist()))}\n")
        print(f"wrote {path}")
    print(f"dumped {len(corr)} stages of {len(ids)} samples ({rate})")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelpool",
        description="Region-aware skeleton graph pooling: data synthesis, training, "
                    "evaluation, MAC accounting, gradient checks, and score fusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic skeleton-motion dataset")
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--per-class", type=int, default=16)
    p.add_argument("--frames", type=int, default=64)
    p.add_argument("--topology", default="ntu25", choices=builtin_names())
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default="train")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--eval")
    p.add_argument("--config", help="JSON with optional 'model'/'train' sections")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--half-frames", action="store_true",
                   help="train on half the native frame count")
    p.add_argument("--model-seed", type=int, default=0)
    _add_config_flags(p, ModelConfig, skip=("topology", "classes"),
                      helps={**_HELP, "frames": "resample sequences to this length"})
    _add_config_flags(p, TR.TrainConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a dataset with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("flops", help="analytic multiply-accumulate report")
    p.add_argument("--config")
    p.add_argument("--no-pooling", action="store_true",
                   help="count the pooling-free control instead")
    p.add_argument("--out")
    _add_config_flags(p, ModelConfig)
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("gradcheck", help="finite-difference check of every operator")
    p.add_argument("--precision", default="f64", choices=("f32", "f64"))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--tol", type=float)
    p.add_argument("--ops", help="comma-separated case names (default: all)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("fuse", help="weighted fusion of score files")
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--weights", help="comma-separated, one per score file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("export-topology", help="write a built-in topology document")
    p.add_argument("--topology", required=True, choices=builtin_names())
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_topology)

    p = sub.add_parser("dump-attention", help="export per-stage correlation fields")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--limit", type=positive_int, help="only the first N samples")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dump_attention)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # NonFiniteError reports a non-finite operator output; numpy's warning would repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (CliError, NonFiniteError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CliError):
            return exc.code
        return 4 if isinstance(exc, NonFiniteError) else 2 if isinstance(exc, ValueError) else 3


if __name__ == "__main__":
    sys.exit(main())
