"""Span tracer for the skelpool benchmark, installed from outside the package.

`Tracer.installed()` wraps the public functions of each skelpool module and
rebinds the wrapper on every module attribute that refers to the same
function object, so a caller that imported the name (`from .gcn import
gcn_block`) is traced as well as one that looks it up on its module. Each call
appends one span `[name, start, end, parent, extra]` to an in-memory list;
`parent` is the index of the enclosing span (-1 at top level) and `extra`
carries a count (MACs computed from the call's shapes, tape length, or the
gradcheck family). Tape backward closures are wrapped inside the `gradients`
wrapper, after the forward pass and before the reverse sweep, so each
operator's backward gets its own span.

`layer_metrics` turns the spans into the per-layer metrics listed in
`LAYER_METRICS`, per unit of work: a train step, a batch-64 scoring pass
through each of the two models, or a gradcheck run.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import statistics
import sys
import time
from bisect import bisect_right

from skelpool import blocks, data, flops, gcn, gradcheck, model, pooling, tensor, train

# Operators with their own per-layer rows; every other operator is "other".
NAMED_OPS = ("conv1x1", "temporal_conv", "matmul", "batch_norm", "channel_affine", "mul",
             "add", "relu", "expand", "pair_avg_time", "transpose", "concat_channels")
GEMM_OPS = ("conv1x1", "temporal_conv", "matmul")
# Public tensor functions whose name differs from the operator id they record.
_OP_IDS = {"batch_norm_train": "batch_norm", "tsum": "sum", "tmean": "mean"}

# (defining module, function name) of every traced module-level function.
MODULE_FUNCTIONS = (
    (gcn, "gcn_block"), (gcn, "spatial_graph_conv"), (gcn, "batch_normalize"),
    (pooling, "correlation"), (pooling, "spatial_pool"), (pooling, "st_pool"),
    (blocks, "information_supplement"), (blocks, "cross_fusion_block"),
    (blocks, "cross_fusion_split"), (blocks, "fuse_branches"),
    (blocks, "classifier_head"), (blocks, "global_average"),
    (model, "build_model"), (model, "save_checkpoint"), (model, "load_checkpoint"),
    (train, "train_loop"), (train, "predict_scores"), (train, "sgd_nesterov_step"),
    (train, "random_rotate"),
    (data, "synth_generate"), (data, "save_dataset"), (data, "load_dataset"),
    (data, "to_arrays"),
    (gradcheck, "run_all"), (gradcheck, "check_gradients"),
)

# Per-layer metrics: (name, unit, better).
LAYER_METRICS = (
    [(f"tensor.{op}.{field}", unit, "lower")
     for op in NAMED_OPS + ("other",)
     for field, unit in (("fwd_ms", "ms"), ("bwd_ms", "ms"), ("calls", "count"))]
    + [(f"tensor.{op}.{d}_gmac_per_s", "GMAC/s", "higher")
       for op in GEMM_OPS for d in ("fwd", "bwd")]
    + [("tensor.gradients.self_ms", "ms", "lower"),
       ("tensor.tape_entries", "count", "lower"),
       ("tensor.us_per_call", "us", "lower"),
       ("gcn.gcn_block.self_ms", "ms", "lower"),
       ("gcn.spatial_graph_conv.ms", "ms", "lower"),
       ("gcn.batch_normalize.self_ms", "ms", "lower"),
       ("pooling.correlation.ms", "ms", "lower"),
       ("pooling.spatial_pool.ms", "ms", "lower"),
       ("pooling.st_pool.self_ms", "ms", "lower"),
       ("blocks.information_supplement.ms", "ms", "lower"),
       ("blocks.cross_fusion_split.ms", "ms", "lower"),
       ("blocks.fuse_branches.ms", "ms", "lower"),
       ("blocks.classifier_head.ms", "ms", "lower"),
       ("model.forward_ms", "ms", "lower"),
       ("model.build_model_s", "s", "lower"),
       ("model.save_checkpoint_s", "s", "lower"),
       ("model.load_checkpoint_s", "s", "lower"),
       ("model.fwd_gmac_per_s", "GMAC/s", "higher"),
       ("train.forward_ms", "ms", "lower"),
       ("train.backward_ms", "ms", "lower"),
       ("train.optimizer_ms", "ms", "lower"),
       ("train.augment_ms", "ms", "lower"),
       ("train.wait_ms", "ms", "lower"),
       ("data.synth_generate_s", "s", "lower"),
       ("data.save_dataset_s", "s", "lower"),
       ("data.load_dataset_s", "s", "lower"),
       ("data.to_arrays_s", "s", "lower"),
       ("gradcheck.operator_cases_s", "s", "lower"),
       ("gradcheck.composite_cases_s", "s", "lower"),
       ("flops.macs_per_sample", "MAC", "lower"),
       ("trace.overhead_share", "share", "lower"),
       ("trace.forward_attributed_share", "share", "higher"),
       ("trace.unit_attributed_share", "share", "higher")])


def _gemm_macs(op: str, in_shapes, out_shape) -> int:
    """Forward multiply-accumulates of one GEMM-like operator call."""
    out = 1
    for n in out_shape:
        out *= n
    if op == "conv1x1":
        return out * in_shapes[1][0]
    if op == "temporal_conv":
        return out * in_shapes[1][1] * in_shapes[1][2]
    return out * in_shapes[0][-1]  # matmul: one MAC per output element per inner index


def _public_ops():
    """(function name, operator id) of every public recording operator in `tensor`."""
    out = []
    for name, fn in vars(tensor).items():
        if (callable(fn) and not name.startswith("_")
                and getattr(fn, "__module__", None) == tensor.__name__
                and "_apply" in getattr(getattr(fn, "__code__", None), "co_names", ())):
            out.append((name, _OP_IDS.get(name, name)))
    return out


class Tracer:
    """In-memory span recorder; spans survive install/uninstall cycles."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._macs_per_sample: dict = {}
        self.operator_cases = {c.name for c in gradcheck.operator_cases()}

    def wrap(self, name: str, fn, extra=None):
        """Return fn wrapped in a span; `extra(args, result)` fills the span's count."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[4] = extra(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _forward_macs(self, args, out):
        m = args[0]
        key = m.config
        if key not in self._macs_per_sample:
            self._macs_per_sample[key] = flops.count_flops(m.config).total
        return self._macs_per_sample[key] * args[1].shape[0]

    def _traced_gradients(self, fn):
        def gradients_with_backward_spans(tape, output, leaves):
            for entry in tape.entries:
                macs = None
                if entry.op in GEMM_OPS:
                    n = 2 * _gemm_macs(entry.op, [t.shape for t in entry.inputs],
                                       entry.output.shape)
                    macs = (lambda args, out, n=n: n)
                entry.backward = self.wrap("bwd:" + entry.op, entry.backward, macs)
            return inner(tape, output, leaves)

        inner = self.wrap("tensor.gradients", fn, lambda args, out: len(args[0].entries))
        gradients_with_backward_spans.__wrapped__ = fn
        return gradients_with_backward_spans

    def _wrappers(self):
        """(owner, attribute, wrapper) for each traced definition."""
        out = []
        for name, op in _public_ops():
            fn = getattr(tensor, name)
            macs = None
            if op in GEMM_OPS:
                macs = (lambda args, res, op=op:
                        _gemm_macs(op, [a.shape for a in args[:2]], res.shape))
            out.append((tensor, name, self.wrap("fwd:" + op, fn, macs)))
        out.append((tensor, "gradients", self._traced_gradients(tensor.gradients)))
        for mod, name in MODULE_FUNCTIONS:
            short = mod.__name__.rsplit(".", 1)[-1]
            extra = None
            if name == "check_gradients":
                extra = (lambda args, res:
                         "operator" if args[0].name in self.operator_cases else "composite")
            out.append((mod, name, self.wrap(f"{short}.{name}", getattr(mod, name), extra)))
        out.append((model.Model, "forward",
                    self.wrap("model.Model.forward", model.Model.forward, self._forward_macs)))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Bind every wrapper on each skelpool attribute that holds the original."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "skelpool" or n.startswith("skelpool."))]
        saved = []
        try:
            for owner, name, wrapper in self._wrappers():
                original = getattr(owner, name)
                targets = [owner] if isinstance(owner, type) else \
                    [m for m in modules if getattr(m, name, None) is original]
                for target in targets:
                    saved.append((target, name, original))
                    setattr(target, name, wrapper)
            yield self
        finally:
            for target, name, original in reversed(saved):
                setattr(target, name, original)

    def write(self, path: str, units: list) -> None:
        """Write units and spans, each span tagged with its unit index, as gzip JSON.

        Spans are `[name, start, end, parent, extra, unit]`; unit -1 is outside any unit.
        """
        starts = [u[2] for u in units]
        spans = []
        for name, start, end, parent, extra in self.spans:
            k = bisect_right(starts, start) - 1
            spans.append([name, start, end, parent, extra,
                          k if k >= 0 and start < units[k][3] else -1])
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"units": units, "spans": spans}, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, units: list, kind: str, macs_per_sample: int,
                  untraced_unit_s: list) -> dict:
    """Per-unit layer metrics from the spans that start inside traced units of `kind`.

    `units` holds `[kind, index, start, end, traced]` records in time order.
    Times of set-up work are per traced set-up; `data.to_arrays_s` is per call.
    """
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    traced_units = [u for u in units if u[4]]

    def totals(unit_kind):
        chosen = [u for u in traced_units if u[0] == unit_kind]
        starts = [u[2] for u in chosen]
        acc: dict[str, list] = {}
        for i, s in enumerate(spans):
            k = bisect_right(starts, s[1]) - 1
            if k < 0 or s[1] >= chosen[k][3]:
                continue
            key = s[0] + ":" + s[4] if isinstance(s[4], str) else s[0]
            a = acc.setdefault(key, [0.0, 0.0, 0, 0])
            a[0] += dur[i]
            a[1] += dur[i] - child[i]
            a[2] += 1
            if isinstance(s[4], int):
                a[3] += s[4]
        return acc, max(len(chosen), 1), chosen

    acc, n, chosen = totals(kind)
    zero = [0.0, 0.0, 0, 0]

    def get(name):
        return acc.get(name, zero)

    out: dict[str, float] = {}
    by_op: dict[tuple, list] = {}  # (fwd|bwd, named op or "other") -> [seconds, calls]
    for key, (d, _, c, _) in acc.items():
        if key[:4] in ("fwd:", "bwd:"):
            op = key[4:] if key[4:] in NAMED_OPS else "other"
            a = by_op.setdefault((key[:3], op), [0.0, 0])
            a[0] += d
            a[1] += c
    for op in NAMED_OPS + ("other",):
        fwd, bwd = by_op.get(("fwd", op), [0.0, 0]), by_op.get(("bwd", op), [0.0, 0])
        out[f"tensor.{op}.fwd_ms"] = 1e3 * fwd[0] / n
        out[f"tensor.{op}.bwd_ms"] = 1e3 * bwd[0] / n
        out[f"tensor.{op}.calls"] = fwd[1] / n
    for op in GEMM_OPS:
        for d in ("fwd", "bwd"):
            t, macs = get(f"{d}:{op}")[0], get(f"{d}:{op}")[3]
            out[f"tensor.{op}.{d}_gmac_per_s"] = macs / t / 1e9 if t > 0 else 0.0
    fwd_time = sum(a[0] for (d, _), a in by_op.items() if d == "fwd")
    fwd_calls = sum(a[1] for (d, _), a in by_op.items() if d == "fwd")
    out["tensor.gradients.self_ms"] = 1e3 * get("tensor.gradients")[1] / n
    out["tensor.tape_entries"] = get("tensor.gradients")[3] / n
    out["tensor.us_per_call"] = 1e6 * fwd_time / fwd_calls if fwd_calls else 0.0
    for name, field in (("gcn.gcn_block", 1), ("gcn.spatial_graph_conv", 0),
                        ("gcn.batch_normalize", 1), ("pooling.correlation", 0),
                        ("pooling.spatial_pool", 0), ("pooling.st_pool", 1),
                        ("blocks.information_supplement", 0),
                        ("blocks.cross_fusion_split", 0), ("blocks.fuse_branches", 0),
                        ("blocks.classifier_head", 0)):
        out[name + (".self_ms" if field else ".ms")] = 1e3 * get(name)[field] / n
    fwd = get("model.Model.forward")
    out["model.forward_ms"] = 1e3 * fwd[0] / n
    out["model.fwd_gmac_per_s"] = fwd[3] / fwd[0] / 1e9 if fwd[0] > 0 else 0.0
    out["trace.forward_attributed_share"] = (fwd[0] - fwd[1]) / fwd[0] if fwd[0] > 0 else 0.0

    unit_time = sum(u[3] - u[2] for u in chosen)
    parts = {"forward": fwd[0] + get("fwd:cross_entropy")[0],
             "backward": get("tensor.gradients")[0],
             "optimizer": get("train.sgd_nesterov_step")[0],
             "augment": get("train.random_rotate")[0]}
    step = kind == "step"
    for key, value in parts.items():
        out[f"train.{key}_ms"] = 1e3 * value / n if step else 0.0
    out["train.wait_ms"] = 1e3 * (unit_time - sum(parts.values())) / n if step else 0.0
    covered = {"step": sum(parts.values()), "pass": get("train.predict_scores")[0],
               "run": get("gradcheck.run_all")[0]}[kind]
    out["trace.unit_attributed_share"] = covered / unit_time if unit_time > 0 else 0.0

    sacc, sn, _ = totals("setup")
    for name in ("model.build_model", "model.save_checkpoint", "model.load_checkpoint",
                 "data.synth_generate", "data.save_dataset", "data.load_dataset"):
        out[name + "_s"] = sacc.get(name, zero)[0] / sn
    conv = [dur[i] for i, s in enumerate(spans) if s[0] == "data.to_arrays"]
    out["data.to_arrays_s"] = sum(conv) / len(conv) if conv else 0.0
    for family in ("operator", "composite"):
        out[f"gradcheck.{family}_cases_s"] = get("gradcheck.check_gradients:" + family)[0] / n
    out["flops.macs_per_sample"] = float(macs_per_sample)

    traced_s = [u[3] - u[2] for u in chosen]
    out["trace.overhead_share"] = 0.0
    if traced_s and untraced_unit_s:
        out["trace.overhead_share"] = \
            statistics.median(traced_s) / statistics.median(untraced_unit_s) - 1.0
    return out


def span_counts(tracer: Tracer) -> dict[str, int]:
    counts: dict[str, int] = {}
    for s in tracer.spans:
        counts[s[0]] = counts.get(s[0], 0) + 1
    return counts
