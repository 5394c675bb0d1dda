"""Workloads, correctness checks and end-to-end metrics of the skelpool benchmark.

Each workload is one caller in a closed loop: the next unit of work starts
when the previous one returns. Inputs come from the workload seed only.

- train-light / train-heavy: `train.train_loop` on a fresh copy of the
  initial parameters, 16 synthetic samples (8 classes), batch 16, augmentation
  on, no eval split, so every epoch is one step. A unit is one training run.
- infer: the light and the heavy model, each loaded from a checkpoint written
  during set-up, in eval mode with no tape. A unit is one batch-64 scoring
  pass (`train.predict_scores`) through each model, followed by 16
  back-to-back batch-1 requests, each scored by both models (`Model.forward`).
- gradcheck: `gradcheck.run_all` in f64 over the whole case registry, one
  finite-difference seed per unit, cycling from the workload seed through the
  registry's ten gate seeds 0-9. (Outside them the oracle can straddle a
  rectifier kink: at seed 2018 `cross_fusion_block` reads 5.4e-3 at eps 1e-5
  and 8e-7 at eps 1e-7, an artefact of the finite difference.)

Set-up (data synthesis, dataset JSON write and read, model build, checkpoint
write and read, warm-up) is repeated `SETUPS` times and reported as a median.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import math
import os
import platform
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np
from skelpool import data, gradcheck, model, tensor, train
from skelpool.flops import count_flops

from tracer import LAYER_METRICS, Tracer, layer_metrics, span_counts

SETUPS = 3
CLASSES = 8
TOPOLOGY = "ntu25"
BATCH_TRAIN = 16
BATCH_EVAL = 64
B1_PER_UNIT = 16
F64_SUBSET = 4
# f32 logits against an f64 copy of the same weights: |a - b| <= tol * (1 + |b|).
# f32 rounding (6e-8) grows through ~20 stacked layers; 1e-4 leaves ample margin.
F64_TOL = 1e-4
# Timed outputs against the set-up reference. Batch-1 logits use other GEMM
# blockings than the batch-64 reference, so they match to rounding only.
SCORE_TOL = 1e-6
B1_TOL = 1e-4
# Share of Model.forward and of each unit that the traced layers should cover.
ATTRIBUTED = 0.95

# End-to-end metrics: (name, unit, better, bound as a share of the parent's median).
# The central latency is a mean. On a shared 2-vCPU Xeon VM the CPU speed swung
# by up to 1.7x for seconds at a time, so the per-run median flipped between the
# fast and the slow mode: over 10 runs the infer request median spread 0.30 of
# its median, the mean 0.06 in the next 10. Medians and tails are still printed
# under the workload's own names.
E2E_METRICS = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("items_per_s", "items/s", "higher", 0.25),
    ("op_ms_mean", "ms", "lower", 0.25),
    ("op_ms_tail", "ms", "lower", 0.25),
)


@dataclass(frozen=True)
class Size:
    channels: tuple[int, int, int]
    ism_channels: int
    frames: int
    epochs: int  # epochs per training run; 16 samples at batch 16 is one step each


PAPER = Size((64, 128, 256), 32, 64, 3)
TOY = Size((8, 16, 32), 8, 16, 1)


class Checks:
    """Correctness checks; `failed_share` is failures over checks attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def tail(values):
    """(value, percentile, n) at the highest percentile with ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, n
    p = 100 * (n - 10) // n
    return xs[-(-p * n // 100) - 1], p, n


def _arrays(m: model.Model) -> list[np.ndarray]:
    return [p.data for _, p in m.named_parameters()] + [a for _, a in m.named_state()]


def _restore(m: model.Model, snapshot: list[np.ndarray]) -> None:
    params = m.named_parameters()
    for (_, p), a in zip(params, snapshot):
        p.assign(a.copy())
    for (_, a), s in zip(m.named_state(), snapshot[len(params):]):
        a[...] = s


def _digest(m: model.Model) -> str:
    h = hashlib.sha256()
    for a in _arrays(m):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _config(variant: str, size: Size) -> model.ModelConfig:
    return model.ModelConfig(variant=variant, classes=CLASSES, frames=size.frames,
                             channels=size.channels, ism_channels=size.ism_channels)


class Workload:
    """Shared state of one workload run; subclasses define set-up and units."""

    unit_kind = ""   # unit the per-layer metrics are normalised by
    op_kind = ""     # unit whose durations give op_ms_mean and op_ms_tail
    item = ""
    expected: tuple = ()

    def __init__(self, variant, seed: int, size: Size, scratch: str, checks: Checks):
        self.seed, self.size = seed, size
        self.scratch, self.checks = scratch, checks
        self.info: list[str] = []
        self.macs_per_sample = 0

    def setup(self) -> None:
        raise NotImplementedError

    def check_setup(self) -> None:
        """Checks on the set-up state, made outside every timed region."""

    def unit(self, index: int, traced: bool):
        """Run one unit; return (unit records, items done, unit seconds)."""
        raise NotImplementedError

    def named(self, base: dict) -> list:
        """The workload's end-to-end figures under their own names: (name, value, unit, note)."""
        return []

    def close(self) -> None:
        """Undo any hook the workload installed."""

    def _synth(self, per_class: int) -> data.Dataset:
        ds = data.synth_generate(CLASSES, per_class, self.size.frames, topology=TOPOLOGY,
                                 seed=self.seed)
        path = os.path.join(self.scratch, "data.json")
        data.save_dataset(ds, path)
        return data.load_dataset(path)


_MODEL_LAYERS = (
    "fwd:conv1x1", "fwd:temporal_conv", "fwd:matmul", "fwd:mul", "fwd:add", "fwd:relu",
    "fwd:expand", "fwd:pair_avg_time", "fwd:transpose", "fwd:concat_channels",
    "gcn.gcn_block", "gcn.spatial_graph_conv", "gcn.batch_normalize",
    "pooling.correlation", "pooling.spatial_pool", "pooling.st_pool",
    "blocks.information_supplement", "model.Model.forward", "model.build_model",
    "data.synth_generate", "data.save_dataset", "data.load_dataset", "data.to_arrays")
_VARIANT_LAYERS = {
    "light": ("blocks.classifier_head",),
    "heavy": ("blocks.cross_fusion_block", "blocks.cross_fusion_split",
              "blocks.fuse_branches", "blocks.global_average"),
}


class TrainWorkload(Workload):
    unit_kind = op_kind = "step"
    item = "training runs"

    def __init__(self, variant, seed, size, scratch, checks):
        super().__init__(variant, seed, size, scratch, checks)
        self.config = _config(variant, size)
        self.macs_per_sample = count_flops(self.config).total
        self.expected = _MODEL_LAYERS + _VARIANT_LAYERS[variant] + (
            "fwd:batch_norm", "fwd:cross_entropy", "bwd:conv1x1", "bwd:temporal_conv",
            "bwd:batch_norm", "tensor.gradients", "train.train_loop",
            "train.sgd_nesterov_step", "train.random_rotate")
        self.train_config = train.TrainConfig(
            epochs=size.epochs, warmup=size.epochs, decay_steps=(), batch_size=BATCH_TRAIN,
            seed=seed, augment=True, early_stop_train_acc=None)
        self.reference = None
        # Step boundaries: a time stamp as each optimizer update returns.
        self.stamps: list[float] = []
        self._sgd = train.sgd_nesterov_step

        def stamped(*args, **kwargs):
            out = self._sgd(*args, **kwargs)
            self.stamps.append(time.perf_counter())
            return out

        train.sgd_nesterov_step = stamped

    def close(self):
        train.sgd_nesterov_step = self._sgd

    def setup(self):
        self.dataset = self._synth(BATCH_TRAIN // CLASSES)
        self.model = model.build_model(self.config, seed=self.seed)
        self.initial = [a.copy() for a in _arrays(self.model)]
        train.train_loop(self.model, self.dataset, replace(self.train_config, epochs=1, warmup=1))
        _restore(self.model, self.initial)

    def unit(self, index, traced):
        _restore(self.model, self.initial)
        self.stamps.clear()
        start = time.perf_counter()
        rows = train.train_loop(self.model, self.dataset, self.train_config)
        end = time.perf_counter()
        units, prev = [], start
        for k, stamp in enumerate(self.stamps):
            units.append(["step", index * len(rows) + k, prev, stamp, traced])
            prev = stamp
        losses = [r.train_loss for r in rows]
        # The zero-initialised head makes every initial logit 0: loss = ln(classes).
        self.checks.expect(abs(losses[0] - math.log(CLASSES))
                           <= 4 * np.finfo(np.float32).eps * math.log(CLASSES),
                           f"run {index}: first loss {losses[0]!r} != ln({CLASSES})")
        self.checks.expect(all(math.isfinite(v) for v in losses),
                           f"run {index}: non-finite loss in {losses}")
        outcome = (_digest(self.model), losses[-1])
        if self.reference is None:
            self.reference = outcome
            self.info.append(f"train_loss_end {losses[-1]!r} (final epoch mean, "
                             f"deterministic per seed); parameter digest {outcome[0]}")
        else:
            self.checks.expect(outcome == self.reference,
                               f"run {index}: digest/loss {outcome} != first run {self.reference}")
        return units, BATCH_TRAIN * len(self.stamps), end - start

    def named(self, base):
        return [(name, base[m][0], unit, base[m][1]) for name, m, unit in (
            ("train_samples_per_s", "items_per_s", "samples/s"),
            ("train_step_ms_p50", "op_ms_p50", "ms"),
            ("train_step_ms_tail", "op_ms_tail", "ms"))]


class InferWorkload(Workload):
    """Light and heavy models side by side, as two streams scored for one caller."""

    unit_kind = "pass"
    op_kind = "request"
    item = "pass pairs"
    variants = ("light", "heavy")
    expected = _MODEL_LAYERS + _VARIANT_LAYERS["light"] + _VARIANT_LAYERS["heavy"] + (
        "fwd:channel_affine", "model.save_checkpoint", "model.load_checkpoint",
        "train.predict_scores")

    def __init__(self, variant, seed, size, scratch, checks):
        super().__init__(variant, seed, size, scratch, checks)
        self.configs = {v: _config(v, size) for v in self.variants}
        self.macs_per_sample = sum(count_flops(c).total for c in self.configs.values())
        # Untraced seconds per (variant, "pass" or "b1"), for the per-model figures.
        self.times = {(v, k): [] for v in self.variants for k in ("pass", "b1")}

    def _perturb(self, m: model.Model, seed: int) -> None:
        """Seeded non-zero head and running moments; a fresh head gives all-zero logits."""
        rng = np.random.default_rng(seed)
        m.head.w.assign(rng.normal(0.0, 0.5, m.head.w.shape))
        m.head.b.assign(rng.normal(0.0, 0.1, m.head.b.shape))
        for name, arr in m.named_state():
            if name.endswith("running_var"):
                arr[...] = rng.uniform(0.5, 2.0, arr.shape)
            else:
                arr[...] = rng.normal(0.0, 0.1, arr.shape)

    def setup(self):
        x, _, _ = data.to_arrays(self._synth(BATCH_EVAL // CLASSES), dtype=np.float32)
        self.x, self.built, self.models, self.reference = x, {}, {}, {}
        for k, v in enumerate(self.variants):
            built = model.build_model(self.configs[v], seed=self.seed)
            self._perturb(built, self.seed + 1 + k)
            path = os.path.join(self.scratch, f"{v}.ckpt")
            model.save_checkpoint(built, path)
            loaded = model.load_checkpoint(path)
            self.reference[v] = loaded.forward(x).data  # warm-up and reference logits
            for i in range(4):
                loaded.forward(x[i:i + 1])
            self.built[v], self.models[v] = built, loaded

    def check_setup(self):
        self.scores = {}
        for v in self.variants:
            ref, built = self.reference[v], self.built[v]
            self.checks.expect(np.ptp(ref) > 0, f"{v}: reference logits are constant")
            self.checks.expect(np.array_equal(built.forward(self.x).data, ref),
                               f"{v}: loaded checkpoint logits differ from the in-memory model")
            m64 = model.build_model(replace(self.configs[v], dtype="f64"), seed=self.seed)
            for (_, p64), (_, p) in zip(m64.named_parameters(), built.named_parameters()):
                p64.assign(p.data.astype(np.float64))
            for (_, s64), (_, s) in zip(m64.named_state(), built.named_state()):
                s64[...] = s
            want = m64.forward(self.x[:F64_SUBSET].astype(np.float64)).data
            err = float(np.max(np.abs(ref[:F64_SUBSET] - want) / (1.0 + np.abs(want))))
            self.checks.expect(err <= F64_TOL, f"{v}: f32 logits off the f64 copy by {err:.3g}")
            self.info.append(f"{v}: f32 vs f64 logits on {F64_SUBSET} samples: worst "
                             f"{err:.3g} (tolerance {F64_TOL:g} x (1 + |f64|))")
            self.scores[v] = tensor.softmax(tensor.Tensor(ref)).data.astype(np.float64)

    def _timed(self, v, kind, traced, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        if not traced:
            self.times[(v, kind)].append(t1 - t0)
        return out

    def unit(self, index, traced):
        start = time.perf_counter()
        for v in self.variants:
            scores = self._timed(v, "pass", traced, train.predict_scores, self.models[v],
                                 self.x, BATCH_EVAL)
            self.checks.expect(np.allclose(scores, self.scores[v], rtol=0.0, atol=SCORE_TOL),
                               f"{v} pass {index}: scores differ from the set-up reference")
        end = time.perf_counter()
        units = [["pass", index, start, end, traced]]
        for j in range(B1_PER_UNIT):
            i = (index * B1_PER_UNIT + j) % len(self.x)
            t0 = time.perf_counter()
            for v in self.variants:
                logits = self._timed(v, "b1", traced, self.models[v].forward,
                                     self.x[i:i + 1]).data[0]
                ref = self.reference[v][i]
                self.checks.expect(np.all(np.abs(logits - ref) <= B1_TOL * (1.0 + np.abs(ref))),
                                   f"{v} request {i}: batch-1 logits differ from batch-64")
            units.append(["request", index * B1_PER_UNIT + j, t0, time.perf_counter(), traced])
        return units, len(self.x), end - start

    def named(self, base):
        out = []
        for v in self.variants:
            passes, b1 = self.times[(v, "pass")], self.times[(v, "b1")]
            value, pct, n = tail(b1)
            out += [(f"eval_samples_per_s_{v}", len(self.x) * len(passes) / sum(passes),
                     "samples/s", f"n={len(passes)} batch-64 passes"),
                    (f"latency_b1_ms_p50_{v}", 1e3 * statistics.median(b1), "ms",
                     f"n={n} requests"),
                    (f"latency_b1_ms_tail_{v}", 1e3 * value, "ms", f"p{pct} n={n} requests")]
        return out


class GradcheckWorkload(Workload):
    unit_kind = op_kind = "run"
    item = "run_all calls"
    expected = tuple(f"fwd:{op}" for op in (
        "conv1x1", "temporal_conv", "matmul", "batch_norm", "channel_affine", "mul", "add",
        "relu", "expand", "pair_avg_time", "transpose", "concat_channels")) + (
        "bwd:conv1x1", "bwd:temporal_conv", "bwd:batch_norm", "tensor.gradients",
        "gcn.gcn_block", "pooling.correlation", "pooling.st_pool",
        "blocks.information_supplement", "blocks.cross_fusion_block",
        "blocks.classifier_head", "gradcheck.run_all", "gradcheck.check_gradients")

    def __init__(self, variant, seed, size, scratch, checks):
        super().__init__(variant, seed, size, scratch, checks)
        self.worst = 0.0

    def setup(self):
        gradcheck.run_all(seeds=[self.seed % 10])  # warm-up over the whole registry

    def unit(self, index, traced):
        fd_seed = (self.seed + index) % 10
        start = time.perf_counter()
        results = gradcheck.run_all(seeds=[fd_seed])
        end = time.perf_counter()
        for name, err, ok in results:
            self.checks.expect(ok, f"gradcheck {name} at seed {fd_seed}: {err:.3g} > 1e-4")
            self.worst = max(self.worst, err)
        self.info = [f"gradcheck worst relative error {self.worst:.3g} (bound 1e-4; "
                     f"information only)"]
        return [["run", index, start, end, traced]], len(results), end - start

    def named(self, base):
        return [("gradcheck_s", base["op_ms_p50"][0] / 1e3, "s", base["op_ms_p50"][1])]


WORKLOADS = {
    "train-light": (TrainWorkload, "light"),
    "train-heavy": (TrainWorkload, "heavy"),
    "infer": (InferWorkload, None),
    "gradcheck": (GradcheckWorkload, None),
}


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> str:
    """Thread count reported by the OpenBLAS bundled with numpy, if it exposes one."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown") + " (requested)"


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = "unknown"
    with contextlib.suppress(TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": _blas_threads(), "nproc": os.cpu_count(), "cpu": _cpu_model()}


# ---------------------------------------------------------------------------
# one workload run


def _e2e(w: Workload, units, rates, setup_s, traced: bool) -> dict:
    ops = [u[3] - u[2] for u in units if u[0] == w.op_kind and u[4] == traced]
    chosen = [r for r in rates if r[2] == traced]
    value, pct, n = tail(ops)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup_s), f"n={len(setup_s)} set-ups"),
        "peak_rss_mb": (rss, "whole process"),
        "items_per_s": (sum(r[0] for r in chosen) / sum(r[1] for r in chosen),
                        f"n={len(chosen)} {w.item}"),
        "op_ms_mean": (1e3 * statistics.mean(ops), f"n={n} {w.op_kind}"),
        "op_ms_p50": (1e3 * statistics.median(ops), f"n={n} {w.op_kind}"),
        "op_ms_tail": (1e3 * value, f"p{pct} n={n} {w.op_kind}"),
    }


def _measure(w: Workload, tracer: Tracer | None, seconds: float):
    """Set up `SETUPS` times (plus one traced set-up), then run units until `seconds`
    have passed; with a tracer, odd-numbered units run traced."""
    units, rates, setup_s, traced_setup = [], [], [], None
    for i in range(SETUPS + (tracer is not None)):
        traced = i == SETUPS
        with tracer.installed() if traced else contextlib.nullcontext():
            start = time.perf_counter()
            w.setup()
            end = time.perf_counter()
        units.append(["setup", i, start, end, traced])
        if traced:
            traced_setup = end - start
        else:
            setup_s.append(end - start)
    w.check_setup()
    deadline = time.perf_counter() + seconds
    index = 0
    # at least one unit, and one of each kind when tracing alternates
    while time.perf_counter() < deadline or index < (2 if tracer else 1):
        traced = tracer is not None and index % 2 == 1
        with tracer.installed() if traced else contextlib.nullcontext():
            new_units, items, elapsed = w.unit(index, traced)
        units += new_units
        rates.append((items, elapsed, traced))
        index += 1
    return units, rates, setup_s, traced_setup


def _trace_report(w: Workload, tracer: Tracer, units, rates, base, traced_setup, checks,
                  out_path: str):
    """Per-layer metrics, overhead and attribution lines of a traced run."""
    counts = span_counts(tracer)
    for layer in w.expected:
        checks.expect(counts.get(layer, 0) > 0, f"traced layer {layer} recorded no calls")
    untraced = [u[3] - u[2] for u in units if u[0] == w.unit_kind and not u[4]]
    layers = layer_metrics(tracer, units, w.unit_kind, w.macs_per_sample, untraced)
    traced_e2e = _e2e(w, units, rates, [traced_setup], True)
    lines = ["trace overhead (traced - untraced, units alternate in this process; "
             "base = untraced):"]
    for metric, unit, _, _ in E2E_METRICS:
        if metric == "peak_rss_mb":
            lines.append("overhead peak_rss_mb n/a: one process; compare with an untraced run")
            continue
        b, t = base[metric][0], traced_e2e[metric][0]
        lines.append(f"overhead {metric} {t - b:+.6g} {unit} on base {b:.6g} {unit} "
                     f"({(t - b) / b:+.1%})")
    fwd_share = layers["trace.forward_attributed_share"]
    unit_share = layers["trace.unit_attributed_share"]
    low = unit_share < ATTRIBUTED or 0 < fwd_share < ATTRIBUTED
    lines.append(f"attributed: {fwd_share:.3f} of Model.forward time (0 when not called) "
                 f"and {unit_share:.3f} of {w.unit_kind} time lie in traced child spans "
                 f"(expected >= {ATTRIBUTED})" + ("  WARNING: below" if low else ""))
    lines += [f"layer {m} {layers[m]:.6g} {u}" for m, u, _ in LAYER_METRICS]
    tracer.write(out_path, units)
    lines.append(f"spans {len(tracer.spans)} written to {out_path}")
    return lines, {m: {"value": layers[m], "unit": u} for m, u, _ in LAYER_METRICS}


def run(name: str, seed: int, seconds: float, trace: bool, toy: bool, out_dir: str) -> dict:
    """Set up, measure for `seconds`, check; return the result record."""
    load_before = os.getloadavg()
    env = environment()
    checks = Checks()
    cls, variant = WORKLOADS[name]
    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        w = cls(variant, seed, TOY if toy else PAPER, scratch, checks)
        try:
            units, rates, setup_s, traced_setup = _measure(w, tracer, seconds)
        finally:
            w.close()

    lines = [f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}"
             + (" toy" if toy else ""),
             "env " + " ".join(f"{k}={v}" for k, v in env.items())]
    base = _e2e(w, units, rates, setup_s, False)
    lines += [f"e2e {m} {base[m][0]:.6g} {unit} {base[m][1]}" for m, unit, _, _ in E2E_METRICS]
    lines += [f"e2e {name} {value:.6g} {unit} {note}"
              for name, value, unit, note in w.named(base)]
    metrics = {m: {"value": base[m][0], "unit": u} for m, u, _, _ in E2E_METRICS}
    if tracer is not None:
        more, metrics = _trace_report(w, tracer, units, rates, base, traced_setup, checks,
                                      os.path.join(out_dir, f"{name}.spans.json.gz"))
        lines += more

    load_after = os.getloadavg()
    busy = load_before[0] > (env["nproc"] or 1)
    w.info.append(f"load average before {load_before[0]:.2f} after {load_after[0]:.2f}"
                  + (f"  WARNING: started above {env['nproc']} cores" if busy else ""))
    failed = len(checks.failures)
    lines.append(f"e2e failed_share {failed / max(checks.attempted, 1):.6g} share "
                 f"n={checks.attempted} checks")
    lines += ["info " + s for s in w.info] + ["FAILED " + s for s in checks.failures[:20]]
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "toy": toy, "env": env, "load_before": load_before, "load_after": load_after,
            "busy_start": busy, "lines": lines, "failures": checks.failures,
            "summary": {"correct": failed == 0, "attempted": checks.attempted,
                        "failed": failed, "metrics": metrics}}
