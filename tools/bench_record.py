"""Record the benchmark of this checkout in `BENCH_<pr>.json`.

Run from anywhere; it benchmarks the checkout it lies in:

    python3 tools/bench_record.py --pr <number>
    python3 tools/bench_record.py --pr 0 --toy --runs 1 --seconds 1 --out bench-toy.json

For each workload of `BENCHMARK.json` it runs `perfbench/run.py` as a
subprocess at seed 1, `--runs` times untraced and then once traced, one run
after another.
From each run it reads the JSON last line of its output and its record under
`.perfbench_out/`. The file it writes holds:

- `end_to_end`: per workload and metric, the median and the first and third
  quartiles over the untraced runs, with every value in run order;
- `per_layer`: per workload, the metrics of the traced run, which the harness
  reports as per-unit figures over its traced units, and
  `per_layer_comparable`, false when the traced layers cover less than 0.95
  of the unit time or of the `Model.forward` time (the harness then prints
  "WARNING: below"): such per-layer times must not be compared with others;
- `env`: the environment block of the first run (Python, numpy, BLAS, cores);
- `runs`: per run, the 1, 5 and 15 minute load averages before it and
  `busy`, the harness's flag for a run that started with a load average above
  the core count.

A run that fails, or reports a failed check, ends the recorder with exit code
1 before anything is written. Nothing else should run on the machine meanwhile.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
RECORDS = os.path.join(ROOT, ".perfbench_out")
SEED = 1  # one seed for every record, so that records compare
# The share of `Model.forward` time and of unit time that the traced layers must
# cover for their per-layer times to mean anything: `ATTRIBUTED` of
# perfbench/harness.py.
ATTRIBUTED = 0.95


def spread(values: list[float]) -> dict:
    """The median and quartiles of `values` (linear interpolation), and the values."""
    q1, median, q3 = (float(v) for v in np.percentile(values, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3, "values": list(values)}


def attributed(per_layer: dict) -> bool:
    """Whether the traced layers cover at least `ATTRIBUTED` of the unit time and
    of the `Model.forward` time (a share of 0: the workload calls no forward)."""
    unit = per_layer["trace.unit_attributed_share"]["value"]
    forward = per_layer["trace.forward_attributed_share"]["value"]
    return unit >= ATTRIBUTED and not 0 < forward < ATTRIBUTED


def summarize(untraced: list[dict], traced: dict) -> dict:
    """One workload's entry from its run records: `spread` of each end-to-end
    metric over the untraced runs, the traced run's per-layer metrics with
    whether they are `attributed` (`per_layer_comparable`), and each run's load
    averages and busy flag."""
    metrics = untraced[0]["summary"]["metrics"]
    per_layer = traced["summary"]["metrics"]
    return {
        "end_to_end": {name: {"unit": m["unit"],
                              **spread([r["summary"]["metrics"][name]["value"]
                                        for r in untraced])}
                       for name, m in metrics.items()},
        "per_layer": per_layer,
        "per_layer_comparable": attributed(per_layer),
        "runs": [{"trace": r["trace"], "load_before": r["load_before"],
                  "busy": r["busy_start"]} for r in untraced + [traced]],
    }


def _run(workload: str, seconds: float, trace: int, toy: bool) -> dict:
    """The record of one run of `perfbench/run.py`, with its summary line."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--toy"] if toy else [])
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with code {proc.returncode}:\n"
                           + proc.stderr)
    summary = json.loads(lines[-1])
    if summary["failed"]:
        raise RuntimeError(f"{' '.join(cmd)}: {summary['failed']} failed checks")
    name = f"{workload}-seed{SEED}-trace{trace}" + ("-toy" if toy else "")
    with open(os.path.join(RECORDS, name + ".json")) as fh:
        record = json.load(fh)
    return {**record, "summary": summary}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True, help="names BENCH_<pr>.json")
    p.add_argument("--runs", type=int, default=5, help="untraced runs per workload")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="seconds per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--toy", action="store_true", help="toy sizes, for a smoke test")
    p.add_argument("--out", help="output path (default: BENCH_<pr>.json at the root)")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be >= 1")
    doc = {"pr": args.pr, "seed": SEED, "seconds": args.seconds, "runs": args.runs,
           "toy": args.toy, "env": None, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            untraced = [_run(workload, args.seconds, 0, args.toy)
                        for _ in range(args.runs)]
            traced = _run(workload, args.seconds, 1, args.toy)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        doc["env"] = doc["env"] or untraced[0]["env"]
        doc["workloads"][workload] = summarize(untraced, traced)
        medians = ", ".join(f"{k} {v['median']:.4g}"
                            for k, v in doc["workloads"][workload]["end_to_end"].items())
        print(f"{workload}: {medians}", flush=True)
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
