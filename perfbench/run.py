"""Benchmark of skelpool: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-light --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Workloads: train-light, train-heavy, infer and gradcheck (see harness.py).
`all` runs each in its own process, one after another, and prints every
end-to-end metric, also under its per-workload names. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`. A result record (environment, load average, report lines)
and, when traced, the spans are written under `.perfbench_out/`.

BLAS runs on one thread. On a shared 2-core machine a second BLAS thread
moved the light train step by +-15% from run to run (one thread: +-3%) and
doubled its CPU time, so two threads would hide any change smaller than that.
skelpool is imported from `src/` of the checkout only; the benchmark exits
with code 2 when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("train-light", "train-heavy", "infer", "gradcheck")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="toy sizes (channels 8,16,32; 16 frames; one epoch) for smoke tests")
    return p.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process; print their reports and a combined summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        print()
        table += [f"{name:12s} {line[4:]}" for line in lines if line.startswith("e2e ")]
        child = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and child["correct"]
        summary["attempted"] += child["attempted"]
        summary["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print("summary")
    print("\n".join(table))
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "skelpool", "__init__.py")):
        print(f"error: no skelpool sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    # One BLAS thread, fixed before numpy loads (see the module docstring).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import harness  # noqa: E402  (needs the path and thread settings above)

    os.makedirs(OUT, exist_ok=True)
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.toy, OUT)
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-toy" if args.toy else "")
    with open(os.path.join(OUT, suffix + ".json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print("\n".join(result["lines"]))
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
