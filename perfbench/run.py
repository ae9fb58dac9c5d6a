"""vspc benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in its own
worker process (perfbench/worker.py) as a closed loop of one caller, with
BLAS/OpenMP pinned to one thread (VSPC_THREADS=1).  With --trace 0 the result
holds every end-to-end metric of BENCHMARK.json, with --trace 1 every
per-layer one; metric names and units are read from BENCHMARK.json.

On a shared two-vCPU virtual machine (Xeon, 2 GHz) other tenants slow the
benchmark by a factor that changes within a second and can hold for minutes;
the fastest repeat of a lap carries it too (solve-256 laps were up to 1.7
times slower for whole runs).  So the timed metrics are scaled to a fixed
reference speed: after every 0.2 s or more of laps the worker times a fixed
numpy kernel that mixes the program's kinds of work (workloads.Calibrator),
and each lap is scaled by the kernel's reference time over its time beside
the lap (worker.CAL_REFERENCE_S).  In two sets of ten seeds per workload the
middle-half spread of wall_ref_s across runs was 2-4% of the median, against
6-21% for the wall time as measured, and the medians of the two sets agreed
within 3.5%.
  wall_ref_s   an operation's wall time (the sum of its laps, calibration
               excluded), scaled; the median over the run's operations
               after the first, a warm-up that is checked but not timed (on
               flowmap-64 it ran 7% slower: the samplers grow the heap);
  step_ref_ms  simulate's wall time per accepted step, scaled; the median
               over the same operations;
  setup_s      set-up time (imports plus inputs), scaled by calibration
               samples taken right after it; the median of SETUP_PROBES
               set-up-only processes, half started before the measuring one
               and half after, and the measuring one (the fastest set-up as
               measured moved up to 23% between sets of ten runs; scaled,
               the medians of two sets agreed within 2%);
  peak_rss_mb  the measuring process's peak resident memory.
The times as measured are kept next to the scaled ones in the result record.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it list every metric with
its unit and sample count, the times as measured, fail_ratio, and the
environment; the full record, with every operation's laps and calibration
samples, is also written to .bench_out/results/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8
WARMUP_OPS = 1           # the first operation fills caches and the heap: checked, not timed
WORKER_MARGIN_S = 100    # a worker's allowance beyond --seconds: set-up, last operation, probes


def worker(args, *extra):
    env = dict(os.environ, VSPC_THREADS="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=args.seconds + WORKER_MARGIN_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker did not finish within {args.seconds + WORKER_MARGIN_S:g} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_record():
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def timed_ops(result):
    """Completed untraced operations after the warm-up (the run's first operation)."""
    return [op for op in result["ops"][WARMUP_OPS:]
            if not op["traced"] and op["steps"] is not None]


def end_to_end(result, probes):
    """Each end-to-end metric as (value, the samples it is taken from)."""
    plain = timed_ops(result)
    if not plain:
        raise SystemExit("no operation completed after the warm-up")
    setup = [probe["setup_ref_s"] for probe in probes + [result["setup"]]]
    wall = [op["wall_ref_s"] for op in plain]
    step = [op["step_ref_ms"] for op in plain]
    return {
        "wall_ref_s": (statistics.median(wall), wall),
        "step_ref_ms": (statistics.median(step), step),
        "setup_s": (statistics.median(setup), setup),
        "peak_rss_mb": (result["peak_rss_mb"], [result["peak_rss_mb"]]),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vspc" / "__init__.py").is_file():
        print(f"error: no vspc sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    def setup_probes(count):
        return [] if args.trace else [worker(args, "--setup-only") for _ in range(count)]

    probes = setup_probes(SETUP_PROBES // 2)
    result = worker(args)
    probes += setup_probes(SETUP_PROBES - SETUP_PROBES // 2)
    if args.trace:
        wanted = spec["per_layer"]
        taken = {name: (value, [value]) for name, value in result["layers"].items()}
        counts = dict.fromkeys(taken, result["layer_samples"])
    else:
        wanted = spec["end_to_end"]
        taken = end_to_end(result, probes)
        counts = {name: len(values) for name, (_, values) in taken.items()}
    metrics = {m["name"]: {"value": taken[m["name"]][0], "unit": m["unit"]} for m in wanted}
    samples = {m["name"]: taken[m["name"]][1] for m in wanted}

    attempted = len(result["ops"])
    failed = sum(1 for op in result["ops"] if op["problems"])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "metrics": metrics,
              "samples": samples, "ops": result["ops"],
              "problems": [p for op in result["ops"] for p in op["problems"]],
              "environment": {**result["environment"], **source_record()}}
    out = ROOT / ".bench_out" / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {attempted} operations, {failed} failed, "
          f"fail_ratio {failed / attempted:.3g}")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']:<8} "
              f"samples {counts[name]}")
    if not args.trace:
        measured = {"wall_s": ([op["wall_s"] for op in timed_ops(result)], "s"),
                    "step_ms": ([op["step_ms"] for op in timed_ops(result)], "ms"),
                    "setup_s": ([p["setup_s"] for p in probes + [result["setup"]]], "s")}
        for name, (values, unit) in measured.items():
            print(f"  {name + ' (as measured)':<44} {statistics.median(values):>14.6g} "
                  f"{unit:<8} samples {len(values)}")
    print("  environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
