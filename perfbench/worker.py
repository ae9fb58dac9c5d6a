"""One benchmark workload in one process: set up, run operations, check each.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

perfbench/run.py starts this with BLAS/OpenMP pinned to one thread and reads
the JSON object it prints as its last line.  Operations run back to back in a
closed loop, at least two, until the next one would end after --seconds; the
first is a warm-up that run.py does not time.  With --trace 0 a
Calibrator samples machine speed right after set-up and between laps, and
set-up and every operation's times are kept as measured and scaled to the
reference speed.  With --trace 1 there
is no calibration; the operations alternate untraced and traced, per-layer
numbers come from the traced ones, and the untraced ones give trace.overhead.
"""

import time

STARTED = time.perf_counter()   # setup_s counts from here: imports plus inputs

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import vspc  # noqa: E402  (first, so VSPC_THREADS pins threads before numpy loads)
import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Calibrator, compare_fingerprint  # noqa: E402

FFT_REPEATS = 40
RHS_REPEATS = 5
STEP_REPEATS = 3
# the reference speed *_ref_* times are scaled to, as seconds per call of the
# Calibrator kernel at n: its fastest of 60 samples in an otherwise idle
# process on a 2 GHz Xeon vCPU
CAL_REFERENCE_S = {64: 1.7e-3, 128: 6.7e-3, 256: 3.1e-2}
SETUP_CAL_SAMPLES = 3   # calibration samples right after set-up, to scale setup_s


def _median(values):
    return statistics.median(values) if values else 0.0


def _timed(fn, repeats):
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(1e3 * (time.perf_counter() - started))
    return statistics.median(samples)


def fft2_ms(n):
    """The FFT-equivalent unit: one complex n×n np.fft.fft2, median of FFT_REPEATS."""
    a = np.random.default_rng(0).standard_normal((n, n)) + 0j
    np.fft.fft2(a)
    return _timed(lambda: np.fft.fft2(a), FFT_REPEATS)


def run_ops(workload, inputs, seconds, tracer, reference, seed):
    ops = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        if tracer is not None:
            tracer.active = traced
            tracer.trace_id = f"{workload.name}/seed{seed}/op{len(ops)}"
        started = time.perf_counter()
        try:
            outcome = workload.run(inputs)
        except Exception:   # a crashing operation is a failed one; keep measuring
            outcome = None
            problems = [traceback.format_exc()]
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.active = False
        if outcome is not None:
            try:
                fingerprint, problems = workload.check(inputs, outcome)
                if seed == 0:
                    problems += compare_fingerprint(fingerprint, reference)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"check raised {exc!r}"]
        op = {"traced": traced, "problems": problems, "elapsed_s": elapsed,
              "trace_id": tracer.trace_id if tracer is not None else None,
              "steps": None, "laps": None}
        if outcome is not None:
            op.update(timings(outcome, CAL_REFERENCE_S[workload.n]))
        ops.append(op)
        for problem in problems:
            print(f"{workload.name} seed {seed} op {len(ops) - 1}: {problem}", file=sys.stderr)
        estimate = _median([op["elapsed_s"] for op in ops])
        enough = len(ops) >= 2      # a warm-up and one more (untraced and traced with --trace 1)
        if enough and time.perf_counter() + estimate > deadline:
            return ops


def timings(outcome, reference_s):
    """One operation's laps and simulate time, as measured and scaled to reference speed.

    A lap's scaled time is its time × reference_s ÷ the calibration sample
    beside it (Calibrator); without a calibrator the two are equal.
    """
    laps = outcome.laps.laps
    cal = outcome.laps.cal or [reference_s] * len(laps)
    steps = max(outcome.steps, 1)
    return {
        "laps": laps,
        "cal_s": cal,
        "wall_s": sum(s for _, s in laps),
        "wall_ref_s": sum(s * reference_s / c for (_, s), c in zip(laps, cal)),
        "step_ms": 1e3 * sum(s for _, s in outcome.simulate) / steps,
        "step_ref_ms": 1e3 * sum(s * reference_s / cal[i] for i, s in outcome.simulate) / steps,
        "steps": outcome.steps,
        "particle_steps": outcome.data.get("particle_steps"),
    }


def lower_envelope(runs):
    """Per lap name: the sum over lap positions of each lap's fastest time in `runs`.

    `runs` holds one [(name, seconds)] list per operation.  Contention from
    other tenants of the machine only ever slows a lap, mostly in bursts of
    seconds, so the fastest of a lap's repeats is the steadiest estimate of
    its cost; the laps of an operation add up to its wall time,
    so the envelope summed over names is an operation's wall time with every
    lap at its fastest.
    """
    laps = [run for run in runs if run]
    if not laps:
        return {}
    if len({tuple(name for name, _ in run) for run in laps}) != 1:
        raise SystemExit("operations of one run made different call sequences")
    envelope = {}
    for position in zip(*laps):
        name = position[0][0]
        envelope[name] = envelope.get(name, 0.0) + min(seconds for _, seconds in position)
    return envelope


def layer_metrics(workload, inputs, ops, tracer):
    """Per-layer metrics: medians over traced operations of per-op values."""
    n = workload.n
    unit = fft2_ms(n)
    cfg, state = inputs["cfg"], inputs["state"]
    rhs_ms = _timed(lambda: vspc.solver.rhs(state, cfg), RHS_REPEATS)
    dt = min(cfg.dt_max, vspc.solver.adaptive_dt(state, cfg))
    step_ms = _timed(lambda: vspc.solver.step(state, dt, cfg), STEP_REPEATS)
    setup = tracer.summary("setup")
    plain = [op for op in ops if not op["traced"] and op["steps"] is not None]
    traced = [op for op in ops if op["traced"] and op["steps"] is not None]
    if not traced:
        raise SystemExit("no traced operation completed")

    def per_op(op):
        s = tracer.summary(op["trace_id"])
        op_ms = 1e3 * op["wall_s"]

        def calls(name):
            return s[name]["calls"]

        def per_call(name, key="ms"):
            return s[name][key] / s[name]["calls"] if s[name]["calls"] else 0.0

        def share(*names):
            return sum(s[name]["ms"] for name in names) / op_ms

        forcing_t = tracer.values(op["trace_id"], "exact.forcing", "t")
        m = {
            "fields.write_snapshot.calls": calls("fields.write_snapshot"),
            "fields.write_snapshot.ms": per_call("fields.write_snapshot"),
            "fields.write_snapshot.bytes": per_call("fields.write_snapshot", "bytes"),
            "fields.write_snapshot.share": share("fields.write_snapshot"),
            "fields.read_snapshot.ms": per_call("fields.read_snapshot"),
            "solver.simulate.self_ms_per_step":
                s["solver.simulate"]["self_ms"] / max(op["steps"], 1),
            "solver.adaptive_dt.calls": calls("solver.adaptive_dt"),
            "solver.adaptive_dt.ms": per_call("solver.adaptive_dt"),
            "solver.adaptive_dt.share": share("solver.adaptive_dt"),
            "solver.steps": op["steps"],
            "diagnostics.record.calls": calls("diagnostics.record"),
            "diagnostics.record.ms": per_call("diagnostics.record"),
            "diagnostics.record.share": share("diagnostics.record"),
            "diagnostics.certificate_bundle.ms": per_call("diagnostics.certificate_bundle"),
            "diagnostics.write_records_csv.ms": per_call("diagnostics.write_records_csv"),
            "diagnostics.read_records_csv.ms": per_call("diagnostics.read_records_csv"),
            "flowmap.compare.ms": per_call("flowmap.compare"),
            "exact.forcing.calls": calls("exact.forcing"),
            "exact.forcing.self_ms": per_call("exact.forcing", "self_ms"),
            "exact.forcing.distinct_t_ratio":
                len(set(forcing_t)) / len(forcing_t) if forcing_t else 0.0,
            "exact.forcing.share": share("exact.forcing"),
            "cli.parse_run_config.ms": per_call("cli.parse_run_config"),
            "cli.run.self_ms": s["cli.run"]["self_ms"],
            "cli.criterion_report.ms": per_call("cli.criterion_report"),
        }
        for method in ("spectral", "bicubic"):
            add, sample = f"flowmap.add.{method}", f"flowmap.sample.{method}"
            m[f"{add}.calls"] = calls(add)
            m[f"{add}.ms"] = per_call(add)
            m[f"{sample}.calls"] = calls(sample)
            m[f"{sample}.points"] = s[sample]["points"]
            m[f"{sample}.ms"] = per_call(sample)
            m[f"flowmap.evolve_jacobian.{method}.ms"] = per_call(
                f"flowmap.evolve_jacobian.{method}")
            m[f"flowmap.sampler.{method}.share"] = share(add, sample)
        return m

    rows = [per_op(op) for op in traced]
    metrics = {key: _median([row[key] for row in rows]) for key in rows[0]}
    for name in ("solver.adaptive_dt", "diagnostics.record"):
        metrics[f"{name}.fft_eq"] = metrics[f"{name}.ms"] / unit
    envelope = lower_envelope([op["laps"] for op in plain])
    particle_steps = next((op["particle_steps"] for op in plain if op["particle_steps"]), 0)
    for method in ("spectral", "bicubic"):
        lap = envelope.get(f"particles.{method}")
        metrics[f"flowmap.particle_steps_per_s.{method}"] = (
            particle_steps / lap if lap else 0.0)
    metrics.update({
        "fields.fft2_ms": unit,
        "solver.rhs.ms": rhs_ms, "solver.rhs.fft_eq": rhs_ms / unit,
        "solver.step.ms": step_ms, "solver.step.fft_eq": step_ms / unit,
        "solver.state_bytes": 6 * n * n * 16,
        "exact.manufactured.ms": setup["exact.manufactured"]["ms"],
        "trace.overhead": _median([op["wall_s"] for op in traced])
        / _median([op["wall_s"] for op in plain]) - 1.0,
    })
    return metrics


def environment(workload):
    """Versions, FFT backend, cores, caches and computed working-set bytes."""
    import importlib.util
    import subprocess

    import scipy

    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    state_bytes = 6 * workload.n ** 2 * 16
    pocketfft = importlib.util.find_spec("numpy.fft._pocketfft") is not None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fft_backend": "numpy.fft (pocketfft)" if pocketfft else "numpy.fft",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        # computed from array sizes, not measured: the packed state, and it
        # plus the four RK4 stage slopes live at the end of a step
        "working_set_bytes_computed": {"packed_state": state_bytes,
                                       "rk4_stages": 5 * state_bytes},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, vspc)
        tracer.trace_id, tracer.active = "setup", True
    workdir = OUT / "work" / f"{workload.name}-{os.getpid()}"
    try:
        inputs = workload.setup(args.seed, workdir, tracer)
        setup_s = time.perf_counter() - STARTED
        setup = {"setup_s": setup_s}
        if tracer is not None:
            tracer.active = False
        else:                   # traced runs give per-layer numbers, which need no scaling
            inputs["calibrator"] = calibrator = Calibrator(workload.n)
            speed = _median([calibrator.sample() for _ in range(SETUP_CAL_SAMPLES)])
            setup["setup_ref_s"] = setup_s * CAL_REFERENCE_S[workload.n] / speed
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        reference = json.loads((HERE / "reference.json").read_text())[workload.name]
        ops = run_ops(workload, inputs, args.seconds, tracer, reference, args.seed)
        result = {"setup": setup, "ops": ops, "environment": environment(workload)}
        if tracer is not None:
            result["layers"] = layer_metrics(workload, inputs, ops, tracer)
            result["layer_samples"] = sum(1 for op in ops if op["traced"])
            spans = OUT / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            tracer.dump(spans / f"{workload.name}-seed{args.seed}.jsonl")
            tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
