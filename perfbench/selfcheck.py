"""Checks of the benchmark's own checker.  Exits non-zero on the first failure.

    VSPC_THREADS=1 python3 perfbench/selfcheck.py

* A seed-0 certify-64 operation matches perfbench/reference.json, and the same
  operation is counted as failed when the reference or the result is
  perturbed by 1e-9 relative, when a verdict flips, or when the
  criterion-report output differs from certificates.json.
* certify-64's simulate time is taken by the benchmark around the one
  simulate call the CLI makes, and lies within the CLI's own runtime_seconds.
* The lap envelope takes each lap's fastest repeat, and refuses operations
  whose call sequences differ.
* The Calibrator samples between laps, outside them; the first operation
  sets where segments end and later ones reuse it; scaled times are raw
  times × reference ÷ the sample beside each lap.
* A traced run completes when wrapped boundaries are never called (here the
  flowmap and exact ones, plus a wrap of an attribute that does not exist),
  and those layers read zero calls.
* The metric names the benchmark emits are exactly those in BENCHMARK.json,
  and layer_map.json maps every per-layer one.
* run.py refuses, without printing a result, in a directory that holds only
  BENCHMARK.json and perfbench/, and ends with an error when a worker overruns.
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Calibrator, Laps, Outcome, compare_fingerprint  # noqa: E402


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")
    print(f"ok  {message}")


def check_calibration():
    calibrator = Calibrator(64)

    def operation():
        started = time.perf_counter()
        laps = Laps(calibrator)
        for _ in range(6):
            time.sleep(0.05)
            laps.lap("sleep")
        return laps.finish(), time.perf_counter() - started

    (first, first_s), (second, _) = operation(), operation()
    expect(calibrator.plan == {4, 6} and len(first.cal) == len(second.cal) == 6
           and len(set(first.cal[:4])) == len(set(first.cal[4:])) == 1
           and len(set(second.cal[:4])) == len(set(second.cal[4:])) == 1,
           "segments of 0.2 s or more are set by the first operation and reused")
    laps_s = sum(s for _, s in first.laps)
    expect(laps_s + 3 * 0.02 <= first_s,
           "the three calibration samples of an operation lie outside its laps")
    got = worker.timings(Outcome(2, first, [(0, first.laps[0][1])], {}), 1e-3)
    expect(abs(got["wall_s"] - laps_s) < 1e-12
           and abs(got["wall_ref_s"] - sum(1e-3 * s / c for (_, s), c
                                           in zip(first.laps, first.cal))) < 1e-12
           and abs(got["step_ref_ms"] - 1e3 * 1e-3 * first.laps[0][1] / first.cal[0] / 2) < 1e-12,
           "scaled times are raw times x reference / the calibration sample beside each lap")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    workload = WORKLOADS["certify-64"]
    workdir = ROOT / ".bench_out" / "work" / "selfcheck"
    try:
        inputs = workload.setup(0, workdir, None)
        outcome = workload.run(inputs)
        got, problems = workload.check(inputs, outcome)
        ref = reference[workload.name]
        expect(not problems and not compare_fingerprint(got, ref),
               "seed-0 certify-64 passes its checks and matches the reference")
        calls = outcome.data["simulate_calls"]
        expect(len(calls) == 1 and calls[0][0] <= outcome.data["meta"]["runtime_seconds"]
               and sum(seconds for _, seconds in outcome.simulate) == calls[0][0]
               and len(outcome.simulate) == outcome.steps + 2,
               "certify-64 laps its one simulate call itself, per step, within the CLI's "
               "runtime_seconds")
        expect(worker.lower_envelope([[("a", 1.0), ("b", 5.0)], [("a", 2.0), ("b", 3.0)], None])
               == {"a": 1.0, "b": 3.0}, "the lap envelope sums each lap's fastest repeat")
        try:
            worker.lower_envelope([[("a", 1.0)], [("b", 1.0)]])
            refused = False
        except SystemExit:
            refused = True
        expect(refused, "the lap envelope refuses operations with different call sequences")
        check_calibration()

        bad_ref = copy.deepcopy(ref)
        bad_ref["sup"]["u1"] *= 1 + 1e-9
        expect(compare_fingerprint(got, bad_ref), "a reference perturbed by 1e-9 is caught")
        ops = worker.run_ops(workload, inputs, 0.1, None, bad_ref, 0)
        expect(all(op["problems"] for op in ops),
               "operations checked against that reference are counted as failed")
        bad_got = copy.deepcopy(got)
        bad_got["record"]["bkm"] *= 1 + 1e-9
        expect(compare_fingerprint(bad_got, ref), "a result perturbed by 1e-9 is caught")
        bad_got = copy.deepcopy(got)
        bad_got["verdicts"]["energy-identity"] = not bad_got["verdicts"]["energy-identity"]
        expect(compare_fingerprint(bad_got, ref), "a flipped verdict is caught")
        report = Path(inputs["report"])
        report.write_text(report.read_text().replace("true", "false", 1))
        expect(workload.check(inputs, outcome)[1],
               "a criterion-report that differs from certificates.json is caught")

        tracer = tracing.Tracer()
        tracing.install(tracer, worker.vspc)
        tracer.wrap(worker.vspc.fields, "no_such_boundary", "fields.no_such_boundary")
        try:
            ops = worker.run_ops(workload, inputs, 0.1, tracer, ref, 0)
            layers = worker.layer_metrics(workload, inputs, ops, tracer)
        finally:
            tracer.restore()
        expect(not any(op["problems"] for op in ops),
               "traced operations pass the same checks as untraced ones")
        expect(layers["flowmap.sample.spectral.calls"] == 0 and layers["exact.forcing.calls"] == 0
               and layers["diagnostics.record.calls"] > 0,
               "a traced run with boundaries never called completes; they read zero calls")
        layer_map = json.loads((HERE / "layer_map.json").read_text())
        expect(set(layers) == {m["name"] for m in spec["per_layer"]} == set(layer_map),
               "per-layer metric names match BENCHMARK.json and layer_map.json")
        fake = {"ops": 2 * [{"traced": False, "wall_ref_s": 1.0, "step_ref_ms": 1.0, "steps": 1}],
                "setup": {"setup_s": 1.0, "setup_ref_s": 1.0}, "peak_rss_mb": 1.0}
        expect(set(run.end_to_end(fake, [])) == {m["name"] for m in spec["end_to_end"]},
               "end-to-end metric names match BENCHMARK.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    margin = run.WORKER_MARGIN_S
    run.WORKER_MARGIN_S = 0
    try:
        run.main(["--workload", "certify-64", "--seed", "0", "--seconds", "0.05", "--trace", "1"])
        stopped = False
    except SystemExit as exc:
        stopped = "did not finish" in str(exc)
    finally:
        run.WORKER_MARGIN_S = margin
    expect(stopped, "a worker that overruns its time limit ends the run with an error")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "solve-256", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "run.py exits non-zero without a result when the sources are missing")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selfcheck passed")


if __name__ == "__main__":
    main()
