"""Record the seed-0 fingerprints every benchmark run is checked against.

    VSPC_THREADS=1 python3 perfbench/record_reference.py

For each workload this runs one seed-0 operation and stores the per-channel
sup norms of the final state, the final DiagnosticsRecord and the certificate
verdicts in perfbench/reference.json.  The committed file was recorded from
the unoptimised seed code; re-record it only when a change is meant to alter
the trajectory, and say so.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402


def main():
    reference = {}
    for name, workload in WORKLOADS.items():
        workdir = HERE.parent / ".bench_out" / "work" / f"{name}-reference"
        try:
            inputs = workload.setup(0, workdir, None)
            fingerprint, problems = workload.check(inputs, workload.run(inputs))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if problems:
            raise SystemExit(f"{name}: seed-0 run fails its checks: {problems}")
        reference[name] = fingerprint
        print(f"{name}: recorded", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
