"""Record the reference scalars that run.py checks, into bench/reference.json.

    python3 bench/record_reference.py --workload NAME --seeds 0-19

Runs one untraced pipeline per seed with the same child and config as the
benchmark and stores ``artifact_scalars`` of its output.  Record only from a
commit whose numbers are trusted; existing entries for other seeds and
workloads are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import BLAS_THREADS, REFERENCE, artifact_scalars, run_child  # noqa: E402
from workloads import WORKLOADS, write_config  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-19")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    work = root / ".bench_run" / f"record-{os.getpid()}"
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    try:
        for seed in range(int(lo), int(hi or lo) + 1):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            write_config(root, args.workload, seed, work / "out", work / "config.ini")
            child = run_child(root, env, work / "config.ini", work / "out",
                              work / "result.json", time.perf_counter() + 600)
            status = {k: v["ok"] for k, v in (child.result or {}).get("stages", {}).items()}
            ref.setdefault(args.workload, {})[str(seed)] = artifact_scalars(work / "out")
            print(f"{args.workload} seed {seed}: stages {status}", flush=True)
            REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
