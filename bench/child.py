"""One benchmark child: start-up, config load, and (unless --setup-only) one
``run_pipeline`` call, with per-stage warning counters and optional tracing.

Writes a JSON result file; the harness (run.py) measures CPU time and peak
RSS of this process from outside.

    python bench/child.py --config CFG --out DIR --result FILE --t0 T [--trace 0|1] [--setup-only]

``--t0`` is the harness's ``time.perf_counter()`` just before it started this
process; on Linux that clock is system-wide, so setup_s spans process start,
imports and the config load.
"""

import argparse
import json
import os
import re
import sys
import time
import traceback
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent

# (counter, message pattern, regex group holding the count, or None for one)
COUNTERS = (
    ("jitter_escalations", re.compile(r"escalated Cholesky jitter"), None),
    ("multiroot_samples", re.compile(r"multiple crossings on (\d+) of"), 1),
    ("projections", re.compile(r"lacked a pole-free root on (\d+) of"), 1),
    ("nonconverged", re.compile(r"did not converge"), None),
)


def count_warnings(caught) -> dict:
    counts = {name: 0 for name, _, _ in COUNTERS}
    counts["other_warnings"] = 0
    for w in caught:
        text = str(w.message)
        for name, pattern, group in COUNTERS:
            m = pattern.search(text)
            if m:
                counts[name] += int(m.group(group)) if group else 1
                break
        else:
            counts["other_warnings"] += 1
    return counts


def counted(name: str, fn, stages: dict):
    """Stage ``fn`` recording into ``stages[name]`` its ok flag, the
    exception it raised (re-raised, so the pipeline stops as it would
    without the benchmark) and counters of the warnings it emitted."""
    def stage(runner):
        record = stages[name] = {"ok": False}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = fn(runner)
                record["ok"] = bool(out["ok"])
                return out
            except Exception as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                record["counters"] = count_warnings(caught)
    return stage


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(BENCH.parent / "src"))
    from dmftsim import cli

    stages: dict = {}
    for name, fn in list(cli.Runner.STAGES.items()):
        cli.Runner.STAGES[name] = counted(name, fn, stages)
    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer(run_id=str(os.getpid()))
        install(tracer, cli)
    cfg = cli.load_config(args.config)
    result = {"setup_s": time.perf_counter() - args.t0}

    if args.setup_only:
        import numpy as np
        import scipy
        result["env"] = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        }
    else:
        t_start = time.perf_counter()
        try:
            result["exit_code"] = cli.run_pipeline(cfg, Path(args.out))
        except Exception:
            result["exit_code"] = None
            result["traceback"] = traceback.format_exc(limit=-3)
        result["pipeline_s"] = time.perf_counter() - t_start
        result["stages"] = stages
        if tracer is not None:
            result["spans"] = tracer.records()
            result["extras"] = tracer.extras
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
