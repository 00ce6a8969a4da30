"""dmftsim benchmark: ``dmftsim pipeline`` as a closed loop with one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--workload-seed S]

Each pipeline run is a fresh child process (bench/child.py) on a config
generated from the workload and a workload seed (bench/workloads.py): the
one ``--seed`` selects from the workload's rotation of recorded, passing
seeds, or ``--workload-seed`` if given.  With
``--trace 0`` the loop runs pipelines one after another, as many as fit in
``--seconds`` at the mean duration so far (at least one), and reports the
end-to-end metrics; with ``--trace 1`` it runs
one untraced and one traced pipeline and reports the per-layer metrics.
Several set-up-only children measure setup_s.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the lines before
it are the same numbers for people, with units, sample counts and the
correctness verdict.  The spans of the last traced run are kept in
.bench_run/traces/ of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from tracer import SpanSummary  # noqa: E402
from workloads import WORKLOADS, workload_seed, write_config  # noqa: E402

SETUP_PROBES = 9
# One BLAS thread: on a shared 2-core machine two threads made repeats of one
# seed spread by about 3 % against about 1 % with one.  The thread count also
# changes artifact bytes, so it is part of the digest key.
BLAS_THREADS = "1"
RUN_BUDGET_S = 170.0        # the whole run, children included
REFERENCE = BENCH / "reference.json"
RTOL, ATOL = 1e-6, 1e-10    # reference scalars: rounding passes, pool size does not
STAGE_NAMES = ("spectral", "simulate", "dmft", "amp-check", "fixed-point", "compare")
LAYERS = ("config", "model", "spectral", "gd", "dmft", "fixed_point", "amp", "metrics", "cli")
MB = 2.0**20


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    """Outcome of one child process: its result file (None when it died
    without one), its CPU seconds, its peak RSS and the tail of its output."""

    result: dict | None
    cpu_s: float
    rss_mb: float
    exit_code: int
    log: str


def run_child(root: Path, env: dict, config: Path, out: Path, result: Path,
              deadline: float, trace: bool = False, setup_only: bool = False) -> Child:
    out.mkdir(parents=True, exist_ok=True)
    log_path = result.with_suffix(".log")
    cmd = [sys.executable, str(BENCH / "child.py"), "--config", str(config),
           "--out", str(out), "--result", str(result), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=root, env=env,
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = json.loads(result.read_text()) if result.exists() else None
    return Child(data, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, log_path.read_text()[-2000:])


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def tree_digest(directory: Path) -> dict:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")) + sorted((root / "configs").glob("*.ini")):
        h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else k, v, out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}.{i}", v, out)
    elif isinstance(obj, (bool, int, float)):
        out[prefix] = obj


def artifact_scalars(out: Path) -> dict:
    """The reference-checked scalars: every number in spectral.json and
    fixed_point.json, and the largest W2 in comparison.json."""
    scalars: dict = {}
    for name in ("spectral.json", "fixed_point.json"):
        if (out / name).exists():
            flat: dict = {}
            _flatten("", json.loads((out / name).read_text()), flat)
            scalars[name] = flat
    if (out / "comparison.json").exists():
        comp = json.loads((out / "comparison.json").read_text())
        scalars["comparison.json"] = {"w2_max": max(comp["w2_theta"] + comp["w2_eta"])}
    return scalars


def scalar_mismatches(got: dict, ref: dict) -> list[str]:
    """Entries of ``ref`` that ``got`` misses or does not match: floats
    within RTOL relative plus ATOL absolute, integers within one (an outer
    iteration count may move by one under rounding), flags exactly."""
    bad = []
    for fname, values in ref.items():
        for key, want in values.items():
            have = got.get(fname, {}).get(key)
            if have is None:
                ok = False
            elif isinstance(want, bool) or isinstance(have, bool):
                ok = have is want
            elif isinstance(want, int) and isinstance(have, int):
                ok = abs(have - want) <= 1
            else:
                ok = abs(have - want) <= RTOL * abs(want) + ATOL
            if not ok:
                bad.append(f"{fname}:{key} = {have!r}, reference {want!r}")
    return bad


def load_reference(workload: str, seed: int):
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def same_as_earlier_runs(store: Path, key: str, digest: dict) -> bool:
    """Compare ``digest`` with the one stored under ``key`` by an earlier run
    in this checkout, or store it if there is none."""
    data = json.loads(store.read_text()) if store.exists() else {}
    if key in data:
        return data[key] == digest
    data[key] = digest
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(data))
    os.replace(tmp, store)
    return True


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def high_percentile(values: list[float]) -> tuple[int, float]:
    """The highest percentile the sample count allows: p = floor(100 (1 -
    1/n)), leaving at least one sample above it, by nearest rank."""
    xs = sorted(values)
    n = len(xs)
    if n < 2:
        return 50, xs[0]
    p = math.floor(100 * (1 - 1 / n))
    return p, xs[max(0, math.ceil(p / 100 * n) - 1)]


def layer_metrics(spans: list[dict], extras: dict, stages: dict,
                  artifact_bytes: int, overhead_s: float) -> dict:
    """Per-layer metrics of one traced pipeline: name -> (value, unit)."""
    S = SpanSummary(spans)
    inc = S.inclusive

    def counter(stage: str, name: str) -> int:
        return stages.get(stage, {}).get("counters", {}).get(name, 0)

    mn_s = inc("spectral.build_Mn")
    run_s = inc("dmft.run_dmft")
    m = {
        "config.load_s": (inc("config.load_config"), "s"),
        "model.make_instance_s": (inc("model.make_instance"), "s"),
        "spectral.solve_lambda_star_s": (inc("spectral.solve_lambda_star"), "s"),
        "spectral.quad_evals": (S.calls("spectral.quad_eval"), "count"),
        "spectral.build_Mn_s": (mn_s, "s"),
        "spectral.build_Mn_gflops": (extras.get("build_Mn_flop", 0.0) / mn_s / 1e9
                                     if mn_s > 0 else 0.0, "GFLOP/s"),
        "spectral.top_two_eigs_s": (inc("spectral.top_two_eigs"), "s"),
        "gd.run_gd_s": (inc("gd.run_gd"), "s"),
        "gd.loss_value_s": (inc("gd.loss_value"), "s"),
        "dmft.run_s": (run_s, "s"),
        "dmft.step_eta_s": (inc("dmft.step_eta"), "s"),
        "dmft.step_theta_s": (inc("dmft.step_theta"), "s"),
        "dmft.tti_s": (inc("dmft.tti_diagnostics"), "s"),
        "dmft.reduce_s": (inc("dmft.fmean"), "s"),
        "dmft.reduce_calls": (S.calls("dmft.fmean"), "count"),
        "dmft.sample_s": (inc("dmft.IncrementalGaussian.add"), "s"),
        "dmft.sample_calls": (S.calls("dmft.IncrementalGaussian.add"), "count"),
        "dmft.loss_eval_s": (inc("dmft.loss_eval", parent="dmft.step_eta"), "s"),
        "dmft.response_s": (S.self_of("dmft.step_eta"), "s"),
        "dmft.theta_update_s": (S.self_of("dmft.step_theta"), "s"),
        "dmft.response_pool_mb": (extras.get("dmft_response_pool_bytes", 0.0) / MB, "MB"),
        "dmft.path_steps_per_s": (extras.get("dmft_path_steps", 0.0) / run_s
                                  if run_s > 0 else 0.0, "steps/s"),
        # the DMFT law is built lazily by whichever stage needs it first
        "dmft.jitter_escalations": (sum(counter(st, "jitter_escalations")
                                        for st in stages), "count"),
        "fixed_point.iterate_s": (inc("fixed_point.iterate_fixed_point"), "s"),
        "fixed_point.eta_solve_s": (inc("fixed_point._solve_eta_pool"), "s"),
        "fixed_point.R_theta_s": (inc("fixed_point.solve_R_theta"), "s"),
        "fixed_point.residuals_s": (inc("fixed_point.fixed_point_residuals"), "s"),
        "fixed_point.outer_iters": (extras.get("fixed_point_outer_iters", 0.0), "count"),
        "fixed_point.projections": (counter("fixed-point", "projections"), "count"),
        "fixed_point.multiroot_samples": (counter("fixed-point", "multiroot_samples"), "count"),
        "amp.run_s": (inc("amp.run_spectral_amp"), "s"),
        "amp.onsager_s": (inc("amp.onsager_from_dmft"), "s"),
        "amp.se_check_s": (inc("amp.se_check"), "s"),
        "metrics.compare_s": (inc("metrics.compare_empirical_vs_dmft"), "s"),
    }
    for stage in STAGE_NAMES:
        m[f"cli.stage.{stage}_s"] = (inc(f"cli.stage.{stage}"), "s")
    m["cli.write_s"] = (inc("cli.write"), "s")
    m["cli.artifact_mb"] = (artifact_bytes / MB, "MB")
    by_layer = S.self_by_layer()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (by_layer.get(layer, 0.0), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, default=None,
                        help="run this workload seed instead of the one --seed selects")
    args = parser.parse_args(argv)
    if args.workload_seed is None:
        args.workload_seed = workload_seed(args.workload, args.seed)
    deadline = time.perf_counter() + RUN_BUDGET_S

    root = BENCH.parent
    missing = [p for p in ("src/dmftsim/cli.py", "configs") if not (root / p).exists()]
    if missing:
        print(f"error: not a dmftsim checkout ({', '.join(missing)} missing in {root})",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    state_dir = root / ".bench_run"
    work = state_dir / f"{args.workload}-s{args.workload_seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "config.ini"
        write_config(root, args.workload, args.workload_seed, work / "out", config)

        probes = [run_child(root, env, config, work / "setup", work / f"setup{i}.json",
                            deadline, setup_only=True) for i in range(SETUP_PROBES)]
        setup = [c.result["setup_s"] for c in probes if c.result]
        if not setup:
            print(f"error: set-up child failed:\n{probes[0].log}", file=sys.stderr)
            return 3
        envinfo = dict(next(c.result["env"] for c in probes if c.result),
                       nproc=nproc, cpu=cpu_model())

        runs: list[tuple[bool, Child, Path]] = []
        t_loop = time.perf_counter()
        plan = [False, True] if args.trace else None
        while True:
            traced = plan[len(runs)] if plan else False
            out = work / f"out{len(runs)}"
            t_it = time.perf_counter()
            child = run_child(root, env, config, out, work / f"run{len(runs)}.json",
                              deadline, trace=traced)
            runs.append((traced, child, out))
            now = time.perf_counter()
            if plan and len(runs) == len(plan):
                break
            # stop unless one more pipeline of the mean length so far fits
            if not plan and (now - t_loop) * (len(runs) + 1) / len(runs) > args.seconds:
                break
            if now + (now - t_it) > deadline:
                break

        report = evaluate(root, state_dir, args, runs, setup)
        print(f"env python={envinfo['python']} numpy={envinfo['numpy']} "
              f"scipy={envinfo['scipy']} openblas={envinfo['openblas']} "
              f"nproc={nproc} OPENBLAS_NUM_THREADS={envinfo['blas_threads']} "
              f"cpu={envinfo['cpu']!r}")
        print(f"workload {args.workload} seed {args.seed} (workload seed "
              f"{args.workload_seed}): closed loop, 1 client, "
              f"{len(runs)} pipeline run(s), trace={args.trace}")
        for line in report["lines"]:
            print(line)
        print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                          "failed": report["failed"], "metrics": report["metrics"]}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def evaluate(root: Path, state_dir: Path, args, runs, setup: list[float]) -> dict:
    lines: list[str] = []
    attempted = failed = 0
    problems: list[str] = []
    digests = []
    for traced, child, out in runs:
        res = child.result
        tag = "traced" if traced else "untraced"
        if res is None:
            attempted += 1
            failed += 1
            problems.append(f"{tag} child exited {child.exit_code} without a result: "
                            f"{child.log.strip()[-300:]}")
            continue
        for name, st in res["stages"].items():
            attempted += 1
            counters = {k: v for k, v in st["counters"].items() if v}
            if not st["ok"]:
                failed += 1
                problems.append(f"stage {name} failed ({tag}): {st.get('error', 'check not ok')}")
            lines.append(f"stage {name:<12} {'ok' if st['ok'] else 'FAILED':<6} ({tag}) "
                         f"counters {json.dumps(counters, sort_keys=True)}"
                         + (f" error {st['error']}" if "error" in st else ""))
        if res["exit_code"] != 0:
            problems.append(f"pipeline exit code {res['exit_code']} ({tag})"
                            + (f"\n{res['traceback']}" if res.get("traceback") else ""))
        digests.append(tree_digest(out))
    attempted = max(attempted, 1)

    if any(d != digests[0] for d in digests[1:]):
        problems.append("artifact digests differ between repeats in this run")
    if digests:
        key = (f"{args.workload}/{args.workload_seed}/{source_digest(root)}"
               f"/blas{BLAS_THREADS}")
        if not same_as_earlier_runs(state_dir / "digests.json", key, digests[0]):
            problems.append("artifact digests differ from an earlier run of this seed")
    ref = load_reference(args.workload, args.workload_seed)
    last_out = runs[-1][2]
    if ref is None:
        lines.append(f"reference: none recorded for {args.workload} seed "
                     f"{args.workload_seed}; "
                     "scalar check not made")
    else:
        bad = scalar_mismatches(artifact_scalars(last_out), ref)
        problems.extend(f"reference mismatch {b}" for b in bad)
        lines.append(f"reference: {sum(len(v) for v in ref.values())} scalars checked, "
                     f"{len(bad)} mismatched")

    correct = not problems
    fail_ratio = failed / attempted
    lines.append(f"stage_fail_ratio {fail_ratio:.4f} ratio ({failed} of {attempted} stages)")
    lines.append(f"correct: {str(correct).lower()}"
                 + "".join(f"\n  - {p}" for p in problems))

    untraced = [c for t, c, _ in runs if not t and c.result]
    traced = [(c, out) for t, c, out in runs if t and c.result]
    metrics: dict = {}
    if args.trace:
        base = statistics.median(c.result["pipeline_s"] for c in untraced) if untraced else 0.0
        if traced:
            child, out = traced[-1]
            res = child.result
            traces = state_dir / "traces"
            traces.mkdir(exist_ok=True)
            (traces / f"{args.workload}-s{args.workload_seed}.json").write_text(
                json.dumps(res["spans"]))
            layer = layer_metrics(res["spans"], res.get("extras", {}), res["stages"],
                                  sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
                                  res["pipeline_s"] - base)
            lines.append(f"pipeline_s traced {res['pipeline_s']:.4f} s, untraced {base:.4f} s")
            S = SpanSummary(res["spans"])
            parts = sorted(S.breakdown("dmft.step_eta").items(), key=lambda kv: -kv[1])
            if parts and S.calls("dmft.step_eta"):
                lines.append("dmft.step_eta breakdown: " + ", ".join(
                    f"{k} {v:.3f} s" for k, v in parts))
            for name, (value, unit) in layer.items():
                metrics[name] = {"value": value, "unit": unit}
                lines.append(f"{name:<34} {value:.6g} {unit}")
        metrics["stage_fail_ratio"] = {"value": fail_ratio, "unit": "ratio"}
    else:
        series = {
            "pipeline_s": ([c.result["pipeline_s"] for c in untraced], "s"),
            "setup_s": (setup + [c.result["setup_s"] for c in untraced], "s"),
            "cpu_s": ([c.cpu_s for c in untraced], "s"),
            "peak_rss_mb": ([c.rss_mb for c in untraced], "MB"),
        }
        for name, (values, unit) in series.items():
            if not values:
                continue
            med = statistics.median(values)
            p, hi = high_percentile(values)
            metrics[name] = {"value": med, "unit": unit}
            lines.append(f"{name:<12} median {med:.4f} {unit}  p{p} {hi:.4f} {unit}  "
                         f"n={len(values)}")
    return {"lines": lines, "correct": correct, "attempted": attempted,
            "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
