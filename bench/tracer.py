"""In-memory span recorder around the public functions of every dmftsim
layer, installed from outside the package by monkeypatching.

A span is (name, start, end, parent, run).  The layer of a span is the part
of its name before the first dot.  Spans stay in memory until the child
process writes them out at the end of the run.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []     # [name, start, end, parent index]
        self._stack: list[int] = []
        self.extras: dict[str, float] = {}

    def wrap(self, name: str, fn, on_return=None):
        """Return ``fn`` recording one span per call; ``on_return(args,
        result, seconds)`` runs after the span closes."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, clock(), 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self._stack.pop()
            if on_return is not None:
                on_return(args, result, span[2] - span[1])
            return result
        return traced

    def patch(self, owner, attr: str, name: str, on_return=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_return))

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
                for n, s, e, p in self.spans]


def install(tracer: Tracer, cli) -> None:
    """Wrap the public functions of every layer where their callers look
    them up: the names ``cli`` imports directly, module attributes reached
    through ``cli``'s module aliases, methods, and ``Runner.STAGES``."""
    from dmftsim import amp, dmft, fixed_point, metrics, spectral

    t = tracer
    # config and model
    t.patch(cli, "load_config", "config.load_config")
    t.patch(cli, "make_instance", "model.make_instance")
    # spectral
    t.patch(cli, "solve_lambda_star", "spectral.solve_lambda_star")
    t.patch(cli, "spectral_estimator", "spectral.spectral_estimator")

    def mn_size(args, result, seconds):
        inst = args[0]
        t.extras["build_Mn_flop"] = t.extras.get("build_Mn_flop", 0.0) + float(inst.n) * inst.d**2
    t.patch(spectral, "build_Mn", "spectral.build_Mn", mn_size)
    t.patch(spectral, "top_two_eigs", "spectral.top_two_eigs")
    for attr in ("e_frac", "e_frac2", "e_g2frac", "e_g2frac2"):
        t.patch(spectral.EtaIntegrals, attr, "spectral.quad_eval")
    # gd
    t.patch(cli, "run_gd", "gd.run_gd")
    t.patch(cli, "loss_value", "gd.loss_value")
    t.patch(cli, "empirical_joint", "gd.empirical_joint")
    # dmft
    t.patch(dmft, "init_dmft", "dmft.init_dmft")

    def dmft_pools(args, result, seconds):
        state = args[0]
        pool = sum(a.nbytes for a in state.r_eta_ts.values())
        pool += sum(a.nbytes for a in state.r_eta_star + state.r_eta_dia + state.r_eta_dd)
        t.extras["dmft_response_pool_bytes"] = float(pool)
        t.extras["dmft_path_steps"] = float(state.K) * state.t_eta
    t.patch(dmft, "run_dmft", "dmft.run_dmft", dmft_pools)
    t.patch(dmft.DmftState, "step_eta", "dmft.step_eta")
    t.patch(dmft.DmftState, "step_theta", "dmft.step_theta")
    t.patch(dmft, "tti_diagnostics", "dmft.tti_diagnostics")
    t.patch(dmft, "fmean", "dmft.fmean")
    t.patch(dmft.IncrementalGaussian, "add", "dmft.IncrementalGaussian.add")
    state_init = dmft.DmftState.__init__

    def init_with_traced_loss(self, *args, **kwargs):
        state_init(self, *args, **kwargs)
        loss = self.loss
        self.loss = dataclasses.replace(
            loss, **{f: t.wrap("dmft.loss_eval", getattr(loss, f))
                     for f in ("ell", "d1ell", "d2ell")})
    dmft.DmftState.__init__ = init_with_traced_loss
    # fixed point
    t.patch(fixed_point, "warm_start_from_dmft", "fixed_point.warm_start_from_dmft")

    def outer_iters(args, result, seconds):
        t.extras["fixed_point_outer_iters"] = float(result.iterations)
    t.patch(fixed_point, "iterate_fixed_point", "fixed_point.iterate_fixed_point",
            outer_iters)
    t.patch(fixed_point, "_solve_eta_pool", "fixed_point._solve_eta_pool")
    t.patch(fixed_point, "solve_R_theta", "fixed_point.solve_R_theta")
    t.patch(fixed_point, "fixed_point_residuals", "fixed_point.fixed_point_residuals")
    # amp and metrics
    for attr in ("onsager_from_dmft", "run_spectral_amp", "verify_equivalence", "se_check"):
        t.patch(amp, attr, f"amp.{attr}")
    t.patch(metrics, "compare_empirical_vs_dmft", "metrics.compare_empirical_vs_dmft")
    # cli: writers, stages and the pipeline itself
    for attr in ("_write_json", "_write_matrix_csv", "_write_samples"):
        t.patch(cli, attr, "cli.write")
    for stage, fn in list(cli.Runner.STAGES.items()):
        cli.Runner.STAGES[stage] = t.wrap(f"cli.stage.{stage}", fn)
    t.patch(cli, "run_pipeline", "cli.run_pipeline")


# ---------------------------------------------------------------------------
# Aggregation, done by the harness on the written-out spans
# ---------------------------------------------------------------------------

class SpanSummary:
    """Inclusive time, self time and call counts per span name, with
    optional restriction to spans whose direct parent has a given name."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s["parent"] >= 0:
                child_time[s["parent"]] += s["end"] - s["start"]
        self.self_time = [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]

    def _parent_name(self, s: dict):
        return self.spans[s["parent"]]["name"] if s["parent"] >= 0 else None

    def inclusive(self, name: str, parent: str | None = None) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and (parent is None or self._parent_name(s) == parent))

    def self_of(self, name: str) -> float:
        return sum(st for s, st in zip(self.spans, self.self_time) if s["name"] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s, st in zip(self.spans, self.self_time):
            out[s["name"].split(".", 1)[0]] += st
        return dict(out)

    def roots_inclusive(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] < 0)

    def breakdown(self, name: str) -> dict[str, float]:
        """Time inside spans called ``name``: inclusive time of each direct
        child name, plus the self time under the key ``"self"``."""
        idx = {i for i, s in enumerate(self.spans) if s["name"] == name}
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] in idx:
                out[s["name"]] += s["end"] - s["start"]
        out["self"] = self.self_of(name)
        return dict(out)
