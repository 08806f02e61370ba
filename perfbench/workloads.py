"""The two workloads: their fixed inputs, one round of work, its checks.

A round runs the sampler on every dataset of the workload at a fixed
sweep count (``fit``), then turns the traces into answers the way
``sparsegmm fit`` and ``sparsegmm diagnose`` do (``post``), then checks
the answers (untimed).  Every round of a run repeats the same
operations on the same inputs, so a run's failed share does not depend
on how many rounds fit in it.

The program is always reached through module attributes
(``sparsegmm.gibbs.run_chain``, not a name bound at import), so a traced
run's wrappers see every call.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace

import sparsegmm.core as core
import sparsegmm.gibbs as gibbs
import sparsegmm.summarize as summarize
import sparsegmm.synthetic as synthetic

import checks


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    p: int
    n: int
    s: int
    mean_scale: float
    ssl_mode: str
    n_chains: int
    n_burn: int
    n_keep: int
    # Rounds of a traced run: enough for at least 100 sweeps, so that the
    # sweep time's 90th percentile has ten samples beyond it.
    trace_rounds: int
    # Data (and chain) seed, the same whatever --seed is: the sampler's
    # cost follows the path K takes, so data drawn from --seed would make
    # runs differ by their data, not by the program (see the README).
    data_seed: int
    workers: str | None = None
    # Start of the failure messages of a known fault in the program (see
    # the README); a run whose failures all carry it is still correct.
    known_fault: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("large_joint", "one", p=1000, n=1000, s=6, mean_scale=1.5,
                 ssl_mode="joint", n_chains=1, n_burn=10, n_keep=30, trace_rounds=3,
                 data_seed=1001),
        Workload("chains_column", "two", p=400, n=200, s=8, mean_scale=1.0,
                 ssl_mode="column", n_chains=4, n_burn=15, n_keep=35, trace_rounds=1,
                 data_seed=1, workers="2", known_fault="centre error"),
    )
}

# Post-processing takes 0.2-0.5 s, short enough for the host's
# noise to move one sample by half; an untraced round times it this many
# times.  A traced round runs it once, so that its per-layer figures are
# those of one post-processing.
POST_REPEATS = 5

# Sizes of the self-check's tiny runs.
TINY = {
    "large_joint": dict(p=60, n=120, mean_scale=3.0, n_burn=5, n_keep=15),
    "chains_column": dict(p=40, n=60, n_burn=3, n_keep=7),
}


def is_known_fault(w: Workload, fails: list[str]) -> bool:
    return w.known_fault is not None and all(m.startswith(w.known_fault) for m in fails)


@dataclass
class Inputs:
    data: object
    z_true: object
    mu_true: object
    seed: int


def generate_inputs(w: Workload) -> Inputs:
    spec = synthetic.ScenarioSpec(
        scenario=w.scenario, p=w.p, n=w.n, s=w.s, mean_scale=w.mean_scale, seed=w.data_seed
    )
    data, z_true, mu_true = synthetic.generate(spec)
    return Inputs(data, z_true, mu_true, w.data_seed)


@dataclass
class RoundResult:
    fit_s: float
    post_times: list[float]  # each repeat of the post-processing
    ops: list[tuple[str, list[str]]]  # (operation, failure messages)
    notes: list[str]


def _estimate(snapshots, data):
    return summarize.point_estimates(summarize.align_labels(snapshots, data))


def run_round(w: Workload, x: Inputs, tracer=None) -> RoundResult:
    span = tracer.span if tracer else (lambda name: nullcontext())
    if w.workers is not None:
        os.environ["SPARSEGMM_WORKERS"] = w.workers
    hyper = core.default_hyperparams(x.data.p, ssl_mode=w.ssl_mode)
    config = gibbs.RunConfig(n_burn=w.n_burn, n_keep=w.n_keep, n_chains=w.n_chains, seed=x.seed)
    if tracer:
        tracer.op = f"{w.name}/{x.seed}"

    t0 = time.perf_counter()
    with span("bench.fit"):
        if w.n_chains == 1:
            traces = [gibbs.run_chain(x.data, hyper, config)]
        else:
            traces = gibbs.run_chains(x.data, hyper, config)
    fit_s = time.perf_counter() - t0
    post_times = []
    for _ in range(1 if tracer else POST_REPEATS):
        t0 = time.perf_counter()
        with span("bench.post"):
            restored = [core.trace_from_ndjson(core.trace_to_ndjson(t)) for t in traces]
            pooled = [s for t in restored for s in t.snapshots]
            est = _estimate(pooled, x.data)
            report = summarize.psrf_report(restored, x.data) if len(traces) > 1 else None
        post_times.append(time.perf_counter() - t0)
    if tracer and len(restored) == 1:
        # psrf_report belongs to multi-chain post-processing only.  So
        # that its layer still reads a measured time here, the traced run
        # also gives it the chain's two halves as two chains; the calls
        # inside it are left out of the other layers.
        half = len(restored[0].snapshots) // 2
        halves = [replace(restored[0], snapshots=restored[0].snapshots[a:a + half])
                  for a in (0, half)]
        with span("summarize.psrf_report"), tracer.paused():
            summarize.psrf_report(halves, x.data)

    ops, notes = [], []
    label_checks = lambda e: checks.check_labels_and_support(e, x.z_true, x.mu_true)
    for t, r in zip(traces, restored):
        fails = checks.check_snapshots(t, hyper.k_max) + checks.check_round_trip(t, r)
        if len(traces) == 1:
            own = est
        else:
            with tracer.paused() if tracer else nullcontext():
                own = _estimate(r.snapshots, x.data)
        fails += label_checks(own) + checks.check_centres(own, x.z_true, x.mu_true, w.s)
        ops.append((f"data {x.seed} chain {t.meta.chain_id}", fails))
    if report is not None:
        ops.append((f"data {x.seed} pooled", label_checks(est) + checks.check_psrf(report)))
        err = checks.centre_error(est.mu_hat, x.mu_true)
        notes.append(f"data {x.seed} pooled: k_hat {est.k_hat}, centre error {err:.3f}")
    return RoundResult(fit_s, post_times, ops, notes)
