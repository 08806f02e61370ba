"""Negative tests: each correctness check must reject a corrupted answer.

A tiny, well-separated dataset gives an estimate and a trace that pass
every check (the positive control); each corruption below must then be
rejected by the check named beside it.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import sparsegmm.core as core
import sparsegmm.gibbs as gibbs
import sparsegmm.summarize as summarize
import sparsegmm.synthetic as synthetic

import checks


def run() -> list[str]:
    """Return a message for every check that accepted a corrupted answer."""
    s = 6
    data, z_true, mu_true = synthetic.generate(
        synthetic.ScenarioSpec(scenario="one", p=30, n=60, s=s, mean_scale=3.0, seed=1)
    )
    hyper = core.default_hyperparams(data.p)
    trace = gibbs.run_chain(data, hyper, gibbs.RunConfig(n_burn=10, n_keep=30, seed=1))
    text = core.trace_to_ndjson(trace)
    est = summarize.point_estimates(summarize.align_labels(trace, data))

    def estimate_fails(e):
        return checks.check_labels_and_support(e, z_true, mu_true) + checks.check_centres(
            e, z_true, mu_true, s
        )

    problems = []
    control = (
        estimate_fails(est)
        + checks.check_snapshots(trace, hyper.k_max)
        + checks.check_round_trip(trace, core.trace_from_ndjson(text))
        + checks.check_psrf({"theta": 1.01, "k": 1.0})
    )
    if control:
        return [f"positive control failed: {control}"]

    lines = text.splitlines()
    altered = json.loads(lines[1])
    altered["theta"] = np.nextafter(altered["theta"], 1.0)  # one ulp
    lines[1] = json.dumps(altered, sort_keys=True)
    first = trace.snapshots[0]
    gap = replace(first, z=np.where(first.z == 1, first.k + 1, first.z))  # labels 2..K+1
    cases = {
        "permuted labels with unpermuted means": estimate_fails(replace(est, z_hat=est.z_hat % est.k_hat + 1)),
        "zeroed means": estimate_fails(replace(est, mu_hat=np.zeros_like(est.mu_hat))),
        "a dropped support feature": estimate_fails(replace(est, support_hat=est.support_hat[1:])),
        "shuffled labels": estimate_fails(
            replace(est, z_hat=np.random.default_rng(0).permutation(est.z_hat))
        ),
        "an altered trace line": checks.check_round_trip(
            trace, core.trace_from_ndjson("\n".join(lines) + "\n")
        ),
        "a snapshot with a label gap": checks.check_snapshots(
            replace(trace, snapshots=[gap] + trace.snapshots[1:]), hyper.k_max
        ),
        "a non-finite PSRF": checks.check_psrf({"theta": 1.0, "k": float("inf")}),
        "a PSRF table without k": checks.check_psrf({"theta": 1.0}),
    }
    for name, fails in cases.items():
        print(f"negative test, {name}: {'rejected: ' + fails[0] if fails else 'ACCEPTED'}")
        if not fails:
            problems.append(f"the checks accepted {name}")
    return problems
