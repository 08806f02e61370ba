#!/usr/bin/env python3
"""Print SHA-256 digests of fixed-seed sampler runs and of their summaries.

For every design the first digest covers the NDJSON traces.  Two versions
of the sampler that make the same random draws in the same order, with
the same arithmetic, print the same trace digests.  The traces keep the
dense means (``store_dense_mu``), so every coordinate of every kept mean
is covered, not only those on the support.

The second digest covers the post-processing of the traces read back
through ``trace_from_ndjson``, the reader ``diagnose`` uses: the
canonical JSON of ``point_estimates(align_labels(pooled))`` (k_hat, z_hat, mu_hat and the
support), once from the dense means and once from the means on the
support alone, as traces store them by default; multi-chain designs add
the ``psrf_report`` table.  The baselines design has no trace: its
digest covers the ``estimate.json`` that ``run_experiment`` writes.  The
baselines_large digests cover the bytes of each fit's means and labels
and the repr of its objective.  The data design prints, for each dataset
above, the SHA-256 of its p x n values in C order (the hash that
``manifest.json``'s ``data_digest`` truncates), so that a change to the
generator shows apart from a change to the sampler.  Run the script on
two checkouts to show that a change leaves the data and every trace and
summary byte-identical.

Designs (data seed = chain seed):
  3a             scenario I, p=n=100, s=6, mean_scale 1.5, seeds 1-5;
                 one joint-mode chain each, 40 + 120 sweeps
  large_joint    scenario I, p=n=1000, s=6, mean_scale 1.5, seed 1001;
                 one joint-mode chain, 10 + 30 sweeps
  chains_column  scenario II, p=400, n=200, s=8, seed 1; four column-mode
                 chains of 15 + 35 sweeps
  baselines      3a seed 1's data; methods kmeans and cmle, each with
                 cmle {"k": 3, "s": 6} (k-means ignores s)
  baselines_large  large_joint's data; fit_kmeans(k=3) and
                 fit_cmle(k=3, s=6), digesting (mu, z, objective): the
                 baselines at the size of a benchmark's k-means start
  data           the data digest of 3a's five datasets, large_joint's and
                 chains_column's (baselines and baselines_large reuse
                 3a seed 1's and large_joint's)

Example:
    PYTHONPATH=src python3 scripts/trace_digest.py
    PYTHONPATH=src python3 scripts/trace_digest.py --designs 3a chains_column
"""

import argparse
import hashlib
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import sparsegmm as sg
from sparsegmm.core import trace_from_ndjson, trace_to_ndjson
from sparsegmm.experiment import (
    ExperimentConfig,
    canonical_json,
    data_sha256,
    estimate_to_dict,
    run_experiment,
)


def _estimate(snapshots, data) -> dict:
    return estimate_to_dict(sg.point_estimates(sg.align_labels(snapshots, data)))


def _chain_digests(data, traces) -> str:
    """The trace digest and the post-processing digest of one design; the
    post-processing reads the traces back from their NDJSON first, as
    ``diagnose`` does."""
    texts = [trace_to_ndjson(t) for t in traces]
    traces = [trace_from_ndjson(text) for text in texts]
    pooled = [s for t in traces for s in t.snapshots]
    summary = {
        "estimate": _estimate(pooled, data),
        "estimate_support_only": _estimate([replace(s, mu_dense=None) for s in pooled], data),
    }
    if len(traces) > 1:
        summary["psrf"] = sg.psrf_report(traces, data)
    post = hashlib.sha256(canonical_json(summary).encode()).hexdigest()
    trace = hashlib.sha256("".join(texts).encode()).hexdigest()
    return f"trace {trace}  post {post}"


# (scenario, p, n, s, mean_scale, seed) of each design's data
DATA = {
    **{f"3a seed {seed}": ("one", 100, 100, 6, 1.5, seed) for seed in range(1, 6)},
    "large_joint": ("one", 1000, 1000, 6, 1.5, 1001),
    "chains_column": ("two", 400, 200, 8, 1.0, 1),
}


def _data(label):
    scenario, p, n, s, mean_scale, seed = DATA[label]
    spec = sg.ScenarioSpec(scenario=scenario, p=p, n=n, s=s, mean_scale=mean_scale, seed=seed)
    return sg.generate(spec)[0]


def design_3a():
    for seed in range(1, 6):
        data = _data(f"3a seed {seed}")
        config = sg.RunConfig(n_burn=40, n_keep=120, seed=seed, store_dense_mu=True)
        traces = [sg.run_chain(data, sg.default_hyperparams(100), config)]
        yield f"3a seed {seed}", _chain_digests(data, traces)


def design_large_joint():
    data = _data("large_joint")
    config = sg.RunConfig(n_burn=10, n_keep=30, seed=1001, store_dense_mu=True)
    traces = [sg.run_chain(data, sg.default_hyperparams(1000), config)]
    yield "large_joint", _chain_digests(data, traces)


def design_chains_column():
    data = _data("chains_column")
    hyper = sg.default_hyperparams(400, ssl_mode="column")
    config = sg.RunConfig(n_burn=15, n_keep=35, n_chains=4, seed=1, store_dense_mu=True)
    yield "chains_column", _chain_digests(data, sg.run_chains(data, hyper, config))


def design_baselines():
    spec = sg.ScenarioSpec(scenario="one", p=100, n=100, s=6, mean_scale=1.5, seed=1)
    for method in ("kmeans", "cmle"):
        with tempfile.TemporaryDirectory() as out:
            config = ExperimentConfig(scenario=spec, method=method,
                                      cmle=sg.CmleConfig(k=3, s=6), output_dir=out)
            run_experiment(config)
            estimate = (Path(out) / "estimate.json").read_bytes()
        yield f"baselines {method}", f"estimate {hashlib.sha256(estimate).hexdigest()}"


def _fit_digest(mu, z, objective) -> str:
    return f"fit {hashlib.sha256(mu.tobytes() + z.tobytes() + repr(objective).encode()).hexdigest()}"


def design_baselines_large():
    data = _data("large_joint")
    mu, z = sg.fit_kmeans(data, 3)
    yield "baselines_large kmeans", _fit_digest(mu, z, float(np.sum((data.values - mu[:, z - 1]) ** 2)))
    yield "baselines_large cmle", _fit_digest(*sg.fit_cmle(data, sg.CmleConfig(k=3, s=6)))


def design_data():
    for label in DATA:
        yield label, f"data {data_sha256(_data(label))}"


DESIGNS = {
    "3a": design_3a,
    "large_joint": design_large_joint,
    "chains_column": design_chains_column,
    "baselines": design_baselines,
    "baselines_large": design_baselines_large,
    "data": design_data,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--designs", nargs="+", choices=list(DESIGNS), default=list(DESIGNS))
    args = ap.parse_args(argv)
    for name in args.designs:
        t0 = time.perf_counter()
        for label, digests in DESIGNS[name]():
            print(f"{label:14s} {digests}  ({time.perf_counter() - t0:.1f} s)", flush=True)
            t0 = time.perf_counter()
    return 0


if __name__ == "__main__":
    sys.exit(main())
