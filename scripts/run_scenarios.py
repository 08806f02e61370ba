#!/usr/bin/env python3
"""Desk-scale benchmark sweep over the three synthetic scenarios.

Runs the Bayesian sampler on scaled-down versions of each scenario for a
handful of seeds and prints per-seed cluster-count and accuracy results.

Example:
    python3 scripts/run_scenarios.py --scenarios one two --seeds 1 2 3
"""

import argparse
import sys
import time

import numpy as np

import sparsegmm as sg
from sparsegmm.metrics import min_hamming


def run_one(scenario, seed, p, n, n_burn, n_keep, mean_scale):
    spec = sg.ScenarioSpec(scenario=scenario, p=p, n=n, seed=seed,
                           mean_scale=mean_scale,
                           s=6 if scenario == "one" else None)
    data, z_true, mu_true = sg.generate(spec)
    hyper = sg.default_hyperparams(data.p)
    trace = sg.run_chain(data, hyper, sg.RunConfig(n_burn=n_burn, n_keep=n_keep, seed=seed))
    est = sg.point_estimates(sg.align_labels(trace, data))
    return {
        "k_hat": est.k_hat,
        "ari": sg.ari(z_true, est.z_hat),
        "d_h": min_hamming(z_true, est.z_hat,
                           max(est.k_hat, int(np.unique(z_true).size))),
        "err": sg.mean_matrix_error(est.mu_hat, est.z_hat, mu_true, z_true),
        "support": est.support_hat,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenarios", nargs="+", default=["one", "two", "three"],
                    choices=["one", "two", "three"])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    ap.add_argument("--p", type=int, default=100)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--n-burn", type=int, default=500)
    ap.add_argument("--n-keep", type=int, default=1500)
    ap.add_argument("--mean-scale", type=float, default=1.0)
    args = ap.parse_args(argv)

    for scenario in args.scenarios:
        scale = 1.5 if scenario == "one" and args.mean_scale == 1.0 else args.mean_scale
        n = args.n if scenario != "one" else min(args.n, 100)
        print(f"== scenario {scenario} (p={args.p}, n={n}, mean_scale={scale}) ==")
        t0 = time.time()
        for seed in args.seeds:
            r = run_one(scenario, seed, args.p, n, args.n_burn, args.n_keep, scale)
            print(f"  seed {seed}: K={r['k_hat']} ARI={r['ari']:.3f} "
                  f"d_H={r['d_h']:.3f} err={r['err']:.1f} support={r['support']}")
        print(f"  ({time.time() - t0:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
