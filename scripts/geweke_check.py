#!/usr/bin/env python3
"""Joint-distribution validation of the sampler transitions.

Compares statistics of states drawn directly from the prior against
states from a chain that alternates data regeneration with one sampler
sweep.  If every conditional update is correct the two agree; a bug in
any update shows up as a drift measured in Monte-Carlo standard errors.

Statistics: theta, K, the first coordinate of cluster 1's mean (mu11),
the same coordinate of observation 1's cluster mean squared (mu_z1^2),
the share of indicators switched on in the row of observation 1's
cluster (xi_on), and P(K=k) for each k.  The square and the share are
taken from observation 1's cluster, not from label 1: forward states
label clusters by first appearance, while the chain's label 1 is its
oldest surviving cluster, and which cluster survives longest depends on
its mean.  xi_on sees the indicator block directly, in both SSL modes.

Example:
    python3 scripts/geweke_check.py --rounds 50000 --ssl-mode column
"""

import argparse
import math
import sys
import time

import numpy as np

from sparsegmm.core import Hyperparams
from sparsegmm.gibbs import sweep
from sparsegmm.priorsim import batch_means_se, forward_prior_state, regenerate_data
from sparsegmm.urn import build_vn_table


STATS = ("theta", "K", "mu11", "mu_z1^2", "xi_on")


def _stats(st):
    own = st.z[0] - 1
    return st.theta, st.k_active, st.mu[0, 0], st.mu[own, 0] ** 2, st.xi[own].mean()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rounds", type=int, default=50_000)
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--k-max", type=int, default=3)
    ap.add_argument("--lambda0", type=float, default=4.0)
    ap.add_argument("--lambda1", type=float, default=1.0)
    ap.add_argument("--beta-theta", type=float, default=2.0)
    ap.add_argument("--alpha", type=float, default=1.5)
    ap.add_argument("--ssl-mode", default="joint", choices=["joint", "column"])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    hyper = Hyperparams(
        lambda0=args.lambda0, lambda1=args.lambda1, beta_theta=args.beta_theta,
        alpha=args.alpha, poisson_lambda=2.0, k_max=args.k_max,
        ssl_mode=args.ssl_mode,
    )
    rounds = args.rounds
    rng_f = np.random.default_rng(args.seed)
    fwd = np.empty((rounds, len(STATS)))
    for r in range(rounds):
        fwd[r] = _stats(forward_prior_state(args.n, args.p, hyper, rng_f))

    rng_c = np.random.default_rng(args.seed + 1)
    st = forward_prior_state(args.n, args.p, hyper, rng_c)
    vn = build_vn_table(args.n, hyper)
    chain = np.empty((rounds, len(STATS)))
    t0 = time.time()
    for r in range(rounds):
        data = regenerate_data(st, rng_c)
        sweep(st, data, vn, hyper, rng_c)
        chain[r] = _stats(st)
    print(f"chain side: {time.time() - t0:.1f}s for {rounds} rounds")

    worst = 0.0
    for j, name in enumerate(STATS):
        se = math.hypot(fwd[:, j].std(ddof=1) / math.sqrt(rounds),
                        batch_means_se(chain[:, j]))
        z = abs(fwd[:, j].mean() - chain[:, j].mean()) / se
        worst = max(worst, z)
        print(f"  {name:8s} forward={fwd[:, j].mean():9.4f} "
              f"chain={chain[:, j].mean():9.4f}  |z|={z:5.2f}")
    for k in range(1, args.k_max + 1):
        pf = (fwd[:, 1] == k).mean()
        se = math.hypot(math.sqrt(pf * (1 - pf) / rounds),
                        batch_means_se((chain[:, 1] == k).astype(float)))
        z = abs(pf - (chain[:, 1] == k).mean()) / se
        worst = max(worst, z)
        print(f"  P(K={k})  forward={pf:9.4f} chain={(chain[:, 1] == k).mean():9.4f}  |z|={z:5.2f}")
    print("worst |z| =", round(worst, 2), "(expect < 4 for a correct sampler)")
    return 0 if worst < 4.0 else 1


if __name__ == "__main__":
    sys.exit(main())
