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
import sys
import time

from sparsegmm.core import Hyperparams
from sparsegmm.priorsim import geweke, geweke_z, k_probability_z


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
    t0 = time.time()
    fwd, chain = geweke(args.n, args.p, hyper, args.rounds, _stats, (args.seed, args.seed + 1))
    print(f"{time.time() - t0:.1f}s for {args.rounds} rounds on each side")

    rows = [(f"{name:8s}", fwd[:, j], chain[:, j]) for j, name in enumerate(STATS)]
    rows += [(f"P(K={k}) ", fwd[:, 1] == k, chain[:, 1] == k) for k in range(1, args.k_max + 1)]
    z = [*geweke_z(fwd, chain), *k_probability_z(fwd[:, 1], chain[:, 1], args.k_max)]
    for (label, f, c), z_one in zip(rows, z):
        print(f"  {label} forward={f.mean():9.4f} chain={c.mean():9.4f}  |z|={z_one:5.2f}")
    worst = max(z)
    print("worst |z| =", round(worst, 2), "(expect < 4 for a correct sampler)")
    return 0 if worst < 4.0 else 1


if __name__ == "__main__":
    sys.exit(main())
