"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Heavier statistical checks use fixed seeds so outcomes are reproducible.
Criterion 6 checks posterior contraction on the label-matched
centre-estimation error; its companion 6n checks the per-observation
reconstruction error.  Why the *total* reconstruction error is not a
contracting quantity is set out next to criterion 6.
"""

import math
import time
from itertools import permutations

import numpy as np
import pytest
from scipy import stats

from oracles import (
    aligned_draw,
    ari_pair_counting,
    centre_error,
    cmle_exhaustive,
    dh_exhaustive,
    gig_moment_quad,
    nmi_entropy_sum,
    trunc_poisson_pmf_direct,
    vn_bruteforce,
)
import sparsegmm as sg
from sparsegmm.cmle import CmleConfig, fit_cmle
from sparsegmm.core import DataMatrix, Hyperparams, ModelState, Snapshot
from sparsegmm.distributions import sample_gig_half_vector
from sparsegmm.metrics import min_hamming, nmi
from sparsegmm.priorsim import geweke, geweke_z, k_probability_z
from sparsegmm.ssl import build_context, update_mu
from sparsegmm.summarize import align_labels, point_estimates, psrf, psrf_report
from sparsegmm.urn import build_vn_table


def report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))
    return ok


# -------------------------------------------------------------------------
# 1. exactness oracles
# -------------------------------------------------------------------------


def test_criterion_1a_vn_table_vs_bruteforce():
    worst = 0.0
    for alpha in (1.0, 2.5):
        for k_max in range(1, 11):
            hyper = Hyperparams(
                lambda0=100.0, lambda1=1.0, beta_theta=10.0,
                alpha=alpha, poisson_lambda=2.0, k_max=k_max,
            )
            pk = trunc_poisson_pmf_direct(2.0, k_max)
            for n in range(1, 21):
                vn = build_vn_table(n, hyper)
                for t in range(1, k_max + 1):
                    direct = vn_bruteforce(n, t, alpha, pk)
                    rel = abs(math.exp(vn.log_vn(t)) - direct) / direct
                    worst = max(worst, rel)
    ok = worst < 1e-12
    assert report("1a: V_n exact vs brute-force series", ok, f"worst rel err {worst:.2e}")


def test_criterion_1b_dh_assignment_vs_exhaustive():
    rng = np.random.default_rng(101)
    mismatches = 0
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(2, 13))
        za = rng.integers(1, k + 1, size=n)
        zb = rng.integers(1, k + 1, size=n)
        if min_hamming(za, zb, k) != dh_exhaustive(za, zb, k):
            mismatches += 1
    assert report("1b: d_H assignment vs exhaustive (1000 cases)", mismatches == 0,
                  f"{mismatches} mismatches")


def test_criterion_1c_ari_nmi_vs_oracles():
    rng = np.random.default_rng(202)
    worst = 0.0
    done = 0
    while done < 1000:
        n = int(rng.integers(2, 25))
        za = rng.integers(1, int(rng.integers(2, 5)) + 1, size=n)
        zb = rng.integers(1, int(rng.integers(2, 5)) + 1, size=n)
        worst = max(worst, abs(sg.ari(za, zb) - ari_pair_counting(za, zb)))
        if np.unique(za).size > 1 and np.unique(zb).size > 1:
            worst = max(worst, abs(nmi(za, zb) - nmi_entropy_sum(za, zb)))
        done += 1
    assert report("1c: ARI/NMI vs independent oracles (1000 pairs)", worst < 1e-12,
                  f"worst abs err {worst:.2e}")


def test_criterion_1d_cmle_vs_exhaustive():
    rng = np.random.default_rng(303)
    misses = 0
    for trial in range(100):
        p = int(rng.integers(2, 5))
        n = int(rng.integers(3, 7))
        s = int(rng.integers(1, p + 1))
        values = rng.standard_normal((p, n))
        cfg = CmleConfig(k=2, s=s, n_restarts=32, max_iters=60, seed=trial)
        _, _, obj = fit_cmle(DataMatrix(values), cfg)
        if not np.isclose(obj, cmle_exhaustive(values, 2, s), rtol=1e-9, atol=1e-12):
            misses += 1
    assert report("1d: constrained fit vs exhaustive search (100 instances)",
                  misses == 0, f"{misses} misses")


# -------------------------------------------------------------------------
# 2. sampler correctness
# -------------------------------------------------------------------------


def test_criterion_2a_gig_moments():
    n_draws = 1_000_000
    rng = np.random.default_rng(404)
    ok = True
    details = []
    for chi in (0.0, 0.01, 1.0, 100.0):
        draws = sample_gig_half_vector(np.full(n_draws, chi), 1.0, rng)
        for order in (1, 2):
            target = gig_moment_quad(0.5, chi, 1.0, order)
            emp = (draws**order).mean()
            se = (draws**order).std(ddof=1) / math.sqrt(n_draws)
            z = abs(emp - target) / se
            details.append(f"chi={chi} m{order} |z|={z:.2f}")
            ok &= z < 3.0
    assert report("2a: GIG moments within 3 MCSE of quadrature", ok, "; ".join(details))


def test_criterion_2b_conjugate_stationarity_ks():
    hyper = Hyperparams(lambda0=100.0, lambda1=1.0, beta_theta=10.0)
    data = DataMatrix(np.array([[0.4, -0.2, 0.9, 0.3]]))
    state = ModelState(
        z=np.ones(4, dtype=int),
        mu=np.zeros((1, 1)),
        phi=np.full((1, 1), 2.0),
        xi=np.ones((1, 1), dtype=np.int8),
        theta=0.5,
    )
    sums, sizes = build_context(state, data)
    rng = np.random.default_rng(505)
    draws = np.empty(50_000)
    for t in range(draws.size):
        update_mu(state, sums, sizes, hyper, rng)
        draws[t] = state.mu[0, 0]
    prec = 4.0 + 1.0 / 2.0
    target_mean = data.values.sum() / prec
    pvalue = stats.kstest(draws, "norm", args=(target_mean, 1.0 / math.sqrt(prec))).pvalue
    assert report("2b: conjugate stationarity (one-sample KS, level 0.01)",
                  pvalue > 0.01, f"p={pvalue:.3f}")


def test_criterion_2c_geweke_joint_test():
    hyper = Hyperparams(lambda0=4.0, lambda1=1.0, beta_theta=2.0, alpha=1.5,
                        poisson_lambda=2.0, k_max=3)
    fwd, chain = geweke(5, 2, hyper, 100_000, lambda st: (st.theta, st.k_active), (606, 707))
    z = [*geweke_z(fwd, chain), *k_probability_z(fwd[:, 1], chain[:, 1], 3)]
    names = ("theta", "K", "P(K=1)", "P(K=2)", "P(K=3)")
    assert report("2c: Geweke forward vs successive-conditional (1e5 rounds)",
                  all(v < 4.0 for v in z),
                  "; ".join(f"{name} |z|={v:.2f}" for name, v in zip(names, z)))


# -------------------------------------------------------------------------
# 3. desk-scale scenario reproduction
# -------------------------------------------------------------------------


def _bayes_estimate(data, seed, n_burn=500, n_keep=1500):
    hyper = sg.default_hyperparams(data.p)
    cfg = sg.RunConfig(n_burn=n_burn, n_keep=n_keep, seed=seed)
    trace = sg.run_chain(data, hyper, cfg)
    return point_estimates(align_labels(trace, data))


def test_criterion_3a_scenario_one_scaled():
    t0 = time.time()
    hits = 0
    rows = []
    for seed in range(1, 6):
        spec = sg.ScenarioSpec(scenario="one", p=100, n=100, s=6,
                               mean_scale=1.5, seed=seed)
        data, z_true, _ = sg.generate(spec)
        est = _bayes_estimate(data, seed)
        a = sg.ari(z_true, est.z_hat)
        rows.append(f"seed{seed}: K={est.k_hat} ARI={a:.2f}")
        if est.k_hat == 3 and a >= 0.90:
            hits += 1
    elapsed = time.time() - t0
    ok = hits >= 4 and elapsed < 600
    assert report("3a: scenario I scaled (K=3, ARI>=0.90 in >=4/5 seeds, <10 min)",
                  ok, f"{hits}/5 seeds, {elapsed:.0f}s; " + "; ".join(rows))


def test_criterion_3b_scenario_two_small_cluster():
    hits = 0
    aris = []
    for seed in range(1, 6):
        spec = sg.ScenarioSpec(scenario="two", p=100, n=200, seed=seed)
        data, z_true, _ = sg.generate(spec)
        est = _bayes_estimate(data, seed)
        a = sg.ari(z_true, est.z_hat)
        small = np.flatnonzero(z_true == 1)
        big = np.flatnonzero(z_true != 1)
        isolated = set(est.z_hat[small].tolist()).isdisjoint(est.z_hat[big].tolist())
        if est.k_hat == 3 and isolated and a >= 0.95:
            hits += 1
            aris.append(a)
    ok = hits >= 4
    assert report("3b: scenario II small-cluster recovery (>=4/5 seeds, ARI>=0.95)",
                  ok, f"{hits}/5 seeds, ARIs {[round(a, 3) for a in aris]}")


def test_criterion_3c_scenario_three_t_mixture():
    recovered = []
    for seed in range(1, 6):
        spec = sg.ScenarioSpec(scenario="three", p=100, n=200, seed=seed)
        data, z_true, _ = sg.generate(spec)
        est = _bayes_estimate(data, seed)
        a = sg.ari(z_true, est.z_hat)
        if est.k_hat == 3:
            recovered.append(a)
    ok = len(recovered) >= 3 and all(a >= 0.9 for a in recovered)
    assert report("3c: scenario III t-mixture (K=3 in >=3/5 seeds, ARI>=0.9)",
                  ok, f"{len(recovered)}/5 recovered, ARIs {[round(a, 3) for a in recovered]}")


# -------------------------------------------------------------------------
# 4. diagnostics
# -------------------------------------------------------------------------


def test_criterion_4_psrf_bounds():
    means = np.zeros((10, 2))
    means[:3, 0] = 2.5
    means[:3, 1] = -2.5
    spec = sg.ScenarioSpec(scenario="custom", means=means,
                           weights=np.array([0.5, 0.5]), n=60, seed=3)
    data, _, _ = sg.generate(spec)
    hyper = Hyperparams(lambda0=20.0, lambda1=1.0,
                        beta_theta=sg.default_hyperparams(10).beta_theta, k_max=10)
    traces = sg.run_chains(data, hyper,
                           sg.RunConfig(n_burn=300, n_keep=700, seed=9, n_chains=4))
    rep = psrf_report(traces, data)
    # both cluster means must be reported, so none drops out of the check
    stationary_ok = {"theta", "k", "mu_1_1", "mu_2_1"} <= rep.keys() and all(
        0.99 <= v <= 1.1 for v in rep.values()
    )

    rng = np.random.default_rng(11)
    disjoint = [0.01 * rng.standard_normal(500),
                100.0 + 0.01 * rng.standard_normal(500),
                200.0 + 0.01 * rng.standard_normal(500),
                -50.0 + 0.01 * rng.standard_normal(500)]
    sep = psrf(disjoint)
    ok = stationary_ok and sep > 1.2
    assert report("4: PSRF in [0.99,1.1] stationary / >1.2 disjoint", ok,
                  f"stationary {dict((k, round(v, 3)) for k, v in rep.items())}, disjoint {sep:.1f}")


# -------------------------------------------------------------------------
# 5. alignment restoration
# -------------------------------------------------------------------------


def test_criterion_5_alignment_restores_known_permutations():
    rng = np.random.default_rng(808)
    failures = 0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        p = int(rng.integers(3, 9))
        n = int(rng.integers(6, 21))
        mu = rng.standard_normal((k, p)) + 10.0 * np.arange(k)[:, None]
        z = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, size=n - k)])
        data = DataMatrix(mu[z - 1].T + 0.01 * rng.standard_normal((p, n)))
        snaps = []
        perms = []
        for _ in range(int(rng.integers(3, 9))):
            perm = rng.permutation(k) + 1
            order = np.argsort(perm)
            snaps.append(Snapshot(
                z=perm[z - 1], k=k, theta=0.5,
                support=np.arange(1, p + 1), mu_support=mu[order],
            ))
            perms.append(perm)
        aligned = align_labels(snaps, data)
        # all snapshots must coincide exactly after alignment ...
        z0, mu0 = aligned_draw(aligned, 0)
        same = all(
            np.array_equal(zb, z0) and np.array_equal(mub, mu0)
            for zb, mub in (aligned_draw(aligned, b) for b in range(len(aligned)))
        )
        # ... and equal the base state up to one global permutation
        g = np.unique(np.stack([z, z0]), axis=1)
        consistent = g.shape[1] == k and np.array_equal(np.sort(g[1]), np.arange(1, k + 1))
        if not (same and consistent):
            failures += 1
    assert report("5: alignment restores permuted traces (100/100)",
                  failures == 0, f"{failures} failures")


# -------------------------------------------------------------------------
# 6. posterior-contraction trend
# -------------------------------------------------------------------------


def _trend_errors():
    """Per n: median over seeds 1-3 of (total reconstruction error, centre error)."""
    meds = {}
    for n in (50, 100, 200):
        totals, centres = [], []
        for seed in (1, 2, 3):
            spec = sg.ScenarioSpec(scenario="one", p=100, n=n, s=6,
                                   mean_scale=1.5, seed=seed)
            data, z_true, mu_true = sg.generate(spec)
            est = _bayes_estimate(data, seed)
            totals.append(sg.mean_matrix_error(est.mu_hat, est.z_hat, mu_true, z_true))
            centres.append(centre_error(est.mu_hat, mu_true))
        meds[n] = (float(np.median(totals)), float(np.median(centres)))
    return meds


@pytest.fixture(scope="module")
def trend_medians():
    return _trend_errors()


def test_criterion_6_contraction_trend_as_stated(trend_medians):
    # The contracting quantity is the estimate of the cluster centres, the
    # parameter-estimation loss min_pi sum_k ||mu_hat_pi(k) - mu_k||^2.
    # With exact clustering each of the K*s non-zero centre coordinates is
    # a mean of n_k observations, so this loss is about sum_k s / n_k ~ 1/n.
    #
    # The total reconstruction error sum_i ||mu_hat_{z_hat_i} - mu_{z_i}||^2
    # is not: each cluster's s coordinates carry error s / n_k and are
    # counted n_k times, so with exact clustering it plateaus at ~K*s = 18
    # plus a shrinkage term, and each misclustered observation adds
    # Delta^2 >= 6 * 2.25^2 ~ 30, with the expected number of misclustered
    # observations growing in n.  Measured totals at n=100 were 18.6, 14.6,
    # 16.9 (all exact clusterings) and at n=200 11.5, 49.2 (one observation
    # misclustered), 24.2: noise around a plateau, not a trend in n.
    seq = [trend_medians[n][1] for n in (50, 100, 200)]
    ok = seq[0] >= seq[1] >= seq[2]
    assert report("6: median label-matched centre error non-increasing in n",
                  ok, f"medians {[round(v, 3) for v in seq]}")


def test_criterion_6_companion_normalized_trend(trend_medians):
    seq = [trend_medians[n][0] / n for n in (50, 100, 200)]
    ok = seq[0] >= seq[1] >= seq[2]
    assert report("6n: median per-observation reconstruction error non-increasing",
                  ok, f"normalized medians {[round(v, 3) for v in seq]}")
