"""Independent reference implementations used to check the library.

Everything here is deliberately naive: direct sums, exhaustive
enumeration, quadrature.  None of it shares code with the package paths
it verifies.  ``centre_error`` is the one loss the tests use that the
package does not provide.  ``reference_sweep`` writes the sampler's
reseat pass plainly (direct distances, per-call allocation, scalar
uniforms) and its scale update cluster by cluster, and
``reference_kmeans`` keeps the k-means Lloyd loop in its first form, as
bitwise references for the lean ones; ``reference_generate`` draws a
synthetic dataset with whole-matrix expressions, where the package works
in place.  ``dense_reconstruction_error``,
``reference_index`` and ``reference_kmeans`` rank alignment candidates
and Lloyd iterates by the full p x n residual, which the package ranks
from cluster sums instead.  ``reference_psrf_report`` matches each
chain's draws to the pooled reference afresh by brute force, where the
package reads them off one pooled alignment.  ``exact_partition_posterior``
enumerates every partition of a tiny dataset and integrates every other
parameter out, by quadrature and closed forms.
"""

from itertools import permutations, product
from math import comb, exp, factorial, inf, lgamma, log

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linear_sum_assignment

from sparsegmm.distributions import sample_gig_half_vector
from sparsegmm.ssl import (
    update_mu,
    update_theta,
    update_xi,
)
from sparsegmm.synthetic import _resolve


def gig_moment_quad(zeta: float, chi: float, tau: float, order: int) -> float:
    """E[X^order] for the density x^(zeta-1) exp(-(chi/x + tau x)/2) by quadrature."""

    def unnorm(x):
        return x ** (zeta - 1.0) * np.exp(-(chi / x + tau * x) / 2.0)

    pieces = (0.0, 0.1, 1.0, 10.0, np.inf)
    z = sum(quad(unnorm, a, b, limit=200)[0] for a, b in zip(pieces, pieces[1:]))
    m = sum(
        quad(lambda x: x**order * unnorm(x), a, b, limit=200)[0]
        for a, b in zip(pieces, pieces[1:])
    )
    return m / z


def trunc_poisson_pmf_direct(rate: float, k_max: int) -> np.ndarray:
    weights = np.array([rate**k / factorial(k) for k in range(1, k_max + 1)])
    return weights / weights.sum()


def vn_bruteforce(n: int, t: int, alpha: float, pk: np.ndarray) -> float:
    """Direct double-loop evaluation of the new-cluster coefficient series."""
    total = 0.0
    for k in range(1, pk.size + 1):
        falling = 1.0
        for i in range(t):
            falling *= k - i
        if falling <= 0:
            continue
        rising = 1.0
        for i in range(n):
            rising *= alpha * k + i
        total += pk[k - 1] * falling / rising
    return total


def _set_partitions(n: int, k_max: int):
    """Every partition of n items into at most k_max blocks, as label
    tuples numbered by first appearance (restricted growth strings)."""
    labels = [[1]]
    for _ in range(1, n):
        labels = [a + [c] for a in labels for c in range(1, min(max(a) + 1, k_max) + 1)]
    return [tuple(a) for a in labels]


def _log_laplace_marginal(y, lam: float) -> float:
    """log of the integral over mu of prod_i N(y_i; mu, 1) (lam / 2) exp(-lam |mu|),
    by quadrature on each half-line of the integrand divided by its
    largest value on a grid around the data (so that it does not underflow)."""
    y = np.asarray(y, dtype=float)

    def log_f(mu):
        return (-0.5 * float(np.sum((y - mu) ** 2)) - 0.5 * y.size * log(2 * np.pi)
                + log(lam / 2) - lam * abs(mu))

    grid = np.linspace(y.min() - 1.0, y.max() + 1.0, 2001)
    peak = max(log_f(m) for m in grid)
    half = sum(quad(lambda m, s=s: exp(log_f(s * m) - peak), 0.0, inf, epsabs=0,
                    epsrel=1e-12, limit=200)[0] for s in (1.0, -1.0))
    return peak + log(half)


def exact_partition_posterior(y, hyper):
    """{partition: (posterior mass, mass with observation 1's indicator on)}
    for p = 1, every parameter but the partition integrated out.

    A partition with blocks c has prior weight V_n(t) prod_c
    Gamma(alpha + n_c) / Gamma(alpha) (``vn_bruteforce``) and likelihood
    sum over the indicators of P(xi) prod_c m_c(lambda_{xi_c}), where
    m_c is the Laplace-mean marginal of block c (``_log_laplace_marginal``).
    Joint mode: one indicator, on with probability E[theta] =
    1 / (1 + beta_theta).  Column mode: one per block; s of t on has
    probability B(1 + s, beta_theta + t - s) / B(1, beta_theta).  The
    second number sums the terms in which the indicator of observation
    1's block is on.  Partitions are label tuples numbered by first
    appearance.
    """
    y = [float(v) for v in np.ravel(y)]
    n, alpha, beta = len(y), hyper.alpha, hyper.beta_theta
    pk = trunc_poisson_pmf_direct(hyper.poisson_lambda, hyper.k_max)
    cache = {}

    def log_m(block, lam):
        if (block, lam) not in cache:
            cache[block, lam] = _log_laplace_marginal([y[i] for i in block], lam)
        return cache[block, lam]

    def log_beta(a, b):
        return lgamma(a) + lgamma(b) - lgamma(a + b)

    weights = {}
    for labels in _set_partitions(n, hyper.k_max):
        t = max(labels)
        blocks = [tuple(i for i in range(n) if labels[i] == c) for c in range(1, t + 1)]
        log_prior = log(vn_bruteforce(n, t, alpha, pk)) + sum(
            lgamma(alpha + len(b)) - lgamma(alpha) for b in blocks)
        if hyper.ssl_mode == "column":
            vectors = list(product((0, 1), repeat=t))
        else:
            vectors = [(0,) * t, (1,) * t]
        total = on = 0.0
        for xi in vectors:
            s = sum(xi)
            if hyper.ssl_mode == "column":
                log_p = log_beta(1 + s, beta + t - s) - log_beta(1, beta)
            else:
                log_p = -log(1 + beta) if s else log(beta / (1 + beta))
            lam = (hyper.lambda0, hyper.lambda1)
            w = exp(log_prior + log_p + sum(log_m(b, lam[x]) for b, x in zip(blocks, xi)))
            total += w
            on += w if xi[0] else 0.0
        weights[labels] = (total, on)
    z_sum = sum(w for w, _ in weights.values())
    return {part: (w / z_sum, o / z_sum) for part, (w, o) in weights.items()}


def dh_exhaustive(z: np.ndarray, z_prime: np.ndarray, k: int) -> float:
    """Minimum mismatch fraction over all label permutations, by enumeration."""
    best = inf
    for perm in permutations(range(1, k + 1)):
        mapped = np.array([perm[v - 1] for v in z_prime])
        best = min(best, int((np.asarray(z) != mapped).sum()))
    return best / len(z)


def ari_pair_counting(z_true, z_est) -> float:
    """ARI from direct pair agreement counts."""
    zt, ze = np.asarray(z_true), np.asarray(z_est)
    n = zt.size
    same_t = same_e = same_both = 0
    for i in range(n):
        for j in range(i + 1, n):
            a = zt[i] == zt[j]
            b = ze[i] == ze[j]
            same_t += a
            same_e += b
            same_both += a and b
    total = comb(n, 2)
    expected = same_t * same_e / total
    max_index = 0.5 * (same_t + same_e)
    if max_index == expected:
        return 1.0
    return (same_both - expected) / (max_index - expected)


def nmi_entropy_sum(z_true, z_est) -> float:
    """NMI as (H_t + H_e - H_joint) / sqrt(H_t * H_e) from raw frequencies."""
    zt, ze = np.asarray(z_true), np.asarray(z_est)
    n = zt.size

    def entropy(labels):
        h = 0.0
        for v in set(labels.tolist()):
            q = (labels == v).sum() / n
            h -= q * log(q)
        return h

    h_t, h_e = entropy(zt), entropy(ze)
    h_joint = 0.0
    for a in set(zt.tolist()):
        for b in set(ze.tolist()):
            q = ((zt == a) & (ze == b)).sum() / n
            if q > 0:
                h_joint -= q * log(q)
    return (h_t + h_e - h_joint) / (h_t * h_e) ** 0.5


def mean_matrix_error_naive(mu_hat, z_hat, mu_true, z_true) -> float:
    total = 0.0
    p = mu_hat.shape[0]
    for i in range(len(z_hat)):
        for j in range(p):
            d = mu_hat[j, z_hat[i] - 1] - mu_true[j, z_true[i] - 1]
            total += d * d
    return total


def centre_error(mu_hat, mu_true) -> float:
    """Label-matched centre error min_pi sum_k ||mu_hat[:, pi(k)] - mu_true[:, k]||^2.

    Both p x K mean matrices are zero-padded to max(K_hat, K) columns, so
    a missing or surplus cluster costs the squared norm of its centre.
    """
    mh = np.asarray(mu_hat, dtype=float)
    mt = np.asarray(mu_true, dtype=float)
    m = max(mh.shape[1], mt.shape[1])
    a = np.zeros((mh.shape[0], m))
    b = np.zeros((mt.shape[0], m))
    a[:, : mh.shape[1]] = mh
    b[:, : mt.shape[1]] = mt
    cost = ((a[:, :, None] - b[:, None, :]) ** 2).sum(axis=0)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def cmle_exhaustive(values: np.ndarray, k: int, s: int) -> float:
    """Global optimum of the row-sparse K-center objective by enumerating
    every assignment; for each one the optimal s-row projection is exact."""
    p, n = values.shape
    best = inf
    for assign in product(range(k), repeat=n):
        z = np.asarray(assign)
        within = 0.0
        row_gain = np.zeros(p)
        for c in range(k):
            members = values[:, z == c]
            if members.shape[1] == 0:
                continue
            m = members.mean(axis=1)
            within += ((members - m[:, None]) ** 2).sum()
            row_gain += members.shape[1] * m**2
        # zeroing row j costs row_gain[j]; keep the s largest
        drop = np.sort(row_gain)[: max(p - s, 0)].sum()
        best = min(best, within + drop)
    return best


def permute_snapshot_labels(z, mu, perm):
    """Relabel (z, mu) by a permutation given as new_label[old_label-1]."""
    perm = np.asarray(perm)
    z_new = perm[np.asarray(z) - 1]
    order = np.argsort(perm)
    return z_new, np.asarray(mu)[order]


def aligned_draw(aligned, b):
    """Snapshot b of an aligned trace read through its label map: the
    aligned labels, and the dense means with row l-1 holding the mean of
    aligned label l (zero rows for labels the snapshot lacks)."""
    s, perm = aligned.snapshots[b], aligned.perms[b]
    mu = np.zeros((int(perm.max()), aligned.p))
    mu[perm - 1] = s.dense_mu(aligned.p)
    return perm[s.z - 1], mu


def _reference_auxiliary(state, hyper, rng):
    """(mu, phi, xi) of a fresh auxiliary cluster drawn from the prior: in
    column mode indicators from p uniforms against theta (in joint mode the
    shared indicators, which every row of the (K, p) state holds), then phi
    from p Exp(rate 1/2) draws and mu from p standard normals scaled by
    sqrt(phi) / lambda_xi."""
    p = state.p
    if hyper.ssl_mode == "column":
        xi = (rng.random(p) < state.theta).astype(np.int8)
    else:
        xi = state.xi[0].copy()
    phi = rng.exponential(2.0, size=p)
    lam = np.where(xi == 1, hyper.lambda1, hyper.lambda0)
    mu = rng.standard_normal(p) * np.sqrt(phi / lam**2)
    return mu, phi, xi


def _reference_reseat(i, state, vn, data, hyper, rng, aux):
    """Reseat observation i with one auxiliary cluster, written plainly;
    ``aux`` is the (mu, phi, xi) the pass carries, and the one it carries
    on is returned.

    Cluster sizes by a bincount per call, a departing singleton's cluster
    removed with np.delete (its parameters replace the auxiliary), an
    opened one appended with np.vstack, and the distances ||y - mu||^2
    computed directly.  Draws: one categorical uniform; after an open, a
    fresh auxiliary.
    """
    y = data.values[:, i]
    old = int(state.z[i])
    counts = np.bincount(state.z, minlength=state.k_active + 1)[1:]
    singleton = counts[old - 1] == 1
    if singleton:
        aux = (state.mu[old - 1].copy(), state.phi[old - 1].copy(), state.xi[old - 1].copy())
        state.mu = np.delete(state.mu, old - 1, axis=0)
        state.phi = np.delete(state.phi, old - 1, axis=0)
        state.xi = np.delete(state.xi, old - 1, axis=0)
        state.z = np.where(state.z > old, state.z - 1, state.z)
        counts = np.delete(counts, old - 1)
    else:
        counts[old - 1] -= 1

    t = state.k_active
    d = state.mu - y
    logw = np.log(counts.astype(float) + hyper.alpha) - 0.5 * np.sum(d * d, axis=1)
    if t < vn.k_max:
        log_ratio = float(vn.table[t]) - float(vn.table[t - 1])
        new = np.log(hyper.alpha) + log_ratio - 0.5 * np.sum((aux[0] - y) ** 2)
        logw = np.append(logw, new)
    w = np.exp(logw - np.max(logw))
    cdf = np.cumsum(w)
    u = rng.random() * cdf[-1]
    choice = int(min(np.searchsorted(cdf, u, side="right"), logw.size - 1))

    if choice == t:
        mu_a, phi_a, xi_a = aux
        state.mu = np.vstack([state.mu, mu_a[None, :]])
        state.phi = np.vstack([state.phi, phi_a[None, :]])
        state.xi = np.vstack([state.xi, xi_a[None, :]])
    state.z[i] = choice + 1
    if choice == t:
        aux = _reference_auxiliary(state, hyper, rng)
    return aux


def reference_update_phi(state, hyper, rng):
    """The scale update cluster by cluster: chi = mu_c^2 lambda_{xi_c}^2 and
    one ``sample_gig_half_vector`` call per cluster, in ascending order."""
    for c in range(state.k_active):
        lam_sq = np.where(state.xi[c] == 1, hyper.lambda1**2, hyper.lambda0**2)
        state.phi[c] = sample_gig_half_vector(state.mu[c] ** 2 * lam_sq, 1.0, rng)
    return state


def reference_sweep(state, data, vn, hyper, rng):
    """One sweep with the plain reseat pass, np.add.at cluster sums and the
    per-cluster scale update.

    The reseat pass keeps one auxiliary cluster: drawn from the prior
    before the first observation, replaced by a departing singleton's
    parameters, redrawn after it opens a cluster, dropped at the end.
    Every categorical uniform is one scalar ``rng.random()`` call.  Then
    the scales, the indicators, the means and theta, in that order; the
    indicator, mean and theta updates are the package's own, so what this
    checks is the reseat pass, the sufficient statistics, the scales and
    the order of the draws.
    """
    aux = _reference_auxiliary(state, hyper, rng)
    for i in range(data.n):
        aux = _reference_reseat(i, state, vn, data, hyper, rng, aux)
    k = state.k_active
    sums = np.zeros((k, data.p))
    np.add.at(sums, state.z - 1, data.values.T)
    sizes = np.bincount(state.z, minlength=k + 1)[1:]
    reference_update_phi(state, hyper, rng)
    update_xi(state, sums, sizes, hyper, rng)
    update_mu(state, sums, sizes, hyper, rng)
    update_theta(state, hyper, rng)
    return state


def dense_reconstruction_error(snapshot, data):
    """||Y - mu L^T||_F^2 from the full p x n residual."""
    mu = snapshot.dense_mu(data.p)
    resid = data.values - mu[snapshot.z - 1].T
    return float(np.sum(resid * resid))


def reference_index(snaps, data):
    """Alignment reference: among the snapshots with the modal K (the
    smallest K on ties), the first with the least dense reconstruction error."""
    ks = [s.k for s in snaps]
    top = max(ks.count(k) for k in ks)
    k_mode = min(k for k in ks if ks.count(k) == top)
    errors = [dense_reconstruction_error(s, data) if s.k == k_mode else inf for s in snaps]
    return int(np.argmin(errors))


def _brute_force_match(mu_ref, mu):
    """Snapshot row matched to each reference row (None if unmatched): the
    injection of the smaller row set into the larger with the least total
    squared distance, the first one enumerated on ties."""
    k_ref, k = mu_ref.shape[0], mu.shape[0]
    cost = ((mu_ref[:, None, :] - mu[None, :, :]) ** 2).sum(axis=2)
    best, best_cost = None, inf
    if k_ref <= k:
        for cols in permutations(range(k), k_ref):
            c = sum(cost[r, cols[r]] for r in range(k_ref))
            if c < best_cost:
                best, best_cost = list(cols), c
        return best
    for rows in permutations(range(k_ref), k):
        c = sum(cost[rows[j], j] for j in range(k))
        if c < best_cost:
            best, best_cost = rows, c
    match = [None] * k_ref
    for j, r in enumerate(best):
        match[r] = j
    return match


def reference_psrf_report(traces, data, psrf):
    """The PSRF table as first written: the pooled reference by the dense
    error (``reference_index``), each chain's snapshots matched to it
    afresh by brute force, and an entry mu_l_1 for each reference label l
    matched in every snapshot of every chain, from the first coordinates
    of the matched means.  ``psrf`` is the scalar factor, which this does
    not check."""
    pooled = [s for t in traces for s in t.snapshots]
    mu_ref = pooled[reference_index(pooled, data)].dense_mu(data.p)
    report = {
        "theta": psrf([[s.theta for s in t.snapshots] for t in traces]),
        "k": psrf([[s.k for s in t.snapshots] for t in traces]),
    }
    per_chain = []
    for t in traces:
        chain = []
        for s in t.snapshots:
            mu = s.dense_mu(data.p)
            chain.append([None if r is None else mu[r, 0]
                          for r in _brute_force_match(mu_ref, mu)])
        per_chain.append(chain)
    for label in range(1, mu_ref.shape[0] + 1):
        seqs = [[firsts[label - 1] for firsts in chain] for chain in per_chain]
        if all(v is not None for seq in seqs for v in seq):
            report[f"mu_{label}_1"] = psrf([np.array(seq) for seq in seqs])
    return report


def reference_kmeans(values, k, seed=0, n_restarts=8, max_iters=100, s=None):
    """(mu, z, objective, reseeds): k-means with the Lloyd loop first written.

    The same restarts as ``fit_kmeans`` (even: k observations drawn without
    replacement; odd: means of a random partition), np.add.at sums, the
    squared norms recomputed at every assignment, and ``reseeds`` counting
    the empty clusters re-seeded at the worst-fit observation.  Iterates
    and restarts are ranked by the dense objective.  With ``s`` < p the
    means keep only the s rows of largest size-weighted squared norm
    (lower row first on ties), as ``fit_cmle`` does.  ``values`` is read
    C-ordered whatever its layout, so that the objective's ``np.sum`` adds
    in the order of ``fit_kmeans``' C-ordered residual buffer.
    """
    values = np.ascontiguousarray(values)
    p, n = values.shape
    streams = np.random.SeedSequence(seed).spawn(n_restarts)

    def assign(mu):
        d2 = (
            (values * values).sum(axis=0)[:, None]
            - 2.0 * values.T @ mu
            + (mu * mu).sum(axis=0)[None, :]
        )
        return d2.argmin(axis=1) + 1

    best = (None, None, inf)
    reseeds = 0
    for r in range(n_restarts):
        rng = np.random.default_rng(streams[r])
        if r % 2 == 0:
            mu = values[:, rng.choice(n, size=k, replace=False)].copy()
        else:
            z0 = np.empty(n, dtype=int)
            z0[:k] = np.arange(1, k + 1)
            z0[k:] = rng.integers(1, k + 1, size=n - k)
            rng.shuffle(z0)
            sums = np.zeros((p, k))
            np.add.at(sums.T, z0 - 1, values.T)
            mu = sums / np.bincount(z0, minlength=k + 1)[1:][None, :]
        z_prev = None
        run_best = (None, None, inf)
        for _ in range(max_iters):
            z = assign(mu)
            sizes = np.bincount(z, minlength=k + 1)[1:]
            for _attempt in range(k):
                if not (sizes == 0).any():
                    break
                resid = ((values - mu[:, z - 1]) ** 2).sum(axis=0)
                mu[:, int(np.flatnonzero(sizes == 0)[0])] = values[:, int(np.argmax(resid))]
                reseeds += 1
                z = assign(mu)
                sizes = np.bincount(z, minlength=k + 1)[1:]
            sums = np.zeros((p, k))
            np.add.at(sums.T, z - 1, values.T)
            nonempty = sizes > 0
            mu = mu.copy()
            mu[:, nonempty] = sums[:, nonempty] / sizes[nonempty][None, :]
            if s is not None and s < p:
                row_gain = (mu * mu) @ sizes.astype(float)
                mu[np.argsort(-row_gain, kind="stable")[s:]] = 0.0
            resid = values - mu[:, z - 1]
            obj = float(np.sum(resid * resid))
            if obj < run_best[2]:
                run_best = (mu.copy(), z.copy(), obj)
            if z_prev is not None and np.array_equal(z, z_prev):
                break
            z_prev = z
        if run_best[2] < best[2]:
            best = run_best
    return best + (reseeds,)


def reference_generate(spec):
    """(values, z, means) of ``generate(spec)``, as whole p x n expressions:
    the scenario's parameters, then labels, Gaussian noise scaled by the
    standard deviations of each observation's cluster, the t scaling, and
    the means added."""
    p, n, means, weights, variances, t_dof = _resolve(spec)
    rng = np.random.default_rng(spec.seed)
    z = rng.choice(weights.size, size=n, p=weights) + 1
    noise = rng.standard_normal((p, n)) * np.sqrt(variances[z - 1].T)
    if t_dof is not None:
        scale = np.sqrt(t_dof / rng.chisquare(t_dof, size=n))
        noise = noise * scale[None, :]
    return means[:, z - 1] + noise, z, means
