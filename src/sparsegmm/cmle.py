"""Alternating-minimization heuristic for the row-sparse K-center objective.

Minimizes ||Y - mu L^T||_F^2 over K cluster centers that share at most s
non-zero rows.  The global problem is nonconvex with a combinatorial
feasible set; this module is an explicitly heuristic Lloyd-style
alternation with a joint row-sparsity projection, run from multiple
restarts.  With s = p the projection is the identity and the procedure
reduces to ordinary k-means.

The restarts run in lockstep: each Lloyd round reads the data twice for
all of them together, once in one distance product over every live
restart's stacked centers and once in one sparse product that sums every
live restart's clusters.  Each restart still keeps its own assignment,
empty-cluster reseeds, stopping round and best iterate.  The sums feed the
centers and are bitwise those of ``core.cluster_sums``.  The distances and
the reseed's residual sums only choose an argmin or an argmax, so they
keep no bits for their own sake: the distances leave out each
observation's squared norm, the same for every center, and their last
bits can differ from those of a product per restart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataMatrix, residual_score, stacked_cluster_sums
from .errors import ConfigError


@dataclass(frozen=True)
class CmleConfig:
    """K centers with at most s non-zero rows; s = None (no budget) is k-means."""

    k: int
    s: int | None = None
    max_iters: int = 100
    n_restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if min(self.k, 1 if self.s is None else self.s, self.max_iters, self.n_restarts) < 1:
            raise ConfigError("k, s, max_iters, n_restarts must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")


def sparsify_rows(mu: np.ndarray, s: int, sizes: np.ndarray | None = None) -> np.ndarray:
    """Best s-row projection for fixed assignments.

    Keeps the s rows with the largest size-weighted squared row norm
    sum_k n_k mu_jk^2 (these are the rows whose removal would increase
    the objective most) and zeros the rest.  Ties break toward the lower
    row index.  s >= p is the identity.
    """
    p, k = mu.shape
    if s >= p:
        return mu.copy()
    w = np.ones(k) if sizes is None else np.asarray(sizes, dtype=float)
    score = (mu * mu) @ w
    # stable sort on (-score, index) keeps lower indices on ties
    keep = np.argsort(-score, kind="stable")[:s]
    out = np.zeros_like(mu)
    out[keep] = mu[keep]
    return out


def _sq_residuals(values: np.ndarray, mu: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(values - mu[:, z - 1]) ** 2 in one C-ordered p x n buffer, without
    that expression's two other p x n temporaries."""
    resid = np.empty_like(values, order="C")
    np.take(mu, z - 1, axis=1, out=resid, mode="clip")  # "raise" would buffer a copy
    np.subtract(values, resid, out=resid)
    np.multiply(resid, resid, out=resid)
    return resid


def _objective(values: np.ndarray, mu: np.ndarray, z: np.ndarray) -> float:
    """||values - mu[:, z - 1]||_F^2."""
    return float(np.sum(_sq_residuals(values, mu, z)))


def _assign_stacked(values: np.ndarray, centers: np.ndarray, k: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """(A, n) nearest-center labels of A restarts at once, ties to the lowest
    index within each restart.

    ``centers`` is (p, A * k): restart a's k centers are columns a * k to
    a * k + k - 1.  Each observation y goes to the center c with the least
    ||c||^2 - 2 c.y: its squared distance less ||y||^2, which is the same
    for every center and so cannot change the argmin.  The (A * k, n)
    products come from one ``centers.T @ values``, the faster layout of the
    product, computed in place in ``out`` (a flat buffer of at least
    A * k * n elements) when one is given.
    """
    rows = centers.shape[1]
    n = values.shape[1]
    buf = None if out is None else out[:rows * n].reshape(rows, n)
    d2 = np.matmul(centers.T, values, out=buf)
    d2 *= -2.0
    d2 += (centers * centers).sum(axis=0)[:, None]
    return np.stack([block.argmin(axis=0) + 1 for block in d2.reshape(-1, k, n)])


def _assign(values: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Nearest center per observation for one restart's (p, K) centers."""
    return _assign_stacked(values, mu, mu.shape[1])[0]


def _starting_centers(data: DataMatrix, config: CmleConfig) -> list[np.ndarray]:
    """The (p, K) starting centers of every restart: even restarts at K
    observations drawn without replacement, odd ones at the means of a
    random partition (their sums taken in one product)."""
    values = data.values
    p, n = values.shape
    k = config.k
    streams = np.random.SeedSequence(config.seed).spawn(config.n_restarts)
    centers: list[np.ndarray | None] = [None] * config.n_restarts
    partitions = {}
    for r in range(config.n_restarts):
        rng = np.random.default_rng(streams[r])
        if r % 2 == 0:
            centers[r] = values[:, rng.choice(n, size=k, replace=False)].copy()
        else:
            z0 = np.empty(n, dtype=int)
            z0[:k] = np.arange(1, k + 1)
            z0[k:] = rng.integers(1, k + 1, size=n - k)
            rng.shuffle(z0)
            partitions[r] = z0
    if partitions:
        sums = stacked_cluster_sums(data.obs, list(partitions.values()), k)
        for j, (r, z0) in enumerate(partitions.items()):
            sizes = np.bincount(z0, minlength=k + 1)[1:]
            centers[r] = sums[j * k:(j + 1) * k].T / sizes[None, :]
    return centers


def fit_cmle(data: DataMatrix, config: CmleConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """(mu_hat, z_hat, objective): best of n_restarts alternating runs.

    mu_hat is p x K with at most s non-zero rows (p if s is None); z_hat
    holds labels 1..K.  Even restarts seed centers at K observations drawn
    without replacement, odd restarts at the means of a random partition
    (better basin coverage on small instances); each restart uses an
    independent stream, so the best-of-restarts objective is
    non-increasing in n_restarts.

    The restarts advance in lockstep, one Lloyd round at a time: one
    distance product and one sparse sums product per round serve every
    restart still running.  Each run stops at its first repeated
    assignment (or after max_iters rounds) and keeps its best iterate; the
    first restart with the strictly smallest score wins, as when the
    restarts ran one after another.
    """
    mu, z = _best_of_restarts(data, config)
    return mu, z, _objective(data.values, mu, z)


def _best_of_restarts(data: DataMatrix, config: CmleConfig) -> tuple[np.ndarray, np.ndarray]:
    """``fit_cmle``'s (mu_hat, z_hat), without the objective's p x n pass.

    A run keeps the best of its iterates by score: the objective less the
    constant ||values||_F^2, taken from the cluster sums, so it ranks
    iterates and restarts as the objective does without a p x n pass.  A
    run stops at the first assignment equal to the one before it: that
    partition's sums, means and score are the ones already taken.
    """
    values = data.values
    p, n = values.shape
    k = config.k
    if k > n:
        raise ConfigError(f"k={k} exceeds n={n}")
    s = p if config.s is None else config.s
    if s > p:
        raise ConfigError(f"s={s} exceeds p={p}")
    mus = _starting_centers(data, config)
    restarts = config.n_restarts
    best = [(None, None, np.inf)] * restarts
    z_prev = [None] * restarts
    live = list(range(restarts))
    # flat buffers for the live restarts' stacked centers and distances
    stacked_buf = np.empty(p * k * restarts)
    dist_buf = np.empty(k * restarts * n)
    for _ in range(config.max_iters):
        stacked = stacked_buf[:p * k * len(live)].reshape(p, k * len(live))
        np.concatenate([mus[r] for r in live], axis=1, out=stacked)
        labels = _assign_stacked(values, stacked, k, dist_buf)
        moved = []
        for j, r in enumerate(live):
            z, mu = labels[j], mus[r]
            # re-seed empty clusters at the worst-fit observation (bounded:
            # duplicated observations can make a reseed futile)
            sizes = np.bincount(z, minlength=k + 1)[1:]
            for _attempt in range(k):
                if not (sizes == 0).any():
                    break
                worst = int(np.argmax(_sq_residuals(values, mu, z).sum(axis=0)))
                mu[:, int(np.flatnonzero(sizes == 0)[0])] = values[:, worst]
                z = _assign(values, mu)
                sizes = np.bincount(z, minlength=k + 1)[1:]
            if z_prev[r] is None or not np.array_equal(z, z_prev[r]):
                moved.append((r, z, sizes))
        if not moved:
            break
        sums = stacked_cluster_sums(data.obs, [z for _, z, _ in moved], k)
        for j, (r, z, sizes) in enumerate(moved):
            run_sums = sums[j * k:(j + 1) * k]
            nonempty = sizes > 0
            new_mu = mus[r].copy()
            new_mu[:, nonempty] = run_sums.T[:, nonempty] / sizes[nonempty][None, :]
            mus[r] = sparsify_rows(new_mu, s, sizes)
            score = residual_score(run_sums, mus[r].T, z)
            if score < best[r][2]:
                best[r] = (mus[r].copy(), z.copy(), score)
            z_prev[r] = z
        live = [r for r, _, _ in moved]
    # the first restart with the strictly smallest score
    mu, z, _ = min(best, key=lambda run: run[2])
    return mu, z


def fit_kmeans(
    data: DataMatrix, k: int, n_restarts: int = 8, seed: int = 0, max_iters: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """(mu_hat, z_hat) of plain k-means: ``fit_cmle`` without a row budget
    and without the objective, which a start does not read."""
    config = CmleConfig(k=k, max_iters=max_iters, n_restarts=n_restarts, seed=seed)
    return _best_of_restarts(data, config)
