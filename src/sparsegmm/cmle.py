"""Alternating-minimization heuristic for the row-sparse K-center objective.

Minimizes ||Y - mu L^T||_F^2 over K cluster centers that share at most s
non-zero rows.  The global problem is nonconvex with a combinatorial
feasible set; this module is an explicitly heuristic Lloyd-style
alternation with a joint row-sparsity projection, run from multiple
restarts.  With s = p the projection is the identity and the procedure
reduces to ordinary k-means.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import DataMatrix, cluster_sums, residual_score
from .errors import ConfigError

# elements per block of squared rows in ``_sq_norms``: a 256 KB buffer
_SQ_BLOCK = 2**15


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


def _sq_residuals(values: np.ndarray, mu: np.ndarray, z: np.ndarray,
                  order: str = "C") -> np.ndarray:
    """(values - mu[:, z - 1]) ** 2 in one p x n buffer, without that
    expression's two other p x n temporaries.  The buffer is C-ordered, or
    with ``order="K"`` laid out as ``values``, as the expression lays out
    its result, so that sums along an axis are bitwise the expression's."""
    resid = np.empty_like(values, order=order)
    np.take(mu, z - 1, axis=1, out=resid, mode="clip")  # "raise" would buffer a copy
    np.subtract(values, resid, out=resid)
    np.multiply(resid, resid, out=resid)
    return resid


def _objective(values: np.ndarray, mu: np.ndarray, z: np.ndarray) -> float:
    """||values - mu[:, z - 1]||_F^2."""
    return float(np.sum(_sq_residuals(values, mu, z)))


def _sq_norms(values: np.ndarray) -> np.ndarray:
    """Squared norm of each column, bitwise equal to ``(values * values).sum(axis=0)``
    without its p x n temporary.

    On a C-ordered matrix with n > 1 that sum adds the squared rows one by
    one into the running sum, so blocks of rows are squared into a small
    buffer behind a first row holding the running sum, and each block is
    reduced along axis 0 the same way.  Otherwise the reduction runs along
    contiguous memory, where numpy sums pairwise, so the whole sum is taken.
    """
    p, n = values.shape
    if n == 1 or not values.flags.c_contiguous:
        return (values * values).sum(axis=0)
    rows = max(1, _SQ_BLOCK // n)
    buf = np.zeros((rows + 1, n))
    out = np.zeros(n)
    for start in range(0, p, rows):
        block = values[start:start + rows]
        buf[0] = out
        np.multiply(block, block, out=buf[1:block.shape[0] + 1])
        np.add.reduce(buf[:block.shape[0] + 1], axis=0, out=out)
    return out


def _assign(values: np.ndarray, sq_norms: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Nearest center per observation, ties to the lowest index.

    ``sq_norms`` holds the squared norm of each observation (column).  The
    (K, n) distances come from ``mu.T @ values``, the faster layout of the
    product.
    """
    d2 = sq_norms[None, :] - 2.0 * (mu.T @ values) + (mu * mu).sum(axis=0)[:, None]
    return d2.argmin(axis=0) + 1


def _single_run(
    data: DataMatrix,
    sq_norms: np.ndarray,
    config: CmleConfig,
    init_centers: np.ndarray,
    max_iters: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """(mu, z, score) of the best Lloyd iterate.  The score is the objective
    less the constant ||values||_F^2, taken from the cluster sums, so it
    ranks iterates and restarts as the objective does without a p x n pass.
    The run stops at the first assignment equal to the one before it: that
    partition's sums, means and score are the ones already taken.
    ``sq_norms`` holds the squared norm of each observation."""
    values = data.values
    k = config.k
    mu = init_centers.copy()
    z_prev = None
    best = (None, None, np.inf)
    for _ in range(max_iters):
        z = _assign(values, sq_norms, mu)
        # re-seed empty clusters at the worst-fit observation (bounded:
        # duplicated observations can make a reseed futile)
        sizes = np.bincount(z, minlength=k + 1)[1:]
        for _attempt in range(k):
            if not (sizes == 0).any():
                break
            worst = int(np.argmax(_sq_residuals(values, mu, z, "K").sum(axis=0)))
            empty = int(np.flatnonzero(sizes == 0)[0])
            mu[:, empty] = values[:, worst]
            z = _assign(values, sq_norms, mu)
            sizes = np.bincount(z, minlength=k + 1)[1:]
        if z_prev is not None and np.array_equal(z, z_prev):
            break
        sums = cluster_sums(data.obs, z, k)
        nonempty = sizes > 0
        new_mu = mu.copy()
        new_mu[:, nonempty] = sums.T[:, nonempty] / sizes[nonempty][None, :]
        mu = sparsify_rows(new_mu, config.s, sizes)
        score = residual_score(sums, mu.T, z)
        if score < best[2]:
            best = (mu.copy(), z.copy(), score)
        z_prev = z
    return best


def fit_cmle(
    data: DataMatrix,
    config: CmleConfig,
    init_centers: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """(mu_hat, z_hat, objective): best of n_restarts alternating runs.

    mu_hat is p x K with at most s non-zero rows (p if s is None); z_hat
    holds labels 1..K.  Even restarts seed centers at K observations drawn
    without replacement, odd restarts at the means of a random partition
    (better basin coverage on small instances); each restart uses an
    independent stream, so the best-of-restarts objective is
    non-increasing in n_restarts.  ``init_centers`` replaces the seeding
    of the first restart (useful for warm starts).
    """
    mu, z = _best_of_restarts(data, config, init_centers)
    return mu, z, _objective(data.values, mu, z)


def _best_of_restarts(
    data: DataMatrix, config: CmleConfig, init_centers: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """``fit_cmle``'s (mu_hat, z_hat), without the objective's p x n pass."""
    values = data.values
    p, n = values.shape
    if config.k > n:
        raise ConfigError(f"k={config.k} exceeds n={n}")
    if config.s is None:
        config = replace(config, s=p)
    if config.s > p:
        raise ConfigError(f"s={config.s} exceeds p={p}")
    streams = np.random.SeedSequence(config.seed).spawn(config.n_restarts)
    sq_norms = _sq_norms(values)
    best = (None, None, np.inf)
    for r in range(config.n_restarts):
        if r == 0 and init_centers is not None:
            centers = np.asarray(init_centers, dtype=float).copy()
            if centers.shape != (p, config.k):
                raise ConfigError("init_centers must be p x K")
        else:
            rng = np.random.default_rng(streams[r])
            if r % 2 == 0:
                idx = rng.choice(n, size=config.k, replace=False)
                centers = values[:, idx].copy()
            else:
                z0 = np.empty(n, dtype=int)
                z0[: config.k] = np.arange(1, config.k + 1)
                z0[config.k :] = rng.integers(1, config.k + 1, size=n - config.k)
                rng.shuffle(z0)
                sizes = np.bincount(z0, minlength=config.k + 1)[1:]
                centers = cluster_sums(data.obs, z0, config.k).T / sizes[None, :]
        mu, z, score = _single_run(data, sq_norms, config, centers, config.max_iters)
        if score < best[2]:
            best = (mu, z, score)
    mu, z, _ = best
    return mu, z


def fit_kmeans(
    data: DataMatrix, k: int, n_restarts: int = 8, seed: int = 0, max_iters: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """(mu_hat, z_hat) of plain k-means: ``fit_cmle`` without a row budget
    and without the objective, which a start does not read."""
    config = CmleConfig(k=k, max_iters=max_iters, n_restarts=n_restarts, seed=seed)
    return _best_of_restarts(data, config, None)
