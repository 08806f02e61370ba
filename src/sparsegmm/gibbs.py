"""Chain orchestration: initialization, full sweeps, multi-chain runs.

Draw order within a chain is fixed for reproducibility.  One sweep
consumes randomness in this order:

1. reseating, observations i = 1..n ascending.  Before the first
   observation, the pass's auxiliary cluster: in column mode a block of
   p uniforms for its indicators (joint mode copies the shared row), then
   a block of p exponentials for its scales and a block of p standard
   normals for its mean.  Per observation: one categorical uniform;
   then, only if it opens a cluster, the same blocks for a fresh
   auxiliary.  The pass draws its categorical uniforms as blocks and
   reseats most observations in numpy blocks (see ``ReseatWorkspace``),
   which changes no draw and no choice: ``rng.random(m)`` gives the
   values of m scalar draws, before an auxiliary is drawn, and at the
   pass's end, the generator is put just after the uniforms used, and a
   block accepts only the choices the scalar step would make;
2. scale update given the means and indicators, clusters ascending
   (inverse-Gaussian block then Gamma block per cluster);
3. indicator update given the scales, with the means integrated out: in
   joint mode one block of p uniforms, features ascending, shared by the
   K tied rows; in column mode one cluster-major (K, p) block of uniforms;
4. mean update given the new indicators and the scales: one
   cluster-major (K, p) block of standard normals;
5. one Beta draw for theta.

Steps 3 and 4 together draw (xi, mu) given phi as one block.

This order is a contract.  A change that keeps it, and computes every
weight and statistic with the same floating-point operations, gives
byte-identical traces at equal seeds; ``scripts/trace_digest.py`` prints
digests of fixed-seed traces to compare two versions.  A change to the
order changes every trace and must pass the Geweke joint-distribution
checks in both SSL modes.

The reseat inner products are the one exception to "the same operations":
their layout sets their last bits, and they only steer categorical draws.
A draw moves only if its uniform falls within such a difference of a CDF
entry; moving every product by an ulp changes none of the tested
fixed-seed traces (see ``ReseatWorkspace``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .cmle import fit_kmeans
from .core import (
    ChainTrace,
    DataMatrix,
    Hyperparams,
    ModelState,
    Snapshot,
    TraceMeta,
    cluster_sums,
    residual_score,
    validate_dataset,
)
from .errors import ConfigError
from .ssl import build_context, update_mu, update_phi, update_theta, update_xi
from .urn import ReseatWorkspace, VnTable, build_vn_table, reseat_observation

SINGLE_CLUSTER = "single"
RANDOM_K = "random_k"
KMEANS = "kmeans"

_PROGRESS_EVERY = 100


@dataclass(frozen=True)
class InitSpec:
    """A start kind and its cluster count k; None is the prior count."""

    kind: str = KMEANS
    k: int | None = None

    def __post_init__(self):
        if self.kind not in (SINGLE_CLUSTER, RANDOM_K, KMEANS):
            raise ValueError(f"unknown init kind {self.kind!r}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"init k must be at least 1, got {self.k}")


@dataclass(frozen=True)
class RunConfig:
    """Chain execution settings (defaults: 1000 burn-in, 4000 kept, thin 1)."""

    n_burn: int = 1000
    n_keep: int = 4000
    n_chains: int = 1
    thin: int = 1
    seed: int = 0
    init: InitSpec | None = None
    store_dense_mu: bool = False

    def __post_init__(self):
        if self.n_burn < 0 or self.n_keep < 1 or self.thin < 1 or self.n_chains < 1:
            raise ValueError("need n_burn >= 0, n_keep >= 1, thin >= 1, n_chains >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")


@dataclass(frozen=True)
class ProgressEvent:
    chain_id: int
    iteration: int
    total: int
    k_active: int
    loglik: float


ProgressCallback = Callable[[ProgressEvent], None]


def _compact_labels(z: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """Relabel so that used labels become dense 1..K' preserving order."""
    used = np.unique(z)
    lut = np.zeros(k + 1, dtype=int)
    lut[used] = np.arange(1, used.size + 1)
    return lut[z], used.size


def _means_for_labels(data: DataMatrix, z: np.ndarray, k: int) -> np.ndarray:
    sums = cluster_sums(data.obs, z, k)
    sizes = np.bincount(z, minlength=k + 1)[1:]
    return sums / sizes[:, None]


def init_state(
    data: DataMatrix,
    hyper: Hyperparams,
    config: RunConfig,
    rng: np.random.Generator,
) -> ModelState:
    """Build the initial sampler state.

    Single-cluster: everything in one cluster at the sample mean.  Random
    assignment: labels uniform on 1..k, empty clusters compacted.
    k-means: the best of ``fit_kmeans``'s restarts (seeded from ``rng``).
    Means are set to the resulting cluster sample means; auxiliaries start
    at 1, indicators at 0, theta at its prior mean 1 / (1 + beta_theta).
    The start is k-means unless ``config.init`` says otherwise, and k is
    the prior count min(poisson rate, k_max) unless it sets k.  k_max is
    taken as given: ``run_chain`` clamps it to n before calling this.
    """
    spec = config.init or InitSpec()
    n, p = data.n, data.p

    prior_k = max(1, min(int(hyper.poisson_lambda), hyper.k_max))
    k = 1 if spec.kind == SINGLE_CLUSTER else spec.k or prior_k
    if k > hyper.k_max:
        raise ConfigError(f"init k={k} exceeds k_max={hyper.k_max}")

    if spec.kind == SINGLE_CLUSTER:
        z = np.ones(n, dtype=int)
    elif spec.kind == RANDOM_K:
        z = rng.integers(1, k + 1, size=n)
    else:
        _, z = fit_kmeans(data, k, seed=int(rng.integers(2**32)))
    z, k = _compact_labels(z, k)

    return ModelState(
        z=z,
        mu=_means_for_labels(data, z, k),
        phi=np.ones((k, p)),
        xi=np.zeros((k, p), dtype=np.int8),
        theta=1.0 / (1.0 + hyper.beta_theta),
    )


def sweep(
    state: ModelState,
    data: DataMatrix,
    vn: VnTable,
    hyper: Hyperparams,
    rng: np.random.Generator,
) -> ModelState:
    """One full iteration: reseat all observations, then phi, xi, mu, theta.

    The reseat pass runs in blocks (``ReseatWorkspace.advance``); each
    observation a block does not accept takes the scalar step."""
    ws = ReseatWorkspace(state, data, vn, hyper, rng)
    i = ws.advance(state.z, 0)
    while i < data.n:
        reseat_observation(i, state, ws, rng)
        i = ws.advance(state.z, i + 1)
    ws.finish()
    sums, sizes = build_context(state, data)
    update_phi(state, hyper, rng)
    update_xi(state, sums, sizes, hyper, rng)
    update_mu(state, sums, sizes, hyper, rng)
    update_theta(state, hyper, rng)
    return state


def _loglik(state: ModelState, data: DataMatrix, y_sq: float) -> float:
    """-||Y - mu_z||_F^2 / 2 from the cluster sums, given ``y_sq`` =
    ||Y||_F^2: no p x n residual is built."""
    sums = cluster_sums(data.obs, state.z, state.k_active)
    return -0.5 * (y_sq + residual_score(sums, state.mu, state.z))


def _take_snapshot(state: ModelState, store_dense: bool) -> Snapshot:
    support0 = np.flatnonzero(state.xi.any(axis=0))
    return Snapshot(
        z=state.z.copy(),
        k=state.k_active,
        theta=state.theta,
        support=support0 + 1,
        mu_support=state.mu[:, support0].copy(),
        mu_dense=state.mu.copy() if store_dense else None,
    )


def _prepare(data: DataMatrix, hyper: Hyperparams) -> tuple[Hyperparams, VnTable]:
    """Check the data, clamp k_max to n (warning at the caller of the public
    function that called this) and build the V_n table: once per run, for
    every chain."""
    validate_dataset(data)
    hyper_run = hyper
    if hyper.k_max > data.n:
        warnings.warn(f"k_max={hyper.k_max} exceeds n={data.n}; clamping to n", stacklevel=3)
        hyper_run = replace(hyper, k_max=data.n)
    return hyper_run, build_vn_table(data.n, hyper_run)


def _run_prepared(
    data: DataMatrix,
    hyper_run: Hyperparams,
    vn: VnTable,
    config: RunConfig,
    chain_id: int,
    rng: np.random.Generator | None,
    progress: ProgressCallback | None,
) -> ChainTrace:
    """``run_chain`` given what ``_prepare`` returns."""
    if rng is None:
        # the chain_id-th child of SeedSequence(seed).spawn(...)
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(chain_id,)))
    state = init_state(data, hyper_run, config, rng)
    total = config.n_burn + config.n_keep * config.thin
    y_sq = float(np.vdot(data.obs, data.obs)) if progress else 0.0  # obs ravels without a copy
    snaps: list[Snapshot] = []
    for it in range(1, total + 1):
        sweep(state, data, vn, hyper_run, rng)
        if progress and it % _PROGRESS_EVERY == 0:
            loglik = _loglik(state, data, y_sq)
            progress(ProgressEvent(chain_id, it, total, state.k_active, loglik))
        if it > config.n_burn and (it - config.n_burn) % config.thin == 0:
            snaps.append(_take_snapshot(state, config.store_dense_mu))
    meta = TraceMeta(
        n=data.n,
        p=data.p,
        n_burn=config.n_burn,
        thin=config.thin,
        seed=config.seed,
        chain_id=chain_id,
        hyper_digest=hyper_run.digest(),
        ssl_mode=hyper_run.ssl_mode,
    )
    return ChainTrace(snapshots=snaps, meta=meta)


def run_chain(
    data: DataMatrix,
    hyper: Hyperparams,
    config: RunConfig,
    chain_id: int = 0,
    rng: np.random.Generator | None = None,
    progress: ProgressCallback | None = None,
) -> ChainTrace:
    """Run one chain: n_burn discarded sweeps, then n_keep thinned snapshots.

    ``progress``, if given, is called every 100 sweeps.
    """
    hyper_run, vn = _prepare(data, hyper)
    return _run_prepared(data, hyper_run, vn, config, chain_id, rng, progress)


def run_chains(
    data: DataMatrix,
    hyper: Hyperparams,
    config: RunConfig,
    progress: ProgressCallback | None = None,
) -> list[ChainTrace]:
    """Run config.n_chains independent chains, one after another.

    Chain c owns the generator of the c-th stream spawned from the master
    seed, so it equals ``run_chain(..., chain_id=c)``; output is ordered
    by chain id.  The data check and the V_n table are made once, for
    every chain.
    """
    hyper_run, vn = _prepare(data, hyper)
    return [_run_prepared(data, hyper_run, vn, config, cid, None, progress)
            for cid in range(config.n_chains)]
