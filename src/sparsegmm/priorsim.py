"""Direct forward simulation from the model's prior, and Geweke's (2004)
joint-distribution test built on it.

``forward_prior_state`` is independent of the sweep/reseating code path on
purpose; ``geweke`` is what calls the sweep, to compare states drawn here
with states from alternating data regeneration and sampler transitions.
Only active mixture components are materialized (empty components are
marginalized out, matching the partition representation of the sampler).
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from . import gibbs
from .core import COLUMN_SSL, DataMatrix, Hyperparams, ModelState
from .distributions import log_trunc_poisson_table
from .urn import build_vn_table


@functools.cache
def _k_prior(poisson_lambda: float, k_max: int) -> np.ndarray:
    """P(K = k), k = 1..k_max, built once per prior (read-only)."""
    pk = np.exp(log_trunc_poisson_table(poisson_lambda, k_max))
    pk.flags.writeable = False
    return pk


def forward_prior_state(n: int, p: int, hyper: Hyperparams, rng: np.random.Generator) -> ModelState:
    """One state drawn from the prior: component count, weights, labels,
    inclusion probability, indicators, auxiliaries, means."""
    k_comp = rng.choice(hyper.k_max, p=_k_prior(hyper.poisson_lambda, hyper.k_max)) + 1
    w = rng.dirichlet(np.full(k_comp, hyper.alpha))
    z_raw = rng.choice(k_comp, size=n, p=w) + 1

    # densify by order of first appearance; empty components vanish
    order = list(dict.fromkeys(z_raw.tolist()))
    lut = np.zeros(k_comp + 1, dtype=int)
    lut[order] = np.arange(1, len(order) + 1)
    z = lut[z_raw]
    k = len(order)

    theta = float(rng.beta(1.0, hyper.beta_theta))
    xi_shape = (k, p) if hyper.ssl_mode == COLUMN_SSL else (p,)
    xi = np.broadcast_to(rng.random(xi_shape) < theta, (k, p)).astype(np.int8)
    phi = rng.exponential(2.0, size=(k, p))
    lam = np.where(xi == 1, hyper.lambda1, hyper.lambda0)
    mu = rng.standard_normal((k, p)) * np.sqrt(phi) / lam
    return ModelState(z=z, mu=mu, phi=phi, xi=xi, theta=theta)


def regenerate_data(state: ModelState, rng: np.random.Generator) -> DataMatrix:
    """Y_i ~ N(mu_{z_i}, I_p) given the current state."""
    means = state.mu[state.z - 1].T
    return DataMatrix(values=means + rng.standard_normal(means.shape))


def batch_means_se(x: np.ndarray, n_batches: int = 50) -> float:
    """Autocorrelation-robust standard error of the mean via batch means."""
    x = np.asarray(x, dtype=float)
    length = (x.size // n_batches) * n_batches
    if length == 0:
        raise ValueError("sequence too short for the requested batch count")
    batches = x[:length].reshape(n_batches, -1).mean(axis=1)
    return float(batches.std(ddof=1) / np.sqrt(n_batches))


def geweke(n: int, p: int, hyper: Hyperparams, rounds: int, stats: Callable,
           seeds: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """``(forward, chain)``, two ``(rounds, m)`` arrays of ``stats(state)``:
    of independent prior states on ``default_rng(seeds[0])``, and of a chain
    on ``default_rng(seeds[1])`` that starts from one and, each round,
    regenerates the data, then sweeps.  Exact transitions keep both at the prior."""
    rng = np.random.default_rng(seeds[0])
    forward = np.array([stats(forward_prior_state(n, p, hyper, rng)) for _ in range(rounds)],
                       dtype=float)
    rng = np.random.default_rng(seeds[1])
    state = forward_prior_state(n, p, hyper, rng)
    vn = build_vn_table(n, hyper)
    chain = np.empty_like(forward)
    for row in chain:
        gibbs.sweep(state, regenerate_data(state, rng), vn, hyper, rng)
        row[:] = stats(state)
    return forward, chain


def geweke_z(forward: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """|z| per column of ``geweke``'s arrays; the forward side's standard
    error is the iid one, the chain's is by batch means."""
    root = math.sqrt(forward.shape[0])
    return np.array([abs(f.mean() - c.mean())
                     / math.hypot(f.std(ddof=1) / root, batch_means_se(c))
                     for f, c in zip(forward.T, chain.T)])


def k_probability_z(forward_k: np.ndarray, chain_k: np.ndarray, k_max: int) -> np.ndarray:
    """|z| of P(K = k), k = 1..k_max, from the two sides' K columns; the
    forward side's standard error is the binomial one."""
    out = []
    for k in range(1, k_max + 1):
        pf, on = (forward_k == k).mean(), (chain_k == k).astype(float)
        se = math.hypot(math.sqrt(pf * (1 - pf) / forward_k.size), batch_means_se(on))
        out.append(abs(pf - on.mean()) / se)
    return np.array(out)
