"""Direct forward simulation from the model's prior.

Independent of the sweep/reseating code path on purpose: joint-
distribution checks compare statistics of states drawn here against
states produced by alternating data regeneration with sampler
transitions.  Only active mixture components are materialized (empty
components are marginalized out, matching the partition representation
the sampler works with).
"""

from __future__ import annotations

import numpy as np

from .core import COLUMN_SSL, DataMatrix, Hyperparams, ModelState
from .distributions import log_trunc_poisson_table


def forward_prior_state(n: int, p: int, hyper: Hyperparams, rng: np.random.Generator) -> ModelState:
    """One state drawn from the prior: component count, weights, labels,
    inclusion probability, indicators, auxiliaries, means."""
    log_pk = log_trunc_poisson_table(hyper.poisson_lambda, hyper.k_max)
    k_comp = rng.choice(hyper.k_max, p=np.exp(log_pk)) + 1
    w = rng.dirichlet(np.full(k_comp, hyper.alpha))
    z_raw = rng.choice(k_comp, size=n, p=w) + 1

    # densify by order of first appearance; empty components vanish
    _, first_idx = np.unique(z_raw, return_index=True)
    order = z_raw[np.sort(first_idx)]
    lut = np.zeros(k_comp + 1, dtype=int)
    lut[order] = np.arange(1, order.size + 1)
    z = lut[z_raw]
    k = order.size

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
