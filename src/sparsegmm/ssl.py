"""Full-conditional updates for the sparsity-inducing prior block.

The two-rate Laplace mixture prior on cluster means is handled through
its normal scale-mixture representation, which gives conjugate updates
for the means (normal), the scale auxiliaries phi (GIG), the inclusion
indicators xi (Bernoulli), and the inclusion probability theta (Beta).

The indicators are a (K, p) array in both SSL modes.  In joint mode the
K rows are tied: one indicator per feature, drawn once and written to
every row, and counted once by the theta update.  The sampler branches on
the mode only here.

The indicators are drawn with the means integrated out (the SSVS
indicator update of George and McCulloch 1993).  Given phi, the
evidence of cluster c's data for mu_cj ~ N(0, phi_cj / lambda^2) depends
on its size n_c and its sum S_cj alone; up to terms free of lambda its
log is g(lambda) = S^2 / (2 (n_c + lambda^2/phi)) -
log1p(n_c phi / lambda^2) / 2.  The slab log-odds are g(lambda1) -
g(lambda0), summed over the clusters in joint mode, plus logit(theta).
The means are then redrawn given the new indicators.  phi's prior does
not depend on xi, so the two draws are one exact Gibbs block for
(xi, mu) given phi, and a cluster whose mean sits in the spike can still
switch its indicators on.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .core import JOINT_SSL, DataMatrix, Hyperparams, ModelState, cluster_sums
from .distributions import sample_gig_half_rows
from .errors import SparseGmmError

_THETA_FLOOR = 1e-300
_THETA_CEIL = 1.0 - 1e-16


def build_context(state: ModelState, data: DataMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(sums, sizes): the (K, p) cluster sums and (K,) sizes, recomputed
    from scratch (avoids incremental drift)."""
    sums = cluster_sums(data.obs, state.z, state.k_active)
    sizes = state.cluster_sizes()
    if sizes.sum() != data.n:
        raise SparseGmmError("cluster sizes do not sum to n")
    if (sizes < 1).any():
        raise SparseGmmError("every active cluster must be non-empty")
    return sums, sizes


def _lambda_sq(state: ModelState, hyper: Hyperparams) -> np.ndarray:
    """(K, p) array of lambda_{xi}^2 values matching mu's layout."""
    return np.where(state.xi == 1, hyper.lambda1**2, hyper.lambda0**2)


def update_mu(
    state: ModelState,
    sums: np.ndarray,
    sizes: np.ndarray,
    hyper: Hyperparams,
    rng: np.random.Generator,
) -> ModelState:
    """Redraw every coordinate of every active cluster mean in place.

    One (K, p) block of standard normals, cluster-major: cluster by
    cluster in ascending label order, coordinates ascending within each.
    """
    prec = sizes[:, None] + _lambda_sq(state, hyper) / state.phi
    state.mu[:] = sums / prec + rng.standard_normal(state.mu.shape) / np.sqrt(prec)
    return state


def update_phi(state: ModelState, hyper: Hyperparams, rng: np.random.Generator) -> ModelState:
    """Redraw the scale auxiliaries: (phi_c)_j ~ GIG(1/2, mu_cj^2 lambda_{xi}^2, 1).

    Cluster-ascending; see sample_gig_half_rows for the draw order.
    """
    state.phi[:] = sample_gig_half_rows(state.mu**2 * _lambda_sq(state, hyper), 1.0, rng)
    return state


def indicator_log_odds(
    state: ModelState, sums: np.ndarray, sizes: np.ndarray, hyper: Hyperparams
) -> np.ndarray:
    """Slab log-odds given phi with the means integrated out: (p,) in
    joint mode, (K, p) in column mode."""
    n, phi = sizes[:, None], state.phi

    def log_evidence(lam: float) -> np.ndarray:
        return 0.5 * sums**2 / (n + lam**2 / phi) - 0.5 * np.log1p(n * phi / lam**2)

    gain = log_evidence(hyper.lambda1) - log_evidence(hyper.lambda0)
    if hyper.ssl_mode == JOINT_SSL:
        gain = gain.sum(axis=0)
    theta = min(max(state.theta, _THETA_FLOOR), _THETA_CEIL)
    return gain + (np.log(theta) - np.log1p(-theta))


def update_xi(
    state: ModelState,
    sums: np.ndarray,
    sizes: np.ndarray,
    hyper: Hyperparams,
    rng: np.random.Generator,
) -> ModelState:
    """Redraw the inclusion indicators given phi, with the means integrated out.

    Joint mode: one indicator per feature, one block of p uniforms in
    ascending feature order, written to all K rows.  Column mode:
    per-cluster indicators, one cluster-major (K, p) block of uniforms.
    """
    odds = indicator_log_odds(state, sums, sizes, hyper)
    on = rng.random(odds.shape) < expit(odds)
    state.xi = np.broadcast_to(on, state.mu.shape).astype(np.int8)
    return state


def theta_conditional_shapes(xi: np.ndarray, beta_theta: float) -> tuple[float, float]:
    """Beta shapes (1 + sum xi, beta_theta + #indicators - sum xi).

    With every indicator on the second shape is beta_theta itself: summed
    left to right, a tiny beta_theta would be lost in (beta_theta + count)
    and the difference would be 0, which no Beta draw accepts.
    """
    total = int(xi.sum())
    count = int(xi.size)
    if total == count:
        return 1.0 + total, float(beta_theta)
    return 1.0 + total, beta_theta + count - total


def update_theta(state: ModelState, hyper: Hyperparams, rng: np.random.Generator) -> ModelState:
    """Redraw theta from its Beta conditional (one draw); joint mode counts
    its tied indicators once."""
    xi = state.xi[0] if hyper.ssl_mode == JOINT_SSL else state.xi
    a, b = theta_conditional_shapes(xi, hyper.beta_theta)
    draw = float(rng.beta(a, b))
    state.theta = min(max(draw, _THETA_FLOOR), _THETA_CEIL)
    return state


def sample_prior_xi(
    xi: np.ndarray, theta: float, hyper: Hyperparams, rng: np.random.Generator
) -> np.ndarray:
    """Indicators of a cluster opened beside the (K, p) rows ``xi``: the
    shared row in joint mode (no draws); xi_j ~ Bernoulli(theta) in column
    mode, one block of p uniforms."""
    if hyper.ssl_mode == JOINT_SSL:
        return xi[0]
    return (rng.random(xi.shape[1]) < theta).astype(np.int8)


def sample_prior_phi(p: int, rng: np.random.Generator) -> np.ndarray:
    """phi_j ~ Exp(rate 1/2), the scale-mixture prior for the auxiliaries."""
    return rng.exponential(2.0, size=p)


def sample_prior_mu(
    xi_row: np.ndarray, phi: np.ndarray, hyper: Hyperparams, rng: np.random.Generator
) -> np.ndarray:
    """mu_j ~ N(0, phi_j / lambda_{xi_j}^2), one normal block ascending."""
    lam_sq = np.where(xi_row == 1, hyper.lambda1**2, hyper.lambda0**2)
    return rng.standard_normal(phi.size) * np.sqrt(phi / lam_sq)
