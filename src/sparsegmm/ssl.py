"""Full-conditional updates for the sparsity-inducing prior block.

The two-rate Laplace mixture prior on cluster means is handled through
its normal scale-mixture representation, which gives conjugate updates
for the means (normal), the scale auxiliaries phi (GIG), the inclusion
indicators xi (Bernoulli), and the inclusion probability theta (Beta).

The indicators are a (K, p) array in both SSL modes.  In joint mode the
K rows are tied: one indicator per feature, drawn once and written to
every row, and counted once by the theta update.  Apart from the
start's indicator screen, the sampler branches on the mode only here.

The Bernoulli update computes the slab probability with the shared
1/sqrt(phi) factors canceled between the slab and spike hypotheses;
under a shared indicator the factors are identical on both sides, so the
canceled and uncanceled forms agree exactly.
"""

from __future__ import annotations

import numpy as np

from .core import JOINT_SSL, DataMatrix, Hyperparams, ModelState, cluster_sums
from .distributions import sample_gig_half_rows
from .errors import LengthMismatchError

_THETA_FLOOR = 1e-300
_THETA_CEIL = 1.0 - 1e-16


def build_context(state: ModelState, data: DataMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(sums, sizes): the (K, p) cluster sums and (K,) sizes, recomputed
    from scratch (avoids incremental drift)."""
    sums = cluster_sums(data.values, state.z, state.k_active)
    sizes = state.cluster_sizes()
    if sizes.sum() != data.n:
        raise LengthMismatchError("cluster sizes do not sum to n")
    if (sizes < 1).any():
        raise LengthMismatchError("every active cluster must be non-empty")
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


def slab_log_odds(
    sq_sum: np.ndarray, n_terms: int, lambda0: float, lambda1: float, theta: float
) -> np.ndarray:
    """log odds of the slab hypothesis for each feature.

    sq_sum is the per-feature sum of mu^2/phi over the clusters entering
    the product (all K in joint mode, a single cluster in column mode);
    n_terms is the number of factors in that product.
    """
    theta = min(max(theta, _THETA_FLOOR), _THETA_CEIL)
    log_slab = n_terms * np.log(lambda1) - 0.5 * lambda1**2 * sq_sum + np.log(theta)
    log_spike = n_terms * np.log(lambda0) - 0.5 * lambda0**2 * sq_sum + np.log1p(-theta)
    return log_slab - log_spike


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def update_xi(state: ModelState, hyper: Hyperparams, rng: np.random.Generator) -> ModelState:
    """Redraw the inclusion indicators from their Bernoulli conditionals.

    Joint mode: one indicator per feature, product over all active
    clusters, one block of p uniforms in ascending feature order, written
    to all K rows.  Column mode: per-cluster indicators, one cluster-major
    (K, p) block of uniforms.
    """
    ratio = state.mu**2 / state.phi
    if hyper.ssl_mode == JOINT_SSL:
        odds = slab_log_odds(
            ratio.sum(axis=0), state.k_active, hyper.lambda0, hyper.lambda1, state.theta
        )
        u = rng.random(state.p)
    else:
        odds = slab_log_odds(ratio, 1, hyper.lambda0, hyper.lambda1, state.theta)
        u = rng.random(state.mu.shape)
    state.xi = np.broadcast_to(u < _sigmoid(odds), state.mu.shape).astype(np.int8)
    return state


def theta_conditional_shapes(xi: np.ndarray, beta_theta: float) -> tuple[float, float]:
    """Beta shapes (1 + sum xi, beta_theta + #indicators - sum xi)."""
    total = int(xi.sum())
    count = int(xi.size)
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
