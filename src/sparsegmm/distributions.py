"""Primitive samplers and log-densities used by the Gibbs conditionals.

Only what the sampler needs: the generalized inverse Gaussian (GIG) at
order 1/2 (one vector, or a matrix row by row), the truncated Poisson
pmf, and log-domain categorical sampling.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import SparseGmmError

# Below this, the inverse-Gaussian parameterization of the GIG degenerates;
# such draws are routed to the chi=0 Gamma branch instead.
_CHI_GUARD = 1e-300
# Below this, numpy's inverse-Gaussian draw loses accuracy (relative error
# ~ machine epsilon / chi) and underflows to 0 once chi is near 1e-30.
_CHI_WALD = 1e-8


def sample_gig_half_vector(
    chi: np.ndarray, tau: float, rng: np.random.Generator
) -> np.ndarray:
    """Vector of GIG(1/2, chi_j, tau) draws.

    X ~ GIG(1/2, chi, tau) iff 1/X ~ InverseGaussian(sqrt(tau/chi), tau).
    Coordinates with chi above 1e-8 are drawn first (one numpy
    inverse-Gaussian block, ascending index), then those with chi in
    (1e-300, 1e-8] (see ``_gig_half_small_chi``), then the remaining
    coordinates as one Gamma block (ascending index).
    """
    chi = np.asarray(chi, dtype=float)
    out = np.empty_like(chi)
    big = chi > _CHI_WALD
    if big.any():
        out[big] = 1.0 / rng.wald(np.sqrt(tau / chi[big]), tau)
    small = ~big & (chi > _CHI_GUARD)
    if small.any():
        out[small] = _gig_half_small_chi(chi[small], tau, rng)
    zero = chi <= _CHI_GUARD
    if zero.any():
        out[zero] = rng.gamma(shape=0.5, scale=2.0 / tau, size=int(zero.sum()))
    return out


def sample_gig_half_rows(
    chi: np.ndarray, tau: float, rng: np.random.Generator
) -> np.ndarray:
    """(K, p) GIG(1/2, chi_cj, tau) draws, row after row, each row drawn as
    ``sample_gig_half_vector`` draws it.

    When every chi exceeds 1e-8, each row is one inverse-Gaussian block, so
    the rows' blocks concatenated are one row-major block: one call draws
    them all.  Otherwise the rows are drawn one call each.
    """
    if (chi > _CHI_WALD).all():
        return sample_gig_half_vector(chi, tau, rng)
    out = np.empty_like(chi)
    for c, row in enumerate(chi):
        out[c] = sample_gig_half_vector(row, tau, rng)
    return out


def _gig_half_small_chi(chi: np.ndarray, tau: float, rng: np.random.Generator) -> np.ndarray:
    """GIG(1/2, chi, tau) draws as reciprocals of inverse-Gaussian draws.

    The Michael-Schucany-Haas construction (one normal block, then one
    uniform block) with its smaller root m (1 + a - sqrt(a^2 + 2a))
    rewritten as m / (1 + a + sqrt(a) sqrt(a + 2)), which neither cancels
    nor overflows when the mean m = sqrt(tau / chi) is huge.
    """
    m = np.sqrt(tau / chi)
    a = m * rng.standard_normal(chi.size) ** 2 / (2.0 * tau)
    root = 1.0 + a + np.sqrt(a) * np.sqrt(a + 2.0)
    # the small root x = m / root is kept with probability m / (m + x)
    take_small = rng.random(chi.size) <= root / (root + 1.0)
    return np.where(take_small, root / m, 1.0 / (m * root))


def log_trunc_poisson_table(rate: float, k_max: int) -> np.ndarray:
    """Log pmf of a Poisson(rate) left-truncated at 1 and right-truncated
    at k_max: entry k - 1 holds log P(K = k), k = 1..k_max."""
    ks = np.arange(1, k_max + 1)
    logw = ks * math.log(rate) - gammaln(ks + 1)
    return logw - logsumexp(logw)


def sample_categorical_log(log_weights, rng: np.random.Generator) -> int:
    """Index j with probability exp(lw_j - logsumexp(lw)).

    Stable for weights separated by hundreds of nats; draws exactly one
    uniform, by one call of ``rng.random()`` (``rng`` may be any object
    with that method).  Written for the reseat step's few weights (at most
    k_max + 1): on Python floats, a handful cost less than the numpy calls
    that a vectorized version makes.  A list of floats is used as it is;
    other inputs are converted to one.
    """
    if isinstance(log_weights, list):
        lw = log_weights
    else:
        lw = np.asarray(log_weights, dtype=float).tolist()
    m = max(lw)
    if not math.isfinite(m):
        raise SparseGmmError("no finite log-weight")
    exp = math.exp
    total = 0.0
    cdf = []
    for w in lw:
        total += exp(w - m)
        cdf.append(total)
    if not total >= 1.0:  # a NaN after the first weight, which max() passes over
        raise SparseGmmError("a log-weight is NaN")
    j = bisect_right(cdf, rng.random() * total)
    return j if j < len(cdf) else len(cdf) - 1
