"""Partition-urn machinery: new-cluster coefficients and the reseating step.

The exchangeable-partition coefficients V_n(t) control the probability of
opening a new cluster while reseating a single observation.  Two modes
are provided:

* ``"exact"`` (default): the truncated-series definition
  V_n(t) = sum_{k=t}^{k_max} p_K(k) * k_(t) / (alpha*k)^(n),
  computed in the log domain (falling factorial k_(t), rising factorial
  (alpha*k)^(n)).  The truncated prior on the number of clusters makes
  the series finite, so this mode is exact.
* ``"stirling"``: the closed-form approximation
  V_n(t) ~= (t!/n!) * Gamma(alpha*t) / n^(alpha*t - 1) * p_K(t),
  kept for compatibility with the approximate recipe; it does not match
  the exact series and is off by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .core import COLUMN_SSL, DataMatrix, Hyperparams, ModelState
from .distributions import log_trunc_poisson_table, sample_categorical_log
from .ssl import sample_prior_mu, sample_prior_phi

EXACT = "exact"
STIRLING = "stirling"


@dataclass(frozen=True)
class VnTable:
    """log V_n(t) for t = 1..k_max; -inf beyond the truncation."""

    table: np.ndarray
    n: int
    alpha: float
    k_max: int
    mode: str = EXACT

    def log_vn(self, t: int) -> float:
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        if t > self.k_max:
            return -np.inf
        return float(self.table[t - 1])

    def log_ratio(self, t: int) -> float:
        """log V_n(t+1) - log V_n(t); -inf once t+1 exceeds the truncation."""
        return self.log_vn(t + 1) - self.log_vn(t)


def build_vn_table(n: int, hyper: Hyperparams, mode: str = EXACT) -> VnTable:
    """Tabulate log V_n(t) for all t in 1..k_max."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k_max = hyper.k_max
    alpha = hyper.alpha
    log_pk = log_trunc_poisson_table(hyper.poisson_lambda, k_max)
    ks = np.arange(1, k_max + 1, dtype=float)
    out = np.empty(k_max)
    if mode == EXACT:
        # log k_(t) = lgamma(k+1) - lgamma(k-t+1); log (alpha k)^(n) via lgamma.
        log_rising = gammaln(alpha * ks + n) - gammaln(alpha * ks)
        for t in range(1, k_max + 1):
            ks_t = ks[t - 1 :]
            log_falling = gammaln(ks_t + 1) - gammaln(ks_t - t + 1)
            out[t - 1] = logsumexp(log_pk[t - 1 :] + log_falling - log_rising[t - 1 :])
    elif mode == STIRLING:
        for t in range(1, k_max + 1):
            out[t - 1] = (
                gammaln(t + 1)
                - gammaln(n + 1)
                + gammaln(alpha * t)
                - (alpha * t - 1) * np.log(n)
                + log_pk[t - 1]
            )
    else:
        raise ValueError(f"unknown V_n mode {mode!r}")
    return VnTable(table=out, n=n, alpha=alpha, k_max=k_max, mode=mode)


def gaussian_loglik(y: np.ndarray, mu: np.ndarray, diff: np.ndarray | None = None) -> np.ndarray:
    """-(1/2) ||y - mu_k||^2 for each row mu_k of a (K, p) array.

    The -(p/2) log(2 pi) constant is common to every reseating weight and
    is omitted from all of them simultaneously.  ``diff``, if given, is a
    (K, p) buffer for the differences.
    """
    d = np.subtract(mu, y, out=diff)
    ll = np.einsum("kp,kp->k", d, d)
    ll *= -0.5
    return ll


def reseat_log_weights(
    y: np.ndarray,
    mus: np.ndarray,
    sizes_minus: np.ndarray,
    alpha: float,
    log_vn_ratio: float,
    mu_cand: np.ndarray | None,
) -> np.ndarray:
    """Unnormalized log weights for reseating one observation.

    Entry k < t: log(n_k^- + alpha) + loglik(y | mu_k).  A final entry
    log(alpha) + log_vn_ratio + loglik(y | mu_cand) is appended when a
    candidate mean is supplied.
    """
    logw = np.log(sizes_minus + alpha) + gaussian_loglik(y, mus)
    if mu_cand is not None:
        cand = np.log(alpha) + log_vn_ratio + gaussian_loglik(y, mu_cand[None, :])[0]
        logw = np.append(logw, cand)
    return logw


class ReseatWorkspace:
    """Working buffers shared by the reseat calls of one pass over the observations.

    Building one moves ``state.mu`` and ``state.phi`` (and ``state.xi`` in
    column mode) into capacity-``k_max`` buffers and rebinds the state's
    arrays to their leading K rows, so the state keeps its one
    representation while clusters open and close without reallocation.
    It also holds the cluster sizes, kept as they change, and what stays
    fixed during the pass: the observations as contiguous rows, the
    lambda^2 row of the shared indicators (joint mode) and the log weight
    log(alpha) + log V_n(t+1) - log V_n(t) of opening cluster t+1.  It is
    valid until the state changes other than through ``reseat_observation``.
    """

    __slots__ = ("k", "mu", "phi", "xi", "sizes", "log_prior", "diff", "obs", "lam_sq", "log_open")

    def __init__(self, state: ModelState, data: DataMatrix, vn: VnTable, hyper: Hyperparams):
        k, p = state.mu.shape
        cap = max(vn.k_max, k)
        self.k = k
        self.mu = np.empty((cap, p))
        self.mu[:k] = state.mu
        state.mu = self.mu[:k]
        self.phi = np.empty((cap, p))
        self.phi[:k] = state.phi
        state.phi = self.phi[:k]
        if hyper.ssl_mode == COLUMN_SSL:
            self.xi = np.empty((cap, p), dtype=state.xi.dtype)
            self.xi[:k] = state.xi
            state.xi = self.xi[:k]
            self.lam_sq = None
        else:
            self.xi = None
            self.lam_sq = np.where(state.xi == 1, hyper.lambda1**2, hyper.lambda0**2)
        self.sizes = np.zeros(cap)
        self.sizes[:k] = np.bincount(state.z, minlength=k + 1)[1:]
        self.log_prior = np.empty(cap)
        self.diff = np.empty((cap, p))
        self.obs = np.ascontiguousarray(data.values.T)
        self.log_open = np.full(cap, -np.inf)
        self.log_open[1 : vn.k_max] = np.log(hyper.alpha) + (vn.table[1:] - vn.table[:-1])

    def close(self, state: ModelState, c: int) -> None:
        """Remove cluster c (0-based), keep labels dense, and park its
        parameters in row K-1 of the buffers, where a candidate goes."""
        k = self.k
        for buf in (self.mu, self.phi) if self.xi is None else (self.mu, self.phi, self.xi):
            row = buf[c].copy()
            buf[c : k - 1] = buf[c + 1 : k]
            buf[k - 1] = row
        self.sizes[c : k - 1] = self.sizes[c + 1 : k]
        self.sizes[k - 1] = 0.0
        z = state.z
        z[z > c + 1] -= 1
        self.k = k - 1

    def bind(self, state: ModelState) -> None:
        """Point the state's arrays at the first K rows of the buffers."""
        k = self.k
        state.mu = self.mu[:k]
        state.phi = self.phi[:k]
        if self.xi is not None:
            state.xi = self.xi[:k]


def reseat_observation(
    i: int,
    state: ModelState,
    vn: VnTable,
    data: DataMatrix,
    hyper: Hyperparams,
    rng: np.random.Generator,
    workspace: ReseatWorkspace | None = None,
) -> ModelState:
    """Remove observation i (0-based) from its cluster and reseat it.

    Follows the single-observation urn step: a departing singleton offers
    its own parameters as the candidate cluster; otherwise candidate
    auxiliaries and mean are drawn fresh from the prior (in column mode a
    fresh indicator column first, then auxiliaries, then the mean).  The
    candidate option is suppressed, and no candidate draws are consumed,
    when the active count without i already equals k_max.  Emptied
    clusters are removed and labels stay dense.

    The weights are those of ``reseat_log_weights``, computed with the same
    operations in the same order.  ``workspace`` carries state between the
    calls of one pass (see ``ReseatWorkspace``); without one, a fresh one
    is built for this call.
    """
    ws = workspace if workspace is not None else ReseatWorkspace(state, data, vn, hyper)
    sizes = ws.sizes
    old = int(state.z[i]) - 1
    k = ws.k
    if sizes[old] == 1.0:
        ws.close(state, old)
        t = k - 1
        allow_candidate = True
    else:
        sizes[old] -= 1.0
        t = k
        allow_candidate = t < vn.k_max
        if allow_candidate:
            if ws.xi is None:
                xi_row, lam_sq = state.xi, ws.lam_sq
            else:
                xi_row = (rng.random(state.p) < state.theta).astype(np.int8)
                ws.xi[t] = xi_row
                lam_sq = None
            phi_cand = sample_prior_phi(state.p, rng)
            ws.phi[t] = phi_cand
            ws.mu[t] = sample_prior_mu(xi_row, phi_cand, hyper, rng, lam_sq)

    # log(n_k^- + alpha) - ||y - mu_k||^2 / 2 for k < t, then the candidate's
    # log(alpha) + log V_n(t+1) - log V_n(t) - ||y - mu_cand||^2 / 2
    m = t + 1 if allow_candidate else t
    log_prior = ws.log_prior[:m]
    np.add(sizes[:t], hyper.alpha, out=log_prior[:t])
    np.log(log_prior[:t], out=log_prior[:t])
    if allow_candidate:
        log_prior[t] = ws.log_open[t]
    logw = gaussian_loglik(ws.obs[i], ws.mu[:m], ws.diff[:m])
    np.add(log_prior, logw, out=logw)
    choice = sample_categorical_log(logw, rng)

    state.z[i] = choice + 1
    sizes[choice] += 1.0
    if choice == t:
        ws.k = t + 1
    if ws.k != k:
        ws.bind(state)
    return state
