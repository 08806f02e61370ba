"""Partition-urn machinery: new-cluster coefficients and the reseating step.

Reseating offers each observation one auxiliary cluster drawn from the
prior (Neal 2000, Algorithm 8, with the V_n ratio of Miller and Harrison
2018 for the mixture of finite mixtures).  The auxiliary is kept across
the observations of a pass and redrawn only when it opens a cluster (the
"ReUse" variant of Favaro and Teh 2013 with one auxiliary), and every
distance comes from inner products, so an observation costs O(K)
arithmetic and one categorical draw.  The categorical uniforms come from
one block per pass.  Most observations stay where they are, so
``ReseatWorkspace.advance`` reseats whole blocks of observations in one
numpy pass and hands every observation it cannot prove exact (an open, a
close, a near-tie) to the scalar ``reseat_observation``, the reference
step.  Both take their weights from one method,
``ReseatWorkspace.weights``, on the workspace's numpy rows, so a pass
makes the same draws and the same choices either way.  The urn does not
know the SSL mode: a new cluster's indicators come from
``ssl.sample_prior_xi``.

The exchangeable-partition coefficients V_n(t) control the probability of
opening a new cluster while reseating a single observation.  They follow
the truncated-series definition
V_n(t) = sum_{k=t}^{k_max} p_K(k) * k_(t) / (alpha*k)^(n),
computed in the log domain (falling factorial k_(t), rising factorial
(alpha*k)^(n)).  The truncated prior on the number of clusters makes the
series finite, so the table is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln, logsumexp

from .core import DataMatrix, Hyperparams, ModelState
from .distributions import log_trunc_poisson_table, sample_categorical_log
from .ssl import sample_prior_mu, sample_prior_phi, sample_prior_xi


@dataclass(frozen=True)
class VnTable:
    """log V_n(t) for t = 1..k_max; -inf beyond the truncation."""

    table: np.ndarray
    n: int
    alpha: float
    k_max: int

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

    @cached_property
    def log_size(self) -> np.ndarray:
        """Entry s: log(s + alpha), the urn's factor for joining a cluster of
        s others, for s = 0..n; every reseat weight takes it from here."""
        return np.array([math.log(s + self.alpha) for s in range(self.n + 1)])


def build_vn_table(n: int, hyper: Hyperparams) -> VnTable:
    """Tabulate log V_n(t) for all t in 1..k_max."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k_max = hyper.k_max
    alpha = hyper.alpha
    log_pk = log_trunc_poisson_table(hyper.poisson_lambda, k_max)
    ks = np.arange(1, k_max + 1, dtype=float)
    out = np.empty(k_max)
    # log k_(t) = lgamma(k+1) - lgamma(k-t+1); log (alpha k)^(n) via lgamma.
    log_rising = gammaln(alpha * ks + n) - gammaln(alpha * ks)
    for t in range(1, k_max + 1):
        ks_t = ks[t - 1 :]
        log_falling = gammaln(ks_t + 1) - gammaln(ks_t - t + 1)
        out[t - 1] = logsumexp(log_pk[t - 1 :] + log_falling - log_rising[t - 1 :])
    return VnTable(table=out, n=n, alpha=alpha, k_max=k_max)


class UniformBlock:
    """The next ``count`` uniforms of a generator, drawn as one block.

    ``random()`` serves the next one; a caller that uses a run of them at
    once reads ``values[served:]`` and adds the run's length to ``served``.

    ``rng.random(count)`` gives the values of ``count`` calls of
    ``rng.random()``, but it leaves the generator after all of them.
    ``sync()`` puts the generator just after the uniforms served so far: it
    restores the state saved before the block and redraws that many.
    Serving more than ``count`` raises IndexError.
    """

    __slots__ = ("values", "served", "_rng", "_state")

    def __init__(self, rng: np.random.Generator, count: int):
        self._rng = rng
        self._state = rng.bit_generator.state
        self.values = rng.random(count)
        self.served = 0

    def random(self) -> float:
        u = self.values[self.served]
        self.served += 1
        return float(u)

    def sync(self) -> int:
        """Leave the generator just after the uniforms served; return how
        many of the block were not served."""
        left = self.values.size - self.served
        if left:
            self._rng.bit_generator.state = self._state
            self._rng.random(self.served)
        return left


# ``ReseatWorkspace.advance`` weighs this many observations per numpy pass,
# and redraws them from refined guesses at most this many times.
_BLOCK = 256
_ROUNDS = 4
# The share of a CDF's total within which an entry is a near-tie with
# u * total: np.exp differs from math.exp by an ulp, far less than this.
_TIE = 1e-9


class ReseatWorkspace:
    """Working state shared by the reseat steps of one pass over the observations.

    Building one moves ``state.mu``, ``state.phi`` and ``state.xi`` into
    capacity-``k_max + 1`` buffers and rebinds the state's arrays to their
    leading K rows, so the state keeps its one representation while
    clusters open and close without reallocation.  Beside them, ``sizes``
    holds the cluster sizes n_k and ``half_sq`` the halved squared norms
    ||mu_k||^2 / 2, row for row.
    Row K holds the auxiliary cluster, drawn from the prior when the
    workspace is built (see ``draw_auxiliary``).

    The weight of moving observation i to cluster k is
    log(n_k^- + alpha) - ||y_i - mu_k||^2 / 2, and that of the auxiliary a
    log(alpha) + log V_n(t+1) - log V_n(t) - ||y_i - a||^2 / 2.  All are
    shifted by ||y_i||^2 / 2, which leaves a distance as
    y_i . mu_k - ||mu_k||^2 / 2.  ``g`` holds these inner products
    cluster-major, as G = mu Y in a (k_max + 1, n) array: row k, column i
    is mu_k . y_i.  A pass draws its auxiliary first and fills rows 0..K,
    the clusters and the auxiliary, with one matrix product, the faster
    layout of that product; an auxiliary drawn after an open gets its row
    from one vector-matrix product.  G's last bits depend on the layout,
    but G only steers categorical draws, and moving it by an ulp changes
    none of the tested fixed-seed traces.  Both the scalar step
    (``reseat_observation``) and ``advance`` take their weights from
    ``weights``, on these numpy rows, so the two make the same IEEE
    operations.

    ``advance`` reseats the observations that stay in, or move between,
    existing clusters a block at a time, and stops at each one it cannot
    show to make the scalar step's choice; the pass reseats that one with
    the scalar step and calls ``advance`` again.

    The categorical uniforms of the pass come from one ``UniformBlock``
    sized for the observations left, so a pass of n reseats draws exactly
    what n scalar ``rng.random()`` calls would.  Before an auxiliary is
    drawn after an open, the block is synced and a new one started, so the
    prior draws come from the generator where the scalar draws leave it.
    ``finish()`` must follow the pass's last reseat: it leaves the
    generator just after the uniforms served, where the next draw of the
    sweep expects it.  The workspace is valid for one pass of at most n
    reseats, while the state changes only through ``advance`` and
    ``reseat_observation``.

    Keeping one auxiliary across observations leaves the posterior
    invariant (Favaro and Teh 2013, *Statistical Science* 28(3), "ReUse"
    with m = 1).  Extend the state by a parameter a ~ G0 (the prior),
    independent of the rest.  Once i leaves a singleton, that cluster's
    parameters are also G0 given the rest and exchangeable with a, so
    keeping them and dropping a preserves the extended target; the
    categorical draw is then z_i's exact conditional, and redrawing a from
    G0 after it opens a cluster, or at the end of the pass, is a Gibbs step.
    """

    __slots__ = ("k", "k_max", "mu", "phi", "xi", "sizes", "half_sq", "g",
                 "log_size", "log_open", "uniforms", "values", "theta", "hyper")

    def __init__(self, state: ModelState, data: DataMatrix, vn: VnTable, hyper: Hyperparams,
                 rng: np.random.Generator):
        k, p = state.mu.shape
        cap = max(vn.k_max, k) + 1
        values = data.values
        self.k = k
        self.k_max = vn.k_max
        self.values = values
        self.theta = state.theta
        self.hyper = hyper
        self.mu = np.empty((cap, p))
        self.mu[:k] = state.mu
        self.phi = np.empty((cap, p))
        self.phi[:k] = state.phi
        self.xi = np.empty((cap, p), dtype=np.int8)
        self.xi[:k] = state.xi
        self.sizes = np.bincount(state.z, minlength=cap + 1)[1:]
        self.half_sq = np.zeros(cap)
        self.half_sq[:k] = 0.5 * (state.mu * state.mu).sum(axis=1)
        self.bind(state)
        self.log_size = vn.log_size
        self.log_open = vn.log_open
        self.draw_auxiliary(rng)
        self.g = np.empty((cap, data.n))
        np.matmul(self.mu[:k + 1], values, out=self.g[:k + 1])
        self.uniforms = UniformBlock(rng, data.n)

    @property
    def m(self) -> int:
        """The number of choices a reseat weighs: the K clusters, and the
        auxiliary while K < k_max."""
        return self.k + 1 if self.k < self.k_max else self.k

    def draw_auxiliary(self, rng: np.random.Generator) -> None:
        """Draw row K from the prior of a new cluster: its indicators from
        ``sample_prior_xi``, then phi_j ~ Exp(1/2) and
        mu_j ~ N(0, phi_j / lambda_{xi_j}^2), so that
        mu_j ~ Laplace(lambda_{xi_j}).  Row K of ``g`` is left to the
        caller."""
        t = self.k
        xi = self.xi[t]
        xi[:] = sample_prior_xi(self.xi[:t], self.theta, self.hyper, rng)
        phi = sample_prior_phi(xi.size, rng)
        mu = sample_prior_mu(xi, phi, self.hyper, rng)
        self.phi[t] = phi
        self.mu[t] = mu
        self.half_sq[t] = 0.5 * (mu @ mu)

    def weights(self, sizes: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Log-weights of the choices, given the K cluster sizes that
        exclude the observation and its m G entries (or a (b, K) and a
        (b, m) array for b observations): log_size[n_k] - ||mu_k||^2 / 2
        for a cluster and log_open[K] - ||a||^2 / 2 for the auxiliary,
        plus G."""
        t = self.k
        w = np.empty(g.shape)
        # a size from wrong guesses may leave the table; its row is not exact
        np.subtract(self.log_size.take(sizes, mode="clip"), self.half_sq[:t], out=w[..., :t])
        if g.shape[-1] > t:
            w[..., t] = self.log_open[t] - self.half_sq[t]
        w += g
        return w

    def close(self, state: ModelState, c: int) -> None:
        """Remove cluster c (0-based), keep labels dense, and park its
        parameters in row K-1: they replace the auxiliary."""
        k = self.k
        for buf in (self.mu, self.phi, self.xi, self.g, self.sizes, self.half_sq):
            row = buf[c].copy()
            buf[c : k - 1] = buf[c + 1 : k]
            buf[k - 1] = row
        z = state.z
        z[z > c + 1] -= 1
        self.k = k - 1

    def open(self, rng: np.random.Generator) -> None:
        """Make the auxiliary cluster K+1 with one member, then draw a fresh
        auxiliary into the new row K from the generator synced past the
        uniforms served, and serve the rest of the pass from a new block."""
        t = self.k
        self.sizes[t] = 1
        self.k = t + 1
        left = self.uniforms.sync()
        self.draw_auxiliary(rng)
        np.matmul(self.mu[t + 1], self.values, out=self.g[t + 1])
        self.uniforms = UniformBlock(rng, left)

    def finish(self) -> None:
        """End the pass: leave the generator just after the uniforms served."""
        self.uniforms.sync()

    def bind(self, state: ModelState) -> None:
        """Point the state's arrays at the first K rows of the buffers."""
        k = self.k
        state.mu = self.mu[:k]
        state.phi = self.phi[:k]
        state.xi = self.xi[:k]

    def advance(self, z: np.ndarray, start: int) -> int:
        """Reseat observations start, start+1, ... (0-based) of the pass in
        blocks, and return the first one left to ``reseat_observation``
        (len(z) once none is).

        A block guesses each observation's choice, first that it stays.  It
        weighs every observation with the cluster sizes those guesses imply
        and draws each choice from the cumulative sums of np.exp and that
        observation's next uniform; then it redraws from the drawn choices,
        while they change, up to ``_ROUNDS`` draws.  A choice is the scalar
        step's when every earlier choice of the block equals its guess, so
        that its sizes are exact, and no CDF entry lies within
        ``_TIE`` * total of u * total: the weights are the scalar step's bit
        for bit and np.exp differs from math.exp by an ulp at most.  The
        block accepts the longest run of such choices that opens and closes
        no cluster; an open, a close or a near-tie ends it, as does a run of
        moves that the guesses have not caught up with.
        """
        n = z.size
        t = self.k
        m = self.m
        clusters = np.arange(t)
        blocks = self.uniforms
        while start < n:
            stop = min(start + _BLOCK, n)
            old = z[start:stop] - 1
            u = blocks.values[blocks.served : blocks.served + stop - start]
            g = self.g[:m, start:stop].T
            own = old[:, None] == clusters
            left = self.sizes[:t] - own  # each size without the observation
            rows = np.arange(old.size)
            guess = old
            for rnd in range(_ROUNDS):
                if guess is old:
                    sizes = left
                else:
                    delta = (guess[:, None] == clusters).astype(int) - own
                    sizes = left + (np.cumsum(delta, axis=0) - delta)
                choice, clear = self._draw(sizes, g, u)
                clear &= (choice < t) & (sizes[rows, old] > 0)
                exact = clear & (choice == guess)
                if exact.all():
                    accepted = old.size
                    break
                first = int(exact.argmin())
                if not clear[first] or rnd == _ROUNDS - 1:
                    # the first inexact choice drew from exact sizes
                    accepted = first + int(clear[first])
                    break
                guess = choice
            self._accept(z, start, old[:accepted], choice[:accepted])
            start += accepted
            if accepted < old.size:
                break
        return start

    def _draw(self, sizes: np.ndarray, g: np.ndarray,
              u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's categorical choice given the (b, K) cluster sizes that
        exclude it, its (b, m) G entries and its uniform, and whether no CDF
        entry is a near-tie."""
        w = self.weights(sizes, g)
        w -= w.max(axis=1, keepdims=True)
        cdf = np.cumsum(np.exp(w, out=w), axis=1)
        total = cdf[:, -1:]
        x = u[:, None] * total
        choice = (cdf <= x).sum(axis=1)
        clear = (np.abs(cdf - x) > _TIE * total).all(axis=1)
        return choice, clear

    def _accept(self, z: np.ndarray, start: int, old: np.ndarray, choice: np.ndarray) -> None:
        """Apply accepted choices: labels, sizes and uniforms."""
        self.uniforms.served += old.size
        if (choice == old).all():
            return
        t = self.k
        z[start : start + old.size] = choice + 1
        self.sizes[:t] += np.bincount(choice, minlength=t) - np.bincount(old, minlength=t)


def reseat_observation(
    i: int, state: ModelState, ws: ReseatWorkspace, rng: np.random.Generator
) -> ModelState:
    """Remove observation i (0-based) from its cluster and reseat it.

    The urn step with one auxiliary cluster (Neal 2000, Algorithm 8, m=1):
    a departing singleton's parameters become the auxiliary; otherwise it
    is the workspace's current one, kept from earlier observations until it
    opens a cluster (see ``ReseatWorkspace``).  One categorical draw picks
    an existing cluster or the auxiliary.  The auxiliary is not offered to
    a non-singleton when the active count without i already equals k_max.
    Emptied clusters are removed and labels stay dense.

    ``ws`` carries state between the calls of one pass.
    """
    old = int(state.z[i]) - 1
    k = ws.k
    if ws.sizes[old] == 1:
        ws.close(state, old)
    else:
        ws.sizes[old] -= 1
    t = ws.k
    w = ws.weights(ws.sizes[:t], ws.g[: ws.m, i])
    choice = sample_categorical_log(w.tolist(), ws.uniforms)

    state.z[i] = choice + 1
    if choice == t:
        ws.open(rng)
    else:
        ws.sizes[choice] += 1
    if ws.k != k:
        ws.bind(state)
    return state
