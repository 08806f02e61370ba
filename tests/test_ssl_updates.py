import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from oracles import gig_moment_quad
from sparsegmm.core import COLUMN_SSL, DataMatrix, Hyperparams, ModelState
from sparsegmm.errors import SparseGmmError
from sparsegmm.ssl import (
    build_context,
    indicator_log_odds,
    theta_conditional_shapes,
    update_mu,
    update_phi,
    update_theta,
    update_xi,
)


def _hyper(**kw):
    base = dict(lambda0=100.0, lambda1=1.0, beta_theta=10.0)
    base.update(kw)
    return Hyperparams(**base)


def _single_cluster_state(p=1, mu=0.0, phi=1.0, xi=0, theta=0.5, n=4):
    return ModelState(
        z=np.ones(n, dtype=int),
        mu=np.full((1, p), float(mu)),
        phi=np.full((1, p), float(phi)),
        xi=np.full((1, p), xi, dtype=np.int8),
        theta=theta,
    )


def test_update_mu_long_run_matches_conjugate_normal():
    # freeze xi, phi; the mu draw is then iid from the stated normal
    hyper = _hyper(lambda1=1.0)
    y_sum, n_obs = 3.0, 4
    data = DataMatrix(np.full((1, n_obs), y_sum / n_obs))
    state = _single_cluster_state(p=1, phi=1.0, xi=1, n=n_obs)
    sums, sizes = build_context(state, data)
    rng = np.random.default_rng(42)
    draws = np.empty(100_000)
    for t in range(draws.size):
        update_mu(state, sums, sizes, hyper, rng)
        draws[t] = state.mu[0, 0]
    prec = n_obs + 1.0
    se_mean = 1.0 / math.sqrt(prec * draws.size)
    assert abs(draws.mean() - y_sum / prec) < 3 * se_mean
    # variance of the sample variance for a normal: 2 sigma^4 / (n-1)
    var_target = 1.0 / prec
    se_var = math.sqrt(2.0 * var_target**2 / (draws.size - 1))
    assert abs(draws.var(ddof=1) - var_target) < 3 * se_var


def test_update_mu_consecutive_runs_ks():
    hyper = _hyper()
    data = DataMatrix(np.array([[0.5, -0.5, 1.0, 0.0]]))
    state = _single_cluster_state(p=1, phi=2.0, xi=0, n=4)
    sums, sizes = build_context(state, data)
    rng = np.random.default_rng(7)

    def run(m):
        out = np.empty(m)
        for t in range(m):
            update_mu(state, sums, sizes, hyper, rng)
            out[t] = state.mu[0, 0]
        return out

    first, second = run(20_000), run(20_000)
    assert stats.ks_2samp(first, second).pvalue > 0.01


def test_update_phi_zero_mean_hits_gamma_branch():
    hyper = _hyper()
    state = _single_cluster_state(p=1, mu=0.0)
    rng1 = np.random.default_rng(3)
    update_phi(state, hyper, rng1)
    rng2 = np.random.default_rng(3)
    assert state.phi[0, 0] == rng2.gamma(0.5, 2.0, size=1)[0]


def test_update_phi_long_run_mean_matches_quadrature():
    # mu^2 lambda^2 = 1 -> conditional is GIG(1/2, 1, 1) with mean 2
    hyper = _hyper(lambda1=1.0)
    state = _single_cluster_state(p=1, mu=1.0, xi=1)
    target = gig_moment_quad(0.5, 1.0, 1.0, 1)
    rng = np.random.default_rng(11)
    draws = np.empty(100_000)
    for t in range(draws.size):
        update_phi(state, hyper, rng)
        draws[t] = state.phi[0, 0]
    assert target == pytest.approx(2.0, rel=1e-8)
    assert abs(draws.mean() - target) < 3 * draws.std(ddof=1) / math.sqrt(draws.size)


def test_update_phi_output_positive():
    hyper = _hyper()
    rng = np.random.default_rng(0)
    for mu0 in (0.0, -5.0, 3e3):
        state = _single_cluster_state(p=3, mu=mu0)
        update_phi(state, hyper, rng)
        assert (state.phi > 0).all()


def _one_cluster(y, phi, theta, ssl_mode="joint", lambda0=100.0, lambda1=1.0):
    """A one-cluster state on data y (p=1), its sums and sizes, and its hyperparameters."""
    data = DataMatrix(np.atleast_2d(np.asarray(y, dtype=float)))
    state = _single_cluster_state(p=1, phi=phi, theta=theta, n=data.n)
    sums, sizes = build_context(state, data)
    return state, sums, sizes, _hyper(lambda0=lambda0, lambda1=lambda1, ssl_mode=ssl_mode)


def test_slab_odds_equal_rates_gives_theta():
    # with lambda0 == lambda1 the evidence cancels: P(xi = 1) = theta for
    # any data, so each indicator is u < theta for its uniform u
    rng = np.random.default_rng(9)
    k, p, theta = 3, 20_000, 0.3
    # Hyperparams requires lambda0 > lambda1; the update reads only these fields
    hyper = SimpleNamespace(lambda0=2.0, lambda1=2.0, ssl_mode=COLUMN_SSL)
    state = ModelState(z=np.repeat(np.arange(1, k + 1), 4), mu=np.zeros((k, p)),
                       phi=rng.exponential(2.0, size=(k, p)),
                       xi=np.zeros((k, p), dtype=np.int8), theta=theta)
    sums, sizes = rng.normal(0.0, 5.0, size=(k, p)), np.array([4, 4, 4])
    assert indicator_log_odds(state, sums, sizes, hyper) == pytest.approx(
        math.log(theta / (1 - theta)), rel=1e-12)
    update_xi(state, sums, sizes, hyper, np.random.default_rng(2))
    assert np.array_equal(state.xi, np.random.default_rng(2).random((k, p)) < theta)


def _log_marginal_quad(y, lam, phi):
    """log of the integral over mu of prod_i N(y_i; mu, 1) N(mu; 0, phi / lambda^2)."""
    sd = math.sqrt(phi) / lam
    centre = sum(y) / (len(y) + 1 / sd**2)
    half = 12.0 / math.sqrt(len(y) + 1 / sd**2)

    def density(mu):
        return math.exp(stats.norm.logpdf(mu, 0.0, sd)
                        + sum(stats.norm.logpdf(v, mu) for v in y) + 50.0)

    return math.log(quad(density, centre - half, centre + half, epsabs=0,
                         epsrel=1e-12, limit=200)[0]) - 50.0


def test_slab_odds_match_quadrature_marginals():
    # one cluster: the odds are log theta m(lambda1) - log (1-theta) m(lambda0),
    # each marginal m integrating the cluster's mean out by quadrature
    cases = [([0.0, 0.0, 0.0], 1.0, 0.5), ([0.3, -0.1, 0.5, 0.2], 0.7, 0.1),
             ([1.6, 2.4, 0.9], 2.5, 0.02), ([4.0, 3.5], 0.3, 0.9)]
    for y, phi, theta in cases:
        for mode in ("joint", COLUMN_SSL):
            state, sums, sizes, hyper = _one_cluster(y, phi, theta, mode, lambda0=4.0)
            odds = indicator_log_odds(state, sums, sizes, hyper).ravel()[0]
            expected = (math.log(theta / (1 - theta)) + _log_marginal_quad(y, 1.0, phi)
                        - _log_marginal_quad(y, 4.0, phi))
            assert odds == pytest.approx(expected, rel=1e-9, abs=1e-9), (y, phi, theta, mode)


def test_slab_odds_large_signal_slab_dominates():
    # four observations at 4: S^2 / (2 (n + 1)) = 25.6 nats of evidence for the slab
    state, sums, sizes, hyper = _one_cluster([4.0] * 4, 1.0, 0.5)
    odds = indicator_log_odds(state, sums, sizes, hyper)
    assert 1 / (1 + np.exp(-odds[0])) > 1 - 1e-9


def test_slab_odds_no_overflow_for_huge_signals():
    # a cluster of a million observations at mean 1e3, with a tiny theta
    k, p = 20, 3
    state = ModelState(z=np.ones(10, dtype=int), mu=np.zeros((k, p)), phi=np.full((k, p), 1e-3),
                       xi=np.zeros((k, p), dtype=np.int8), theta=1e-8)
    sizes = np.full(k, 10**6)
    for ssl_mode in ("joint", COLUMN_SSL):
        odds = indicator_log_odds(state, np.full((k, p), 1e9), sizes, _hyper(ssl_mode=ssl_mode))
        assert np.isfinite(odds).all() and (odds > 0).all()


def test_update_xi_joint_mode_shares_indicators():
    hyper = _hyper()
    data = DataMatrix(np.array([[4.0, 4.0, 4.0, 4.0], [0.0, 0.0, 0.0, 0.0]]))
    state = ModelState(
        z=np.array([1, 1, 2, 2]),
        mu=np.zeros((2, 2)),
        phi=np.ones((2, 2)),
        xi=np.zeros((2, 2), dtype=np.int8),
        theta=0.5,
    )
    sums, sizes = build_context(state, data)
    update_xi(state, sums, sizes, hyper, np.random.default_rng(0))
    assert state.xi.shape == (2, 2)
    assert (state.xi[:, 0] == 1).all()  # strong signal flips the shared indicator on
    assert (state.xi == state.xi[0]).all()  # the rows are tied


def test_update_xi_column_mode_per_cluster():
    hyper = _hyper(ssl_mode=COLUMN_SSL)
    data = DataMatrix(np.array([[4.0, 4.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))
    state = ModelState(
        z=np.array([1, 1, 2, 2]),
        mu=np.zeros((2, 2)),
        phi=np.ones((2, 2)),
        xi=np.zeros((2, 2), dtype=np.int8),
        theta=0.5,
    )
    sums, sizes = build_context(state, data)
    update_xi(state, sums, sizes, hyper, np.random.default_rng(1))
    assert state.xi.shape == (2, 2)
    assert state.xi[0, 0] == 1  # on, although the mean sits at 0 in the spike


def test_theta_shapes():
    assert theta_conditional_shapes(np.zeros(3, dtype=int), 10.0) == (1.0, 13.0)
    assert theta_conditional_shapes(np.ones(3, dtype=int), 10.0) == (4.0, 10.0)
    assert theta_conditional_shapes(np.array([1, 0, 0]), 10.0) == (2.0, 12.0)


@pytest.mark.parametrize("beta_theta", [1e-300, 3e-308, 1e-310, 1e-320])
def test_theta_update_takes_a_tiny_beta_theta_with_every_indicator_on(beta_theta):
    # (beta_theta + 20) - 20 would be 0, which the Beta draw refuses
    xi = np.ones((1, 20), dtype=np.int8)
    assert theta_conditional_shapes(xi, beta_theta) == (21.0, beta_theta)
    hyper = Hyperparams(lambda0=100.0, lambda1=1.0, beta_theta=beta_theta)
    state = SimpleNamespace(xi=xi, theta=0.5)
    update_theta(state, hyper, np.random.default_rng(0))
    assert 0.0 < state.theta < 1.0


def test_theta_column_mode_counts_all_indicators():
    xi = np.array([[1, 0, 0], [1, 1, 0]], dtype=np.int8)
    assert theta_conditional_shapes(xi, 5.0) == (4.0, 5.0 + 6 - 3)


def _assert_theta_mean(state, hyper, target):
    rng = np.random.default_rng(21)
    draws = np.empty(50_000)
    for t in range(draws.size):
        update_theta(state, hyper, rng)
        draws[t] = state.theta
    assert abs(draws.mean() - target) < 3 * draws.std(ddof=1) / math.sqrt(draws.size)


def test_update_theta_empirical_mean():
    # p=3, one indicator on, beta_theta=10 -> Beta(2, 12), mean 1/7
    state = _single_cluster_state(p=3)
    state.xi = np.array([[1, 0, 0]], dtype=np.int8)
    _assert_theta_mean(state, _hyper(beta_theta=10.0), 2.0 / 14.0)


def test_update_theta_counts_tied_joint_rows_once():
    # joint mode stores its p indicators in each of the K rows: K = 3 tied
    # rows with one indicator on are still Beta(2, 12), not Beta(4, 16)
    state = ModelState(z=np.array([1, 2, 3]), mu=np.zeros((3, 3)), phi=np.ones((3, 3)),
                       xi=np.tile(np.array([1, 0, 0], dtype=np.int8), (3, 1)), theta=0.5)
    _assert_theta_mean(state, _hyper(beta_theta=10.0), 2.0 / 14.0)


def test_context_rejects_empty_cluster():
    # labels 1, 1, 1 against K = 2: the sizes (3, 0) sum to n, cluster 2 is empty
    state = ModelState(z=np.ones(3, dtype=int), mu=np.zeros((2, 1)), phi=np.ones((2, 1)),
                       xi=np.zeros((2, 1), dtype=np.int8), theta=0.5)
    with pytest.raises(SparseGmmError, match="every active cluster must be non-empty"):
        build_context(state, DataMatrix(np.zeros((1, 3))))
