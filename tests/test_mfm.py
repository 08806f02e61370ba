import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

import sparsegmm.urn as urn
from oracles import trunc_poisson_pmf_direct, vn_bruteforce
from sparsegmm.core import COLUMN_SSL, DataMatrix, Hyperparams, ModelState
from sparsegmm.distributions import sample_categorical_log
from sparsegmm.urn import ReseatWorkspace, build_vn_table, reseat_observation


def _hyper(alpha=1.0, rate=2.0, k_max=5, **kw):
    return Hyperparams(
        lambda0=100.0,
        lambda1=1.0,
        beta_theta=10.0,
        alpha=alpha,
        poisson_lambda=rate,
        k_max=k_max,
        **kw,
    )


def test_vn_one_observation_is_reciprocal_alpha():
    for alpha in (1.0, 2.5, 7.0):
        vn = build_vn_table(1, _hyper(alpha=alpha))
        assert vn.log_vn(1) == pytest.approx(-math.log(alpha), rel=1e-12)


def test_vn_matches_bruteforce_small_case():
    hyper = _hyper(alpha=1.0, rate=2.0, k_max=5)
    vn = build_vn_table(3, hyper)
    pk = trunc_poisson_pmf_direct(2.0, 5)
    direct = vn_bruteforce(3, 2, 1.0, pk)
    assert math.exp(vn.log_vn(2)) == pytest.approx(direct, rel=1e-12)


def test_vn_beyond_truncation_is_zero():
    vn = build_vn_table(4, _hyper(k_max=3))
    assert vn.log_vn(4) == -np.inf
    assert vn.log_ratio(3) == -np.inf


def test_vn_bruteforce_grid():
    for alpha in (1.0, 2.5):
        for k_max in (1, 3, 7):
            hyper = _hyper(alpha=alpha, k_max=k_max)
            pk = trunc_poisson_pmf_direct(2.0, k_max)
            for n in (1, 2, 5, 11):
                vn = build_vn_table(n, hyper)
                for t in range(1, k_max + 1):
                    direct = vn_bruteforce(n, t, alpha, pk)
                    assert math.exp(vn.log_vn(t)) == pytest.approx(direct, rel=1e-12)


def _reseat_weights(monkeypatch, i, state, data, hyper, seed=0):
    """The log weights the reseat kernel hands to its categorical draw, and
    the mean of the auxiliary cluster it weighed."""
    seen = []

    def spy(logw, rng):
        seen.append(np.array(logw, copy=True))
        return sample_categorical_log(logw, rng)

    monkeypatch.setattr(urn, "sample_categorical_log", spy)
    vn = build_vn_table(data.n, hyper)
    rng = np.random.default_rng(seed)
    ws = ReseatWorkspace(state, data, vn, hyper, rng)
    aux = ws.mu[ws.k].copy()
    reseat_observation(i, state, ws, rng)
    assert len(seen) == 1
    return seen[0], aux


def _probs(logw):
    w = np.exp(np.asarray(logw) - np.max(logw))
    return w / w.sum()


def test_reseat_weights_two_identical_clusters(monkeypatch):
    # obs 0 leaves cluster 1; both clusters then hold 3 members at mean 0
    data = DataMatrix(np.array([[0.3, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [-0.2] * 7]))
    state = ModelState(z=np.array([1, 1, 1, 1, 2, 2, 2]), mu=np.zeros((2, 2)),
                       phi=np.ones((2, 2)), xi=np.zeros((2, 2), dtype=np.int8), theta=0.1)
    logw, _ = _reseat_weights(monkeypatch, 0, state, data, _hyper())
    assert logw.size == 3
    assert logw[0] == pytest.approx(logw[1], abs=1e-12)


def test_reseat_weights_match_hand_oracle(monkeypatch):
    # p=1: two clusters plus the auxiliary mean c drawn for the pass;
    # hand-normalized three-term weights, the V_n ratio by brute force
    alpha, y = 1.3, 0.7
    pk = trunc_poisson_pmf_direct(2.0, 5)
    ratio = vn_bruteforce(4, 3, alpha, pk) / vn_bruteforce(4, 2, alpha, pk)

    def gauss(mu):
        return math.exp(-0.5 * (y - mu) ** 2)

    for ssl_mode in ("joint", "column"):
        column = ssl_mode == COLUMN_SSL
        hyper = Hyperparams(lambda0=4.0, lambda1=1.0, beta_theta=3.0, alpha=alpha,
                            poisson_lambda=2.0, k_max=5, ssl_mode=ssl_mode)
        data = DataMatrix(np.array([[y, 0.1, 1.9, 2.2]]))
        xi = np.array([[0], [1]] if column else [[1], [1]], dtype=np.int8)
        state = ModelState(z=np.array([1, 1, 2, 2]), mu=np.array([[0.0], [2.0]]),
                           phi=np.ones((2, 1)), xi=xi, theta=0.25)
        logw, aux = _reseat_weights(monkeypatch, 0, state, data, hyper)
        cand = float(aux[0])
        hand = np.array([(1 + alpha) * gauss(0.0), (2 + alpha) * gauss(2.0),
                         alpha * ratio * gauss(cand)])
        assert _probs(logw) == pytest.approx(hand / hand.sum(), abs=1e-12), ssl_mode


def test_reseat_weights_shift_invariance(monkeypatch):
    data = DataMatrix(np.array([[0.7, 0.1, 1.9, 2.2]]))
    state = ModelState(z=np.array([1, 1, 2, 2]), mu=np.array([[0.0], [2.0]]),
                       phi=np.ones((2, 1)), xi=np.zeros((2, 1), dtype=np.int8), theta=0.1)
    logw, _ = _reseat_weights(monkeypatch, 0, state, data, _hyper())
    a = [sample_categorical_log(logw, np.random.default_rng(5)) for _ in range(400)]
    b = [sample_categorical_log(logw + 55.5, np.random.default_rng(5)) for _ in range(400)]
    assert a == b


def test_gaussian_loglik_drops_shared_constant_only(monkeypatch):
    # y = 0 at p = 3: every weight omits the same -(3/2) log(2 pi) and is
    # shifted by the same ||y||^2 / 2, so the differences are the hand ones
    hyper = _hyper(alpha=1.0, k_max=5)
    data = DataMatrix(np.zeros((3, 5)))
    state = ModelState(z=np.array([1, 1, 1, 2, 2]), mu=np.stack([np.zeros(3), np.ones(3)]),
                       phi=np.ones((2, 3)), xi=np.ones((2, 3), dtype=np.int8), theta=0.1)
    logw, cand = _reseat_weights(monkeypatch, 0, state, data, hyper)
    vn = build_vn_table(5, hyper)
    assert logw[1] - logw[0] == pytest.approx(-1.5, abs=1e-12)
    new_minus_first = vn.log_ratio(2) - 0.5 * float(cand @ cand) - math.log(3.0)
    assert logw[2] - logw[0] == pytest.approx(new_minus_first, abs=1e-12)


def _toy_state():
    z = np.array([1, 1, 2, 2, 2])
    mu = np.array([[0.0, 0.0], [3.0, 3.0]])
    phi = np.ones((2, 2))
    return ModelState(z=z, mu=mu, phi=phi, xi=np.zeros((2, 2), dtype=np.int8), theta=0.1)


def _reseat_alone(i, state, vn, data, hyper, rng):
    """One reseat with a workspace, and so an auxiliary, of its own."""
    ws = ReseatWorkspace(state, data, vn, hyper, rng)
    reseat_observation(i, state, ws, rng)
    ws.finish()
    return state


def test_reseat_preserves_partition_invariants():
    hyper = _hyper(k_max=4)
    rng = np.random.default_rng(99)
    data = DataMatrix(rng.standard_normal((2, 5)))
    vn = build_vn_table(5, hyper)
    state = _toy_state()
    for _ in range(200):
        i = int(rng.integers(5))
        _reseat_alone(i, state, vn, data, hyper, rng)
        state.check_invariants(k_max=hyper.k_max)


def test_reseat_respects_k_max():
    hyper = _hyper(k_max=1)
    rng = np.random.default_rng(1)
    data = DataMatrix(np.array([[0.0, 100.0]]))  # badly fitting single cluster
    vn = build_vn_table(2, hyper)
    state = ModelState(
        z=np.array([1, 1]),
        mu=np.zeros((1, 1)),
        phi=np.ones((1, 1)),
        xi=np.zeros((1, 1), dtype=np.int8),
        theta=0.1,
    )
    for i in (0, 1):
        _reseat_alone(i, state, vn, data, hyper, rng)
    assert state.k_active == 1


def test_departing_singleton_keeps_its_parameters_bitwise():
    hyper = _hyper(k_max=4)
    rng = np.random.default_rng(0)
    # obs 0 sits exactly on its singleton cluster's far-away mean
    far = 50.0
    data = DataMatrix(np.array([[far, 0.0, 0.1], [far, 0.0, -0.1]]))
    mu_singleton = np.array([far, far])
    phi_singleton = np.array([0.123456789, 9.87654321])
    state = ModelState(
        z=np.array([1, 2, 2]),
        mu=np.vstack([mu_singleton, np.zeros(2)]),
        phi=np.vstack([phi_singleton, np.ones(2)]),
        xi=np.zeros((2, 2), dtype=np.int8),
        theta=0.1,
    )
    _reseat_alone(0, state, build_vn_table(3, hyper), data, hyper, rng)
    # the far-away point must re-open its own cluster with identical parameters
    assert state.k_active == 2
    assert state.z[0] == 2
    assert np.array_equal(state.mu[1], mu_singleton)
    assert np.array_equal(state.phi[1], phi_singleton)


def _laplace_cdf(lam):
    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.5 * np.exp(lam * np.minimum(x, 0.0)),
                        1.0 - 0.5 * np.exp(-lam * np.maximum(x, 0.0)))
    return cdf


@pytest.mark.parametrize("ssl_mode", ["joint", "column"])
def test_candidates_follow_the_prior(ssl_mode):
    """The auxiliary's mean is Laplace(lambda_{xi_j}) (KS per rate) and its
    scales Exp(rate 1/2); in column mode its indicators are Bernoulli(theta)."""
    column = ssl_mode == COLUMN_SSL
    hyper = Hyperparams(lambda0=100.0, lambda1=1.0, beta_theta=3.0, k_max=4, ssl_mode=ssl_mode)
    p, theta = 20_000, 0.3
    data = DataMatrix(np.zeros((p, 2)))
    xi = np.ones((1, p), dtype=np.int8) if column else (np.arange(p, dtype=np.int8) % 2)[None, :]
    state = ModelState(z=np.ones(2, dtype=int), mu=np.zeros((1, p)), phi=np.ones((1, p)),
                       xi=xi, theta=theta)
    ws = ReseatWorkspace(state, data, build_vn_table(2, hyper), hyper, np.random.default_rng(17))
    mu, phi = ws.mu[ws.k], ws.phi[ws.k]
    if column:
        aux_xi = ws.xi[ws.k]
        assert abs(aux_xi.mean() - theta) / math.sqrt(theta * (1 - theta) / p) < 4
        slab = aux_xi == 1
    else:
        slab = xi[0] == 1
    for draws, lam in ((mu[~slab], hyper.lambda0), (mu[slab], hyper.lambda1)):
        assert stats.kstest(draws, _laplace_cdf(lam)).pvalue > 1e-3, lam
    assert stats.kstest(phi, stats.expon(scale=2.0).cdf).pvalue > 1e-3


@pytest.mark.parametrize("ssl_mode", ["joint", "column"])
def test_inner_product_distances_match_direct(ssl_mode):
    """The workspace's ||y_i||^2 + ||mu_k||^2 - 2 G_ik equal ||y_i - mu_k||^2
    for every cluster and for the auxiliary in row K, after every reseat of
    passes that open and close clusters."""
    rng = np.random.default_rng(2)
    p, n = 200, 60
    values = rng.standard_normal((p, n)) + 3.0 * rng.integers(-2, 3, size=(p, 1))
    data = DataMatrix(values)
    hyper = Hyperparams(lambda0=4.0, lambda1=1.0, beta_theta=2.0, poisson_lambda=8.0,
                        k_max=8, ssl_mode=ssl_mode)
    k = 3
    xi = np.ones((k, p), dtype=np.int8)
    state = ModelState(z=rng.integers(1, k + 1, size=n), mu=rng.standard_normal((k, p)),
                       phi=np.ones((k, p)), xi=xi, theta=0.5)
    state.z[:k] = np.arange(1, k + 1)
    vn = build_vn_table(n, hyper)
    sq_norms = (values * values).sum(axis=0)
    moves = 0

    def check(ws):
        rows = ws.mu[: ws.k + 1]  # the clusters, then the auxiliary
        half_sq = np.array(ws.half_sq[: ws.k + 1])
        g = ws.g[: ws.k + 1].T
        got = sq_norms[:, None] + 2.0 * half_sq[None, :] - 2.0 * g
        want = ((values.T[:, None, :] - rows[None, :, :]) ** 2).sum(axis=2)
        assert got == pytest.approx(want, rel=1e-9, abs=0)

    for _ in range(3):
        ws = ReseatWorkspace(state, data, vn, hyper, rng)
        check(ws)
        for i in range(n):
            before = ws.k
            reseat_observation(i, state, ws, rng)
            moves += ws.k != before
            check(ws)
        ws.finish()
    assert moves > 0


def test_finish_leaves_the_generator_after_the_uniforms_served(monkeypatch):
    """Three reseats and ``finish()`` leave the generator where three scalar
    ``rng.random()`` calls after the auxiliary leave it, and the reseats
    draw those three values; with K = k_max no cluster opens."""
    rng = np.random.default_rng(4)
    data = DataMatrix(rng.standard_normal((3, 10)))
    hyper = _hyper(k_max=2)
    vn = build_vn_table(data.n, hyper)
    state = ModelState(z=np.array([1, 2] * 5), mu=rng.standard_normal((2, 3)),
                       phi=np.ones((2, 3)), xi=np.zeros((2, 3), dtype=np.int8), theta=0.1)
    ref = np.random.default_rng(9)
    ReseatWorkspace(state.copy(), data, vn, hyper, ref).finish()  # the auxiliary's draws
    expected = [ref.random() for _ in range(3)]

    served = []

    def spy(logw, uniforms):
        u = uniforms.random()
        served.append(u)
        return sample_categorical_log(logw, SimpleNamespace(random=lambda: u))

    monkeypatch.setattr(urn, "sample_categorical_log", spy)
    rng = np.random.default_rng(9)
    ws = ReseatWorkspace(state, data, vn, hyper, rng)
    for i in range(3):
        reseat_observation(i, state, ws, rng)
    ws.finish()
    assert served == expected
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("u,tie", [(0.5, True), (0.5 + 1e-12, True), (0.49, False)])
def test_near_tie_goes_to_the_scalar_step(u, tie):
    """Observation 2 sits halfway between two clusters of equal size without
    it, so its CDF is [1, 2]: a uniform of 0.5 puts u * total on the first
    entry.  The block stops there, and the scalar step reseats it as
    bisect_right does, to the right; a uniform of 0.49 is no tie."""
    hyper = _hyper(k_max=2)  # K = k_max: no auxiliary is offered
    data = DataMatrix(np.array([[-5.0, -5.0, 0.0, 5.0, 5.0]]))
    state = ModelState(z=np.array([1, 1, 1, 2, 2]), mu=np.array([[-1.0], [1.0]]),
                       phi=np.ones((2, 1)), xi=np.zeros((2, 1), dtype=np.int8), theta=0.1)
    rng = np.random.default_rng(0)
    ws = ReseatWorkspace(state, data, build_vn_table(5, hyper), hyper, rng)
    ws.uniforms.values[2] = u
    if tie:
        assert ws.advance(state.z, 0) == 2
        assert ws.uniforms.served == 2
        reseat_observation(2, state, ws, rng)
        assert ws.advance(state.z, 3) == 5
    else:
        assert ws.advance(state.z, 0) == 5
    ws.finish()
    assert state.z.tolist() == [1, 1, 2 if tie else 1, 2, 2]
    assert ws.sizes[: ws.k].tolist() == ([2, 3] if tie else [3, 2])


@pytest.mark.parametrize("ssl_mode", ["joint", "column"])
def test_auxiliary_reused_until_consumed(ssl_mode, monkeypatch):
    """A pass that opens nothing draws one auxiliary; a closed singleton's
    parameters are the auxiliary the next observation weighs, bit for bit."""
    hyper = Hyperparams(lambda0=4.0, lambda1=1.0, beta_theta=2.0, k_max=5, ssl_mode=ssl_mode)
    p, n = 3, 6
    # obs 0 sits on the big cluster but is alone in a far-away one: it leaves
    # its singleton and joins the big cluster; nothing fits the auxiliary
    values = np.full((p, n), 10.0) + 0.01 * np.arange(n)
    data = DataMatrix(values)
    far = np.array([-20.0, -21.0, -22.5])
    xi = np.ones((2, p), dtype=np.int8)
    state = ModelState(z=np.array([1, 2, 2, 2, 2, 2]), mu=np.vstack([far, np.full(p, 10.0)]),
                       phi=np.ones((2, p)), xi=xi, theta=0.5)
    vn = build_vn_table(n, hyper)
    calls = []
    draw = urn.sample_prior_mu

    def counting(*args, **kwargs):
        calls.append(1)
        return draw(*args, **kwargs)

    monkeypatch.setattr(urn, "sample_prior_mu", counting)
    rng = np.random.default_rng(3)
    ws = ReseatWorkspace(state, data, vn, hyper, rng)
    assert len(calls) == 1
    seen = []

    def spy(logw, rng):
        seen.append((np.array(logw, copy=True), ws.k, ws.mu[ws.k].copy()))
        return sample_categorical_log(logw, rng)

    monkeypatch.setattr(urn, "sample_categorical_log", spy)
    for i in range(n):
        reseat_observation(i, state, ws, rng)
    assert len(calls) == 1
    assert state.k_active == 1 and (state.z == 1).all()
    # obs 0 weighs its own parameters, and so does every later observation
    for i, (logw, t, aux) in enumerate(seen):
        assert t == 1 and np.array_equal(aux, far), i
        direct = vn.log_open[t] + float(values[:, i] @ far) - 0.5 * float(far @ far)
        assert logw[t] == pytest.approx(direct, rel=1e-12), i


def test_emptied_cluster_labels_stay_dense():
    hyper = _hyper(k_max=4)
    rng = np.random.default_rng(8)
    # obs 1 is a singleton in cluster 1 (label order scrambled on purpose)
    data = DataMatrix(np.array([[0.0, 30.0, 0.2, 0.1]]))
    state = ModelState(
        z=np.array([2, 1, 2, 2]),
        mu=np.array([[30.0], [0.0]]),
        phi=np.ones((2, 1)),
        xi=np.zeros((2, 1), dtype=np.int8),
        theta=0.1,
    )
    # move obs 1 onto the big cluster by force: the auxiliary and its own cluster are
    # both possible; run many reseats of obs 1 and check labels stay dense
    for _ in range(50):
        _reseat_alone(1, state, build_vn_table(4, hyper), data, hyper, rng)
        state.check_invariants(k_max=4)
        assert set(np.unique(state.z)) == set(range(1, state.k_active + 1))
