import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from oracles import exact_partition_posterior, trunc_poisson_pmf_direct, vn_bruteforce
import sparsegmm.gibbs as gibbs
from sparsegmm import ssl
from sparsegmm.core import COLUMN_SSL, DataMatrix, Hyperparams, trace_to_ndjson
from sparsegmm.core import default_hyperparams as sg_default
from sparsegmm.errors import ConfigError
from sparsegmm.gibbs import (
    InitSpec,
    RunConfig,
    init_state,
    run_chain,
    run_chains,
    sweep,
)
from sparsegmm.priorsim import batch_means_se, geweke, geweke_z
from sparsegmm.urn import build_vn_table


def _hyper(**kw):
    base = dict(lambda0=100.0, lambda1=1.0, beta_theta=10.0, k_max=5)
    base.update(kw)
    return Hyperparams(**base)


def _blobs(seed=0, n_per=10, sep=8.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, n_per)) + sep
    b = rng.standard_normal((3, n_per)) - sep
    return DataMatrix(np.hstack([a, b])), np.repeat([1, 2], n_per)


def test_init_single_cluster_uses_sample_mean():
    data, _ = _blobs()
    state = init_state(data, _hyper(), RunConfig(init=InitSpec("single")), np.random.default_rng(0))
    assert state.k_active == 1
    assert state.mu[0] == pytest.approx(data.values.mean(axis=1))
    assert (state.phi == 1.0).all()
    assert not state.xi.any()
    assert state.theta == pytest.approx(1.0 / 11.0)


def test_init_random_k_compacts_labels():
    data = DataMatrix(np.random.default_rng(1).standard_normal((2, 6)))
    state = init_state(
        data, _hyper(), RunConfig(init=InitSpec("random_k", 3)), np.random.default_rng(2)
    )
    k = state.k_active
    assert set(np.unique(state.z)) == set(range(1, k + 1))
    assert k <= 3


def test_init_rejects_k_above_k_max():
    data, _ = _blobs()
    with pytest.raises(ConfigError, match="init k=3 exceeds k_max=2"):
        init_state(
            data, _hyper(k_max=2), RunConfig(init=InitSpec("random_k", 3)), np.random.default_rng(0)
        )


def test_init_spec_accepts_only_the_three_kinds():
    for kind in ("single", "random_k", "kmeans"):
        InitSpec(kind)
    with pytest.raises(ValueError, match="unknown init kind 'kmeans_pp'"):
        InitSpec("kmeans_pp")


def test_default_init_uses_prior_rate():
    """Without a k, the start has the prior count min(floor(poisson rate),
    k_max) of clusters: no start, the default kind and k-means named
    explicitly start alike."""
    data, _ = _blobs()
    states = [init_state(data, _hyper(), RunConfig(init=init), np.random.default_rng(0))
              for init in (None, InitSpec(), InitSpec("kmeans"))]
    for state in states:
        assert state.k_active == 2
        assert np.array_equal(state.z, states[0].z)
        assert np.array_equal(state.mu, states[0].mu)


def test_default_start_escapes_all_spike_trap():
    """Every start has every indicator off, and a short chain from it
    switches on the true support in every snapshot.

    The indicators are drawn with the means integrated out, so the spike
    that shrinks an unselected mean to ~0 does not keep its indicator at
    0.  (From ``single`` in column mode the chain first holds the whole
    support at sweep 23, beyond this chain's length.)
    """
    from sparsegmm.synthetic import ScenarioSpec, generate

    spec = ScenarioSpec(scenario="one", p=100, n=50, s=6, mean_scale=1.5, seed=1)
    data, _, _ = generate(spec)
    starts = [(mode, kind) for mode in ("joint", "column")
              for kind in (None, "random_k")] + [("joint", "single")]
    for ssl_mode, kind in starts:
        hyper = sg_default(100, ssl_mode=ssl_mode)
        init = None if kind is None else InitSpec(kind)
        config = RunConfig(n_burn=0, n_keep=20, seed=1, init=init)
        assert not init_state(data, hyper, config, np.random.default_rng(1)).xi.any()
        trace = run_chain(data, hyper, config)
        held = [set(range(1, 7)) <= set(s.support.tolist()) for s in trace.snapshots]
        assert all(held), (ssl_mode, kind, held)


def test_sweep_is_deterministic_given_seed():
    data, _ = _blobs(seed=5)
    hyper = _hyper()
    vn = build_vn_table(data.n, hyper)
    s1 = init_state(data, hyper, RunConfig(init=InitSpec("single")), np.random.default_rng(0))
    s2 = s1.copy()
    sweep(s1, data, vn, hyper, np.random.default_rng(77))
    sweep(s2, data, vn, hyper, np.random.default_rng(77))
    assert np.array_equal(s1.z, s2.z)
    assert np.array_equal(s1.mu, s2.mu)
    assert np.array_equal(s1.phi, s2.phi)
    assert np.array_equal(s1.xi, s2.xi)
    assert s1.theta == s2.theta


def test_sweep_identical_observations_kmax_one():
    hyper = _hyper(k_max=1)
    data = DataMatrix(np.array([[1.0, 1.0]]))
    vn = build_vn_table(2, hyper)
    state = init_state(data, hyper, RunConfig(init=InitSpec("single")), np.random.default_rng(0))
    for _ in range(10):
        sweep(state, data, vn, hyper, np.random.default_rng(1))
        assert state.k_active == 1


def _replay_toy_sweeps(seed, hyper, y, log_ratio_t1, n_sweeps, events, slab_probs):
    """Replay ``n_sweeps`` sweeps at p=1, n=2 from the single-cluster start,
    computing every formula from scratch; only the raw generator stream is
    shared with the package.  Returns (z, mu, phi, xi, theta), counts in
    ``events`` the auxiliary's uses (an open from a fresh prior draw, a
    departing singleton reopening its own parameters, and an observation
    weighing another one's closed singleton) and appends to ``slab_probs``
    the slab probability of each indicator draw."""
    rng = np.random.default_rng(seed)
    lam = [hyper.lambda0, hyper.lambda1]
    mu = [y.mean()]          # single init cluster at the sample mean
    phi = [1.0]
    z = [1, 1]
    xi = 0
    theta = 1.0 / 3.0        # prior mean with beta_theta = 2

    def categorical(logw):
        logw = np.asarray(logw)
        w = np.exp(logw - logw.max())
        cdf = np.cumsum(w)
        u = rng.random() * cdf[-1]
        return int(min(np.searchsorted(cdf, u, side="right"), logw.size - 1))

    def prior_cluster():
        # phi ~ Exp(rate 1/2), then mu ~ N(0, phi / lambda_xi^2): Laplace(lambda_xi)
        ph = float(rng.exponential(2.0, 1)[0])
        return float(rng.standard_normal(1)[0]) * math.sqrt(ph / lam[xi] ** 2), ph, None

    for _ in range(n_sweeps):
        aux = prior_cluster()     # (mu, phi, whose singleton it was; None if drawn)
        for i in (0, 1):
            yi = y[0, i]
            sizes = [z.count(c + 1) for c in range(len(mu))]
            if sizes[z[i] - 1] == 1:
                # a departing singleton's parameters replace the auxiliary
                c = z[i] - 1
                aux = (mu.pop(c), phi.pop(c), i)
                z = [v - 1 if v > c + 1 else v for v in z]
                sizes = [z.count(c + 1) for c in range(len(mu))]
            else:
                sizes[z[i] - 1] -= 1
                if aux[2] is not None:
                    events["closed_weighed"] += 1
            t = len(mu)
            logw = [math.log(sizes[c] + 1.0) - 0.5 * (yi - mu[c]) ** 2 for c in range(t)]
            if t < 2:
                logw.append(math.log(1.0) + log_ratio_t1 - 0.5 * (yi - aux[0]) ** 2)
            choice = categorical(logw)
            if choice == t:
                events["fresh_open" if aux[2] is None else
                       "own_reopen" if aux[2] == i else "closed_open"] += 1
                mu.append(aux[0])
                phi.append(aux[1])
                aux = prior_cluster()
            z[i] = choice + 1

        # scales given the means and the indicator
        for c in range(len(mu)):
            chi = mu[c] ** 2 * lam[xi] ** 2
            if chi > 1e-300:
                phi[c] = float(1.0 / rng.wald(np.sqrt(1.0 / chi), 1.0))
            else:
                phi[c] = float(rng.gamma(0.5, 2.0, size=1)[0])
        # the indicator given the scales, each mean integrated out of
        # N(y; mu, 1) N(mu; 0, phi / lambda^2)
        members = [[y[0, j] for j in range(2) if z[j] == c + 1] for c in range(len(mu))]
        log_odds = math.log(theta) - math.log(1 - theta)
        for c in range(len(mu)):
            s_c, n_c = sum(members[c]), len(members[c])
            for sign, lam_x in ((1, lam[1]), (-1, lam[0])):
                log_odds += sign * (0.5 * s_c**2 / (n_c + lam_x**2 / phi[c])
                                    - 0.5 * math.log(1 + n_c * phi[c] / lam_x**2))
        slab_probs.append(1.0 / (1.0 + math.exp(-log_odds)))
        xi = int(rng.random(1)[0] < slab_probs[-1])
        # the means given the new indicator and the scales
        for c in range(len(mu)):
            prec = len(members[c]) + lam[xi] ** 2 / phi[c]
            mu[c] = sum(members[c]) / prec + float(rng.standard_normal(1)[0]) / math.sqrt(prec)
        a, b = 1.0 + xi, 2.0 + 1 - xi
        theta = float(rng.beta(a, b))
    return z, mu, phi, xi, theta


def test_sweep_matches_hand_trace_at_toy_scale(monkeypatch):
    """Replay two sweeps at p=1, n=2 with an independent re-derivation.

    Every formula (weights, the auxiliary's prior, conditionals, draw
    order: reseats, then scales, indicator, means and theta) is
    recomputed from scratch.  The seeds cover the auxiliary's
    three uses: an open from a fresh prior draw, a departing singleton
    reopening its own parameters, and a later observation weighing a
    closed singleton's parameters (seed 40 has all three, seed 78 also
    opens from a closed singleton's parameters).  A wrong slab odds can
    still draw the same indicator from the same uniform, so the slab
    probability of every indicator draw is compared as well.
    """
    odds_of = ssl.indicator_log_odds
    package_probs = []

    def recording(*args):
        odds = odds_of(*args)
        package_probs.append(float(expit(odds)[0]))
        return odds

    monkeypatch.setattr(ssl, "indicator_log_odds", recording)
    hyper = Hyperparams(lambda0=4.0, lambda1=1.0, beta_theta=2.0, alpha=1.0,
                        poisson_lambda=2.0, k_max=2)
    y = np.array([[0.8, -0.6]])
    data = DataMatrix(y)
    vn = build_vn_table(2, hyper)
    pk = trunc_poisson_pmf_direct(2.0, 2)
    log_ratio_t1 = math.log(vn_bruteforce(2, 2, 1.0, pk) / vn_bruteforce(2, 1, 1.0, pk))
    events = dict.fromkeys(("fresh_open", "own_reopen", "closed_weighed", "closed_open"), 0)

    for seed in (123, 40, 78):
        package_probs.clear()
        slab_probs = []
        state = init_state(data, hyper, RunConfig(init=InitSpec("single")),
                           np.random.default_rng(0))
        rng = np.random.default_rng(seed)
        for _ in range(2):
            sweep(state, data, vn, hyper, rng)
        z, mu, phi, xi, theta = _replay_toy_sweeps(seed, hyper, y, log_ratio_t1, 2, events,
                                                   slab_probs)

        assert len(slab_probs) == 2, seed
        assert package_probs == pytest.approx(slab_probs, rel=1e-12, abs=0), seed
        assert np.array_equal(state.z, np.array(z)), seed
        assert state.mu[:, 0] == pytest.approx(np.array(mu), abs=0, rel=0), seed
        assert state.phi[:, 0] == pytest.approx(np.array(phi), abs=0, rel=0), seed
        assert state.xi[0] == xi, seed
        assert state.theta == theta, seed
    assert events["fresh_open"] and events["own_reopen"] and events["closed_weighed"], events


def test_run_chain_counts_snapshots():
    data, _ = _blobs(seed=6, n_per=5)
    trace = run_chain(data, _hyper(), RunConfig(n_burn=0, n_keep=5, seed=3))
    assert len(trace) == 5
    for s in trace.snapshots:
        assert s.k == np.unique(s.z).size  # stored K matches its labels


def test_run_chain_thinning_controls_spacing():
    data, _ = _blobs(seed=6, n_per=5)
    trace = run_chain(data, _hyper(), RunConfig(n_burn=2, n_keep=4, thin=3, seed=3))
    assert len(trace) == 4


def test_run_chain_reports_progress_and_snapshots_after_burn_in():
    data, _ = _blobs(seed=6, n_per=3)
    hyper, cfg = _hyper(), RunConfig(n_burn=150, n_keep=60, thin=3)
    events = []
    trace = run_chain(data, hyper, cfg, rng=np.random.default_rng(4), progress=events.append)
    assert [(e.iteration, e.total) for e in events] == [(100, 330), (200, 330), (300, 330)]
    assert len(trace) == 60
    # snapshot j holds the state after sweep n_burn + j * thin
    rng = np.random.default_rng(4)
    vn = build_vn_table(data.n, hyper)
    state = init_state(data, hyper, cfg, rng)
    labels = []
    for _ in range(330):
        sweep(state, data, vn, hyper, rng)
        labels.append(state.z.copy())
    for j, snap in enumerate(trace.snapshots, start=1):
        assert np.array_equal(snap.z, labels[150 + j * 3 - 1])


def test_progress_copies_no_data(monkeypatch):
    # ||Y||_F^2 for the log-likelihood is read from the data in place
    data = DataMatrix(np.random.default_rng(0).standard_normal((400, 500)))
    cfg = RunConfig(n_burn=99, n_keep=1, init=InitSpec("random_k", 3))
    hyper_run, vn = gibbs._prepare(data, sg_default(data.p))
    state = init_state(data, hyper_run, cfg, np.random.default_rng(1))
    monkeypatch.setattr(gibbs, "init_state", lambda *args: state)
    monkeypatch.setattr(gibbs, "sweep", lambda *args: None)
    events = []
    tracemalloc.start()
    try:
        gibbs._run_prepared(data, hyper_run, vn, cfg, 0, np.random.default_rng(2), events.append)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [e.iteration for e in events] == [100]
    assert peak < data.values.nbytes / 8


def test_progress_loglik_matches_the_direct_residual():
    # the event's log-likelihood comes from cluster sums, not a p x n residual
    rng = np.random.default_rng(9)
    values = rng.standard_normal((20, 30)) * 3.0 + 50.0
    values[:, :10] -= 100.0
    data, hyper = DataMatrix(values), _hyper()
    cfg = RunConfig(n_burn=199, n_keep=1, init=InitSpec("random_k", 3))
    events = []
    run_chain(data, hyper, cfg, rng=np.random.default_rng(2), progress=events.append)
    rng = np.random.default_rng(2)
    vn = build_vn_table(data.n, hyper)
    state = init_state(data, hyper, cfg, rng)
    direct = []
    for it in range(1, 201):
        sweep(state, data, vn, hyper, rng)
        if it % 100 == 0:
            resid = values - state.mu[state.z - 1].T
            direct.append(-0.5 * float(np.sum(resid * resid)))
    assert [e.iteration for e in events] == [100, 200]
    assert [e.loglik for e in events] == pytest.approx(direct, rel=1e-9, abs=0)


def test_run_chain_reruns_bit_identical():
    data, _ = _blobs(seed=7, n_per=6)
    cfg = RunConfig(n_burn=3, n_keep=8, seed=11)
    t1 = run_chain(data, _hyper(), cfg)
    t2 = run_chain(data, _hyper(), cfg)
    for a, b in zip(t1.snapshots, t2.snapshots):
        assert np.array_equal(a.z, b.z)
        assert a.theta == b.theta
        assert np.array_equal(a.mu_support, b.mu_support)


def test_run_chain_state_invariants_hold():
    data, _ = _blobs(seed=8, n_per=6)
    hyper = _hyper()
    vn = build_vn_table(data.n, hyper)
    state = init_state(data, hyper, RunConfig(init=InitSpec("random_k", 2)), np.random.default_rng(5))
    rng = np.random.default_rng(5)
    for _ in range(30):
        sweep(state, data, vn, hyper, rng)
        state.check_invariants(k_max=hyper.k_max)


def test_run_chains_single_equals_run_chain():
    data, _ = _blobs(seed=9, n_per=5)
    cfg = RunConfig(n_burn=1, n_keep=4, seed=21, n_chains=1)
    solo = run_chain(data, _hyper(), cfg)
    multi = run_chains(data, _hyper(), cfg)
    assert len(multi) == 1
    for a, b in zip(solo.snapshots, multi[0].snapshots):
        assert np.array_equal(a.z, b.z) and a.theta == b.theta


def test_run_chains_match_run_chain_per_chain_id(monkeypatch):
    """Chain c of run_chains is run_chain(..., chain_id=c), bit for bit,
    and the four chains share one V_n table."""
    data, _ = _blobs(seed=10, n_per=5)
    cfg = RunConfig(n_burn=1, n_keep=5, seed=33, n_chains=4, store_dense_mu=True)
    tables = []

    def counting_build(n, hyper):
        tables.append(build_vn_table(n, hyper))
        return tables[-1]

    monkeypatch.setattr(gibbs, "build_vn_table", counting_build)
    chains = run_chains(data, _hyper(), cfg)
    assert len(tables) == 1
    assert [t.meta.chain_id for t in chains] == [0, 1, 2, 3]
    for cid, multi in enumerate(chains):
        solo = run_chain(data, _hyper(), cfg, chain_id=cid)
        assert trace_to_ndjson(solo) == trace_to_ndjson(multi)


@pytest.mark.parametrize("ssl_mode", ["joint", COLUMN_SSL])
@pytest.mark.parametrize("toward", [np.inf, -np.inf])
def test_traces_ignore_the_last_bit_of_the_reseat_inner_products(monkeypatch, ssl_mode, toward):
    """G only steers categorical draws, so the products' layout may change
    its last bits: moving every entry of G one ulp leaves the trace
    byte-identical, while moving the first row of each product by 1 does
    not."""
    from sparsegmm.synthetic import ScenarioSpec, generate
    from sparsegmm.urn import ReseatWorkspace

    data = generate(ScenarioSpec(scenario="one", p=100, n=100, s=6, mean_scale=1.5, seed=1))[0]
    hyper = sg_default(data.p, ssl_mode=ssl_mode)
    cfg = RunConfig(n_burn=10, n_keep=20, seed=1, store_dense_mu=True)
    plain = trace_to_ndjson(run_chain(data, hyper, cfg))
    build, open_ = ReseatWorkspace.__init__, ReseatWorkspace.open
    opens = []

    def fit(nudge):
        def nudged_build(ws, *args):
            build(ws, *args)
            nudge(ws.g[: ws.k + 1])

        def nudged_open(ws, rng):
            open_(ws, rng)
            nudge(ws.g[ws.k : ws.k + 1])  # the fresh auxiliary's row
            opens.append(ws.k)

        monkeypatch.setattr(ReseatWorkspace, "__init__", nudged_build)
        monkeypatch.setattr(ReseatWorkspace, "open", nudged_open)
        return trace_to_ndjson(run_chain(data, hyper, cfg))

    assert fit(lambda g: np.nextafter(g, toward, out=g)) == plain
    assert opens
    assert fit(lambda g: np.add(g[:1], 1.0, out=g[:1])) != plain


@pytest.mark.parametrize("run", [run_chain, run_chains])
def test_k_max_clamp_warns_at_the_callers_line(run):
    data, _ = _blobs(seed=10, n_per=2)
    cfg = RunConfig(n_burn=1, n_keep=1, n_chains=2)
    with pytest.warns(UserWarning, match="clamping to n") as caught:
        run(data, _hyper(k_max=data.n + 1), cfg)
    assert [w.filename for w in caught] == [__file__]


def test_run_chains_five_chains_agree_on_separated_blobs():
    # spike rate low enough that the per-coordinate cluster sums (~48)
    # activate the slab immediately; all chains then agree on K = 2
    data, truth = _blobs(seed=12, n_per=8, sep=6.0)
    hyper = Hyperparams(lambda0=10.0, lambda1=1.0, beta_theta=4.0, k_max=5)
    cfg = RunConfig(n_burn=60, n_keep=60, seed=2, n_chains=5)
    traces = run_chains(data, hyper, cfg)
    modes = []
    for t in traces:
        ks = t.k_values()
        modes.append(np.bincount(ks).argmax())
    assert len(set(modes)) == 1
    assert modes[0] == 2


def test_chains_recover_toy_three_cluster_design():
    # small three-cluster benchmark: every chain's posterior mode of K is 3.
    # The posterior is not sharp: the splits of the zero-mean cluster (26
    # observations) have posterior odds ~0.66 to the true partition
    # (scripts/split_odds.py), so P(K=3) ~0.55 and P(K=4) ~0.36.  K moves
    # between the two only by single-observation reseats, so each chain
    # keeps 3000 draws: with 600, some chain's mode was 4 at 4 of the
    # master seeds 4..10.
    from sparsegmm.synthetic import ScenarioSpec, generate

    spec = ScenarioSpec(scenario="one", p=50, n=60, s=6, mean_scale=3.0, seed=2)
    data, z_true, _ = generate(spec)
    hyper = sg_default(50)
    traces = run_chains(data, hyper, RunConfig(n_burn=400, n_keep=3000, seed=4, n_chains=5))
    modes = [int(np.bincount(t.k_values()).argmax()) for t in traces]
    assert modes == [3, 3, 3, 3, 3]
    from sparsegmm.metrics import ari
    from sparsegmm.summarize import align_labels, point_estimates

    est = point_estimates(align_labels(traces[0], data))
    assert ari(z_true, est.z_hat) > 0.95


def test_geweke_column_mode_joint_distribution():
    """Successive-conditional vs forward prior statistics, per-cluster indicators."""
    hyper = Hyperparams(lambda0=4.0, lambda1=1.0, beta_theta=2.0, alpha=1.5,
                        poisson_lambda=2.0, k_max=3, ssl_mode=COLUMN_SSL)
    z = geweke_z(*geweke(5, 2, hyper, 20_000, lambda st: (st.theta, st.k_active, st.mu[0, 0]),
                         (50, 60)))
    assert (z < 5).all(), z


@pytest.mark.parametrize("ssl_mode", ["joint", COLUMN_SSL])
def test_geweke_harness_catches_a_wrong_theta_update(monkeypatch, ssl_mode):
    """Negative control: a theta update that drops the off-indicator count
    from its Beta shapes reads far beyond criterion 2c's |z| < 4."""
    def wrong_theta(state, hyper, rng):
        xi = state.xi[0] if hyper.ssl_mode == "joint" else state.xi
        state.theta = float(rng.beta(1.0 + xi.sum(), hyper.beta_theta))

    monkeypatch.setattr(gibbs, "update_theta", wrong_theta)
    hyper = Hyperparams(lambda0=4.0, lambda1=1.0, beta_theta=2.0, alpha=1.5,
                        poisson_lambda=2.0, k_max=3, ssl_mode=ssl_mode)
    assert geweke_z(*geweke(5, 2, hyper, 5_000, lambda st: (st.theta,), (606, 707)))[0] > 4.0


@pytest.mark.parametrize("ssl_mode", ["joint", "column"])
def test_chain_matches_exact_partition_posterior(ssl_mode):
    """On five fixed observations the chain's partitions, and the indicator
    of observation 1's cluster, follow the posterior computed by
    enumerating every partition with all else integrated out.

    Partitions of posterior mass > 0.01 and the indicator are each held to
    |z| < 4 by batch means, and the total variation to 0.03.  Odds that
    drop the -log1p(n_c phi / lambda^2) / 2 term read total variation
    0.077 and 0.042 here, and |z| = 61 and 43 on the indicator.
    """
    hyper = Hyperparams(lambda0=4.0, lambda1=1.0, beta_theta=2.0, alpha=1.5, k_max=4,
                        ssl_mode=ssl_mode)
    data = DataMatrix(np.array([[-1.3, -0.9, 0.2, 1.6, 2.4]]))
    exact = exact_partition_posterior(data.values, hyper)
    vn = build_vn_table(data.n, hyper)
    rng = np.random.default_rng(1)
    state = init_state(data, hyper, RunConfig(init=InitSpec("single")), rng)
    sweeps = 30_000
    parts, xi_on = [], np.empty(sweeps)
    for r in range(sweeps):
        sweep(state, data, vn, hyper, rng)
        first = {}  # labels renumbered by first appearance
        parts.append(tuple(first.setdefault(c, len(first) + 1) for c in state.z.tolist()))
        xi_on[r] = state.xi[state.z[0] - 1, 0]

    freq = {part: 0 for part in exact}
    for part in parts:
        freq[part] += 1
    tv = 0.5 * sum(abs(freq[part] / sweeps - mass) for part, (mass, _) in exact.items())
    assert tv < 0.03, tv
    for part, (mass, _) in exact.items():
        if mass > 0.01:
            hits = np.array([q == part for q in parts], dtype=float)
            assert abs(hits.mean() - mass) < 4 * batch_means_se(hits), (part, hits.mean(), mass)
    on = sum(o for _, o in exact.values())
    assert abs(xi_on.mean() - on) < 4 * batch_means_se(xi_on), (xi_on.mean(), on)
